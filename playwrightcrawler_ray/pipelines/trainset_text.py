"""Documents table → training-ready text shards.

The text-side analogue of ``pipelines/trainset.py`` (VERDICT r3 item
7): composes the engine's own curation operators into the pipeline a
large-scale LLM-pretraining corpus build runs, every stage a streaming
``map_batches``/``groupby`` over the documents Dataset:

0.5. **cross-doc paragraph-exact dedup** (optional) — rewrite every
   document with globally-duplicated paragraph chunks removed before
   anything else sees the text (``ops/pardedup``: two hash-partition
   shuffles, zero broadcast; fully-deduplicated docs drop out);
1. **quality gate** — whitespace-token-count bounds (the
   ``token_counts`` convention: space-split, SQL
   ``LEN(STRING_SPLIT(text,' '))``) plus an optional language
   allowlist, vectorized pyarrow kernels; the content hash (md5) is
   stamped in the same pass so the text is read once;
1.5. **benchmark decontamination** (optional) — drop the holdout
   slice and every doc sharing a word-n-gram with it
   (``ops/dedup.benchmark_hash_set`` broadcast + per-batch
   searchsorted, zero shuffle);
2. **exact dedup** — hash-partition on the content hash, keep the
   minimum ``doc_id`` per group (``doc_exact_dedup``'s keep rule).
   One full-data shuffle keyed on the uniformly-distributed hash —
   the same shape exact dedup has at 100 TB;
3. **near-dup collapse** — MinHash-LSH candidate pairs verified at
   ``threshold`` over the survivors (``edge_mode="exact"`` swaps in
   the exact distributed Jaccard kernel — deterministic and
   SQL-expressible, the oracle anchor), distributed star contraction
   labels the edge-touched vertices only (edge-sized state, NOT
   corpus-sized), and each component keeps its minimum-``doc_id``
   representative — the same winner rule the crawl's image dedup and
   ``doc_neardup_dedup`` use. The drop set (near-dup losers) is
   broadcast once via ``ray.put`` — near-dup-cluster-sized, ≪ corpus;
4. **per-source quota** — bounded ``groupby(source).map_groups``
   keeping the first ``per_source_cap`` docs by ``doc_id``
   (``docs_per_source_cap``'s ROW_NUMBER rule);
5. **partitioned write** — ``shard = doc_id % n_shards`` directories,
   so a failed export resumes per shard and a trainer reads without a
   shuffle.

Reference behaviors composed: content dedup keep-first
(playwrightcrawler's image pixel-hash rule, playwrightcrawler.py
download_images; applied here to text), quality/length admission
gates (host/URL admission filters §preprocess), per-host quotas
(max_urls_per_host → per-source doc quota).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..ops.io import materialize, to_frame

_FINAL_COLS = ["doc_id", "text", "lang", "source", "n_tokens", "text_hash"]
# the manifest a written corpus reads back as (``shard`` is the
# partition directory)
_MANIFEST_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("source", pa.string()), ("lang", pa.string()),
    ("n_tokens", pa.int64()), ("shard", pa.int64()),
])


def build_text_trainset(
    sf_dir: str,
    dest: str,
    min_tokens: int = 5,
    max_tokens: int = 10_000,
    langs: list[str] | None = None,
    per_source_cap: int = 20,
    n_shards: int = 8,
    w: int = 3,
    threshold: float = 0.5,
    edge_mode: str = "minhash",
    decontaminate_mod: int | None = None,
    paragraph_dedup_words: int | None = None,
) -> dict:
    """Build the text training corpus (see module docstring). Returns
    summary stats; the shards land under ``dest``."""
    from ..ops import dedup as D
    from ..ops.ann import _components_from_edges
    from ..ops.io import read_table

    ds = read_table(sf_dir, "documents",
                    ["doc_id", "text", "lang", "source"])

    # --- 0.5 (optional) cross-doc paragraph-exact dedup: rewrite every
    # document with globally-duplicated paragraph chunks removed (the
    # RefinedWeb/Dolma sub-document stage) BEFORE the gate, so token
    # counts and content hashes see the deduplicated text. Two
    # hash-partition shuffles, zero broadcast (ops/pardedup).
    if paragraph_dedup_words:
        from ..ops.pardedup import paragraph_dedup_dataset

        ds = paragraph_dedup_dataset(
            ds, chunk_words=paragraph_dedup_words,
            meta_cols=("lang", "source"),
        ).select_columns(["doc_id", "text", "lang", "source"])

    # --- 1. quality gate (+ content hash, same pass over the text) ---
    def gate(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.list_value_length(pc.split_pattern(t["text"], " ")),
            pa.int64(),
        )
        keep = pc.and_(
            pc.greater_equal(n_tok, min_tokens),
            pc.less_equal(n_tok, max_tokens),
        )
        if langs is not None:
            keep = pc.and_(keep, pc.is_in(t["lang"], value_set=pa.array(langs)))
        t = t.append_column("n_tokens", n_tok).filter(keep)
        import hashlib

        h = pa.array(
            [hashlib.md5(x.encode("utf-8")).hexdigest()
             for x in t["text"].to_pylist()]
        )
        return t.append_column("text_hash", h)

    gated = ds.map_batches(gate, batch_format="pyarrow")

    # --- 1.5 (optional) benchmark decontamination: drop the holdout
    # slice itself AND every gated doc sharing a w-gram with it. The
    # holdout shingles come from the RAW documents (eval docs count
    # whether or not they'd pass the training gate); the shingle-hash
    # set is corpus-independent-small → ray.put broadcast + one
    # searchsorted per batch, zero shuffle (ops/dedup.benchmark_hash_set).
    n_contaminated = n_holdout = 0
    if decontaminate_mod:
        bset_ref = ray.put(D.benchmark_hash_set(
            ds.select_columns(["doc_id", "text"]), w, decontaminate_mod))

        def drop_contaminated(df: pd.DataFrame) -> pd.DataFrame:
            sub = df[df["doc_id"] % decontaminate_mod != 0]
            hits = D.overlap_counts(
                sub["text"].tolist(), ray.get(bset_ref), w)
            return sub[hits == 0]

        # materialize the gate output ONCE — counting a lazy Dataset
        # and then mapping it would re-run the gate (the most
        # expensive stage) from scratch
        gated = materialize(gated)
        pre = gated.count()

        def holdout_count(df: pd.DataFrame) -> pd.DataFrame:
            n = int((df["doc_id"] % decontaminate_mod == 0).sum())
            return pd.DataFrame({"n": pd.array([n], dtype="int64")})

        n_holdout = int(to_frame(gated.map_batches(
            holdout_count, batch_format="pandas"))["n"].sum())
        gated = materialize(gated.map_batches(
            drop_contaminated, batch_format="pandas"))
        # contamination drops only — the holdout slice is removed by
        # definition, not because it overlapped anything
        n_contaminated = pre - n_holdout - gated.count()

    # --- 2. exact dedup: one shuffle on the content hash ---
    def keep_min(g: pd.DataFrame) -> pd.DataFrame | pa.Table:
        out = g.sort_values("doc_id").head(1)
        if len(out):
            return out
        # zero rows: typed columns, since Ray cannot size an empty
        # object column
        return pa.table({c: pa.array(out[c], pa.string()
                                     if out[c].dtype == object else None)
                         for c in out.columns})

    # consumed twice below (edge gen + final filter)
    survivors = materialize(gated.groupby("text_hash").map_groups(
        keep_min, batch_format="pandas"))

    # --- 3. near-dup collapse over the survivors ---
    sel = survivors.select_columns(["doc_id", "text"])
    if edge_mode == "exact":
        pairs = D.q_ngram_jaccard_top_pairs(
            sf_dir, w=w, k=None, min_jaccard=threshold, docs_ds=sel
        )
    else:
        pairs = D.q_minhash_lsh_pairs(
            sf_dir, w=w, threshold=threshold, docs_ds=sel
        )
    if len(pairs):
        edges = pd.DataFrame(
            {"vec_a": pairs["doc_a"].astype(np.int64),
             "vec_b": pairs["doc_b"].astype(np.int64)}
        )
        # label ONLY edge-touched vertices (edge-sized, not corpus-
        # sized); untouched docs keep themselves by construction
        touched = np.unique(
            np.concatenate([edges["vec_a"], edges["vec_b"]])
        ).astype(np.int64)
        verts = ray.data.from_pandas(pd.DataFrame({"vec_id": touched}))
        lab = _components_from_edges(sf_dir, edges, vertices=verts)
        drop = lab.loc[
            lab["vec_id"] != lab["component_id"], "vec_id"
        ].to_numpy().astype(np.int64)
    else:
        drop = np.empty(0, dtype=np.int64)
    drop_ref = ray.put(np.sort(drop))

    def drop_neardups(t: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        if len(d) == 0:
            return t
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(d, ids)
        hit = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == ids)
        return t.filter(pa.array(~hit))

    kept = survivors.map_batches(drop_neardups, batch_format="pyarrow")

    # --- 4. per-source quota (bounded group output) ---
    def cap_source(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").head(per_source_cap)

    capped = kept.groupby("source").map_groups(
        cap_source, batch_format="pandas"
    )

    # --- 5. sharded, resumable write ---
    def add_shard(t: pa.Table) -> pa.Table:
        shard = pc.cast(
            pc.bit_wise_and(t["doc_id"], n_shards - 1)
            if (n_shards & (n_shards - 1)) == 0
            else pa.array(
                t["doc_id"].to_numpy(zero_copy_only=False) % n_shards
            ),
            pa.int64(),
        )
        return t.select(_FINAL_COLS).append_column("shard", shard)

    shutil.rmtree(dest, ignore_errors=True)
    capped.map_batches(add_shard, batch_format="pyarrow").write_parquet(
        dest, partition_cols=["shard"]
    )
    return {
        "rows": len(read_manifest(dest)),
        "dest": dest,
        "n_dropped_decontam": int(n_contaminated),
        "n_dropped_holdout": int(n_holdout),
        "n_dropped_neardup": int(len(drop)),
        "partitions": len(
            [d for d in os.listdir(dest) if d.startswith("shard=")]
        ),
    }


def read_manifest(dest: str) -> pd.DataFrame:
    """The curated corpus's manifest under ``dest`` (metadata columns,
    by ``doc_id``), typed by ``_MANIFEST_SCHEMA`` even when the write
    left no ``shard=*`` directory."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    os.makedirs(dest, exist_ok=True)
    shard = pads.partitioning(pa.schema([_MANIFEST_SCHEMA.field("shard")]),
                              flavor="hive")
    df = pq.read_table(dest, schema=_MANIFEST_SCHEMA,
                       partitioning=shard).to_pandas()
    return df.sort_values("doc_id").reset_index(drop=True)


def q_docs_trainset(sf_dir: str, edge_mode: str = "minhash") -> pd.DataFrame:
    """Driver query: run the full text-trainset build and return the
    curated corpus manifest (metadata columns only, deterministic
    order). Rows-only when ``edge_mode='minhash'`` (LSH recall);
    the ``exact`` twin is oracle-checked against DuckDB."""
    dest = f"/tmp/pwc_text_trainset_{edge_mode}"
    build_text_trainset(sf_dir, dest, edge_mode=edge_mode)
    return read_manifest(dest)


def q_docs_trainset_exact(sf_dir: str) -> pd.DataFrame:
    return q_docs_trainset(sf_dir, edge_mode="exact")


def q_docs_trainset_decontam(sf_dir: str, bench_mod: int = 97
                             ) -> pd.DataFrame:
    """The full curation chain WITH the benchmark-decontamination
    stage active (gate → decontaminate → exact dedup → exact-edge
    near-dup collapse → quota → sharded write)."""
    dest = "/tmp/pwc_text_trainset_decontam"
    build_text_trainset(sf_dir, dest, edge_mode="exact",
                        decontaminate_mod=bench_mod)
    return read_manifest(dest)


def q_docs_trainset_pardedup(sf_dir: str, chunk_words: int = 8
                             ) -> pd.DataFrame:
    """The full curation chain WITH the cross-doc paragraph-exact
    dedup stage active (paragraph dedup → gate → exact dedup →
    exact-edge near-dup collapse → quota → sharded write)."""
    dest = "/tmp/pwc_text_trainset_pardedup"
    build_text_trainset(sf_dir, dest, edge_mode="exact",
                        paragraph_dedup_words=chunk_words)
    return read_manifest(dest)


def sql_docs_trainset_exact(
    min_tokens: int = 5,
    max_tokens: int = 10_000,
    per_source_cap: int = 20,
    n_shards: int = 8,
    w: int = 3,
    threshold: float = 0.5,
    decontaminate_mod: int | None = None,
    paragraph_dedup_words: int | None = None,
) -> str:
    """DuckDB oracle for the exact-edges text-trainset build: the same
    gate → (optional decontamination) → md5-min exact dedup →
    exact-Jaccard recursive-CTE components (min-id keep) → ROW_NUMBER
    per-source cap → shard stamp, composed from the already-oracled
    per-stage queries."""
    join_expr = " || ' ' || ".join(f"ws[i+{j}]" for j in range(w))
    if decontaminate_mod:
        m = decontaminate_mod
        decontam = f"""
raw AS (SELECT doc_id,
               LIST_FILTER(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS ws
        FROM documents WHERE doc_id % {m} = 0),
bench_sh AS (
  SELECT DISTINCT {join_expr} AS s
  FROM raw, UNNEST(RANGE(1, LEN(ws) - {w - 2})) AS t(i)
),
g_sh AS (
  SELECT DISTINCT doc_id, {join_expr} AS s
  FROM (SELECT doc_id,
               LIST_FILTER(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS ws
        FROM gate0 WHERE doc_id % {m} <> 0) g,
       UNNEST(RANGE(1, LEN(ws) - {w - 2})) AS t(i)
),
contaminated AS (SELECT DISTINCT doc_id FROM g_sh JOIN bench_sh USING (s)),
gate AS (
  SELECT * FROM gate0
  WHERE doc_id % {m} <> 0
    AND doc_id NOT IN (SELECT doc_id FROM contaminated)
),"""
        gate_name = "gate0"
    else:
        decontam = ""
        gate_name = "gate"
    src = "documents"
    pardedup = ""
    if paragraph_dedup_words:
        # stage 0.5: the docs_paragraph_dedup oracle inlined — the
        # gate reads the paragraph-deduplicated rewrite of the corpus
        cw = paragraph_dedup_words
        src = "docs_pd"
        pardedup = f"""
pd_words AS (
  SELECT doc_id, STRING_SPLIT(text, ' ') AS pw FROM documents
),
pd_expl AS (
  SELECT doc_id, i, pw[i] AS word
  FROM pd_words,
       (SELECT UNNEST(GENERATE_SERIES(1, (SELECT MAX(LEN(pw))
                                          FROM pd_words))) AS i) pseq
  WHERE i <= LEN(pw)
),
pd_pars AS (
  SELECT doc_id, (i - 1) // {cw} AS idx,
         STRING_AGG(word, ' ' ORDER BY i) AS par
  FROM pd_expl GROUP BY doc_id, (i - 1) // {cw}
),
pd_ranked AS (
  SELECT doc_id, idx, par,
         ROW_NUMBER() OVER (PARTITION BY par ORDER BY doc_id, idx) AS rn
  FROM pd_pars
),
docs_pd AS (
  SELECT r.doc_id, STRING_AGG(r.par, ' ' ORDER BY r.idx) AS text,
         ANY_VALUE(doc.lang) AS lang, ANY_VALUE(doc.source) AS source
  FROM pd_ranked r JOIN documents doc USING (doc_id)
  WHERE r.rn = 1 GROUP BY r.doc_id
),"""
    return f"""
WITH RECURSIVE{pardedup}
{gate_name} AS (
  SELECT doc_id, text, lang, source,
         CAST(LEN(STRING_SPLIT(text, ' ')) AS BIGINT) AS n_tokens
  FROM {src}
  WHERE LEN(STRING_SPLIT(text, ' ')) BETWEEN {min_tokens} AND {max_tokens}
),{decontam}
exact AS (
  SELECT doc_id, text, lang, source, n_tokens FROM (
    SELECT g.*, MIN(doc_id) OVER (PARTITION BY MD5(text)) AS keeper
    FROM gate g
  ) WHERE doc_id = keeper
),
d AS (SELECT doc_id,
             LIST_FILTER(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS ws
      FROM exact),
sh AS (
  SELECT DISTINCT doc_id, {join_expr} AS s
  FROM d, UNNEST(RANGE(1, LEN(ws) - {w - 2})) AS t(i)
),
cnt AS (SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, COUNT(*) AS i
  FROM sh x JOIN sh y USING (s)
  WHERE x.doc_id < y.doc_id
  GROUP BY x.doc_id, y.doc_id
),
prs AS (
  SELECT doc_a, doc_b
  FROM inter
  JOIN cnt ca ON ca.doc_id = doc_a
  JOIN cnt cb ON cb.doc_id = doc_b
  WHERE i * 1.0 / (ca.n + cb.n - i) >= {threshold}
),
edges AS (SELECT doc_a AS va, doc_b AS vb FROM prs
          UNION ALL SELECT doc_b AS va, doc_a AS vb FROM prs),
cc(v, lbl) AS (
  SELECT doc_id, doc_id FROM exact
  UNION
  SELECT edges.va, cc.lbl FROM cc JOIN edges ON cc.v = edges.vb
),
keepers AS (SELECT v AS doc_id FROM cc GROUP BY v HAVING v = MIN(lbl)),
capped AS (
  SELECT e.doc_id, e.source, e.lang, e.n_tokens,
         ROW_NUMBER() OVER (PARTITION BY e.source ORDER BY e.doc_id) AS rn
  FROM exact e JOIN keepers k USING (doc_id)
)
SELECT doc_id, source, lang, n_tokens,
       doc_id % {n_shards} AS shard
FROM capped WHERE rn <= {per_source_cap}
ORDER BY doc_id
"""


def sql_docs_trainset_decontam(bench_mod: int = 97) -> str:
    return sql_docs_trainset_exact(decontaminate_mod=bench_mod)


def sql_docs_trainset_pardedup(chunk_words: int = 8) -> str:
    return sql_docs_trainset_exact(paragraph_dedup_words=chunk_words)
