"""Cross-document paragraph-level exact deduplication — the
RefinedWeb / Dolma curation stage: every paragraph that occurs
anywhere earlier in the corpus is removed from later documents, and
documents are reassembled from their surviving paragraphs (dropping
documents that lose every paragraph).

The reference crawler dedups whole pages by ``sha256(url)`` /
pixel-hash (playwrightcrawler.py:1431-1456, :3858) but has no
sub-document dedup; this is the standard extra stage a 100 TB
training-data pipeline runs between exact-doc dedup and near-dup
collapse.

Paragraph tokenizer: real crawled text splits on blank lines; the
synthetic documents table is single-line, so the unit here is a
deterministic fixed-width chunk of ``chunk_words`` whitespace tokens
(non-overlapping, last chunk short) — same policy in the Ray kernel
and the SQL oracle, so the op stays value-hash comparable.

Scale shape (100 TB): two shuffles, zero broadcast, no all-pairs —
 (1) explode docs into (paragraph, doc_id, idx) rows, hash-partition
     on the paragraph hash, and pick the global first occurrence
     (lexicographic min over (doc_id, idx)) per EXACT paragraph
     string inside each partition;
 (2) hash-partition the flagged rows back on doc_id and reassemble
     each document from its kept paragraphs in original order.
Both group stages see only their partition (edge-sized state); the
winner choice compares full paragraph strings, so 64-bit partition
hash collisions cannot merge distinct paragraphs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.text import fingerprint64
from .io import to_frame


def _explode_wgrams(df: pd.DataFrame, w: int, n_parts: int):
    """Sliding w-gram explode shared by the dup-ngram-fraction
    diagnostic and the ExactSubstr cut — ONE definition of gram
    identity (space split/join, blake2b-64, ``% n_parts``) so the two
    ops can never silently diverge. Returns parallel lists
    (doc_ids, starts, grams, parts) plus the ids of docs shorter than
    ``w`` words (which produce no grams)."""
    out_doc, out_start, out_gram, out_part = [], [], [], []
    short_doc: list[int] = []
    for doc_id, text in zip(df["doc_id"], df["text"]):
        words = text.split(" ")
        doc_id = int(doc_id)
        if len(words) < w:
            short_doc.append(doc_id)
            continue
        for i in range(len(words) - w + 1):
            g = " ".join(words[i:i + w])
            h = fingerprint64(g)
            out_doc.append(doc_id)
            out_start.append(i)
            out_gram.append(g)
            out_part.append(h % n_parts)
    return out_doc, out_start, out_gram, out_part, short_doc


def _explode_paragraphs(df: pd.DataFrame, chunk_words: int, n_parts: int,
                        meta_cols: tuple[str, ...] = ()) -> pd.DataFrame:
    """(doc_id, text) batch → one row per paragraph chunk with a
    deterministic 64-bit partition key. Per-doc metadata columns ride
    on the idx-0 row only (None elsewhere) so the reassembly stage can
    restore them without a separate join."""
    out_doc, out_idx, out_par, out_part = [], [], [], []
    out_meta: dict[str, list] = {c: [] for c in meta_cols}
    for row in zip(df["doc_id"], df["text"],
                   *(df[c] for c in meta_cols)):
        doc_id, text, meta = int(row[0]), row[1], row[2:]
        words = text.split(" ")
        for idx in range(0, (len(words) + chunk_words - 1) // chunk_words):
            par = " ".join(words[idx * chunk_words:(idx + 1) * chunk_words])
            h = fingerprint64(par)
            out_doc.append(doc_id)
            out_idx.append(idx)
            out_par.append(par)
            out_part.append(h % n_parts)
            for c, v in zip(meta_cols, meta):
                out_meta[c].append(v if idx == 0 else None)
    cols = {
        "doc_id": pd.array(out_doc, dtype="int64"),
        "idx": pd.array(out_idx, dtype="int64"),
        "par": pd.array(out_par, dtype="string[pyarrow]"),
        "part": pd.array(out_part, dtype="int32"),
    }
    for c in meta_cols:
        cols[c] = pd.array(out_meta[c], dtype="string[pyarrow]")
    return pd.DataFrame(cols)


def paragraph_dedup_dataset(ds, chunk_words: int = 8, n_parts: int = 64,
                            meta_cols: tuple[str, ...] = ()):
    """Dataset-level paragraph-exact dedup kernel (see module
    docstring): ``(doc_id, text, *meta_cols)`` Dataset → lazy Dataset
    of surviving documents ``(doc_id, text, *meta_cols, n_pars,
    n_dropped)``. Used standalone by :func:`q_docs_paragraph_dedup`
    and as stage 0.5 of the text-trainset builder."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        return _explode_paragraphs(df, chunk_words, n_parts, meta_cols)

    def flag_winners(g: pd.DataFrame) -> pd.DataFrame:
        """Within one paragraph-hash partition: keep the global first
        (doc_id, idx) occurrence of each exact paragraph string."""
        g = g.sort_values(["par", "doc_id", "idx"], kind="stable")
        keep = ~g["par"].duplicated(keep="first").to_numpy()
        cols = {
            "doc_id": g["doc_id"].to_numpy(),
            "idx": g["idx"].to_numpy(),
            "par": g["par"].to_numpy(),
            "keep": keep,
            # re-key the second shuffle on the document
            "part2": (g["doc_id"].to_numpy() % n_parts).astype(np.int32),
        }
        for c in meta_cols:
            cols[c] = g[c].to_numpy()
        return pd.DataFrame(cols)

    def reassemble(g: pd.DataFrame) -> pa.Table:
        """Within one doc-id partition: rebuild each document from its
        kept paragraphs in original order; drop fully-deduped docs."""
        g = g.sort_values(["doc_id", "idx"], kind="stable")
        docs = [(d, sub) for d, sub in g.groupby("doc_id", sort=True)
                if sub["keep"].any()]
        cols = {
            "doc_id": pa.array([d for d, _ in docs], pa.int64()),
            "text": pa.array([" ".join(sub.loc[sub["keep"], "par"])
                              for _, sub in docs], pa.string()),
        }
        for c in meta_cols:  # the idx-0 row carries the metadata
            cols[c] = pa.array([sub[c].iloc[0] for _, sub in docs],
                               pa.string())
        cols["n_pars"] = pa.array([len(sub) for _, sub in docs], pa.int64())
        cols["n_dropped"] = pa.array([int((~sub["keep"]).sum())
                                      for _, sub in docs], pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(explode, batch_format="pandas")
        .groupby("part")
        .map_groups(flag_winners, batch_format="pandas")
        .groupby("part2")
        .map_groups(reassemble, batch_format="pandas")
    )


def q_docs_paragraph_dedup(sf_dir: str, chunk_words: int = 8,
                           n_parts: int = 64) -> pd.DataFrame:
    """Global paragraph-exact dedup over the documents table.

    Returns one row per surviving document:
    ``(doc_id, text, n_pars, n_dropped)`` — ``text`` is the document
    rebuilt from its kept paragraphs, ``n_pars`` the original
    paragraph count, ``n_dropped`` how many were removed as
    duplicates of an earlier (doc_id, idx) occurrence.
    """
    from .textstats import _docs

    ds = _docs(sf_dir, ["doc_id", "text"])
    out = to_frame(paragraph_dedup_dataset(ds, chunk_words, n_parts))
    return (
        out[["doc_id", "text", "n_pars", "n_dropped"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_docs_dup_ngram_fraction(sf_dir: str, w: int = 8,
                              n_parts: int = 64) -> pd.DataFrame:
    """Per-document duplicate n-gram fraction — the Lee et al.
    ("Deduplicating Training Data Makes Language Models Better") /
    Gopher diagnostic: what share of a document's sliding word
    ``w``-grams occur anywhere else in the corpus (including other
    positions of the same document)?

    Returns ``(doc_id, n_grams, n_dup, dup_bp)`` for EVERY document —
    ``dup_bp`` is integer basis points ``n_dup * 10000 // n_grams``
    (0 for docs shorter than ``w`` tokens), float-free so the DuckDB
    compare is bit-exact.

    Scale shape: one shuffle. Sliding grams are exploded per batch and
    hash-partitioned on the gram; every occurrence of a gram lands in
    one partition, so the global occurrence count per EXACT gram
    string is a per-group size, and each group emits doc-sized
    partials ``(doc_id, n_grams, n_dup)`` that a final combine sums.
    No broadcast, no all-pairs; partition hash collisions are harmless
    (grouping inside the partition is by the gram string itself).
    """
    from .textstats import _docs

    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, _, out_gram, out_part, short_doc = \
            _explode_wgrams(df, w, n_parts)
        # docs with no grams ride along as sentinel rows (part -1)
        # so they surface in the output with n_grams = 0
        return pd.DataFrame(
            {
                "doc_id": pd.array(out_doc + short_doc, dtype="int64"),
                "gram": pd.array(
                    out_gram + [""] * len(short_doc),
                    dtype="string[pyarrow]"),
                "part": pd.array(
                    out_part + [-1] * len(short_doc), dtype="int32"),
            }
        )

    def gram_partials(g: pd.DataFrame) -> pd.DataFrame:
        """Per gram-hash partition → doc-sized partials."""
        if (g["part"] < 0).any():
            # sentinel partition: short docs, zero grams
            return pd.DataFrame(
                {
                    "doc_id": g["doc_id"].astype("int64"),
                    "n_grams": pd.array([0] * len(g), dtype="int64"),
                    "n_dup": pd.array([0] * len(g), dtype="int64"),
                }
            )
        sizes = g.groupby("gram")["doc_id"].transform("size")
        dup = (sizes >= 2).to_numpy()
        out = (
            pd.DataFrame({"doc_id": g["doc_id"].to_numpy(), "dup": dup})
            .groupby("doc_id", as_index=False)
            .agg(n_grams=("dup", "size"), n_dup=("dup", "sum"))
        )
        out["n_grams"] = out["n_grams"].astype("int64")
        out["n_dup"] = out["n_dup"].astype("int64")
        return out

    parts = to_frame(
        ds.map_batches(explode, batch_format="pandas")
        .groupby("part")
        .map_groups(gram_partials, batch_format="pandas")
    )
    out = parts.groupby("doc_id", as_index=False).agg(
        n_grams=("n_grams", "sum"), n_dup=("n_dup", "sum")
    )
    out["dup_bp"] = np.where(
        out["n_grams"] > 0, out["n_dup"] * 10000 // out["n_grams"].clip(1), 0
    ).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def sql_docs_dup_ngram_fraction(w: int = 8) -> str:
    """DuckDB twin: sliding grams via a framed window STRING_AGG,
    global counts per exact gram, integer basis points."""
    return f"""
WITH words AS (
  SELECT doc_id, STRING_SPLIT(text, ' ') AS ws FROM documents
), expl AS (
  SELECT doc_id, i, ws[i] AS word, LEN(ws) AS t
  FROM words,
       (SELECT UNNEST(GENERATE_SERIES(1, (SELECT MAX(LEN(ws)) FROM words)))
               AS i) seq
  WHERE i <= LEN(ws)
), grams AS (
  SELECT doc_id, i, t,
         STRING_AGG(word, ' ') OVER (
             PARTITION BY doc_id ORDER BY i
             ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS g
  FROM expl
), valid AS (
  SELECT doc_id, g FROM grams WHERE i <= t - {w - 1}
), counts AS (
  SELECT g, COUNT(*) AS c FROM valid GROUP BY g
), perdoc AS (
  SELECT v.doc_id, COUNT(*) AS n_grams,
         COUNT(*) FILTER (c >= 2) AS n_dup
  FROM valid v JOIN counts USING (g) GROUP BY v.doc_id
)
SELECT d.doc_id,
       COALESCE(p.n_grams, 0) AS n_grams,
       COALESCE(p.n_dup, 0) AS n_dup,
       CAST(CASE WHEN COALESCE(p.n_grams, 0) > 0
                 THEN p.n_dup * 10000 // p.n_grams ELSE 0 END AS BIGINT)
           AS dup_bp
FROM documents d LEFT JOIN perdoc p USING (doc_id)
"""


def sql_docs_paragraph_dedup(chunk_words: int = 8) -> str:
    """DuckDB twin: same chunking, same global first-occurrence
    policy (ROW_NUMBER over (doc_id, idx)), same reassembly."""
    return f"""
WITH words AS (
  SELECT doc_id, STRING_SPLIT(text, ' ') AS w FROM documents
), expl AS (
  SELECT doc_id, i, w[i] AS word
  FROM words,
       (SELECT UNNEST(GENERATE_SERIES(1, (SELECT MAX(LEN(w)) FROM words)))
               AS i) seq
  WHERE i <= LEN(w)
), pars AS (
  SELECT doc_id, (i - 1) // {chunk_words} AS idx,
         STRING_AGG(word, ' ' ORDER BY i) AS par
  FROM expl GROUP BY doc_id, (i - 1) // {chunk_words}
), ranked AS (
  SELECT doc_id, idx, par,
         ROW_NUMBER() OVER (PARTITION BY par ORDER BY doc_id, idx) AS rn,
         COUNT(*) OVER (PARTITION BY doc_id) AS n_pars
  FROM pars
)
SELECT doc_id,
       STRING_AGG(par, ' ' ORDER BY idx) AS text,
       ANY_VALUE(n_pars) AS n_pars,
       CAST(ANY_VALUE(n_pars) - COUNT(*) AS BIGINT) AS n_dropped
FROM ranked
WHERE rn = 1
GROUP BY doc_id
"""


def q_docs_substring_dedup(sf_dir: str, w: int = 8,
                           n_parts: int = 64) -> pd.DataFrame:
    """ExactSubstr deduplication (Lee et al., "Deduplicating Training
    Data Makes Language Models Better", 2022): REMOVE every duplicated
    token span from every document except its single global first
    occurrence, and reassemble the documents from the surviving
    tokens. Where ``q_docs_dup_ngram_fraction`` only DIAGNOSES
    duplication, this op performs the cut.

    Token-level semantics (deterministic, shared with the oracle):
    every sliding word ``w``-gram occurrence that is not the global
    first occurrence of that exact gram string (lexicographic min over
    ``(doc_id, position)``) marks its ``w`` token positions as
    removed; a document's output text is its unremoved tokens joined
    in order (possibly empty). Docs shorter than ``w`` tokens pass
    through untouched.

    Scale shape (100 TB): two shuffles, zero broadcast, no all-pairs —
    (1) explode sliding grams, hash-partition on the gram; each
        partition holds EVERY occurrence of its gram strings, so
        duplicate occurrences (everything after the per-gram
        lexicographic winner) are a local sort;
    (2) union the duplicate-occurrence rows with the original docs and
        hash-partition on ``doc_id``; each group rebuilds one document
        with a boolean coverage mask (doc-sized state).
    Winner choice compares exact gram strings inside the partition, so
    64-bit partition-hash collisions cannot merge distinct grams.

    Reference parity: the reference dedups whole pages only
    (playwrightcrawler.py:1431-1456); this is the added Lee-et-al.
    curation stage, the span-removal counterpart of the paragraph op
    above."""
    import ray.data

    from .textstats import _docs

    ds = _docs(sf_dir, ["doc_id", "text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out_doc, out_start, out_gram, out_part, _ = \
            _explode_wgrams(df, w, n_parts)
        return pd.DataFrame(
            {
                "doc_id": pd.array(out_doc, dtype="int64"),
                "start": pd.array(out_start, dtype="int64"),
                "gram": pd.array(out_gram, dtype="string[pyarrow]"),
                "part": pd.array(out_part, dtype="int32"),
            }
        )

    def dup_occurrences(g: pd.DataFrame) -> pd.DataFrame:
        """Per gram-hash partition: every occurrence AFTER the
        per-gram-string lexicographic (doc_id, start) winner."""
        g = g.sort_values(["gram", "doc_id", "start"], kind="stable")
        grams = g["gram"].to_numpy()
        is_winner = np.ones(len(g), dtype=bool)
        is_winner[1:] = grams[1:] != grams[:-1]
        dup = g[~is_winner]
        d = dup["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": d,
                "start": dup["start"].to_numpy(),
                "text": pd.array([""] * len(dup), dtype="string[pyarrow]"),
                # coarse doc partition for the rebuild shuffle: never
                # groupby a high-cardinality key directly (BASELINE.md
                # round-3 measurement: per-distinct-key overhead)
                "dpart": (d % n_parts).astype(np.int32),
            }
        )

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": d,
                "start": pd.array([-1] * len(df), dtype="int64"),
                "text": df["text"].astype("string[pyarrow]"),
                "dpart": (d % n_parts).astype(np.int32),
            }
        )

    def rebuild_part(g: pd.DataFrame) -> pd.DataFrame:
        """Per doc-hash partition: rebuild every document in the
        partition from its coverage mask (doc-sized state each)."""
        ids, n_toks, n_rem, texts = [], [], [], []
        for doc_id, sub in g.groupby("doc_id", sort=True):
            base = sub[sub["start"] < 0]
            toks = str(base["text"].iloc[0]).split(" ")
            removed = np.zeros(len(toks), dtype=bool)
            for s in sub.loc[sub["start"] >= 0, "start"].to_numpy():
                removed[int(s):int(s) + w] = True
            kept = [t for t, r in zip(toks, removed) if not r]
            ids.append(int(doc_id))
            n_toks.append(len(toks))
            n_rem.append(int(removed.sum()))
            texts.append(" ".join(kept))
        return pd.DataFrame(
            {
                "doc_id": pd.array(ids, dtype="int64"),
                "n_tokens": pd.array(n_toks, dtype="int64"),
                "n_removed": pd.array(n_rem, dtype="int64"),
                "text": pd.array(texts, dtype=object),
            }
        )

    dups = (
        ds.map_batches(explode, batch_format="pandas")
        .groupby("part")
        .map_groups(dup_occurrences, batch_format="pandas")
    )
    out = to_frame(
        ds.map_batches(doc_rows, batch_format="pandas")
        .union(dups)
        .groupby("dpart")
        .map_groups(rebuild_part, batch_format="pandas")
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def sql_docs_substring_dedup(w: int = 8) -> str:
    """DuckDB twin: same sliding grams, same global first-occurrence
    winner (ROW_NUMBER over (doc_id, start)), same coverage mask and
    token-level reassembly."""
    return f"""
WITH words AS (
  SELECT doc_id, STRING_SPLIT(text, ' ') AS ws FROM documents
), expl AS (
  SELECT doc_id, i, ws[i] AS word, LEN(ws) AS t
  FROM words,
       (SELECT UNNEST(GENERATE_SERIES(1, (SELECT MAX(LEN(ws)) FROM words)))
               AS i) seq
  WHERE i <= LEN(ws)
), grams AS (
  SELECT doc_id, i, t,
         STRING_AGG(word, ' ') OVER (
             PARTITION BY doc_id ORDER BY i
             ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS g
  FROM expl
), valid AS (
  SELECT doc_id, i, g FROM grams WHERE i <= t - {w - 1}
), ranked AS (
  SELECT doc_id, i,
         ROW_NUMBER() OVER (PARTITION BY g ORDER BY doc_id, i) AS rn
  FROM valid
), dupocc AS (
  SELECT doc_id, i FROM ranked WHERE rn >= 2
), covered AS (
  SELECT DISTINCT e.doc_id, e.i
  FROM expl e JOIN dupocc d
    ON e.doc_id = d.doc_id AND e.i BETWEEN d.i AND d.i + {w - 1}
), kept AS (
  SELECT e.doc_id, e.i, e.word
  FROM expl e LEFT JOIN covered c ON e.doc_id = c.doc_id AND e.i = c.i
  WHERE c.i IS NULL
)
SELECT wd.doc_id,
       LEN(wd.ws) AS n_tokens,
       COALESCE(cov.n_removed, 0) AS n_removed,
       COALESCE(k.text, '') AS text
FROM words wd
LEFT JOIN (SELECT doc_id, COUNT(*) AS n_removed
           FROM covered GROUP BY doc_id) cov USING (doc_id)
LEFT JOIN (SELECT doc_id, STRING_AGG(word, ' ' ORDER BY i) AS text
           FROM kept GROUP BY doc_id) k USING (doc_id)
ORDER BY doc_id
"""
