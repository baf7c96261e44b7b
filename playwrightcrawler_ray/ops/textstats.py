"""Text analysis over the documents table: token counting, quality
scoring, language distribution, exact dedup, language-ID and document
fingerprinting (the training-data text operators; SURVEY.md build
brief "text analysis").

Vectorized where a pandas/pyarrow kernel exists (token counts, length
stats); per-row Python only for the heuristics (langid, fingerprints),
kept inside ``map_batches``.
"""

from __future__ import annotations

import hashlib
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions.text import detect_language, fingerprint64
from .io import to_frame


def _docs(sf_dir: str, columns: list[str]):
    from .io import read_table

    return read_table(sf_dir, "documents", columns)


def q_token_counts(sf_dir: str) -> pd.DataFrame:
    """Whitespace token count per document — pure pyarrow kernel:
    count split parts without materializing Python strings."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def count(t: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(t["text"], " "))
        return pa.table(
            {"doc_id": t["doc_id"], "n_tokens": pc.cast(n, pa.int64())}
        )

    return to_frame(ds.map_batches(count, batch_format="pyarrow"))


SQL_TOKEN_COUNTS = """
SELECT doc_id, CAST(LEN(STRING_SPLIT(text, ' ')) AS BIGINT) AS n_tokens
FROM documents
"""


def q_quality_signals(sf_dir: str) -> pd.DataFrame:
    """Length-based quality stats (SQL-checkable subset; the richer
    punctuation/stopword signals are in q_langid_quality, rows-only)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def signals(t: pa.Table) -> pa.Table:
        n_chars = pc.cast(pc.utf8_length(t["text"]), pa.int64())
        n_tokens = pc.cast(
            pc.list_value_length(pc.split_pattern(t["text"], " ")), pa.int64()
        )
        ratio = pc.divide(
            pc.cast(pc.subtract(n_chars, pc.subtract(n_tokens, 1)), pa.float64()),
            pc.cast(n_tokens, pa.float64()),
        )
        # explicit half-UP rounding: integer ratios land exactly on
        # .00005 boundaries where pyarrow (half-even) and DuckDB
        # (half-away) disagree — FLOOR(x*1e4+0.5)/1e4 on both sides
        mean_len = pc.divide(
            pc.floor(pc.add(pc.multiply(ratio, 10000.0), 0.5)), 10000.0
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars2": n_chars,
                "n_tokens": n_tokens,
                "mean_token_len": mean_len,
            }
        )

    return to_frame(ds.map_batches(signals, batch_format="pyarrow"))


SQL_QUALITY_SIGNALS = """
SELECT doc_id,
       CAST(LENGTH(text) AS BIGINT) AS n_chars2,
       CAST(LEN(STRING_SPLIT(text, ' ')) AS BIGINT) AS n_tokens,
       FLOOR((LENGTH(text) - (LEN(STRING_SPLIT(text, ' ')) - 1)) * 1.0
             / LEN(STRING_SPLIT(text, ' ')) * 10000 + 0.5) / 10000
         AS mean_token_len
FROM documents
"""


def q_lang_distribution(sf_dir: str) -> pd.DataFrame:
    from .aggutil import partial_grouped_agg

    ds = _docs(sf_dir, ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("lang", as_index=False, sort=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False, sort=False).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum")
        )
        g["avg_chars"] = g["total_chars"] / g["n_docs"]
        return g

    out = partial_grouped_agg(ds, partial, combine)
    import numpy as np

    # half-up: integer-sum / integer-count ratios hit rounding boundaries
    out["avg_chars"] = np.floor(out["avg_chars"] * 10000 + 0.5) / 10000
    return out[["lang", "n_docs", "total_chars", "avg_chars"]]


SQL_LANG_DISTRIBUTION = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       FLOOR(AVG(n_chars) * 10000 + 0.5) / 10000 AS avg_chars
FROM documents GROUP BY lang
"""


def q_docs_by_source(sf_dir: str) -> pd.DataFrame:
    from .aggutil import partial_grouped_agg

    ds = _docs(sf_dir, ["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False, sort=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False, sort=False).agg(
            n_docs=("n_docs", "sum"), total_chars=("total_chars", "sum")
        )

    return partial_grouped_agg(ds, partial, combine)


SQL_DOCS_BY_SOURCE = """
SELECT source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY source
"""


def q_doc_exact_dedup(sf_dir: str) -> pd.DataFrame:
    """Exact text dedup: content-hash column added vectorized, then
    hash-partitioned groupby keeping min doc_id (the D1 exact-dedup
    pattern over documents; at 100 TB this is the same
    hash-partition + per-group-first with the hash as shuffle key)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def add_hash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "text_hash": pd.array([
                    hashlib.md5(t.encode("utf-8")).hexdigest() for t in df["text"]
                ], dtype=object),
            }
        )

    from .aggutil import partial_grouped_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        by_hash = add_hash(df).groupby("text_hash", as_index=False, sort=False)
        return by_hash.agg(
            keeper_doc_id=("doc_id", "min"), n_copies=("doc_id", "size")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("text_hash", as_index=False, sort=False).agg(
            keeper_doc_id=("keeper_doc_id", "min"), n_copies=("n_copies", "sum")
        )

    out = partial_grouped_agg(ds, partial, combine)
    return out[["text_hash", "keeper_doc_id", "n_copies"]]


SQL_DOC_EXACT_DEDUP = """
SELECT MD5(text) AS text_hash, MIN(doc_id) AS keeper_doc_id,
       COUNT(*) AS n_copies
FROM documents GROUP BY MD5(text)
"""


def q_langid_quality(sf_dir: str) -> pd.DataFrame:
    """Heuristic language-ID + rich quality signals (rows-only check:
    the n-gram heuristic is not SQL-expressible)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.text import quality_signals

        qs = [quality_signals(t) for t in df["text"]]
        out = pd.DataFrame({
            "doc_id": df["doc_id"],
            "pred_lang": pd.array([detect_language(t) for t in df["text"]],
                                  dtype=object),
        })
        for c in ("stopword_ratio", "punct_ratio", "alpha_ratio"):
            out[c] = pd.array([round(q[c], 4) for q in qs], dtype="float64")
        return out

    return to_frame(ds.map_batches(score, batch_format="pandas"))


def q_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """64-bit identity + rolling similarity fingerprints per document
    (rows-only: blake2b/rolling-hash not SQL-expressible)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.text import rolling_min_fingerprint

        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "fingerprint": pd.array([
                    fingerprint64(t) - (1 << 63) for t in df["text"]
                ], dtype="int64"),  # shift into int64 range
                "sim_fingerprint": pd.array([
                    rolling_min_fingerprint(t) - (1 << 63) for t in df["text"]
                ], dtype="int64"),
            }
        )

    return to_frame(ds.map_batches(fp, batch_format="pandas"))


def q_token_counts_bpe(sf_dir: str) -> pd.DataFrame:
    """BPE-ish subword-boundary token count: alphanumeric runs plus
    individual punctuation marks (the pre-tokenization split every
    byte-pair tokenizer starts from). Vectorized pyarrow kernel; the
    pattern is RE2/Python-re agreeing, so it has a DuckDB oracle."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    pattern = r"[A-Za-z0-9]+|[^A-Za-z0-9\s]"

    def count(t: pa.Table) -> pa.Table:
        # pyarrow's count_substring_regex runs RE2 — the same engine
        # DuckDB's regexp_extract_all uses, so counts agree exactly
        n = pc.count_substring_regex(t["text"], pattern=pattern)
        return pa.table(
            {"doc_id": t["doc_id"], "n_bpe_tokens": pc.cast(n, pa.int64())}
        )

    return to_frame(ds.map_batches(count, batch_format="pyarrow"))


SQL_TOKEN_COUNTS_BPE = r"""
SELECT doc_id,
       CAST(LEN(regexp_extract_all(text, '[A-Za-z0-9]+|[^A-Za-z0-9\s]'))
            AS BIGINT) AS n_bpe_tokens
FROM documents
"""


# --- deterministic sampling + per-group quota (training-data curation
# ops: a seeded uniform sample and a domain-cap both run as one pruned
# pass / one bounded groupby — no full-table materialization) ---

_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_M64 = (1 << 64) - 1


def _mix64_np(v, seed: int):
    """splitmix64-style mixer over an int64 numpy array — the same
    arithmetic the SQL oracle reproduces with HUGEINT modular math."""
    import numpy as np

    x = v.astype(np.uint64) ^ np.uint64(seed)
    x = x * np.uint64(_MIX_A)
    x ^= x >> np.uint64(29)
    x = x * np.uint64(_MIX_B)
    x ^= x >> np.uint64(32)
    return x


def _sql_mix64_cte(cols: list[str], seed: int) -> str:
    """The shared HUGEINT reproduction of :func:`_mix64_np` as a
    ``WITH``-chain ``h0..h4`` over ``documents``: carries ``cols``
    through and ends with ``h4(cols..., h)``. A 64x64-bit modular
    multiply would overflow signed INT128, so each constant is split
    into 32-bit halves: (x*A) mod 2^64 = (x*lo + ((x*hi mod 2^32)
    << 32)) mod 2^64 — every intermediate stays under 2^97. Shared by
    every mix64-seeded oracle (sample / split / stratified) so the
    arithmetic encoding lives in ONE place."""
    m = 1 << 64
    m32 = 1 << 32

    def mulmod(x: str, const: int) -> str:
        lo, hi = const & 0xFFFFFFFF, const >> 32
        return (f"(({x} * {lo}) % {m} + (({x} * {hi}) % {m32}) * {m32}) % {m}")

    c = ", ".join(cols)
    return f"""h0 AS (
  SELECT {c},
         CAST(xor(CAST(doc_id AS UBIGINT), CAST({seed} AS UBIGINT)) AS HUGEINT) AS x0
  FROM documents
),
h1 AS (SELECT {c}, {mulmod("x0", _MIX_A)} AS x1 FROM h0),
h2 AS (SELECT {c},
              CAST(xor(CAST(x1 AS UBIGINT), CAST(x1 AS UBIGINT) >> 29) AS HUGEINT) AS x2
       FROM h1),
h3 AS (SELECT {c}, {mulmod("x2", _MIX_B)} AS x3 FROM h2),
h4 AS (SELECT {c},
              xor(CAST(x3 AS UBIGINT), CAST(x3 AS UBIGINT) >> 32) AS h
       FROM h3)"""


def q_doc_sample(sf_dir: str, k: int = 100, seed: int = 11) -> pd.DataFrame:
    """Seeded uniform pseudo-random sample of ``k`` documents: the k
    rows with the smallest ``mix64(doc_id ^ seed)`` — deterministic,
    order-free, and computable in ONE streaming pass (per-batch partial
    top-k, driver merges k-sized partials). The standard scale pattern
    for "give me a reproducible 0.1% sample of 100 TB"."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _mix64_np(df["doc_id"].to_numpy(), seed)
        idx = np.argsort(h, kind="stable")[:k]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy()[idx],
                "n_chars": df["n_chars"].to_numpy()[idx],
                "h": h[idx].astype(np.int64),  # int64-wrapped transport
            }
        )

    parts = to_frame(ds.map_batches(partial, batch_format="pandas"))
    parts["hu"] = parts["h"].to_numpy().view("uint64")
    out = parts.sort_values(["hu", "doc_id"]).head(k)
    return (
        out[["doc_id", "n_chars"]]
        .astype({"doc_id": "int64", "n_chars": "int64"})
        .reset_index(drop=True)
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def sql_doc_sample(k: int = 100, seed: int = 11) -> str:
    """DuckDB mirror of the mix64 sampler (arithmetic encoding shared
    via :func:`_sql_mix64_cte`)."""
    return f"""
WITH {_sql_mix64_cte(["doc_id", "n_chars"], seed)}
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars FROM h4 ORDER BY h, doc_id LIMIT {k}
) ORDER BY doc_id
"""


def q_docs_per_source_cap(sf_dir: str, n: int = 5) -> pd.DataFrame:
    """Per-source quota (the "cap documents per domain" curation op):
    keep the ``n`` longest documents of every source, ties broken by
    doc_id. One bounded ``groupby(source).map_groups`` — group output
    is ≤ n rows, so the shuffle moves only (doc_id, source, n_chars)."""
    ds = _docs(sf_dir, ["doc_id", "source", "n_chars"])

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["n_chars", "doc_id"],
                             ascending=[False, True]).head(n)

    out = to_frame(
        ds.groupby("source")
        .map_groups(topn, batch_format="pandas")
    )
    return (
        out[["doc_id", "source", "n_chars"]]
        .astype({"doc_id": "int64", "n_chars": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def sql_docs_per_source_cap(n: int = 5) -> str:
    return f"""
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= {n} ORDER BY doc_id
"""


def q_docs_gopher_quality(sf_dir: str) -> pd.DataFrame:
    """Gopher/C4-style repetition + length quality gates, per document
    (the filters a training-data curation pass runs before dedup):
    word count bounds, top-word fraction (most frequent word's share)
    and duplicate-word fraction (1 - distinct/total), with a ``keep``
    verdict. Fractions are exact integer-scaled basis points
    (``x * 10000 // n``) so the Ray and DuckDB sides agree bit-for-bit
    — no float rounding seam.

    Fully vectorized and embarrassingly parallel (per-doc stats, no
    shuffle): pyarrow split -> flatten + parent-index repeat ->
    dictionary-encode -> np.unique over packed (doc, word) keys ->
    per-doc scatter folds. Scale-safe at 100 TB: every batch is
    independent and output is one row per doc."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        n_words = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = pc.list_flatten(words)
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy().astype(np.int64)
        vocab = len(enc.dictionary)
        doc_idx = np.repeat(np.arange(len(n_words), dtype=np.int64), n_words)
        key = doc_idx * vocab + codes
        uk, counts = np.unique(key, return_counts=True)
        ud = (uk // vocab).astype(np.int64)
        max_c = np.zeros(len(n_words), np.int64)
        np.maximum.at(max_c, ud, counts)
        n_distinct = np.bincount(ud, minlength=len(n_words))
        top_q4 = max_c * 10000 // n_words
        dup_q4 = (n_words - n_distinct) * 10000 // n_words
        keep = (n_words >= 20) & (top_q4 <= 1500) & (dup_q4 <= 5000)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(n_words, pa.int64()),
            "top_word_frac_q4": pa.array(top_q4, pa.int64()),
            "dup_word_frac_q4": pa.array(dup_q4, pa.int64()),
            "keep": pa.array(keep),
        })

    return to_frame(ds.map_batches(stats, batch_format="pyarrow"))


SQL_DOCS_GOPHER_QUALITY = """
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents
), c AS (
  SELECT doc_id, word, COUNT(*) AS c FROM w GROUP BY doc_id, word
), s AS (
  SELECT doc_id, SUM(c) AS n_words, MAX(c) AS max_c,
         COUNT(*) AS n_distinct
  FROM c GROUP BY doc_id
)
SELECT doc_id,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(max_c * 10000 // n_words AS BIGINT) AS top_word_frac_q4,
       CAST((n_words - n_distinct) * 10000 // n_words AS BIGINT)
         AS dup_word_frac_q4,
       (n_words >= 20 AND max_c * 10000 // n_words <= 1500
        AND (n_words - n_distinct) * 10000 // n_words <= 5000) AS keep
FROM s
"""


def q_docs_tfidf_topk(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k TF-IDF terms per document — the global-statistic-broadcast
    pattern: pass 1 computes corpus document frequencies as per-batch
    partials (each doc lives in exactly one row, so per-batch distinct
    (doc, word) counts sum to the true DF with no dedup shuffle) and
    reduces them driver-side (vocabulary-sized, tiny); pass 2 ships the
    sorted word->DF arrays into every task (numpy + searchsorted — the
    corpus/store.py broadcast contract; at cluster scale the arrays go
    through ``ray.put`` once, not per batch) and scores each doc
    independently.

    Scores are exact integers (``tf_q = c * idf_q4 * 10000 //
    n_words`` with ``idf_q4 = n_docs * 10000 // df``) so both engines
    agree bit-for-bit; ties break on word ascending."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "text"])

    def _flatten(t: pa.Table):
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(text, " ")
        n_words = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = pc.list_flatten(words)
        doc_idx = np.repeat(np.arange(len(n_words), dtype=np.int64), n_words)
        return n_words, flat, doc_idx

    def df_partial(t: pa.Table) -> pa.Table:
        n_words, flat, doc_idx = _flatten(t)
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy().astype(np.int64)
        vocab = len(enc.dictionary)
        uk = np.unique(doc_idx * vocab + codes)
        dfc = np.bincount(uk % vocab, minlength=vocab)
        return pa.table({
            "word": enc.dictionary,
            "df_part": pa.array(dfc, pa.int64()),
        })

    parts = to_frame(ds.map_batches(df_partial, batch_format="pyarrow"))
    dfmap = parts.groupby("word", sort=True)["df_part"].sum()
    n_docs = int(ds.count())
    bc_words = dfmap.index.to_numpy(dtype=object).astype(str)
    bc_idf_q4 = (np.int64(n_docs) * 10000 // dfmap.to_numpy(np.int64))

    def score(t: pa.Table) -> pa.Table:
        n_words, flat, doc_idx = _flatten(t)
        # per-(doc, word) term counts via unique over packed keys
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy().astype(np.int64)
        vocab = len(enc.dictionary)
        uk, counts = np.unique(doc_idx * vocab + codes, return_counts=True)
        ud, uw = uk // vocab, uk % vocab
        uwords = enc.dictionary.to_numpy(zero_copy_only=False).astype(str)[uw]
        uidf = bc_idf_q4[np.searchsorted(bc_words, uwords)]
        score_q = counts * uidf * 10000 // n_words[ud]
        # top-k per doc: sort (doc asc, score desc, word asc)
        order = np.lexsort((uwords, -score_q, ud))
        ud, uwords, score_q = ud[order], uwords[order], score_q[order]
        starts = np.searchsorted(ud, np.arange(len(n_words)))
        rnk = np.arange(len(ud), dtype=np.int64) - starts[ud] + 1
        m = rnk <= k
        ids = t["doc_id"].to_numpy()
        return pa.table({
            "doc_id": pa.array(ids[ud[m]], pa.int64()),
            "word": pa.array(uwords[m]),
            "score_q": pa.array(score_q[m], pa.int64()),
            "rnk": pa.array(rnk[m], pa.int64()),
        })

    return to_frame(ds.map_batches(score, batch_format="pyarrow"))


def sql_docs_tfidf_topk(k: int = 3) -> str:
    return f"""
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents
), tf AS (
  SELECT doc_id, word, COUNT(*) AS c FROM w GROUP BY doc_id, word
), nw AS (
  SELECT doc_id, SUM(c) AS n_words FROM tf GROUP BY doc_id
), df AS (
  SELECT word, COUNT(DISTINCT doc_id) AS df FROM w GROUP BY word
), n AS (SELECT COUNT(*) AS n_docs FROM documents),
scored AS (
  SELECT tf.doc_id, tf.word,
         tf.c * ((n.n_docs * 10000) // df.df) * 10000 // nw.n_words
           AS score_q,
         ROW_NUMBER() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.c * ((n.n_docs * 10000) // df.df) * 10000
                    // nw.n_words DESC, tf.word
         ) AS rnk
  FROM tf
  JOIN df USING (word) JOIN nw USING (doc_id) CROSS JOIN n
)
SELECT doc_id, word, CAST(score_q AS BIGINT) AS score_q,
       CAST(rnk AS BIGINT) AS rnk
FROM scored WHERE rnk <= {k}
"""


def q_bpe_learn_merges(sf_dir: str, n_merges: int = 12) -> pd.DataFrame:
    """Learn a BPE merge table from the corpus — real tokenizer
    training, not just counting. Two stages:

    1. Distributed word-frequency table: per-batch partial word counts
       inside ``map_batches`` (the combiner pattern), reduced to one
       (word, count) table. This is the only corpus-sized pass; at
       100 TB it is one hash-partitioned aggregation whose output is
       VOCABULARY-sized, not corpus-sized.
    2. Merge learning over the compact type table (the classic
       Sennrich/GPT formulation: every occurrence of the best-scoring
       adjacent symbol pair is merged; repeat). Vectorized numpy over
       the exploded symbol sequences; runs wherever the type table
       fits — driver here, a single worker or a bounded actor at any
       realistic vocabulary (type tables are millions of rows, not
       corpus-scale).

    Deterministic: ties in pair count break on (left, right) symbol
    strings ascending. Output: one row per learned merge with its
    rank and corpus pair count at merge time. No SQL oracle (the loop
    is iterative/stateful); pytest pins it against an independent
    naive reference implementation."""
    import numpy as np

    ds = _docs(sf_dir, ["text"])

    def wc_partial(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat = pc.list_flatten(pc.split_pattern(text, " "))
        enc = pc.dictionary_encode(flat)
        counts = np.bincount(
            enc.indices.to_numpy().astype(np.int64),
            minlength=len(enc.dictionary),
        )
        return pa.table({
            "word": enc.dictionary,
            "n": pa.array(counts, pa.int64()),
        })

    parts = to_frame(ds.map_batches(wc_partial, batch_format="pyarrow"))
    wc = parts.groupby("word", sort=True)["n"].sum()
    words = [list(w) + ["</w>"] for w in wc.index]  # symbol sequences
    freqs = wc.to_numpy(np.int64)

    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        # count adjacent pairs weighted by word frequency (vectorized
        # per word-type via zip over the symbol lists — type-table
        # sized, not corpus sized)
        pair_n: dict[tuple[str, str], int] = {}
        for sym, f in zip(words, freqs):
            for a, b in zip(sym, sym[1:]):
                pair_n[(a, b)] = pair_n.get((a, b), 0) + int(f)
        if not pair_n:
            break
        (la, rb), cnt = min(pair_n.items(), key=lambda kv: (-kv[1], kv[0]))
        merges.append((la, rb, cnt))
        tok = la + rb
        for sym in words:
            i = 0
            while i < len(sym) - 1:
                if sym[i] == la and sym[i + 1] == rb:
                    sym[i:i + 2] = [tok]
                else:
                    i += 1
    return pd.DataFrame({
        "rank": pd.array(range(1, len(merges) + 1), dtype="int64"),
        "left": pd.array([m[0] for m in merges], dtype=object),
        "right": pd.array([m[1] for m in merges], dtype=object),
        "merged": pd.array([m[0] + m[1] for m in merges], dtype=object),
        "pair_count": pd.array([m[2] for m in merges], dtype="int64"),
    })


def q_docs_split(sf_dir: str, seed: int = 17,
                 val_pct: int = 5, test_pct: int = 5) -> pd.DataFrame:
    """Deterministic train/val/test split — the standard curation step
    before a training run: bucket = mix64(doc_id ^ seed) % 100, with
    [0, val_pct) → val, [val_pct, val_pct+test_pct) → test, rest →
    train. Stateless per row (one streaming pass, no shuffle), stable
    across re-runs and cluster sizes, and reproduced exactly by the
    SQL oracle via the same HUGEINT modular mix arithmetic as
    :func:`sql_doc_sample`."""
    ds = _docs(sf_dir, ["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        b = (_mix64_np(df["doc_id"].to_numpy(), seed) % 100).astype("int64")
        split = pd.Series("train", index=df.index)
        split[b < val_pct + test_pct] = "test"
        split[b < val_pct] = "val"
        return pd.DataFrame({
            "doc_id": df["doc_id"].astype("int64"),
            "bucket": b,
            "split": split,
        })

    return to_frame(ds.map_batches(assign, batch_format="pandas"))


def sql_docs_split(seed: int = 17, val_pct: int = 5,
                   test_pct: int = 5) -> str:
    return f"""
WITH {_sql_mix64_cte(["doc_id"], seed)}
SELECT doc_id,
       CAST(h % 100 AS BIGINT) AS bucket,
       CASE WHEN h % 100 < {val_pct} THEN 'val'
            WHEN h % 100 < {val_pct + test_pct} THEN 'test'
            ELSE 'train' END AS split
FROM h4
"""


def q_docs_token_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles (p25/p50/p75/p95) of per-document
    whitespace token counts, per language — the curation dashboard op
    ("what does the length distribution look like per lang?").

    Scale pattern: quantiles over 100 TB WITHOUT a global sort. Token
    counts are small integers, so the value distribution is computed
    as a histogram: a vectorized per-batch ``(lang, n_tokens) → count``
    partial aggregation inside ``map_batches``, then one combine step
    (``partial_grouped_agg``) sums the compact histogram (cardinality ≤
    #langs × max-doc-tokens, independent of corpus row count) and walks
    each language's CDF. percentile_disc semantics (smallest value
    whose CDF ≥ p) are reproduced with integer cross-multiplication
    (``cum · den ≥ n · num``) — no float thresholds, bit-exact vs
    DuckDB."""
    from .aggutil import partial_grouped_agg

    ds = _docs(sf_dir, ["lang", "text"])
    keys = ["lang", "n_tokens"]

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        n = pc.list_value_length(
            pc.split_pattern(pa.array(df["text"], pa.string()), " "))
        tt = pd.DataFrame({"lang": df["lang"].to_numpy(),
                           "n_tokens": n.to_numpy().astype("int64")})
        return tt.groupby(keys, as_index=False, sort=False).size()

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        h = df.groupby(keys, as_index=False, sort=True)["size"].sum()
        cum = h.groupby("lang")["size"].cumsum()
        n = h.groupby("lang")["size"].transform("sum")
        out = h.groupby("lang", as_index=False).agg(n_docs=("size", "sum"))
        for name, num, den in (
            ("p25", 1, 4), ("p50", 1, 2), ("p75", 3, 4), ("p95", 19, 20),
        ):
            # the first value of each lang whose CDF reaches p
            hit = h[cum * den >= n * num]
            out[name] = hit.groupby("lang")["n_tokens"].first().to_numpy()
        return out

    out = partial_grouped_agg(ds, hist, quantiles)
    return out.astype({"n_docs": "int64", "p25": "int64", "p50": "int64",
                       "p75": "int64", "p95": "int64"})


SQL_DOCS_TOKEN_QUANTILES = """
WITH n AS (
  SELECT lang, CAST(LEN(STRING_SPLIT(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
)
SELECT lang,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY n_tokens) AS BIGINT) AS p25,
       CAST(percentile_disc(0.50) WITHIN GROUP (ORDER BY n_tokens) AS BIGINT) AS p50,
       CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY n_tokens) AS BIGINT) AS p75,
       CAST(percentile_disc(0.95) WITHIN GROUP (ORDER BY n_tokens) AS BIGINT) AS p95
FROM n GROUP BY lang ORDER BY lang
"""


# Production PII patterns alongside a pattern that actually fires on
# the synthetic corpus: the scan machinery (vectorized RE2 inside
# map_batches, zero-copy Arrow in/out) is what the op demonstrates —
# swap patterns for the real deployment set. Both engines (pyarrow's
# count_substring_regex and DuckDB's regexp_extract_all) are RE2, so
# non-overlapping leftmost match counts agree exactly.
_REGEX_SCAN_PATTERNS = {
    "n_kw": "(hash|scan|value)[a-z]*",       # fires on the corpus
    "n_email": "[a-z0-9._]+@[a-z0-9.-]+\\.[a-z][a-z]+",  # PII: email
    "n_ipv4": "[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+",       # PII: IPv4
}


def q_docs_regex_scan(sf_dir: str) -> pd.DataFrame:
    """PII / keyword scan: per-document non-overlapping match counts
    for a set of RE2 patterns, fully vectorized
    (``pc.count_substring_regex`` — the compiled automaton runs once
    per pattern across the whole Arrow column; no Python row loop).
    The redaction twin is the same kernel with ``replace_substring_regex``."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def scan(t: pa.Table) -> pa.Table:
        cols = {"doc_id": t["doc_id"]}
        for name, pat in _REGEX_SCAN_PATTERNS.items():
            cols[name] = pc.cast(
                pc.count_substring_regex(t["text"], pattern=pat), pa.int64()
            )
        return pa.table(cols)

    return to_frame(ds.map_batches(scan, batch_format="pyarrow"))


SQL_DOCS_REGEX_SCAN = """
SELECT doc_id,
       CAST(LENGTH(regexp_extract_all(text, '(hash|scan|value)[a-z]*')) AS BIGINT) AS n_kw,
       CAST(LENGTH(regexp_extract_all(text, '[a-z0-9._]+@[a-z0-9.-]+\\.[a-z][a-z]+')) AS BIGINT) AS n_email,
       CAST(LENGTH(regexp_extract_all(text, '[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+')) AS BIGINT) AS n_ipv4
FROM documents
"""


def q_docs_inverted_index(sf_dir: str, k: int = 5) -> pd.DataFrame:
    """Inverted-index build: token → document frequency + the first
    ``k`` postings (ascending doc_id). The structural op behind corpus
    search / contamination checks ("which training docs contain this
    eval token?").

    Scale shape: stage 1 is a vectorized per-batch partial — explode
    tokens (``list_flatten`` + ``list_parent_indices``), distinct
    (token, doc) pairs via an Arrow group_by, then per-token
    ``(df_partial, first-k postings)``; stage 2 shuffles only those
    batch-level partials (tokens × batches rows, not raw token
    occurrences) into a ``groupby(token).map_groups`` merge that sums
    dfs and re-merges the k-smallest postings. Heavy-hitter tokens
    (stopwords) therefore ship O(batches · k) rows instead of O(docs)
    — the combiner-before-shuffle pattern."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def partials(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["text"], " ")
        flat = pc.list_flatten(parts)
        did = pc.take(t["doc_id"], pc.list_parent_indices(parts))
        pairs = pa.table({"token": flat, "doc_id": did}).filter(
            pc.not_equal(flat, "")
        )
        # distinct (token, doc): df counts documents, not occurrences
        d = pairs.group_by(["token", "doc_id"]).aggregate([]).to_pandas()
        d = d.sort_values(["token", "doc_id"], kind="stable")
        g = d.groupby("token", sort=True)["doc_id"]
        return pa.table({
            "token": pa.array(list(g.size().index), pa.string()),
            "df": pa.array(g.size().to_numpy(), pa.int64()),
            "postings": pa.array(
                [ids.head(k).tolist() for _, ids in g], pa.list_(pa.int64())
            ),
        })

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = sorted({i for lst in g["postings"] for i in lst})[:k]
        # head(1): one row per token, none for an empty group
        return g[["token"]].head(1).assign(
            df=int(g["df"].sum()),
            postings=",".join(str(i) for i in merged),
        )

    out = to_frame(
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("token")
        .map_groups(merge, batch_format="pandas")
    )
    return (
        out.astype({"df": "int64"})
        .sort_values("token")
        .reset_index(drop=True)
    )


SQL_DOCS_INVERTED_INDEX = """
WITH tok AS (
  SELECT DISTINCT doc_id, unnest(STRING_SPLIT(text, ' ')) AS token
  FROM documents
)
SELECT token,
       CAST(COUNT(*) AS BIGINT) AS df,
       array_to_string((list_sort(list(doc_id)))[1:5], ',') AS postings
FROM tok WHERE token <> '' GROUP BY token ORDER BY token
"""


def q_words_topk(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Corpus-level word-frequency top-k (the exact twin of the
    Misra-Gries heavy-hitters sketch in ops/sketch.py). Combiner
    shape: per-batch ``value_counts`` partials (vocabulary-sized, not
    token-sized), summed in the combine step; at 100 TB the combine
    becomes a ``groupby(word)`` over partials (aggutil's documented
    swap). Deterministic (-count, word) order."""
    from .aggutil import partial_grouped_agg

    ds = _docs(sf_dir, ["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({
            "word": vc.index.to_numpy(dtype=object),
            "cnt": vc.to_numpy().astype("int64"),
        })

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("word", as_index=False, sort=False)["cnt"].sum()
        tot = tot.sort_values(["cnt", "word"],
                              ascending=[False, True]).head(k)
        tot["cnt"] = tot["cnt"].astype("int64")
        return tot.reset_index(drop=True)

    return partial_grouped_agg(ds, partial, combine)


def sql_words_topk(k: int = 20) -> str:
    return f"""
SELECT w AS word, COUNT(*) AS cnt
FROM documents,
     UNNEST(LIST_FILTER(regexp_split_to_array(text, '\\s+'),
                        x -> x <> '')) AS t(w)
GROUP BY w
ORDER BY cnt DESC, word
LIMIT {k}
"""


def q_docs_stratified_sample(sf_dir: str, k: int = 25, seed: int = 23
                             ) -> pd.DataFrame:
    """Stratified seeded sampling: ``k`` documents PER LANGUAGE, the k
    smallest ``mix64(doc_id ^ seed)`` within each stratum — the "equal
    representation per group" sampler a multilingual mix build uses.
    Same one-pass shape as ``q_doc_sample``, just with group-aware
    partial top-k: each batch keeps at most k rows per lang it saw, so
    partials stay O(k x langs-in-batch) and the driver merge is
    O(k x langs)."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _mix64_np(df["doc_id"].to_numpy(), seed)
        sub = df.assign(h=h.astype(np.int64))
        return sub.sort_values("h", key=lambda s: s.to_numpy().view("uint64")
                               ).groupby("lang", sort=False).head(k)

    parts = to_frame(ds.map_batches(partial, batch_format="pandas"))
    parts["hu"] = parts["h"].to_numpy().view("uint64")
    out = (
        parts.sort_values(["hu", "doc_id"])
        .groupby("lang", sort=False).head(k)
    )
    return (
        out[["lang", "doc_id"]]
        .astype({"doc_id": "int64"})
        .sort_values(["lang", "doc_id"])
        .reset_index(drop=True)
    )


def sql_docs_stratified_sample(k: int = 25, seed: int = 23) -> str:
    return f"""
WITH {_sql_mix64_cte(["doc_id", "lang"], seed)}
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id) AS rn
  FROM h4
) WHERE rn <= {k}
ORDER BY lang, doc_id
"""


def q_docs_pii_scrub(sf_dir: str) -> pd.DataFrame:
    """PII REDACTION — the scrub twin q_docs_regex_scan's docstring
    promises (reference analogue: the downloader's regex filter
    configuration, downloader.py:20-44 — the reference filters at the
    URL/content-type level; redaction inside document text is the
    curation-standard "strip emails/IPs/phones before training"
    extension). Emails are replaced
    first, then IPv4 literals, then E.164-ish phone numbers, each over
    the previous pass's output — the pass ORDER is part of the
    contract (an IPv4-shaped substring inside a redacted email must
    not be double-counted) and the SQL oracle applies the same three
    passes in the same order.

    Returns per-document redaction counts plus the md5 of the fully
    scrubbed text: the digest proves the entire redacted STRING agrees
    with the oracle without shipping the corpus back to the driver. In
    production the scrubbed column would stream straight to
    write_parquet; this query returns the verifiable projection.

    Scale shape: one vectorized map_batches pass — the RE2 automatons
    (pyarrow.compute count/replace_substring_regex) run once per
    pattern per batch; no shuffle, no Python regex. Only the md5 is
    per-row (same convention as q_doc_fingerprints)."""
    import hashlib as _hl

    ds = _docs(sf_dir, ["doc_id", "text"])
    email_pat = _REGEX_SCAN_PATTERNS["n_email"]
    ipv4_pat = _REGEX_SCAN_PATTERNS["n_ipv4"]

    def scrub(t: pa.Table) -> pa.Table:
        text = t["text"]
        n_email = pc.count_substring_regex(text, pattern=email_pat)
        t1 = pc.replace_substring_regex(
            text, pattern=email_pat, replacement="<EMAIL>"
        )
        n_ipv4 = pc.count_substring_regex(t1, pattern=ipv4_pat)
        t2 = pc.replace_substring_regex(
            t1, pattern=ipv4_pat, replacement="<IP>"
        )
        n_phone = pc.count_substring_regex(t2, pattern=_PII_PHONE)
        t3 = pc.replace_substring_regex(
            t2, pattern=_PII_PHONE, replacement="<PHONE>"
        )
        md5 = [_hl.md5(s.encode("utf-8")).hexdigest()
               for s in t3.to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "n_email": pc.cast(n_email, pa.int64()),
            "n_ipv4": pc.cast(n_ipv4, pa.int64()),
            "n_phone": pc.cast(n_phone, pa.int64()),
            "scrub_md5": pa.array(md5, pa.string()),
        })

    out = to_frame(ds.map_batches(scrub, batch_format="pyarrow"))
    return out.sort_values("doc_id").reset_index(drop=True)


# E.164-ish international phone literal: RE2-safe, identical meaning
# in pyarrow and DuckDB (both RE2)
_PII_PHONE = r"\+[0-9][0-9 -]{5,13}[0-9]"

SQL_DOCS_PII_SCRUB = f"""
WITH r1 AS (
  SELECT doc_id,
         CAST(LENGTH(regexp_extract_all(text,
              '{_REGEX_SCAN_PATTERNS["n_email"]}')) AS BIGINT) AS n_email,
         regexp_replace(text, '{_REGEX_SCAN_PATTERNS["n_email"]}',
                        '<EMAIL>', 'g') AS t1
  FROM documents
), r2 AS (
  SELECT doc_id, n_email,
         CAST(LENGTH(regexp_extract_all(t1,
              '{_REGEX_SCAN_PATTERNS["n_ipv4"]}')) AS BIGINT) AS n_ipv4,
         regexp_replace(t1, '{_REGEX_SCAN_PATTERNS["n_ipv4"]}',
                        '<IP>', 'g') AS t2
  FROM r1
)
SELECT doc_id, n_email, n_ipv4,
       CAST(LENGTH(regexp_extract_all(t2,
            '{_PII_PHONE}')) AS BIGINT) AS n_phone,
       md5(regexp_replace(t2, '{_PII_PHONE}',
                          '<PHONE>', 'g')) AS scrub_md5
FROM r2 ORDER BY doc_id
"""


def q_docs_weighted_sample(sf_dir: str, k: int = 100, seed: int = 31
                           ) -> pd.DataFrame:
    """Weighted reservoir sampling (Efraimidis-Spirakis A-ES): the k
    documents with the smallest ``-ln(u)/w`` exponential race keys,
    u = mix64(doc_id ^ seed) mapped to (0, 1), weight w = n_chars —
    inclusion probability proportional to document length, the
    standard "sample tokens, not documents" curation draw.

    Same one-streaming-pass shape as q_doc_sample: per-batch partial
    top-k (k rows leave each batch), driver merges k-sized partials;
    at 100 TB the merge is a tree reduce over k-row partials. The
    float key is computed from the SAME integers on both sides (hash
    -> double -> ln -> divide, every step IEEE-identical except ln's
    final ulp, orders of magnitude below the inter-key spacing); ties
    break by doc_id on both sides."""
    import numpy as np

    ds = _docs(sf_dir, ["doc_id", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _mix64_np(df["doc_id"].to_numpy(), seed)
        u = (h.astype(np.float64) + 0.5) * 2.0 ** -64
        w = np.maximum(df["n_chars"].to_numpy(), 1).astype(np.float64)
        key = -np.log(u) / w
        idx = np.argsort(key, kind="stable")[:k]
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy()[idx],
            "source": df["source"].to_numpy()[idx],
            "n_chars": df["n_chars"].to_numpy()[idx],
            "key": key[idx],
        })

    parts = to_frame(ds.map_batches(partial, batch_format="pandas"))
    out = parts.sort_values(["key", "doc_id"]).head(k)
    return (
        out[["doc_id", "source", "n_chars"]]
        .astype({"doc_id": "int64", "n_chars": "int64"})
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def sql_docs_weighted_sample(k: int = 100, seed: int = 31) -> str:
    """DuckDB mirror of the A-ES race (mix64 CTE shared via
    :func:`_sql_mix64_cte`; the float-key arithmetic is spelled with
    the exact same operation sequence as the numpy side)."""
    return f"""
WITH {_sql_mix64_cte(["doc_id", "source", "n_chars"], seed)}
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         -ln((CAST(h AS DOUBLE) + 0.5) * POWER(2.0, -64))
             / CAST(GREATEST(n_chars, 1) AS DOUBLE) AS key
  FROM h4 ORDER BY key, doc_id LIMIT {k}
) ORDER BY doc_id
"""


def _lev_le2(a: str, b: str) -> int | None:
    """Plain Levenshtein distance if ≤ 2 else None — banded DP (only
    the |i-j| ≤ 2 diagonal matters), O(len) per pair. Matches
    DuckDB's levenshtein() (no transposition op)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 2:
        return None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo, hi = max(1, i - 2), min(lb, i + 2)
        if lo > 1:
            cur[lo - 1] = 3  # outside the band: sentinel > 2
        for j in range(lo, hi + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (a[i - 1] != b[j - 1]),
            )
        if hi < lb:
            cur[hi + 1] = 3
        if min(cur[lo - 1 : hi + 1]) > 2:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= 2 else None


def _deletion_neighborhood(w: str, depth: int = 2) -> set[str]:
    """All strings reachable from ``w`` by ≤ depth character
    deletions (including ``w`` itself) — the SymSpell index keys."""
    out = {w}
    frontier = {w}
    for _ in range(depth):
        nxt = set()
        for s in frontier:
            for i in range(len(s)):
                nxt.add(s[:i] + s[i + 1 :])
        nxt -= out
        out |= nxt
        frontier = nxt
    return out


def q_words_edit_pairs(sf_dir: str, max_dist: int = 2,
                       n_parts: int = 32) -> pd.DataFrame:
    """Fuzzy vocabulary self-join: every pair of DISTINCT corpus
    words within Levenshtein distance ``max_dist`` — the typo/variant
    clustering step of vocabulary normalization, and an operator Ray
    Data has no native form for. SymSpell candidate generation
    (Garbe's deletion-neighborhood trick): two words within distance
    d always share a member of their depth-d deletion neighborhoods,
    so candidates come from an equality groupby on deletion variants
    — never an all-pairs scan. Verification is a banded O(len) DP per
    candidate, exact plain Levenshtein (same metric as DuckDB's
    ``levenshtein``).

    Scale shape: vocabulary via the combiner word-count pattern; the
    variant explode is one hash-partition shuffle keyed on the
    deletion variant; candidate pairs are verified inside their
    partition and deduped at the (small, output-sized) merge — the
    documented swap at a web-scale vocabulary is a final
    groupby(pair) instead of the driver-side drop_duplicates.

    ``max_dist`` is at most 2: the verify DP decides distances ≤ 2
    only, so a wider band would silently drop pairs."""
    if max_dist > 2:
        raise ValueError(f"max_dist must be <= 2, got {max_dist}")
    import numpy as np

    ds = _docs(sf_dir, ["text"])

    def vocab_partial(df: pd.DataFrame) -> pd.DataFrame:
        words = df["text"].str.split().explode().dropna().unique()
        return pd.DataFrame({"word": pd.array(words, dtype=object)})

    vocab = to_frame(
        ds.map_batches(vocab_partial, batch_format="pandas"))["word"].unique()
    vocab_df = pd.DataFrame({"word": sorted(vocab)})

    import ray.data

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        out_v, out_w = [], []
        for w in df["word"]:
            for v in _deletion_neighborhood(w, max_dist):
                out_v.append(v)
                out_w.append(w)
        h = np.fromiter((fingerprint64(v) % n_parts for v in out_v),
                        dtype=np.int64, count=len(out_v))
        return pd.DataFrame({"variant": out_v, "word": out_w, "part": h})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        seen: set[tuple[str, str]] = set()  # a close pair shares
        # O(len) variants — verify each candidate pair ONCE per part
        for _, grp in g.groupby("variant", sort=False):
            ws = sorted(set(grp["word"]))
            for i in range(len(ws)):
                for j in range(i + 1, len(ws)):
                    key = (ws[i], ws[j])
                    if key in seen:
                        continue
                    seen.add(key)
                    d = _lev_le2(ws[i], ws[j])
                    if d is not None and 0 < d <= max_dist:
                        out_a.append(ws[i])
                        out_b.append(ws[j])
                        out_d.append(d)
        return pd.DataFrame({
            "word_a": pd.array(out_a, dtype=object),
            "word_b": pd.array(out_b, dtype=object),
            "dist": pd.array(out_d, dtype="int64"),
        })

    # repartition first: from_pandas yields ONE block, and the
    # neighborhood explode is the dominant cost of the query — it must
    # fan out, not run on a single core
    out = to_frame(
        ray.data.from_pandas(vocab_df)
        .repartition(min(n_parts, max(1, len(vocab_df) // 64)))
        .map_batches(explode, batch_format="pandas")
        .groupby("part")
        .map_groups(pairs, batch_format="pandas")
    )
    return (
        out.drop_duplicates(["word_a", "word_b"])
        .sort_values(["word_a", "word_b"])
        .astype({"dist": "int64"})
        .reset_index(drop=True)
    )


def sql_words_edit_pairs(max_dist: int = 2) -> str:
    return f"""
WITH v AS (
  SELECT w FROM documents,
       UNNEST(LIST_FILTER(regexp_split_to_array(text, '\\s+'),
                          x -> x <> '')) AS t(w)
  GROUP BY w
)
SELECT a.w AS word_a, b.w AS word_b,
       CAST(levenshtein(a.w, b.w) AS BIGINT) AS dist
FROM v a, v b
WHERE a.w < b.w AND abs(length(a.w) - length(b.w)) <= {max_dist}
  AND levenshtein(a.w, b.w) <= {max_dist}
ORDER BY word_a, word_b
"""
