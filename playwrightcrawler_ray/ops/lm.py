"""Statistical-LM curation operators: perplexity filtering and
importance weighting over the ``documents`` table.

Two named literature techniques a 100 TB training-data pipeline runs
right after dedup:

- ``q_docs_lm_perplexity`` — CCNet-style LM quality filter (Wenzek et
  al., "CCNet: Extracting High Quality Monolingual Datasets from Web
  Crawl Data", 2020): train a small LM on a trusted reference slice,
  score every candidate document's negative log-likelihood, and let
  the pipeline keep the low-perplexity (reference-like) tail. CCNet
  uses a KenLM 5-gram; here the model is an add-one-smoothed word
  BIGRAM LM so the whole computation stays exactly reproducible in
  the DuckDB oracle — the architecture (small model broadcast to
  every worker, one streaming scoring pass, zero shuffle) is
  identical to shipping KenLM binaries to the fleet.

- ``q_docs_dsir_weights`` — DSIR-style importance weighting (Xie et
  al., "Data Selection for Language Models via Importance Resampling",
  2023): log p_target(doc) − log p_raw(doc) under two LMs trained on a
  target-domain slice and a raw-pool slice; resampling by this weight
  tilts the corpus toward the target domain.

Exactness contract: every per-bigram log-probability is quantized
ONCE per distinct model entry with ``floor(ln((c2+1)/(c1+V)) · 1e6)``
(glibc ``log`` on both sides — verified bit-identical between Python
``math.log`` and DuckDB ``LN`` on this box), and documents then SUM
**int64** micro-nats, so the Ray result and the SQL oracle hash-match
exactly with no float tolerance. Word/bigram identity is tracked by
blake2b-64 token hashes (equality ≡ string equality modulo ~2^-64
collisions — the same contract as the Jaccard/minhash kernels in
ops/dedup.py).

Scale shape (100 TB): the model is the SMALL side — counts come from
one column-pruned pass over the reference slice (per-batch partial
fold, driver combine; swap the combine for a coarse-key groupby if a
reference slice ever outgrew the driver), the quantized tables are
broadcast once via ``ray.put`` as sorted numpy arrays, and scoring is
one ``map_batches`` pass with ``np.searchsorted`` lookups — no
shuffle anywhere. Reference parity: rggassner/playwrightcrawler has
no LM filtering stage; this is part of the added LLM-curation family
(same bucket as ops/dedup.py's decontamination).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..functions.text import fingerprint64
from .io import to_frame
from .textstats import _docs

_MIX = np.uint64(0x9E3779B97F4A7C15)
# sentinel for out-of-vocabulary tokens: contains spaces, so no
# whitespace-split token can ever equal it (the SQL oracle uses the
# same literal string)
_OOV_TOKEN = " oov "
_OOV_HASH = np.uint64(fingerprint64(_OOV_TOKEN))

_TOK_CACHE: dict[str, int] = {}
# Web-crawl vocabularies are effectively unbounded, and workers are
# long-lived: cap the memo so the Zipf head (which enters first and
# stays) amortizes while the long tail cannot grow worker RSS forever.
_TOK_CACHE_MAX = 1 << 20


def _tok_hash_arrays(texts) -> list[np.ndarray]:
    """Per-token blake2b-64 hash array for each text (whitespace
    tokenization, the repo-wide convention matching the oracle's
    ``LIST_FILTER(regexp_split_to_array(text, '\\s+'), x -> x <> '')``).
    Unique tokens are hashed once per process (bounded cache)."""
    cache = _TOK_CACHE

    def tok_hash(tok: str) -> int:
        v = cache.get(tok)
        if v is None:
            v = fingerprint64(tok)
            if len(cache) < _TOK_CACHE_MAX:
                cache[tok] = v
        return v

    out = []
    for text in texts:
        toks = text.split()
        out.append(
            np.fromiter((tok_hash(t) for t in toks), dtype=np.uint64,
                        count=len(toks))
        )
    return out


class _BigramModel:
    """Quantized add-one bigram LM, stored as sorted numpy arrays so
    worker-side lookups are pure ``np.searchsorted``.

    For a bigram (w1, w2) over vocabulary V (|V| = distinct reference
    words + 1 OOV class):

        p(w2 | w1) = (c2(w1,w2) + 1) / (c1(w1) + |V|)

    quantized once per DISTINCT model entry to
    ``floor(ln(p) * 1e6)`` int64 micro-nats with glibc ``math.log``
    (bit-identical to DuckDB ``LN``): ``pair_q`` for seen bigrams,
    ``ctx_q`` for unseen bigrams under a seen context (c2 = 0), and
    the scalar ``q0`` for unseen/OOV contexts (c1 = 0)."""

    __slots__ = ("vocab", "pair_keys", "pair_q", "ctx_keys", "ctx_q",
                 "q0", "vsize")

    def __init__(self, vocab_hashes: np.ndarray, pair_keys: np.ndarray,
                 pair_c2: np.ndarray, pair_w1: np.ndarray):
        self.vocab = np.sort(vocab_hashes.astype(np.uint64))
        self.vsize = int(len(self.vocab)) + 1  # + the OOV class

        # context counts c1(w1) = sum over w2 of c2(w1, w2)
        ctx, inv = np.unique(pair_w1.astype(np.uint64), return_inverse=True)
        c1 = np.zeros(len(ctx), dtype=np.int64)
        np.add.at(c1, inv, pair_c2.astype(np.int64))
        self.ctx_keys = ctx
        self.ctx_q = np.fromiter(
            (math.floor(math.log(1.0 / (int(c) + self.vsize)) * 1e6)
             for c in c1),
            dtype=np.int64, count=len(c1),
        )

        order = np.argsort(pair_keys.astype(np.uint64), kind="stable")
        self.pair_keys = pair_keys.astype(np.uint64)[order]
        c2s = pair_c2.astype(np.int64)[order]
        c1_of_pair = c1[inv][order]
        self.pair_q = np.fromiter(
            (math.floor(
                math.log((int(a) + 1) / (int(b) + self.vsize)) * 1e6)
             for a, b in zip(c2s, c1_of_pair)),
            dtype=np.int64, count=len(c2s),
        )
        self.q0 = math.floor(math.log(1.0 / self.vsize) * 1e6)

    def score_tokens(self, th: np.ndarray) -> tuple[int, int]:
        """(n_bigrams, sum of quantized log-probs) for one document's
        token-hash array — all lookups vectorized."""
        if len(th) < 2:
            return 0, 0
        if len(self.vocab):
            vi = np.minimum(np.searchsorted(self.vocab, th),
                            len(self.vocab) - 1)
            in_vocab = self.vocab[vi] == th
        else:
            in_vocab = np.zeros(len(th), dtype=bool)
        w = np.where(in_vocab, th, _OOV_HASH)
        pk = (w[:-1] * _MIX) ^ w[1:]

        if len(self.pair_keys):
            pi = np.minimum(np.searchsorted(self.pair_keys, pk),
                            len(self.pair_keys) - 1)
            pair_hit = self.pair_keys[pi] == pk
            pair_q = self.pair_q[pi]
        else:
            pair_hit = np.zeros(len(pk), dtype=bool)
            pair_q = np.zeros(len(pk), dtype=np.int64)

        if len(self.ctx_keys):
            ci = np.minimum(np.searchsorted(self.ctx_keys, w[:-1]),
                            len(self.ctx_keys) - 1)
            ctx_hit = self.ctx_keys[ci] == w[:-1]
            ctx_q = self.ctx_q[ci]
        else:
            ctx_hit = np.zeros(len(pk), dtype=bool)
            ctx_q = np.zeros(len(pk), dtype=np.int64)

        q = np.where(pair_hit, pair_q, np.where(ctx_hit, ctx_q, self.q0))
        return len(th) - 1, int(q.sum())


def _build_models(sf_dir: str, ref_mod: int,
                  slices: list[int]) -> dict[int, _BigramModel]:
    """One column-pruned distributed pass over ``documents`` builds
    every requested reference-slice model (slice s = docs with
    ``doc_id % ref_mod == s``): batches emit per-slice partial bigram
    counts and distinct-word rows, the driver folds them (the model is
    the aggregate-sized small side; at a scale where a reference slice
    outgrew the driver this combine becomes a coarse-key groupby, the
    ops/aggutil.py pattern)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    want = np.array(sorted(slices), dtype=np.int64)

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        sel = np.isin(ids % ref_mod, want)
        if not sel.any():
            return pd.DataFrame({
                "slice": pd.Series([], dtype=np.int64),
                "kind": pd.Series([], dtype=np.int8),
                "key": pd.Series([], dtype=np.int64),
                "w1": pd.Series([], dtype=np.int64),
                "c": pd.Series([], dtype=np.int64),
            })
        sub_ids = ids[sel]
        hashes = _tok_hash_arrays(df["text"].to_numpy()[sel])
        out = {s: {"words": [], "pk": [], "w1": []} for s in want.tolist()}
        for doc_id, th in zip(sub_ids, hashes):
            acc = out[int(doc_id % ref_mod)]
            if len(th):
                acc["words"].append(np.unique(th))
            if len(th) >= 2:
                acc["pk"].append((th[:-1] * _MIX) ^ th[1:])
                acc["w1"].append(th[:-1])
        frames = []
        for s, acc in out.items():
            if acc["words"]:
                wds = np.unique(np.concatenate(acc["words"]))
                frames.append(pd.DataFrame({
                    "slice": np.full(len(wds), s, dtype=np.int64),
                    "kind": np.zeros(len(wds), dtype=np.int8),
                    "key": wds.view(np.int64),
                    "w1": np.zeros(len(wds), dtype=np.int64),
                    "c": np.zeros(len(wds), dtype=np.int64),
                }))
            if acc["pk"]:
                pk = np.concatenate(acc["pk"])
                w1 = np.concatenate(acc["w1"])
                order = np.argsort(pk, kind="stable")
                pk, w1 = pk[order], w1[order]
                starts = np.flatnonzero(np.r_[True, pk[1:] != pk[:-1]])
                cnt = np.diff(np.r_[starts, len(pk)])
                frames.append(pd.DataFrame({
                    "slice": np.full(len(starts), s, dtype=np.int64),
                    "kind": np.ones(len(starts), dtype=np.int8),
                    "key": pk[starts].view(np.int64),
                    "w1": w1[starts].view(np.int64),
                    "c": cnt.astype(np.int64),
                }))
        if not frames:
            return partials(df.iloc[:0])
        return pd.concat(frames, ignore_index=True)

    raw = to_frame(ds.map_batches(partials, batch_format="pandas"))
    models: dict[int, _BigramModel] = {}
    for s in want.tolist():
        sub = raw[raw["slice"] == s]
        words = sub[sub["kind"] == 0]["key"].to_numpy()
        vocab = np.unique(words.view(np.uint64))
        pairs = (
            sub[sub["kind"] == 1]
            .groupby(["key", "w1"], as_index=False)["c"].sum()
        )
        models[s] = _BigramModel(
            vocab,
            pairs["key"].to_numpy().view(np.uint64),
            pairs["c"].to_numpy(),
            pairs["w1"].to_numpy().view(np.uint64),
        )
    return models


def q_docs_lm_perplexity(sf_dir: str, ref_mod: int = 7) -> pd.DataFrame:
    """CCNet-style LM quality scores: a bigram LM trained on the
    deterministic reference slice (``doc_id % ref_mod == 0``; in
    production: Wikipedia or another trusted corpus) scores every
    OTHER document. Output per scored doc: bigram count, total
    negative log-likelihood in int64 micro-nats, and the integer
    average (the perplexity filter's decision statistic —
    ``exp(avg_nll_micro / 1e6)`` is the perplexity)."""
    import ray

    model = _build_models(sf_dir, ref_mod, [0])[0]
    model_ref = ray.put(model)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(model_ref)
        keep = (df["doc_id"] % ref_mod) != 0
        ids, ns, nlls = [], [], []
        for doc_id, th in zip(
            df["doc_id"].to_numpy()[keep.to_numpy()],
            _tok_hash_arrays(df["text"].to_numpy()[keep.to_numpy()]),
        ):
            n, qsum = m.score_tokens(th)
            if n == 0:
                continue
            ids.append(int(doc_id))
            ns.append(n)
            nlls.append(-qsum)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype=np.int64),
            "n_bigrams": pd.Series(ns, dtype=np.int64),
            "nll_micro": pd.Series(nlls, dtype=np.int64),
        })

    out = to_frame(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(score, batch_format="pandas")
    )
    out["avg_nll_micro"] = out["nll_micro"] // out["n_bigrams"]
    return out.sort_values("doc_id").reset_index(drop=True)


_SQL_TOKENIZE = (
    "SELECT doc_id, LIST_FILTER(regexp_split_to_array(text, '\\s+'), "
    "x -> x <> '') AS ws FROM documents"
)


def _sql_model_ctes(p: str, ref_mod: int, slice_val: int) -> str:
    """Model CTEs (vocab / bigram counts / context counts / vocab
    size), name-prefixed so two models can coexist in one query."""
    return f"""{p}ref AS (SELECT doc_id, ws FROM d WHERE doc_id % {ref_mod} = {slice_val}),
{p}vocab AS (SELECT DISTINCT UNNEST(ws) AS w FROM {p}ref),
{p}vsz AS (SELECT COUNT(*) + 1 AS v FROM {p}vocab),
{p}big AS (SELECT ws[i] AS w1, ws[i+1] AS w2
           FROM {p}ref, UNNEST(RANGE(1, LEN(ws))) AS t(i)),
{p}cnt2 AS (SELECT w1, w2, COUNT(*) AS c2 FROM {p}big GROUP BY 1, 2),
{p}cnt1 AS (SELECT w1, SUM(c2) AS c1 FROM {p}cnt2 GROUP BY 1)"""


def _sql_scored_pairs(p: str, where: str) -> str:
    """Adjacent-token pairs of the scored docs with OOV mapping
    against ``{p}vocab`` and the quantized log-prob column ``ql``."""
    return f"""{p}toks AS (
  SELECT doc_id, i,
         CASE WHEN ws[i] IN (SELECT w FROM {p}vocab)
              THEN ws[i] ELSE '{_OOV_TOKEN}' END AS tw
  FROM d, UNNEST(RANGE(1, LEN(ws) + 1)) AS t(i)
  WHERE {where}
),
{p}q AS (
  SELECT a.doc_id,
         CAST(FLOOR(LN((COALESCE(c2, 0) + 1.0)
                       / (COALESCE(c1, 0) + v)) * 1000000) AS BIGINT) AS ql
  FROM {p}toks a
  JOIN {p}toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  LEFT JOIN {p}cnt2 ON a.tw = {p}cnt2.w1 AND b.tw = {p}cnt2.w2
  LEFT JOIN {p}cnt1 ON a.tw = {p}cnt1.w1
  CROSS JOIN {p}vsz
)"""


def sql_docs_lm_perplexity(ref_mod: int = 7) -> str:
    return f"""
WITH d AS ({_SQL_TOKENIZE}),
{_sql_model_ctes("m", ref_mod, 0)},
{_sql_scored_pairs("m", f"doc_id % {ref_mod} <> 0")}
SELECT doc_id,
       COUNT(*) AS n_bigrams,
       CAST(-SUM(ql) AS BIGINT) AS nll_micro,
       CAST(-SUM(ql) AS BIGINT) // COUNT(*) AS avg_nll_micro
FROM mq
GROUP BY doc_id
ORDER BY doc_id
"""


def q_docs_dsir_weights(sf_dir: str, ref_mod: int = 7) -> pd.DataFrame:
    """DSIR-style importance log-weights: two bigram LMs — target
    (``doc_id % ref_mod == 0``) and raw pool (``== 1``) — score every
    doc outside both slices; the weight is
    ``log p_target(doc) − log p_raw(doc)`` in int64 micro-nats.
    Resampling ∝ exp(weight) tilts the kept corpus toward the target
    domain (Xie et al. 2023). Both models are built in ONE distributed
    pass and broadcast together; scoring stays one shuffle-free
    ``map_batches`` pass."""
    import ray

    models = _build_models(sf_dir, ref_mod, [0, 1])
    models_ref = ray.put((models[0], models[1]))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        mt, mr = ray.get(models_ref)
        keep = ((df["doc_id"] % ref_mod) >= 2).to_numpy()
        ids, ns, ws = [], [], []
        for doc_id, th in zip(
            df["doc_id"].to_numpy()[keep],
            _tok_hash_arrays(df["text"].to_numpy()[keep]),
        ):
            n, q_t = mt.score_tokens(th)
            if n == 0:
                continue
            _, q_r = mr.score_tokens(th)
            ids.append(int(doc_id))
            ns.append(n)
            ws.append(q_t - q_r)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype=np.int64),
            "n_bigrams": pd.Series(ns, dtype=np.int64),
            "logratio_micro": pd.Series(ws, dtype=np.int64),
        })

    out = to_frame(
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(score, batch_format="pandas")
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def sql_docs_dsir_weights(ref_mod: int = 7) -> str:
    where = f"doc_id % {ref_mod} >= 2"
    return f"""
WITH d AS ({_SQL_TOKENIZE}),
{_sql_model_ctes("t", ref_mod, 0)},
{_sql_model_ctes("r", ref_mod, 1)},
{_sql_scored_pairs("t", where)},
{_sql_scored_pairs("r", where)},
ts AS (SELECT doc_id, COUNT(*) AS n_bigrams,
              CAST(SUM(ql) AS BIGINT) AS ll_t
       FROM tq GROUP BY doc_id),
rs AS (SELECT doc_id, CAST(SUM(ql) AS BIGINT) AS ll_r
       FROM rq GROUP BY doc_id)
SELECT doc_id, n_bigrams, ll_t - ll_r AS logratio_micro
FROM ts JOIN rs USING (doc_id)
ORDER BY doc_id
"""


def q_docs_ccnet_buckets(sf_dir: str, ref_mod: int = 7) -> pd.DataFrame:
    """CCNet's actual output shape: per-LANGUAGE perplexity terciles —
    head / middle / tail (bucket 0/1/2, head = most reference-like).
    Scores come from the same bigram LM as ``q_docs_lm_perplexity``;
    within each language, docs are ranked by (avg_nll_micro, doc_id)
    and bucket = 3·(rank−1) // n — an exact, oracle-reproducible rank
    rule. Scale shape: scoring stays the shuffle-free broadcast pass;
    the rank needs ONE groupby(lang) shuffle of doc-sized score rows
    (languages are few and the text never moves). At a scale where
    even score rows shouldn't co-locate, the rank rule swaps for the
    mergeable KLL quantile sketch in ops/sketch.py — the exact rank is
    kept here because it is what the DuckDB oracle can pin."""
    import ray

    model = _build_models(sf_dir, ref_mod, [0])[0]
    model_ref = ray.put(model)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(model_ref)
        keep = ((df["doc_id"] % ref_mod) != 0).to_numpy()
        ids, langs, avgs = [], [], []
        for doc_id, lang, th in zip(
            df["doc_id"].to_numpy()[keep],
            df["lang"].to_numpy()[keep],
            _tok_hash_arrays(df["text"].to_numpy()[keep]),
        ):
            n, qsum = m.score_tokens(th)
            if n == 0:
                continue
            ids.append(int(doc_id))
            langs.append(lang)
            avgs.append((-qsum) // n)
        return pd.DataFrame({
            "doc_id": pd.Series(ids, dtype=np.int64),
            "lang": pd.Series(langs, dtype=object),
            "avg_nll_micro": pd.Series(avgs, dtype=np.int64),
        })

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["avg_nll_micro", "doc_id"],
                          kind="stable").reset_index(drop=True)
        n = len(g)
        g["bucket"] = (3 * np.arange(n, dtype=np.int64)) // n
        return g

    out = to_frame(
        _docs(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(score, batch_format="pandas")
        .groupby("lang")
        .map_groups(bucket, batch_format="pandas")
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def sql_docs_ccnet_buckets(ref_mod: int = 7) -> str:
    return f"""
WITH d AS ({_SQL_TOKENIZE}),
{_sql_model_ctes("m", ref_mod, 0)},
{_sql_scored_pairs("m", f"doc_id % {ref_mod} <> 0")},
s AS (
  SELECT doc_id,
         CAST(-SUM(ql) AS BIGINT) // COUNT(*) AS avg_nll_micro
  FROM mq GROUP BY doc_id
),
sl AS (
  SELECT s.doc_id, documents.lang, s.avg_nll_micro
  FROM s JOIN documents USING (doc_id)
),
r AS (
  SELECT *,
         ROW_NUMBER() OVER (PARTITION BY lang
                            ORDER BY avg_nll_micro, doc_id) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM sl
)
SELECT doc_id, lang, avg_nll_micro,
       CAST((3 * (rn - 1)) // n AS BIGINT) AS bucket
FROM r
ORDER BY doc_id
"""
