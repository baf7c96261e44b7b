"""Edge-case battery for the statistical-LM curation ops (ops/lm.py):
the Ray kernels and their DuckDB oracles must agree exactly on the
awkward inputs — sub-bigram docs, all-OOV docs, whitespace runs,
vocab-only reference docs — not just on the driver tables."""

from __future__ import annotations

import math

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from playwrightcrawler_ray.ops.lm import (
    _BigramModel,
    _tok_hash_arrays,
    q_docs_dsir_weights,
    q_docs_lm_perplexity,
    sql_docs_dsir_weights,
    sql_docs_lm_perplexity,
)

from oracle_compare import assert_matches_oracle

EDGE_DOCS = [
    # ref slice (doc_id % 3 == 0): the LM training corpus
    (0, "the cat sat on the mat the cat ran"),
    (3, "a dog sat on a log"),
    (6, "single"),                      # vocab word, zero bigrams
    (9, ""),                            # empty ref doc
    # scored docs
    (1, "the cat sat on the log"),      # in-vocab bigrams, some unseen
    (2, "zz yy xx ww"),                 # every token OOV
    (4, "one"),                         # < 2 tokens: no output row
    (5, ""),                            # empty: no output row
    (7, "the\tcat\n\n  sat   on\r\nthe mat"),   # whitespace runs
    (8, "mat the zz cat single"),       # mixed vocab/OOV, rare contexts
    # a second slice for DSIR's raw-pool model (doc_id % 3 == 1 is
    # covered by 1/4/7 above)
    (10, "dog ran on the mat"),
    (11, "cat cat cat cat"),
]


@pytest.fixture(scope="module")
def edge_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("lmedge")
    ids, texts = zip(*EDGE_DOCS)
    langs = ["en" if i % 2 == 0 else "fr" for i in ids]
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": list(texts),
                  "lang": langs}),
        d / "documents.parquet",
    )
    return str(d)


def _oracle(edge_sf: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{edge_sf}/documents.parquet'"
    )
    return con.sql(sql).df()


def test_lm_perplexity_edges_match_oracle(ray_session, edge_sf):
    got = q_docs_lm_perplexity(edge_sf, ref_mod=3)
    want = _oracle(edge_sf, sql_docs_lm_perplexity(ref_mod=3))
    # sub-bigram and empty docs produce NO row on either side
    assert set(got["doc_id"]) == set(want["doc_id"])
    assert 4 not in set(got["doc_id"]) and 5 not in set(got["doc_id"])
    assert 0 not in set(got["doc_id"])          # ref slice never scored
    assert_matches_oracle(got, want)


def test_lm_dsir_edges_match_oracle(ray_session, edge_sf):
    got = q_docs_dsir_weights(edge_sf, ref_mod=3)
    want = _oracle(edge_sf, sql_docs_dsir_weights(ref_mod=3))
    assert set(got["doc_id"]) <= {2, 5, 8, 11}   # only % 3 >= 2 scored
    assert_matches_oracle(got, want)


def test_ccnet_buckets_edges_match_oracle(ray_session, edge_sf):
    from playwrightcrawler_ray.ops.lm import (
        q_docs_ccnet_buckets,
        sql_docs_ccnet_buckets,
    )

    got = q_docs_ccnet_buckets(edge_sf, ref_mod=3)
    want = _oracle(edge_sf, sql_docs_ccnet_buckets(ref_mod=3))
    assert_matches_oracle(got, want)
    # tercile rule: within each language, buckets are rank-balanced
    for _, g in got.groupby("lang"):
        counts = g["bucket"].value_counts()
        assert counts.max() - counts.min() <= 1


def test_all_oov_doc_scores_pure_oov_mass(ray_session, edge_sf):
    """Doc 2 is entirely out-of-vocabulary: every bigram must score the
    unseen-context constant q0 = floor(ln(1/V)·1e6) — pinned against an
    independent computation of V from the reference slice."""
    got = q_docs_lm_perplexity(edge_sf, ref_mod=3)
    row = got[got["doc_id"] == 2].iloc[0]
    ref_texts = [t for i, t in EDGE_DOCS if i % 3 == 0]
    vocab = {w for t in ref_texts for w in t.split()}
    v = len(vocab) + 1
    q0 = math.floor(math.log(1.0 / v) * 1e6)
    assert row["n_bigrams"] == 3
    assert row["nll_micro"] == -3 * q0


def test_bigram_model_quantization_matches_naive():
    """_BigramModel's vectorized lookup path reproduces a per-token
    naive reference (dict lookups + math.log) on mixed vocab/OOV
    input."""
    ref = "b a b c a b a a c"
    toks = ref.split()
    th = _tok_hash_arrays([ref])[0]
    pk_all = list(zip(toks[:-1], toks[1:]))
    c2: dict[tuple[str, str], int] = {}
    for p in pk_all:
        c2[p] = c2.get(p, 0) + 1
    c1: dict[str, int] = {}
    for (w1, _), c in c2.items():
        c1[w1] = c1.get(w1, 0) + c
    v = len(set(toks)) + 1

    pairs = sorted(c2)
    import hashlib

    def h(tok):
        return int.from_bytes(
            hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big")

    mix = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    pair_keys = np.array(
        [((h(a) * mix) & mask) ^ h(b) for a, b in pairs], dtype=np.uint64)
    model = _BigramModel(
        np.unique(th),
        pair_keys,
        np.array([c2[p] for p in pairs], dtype=np.int64),
        np.array([h(a) for a, _ in pairs], dtype=np.uint64),
    )

    scored = "a b x c a x"
    sth = _tok_hash_arrays([scored])[0]
    n, qsum = model.score_tokens(sth)
    stoks = ["a", "b", " oov ", "c", "a", " oov "]
    expect = 0
    for w1, w2 in zip(stoks[:-1], stoks[1:]):
        p = (c2.get((w1, w2), 0) + 1) / (c1.get(w1, 0) + v)
        expect += math.floor(math.log(p) * 1e6)
    assert n == len(stoks) - 1
    assert qsum == expect
