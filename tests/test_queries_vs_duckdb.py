"""Mirror of the driver's correctness gate: run each queries() entry
and its oracle_sql() twin on the same parquet, compare row count,
column names, and order-insensitive values."""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")

SF_DIR = os.environ.get("PWC_TEST_SF", "/root/testdata/sf0.001")
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _duck(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'"
        )
    return con.sql(sql).df()


def _dtype_kind(s: pd.Series) -> str:
    """The dtype family a column must share with its oracle twin:
    float width may differ (float32 vs float64), the kind may not."""
    t = s.dtype
    if pd.api.types.is_bool_dtype(t):
        return "bool"
    if pd.api.types.is_integer_dtype(t):
        return "integer"
    if pd.api.types.is_float_dtype(t):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(t):
        return "datetime"
    if pd.api.types.is_string_dtype(t) or pd.api.types.is_object_dtype(t):
        return "string/object"
    return str(t)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(4)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as m

    return m


def _oracle_pairs():
    import __ray_entry__ as m

    qs, sqls = m.queries(), m.oracle_sql()
    return sorted(sqls.keys()), qs


# every oracle_sql() entry, pinned here so new oracled queries CANNOT
# land untested: test_query_lists_are_complete fails if this list and
# oracle_sql() drift apart in either direction.
ORACLED = [
    "pricing_summary", "top_customers", "orders_without_lineitem",
    "region_nation_counts", "part_top3_by_brand", "events_by_type",
    "events_hourly", "user_sessions", "events_ts_range",
    "supplier_by_nation", "customer_segments",
    "asof_join", "range_join", "bloom_semijoin",
    "token_counts", "token_counts_bpe", "quality_signals",
    "docs_gopher_quality", "docs_tfidf_topk",
    "lang_distribution", "docs_by_source", "doc_exact_dedup",
    "docs_token_quantiles", "docs_regex_scan", "docs_inverted_index",
    "doc_sample", "docs_stratified_sample", "docs_per_source_cap",
    "docs_split",
    "docs_paragraph_dedup", "docs_dup_ngram_fraction",
    "docs_substring_dedup",
    "ngram_jaccard_top_pairs", "ann_topk", "embedding_neardup_pairs",
    "dedup_components", "doc_neardup_dedup_exact", "docs_trainset_exact",
    "events_rolling", "lineitem_rollup", "events_distinct_users",
    "docs_decontaminate", "docs_decontaminate_join", "words_topk",
    "docs_lm_perplexity", "docs_dsir_weights", "docs_ccnet_buckets",
    "docs_trainset_decontam", "docs_trainset_pardedup",
    "docs_pii_scrub", "docs_weighted_sample", "ann_topk_batch",
    "lineitem_profile", "events_pivot", "words_edit_pairs",
    "lineitem_price_quartiles", "lineitem_corr", "user_retention",
]


def test_query_lists_are_complete(entrymod):
    """The driver-gate mirror must exercise EVERY queries() entry:
    each oracled query is in ORACLED (value-compared vs DuckDB) and
    each remaining query is rows-only-smoked below."""
    qs, sqls = entrymod.queries(), entrymod.oracle_sql()
    assert set(sqls) <= set(qs)
    assert set(ORACLED) == set(sqls), (
        set(ORACLED) ^ set(sqls))
    # (the rows-only complement is covered structurally:
    # test_rows_only_queries_run iterates queries() minus oracle_sql())


@pytest.mark.parametrize("name", ORACLED)
def test_query_matches_oracle(entrymod, name):
    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    got = qs[name](SF_DIR)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    want = _duck(sqls[name])
    kinds = {c: (_dtype_kind(got[c]), _dtype_kind(want[c]))
             for c in got.columns if c in want.columns}
    assert all(a == b for a, b in kinds.values()), {
        c: k for c, k in kinds.items() if k[0] != k[1]}
    g, w = _normalize(got), _normalize(want)
    assert list(g.columns) == list(w.columns), (g.columns, w.columns)
    assert len(g) == len(w), (len(g), len(w))
    pd.testing.assert_frame_equal(g, w, check_dtype=False, atol=1e-9)


def _rows_only_names(entrymod) -> list[str]:
    """Every queries() entry without a SQL twin — derived, so a new
    rows-only query is smoked automatically."""
    return sorted(set(entrymod.queries()) - set(entrymod.oracle_sql()))


def test_rows_only_queries_run(entrymod):
    qs = entrymod.queries()
    for name in _rows_only_names(entrymod):
        out = qs[name](SF_DIR)
        if not isinstance(out, pd.DataFrame):
            out = out.to_pandas()
        assert len(out) >= 0
        assert len(out.columns) >= 2


def test_ngram_jaccard_edge_cases_match_oracle(ray_session, tmp_path):
    """Short docs (< w tokens) and irregular whitespace (runs, tabs,
    newlines) must score identically in the engine and the DuckDB
    oracle (ADVICE round 1: split()-vs-STRING_SPLIT divergence)."""
    import duckdb
    import pyarrow.parquet as pq
    import pyarrow as pa

    from playwrightcrawler_ray.ops.dedup import (
        q_ngram_jaccard_top_pairs,
        sql_ngram_jaccard_top_pairs,
    )

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "text": [
            "one two",                       # < w tokens: no shingles
            "alpha  beta\tgamma\ndelta",     # whitespace runs
            "alpha beta gamma delta",        # same tokens, single spaces
            "alpha beta gamma epsilon",
            "",                              # empty doc
            "solo",                          # single token
        ],
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = _normalize(q_ngram_jaccard_top_pairs(str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = _normalize(con.sql(sql_ngram_jaccard_top_pairs()).df())
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)
    # docs 2 and 3 tokenize identically → jaccard 1.0 on both sides
    top = got.sort_values("jaccard", ascending=False).iloc[0]
    assert {int(top["doc_a"]), int(top["doc_b"])} == {2, 3}
    assert top["jaccard"] == 1.0


def test_paragraph_dedup_edge_cases_match_oracle(ray_session, tmp_path):
    """Cross-doc paragraph dedup on a hand-built corpus: within-doc
    repeats, cross-doc repeats, a fully-deduplicated document (must
    vanish), a short last chunk, and the first-occurrence policy
    ordered by (doc_id, idx) — engine and DuckDB oracle identical."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.pardedup import (
        q_docs_paragraph_dedup,
        sql_docs_paragraph_dedup,
    )

    chunk = "a b c"  # chunk_words=3 below → exactly one paragraph
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": [
            f"{chunk} {chunk} d e",      # within-doc repeat + short tail
            f"{chunk} x y z",            # cross-doc repeat of doc 1's par
            chunk,                       # fully deduplicated → dropped
            "d e",                       # duplicates doc 1's TAIL chunk
            "p q r d e f",               # 'd e f' != 'd e' (exact strings)
        ],
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = q_docs_paragraph_dedup(str(tmp_path), chunk_words=3)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.sql(sql_docs_paragraph_dedup(chunk_words=3)).df()
    g, w = _normalize(got), _normalize(want)
    assert len(g) == len(w)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    by_id = {int(r.doc_id): r for r in got.itertuples()}
    assert 3 not in by_id                       # fully deduped doc gone
    assert by_id[1].text == f"{chunk} d e"      # within-doc repeat removed
    assert by_id[1].n_dropped == 1
    assert by_id[2].text == "x y z"             # cross-doc repeat removed
    assert 4 not in by_id                       # its only chunk 'd e' is
    #                                             doc 1's tail, seen first
    assert by_id[5].text == "p q r d e f"       # no false hash-only match
    assert by_id[5].n_dropped == 0


def test_dup_ngram_fraction_edge_cases_match_oracle(ray_session, tmp_path):
    """Duplicate n-gram fraction on a hand-built corpus: sliding (not
    aligned) overlap, within-doc repetition, short docs (0 grams, row
    still present with dup_bp 0), and exact-integer basis points."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.pardedup import (
        q_docs_dup_ngram_fraction,
        sql_docs_dup_ngram_fraction,
    )

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [
            "a b c d e f",     # grams (w=3): abc bcd cde def
            "z a b c d y",     # zab abc bcd cdy: shares abc+bcd UNALIGNED
            "q q q q",         # qqq twice → within-doc duplication
            "x y",             # < w tokens → 0 grams, dup_bp 0
        ],
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = q_docs_dup_ngram_fraction(str(tmp_path), w=3)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.sql(sql_docs_dup_ngram_fraction(w=3)).df()
    g, w_ = _normalize(got), _normalize(want)
    assert len(g) == len(w_) == 4
    pd.testing.assert_frame_equal(g, w_, check_dtype=False)
    by_id = {int(r.doc_id): r for r in got.itertuples()}
    assert by_id[1].n_grams == 4 and by_id[1].n_dup == 2   # abc, bcd
    assert by_id[1].dup_bp == 5000
    assert by_id[2].n_dup == 2                             # unaligned hits
    assert by_id[3].n_grams == 2 and by_id[3].dup_bp == 10000
    assert by_id[4].n_grams == 0 and by_id[4].dup_bp == 0


def test_minhash_lsh_agrees_with_exact_on_high_jaccard(entrymod):
    """LSH must recover every pair the exact query scores ≥ 0.5 (the
    banding curve at 32×4 makes misses ~0 at that level)."""
    qs = entrymod.queries()
    exact = qs["ngram_jaccard_top_pairs"](SF_DIR)
    lsh = qs["minhash_lsh_pairs"](SF_DIR)
    hi = exact[exact["jaccard"] >= 0.5]
    got = set(zip(lsh["doc_a"], lsh["doc_b"]))
    for a, b in zip(hi["doc_a"], hi["doc_b"]):
        assert (a, b) in got


def test_embedding_neardup_lsh_recall_and_precision(entrymod):
    """The bucketed scale twin must (a) emit ONLY pairs the exact query
    also emits with identical cosine (precision: in-bucket scoring is
    exact), and (b) recover every high-cosine pair (recall at the
    banding curve's safe zone)."""
    qs = entrymod.queries()
    exact = qs["embedding_neardup_pairs"](SF_DIR)
    lsh = qs["embedding_neardup_lsh"](SF_DIR)
    exact_map = {
        (int(a), int(b)): c
        for a, b, c in zip(exact["vec_a"], exact["vec_b"], exact["cos_sim"])
    }
    for a, b, c in zip(lsh["vec_a"], lsh["vec_b"], lsh["cos_sim"]):
        assert (int(a), int(b)) in exact_map
        assert abs(exact_map[(int(a), int(b))] - c) < 1e-6
    got = set(zip(lsh["vec_a"], lsh["vec_b"]))
    hi = exact[exact["cos_sim"] >= 0.9]
    for a, b in zip(hi["vec_a"], hi["vec_b"]):
        assert (a, b) in got


def test_ann_topk_ivf_recall(entrymod):
    """IVF must score its hits exactly (in-cluster cosine is exact) and
    recover most of the true top-k at nprobe=4/16 on the test data."""
    qs = entrymod.queries()
    exact = qs["ann_topk"](SF_DIR)
    ivf = qs["ann_topk_ivf"](SF_DIR)
    exact_map = dict(zip(exact["vec_id"].astype(int), exact["cos_sim"]))
    hits = 0
    for v, c in zip(ivf["vec_id"].astype(int), ivf["cos_sim"]):
        if v in exact_map:
            assert abs(exact_map[v] - c) < 1e-6
            hits += 1
    assert hits >= len(exact) // 2  # recall@10 >= 0.5 at these params


def test_ann_topk_ivfpq_recall_and_exact_rerank(entrymod):
    """IVF-PQ with the IVFADC+R refinement: every reported score must
    be the EXACT cosine (the rerank touches true vectors), recall@10
    >= 0.5 at 16x32 codebooks / nprobe 8/16, and the result is
    deterministic (hash-seeded sample + stable Lloyd)."""
    qs = entrymod.queries()
    exact = qs["ann_topk"](SF_DIR)
    pq_ = qs["ann_topk_ivfpq"](SF_DIR)
    exact_map = dict(zip(exact["vec_id"].astype(int), exact["cos_sim"]))
    hits = 0
    for v, c in zip(pq_["vec_id"].astype(int), pq_["cos_sim"]):
        if v in exact_map:
            assert abs(exact_map[v] - c) < 1e-6
            hits += 1
    assert hits >= len(exact) // 2
    assert pq_.equals(qs["ann_topk_ivfpq"](SF_DIR))


def test_ann_training_sample_independent_of_partitioning(ray_session):
    """The IVF / IVF-PQ training sample (hash-smallest vec_ids) is the
    same however the input is partitioned. The sample is large enough
    that batches keep rows whose hash has the top bit set, so a sort
    key that loses the unsigned order shows up as a different sample."""
    import numpy as np
    import ray

    from playwrightcrawler_ray.ops.ann import _hash_smallest, _kmeans_centroids

    n_rows, n = 10_000, 3000
    df = pd.DataFrame({
        "vec_id": np.arange(n_rows, dtype=np.int64),
        "embedding": [[float(i), -float(i)] for i in range(n_rows)],
    })
    seed64 = np.uint64(7)
    v = df["vec_id"].to_numpy().astype(np.uint64)
    h = (v ^ seed64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h = h * np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(32)
    want = v[np.argsort(h, kind="stable")[:n]].astype(np.int64).tolist()

    centroids = []
    for parts in (1, 5, 13):
        ds = ray.data.from_pandas(df).repartition(parts)
        got = _hash_smallest(ds, seed64, n)
        assert got["vec_id"].tolist() == want, parts
        assert [e[0] for e in got["embedding"]] == want, parts
        centroids.append(_kmeans_centroids(lambda ds=ds: ds, n, 0, 3))
    for c in centroids[1:]:
        assert np.array_equal(c, centroids[0])


def test_entry_smoke(entrymod):
    ds = entrymod.entry()
    df = ds.to_pandas() if not isinstance(ds, pd.DataFrame) else ds
    assert len(df) > 0
    assert list(df.columns) == [
        "image_id", "bytes", "w", "h", "fmt", "caption", "phash"
    ]


def test_dedup_components_lsh_agreement(entrymod):
    """The no-broadcast components pipeline (LSH edges + star
    contraction) must agree with the exact configuration on
    high-similarity structure: every vector pair the exact pipeline
    puts in one component via a cosine-≥0.9 edge is co-labeled by the
    LSH pipeline too (its recall test guarantees those edges survive
    bucketing), and LSH components are a refinement of exact ones
    (LSH edges ⊆ exact edges ⇒ never merges what exact separates)."""
    qs = entrymod.queries()
    exact = qs["dedup_components"](SF_DIR)
    lsh = qs["dedup_components_lsh"](SF_DIR)
    assert len(exact) == len(lsh)
    e_lab = dict(zip(exact["vec_id"].astype(int),
                     exact["component_id"].astype(int)))
    l_lab = dict(zip(lsh["vec_id"].astype(int),
                     lsh["component_id"].astype(int)))
    assert set(e_lab) == set(l_lab)
    # refinement: two vectors in different exact components are never
    # co-labeled by the LSH pipeline
    for v, lc in l_lab.items():
        anchors = [u for u, c in l_lab.items() if c == lc]
        ecs = {e_lab[u] for u in anchors}
        assert len(ecs) == 1, f"LSH merged across exact components: {ecs}"
    # high-cosine edges keep their endpoints together in BOTH
    pairs = qs["embedding_neardup_pairs"](SF_DIR)
    hi = pairs[pairs["cos_sim"] >= 0.9]
    for a, b in zip(hi["vec_a"].astype(int), hi["vec_b"].astype(int)):
        assert l_lab[a] == l_lab[b]
        assert e_lab[a] == e_lab[b]


def test_doc_neardup_dedup_agreement(entrymod):
    """Near-dup collapse: one representative (the minimum doc_id) per
    component, every verified minhash pair co-labeled, and every
    high-Jaccard exact pair collapsed into one kept doc."""
    qs = entrymod.queries()
    out = qs["doc_neardup_dedup"](SF_DIR)
    lab = dict(zip(out["doc_id"].astype(int), out["component_id"].astype(int)))
    keep = dict(zip(out["doc_id"].astype(int), out["keep"]))
    # exactly one kept doc per component, and it is the minimum id
    import collections

    comps = collections.defaultdict(list)
    for d, c in lab.items():
        comps[c].append(d)
    for c, members in comps.items():
        kept = [d for d in members if keep[d]]
        assert kept == [min(members)] and c == min(members)
    # minhash-verified pairs are co-labeled
    pairs = qs["minhash_lsh_pairs"](SF_DIR)
    for a, b in zip(pairs["doc_a"].astype(int), pairs["doc_b"].astype(int)):
        assert lab[a] == lab[b]
    # oracle anchoring (VERDICT r3 item 8): the LSH collapse is a
    # refinement of the exact-edge collapse (LSH emits only
    # exact-verified edges, so it can never merge what the oracled
    # configuration separates), and high-Jaccard pairs — above the
    # 32×4 banding curve's miss zone — are co-labeled in BOTH
    exact = qs["doc_neardup_dedup_exact"](SF_DIR)
    e_lab = dict(zip(exact["doc_id"].astype(int),
                     exact["component_id"].astype(int)))
    assert set(e_lab) == set(lab)
    for a in lab:
        for b in lab:
            if a < b and lab[a] == lab[b]:
                assert e_lab[a] == e_lab[b], (a, b)
    hi = qs["ngram_jaccard_top_pairs"](SF_DIR)
    hi = hi[hi["jaccard"] >= 0.7]
    for a, b in zip(hi["doc_a"].astype(int), hi["doc_b"].astype(int)):
        assert lab[a] == lab[b]
        assert e_lab[a] == e_lab[b]


def test_temporal_joins_bucket_invariance(ray_session):
    """The as-of and range joins are hash-bucketed shuffles; the
    result must be bit-identical under any bucket count (partitioning
    is an execution detail, never a semantics input)."""
    from playwrightcrawler_ray.ops.joins import q_asof_join, q_range_join

    for fn in (q_asof_join, q_range_join):
        a = fn(SF_DIR, n_buckets=3)
        b = fn(SF_DIR, n_buckets=32)
        pd.testing.assert_frame_equal(a, b)


def test_hll_estimator_accuracy_across_magnitudes():
    """Raw HLL estimator (P=14, ~0.82 % standard error) stays within
    5 sigma of truth from the linear-counting regime up to 1M keys."""
    import numpy as np

    from playwrightcrawler_ray.ops.sketch import (
        HLL_M, hll_estimate, hll_merge, hll_update)

    rng = np.random.default_rng(7)
    for n in (50, 1_000, 30_000, 1_000_000):
        keys = rng.choice(np.arange(n * 4, dtype=np.int64), size=n,
                          replace=False)
        regs = np.zeros(HLL_M, dtype=np.uint8)
        # split across simulated batches and merge, exercising the
        # mergeable-sketch path, not just a single update
        a, b = np.zeros(HLL_M, dtype=np.uint8), np.zeros(HLL_M, dtype=np.uint8)
        hll_update(a, keys[: n // 2])
        hll_update(b, keys[n // 2:])
        regs = hll_merge(a, b)
        est = hll_estimate(regs)
        tol = 5 * 1.04 / np.sqrt(HLL_M)  # 5 sigma of the published bound
        assert abs(est - n) <= max(tol * n, 3), (n, est)


def test_hll_distinct_users_agrees_with_exact(entrymod):
    """The grouped HLL twin matches the SQL-oracled exact op within
    the estimator's error bound on every group."""
    import numpy as np

    from playwrightcrawler_ray.ops.sketch import HLL_M

    qs = entrymod.queries()
    exact = qs["events_distinct_users"](SF_DIR).set_index("event_type")
    est = qs["events_distinct_users_hll"](SF_DIR).set_index("event_type")
    assert sorted(exact.index) == sorted(est.index)
    tol = 5 * 1.04 / np.sqrt(HLL_M)
    for et in exact.index:
        n, e = int(exact.loc[et, "n_users"]), int(est.loc[et, "n_users_est"])
        assert abs(e - n) <= max(tol * n, 3), (et, n, e)


def test_mg_reduce_guarantees_on_synthetic_stream():
    """Force the Misra-Gries decrement path (vocab >> k) and check the
    mergeable-summaries guarantees: cumulative decrement D <= N/(k+1),
    every estimate in [true - D, true], and every item with true count
    > D survives — across simulated batch partials + a merge."""
    import collections

    import numpy as np

    from playwrightcrawler_ray.ops.sketch import mg_reduce

    k = 16
    rng = np.random.default_rng(3)
    # Zipf-ish stream over a 2000-word vocabulary, in 8 batches
    vocab = np.array([f"w{i}" for i in range(2000)], dtype=object)
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    stream = rng.choice(vocab, size=40_000, p=weights)
    truth = collections.Counter(stream)
    n = len(stream)

    merged: collections.Counter = collections.Counter()
    delta = 0
    for batch in np.array_split(stream, 8):
        vals, cnts = np.unique(batch, return_counts=True)
        w, c, d = mg_reduce(vals.astype(object), cnts.astype(np.int64), k)
        delta += d
        for wi, ci in zip(w, c):
            merged[wi] += int(ci)
    w, c, d = mg_reduce(np.array(list(merged), dtype=object),
                        np.array(list(merged.values()), dtype=np.int64), k)
    delta += d

    assert delta > 0  # the decrement path actually ran
    assert delta <= n // (k + 1)
    est = dict(zip(w, c))
    for wi, ci in est.items():
        assert ci <= truth[wi] <= ci + delta
    for wi, ti in truth.items():
        if ti > delta:
            assert wi in est, (wi, ti, delta)


def test_words_topk_mg_agrees_with_exact(entrymod):
    """The distributed MG pipeline's output satisfies the summary
    guarantee against the SQL-oracled exact twin on the test corpus."""
    qs = entrymod.queries()
    mg = qs["words_topk_mg"](SF_DIR)
    exact = _duck(
        "SELECT w AS word, COUNT(*) AS cnt FROM documents, "
        "UNNEST(LIST_FILTER(regexp_split_to_array(text, '\\s+'), "
        "x -> x <> '')) AS t(w) GROUP BY w"
    ).set_index("word")["cnt"]
    assert len(mg) > 0
    d = int(mg["err_bound"].iloc[0])
    assert d <= int(exact.sum()) // (65)  # k=64
    for word, est in zip(mg["word"], mg["est"]):
        true = int(exact[word])
        assert est <= true <= est + d
    present = set(mg["word"])
    for word, true in exact.items():
        if true > d:
            assert word in present


def test_quantile_sketch_certificate_on_synthetic_stream():
    """Compactor-stack quantile sketch: weight conservation, bounded
    state, and the self-carried rank-error certificate on a stream
    that forces many compactions and merges."""
    import numpy as np

    from playwrightcrawler_ray.ops.sketch import QuantileSketch

    rng = np.random.default_rng(5)
    data = rng.normal(size=50_000) * 10
    sketches = []
    for chunk in np.array_split(data, 16):
        sk = QuantileSketch(64)
        sk.add(chunk)
        sketches.append(sk)
    m = sketches[0]
    for s in sketches[1:]:
        m.merge(s)
    assert m.n == len(data)
    total_w = sum(len(v) * (1 << l) for l, v in enumerate(m.levels))
    assert total_w == len(data)                    # weight conserved
    assert sum(len(v) for v in m.levels) < 200     # bounded state
    srt = np.sort(data)
    bound = m.err + m.max_weight()
    assert bound < 0.1 * len(data)
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = m.quantile(q)
        lo = np.searchsorted(srt, est, side="left")
        hi = np.searchsorted(srt, est, side="right")
        target = q * len(data)
        assert lo - bound <= target <= hi + bound, (q, lo, hi, target)


def test_embedding_norm_quantiles_certificate(entrymod):
    """The distributed sketch op's estimates must satisfy their own
    rank-error certificate against exact norms (tie-aware: the
    estimated value's full rank interval, padded by the bound, must
    cover the target rank)."""
    import numpy as np

    qs = entrymod.queries()
    out = qs["embedding_norm_quantiles"](SF_DIR)
    emb = _duck("SELECT embedding FROM embeddings")
    m = np.stack(emb["embedding"].to_numpy())
    norms = np.sort(np.sqrt(np.einsum("ij,ij->i", m, m)))
    n = len(norms)
    for _, r in out.iterrows():
        assert int(r["n"]) == n
        lo = np.searchsorted(norms, r["norm_est"], side="left")
        hi = np.searchsorted(norms, r["norm_est"], side="right")
        b = r["rank_err_bound"]
        assert lo - b <= r["q"] * n <= hi + b, dict(r)


def test_pagerank_matches_dense_reference(ray_session):
    """The distributed power iteration must match an independently
    written dense transition-matrix PageRank to 1e-9 on a random
    weighted digraph, including dangling-node handling."""
    import numpy as np

    from playwrightcrawler_ray.ops.graph import pagerank_from_edges

    rng = np.random.default_rng(11)
    n = 40
    names = np.array([f"h{i:02d}" for i in range(n)], dtype=object)
    rows = []
    for _ in range(300):
        s, d = rng.integers(0, n, 2)
        if s != d:
            rows.append((names[s], names[d], int(rng.integers(1, 9))))
    edges = pd.DataFrame(rows, columns=["src", "dst", "weight"]).groupby(
        ["src", "dst"], as_index=False)["weight"].sum()
    got = pagerank_from_edges(edges, 0.85, 40).set_index("host")["rank"]

    hosts = np.unique(np.concatenate([edges["src"], edges["dst"]]))
    idx = {h: i for i, h in enumerate(hosts)}
    m = len(hosts)
    p = np.zeros((m, m))
    for _, r in edges.iterrows():
        p[idx[r["dst"]], idx[r["src"]]] += r["weight"]
    col = p.sum(axis=0)
    dang = col == 0
    pn = np.divide(p, np.where(col == 0, 1, col)[None, :])
    rv = np.full(m, 1 / m)
    for _ in range(40):
        rv = (1 - 0.85) / m + 0.85 * (pn @ rv + rv[dang].sum() / m)

    diff = float(np.abs(got.reindex(hosts).to_numpy() - rv).max())
    assert diff < 1e-9, diff
    assert abs(float(got.sum()) - 1.0) < 1e-9
    assert (got > 0).all()


def test_crawl_pagerank_invariants(entrymod):
    """PageRank over the golden crawl's host graph: a probability
    vector over the crawl's hosts, deterministic across runs."""
    qs = entrymod.queries()
    a = qs["crawl_pagerank"](SF_DIR)
    assert len(a) > 1
    assert abs(float(a["rank"].sum()) - 1.0) < 1e-6
    assert (a["rank"] > 0).all()
    b = qs["crawl_pagerank"](SF_DIR)
    pd.testing.assert_frame_equal(a, b)


def test_decontaminate_layouts_agree(entrymod):
    """The broadcast layout and the no-broadcast shingle-join layout
    must produce identical results (the scale fallback is code, not a
    docstring)."""
    qs = entrymod.queries()
    a = qs["docs_decontaminate"](SF_DIR)
    b = qs["docs_decontaminate_join"](SF_DIR)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True),
                                  check_dtype=False)


def test_simhash_hamming_pairs_exact_vs_bruteforce(ray_session):
    """The banded (pigeonhole) Hamming-pairs op must reproduce the
    brute-force all-pairs answer EXACTLY — the banding is a shuffle
    strategy, not an approximation. Checked on the corpus and on a
    planted-near-dup fixture that forces cross-band ownership."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.dedup import (
        _hamming64,
        q_simhash,
        q_simhash_hamming_pairs,
    )

    def brute(sf, radius):
        sig = q_simhash(sf).sort_values("doc_id").reset_index(drop=True)
        ids = sig["doc_id"].to_numpy()
        s = sig["simhash"].to_numpy().view(np.uint64)
        ii, jj = np.triu_indices(len(ids), k=1)
        d = _hamming64(s[ii], s[jj])
        keep = d <= radius
        return set(zip(ids[ii][keep].tolist(), ids[jj][keep].tolist(),
                       d[keep].tolist()))

    got = q_simhash_hamming_pairs(SF_DIR, radius=3)
    got_set = set(zip(got["doc_a"], got["doc_b"], got["hamming"]))
    assert got_set == brute(SF_DIR, 3)
    # no duplicate pair rows (cross-band ownership is exclusive)
    assert len(got) == len(set(zip(got["doc_a"], got["doc_b"])))

    # planted fixture: identical docs (distance 0), one-token flips
    # (small distance), unrelated docs; wider radius exercises the
    # 16-way banding ownership
    base = "the quick brown fox jumps over the lazy dog " * 5
    docs = {
        "doc_id": list(range(8)),
        "text": [
            base, base,                       # exact twins
            base + "extra", base + "EXTRA",   # near twins
            "completely different words entirely unrelated content",
            "another orthogonal document about databases and rays",
            base.replace("fox", "cat"),
            base.replace("dog", "wolf"),
        ],
    }
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        pq.write_table(pa.table(docs), f"{td}/documents.parquet")
        for radius in (0, 3, 7):
            got = q_simhash_hamming_pairs(td, radius=radius)
            got_set = set(zip(got["doc_a"], got["doc_b"], got["hamming"]))
            assert got_set == brute(td, radius), radius
        # the exact twins must surface at distance 0
        z = q_simhash_hamming_pairs(td, radius=0)
        assert (0, 1) in set(zip(z["doc_a"], z["doc_b"]))


def test_pii_scrub_planted_edge_cases(ray_session, tmp_path):
    """Planted PII: emails, IPv4, E.164 phones, an IPv4-shaped
    substring inside an email domain (must be consumed by the email
    pass, not double-counted), and digit runs that must NOT match —
    engine and oracle identical, and the scrubbed text provably loses
    the literals."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.textstats import (
        SQL_DOCS_PII_SCRUB,
        q_docs_pii_scrub,
    )

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": [
            "contact alice@example.com or bob@host.org today",
            "server at 10.1.2.3 and backup 192.168.0.1 port 8080",
            "call +1 555-012-3456 or +44 20 7946 0958 now",
            "edge a@b1.2.3.4xy.com hides an ip-shaped domain",
            "no pii here just numbers 12345 and 3.14159",
        ],
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = q_docs_pii_scrub(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.sql(SQL_DOCS_PII_SCRUB).df()
    g, w = _normalize(got), _normalize(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    by_id = got.set_index("doc_id")
    assert by_id.loc[1, "n_email"] == 2
    assert by_id.loc[2, "n_ipv4"] == 2
    assert by_id.loc[3, "n_phone"] == 2
    # the ip-shaped substring inside the email domain: email pass
    # consumes it, ip count stays 0
    assert by_id.loc[4, "n_email"] == 1 and by_id.loc[4, "n_ipv4"] == 0
    assert (by_id.loc[5, ["n_email", "n_ipv4", "n_phone"]] == 0).all()


def test_words_edit_pairs_rejects_max_dist_above_2(ray_session, tmp_path):
    """The verify DP decides distances <= 2 only; a wider band must
    raise instead of silently dropping the pairs it cannot verify
    (here kitten/sitting, distance 3)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.textstats import q_words_edit_pairs

    pq.write_table(pa.table({"doc_id": pa.array([1], pa.int64()),
                             "text": ["kitten kittens sitting"]}),
                   str(tmp_path / "documents.parquet"))
    with pytest.raises(ValueError, match="max_dist"):
        q_words_edit_pairs(str(tmp_path), max_dist=3)


def test_words_edit_pairs_planted_and_dp_fuzz(ray_session, tmp_path):
    """Planted typo families (substitution, deletion, insertion,
    double-edit, and beyond-radius words) must match the DuckDB
    levenshtein oracle exactly; the banded verify DP is fuzzed against
    a full reference DP."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.textstats import (
        _lev_le2,
        q_words_edit_pairs,
        sql_words_edit_pairs,
    )

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [
            "spelling speling spellling spelling spelled",
            "banana bananna banan bananas ananas",
            "orthogonal unrelated zebra xylophone",
        ],
    })
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = q_words_edit_pairs(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.sql(sql_words_edit_pairs()).df()
    g, w = _normalize(got), _normalize(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    gs = set(zip(got["word_a"], got["word_b"], got["dist"]))
    assert ("speling", "spelling", 1) in gs      # deletion
    assert ("spelling", "spellling", 1) in gs    # insertion
    assert ("banana", "bananna", 1) in gs
    assert ("ananas", "bananas", 1) in gs
    assert ("banan", "bananna", 2) in gs         # double edit
    assert not any("zebra" in p[:2] for p in gs)

    # banded DP vs full reference DP on random short strings
    def ref_lev(a, b):
        la, lb = len(a), len(b)
        d = np.zeros((la + 1, lb + 1), dtype=int)
        d[:, 0] = np.arange(la + 1)
        d[0, :] = np.arange(lb + 1)
        for i in range(1, la + 1):
            for j in range(1, lb + 1):
                d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                              d[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
        return d[la, lb]

    rng = np.random.default_rng(17)
    alphabet = "abc"
    for _ in range(400):
        a = "".join(rng.choice(list(alphabet),
                               rng.integers(0, 8)).tolist())
        b = "".join(rng.choice(list(alphabet),
                               rng.integers(0, 8)).tolist())
        true = ref_lev(a, b)
        band = _lev_le2(a, b)
        if true <= 2:
            assert band == true, (a, b, true, band)
        else:
            assert band is None, (a, b, true, band)


def test_lineitem_profile_planted_nulls(ray_session, tmp_path):
    """The corpus lineitem has zero nulls, so the oracle run never
    exercises the null-accounting path — plant a parquet with partial
    nulls and one entirely-null profiled column (all-NaN min/max
    branch) and require exact engine/oracle agreement."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from playwrightcrawler_ray.ops.analytics import (
        SQL_LINEITEM_PROFILE,
        q_lineitem_profile,
    )

    tbl = pa.table({
        "l_quantity": pa.array([1.0, None, 3.0, None, 5.0], pa.float64()),
        "l_extendedprice": pa.array([10.5, 20.25, None, 40.0, 50.0],
                                    pa.float64()),
        "l_discount": pa.array([None] * 5, pa.float64()),  # all null
        "l_tax": pa.array([0.01, 0.02, 0.02, 0.03, 0.01], pa.float64()),
    })
    pq.write_table(tbl, str(tmp_path / "lineitem.parquet"))
    got = q_lineitem_profile(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM '{tmp_path}/lineitem.parquet'"
    )
    want = con.sql(SQL_LINEITEM_PROFILE).df()
    g, w = _normalize(got), _normalize(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)
    by = got.set_index("col")
    assert by.loc["l_quantity", "n_null"] == 2
    assert by.loc["l_discount", "n_null"] == 5
    assert by.loc["l_discount", "n_distinct"] == 0
    assert pd.isna(by.loc["l_discount", "vmin"])


def test_user_groups_stay_within_rows_per_group(ray_session, monkeypatch):
    """The per-user ops' bucket count grows with the table: at a 10×
    larger events table the largest map_groups group still holds at
    most ROWS_PER_GROUP rows, and the ops stay equal to their SQL."""
    from playwrightcrawler_ray.ops import analytics
    from playwrightcrawler_ray.ops.io import read_table

    bound = 500
    monkeypatch.setattr(analytics, "ROWS_PER_GROUP", bound)
    sf_root = os.path.dirname(SF_DIR)
    sf_small, sf_large = (os.path.join(sf_root, s) for s in ("sf0.01", "sf0.1"))
    for sf in (sf_small, sf_large):
        ev = read_table(sf, "events", ["user_id"])
        sizes = (analytics._user_groups(ev).count().to_pandas()
                 ["count()"])
        assert len(sizes) > analytics.MIN_BUCKETS
        assert sizes.sum() == ev.count()
        assert sizes.max() <= bound, (sf, sizes.max())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"'{sf_small}/events.parquet'")
    for q, sql in ((analytics.q_user_sessions, analytics.SQL_USER_SESSIONS),
                   (analytics.q_events_rolling,
                    analytics.SQL_EVENTS_ROLLING)):
        g = _normalize(q(sf_small))
        w = _normalize(con.sql(sql).df())
        pd.testing.assert_frame_equal(g, w, check_dtype=False)
