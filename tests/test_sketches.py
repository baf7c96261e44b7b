"""Property tests for the mergeable synopses (ops/sketch.py): the
guarantees must hold on ADVERSARIAL streams, not just the test
corpus — duplicates, constant runs, tiny/huge magnitudes, many or few
merge boundaries. Every partial is shipped through
``to_state``/``from_state`` and folded into a fresh synopsis, the path
``synopsis_agg`` takes."""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playwrightcrawler_ray.functions.text import fingerprint64
from playwrightcrawler_ray.ops.sketch import (
    HLL,
    HLL_M,
    CountMin,
    MisraGries,
    QuantileSketch,
)


def _ship(sk):
    """The state round trip a partial takes between tasks."""
    return type(sk).from_state(sk.to_state())


def _fold(make, parts):
    m = make()
    for sk in parts:
        m.merge(_ship(sk))
    return m


def test_from_state_rejects_another_synopsis():
    with pytest.raises(TypeError):
        HLL.from_state(CountMin().to_state())


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1, max_size=1500,
    ),
    k=st.sampled_from([4, 16, 64]),
    splits=st.integers(1, 6),
)
def test_quantile_sketch_certificate_fuzz(vals, k, splits):
    data = np.asarray(vals, dtype=np.float64)
    sketches = []
    for c in np.array_split(data, min(splits, len(data))):
        sk = QuantileSketch(k)
        sk.update(c)
        sketches.append(sk)
    m = _fold(lambda: QuantileSketch(k), sketches)
    assert m.n == len(data)
    total_w = sum(len(v) * (1 << lvl) for lvl, v in enumerate(m.levels))
    assert total_w == len(data)  # exact weight conservation, always
    srt = np.sort(data)
    bound = m.err + m.max_weight()
    for q in (0.0, 0.1, 0.5, 0.9, 1.0):
        est = m.quantile(q)
        assert est in data  # percentile_disc: a stored input value
        lo = np.searchsorted(srt, est, side="left")
        hi = np.searchsorted(srt, est, side="right")
        target = q * len(data)
        assert lo - bound <= target <= hi + bound


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(st.integers(0, 200), min_size=1, max_size=3000),
    k=st.sampled_from([2, 8, 32]),
    splits=st.integers(1, 5),
)
def test_misra_gries_guarantee_fuzz(words, k, splits):
    """MG invariants on arbitrary integer streams: cumulative
    decrement D <= N/(k+1); estimates in [true-D, true]; any item
    with true count > D survives the merge."""
    arr = np.asarray(words, dtype=np.int64)
    truth = collections.Counter(arr.tolist())
    sketches = []
    for chunk in np.array_split(arr, min(splits, len(arr))):
        sk = MisraGries(k)
        v, c = np.unique(chunk, return_counts=True)
        sk.update(v.tolist(), c)
        sketches.append(sk)
    m = _fold(lambda: MisraGries(k), sketches)
    hh = m.heavy_hitters()
    delta = m.delta
    assert delta <= len(arr) // (k + 1)
    assert (hh["err_bound"] == delta).all()
    est = dict(zip(hh["word"], hh["est"]))
    assert len(est) <= k
    for wi, ci in est.items():
        assert ci <= truth[wi] <= ci + delta
    for wi, ti in truth.items():
        if ti > delta:
            assert wi in est


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 5000),
    seed=st.integers(0, 2**31),
    splits=st.integers(1, 4),
)
def test_hll_merge_equals_single_stream_fuzz(n, seed, splits):
    """Merging per-chunk sketches must give the IDENTICAL registers
    (hence identical estimate) as one sketch over the whole stream —
    the mergeability property itself, not just accuracy."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=n, dtype=np.int64)
    whole = HLL()
    whole.update(keys)
    parts = []
    for chunk in np.array_split(keys, splits):
        part = HLL()
        if len(chunk):
            part.update(chunk)
        parts.append(part)
    merged = _fold(HLL, parts)
    assert np.array_equal(whole.registers, merged.registers)
    n_distinct = len(np.unique(keys))
    est = merged.estimate()
    tol = 6 * 1.04 / np.sqrt(HLL_M)
    assert abs(est - n_distinct) <= max(tol * n_distinct, 3)


@settings(max_examples=60, deadline=None)
@given(
    stream=st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 1000)),
        min_size=1, max_size=800,
    ),
    splits=st.integers(1, 6),
)
def test_cms_overestimate_and_linear_merge_fuzz(stream, splits):
    """Count-min guarantees on adversarial streams: (a) estimates
    NEVER undercount, (b) merging shard sketches by addition is
    bit-identical to sketching the whole stream (linearity), and the
    candidate sets merge by union."""
    words = np.array([f"w{i}" for i, _ in stream], dtype=object)
    counts = np.array([c for _, c in stream], dtype=np.int64)
    keys = np.array([fingerprint64(w) for w in words], dtype=np.uint64)

    single = CountMin()
    single.update(keys, counts)

    shards = []
    for idx in np.array_split(np.arange(len(words)), splits):
        shard = CountMin()
        shard.update(keys[idx], counts[idx])
        shard.candidates.update(words[idx])
        shards.append(shard)
    merged = _fold(CountMin, shards)
    assert np.array_equal(merged.table, single.table)
    assert merged.candidates == set(words)

    true = collections.Counter()
    for (i, _), c in zip(stream, counts):
        true[f"w{i}"] += int(c)
    uniq = np.array(sorted(true), dtype=object)
    uk = np.array([fingerprint64(w) for w in uniq], dtype=np.uint64)
    est = single.estimate(uk)
    for w, e in zip(uniq, est):
        assert int(e) >= true[w]


def test_hll_estimator_accuracy_across_magnitudes():
    """Raw HLL estimator (P=14, ~0.82 % standard error) stays within
    5 sigma of truth from the linear-counting regime up to 1M keys."""
    rng = np.random.default_rng(7)
    for n in (50, 1_000, 30_000, 1_000_000):
        keys = rng.choice(np.arange(n * 4, dtype=np.int64), size=n,
                          replace=False)
        # split across simulated batches and merge, exercising the
        # mergeable-sketch path, not just a single update
        a, b = HLL(), HLL()
        a.update(keys[: n // 2])
        b.update(keys[n // 2:])
        est = _fold(HLL, [a, b]).estimate()
        tol = 5 * 1.04 / np.sqrt(HLL_M)  # 5 sigma of the published bound
        assert abs(est - n) <= max(tol * n, 3), (n, est)


def test_misra_gries_guarantees_on_synthetic_stream():
    """Force the Misra-Gries decrement path (vocab >> k) and check the
    mergeable-summaries guarantees: cumulative decrement D <= N/(k+1),
    every estimate in [true - D, true], and every item with true count
    > D survives — across simulated batch partials + a merge."""
    k = 16
    rng = np.random.default_rng(3)
    # Zipf-ish stream over a 2000-word vocabulary, in 8 batches
    vocab = np.array([f"w{i}" for i in range(2000)], dtype=object)
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    stream = rng.choice(vocab, size=40_000, p=weights)
    truth = collections.Counter(stream)
    n = len(stream)

    sketches = []
    for batch in np.array_split(stream, 8):
        sk = MisraGries(k)
        vals, cnts = np.unique(batch, return_counts=True)
        sk.update(vals, cnts)
        sketches.append(sk)
    m = _fold(lambda: MisraGries(k), sketches)
    hh = m.heavy_hitters()
    delta = m.delta

    assert delta > 0  # the decrement path actually ran
    assert delta <= n // (k + 1)
    est = dict(zip(hh["word"], hh["est"]))
    for wi, ci in est.items():
        assert ci <= truth[wi] <= ci + delta
    for wi, ti in truth.items():
        if ti > delta:
            assert wi in est, (wi, ti, delta)


def test_quantile_sketch_certificate_on_synthetic_stream():
    """Compactor-stack quantile sketch: weight conservation, bounded
    state, and the self-carried rank-error certificate on a stream
    that forces many compactions and merges."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=50_000) * 10
    sketches = []
    for chunk in np.array_split(data, 16):
        sk = QuantileSketch(64)
        sk.update(chunk)
        sketches.append(sk)
    m = _fold(lambda: QuantileSketch(64), sketches)
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


def test_words_topk_cms_vs_exact(ray_session):
    """Driver-shaped check on the corpus: every CMS estimate bounds
    its true count from above, and at sf0.001 (token count << CMS_W
    collision regime) the sketch ranking reproduces the exact top-k."""
    import pandas as pd

    from playwrightcrawler_ray.ops.sketch import q_words_topk_cms
    from playwrightcrawler_ray.ops.textstats import q_words_topk

    sf = "/root/testdata/sf0.001"
    got = q_words_topk_cms(sf, k=10)
    exact = q_words_topk(sf, k=10)

    true = (
        pd.read_parquet(f"{sf}/documents.parquet", columns=["text"])["text"]
        .str.split().explode().dropna().value_counts()
    )
    for w, e in zip(got["word"], got["est"]):
        assert int(e) >= int(true.get(w, 0))
    assert list(got["word"]) == list(exact["word"])
    assert (got["est"].to_numpy() >= exact["cnt"].to_numpy()).all()
