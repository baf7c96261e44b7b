"""Engine against oracle over drawn crawl settings, and the bound on the
per-worker-process caches that crawls leave behind.

The goldens (test_crawl_golden.py) run at ``wave_size`` far above the
candidate count, so the frontier's top-``k`` split and the push-back of
unselected rows never truncate there. The differential test draws the
knobs the wave plan depends on and requires the engine to equal
``run_oracle`` on order, seen set and ``(image_id, phash)`` set.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from playwrightcrawler_ray.config import CrawlConfig
from playwrightcrawler_ray.corpus import build_corpus
from playwrightcrawler_ray.pipelines.oracle import run_oracle

STRATEGIES = ["fewest_urls", "oldest", "host_prefix", "random"]


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(seed=5, n_hosts=5, pages_per_host=4)


def _run(corpus, cfg, **run_kw):
    import ray

    from playwrightcrawler_ray.pipelines.crawl import CrawlEngine

    engine = CrawlEngine(corpus, cfg)
    try:
        return engine.run(collect_seen_ids=True, **run_kw)
    finally:
        for a in (*engine.shards, *engine.dedup):
            ray.kill(a, no_restart=True)


def _crawl(corpus, cfg, stop=None):
    """Crawl with a fresh output dir; with ``stop``, run the first
    ``stop`` waves, then resume in a new engine from its checkpoint."""
    from playwrightcrawler_ray.pipelines.crawl import load_images

    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    if stop is not None:
        _run(corpus, cfg, max_waves=stop)
    res = _run(corpus, cfg, resume=stop is not None)
    if not res.order_files:  # e.g. only ghost waves: no parquet to read
        return res, set(), 0
    imgs = load_images(cfg.output_dir).to_pandas()
    return res, set(zip(imgs["image_id"], imgs["phash"])), len(imgs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    wave_size=st.integers(min_value=1, max_value=6),
    weights=st.dictionaries(st.sampled_from(STRATEGIES),
                            st.integers(min_value=1, max_value=5),
                            min_size=1),
    bugs=st.booleans(),
    per_host=st.integers(min_value=1, max_value=3),
    shards=st.sampled_from([0, 1, 3]),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_engine_matches_oracle_over_wave_plans(
        ray_session, small_corpus, wave_size, weights, bugs, per_host,
        shards, seed):
    cfg = CrawlConfig(output_dir="/tmp/pwc_differential", max_waves=30,
                      seed=seed, wave_size=wave_size, method_weights=weights,
                      reproduce_reference_bugs=bugs,
                      per_host_per_wave=per_host, num_frontier_shards=shards,
                      num_seen_shards=shards)
    res, images, n_images = _crawl(small_corpus, cfg)
    ora = run_oracle(small_corpus, cfg)
    assert res.order == ora.order
    assert res.seen_ids() == ora.seen_ids
    assert images == {(v["image_id"], v["phash"]) for v in ora.images.values()}
    assert n_images == len(ora.images)
    shutil.rmtree(cfg.output_dir, ignore_errors=True)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    checkpoint_every=st.integers(min_value=1, max_value=4),
    cap=st.sampled_from([0, 1, 3]),
    shards=st.sampled_from([1, 3, 8]),
    stop=st.integers(min_value=1, max_value=29),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_engine_matches_oracle_across_stop_and_resume(
        ray_session, small_corpus, checkpoint_every, cap, shards, stop, seed):
    """The knobs that must not change a crawl's output: how often it
    checkpoints, how small a host queue may get before it spills
    (``host_queue_cap`` 1 spills nearly every offer), the shard count,
    and a stop after ``stop`` waves with a resume from the last
    checkpoint, which may replay waves."""
    cfg = CrawlConfig(output_dir="/tmp/pwc_differential_resume",
                      max_waves=30, seed=seed,
                      checkpoint_every=checkpoint_every, host_queue_cap=cap,
                      num_frontier_shards=shards, num_seen_shards=shards)
    res, images, n_images = _crawl(small_corpus, cfg, stop=stop)
    ora = run_oracle(small_corpus, cfg)
    assert res.order == ora.order
    assert res.seen_ids() == ora.seen_ids
    assert images == {(v["image_id"], v["phash"]) for v in ora.images.values()}
    assert n_images == len(ora.images)
    shutil.rmtree(cfg.output_dir, ignore_errors=True)


def test_worker_caches_stay_within_their_caps(ray_session, small_corpus):
    """Worker processes outlive a crawl, and each crawl adds entries to
    their caches (corpus reader, stage chain, process context). Crawls
    past the caps must evict, not accumulate."""
    import os
    import time

    import ray

    from playwrightcrawler_ray.stages import ray_stages

    n_engines = ray_stages._OBJ_CACHE_CAP // 2 + 2
    for i in range(n_engines):
        cfg = CrawlConfig(output_dir=f"/tmp/pwc_cachecap{i}", max_waves=12,
                          seed=i)
        _crawl(small_corpus, cfg)
        shutil.rmtree(cfg.output_dir, ignore_errors=True)

    @ray.remote
    def peek():
        from playwrightcrawler_ray.stages import ray_stages as rs

        time.sleep(0.2)  # hold this worker so siblings land elsewhere
        return os.getpid(), len(rs._OBJ_CACHE), len(rs._CTX_CACHE)

    ncpu = int(ray.cluster_resources()["CPU"])
    sizes = {pid: (o, c) for pid, o, c in ray.get(
        [peek.remote() for _ in range(4 * ncpu)])}
    assert any(o for o, _ in sizes.values()), sizes
    for o, c in sizes.values():
        assert o <= ray_stages._OBJ_CACHE_CAP
        assert c <= ray_stages._CTX_CACHE_CAP
