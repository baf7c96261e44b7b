"""The crawl engine's contract with the benchmark tracer
(``perfbench/trace.py``): the engine names the tracer substitutes still
fire, and every ``wave_log`` record keeps the fields the tracer rebuilds
the chunk and commit phases from. A rename in ``pipelines/crawl.py``
fails here as well as in ``python3 -m pytest perfbench``."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench.trace import Tracer  # noqa: E402
from playwrightcrawler_ray.config import CrawlConfig  # noqa: E402
from playwrightcrawler_ray.corpus import build_corpus  # noqa: E402
from playwrightcrawler_ray.pipelines.crawl import CrawlEngine  # noqa: E402

WAVE_LOG_KEYS = {"wave", "strategy", "urls", "sec", "pipeline_sec",
                 "fixup_sec", "conflicts"}


def test_tracer_spans_fire_and_wave_log_keeps_its_fields(ray_session,
                                                          tmp_path):
    corpus = build_corpus(seed=7, n_hosts=4, pages_per_host=4)
    cfg = CrawlConfig(output_dir=str(tmp_path / "out"), max_waves=40)
    tracer = Tracer(str(tmp_path / "spans"))
    tracer.begin_crawl(0)
    tracer.install()
    try:
        res = CrawlEngine(corpus, cfg).run()
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"crawl.pop", "crawl.strategy", "crawl.push_back",
            "crawl.checkpoint"} <= names, names
    assert res.wave_log
    for w in res.wave_log:
        assert set(w) == WAVE_LOG_KEYS, w
        assert w["wave"] in tracer.chunk_starts, w
        # each field is rounded to 0.1 ms on its own, so the sum may
        # overshoot ``sec`` by up to 1.5 rounding steps
        assert 0 <= w["pipeline_sec"] + w["fixup_sec"] <= w["sec"] + 2e-4, w
