"""Crawl workload shapes.

Each workload is a synthetic corpus (``corpus.build_corpus`` keyword
arguments, seeded by ``--seed``), a ``CrawlConfig`` override, the
URL-seen mode and the fetch backend. ``toy`` shapes keep the same
settings at a size the benchmark's own tests run in seconds.

BENCHMARK.json lists the workloads measured on every change:
``crawl_small_waves`` (bound by per-wave serial steps) and ``crawl_http``
(stage-bound, fetches over a socket). ``crawl_bulk`` is the same
stage-bound shape without the socket; it stays runnable by hand but is
not listed, because a run takes about a minute and the listed set must
fit a fixed time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_BULK_IMAGES = (32, 48, 64, 96, 128)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict
    cfg: dict
    seen_mode: str = "exact"
    http: bool = False
    shape: str = ""
    toy_corpus: dict = field(default_factory=dict)
    toy_cfg: dict = field(default_factory=dict)

    def corpus_kwargs(self, toy: bool) -> dict:
        return {**self.corpus, **(self.toy_corpus if toy else {})}

    def cfg_kwargs(self, toy: bool) -> dict:
        return {**self.cfg, **(self.toy_cfg if toy else {})}


_BULK_CFG = dict(
    max_waves=4,
    wave_size=200_000,
    method_weights={"oldest": 1},
    checkpoint_every=8,
    wave_batch_size=256,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="crawl_bulk",
            corpus=dict(n_hosts=32, pages_per_host=60, n_seeds=32,
                        text_words=250, img_sizes=_BULK_IMAGES),
            cfg=dict(_BULK_CFG, per_host_per_wave=60),
            seen_mode="cuckoo",
            shape="corpus backend, 32 hosts x 60 pages, 250-word pages, "
                  "images 32-128 px, per_host_per_wave=60, oldest, "
                  "4 waves, cuckoo seen set",
            toy_corpus=dict(n_hosts=8, pages_per_host=12, n_seeds=8),
            toy_cfg=dict(per_host_per_wave=6),
        ),
        Workload(
            name="crawl_small_waves",
            corpus=dict(n_hosts=32, pages_per_host=8, n_seeds=32),
            cfg=dict(max_waves=150, per_host_per_wave=1, checkpoint_every=1),
            shape="corpus backend, 32 hosts x 8 light pages, "
                  "per_host_per_wave=1, reference strategy weights "
                  "(strategy seed fixed), "
                  "checkpoint every wave, 150 wave indices into the "
                  "1-URL mega-host tail, exact seen set",
            toy_corpus=dict(n_hosts=8, pages_per_host=6, n_seeds=8),
            toy_cfg=dict(max_waves=24),
        ),
        Workload(
            name="crawl_http",
            corpus=dict(n_hosts=32, pages_per_host=30, n_seeds=32,
                        text_words=250, img_sizes=_BULK_IMAGES),
            cfg=dict(_BULK_CFG, per_host_per_wave=30),
            seen_mode="cuckoo",
            http=True,
            shape="bulk shape at 32 hosts x 30 pages, per_host_per_wave=30, "
                  "fetch_backend=http against a corpus.httpserve "
                  "subprocess on 127.0.0.1 port 0 (gzip and chunked on) "
                  "that shares the CPUs with the crawl",
            toy_corpus=dict(n_hosts=8, pages_per_host=12, n_seeds=8),
            toy_cfg=dict(per_host_per_wave=6),
        ),
    )
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_fetched")):
        return "bytes"
    if name.endswith("_per_page"):
        return "requests/page"
    if name.endswith(("_frac", "_ratio", "_yield", "share_of_chunks",
                      "_over_oracle")):
        return "ratio"
    return "count"
