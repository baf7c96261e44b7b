"""Span recording for ``--trace 1``, from outside the package.

``Tracer.install`` substitutes wrappers for the names ``CrawlEngine``
looks up at call time:

- ``crawl.make_{fetch,parse,imgfetch,decode}_fn`` return closures that
  time each stage call inside the Ray worker and append the span to a
  per-process file under the tracer's span directory;
- ``crawl.FrontierShard`` and ``crawl.DedupShard`` become subclasses
  that time their RPC methods and return the spans on request;
- the ``CrawlEngine`` methods ``__init__``, ``_pop_merged``,
  ``_push_back``, ``_checkpoint`` and ``_publish_checkpoint`` and the
  module function ``crawl.apply_strategy`` record wave-loop spans.

A span is ``(name, start, end, parent, crawl_id)`` with times from
``time.perf_counter`` (CLOCK_MONOTONIC, one clock for every process on
the host). ``layer_metrics`` turns one crawl's spans into the per-layer
metrics.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass

from playwrightcrawler_ray.pipelines import crawl as crawl_mod

from .probes import STAGES, TimedDedupShard, TimedFrontierShard, timed_stage


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    crawl_id: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class WorkerSampler:
    """Peak count of Ray worker processes, sampled from /proc."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def count() -> int:
        n = 0
        for path in glob.glob("/proc/[0-9]*/cmdline"):
            try:
                with open(path, "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
                n += 1
        return n

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.count())
            self._stop.wait(self.interval_s)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class Tracer:
    """Span store of the benchmark process, plus the substitutions that
    feed it."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        os.makedirs(span_dir, exist_ok=True)
        self.spans: list[Span] = []
        self.crawl_id = -1
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        # wave bookkeeping: the chunk phase of a wave starts when its
        # push-back returns (CrawlEngine.run takes ``tw`` right after)
        self._wave = -1
        self._selected = False
        self.chunk_starts: dict[int, float] = {}
        self.waves_popped = 0

    def record(self, name: str, start: float, end: float,
               parent: str | None = None) -> None:
        with self._lock:
            self.spans.append(Span(name, start, end, parent, self.crawl_id))

    def begin_crawl(self, crawl_id: int) -> None:
        self.crawl_id = crawl_id
        self.chunk_starts = {}
        self.waves_popped = 0

    # --- substitution ---

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap_method(self, name: str, orig, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            t1 = time.perf_counter()
            tracer.record(name, t0, t1, parent="crawl")
            if after is not None:
                after(args, out, t1)
            return out

        return wrapper

    def install(self) -> None:
        engine = crawl_mod.CrawlEngine

        def after_pop(args, out, _t1):
            self._wave = args[1]
            self.waves_popped += 1
            self._selected = False

        def after_strategy(_args, out, _t1):
            self._selected = bool(out[0])

        def after_push_back(_args, _out, t1):
            if self._selected:
                self.chunk_starts[self._wave] = t1

        self._swap(engine, "__init__",
                   self._wrap_method("crawl.engine_init", engine.__init__))
        self._swap(engine, "_pop_merged",
                   self._wrap_method("crawl.pop", engine._pop_merged, after_pop))
        self._swap(crawl_mod, "apply_strategy",
                   self._wrap_method("crawl.strategy", crawl_mod.apply_strategy,
                                     after_strategy))
        self._swap(engine, "_push_back",
                   self._wrap_method("crawl.push_back", engine._push_back,
                                     after_push_back))
        self._swap(engine, "_checkpoint",
                   self._wrap_method("crawl.checkpoint", engine._checkpoint))
        self._swap(engine, "_publish_checkpoint",
                   self._wrap_method("crawl.checkpoint_publish",
                                     engine._publish_checkpoint))
        for stage in STAGES:
            attr = f"make_{stage}_fn"
            self._swap(crawl_mod, attr,
                       self._stage_factory(stage, getattr(crawl_mod, attr)))
        self._swap(crawl_mod, "FrontierShard", TimedFrontierShard)
        self._swap(crawl_mod, "DedupShard", TimedDedupShard)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _stage_factory(self, stage: str, make):
        tracer = self

        def factory(*args, **kwargs):
            return timed_stage(stage, make(*args, **kwargs),
                               tracer.span_dir, tracer.crawl_id)

        return factory

    def worker_spans(self, crawl_id: int) -> list[dict]:
        out = []
        for path in glob.glob(os.path.join(self.span_dir, f"{crawl_id}-*.jsonl")):
            with open(path) as f:
                out.extend(json.loads(line) for line in f)
        return out


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(tracer: Tracer, crawl_id: int, wall: tuple[float, float],
                  result, shard_spans: list[dict], dedup_spans: list[dict],
                  http_requests: int) -> dict[str, float]:
    """Per-layer metrics of one traced crawl. ``wall`` is the
    perf_counter interval from the ``CrawlEngine`` call to the return
    of ``run``; ``result`` is its ``CrawlResult``."""
    drv = [s for s in tracer.spans if s.crawl_id == crawl_id]

    def total(name: str) -> float:
        return sum(s.dur for s in drv if s.name == name)

    wave_log = result.wave_log
    pages = result.stats["pages_fetched"]
    # spans of the wave loop's own thread; the background checkpoint
    # publish overlaps later waves and owns none of their time. Chunk
    # and commit phases are rebuilt from wave_log: the chunk phase
    # starts when the wave's push-back returns
    covered = [(s.start, s.end) for s in drv
               if s.name != "crawl.checkpoint_publish"]
    for w in wave_log:
        t0 = tracer.chunk_starts.get(w["wave"])
        if t0 is None:
            continue
        t1 = t0 + w["pipeline_sec"]
        covered.append((t0, t1))
        covered.append((t1, t1 + w["fixup_sec"]))
    crawl_wall = wall[1] - wall[0]
    clipped = [(max(s, wall[0]), min(e, wall[1])) for s, e in covered
               if e > wall[0] and s < wall[1]]
    chunks_s = sum(w["pipeline_sec"] for w in wave_log)

    ws = tracer.worker_spans(crawl_id)
    m: dict[str, float] = {
        "crawl.engine_init_s": total("crawl.engine_init"),
        "crawl.pop_s": total("crawl.pop"),
        "crawl.strategy_s": total("crawl.strategy"),
        "crawl.push_back_s": total("crawl.push_back"),
        "crawl.checkpoint_s": total("crawl.checkpoint"),
        "crawl.checkpoint_publish_s": total("crawl.checkpoint_publish"),
        "crawl.commit_s": sum(w["fixup_sec"] for w in wave_log),
        "crawl.chunks_s": chunks_s,
        "crawl.chunks": sum(1 for s in ws if s["name"] == "stages.fetch"),
        "crawl.waves": len(wave_log),
        "crawl.empty_waves": tracer.waves_popped - len(wave_log),
        "crawl.wave_ms_p50": 1000 * statistics.median(w["sec"] for w in wave_log),
        "crawl.unattributed_frac": 1 - _union(clipped) / crawl_wall,
    }
    stage_sum = 0.0
    for stage in STAGES:
        mine = [s for s in ws if s["name"] == f"stages.{stage}"]
        secs = sum(s["end"] - s["start"] for s in mine)
        stage_sum += secs
        m[f"stages.{stage}_s"] = secs
        m[f"stages.{stage}_rows_out"] = sum(s["rows_out"] for s in mine)
    m["stages.bytes_fetched"] = sum(s["bytes"] for s in ws)
    m["stages.share_of_chunks"] = stage_sum / chunks_s if chunks_s else 0.0

    def busy(spans: list[dict], name: str) -> float:
        return sum(e - s for d in spans for n, s, e in d["spans"] if n == name)

    def calls(spans: list[dict], name: str) -> int:
        return sum(1 for d in spans for n, _, _ in d["spans"] if n == name)

    fr = result.stats["frontier"]
    m.update({
        "frontier.offer_calls": calls(shard_spans, "frontier.offer"),
        "frontier.offer_busy_s": busy(shard_spans, "frontier.offer"),
        "frontier.pop_busy_s": busy(shard_spans, "frontier.pop"),
        "frontier.push_back_busy_s": busy(shard_spans, "frontier.push_back"),
        "frontier.checkpoint_busy_s": busy(shard_spans, "frontier.checkpoint"),
        "frontier.checkpoint_bytes": sum(d["checkpoint_bytes"] for d in shard_spans),
        "frontier.admit_ratio": fr["admitted"] / fr["offered"] if fr["offered"] else 0.0,
        "frontier.pop_yield": pages / fr["popped"] if fr["popped"] else 0.0,
        "dedup.stage_calls": calls(dedup_spans, "dedup.stage"),
        "dedup.stage_busy_s": busy(dedup_spans, "dedup.stage"),
        "dedup.commit_busy_s": busy(dedup_spans, "dedup.commit"),
        "dedup.conflicts": sum(d["conflicts"] for d in dedup_spans),
        "dedup.checkpoint_bytes": sum(d["checkpoint_bytes"] for d in dedup_spans),
        "http.requests": http_requests,
        "http.requests_per_page": http_requests / pages if pages else 0.0,
    })
    return m
