"""The probes that run inside Ray workers and actors under ``--trace 1``.

Kept apart from ``trace.py`` so that an actor or task worker that
unpickles them imports only the state modules, not the crawl pipeline.
"""

from __future__ import annotations

import json
import os
import time

from playwrightcrawler_ray.state.dedup import DedupShard
from playwrightcrawler_ray.state.frontier import FrontierShard

STAGES = ("fetch", "parse", "imgfetch", "decode")


def _body_bytes(tbl) -> int:
    import pyarrow.compute as pc

    if "body" not in tbl.column_names or tbl.num_rows == 0:
        return 0
    total = pc.sum(pc.binary_length(tbl.column("body"))).as_py()
    return int(total or 0)


def timed_stage(stage: str, fn, span_dir: str, crawl_id: int):
    """Wrap one stage closure; runs in the Ray worker. One JSON line per
    call: the span plus rows in and out and the body bytes it added."""

    def timed(batch):
        t0 = time.perf_counter()
        out = fn(batch)
        t1 = time.perf_counter()
        added = 0
        if stage in ("fetch", "imgfetch"):
            added = max(0, _body_bytes(out) - _body_bytes(batch))
        rec = {"name": f"stages.{stage}", "start": t0, "end": t1,
               "parent": "crawl.chunks", "crawl_id": crawl_id,
               "rows_in": batch.num_rows, "rows_out": out.num_rows,
               "bytes": added}
        path = os.path.join(span_dir, f"{crawl_id}-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(rec) + "\n")
        return out

    return timed


class _ShardTimer:
    """Mixin: time named methods and keep the spans in actor memory."""

    def _timed(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self._bench_spans.append((name, t0, time.perf_counter()))
        return out

    def bench_spans(self) -> dict:
        return {"spans": list(self._bench_spans),
                "checkpoint_bytes": self._bench_ck_bytes,
                "conflicts": self._bench_conflicts}

    def _bench_init(self) -> None:
        self._bench_spans: list[tuple[str, float, float]] = []
        self._bench_ck_bytes = 0
        self._bench_conflicts = 0

    def _checkpoint_timed(self, prefix: str, fn) -> bytes:
        blob = self._timed(f"{prefix}.checkpoint", fn)
        self._bench_ck_bytes += len(blob)
        return blob


class TimedFrontierShard(_ShardTimer, FrontierShard):
    def __init__(self, *args, **kwargs):
        FrontierShard.__init__(self, *args, **kwargs)
        self._bench_init()

    def offer(self, items):
        return self._timed("frontier.offer", super().offer, items)

    def pop_candidates(self, wave, per_host=1):
        return self._timed("frontier.pop", super().pop_candidates,
                           wave, per_host)

    def push_back(self, items):
        return self._timed("frontier.push_back", super().push_back, items)

    def checkpoint(self):
        return self._checkpoint_timed("frontier", super().checkpoint)


class TimedDedupShard(_ShardTimer, DedupShard):
    def __init__(self, *args, **kwargs):
        DedupShard.__init__(self, *args, **kwargs)
        self._bench_init()

    def stage_many_keyed(self, pairs, ns=0):
        return self._timed("dedup.stage", super().stage_many_keyed, pairs, ns)

    def commit_wave(self):
        out = self._timed("dedup.commit", super().commit_wave)
        self._bench_conflicts += len(out)
        return out

    def checkpoint(self):
        return self._checkpoint_timed("dedup", super().checkpoint)
