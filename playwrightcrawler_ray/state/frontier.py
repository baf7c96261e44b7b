"""Sharded URL frontier: per-host priority queues + politeness budgets +
robots rules + the URL-seen filter.

This replaces the reference's Elasticsearch links index + weighted
random polling (playwrightcrawler.py:1119-1428, 4427-4503) with an
explicit frontier service. ``FrontierShard`` is a plain Python class —
Ray-agnostic so the oracle simulator and unit tests drive it directly;
the crawl pipeline wraps it with ``ray.remote``. Sharding key is
``hash(host) % num_shards`` so one host's politeness state lives on
exactly one shard (SURVEY.md §7.3). Mega-host skew is handled twice:
at pop time a hot host still yields only ``per_host_per_wave`` URLs
per wave (bounding wave contribution, not wave latency), and in MEMORY
by ``host_queue_cap`` — a host heap that outgrows the cap spills its
larger half as a sorted run to disk (LSM-style), so a 10^8-URL
mega-host costs the owning shard O(cap) resident memory; runs merge
back lazily only when their keys become poppable. Pop order is
IDENTICAL with and without spilling (equivalence-tested).

Determinism: the priority of a URL is ``(wave_discovered, url)`` — the
Ray-native analogue of the reference's ``created_at asc + url
tiebreak`` frontier order (:1399-1425). Pops, merges and strategy
sampling are all seeded/sorted, which is what makes crawl ordering
reproducible (the reference itself is unseeded-random; parity is
defined against the seeded oracle, SURVEY.md §7.4 item 1).
"""

from __future__ import annotations

import heapq
import pickle
from collections import defaultdict

from ..pipelines.strategy import split_by_plan, strategy_plan, wave_rng
from .approxset import make_seen_set, restore_seen_set
from .robots import RobotsRules


def shard_of(host: str, num_shards: int) -> int:
    """Stable host → shard routing (NOT Python hash(): must be identical
    across processes and runs)."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(host.encode("utf-8", "surrogatepass"), digest_size=4).digest(),
        "big",
    ) % num_shards


class FrontierShard:
    def __init__(self, shard_id: int = 0, seen_mode: str = "exact",
                 seen_capacity: int = 1 << 16, host_queue_cap: int = 0,
                 spill_dir: str | None = None):
        self.shard_id = shard_id
        self.seen = make_seen_set(seen_mode, seen_capacity)
        self.heaps: dict[str, list[tuple[int, str]]] = defaultdict(list)
        self.robots: dict[str, RobotsRules] = {}
        self.host_cooldown_until: dict[str, int] = {}
        self.counters = {
            "offered": 0, "admitted": 0, "dup": 0,
            "robots_denied": 0, "popped": 0, "pushed_back": 0,
            "spilled": 0, "spill_merges": 0,
        }
        # mega-host skew: per-host sorted runs spilled to disk
        # (host → list of [min_key, count, path]); 0 = unlimited
        self.host_queue_cap = int(host_queue_cap)
        self._spill_dir = spill_dir
        self._spill_seq = 0
        self.runs: dict[str, list[list]] = defaultdict(list)
        # the last step_ahead's undo log: (wave, cooldowns before it,
        # popped, selectable rows) per wave it ran
        self._undo: list[tuple[int, dict, int, list]] = []

    # --- mega-host spill (LSM-style sorted runs) ---

    def _spill_path(self) -> str:
        import os
        import tempfile

        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(
                prefix=f"pwc_frontier_spill_{self.shard_id}_"
            )
        os.makedirs(self._spill_dir, exist_ok=True)
        self._spill_seq += 1
        return f"{self._spill_dir}/run_{self._spill_seq:08d}.bin"

    def _maybe_spill(self, host: str) -> None:
        cap = self.host_queue_cap
        heap = self.heaps[host]
        if not cap or len(heap) <= cap:
            return
        # keep the SMALLEST half resident (only those are poppable
        # soon); the larger half becomes an immutable sorted run. At
        # least one entry stays resident — cap=1 would otherwise
        # re-spill everything _merge_due_runs just loaded and starve
        # the host permanently.
        n_keep = max(1, cap // 2)
        ordered = sorted(heap)
        keep = ordered[:n_keep]
        run = ordered[n_keep:]
        path = self._spill_path()
        with open(path, "wb") as f:
            pickle.dump(run, f, protocol=pickle.HIGHEST_PROTOCOL)
        self.heaps[host] = keep  # sorted list IS a valid heap
        self.runs[host].append([run[0], len(run), path])
        self.counters["spilled"] += len(run)

    def _merge_due_runs(self, host: str) -> None:
        """Load every run whose min key is ≤ the resident heap's head
        (or any run, if the heap is empty) — afterwards the global
        minimum for ``host`` is guaranteed to sit at heap[0]."""
        import os

        runs = self.runs.get(host)
        if not runs:
            return
        heap = self.heaps[host]
        while runs:
            runs.sort(key=lambda r: r[0])
            if heap and runs[0][0] >= heap[0]:
                break
            _, _, path = runs.pop(0)
            with open(path, "rb") as f:
                items = pickle.load(f)
            os.remove(path)
            for it in items:
                heapq.heappush(heap, tuple(it))
            self.counters["spill_merges"] += 1
        if not runs:
            self.runs.pop(host, None)
        self._maybe_spill(host)

    # --- robots ---

    def set_robots(self, items: list[tuple[str, str | None]]) -> None:
        for host, text in items:
            self.robots[host] = RobotsRules.parse(text)

    def _robots_allows(self, host: str, path: str) -> bool:
        rules = self.robots.get(host)
        return rules.allowed(path) if rules is not None else True

    # --- offers ---

    def offer(self, items: list[tuple[str, int, str, str, int]]) -> dict:
        """Offer discovered URLs: (url, url_id64, host, path, wave).

        Seen-filter (insert-if-absent) then robots check, then heap push
        keyed (wave, url). Returns this call's counter deltas."""
        delta = {"offered": 0, "admitted": 0, "dup": 0, "robots_denied": 0}
        for url, h64, host, path, wave in items:
            delta["offered"] += 1
            if not self.seen.add_if_absent(int(h64)):
                delta["dup"] += 1
                continue
            if not self._robots_allows(host, path):
                delta["robots_denied"] += 1
                continue
            heapq.heappush(self.heaps[host], (int(wave), url))
            self._maybe_spill(host)
            delta["admitted"] += 1
        for k, v in delta.items():
            self.counters[k] += v
        return delta

    # --- pops ---

    def pop_candidates(
        self, wave: int, per_host: int = 1
    ) -> list[tuple[int, str, str]]:
        """Pop up to ``per_host`` URLs from every non-cooling host heap.
        Returns (wave_discovered, url, host) triples; deterministic
        (heap order + sorted host iteration)."""
        out: list[tuple[int, str, str]] = []
        # sorted() here adds only a log factor on top of the O(hosts)
        # per-wave iteration this method inherently does (every
        # non-cooling host is visited); measured <2% of pop time at 64k
        # hosts/shard. Accepted — an incrementally-sorted host structure
        # would buy back the log factor but not the linear walk.
        for host in sorted(self.heaps.keys()):
            if self.host_cooldown_until.get(host, 0) > wave:
                continue
            heap = self.heaps[host]
            took = 0
            while took < per_host:
                self._merge_due_runs(host)
                heap = self.heaps[host]
                if not heap:
                    break
                w, url = heapq.heappop(heap)
                out.append((w, url, host))
                took += 1
            if took:
                rules = self.robots.get(host)
                cd = rules.crawl_delay if rules is not None else None
                if cd:
                    # politeness mapping: crawl-delay seconds → whole
                    # waves of cooldown (documented approximation)
                    self.host_cooldown_until[host] = wave + 1 + int(cd)
            if not self.heaps[host] and host not in self.runs:
                del self.heaps[host]
        self.counters["popped"] += len(out)
        return out

    def push_back(self, items: list[tuple[int, str, str]]) -> None:
        """Reinsert candidates the driver didn't schedule this wave —
        no seen-check (they are already seen)."""
        for w, url, host in items:
            heapq.heappush(self.heaps[host], (int(w), url))
            self._maybe_spill(host)
        self.counters["pushed_back"] += len(items)

    def step(self, wave: int, per_host: int, plan: tuple[str, object]
             ) -> tuple[list[tuple[int, str, str]], int, int | None]:
        """One wave's frontier round trip: pop exactly as
        ``pop_candidates`` (cooldowns and counters included, even when
        the plan selects nothing), push back locally what ``plan``
        cannot select, and return ``(selectable, popped, queued)``.
        ``queued`` is the queue size when nothing was popped (the
        driver's stop rule), else None."""
        popped = self.pop_candidates(wave, per_host)
        keep, rest = split_by_plan(plan, popped)
        self.push_back(rest)
        return keep, len(popped), None if popped else self.size()

    def step_ahead(self, wave: int, per_host: int, n: int, seed: int,
                   weights: dict[str, int], wave_size: int, bugs: bool
                   ) -> list[tuple[list, int, int | None]]:
        """``step`` the waves ``wave, wave+1, …`` (at most ``n``), each
        with its ``strategy_plan``, and stop after the first wave with
        selectable rows. Returns the per-wave ``step`` triples. Once
        the queue is empty, stepping changes nothing until new offers
        arrive, so the rest of the window is answered ``([], 0, 0)``.
        Keeps an undo log of the waves run, for ``rollback``."""
        self._undo = []
        out = []
        for w in range(wave, wave + n):
            plan = strategy_plan(wave_rng(seed, w), weights, wave_size, bugs)
            cooldowns = dict(self.host_cooldown_until)
            keep, popped, queued = self.step(w, per_host, plan)
            self._undo.append((w, cooldowns, popped, keep))
            out.append((keep, popped, queued))
            if keep:
                break
            if queued == 0:
                out.extend([([], 0, 0)] * (wave + n - 1 - w))
                break
        return out

    def rollback(self, wave: int) -> None:
        """Undo the waves after ``wave`` that the last ``step_ahead``
        ran: push back the rows they returned, and restore the cooldowns
        and the ``popped`` and ``pushed_back`` counters. Each host then
        queues the same rows as if those waves had never been stepped,
        so the pop order that follows is the same. Not undone: which of
        a host's rows sit in spilled runs rather than in its heap, and
        the ``spilled`` and ``spill_merges`` counters, which count the
        spill I/O the shard did, rolled-back waves included; pop order
        does not depend on either."""
        while self._undo and self._undo[-1][0] > wave:
            _, cooldowns, popped, keep = self._undo.pop()
            self.host_cooldown_until = cooldowns
            self.push_back(keep)
            self.counters["popped"] -= popped
            # the wave's own push-back plus the one just above
            self.counters["pushed_back"] -= popped

    # --- introspection / checkpoint ---

    def ping(self) -> bool:
        """Liveness probe (actor-loss recovery, pipelines/crawl.py)."""
        return True

    def size(self) -> int:
        return sum(len(h) for h in self.heaps.values()) + sum(
            r[1] for rs in self.runs.values() for r in rs
        )

    def seen_items(self) -> list[int]:
        """All 64-bit ids in the seen set (exact mode only) — the
        engine side of the URL-seen set-equality invariant."""
        if self.seen.kind != "exact":
            raise TypeError("seen_items() requires seen_mode='exact'")
        return sorted(self.seen._s)

    def stats(self) -> dict:
        # max_host_queue is the mega-host skew signal: at 10^10 scale a
        # hot host's queue is split into (host, bucket) sub-shards with
        # a host-global budget actor (SURVEY.md §4 "skew"); in-sandbox
        # the per-wave budget already bounds its wave contribution, so
        # we surface the skew metric rather than splitting.
        run_counts = {
            h: sum(r[1] for r in rs) for h, rs in self.runs.items()
        }
        max_q = max(
            (len(h) + run_counts.get(host, 0)
             for host, h in self.heaps.items()),
            default=0,
        )
        return dict(self.counters, queued=self.size(), hosts=len(self.heaps),
                    max_host_queue=max_q)

    def checkpoint(self) -> bytes:
        """Serialized full shard state: heaps + seen-set + robots +
        cooldowns + counters (the per-partition checkpoint of the north
        rule; written per wave by the pipeline)."""
        return pickle.dumps(
            {
                "shard_id": self.shard_id,
                "seen": self.seen.state(),
                "heaps": {h: list(q) for h, q in self.heaps.items()},
                # spilled runs are INLINED into the checkpoint blob here;
                # a real deployment snapshots the immutable run files
                # (hard links) instead of reading them back
                "runs": {
                    h: [self._read_run(r[2]) for r in rs]
                    for h, rs in self.runs.items()
                },
                "host_queue_cap": self.host_queue_cap,
                "robots": {h: r.state() for h, r in self.robots.items()},
                "cooldown": dict(self.host_cooldown_until),
                "counters": dict(self.counters),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _read_run(self, path: str) -> list:
        with open(path, "rb") as f:
            return pickle.load(f)

    def restore(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        self.shard_id = st["shard_id"]
        self.seen = restore_seen_set(st["seen"])
        self.heaps = defaultdict(list)
        for h, q in st["heaps"].items():
            heap = [tuple(it) for it in q]
            heapq.heapify(heap)
            self.heaps[h] = heap
        self.host_queue_cap = int(st.get("host_queue_cap", 0))
        self.runs = defaultdict(list)
        for h, run_lists in st.get("runs", {}).items():
            for items in run_lists:
                items = [tuple(it) for it in items]
                path = self._spill_path()
                with open(path, "wb") as f:
                    pickle.dump(items, f, protocol=pickle.HIGHEST_PROTOCOL)
                self.runs[h].append([items[0], len(items), path])
        self.robots = {h: RobotsRules.from_state(r) for h, r in st["robots"].items()}
        self.host_cooldown_until = dict(st["cooldown"])
        self.counters = dict(st["counters"])
