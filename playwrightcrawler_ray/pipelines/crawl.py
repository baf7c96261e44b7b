"""The crawl wave driver: frontier actors + one plain Ray task per wave
chunk, with per-wave checkpoints.

Replaces the reference's process loop (`main`/`crawler`,
playwrightcrawler.py:5345-5414): instead of N lock-coordinated OS
processes polling Elasticsearch, one logical job passes each wave
through the barriers of ``CrawlEngine.run``, in order:

    _select: take the wave's merged selectable rows from the sharded
      frontier actors (each pops, keeps back what the wave's strategy
      plan cannot select, returns the rest; the shards run empty
      waves ahead, so the driver makes one frontier round trip per
      non-empty wave), run the strategy on them, push back what it left
    → _run_chunks: fetch → parse(+offer links) → imgfetch →
      decode(+dedup claims) → write, one parquet file per chunk under
      ``wave=K``; a chunk task awaits its link offers after its write
    → _send_ahead (waits for nothing): the frontier snapshot when the
      wave checkpoints, then the next wave's ``step_ahead``, so both
      overlap the commit
    → _commit: the dedup shards commit the wave's claims; conflict
      losers are tombstoned
    → _log_order: the wave's URLs to an immutable order log
    → _checkpoint: the dedup snapshot; both fleets' blobs are written
      out in the background

Within a wave the chunk tasks run in parallel, at most ``4 × cluster
CPUs`` in flight; each runs the fused chain of pyarrow batch functions
(stages/ray_stages.py). Across waves the actors carry state.
Determinism: shard pops are deterministic, the driver merge-sorts
candidates by ``(wave, url)``, and strategy sampling is seeded — so
crawl *ordering* is reproducible and verified against the sequential
oracle (tests/test_crawl_golden.py). The seeded rng fixes the wave's
strategy before any candidate is seen, so the shards can drop what it
cannot select (``strategy_plan``) and the strategy still selects
exactly what it would from the whole merged pop.

Scale notes (100 TB / 10^10 URLs):
- frontier shards scale horizontally (``hash(host) % num_shards``); a
  shard's ``step`` ships only the rows the strategy may select (none
  in a ghost or unmatched ``host_prefix`` wave, a shard's top
  ``wave_size`` for ``oldest``). Each shard runs the coming waves ahead
  (``step_ahead``) until its first wave with selectable rows, so a
  non-empty wave costs one RPC per shard and the empty waves before it
  none of their own, plus a push-back RPC when the strategy leaves
  some of the selectable rows. A shard that ran past the fleet's first
  non-empty wave rolls back the waves it ran beyond it: at most 64
  steps per window, paid on the shard, not in round trips. Unless
  pinned, the frontier and dedup fleets hold one shard per
  ``CPUS_PER_SHARD`` cluster CPUs — on a small box the actors idle and
  the per-wave RPC fan-out is pure overhead;
- the corpus fetch client gives way to the HTTP one
  (``fetch_backend="http"``; same ``lookup`` contract, no stage
  change);
- parquet output is partitioned per wave (resume skips completed
  waves); Lance is the intended table format on a real deployment —
  parquet-per-wave keeps the same append/versioned layout contract;
- politeness is enforced at pop time, so fetch tasks need no cross-task
  coordination; mega-host skew is bounded by ``per_host_per_wave`` at
  pop time and by ``host_queue_cap`` in memory (sorted-run disk spill
  on the owning shard, state/frontier.py).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

import pyarrow as pa

import ray
import ray.data

from ..config import SEEN_CAPACITY, CrawlConfig
from ..corpus.generate import CorpusData
from ..state.dedup import DedupShard
from ..state.frontier import FrontierShard
from ..stages.process import ProcessContext, offers_for
from ..stages.ray_stages import (
    FetchBackend,
    make_decode_fn,
    make_fetch_fn,
    make_imgfetch_fn,
    make_parse_fn,
    offers_settled,
    route,
    stage_chain,
)
from ..urlkit.canonicalize import canonicalize_url
from .strategy import apply_strategy, choose_strategy, wave_rng

# cluster CPUs per frontier shard and per dedup shard when the config
# leaves the counts at 0 (derive)
CPUS_PER_SHARD = 16
# the wave loop stops after this many empty waves in a row
MAX_EMPTY_STREAK = 64


@ray.remote
def _wave_chunk_task(fns_box: list, tbl: pa.Table, path: str) -> int:
    """One wave chunk through the fused stage chain (fetch → parse →
    imgfetch → decode), written as one parquet file, so no output
    crosses the object store. ``fns_box`` is ``[ref]`` of the stage
    chain (one ``ray.put`` per build): nested, so Ray passes the ref
    instead of resolving and unpickling it for every task, and the
    worker process takes the closures from its own cache. A retry
    rewrites the same file, and dedup re-claims are keyed, so the task
    is idempotent. Parse's frontier offers are awaited once, after the
    write (``offers_settled``), so they overlap imgfetch, decode and the
    write. A failed offer fails the task, so the task returns only once
    every link row is durable and offered."""
    import pyarrow.parquet as pq

    fetch_fn, parse_fn, imgfetch_fn, decode_fn = stage_chain(fns_box[0])
    with offers_settled():
        out = decode_fn(imgfetch_fn(parse_fn(fetch_fn(tbl))))
        pq.write_table(out, path)
    return out.num_rows


@dataclass
class CrawlResult:
    """Crawl outcome. The crawl ORDER is not held in driver memory —
    each wave appends its selected URLs to an immutable per-wave log
    under ``<output_dir>/order/`` (driver memory stays O(waves), not
    O(pages); VERDICT round 1 item 5). ``order`` reads those logs back
    on demand (tests / small runs only — at 10^10 URLs consume the log
    files directly)."""

    waves: int = 0
    output_dir: str = ""
    stats: dict = field(default_factory=dict)
    wave_log: list[dict] = field(default_factory=list)
    order_files: list[str] = field(default_factory=list)

    @property
    def order(self) -> list[str]:
        out: list[str] = []
        for path in self.order_files:
            with open(path) as f:
                out.extend(line.rstrip("\n") for line in f)
        return out

    def seen_ids(self) -> set[int]:
        return set(self.stats.get("seen_ids", []))


@dataclass
class _RunState:
    """What the wave loop carries from wave to wave. ``_init_run_state``
    builds it at the start of a run and after actor-loss recovery, so
    the frontier answers buffered for coming waves, the pending
    rollbacks and the RPCs sent ahead start empty with every fresh
    fleet."""

    start_wave: int = 0
    wave: int = 0
    wave_log: list[dict] = field(default_factory=list)
    order_files: list[str] = field(default_factory=list)
    pages_fetched: int = 0
    empty_streak: int = 0
    limit: int = 0
    # wave -> merged (candidates, queued) the frontier already answered
    ahead: dict[int, tuple[list, int | None]] = field(default_factory=dict)
    rollbacks: list = field(default_factory=list)  # refs not yet awaited
    # sent ahead of the wave's dedup commit (``_send_ahead``): the next
    # wave's step_ahead refs and the frontier's checkpoint refs
    stepping: list = field(default_factory=list)
    frontier_blobs: list = field(default_factory=list)

    def add_wave(self, order_file: str, record: dict) -> None:
        self.wave_log.append(record)
        self.order_files.append(order_file)
        self.pages_fetched += record["urls"]

    def advance(self, selected: bool) -> bool:
        """Step to the next wave; False once more than
        ``MAX_EMPTY_STREAK`` waves in a row were empty."""
        self.wave += 1
        self.empty_streak = 0 if selected else self.empty_streak + 1
        return self.empty_streak <= MAX_EMPTY_STREAK

    def window(self) -> int:
        """Waves the frontier may run from ``wave`` if every one is
        empty: no further than ``limit`` and the empty-streak stop."""
        return min(self.limit - self.wave,
                   MAX_EMPTY_STREAK + 1 - self.empty_streak)

    def next_window(self) -> int:
        """``window`` as it reads once a selected wave advances."""
        return min(self.limit - self.wave - 1, MAX_EMPTY_STREAK + 1)


class CrawlEngine:
    """Owns the actor fleet and the wave loop. Ray must already be
    initialised by the caller (driver contract)."""

    def __init__(self, corpus: CorpusData, cfg: CrawlConfig | None = None,
                 seen_mode: str = "exact"):
        self.cfg = cfg = cfg or CrawlConfig()
        if cfg.fetch_backend not in ("corpus", "http"):
            raise ValueError("fetch_backend must be 'corpus' or 'http', "
                             f"not {cfg.fetch_backend!r}")
        if cfg.fetch_backend == "http" and not cfg.http_addr:
            raise ValueError('fetch_backend="http" needs an http_addr')
        self.corpus = corpus
        self.seen_mode = seen_mode
        self._RemoteShard = ray.remote(num_cpus=0)(FrontierShard)
        self._RemoteDedup = ray.remote(num_cpus=0)(DedupShard)
        # read once: sizes the shard fleets here and every wave's chunks
        self.ncpu = max(1, int(ray.cluster_resources().get("CPU", 1)))
        derived = -(-self.ncpu // CPUS_PER_SHARD)
        self._spawn_fleet(self.cfg.num_frontier_shards or derived,
                          self.cfg.num_seen_shards or derived)
        self.actor_recoveries = 0
        self._inflight: list = []  # submitted, unfinished chunk refs
        self._spans: dict[str, tuple[float, float]] = {}  # by _barrier
        from ..corpus.store import put_corpus_index

        # the corpus index is put once per engine, so a worker's fetch
        # client (keyed by the ref) never serves another crawl's faults
        self.backend = FetchBackend(
            cfg.http_addr if cfg.fetch_backend == "http"
            else put_corpus_index(corpus, latency=cfg.simulate_latency),
            cfg.fetch_retries, cfg.fetch_backoff_base_s, cfg.range_resume)
        self._pctx = ProcessContext(self.cfg)
        self._seed_robots()

    def _spawn_fleet(self, n_frontier: int, n_dedup: int) -> None:
        self.shards = [self._make_frontier(i, n_frontier)
                       for i in range(n_frontier)]
        self.dedup = [self._make_dedup(i, n_dedup) for i in range(n_dedup)]

    def _make_frontier(self, i: int, n: int):
        # filter capacities are fleet totals split evenly, so the
        # false-positive budget does not depend on the shard count
        spill_root = os.path.join(self.cfg.output_dir, "spill")
        return self._RemoteShard.remote(
            i, self.seen_mode,
            seen_capacity=SEEN_CAPACITY // n,
            host_queue_cap=self.cfg.host_queue_cap,
            spill_dir=os.path.join(spill_root, f"shard_{i:03d}"),
        )

    def _make_dedup(self, i: int, n: int):
        return self._RemoteDedup.remote(
            i, self.cfg.image_seen_mode,
            capacity=self.cfg.image_seen_capacity // n,
        )

    def _seed_robots(self) -> None:
        # robots preload: "fetched once per host through the corpus
        # interface", cached on the owning shard (north-rule robots cache)
        route(self.shards, "set_robots", self.corpus.robots.items(), 0,
              ray.get)

    # --- actor-loss recovery (VERDICT r4 item 5) ---

    def _alive(self, actor) -> bool:
        try:
            ray.get(actor.ping.remote())
            return True
        except ray.exceptions.RayActorError:
            return False

    def _recover_from_actor_loss(self) -> bool:
        """On a real multi-node cluster shard-actor loss (node death,
        OOM kill) is routine. Recreate every dead frontier/dedup shard
        and rewind the WHOLE fleet to the last published per-wave
        checkpoint — live shards hold mid-wave state ahead of the
        barrier, and mixing barrier states across shards would be
        inconsistent. The caller then replays from the checkpoint wave
        (the wave loop is deterministic, so the replay reproduces the
        uninterrupted run exactly). Returns False when no actor is
        actually dead — the failure was something else; re-raise it."""
        fleet = (*self.shards, *self.dedup)
        alive = [self._alive(a) for a in fleet]
        if all(alive):
            return False
        # the background checkpoint thread may hold blob refs owned by
        # a dead actor — join and swallow; we rewind past it anyway
        try:
            self._join_checkpoint()
        except BaseException:
            pass
        # Recreate the WHOLE fleet as fresh actor instances — dead AND
        # surviving shards. Sibling chunk tasks of the failed wave may
        # still be running (the caller cancels them, but cancellation
        # is best-effort): their in-band dedup claims / frontier offers
        # must land on KILLED handles and fail harmlessly rather than
        # mutate the restored state of a surviving shard mid-rewind.
        for a, ok in zip(fleet, alive):
            if ok:
                ray.kill(a, no_restart=True)
        self._spawn_fleet(len(self.shards), len(self.dedup))
        # (with no published checkpoint the caller's _init_run_state
        # finds nothing to restore and restarts from seeds — correct
        # for death before the first barrier, since the fleet is fresh)
        self._seed_robots()  # fresh shards need rules; restore overwrites
        self.actor_recoveries += alive.count(False)
        return True

    # --- frontier plumbing ---

    def _pop_merged(
        self, wave: int
    ) -> tuple[list[tuple[int, str, str]], int | None]:
        """The wave's merged selectable candidates and, when no shard
        popped anything, the fleet's queue size (else None), served from
        the answers the last ``step_ahead`` round trip buffered. When the
        buffer has none for ``wave``: one ``step_ahead`` RPC per shard,
        each stepping waves ``wave`` on (at most ``st.window()``) until
        its first wave with selectable rows — sent here, or already
        during the previous wave's commit (``_send_ahead``). The fleet
        has then answered every wave up to ``w*``, the earliest wave at
        which a shard stopped, as one ``step`` RPC per shard per wave
        would have. Shards that ran past ``w*`` roll those waves back
        before their next message (same-caller actor order); the
        rollbacks are awaited with the next reply."""
        st = self._st
        if wave not in st.ahead:
            refs = st.stepping or self._step_ahead(wave, st.window())
            st.stepping = []
            replies = ray.get(st.rollbacks + refs)[len(st.rollbacks):]
            self.frontier_round_trips += 1
            n = min(len(r) for r in replies)  # waves wave..w*
            st.rollbacks = [s.rollback.remote(wave + n - 1) for s, r in
                            zip(self.shards, replies) if len(r) > n]
            for i in range(n):
                parts = [r[i] for r in replies]
                st.ahead[wave + i] = (
                    sorted(chain.from_iterable(p[0] for p in parts)),
                    None if any(p[1] for p in parts)
                    else sum(p[2] for p in parts))
        return st.ahead.pop(wave)

    def _step_ahead(self, wave: int, window: int) -> list:
        """Send every shard ``step_ahead`` from ``wave``, at most
        ``window`` waves; returns the reply refs."""
        cfg = self.cfg
        return [s.step_ahead.remote(
                    wave, cfg.per_host_per_wave, window, cfg.seed,
                    cfg.method_weights, cfg.wave_size,
                    cfg.reproduce_reference_bugs)
                for s in self.shards]

    def _push_back(self, leftover: list[tuple[int, str, str]]) -> None:
        route(self.shards, "push_back", leftover, 2, ray.get)

    # --- checkpointing (per-partition: one blob per shard per wave) ---

    def _checkpoint(self, wave: int, wave_log: list[dict]) -> None:
        """Per-wave checkpoint. The frontier snapshot RPCs were sent
        after the wave's chunks, before its commit (``_send_ahead``),
        the dedup ones are sent HERE, after the commit. Each frontier
        shard serializes its state before it processes the driver's
        next ``step_ahead`` (same-caller actor message order), and wave
        K+1's worker-side offers can only start after every step
        returns, so the snapshot is exactly the wave-K barrier state
        regardless of publication timing. Only the blob await + file
        writes move to a background thread (at most one in flight;
        joined before the next checkpoint and at run end), keeping
        seconds of serialized file IO off the wave critical path — the
        barrier cost the 4v16 decomposition
        (BENCH_scaling_r3_4v16_decomp) flagged."""
        blob_refs, self._st.frontier_blobs = self._st.frontier_blobs, []
        dblob_refs = [d.checkpoint.remote() for d in self.dedup]
        snapshot = [dict(e) for e in wave_log]
        self._join_checkpoint()

        def _worker():
            try:
                self._publish_checkpoint(wave, snapshot, blob_refs, dblob_refs)
            except BaseException as e:  # surfaced at the next join
                self._ck_err = e

        self._ck_thread = threading.Thread(target=_worker, daemon=True)
        self._ck_thread.start()

    def _join_checkpoint(self) -> None:
        t = getattr(self, "_ck_thread", None)
        if t is not None:
            t.join()
            self._ck_thread = None
        err = getattr(self, "_ck_err", None)
        if err is not None:
            self._ck_err = None
            raise err

    def _publish_checkpoint(self, wave: int, wave_log: list[dict],
                            blob_refs, dblob_refs) -> None:
        ckdir = os.path.join(self.cfg.output_dir, "checkpoints", f"wave={wave:05d}")
        tmp = ckdir + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        for i, blob in enumerate(ray.get(blob_refs)):
            with open(os.path.join(tmp, f"frontier_{i:03d}.bin"), "wb") as f:
                f.write(blob)
        for i, blob in enumerate(ray.get(dblob_refs)):
            with open(os.path.join(tmp, f"dedup_{i:03d}.bin"), "wb") as f:
                f.write(blob)
        # meta carries only O(waves) state; the crawl order lives in the
        # immutable per-wave logs under <output_dir>/order/
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump({"wave": wave, "wave_log": wave_log,
                       "frontier_shards": len(blob_refs),
                       "dedup_shards": len(dblob_refs)}, f)
        if os.path.exists(ckdir):
            shutil.rmtree(ckdir)
        os.rename(tmp, ckdir)  # atomic publish
        retain = self.cfg.checkpoint_retain
        if retain > 0:
            root = os.path.join(self.cfg.output_dir, "checkpoints")
            old = sorted(d for d in os.listdir(root)
                         if d.startswith("wave=") and not d.endswith(".tmp"))
            for d in old[:-retain]:
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)

    def restore_latest_checkpoint(self) -> dict | None:
        root = os.path.join(self.cfg.output_dir, "checkpoints")
        if not os.path.isdir(root):
            return None
        # a crash can leave a half-written `.tmp` staging dir behind —
        # only atomically-published checkpoints are restore candidates
        waves = sorted(d for d in os.listdir(root)
                       if d.startswith("wave=") and not d.endswith(".tmp"))
        if not waves:
            return None
        ckdir = os.path.join(root, waves[-1])
        with open(os.path.join(ckdir, "meta.json")) as f:
            meta = json.load(f)
        # a shard's seen set cannot be re-sharded (ids do not record
        # their host), so the fleet takes the checkpoint's shape — which
        # differs from ours after a pin change or on another cluster.
        # Checkpoints without the counts in meta have one file per shard.
        n_frontier = meta.get("frontier_shards") or len(
            glob.glob(os.path.join(ckdir, "frontier_*.bin")))
        n_dedup = meta.get("dedup_shards") or len(
            glob.glob(os.path.join(ckdir, "dedup_*.bin")))
        if (n_frontier, n_dedup) != (len(self.shards), len(self.dedup)):
            for a in (*self.shards, *self.dedup):
                ray.kill(a, no_restart=True)
            self._spawn_fleet(n_frontier, n_dedup)
        futs = []
        for kind, fleet in (("frontier", self.shards), ("dedup", self.dedup)):
            for i, a in enumerate(fleet):
                with open(os.path.join(ckdir, f"{kind}_{i:03d}.bin"), "rb") as f:
                    futs.append(a.restore.remote(f.read()))
        ray.get(futs)
        return meta

    # --- the wave loop ---

    def _init_run_state(self, resume: bool, limit: int) -> _RunState:
        """Shared by resume-at-start and mid-run actor-loss recovery.
        With ``resume`` the shard fleet is restored from the last
        published checkpoint and outputs beyond it are cleared for
        replay; with no checkpoint (or ``resume=False``) the run starts
        from seeds. Puts the stage closures, which hold the fleet's
        handles. The new state runs to wave ``limit``."""
        cfg = self.cfg
        order_dir = os.path.join(cfg.output_dir, "order")
        os.makedirs(order_dir, exist_ok=True)
        meta = self.restore_latest_checkpoint() if resume else None
        self._fns_ref = ray.put((make_fetch_fn(self.backend),
                                 make_parse_fn(cfg, self.backend, self.shards),
                                 make_imgfetch_fn(self.backend, self.dedup),
                                 make_decode_fn(cfg, self.dedup)))
        if meta is None:
            shutil.rmtree(order_dir, ignore_errors=True)
            os.makedirs(order_dir, exist_ok=True)
            if not resume:
                # fresh run: stale checkpoints from a previous run in the
                # same output_dir must not survive — mid-run actor-loss
                # recovery picks the HIGHEST checkpoint wave and would
                # silently restore another run's frontier/dedup state
                shutil.rmtree(os.path.join(cfg.output_dir, "checkpoints"),
                              ignore_errors=True)
            seeds = [(*t, 0) for raw in self.corpus.seeds
                     for t in offers_for(self._pctx, canonicalize_url(raw),
                                         False)]
            route(self.shards, "offer", seeds, 2, ray.get)
            return _RunState(limit=limit)
        start = meta["wave"] + 1
        st = _RunState(start, start, list(meta["wave_log"]), limit=limit)
        # wave outputs and order logs beyond the checkpoint are
        # replayed — clear them so nothing can duplicate
        for d in glob.glob(os.path.join(cfg.output_dir, "wave=*")):
            if int(d.rsplit("=", 1)[1]) >= st.start_wave:
                shutil.rmtree(d, ignore_errors=True)
        for p in sorted(glob.glob(os.path.join(order_dir, "wave=*.txt"))):
            if int(os.path.basename(p)[5:10]) >= st.start_wave:
                os.remove(p)
            else:
                st.order_files.append(p)
                with open(p) as f:
                    st.pages_fetched += sum(1 for _ in f)
        return st

    def run(self, resume: bool = False, max_waves: int | None = None,
            collect_seen_ids: bool = False) -> CrawlResult:
        """The wave loop: each wave passes its barriers in order, each
        through ``_barrier``; actor loss rewinds to the last checkpoint."""
        limit = max_waves if max_waves is not None else self.cfg.max_waves
        self.frontier_round_trips = 0  # blocking step_ahead round trips
        self._st = st = self._init_run_state(resume, limit)
        recoveries = 0
        t0 = time.perf_counter()
        while st.wave < limit:
            wave = st.wave
            try:
                picked = self._barrier("select", self._select, wave)
                if picked is None:  # every shard's queue is empty
                    break
                strategy, selected = picked
                if selected:
                    wave_dir = self._barrier("chunks", self._run_chunks,
                                             wave, selected)
                    checkpoint = wave % self.cfg.checkpoint_every == 0
                    self._send_ahead(wave, checkpoint)
                    conflicts = self._barrier("commit", self._commit, wave_dir)
                    opath = self._barrier("log_order", self._log_order, wave,
                                          [u for _, u, _ in selected])
                    st.add_wave(opath, self._wave_record(
                        wave, strategy, len(selected), conflicts))
                    if checkpoint:
                        self._barrier("checkpoint", self._checkpoint,
                                      wave, st.wave_log)
                if not st.advance(bool(selected)):
                    break
            except Exception:
                # actor-loss recovery (VERDICT r4 item 5): a dead shard
                # surfaces as RayActorError, from a driver RPC or inside
                # a chunk task. If the probe finds no dead shard, this
                # was a different failure — re-raise.
                self._cancel_chunks()
                if recoveries >= 3 or not self._recover_from_actor_loss():
                    raise
                recoveries += 1
                self._st = st = self._init_run_state(True, limit)
        ray.get(st.rollbacks)  # surface a failed rollback
        self._join_checkpoint()  # final checkpoint durable before return
        return self._result(st, time.perf_counter() - t0, collect_seen_ids)

    # --- the barriers, in wave order ---

    def _barrier(self, name: str, fn, *args):
        """Run one barrier of the wave loop and keep its (start, end)
        ``perf_counter`` times under ``name`` — the loop's one clock."""
        t = time.perf_counter()
        out = fn(*args)
        self._spans[name] = (t, time.perf_counter())
        return out

    def _select(self, wave: int) -> tuple[str | None, list] | None:
        """Take the wave's merged candidates from the frontier (one
        ``_pop_merged`` per wave index, which makes an RPC only when its
        buffer holds no answer for the wave), run the wave's strategy
        on them and push back what it leaves. Returns ``(strategy,
        selected)`` (nothing selected for an empty wave), or None once
        every shard's queue is empty."""
        cfg = self.cfg
        candidates, queued = self._pop_merged(wave)
        if queued is not None:  # no shard popped anything
            return None if queued == 0 else (None, [])
        rng = wave_rng(cfg.seed, wave)
        strategy = choose_strategy(rng, cfg.method_weights)
        selected, leftover = apply_strategy(strategy, candidates, cfg.wave_size,
                                            rng, cfg.reproduce_reference_bugs)
        self._push_back(leftover)
        return strategy, selected

    def _run_chunks(self, wave: int, selected: list[tuple[int, str, str]]) -> str:
        """Run the wave's chunk tasks, at most ``4 × cluster CPUs`` in
        flight, and return the wave's output dir once all are done. The
        parse stage sends the link offers and each chunk task awaits
        them after its write; imgfetch and decode await their dedup
        claims. So this barrier means: every link row is durable AND
        offered, every dedup claim staged."""
        _, urls, hosts = zip(*selected)
        tbl = pa.table({
            "url": pa.array(urls, pa.string()),
            "host": pa.array(hosts, pa.string()),
            "wave": pa.array([wave] * len(urls), pa.int32()),
            # lineage ord: position in the wave's selected order
            "ord": pa.array(range(len(urls)), pa.int64()),
        })
        # adaptive chunk size: small waves shrink the chunk so every CPU
        # gets ~4 tasks of slack; large waves cap at wave_batch_size
        bs = min(self.cfg.wave_batch_size,
                 max(32, -(-len(urls) // (self.ncpu * 4))))
        wave_dir = os.path.join(self.cfg.output_dir, f"wave={wave:05d}")
        shutil.rmtree(wave_dir, ignore_errors=True)
        os.makedirs(wave_dir, exist_ok=True)
        for i, start in enumerate(range(0, len(urls), bs)):
            if len(self._inflight) >= 4 * self.ncpu:
                done, self._inflight = ray.wait(self._inflight, num_returns=1)
                ray.get(done)  # surface a failed chunk now
            self._inflight.append(_wave_chunk_task.remote(
                [self._fns_ref], tbl.slice(start, bs),
                os.path.join(wave_dir, f"part-{i:05d}.parquet"),
            ))
        ray.get(self._inflight)
        self._inflight = []
        return wave_dir

    def _send_ahead(self, wave: int, checkpoint: bool) -> None:
        """Send the frontier RPCs that need the wave's offers but not its
        dedup commit, so they overlap the commit: the frontier snapshot
        when the wave ``checkpoint``s, then the next wave's
        ``step_ahead`` unless the buffer already answers it, with the
        window the next wave will have. Same-caller actor order keeps
        the snapshot before the step; ``_checkpoint`` and
        ``_pop_merged`` await the refs."""
        st = self._st
        if checkpoint:
            st.frontier_blobs = [s.checkpoint.remote() for s in self.shards]
        window = st.next_window()
        if window > 0 and wave + 1 not in st.ahead:
            st.stepping = self._step_ahead(wave + 1, window)

    def _cancel_chunks(self) -> None:
        """Cancel + drain the failed wave's chunk tasks, so orphans can't
        stage claims / offers / part files against the state recovery
        rewinds (the recreated fleet fences off any a cancel misses)."""
        for r in self._inflight:
            with suppress(Exception):
                ray.cancel(r, force=True)
        ray.wait(self._inflight, num_returns=len(self._inflight), timeout=10)
        self._inflight = []

    def _commit(self, wave_dir: str) -> int:
        """Commit every dedup shard's staged claims and tombstone the
        conflict losers. Returns the number of conflicted hashes."""
        conflicts = list(chain.from_iterable(
            ray.get([d.commit_wave.remote() for d in self.dedup])))
        if conflicts:
            # rare-ish (stage_many_keyed prunes sure losers): the shards
            # reported every kept claimant's ord, so loser ords are
            # computed locally and go to a tombstone sidecar — no scan,
            # no parquet file rewritten
            full_l, img_l = _loser_ords(conflicts)
            if full_l or img_l:
                _write_tombstones(wave_dir, full_l, img_l)
        return len(conflicts)

    def _log_order(self, wave: int, urls: list[str]) -> str:
        """Append-only order log: one immutable file per wave."""
        opath = os.path.join(self.cfg.output_dir, "order",
                             f"wave={wave:05d}.txt")
        with open(opath + ".tmp", "w") as f:
            f.write("".join(u + "\n" for u in urls))
        os.rename(opath + ".tmp", opath)
        return opath

    def _wave_record(self, wave: int, strategy: str, urls: int,
                     conflicts: int) -> dict:
        """The wave's ``wave_log`` entry: ``sec`` spans chunks through
        order log, ``pipeline_sec`` the chunks, ``fixup_sec`` the commit."""
        (c0, c1), (f0, f1) = self._spans["chunks"], self._spans["commit"]
        return {"wave": wave, "strategy": strategy, "urls": urls,
                "sec": round(self._spans["log_order"][1] - c0, 4),
                "pipeline_sec": round(c1 - c0, 4),
                "fixup_sec": round(f1 - f0, 4), "conflicts": conflicts}

    def _result(self, st: _RunState, elapsed: float,
                collect_seen_ids: bool) -> CrawlResult:
        agg: dict = {}
        for part in ray.get([s.stats.remote() for s in self.shards]):
            for k, v in part.items():
                if k == "max_host_queue":
                    agg[k] = max(agg.get(k, 0), v)
                else:
                    agg[k] = agg.get(k, 0) + v
        ops = agg.get("offered", 0) + agg.get("popped", 0)
        result = CrawlResult(
            waves=st.wave - st.start_wave, output_dir=self.cfg.output_dir,
            wave_log=st.wave_log, order_files=st.order_files,
            stats={
                "elapsed_sec": elapsed,
                "pages_fetched": st.pages_fetched,
                "pages_per_sec": (st.pages_fetched / elapsed
                                  if elapsed > 0 else 0.0),
                "frontier": agg,
                "frontier_ops": ops,
                "frontier_round_trips": self.frontier_round_trips,
                "frontier_ops_per_sec": ops / elapsed if elapsed > 0 else 0.0,
            },
        )
        if collect_seen_ids and self.seen_mode == "exact":
            # test/verification mode ONLY: gathering the full seen set to
            # the driver is O(pages) memory — the golden suite's
            # set-equality check, never the production path
            result.stats["seen_ids"] = set().union(
                *ray.get([s.seen_items.remote() for s in self.shards]))
        return result


def _loser_ords(
    conflicts: list[tuple[int, list[int]]]
) -> tuple[set[int], set[int]]:
    """Resolve multi-claim conflicts to loser ord sets.

    ``conflicts``: per conflicted hash, (namespace, kept claimant ords)
    as reported by the DedupShards — namespace 0 = imgvisit URL claims,
    1 = pixel-hash claims. Winner = minimum ord (the row the sequential
    oracle would have produced first). Rules:

    1. imgvisit losers forfeit their whole claim — content doc AND
       image row (the oracle skips the claim entirely); both rows share
       the claim's ord, so "drop every row with a full-loser ord".
    2. pixel losers forfeit only the image row (the oracle always
       appends the doc) — among claimants still alive after rule 1.
    """
    full_losers: set[int] = set()
    for ns, ords in conflicts:
        if ns == 0:
            w = min(ords)
            full_losers.update(o for o in ords if o != w)
    img_losers: set[int] = set()
    for ns, ords in conflicts:
        if ns == 1:
            alive = [o for o in ords if o not in full_losers]
            if len(alive) >= 2:
                w = min(alive)
                img_losers.update(o for o in alive if o != w)
    return full_losers, img_losers


def _write_tombstones(
    wave_dir: str, full_loser_ords: set[int], img_loser_ords: set[int]
) -> None:
    """Record conflict-loser rows as a per-wave tombstone sidecar
    instead of rewriting parquet files.

    Loser rows are O(conflicts) (~tens per wave) but scatter across
    many block files whose payloads include image bytes — rewriting
    them cost seconds per wave. The sidecar is O(conflicts) bytes,
    written atomically; ``load_unified`` (the single read choke point
    every consumer goes through) applies it as a vectorized filter.
    A re-run of the wave replaces the whole directory, sidecar
    included, so resume semantics are unchanged."""
    payload = {
        "full": sorted(full_loser_ords),
        "img": sorted(img_loser_ords),
    }
    path = os.path.join(wave_dir, "_tombstones.json")
    with open(path + ".tmp", "w") as f:
        json.dump(payload, f)
    os.replace(path + ".tmp", path)


def run_crawl(corpus: CorpusData, cfg: CrawlConfig | None = None,
              seen_mode: str = "exact", resume: bool = False,
              max_waves: int | None = None,
              collect_seen_ids: bool = False) -> CrawlResult:
    engine = CrawlEngine(corpus, cfg, seen_mode)
    return engine.run(resume=resume, max_waves=max_waves,
                      collect_seen_ids=collect_seen_ids)


def load_unified(output_dir: str, columns: list[str] | None = None):
    """Read all wave partitions back as one Dataset, applying each
    wave's conflict-loser tombstones (written by ``_write_tombstones``)
    as a vectorized filter — consumers never see loser rows.

    ``columns`` prunes the read (pass it whenever the consumer doesn't
    need the image ``bytes`` — a full-width read ships MBs of pixels
    per row through the object store for nothing). The tombstone filter
    needs ``wave``/``ord``/``kind`` internally; they're read regardless
    and projected back out before returning."""
    files = sorted(glob.glob(os.path.join(output_dir, "wave=*", "*.parquet")))
    read_cols = None
    if columns is not None:
        read_cols = list(dict.fromkeys([*columns, "wave", "ord", "kind"]))
    ds = ray.data.read_parquet(files, columns=read_cols)
    tombs: dict[int, tuple] = {}
    import numpy as np

    for tpath in glob.glob(os.path.join(output_dir, "wave=*", "_tombstones.json")):
        with open(tpath) as f:
            payload = json.load(f)
        w = int(os.path.basename(os.path.dirname(tpath)).split("=")[1])
        tombs[w] = (
            np.array(payload["full"], dtype=np.int64),
            np.array(payload["img"], dtype=np.int64),
        )
    if not tombs:
        if columns is not None:
            return ds.map_batches(
                lambda t: t.select(columns), batch_format="pyarrow"
            )
        return ds
    t_ref = ray.put(tombs)

    def drop_tombstoned(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tb = ray.get(t_ref)
        waves = pc.fill_null(t.column("wave"), -1).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ords = pc.fill_null(t.column("ord"), -1).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        mask = np.zeros(len(ords), dtype=bool)
        is_image = None
        for w in np.unique(waves):
            ent = tb.get(int(w))
            if ent is None:
                continue
            fl, il = ent
            inw = waves == w
            mask |= inw & np.isin(ords, fl)
            if len(il):
                if is_image is None:
                    is_image = pc.fill_null(
                        pc.equal(t.column("kind"), "image"), False
                    ).to_numpy(zero_copy_only=False)
                mask |= inw & np.isin(ords, il) & is_image
        if mask.any():
            t = t.filter(pa.array(~mask))
        if columns is not None:
            t = t.select(columns)
        return t

    return ds.map_batches(drop_tombstoned, batch_format="pyarrow")


def load_images(output_dir: str):
    """The images table (BASELINE.json input_hint projection) from a
    crawl output dir — column-pruned at the read."""
    from ..core.schemas import IMAGES_COLUMNS

    ds = load_unified(output_dir)
    import pyarrow.compute as pc

    return ds.map_batches(
        lambda t: t.filter(pc.equal(t.column("kind"), "image")).select(
            IMAGES_COLUMNS
        ),
        batch_format="pyarrow",
    )


def consolidate_images(output_dir: str, dest: str | None = None) -> str:
    """Write the final standalone images table (exactly the input_hint
    schema) to ``<output_dir>/images/`` — the artifact a downstream
    training pipeline consumes without knowing about waves. Streaming:
    one pruned pass over the wave partitions."""
    dest = dest or os.path.join(output_dir, "images")
    shutil.rmtree(dest, ignore_errors=True)
    load_images(output_dir).write_parquet(dest)
    return dest
