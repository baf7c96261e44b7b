"""Sharded exact-dedup service (pixel-hash + subresource-URL seen set).

The reference collapses identical images by writing them to one
pixel-hash-named file (playwrightcrawler.py:3858). Here the decode
stage asks a pool of ``DedupShard`` actors per batch of 64-bit hashes —
one RPC per shard per batch, global across waves, no shuffle in the
image hot path (SURVEY.md §2.7 D4). Shard routing is
``hash % num_shards`` on the hash itself.

Two-phase wave protocol (deterministic winners): within a wave, tasks
call ``stage_many_keyed`` which answers "was this hash seen in any
PRIOR wave?" and records the claim with the row's ``ord`` lineage key —
a claimant at or above the smallest ord claimed so far is a sure loser
and is dropped immediately (skipping its fetch/decode work), while a
smaller-ord claimant is kept even though a larger-ord row is already in
flight, so parallel-batch RPC arrival order never decides the surviving
row. At the wave's write barrier the driver calls ``commit_wave``,
which folds the claims into the persistent set and returns the kept
claimant ords of every multi-claim hash; the driver resolves winners by
minimum ord and records the losers in the wave's ``_tombstones.json``
sidecar (pipelines/crawl.py) — no data scan, and no file is rewritten.
"""

from __future__ import annotations

import pickle

from .approxset import make_seen_set, restore_seen_set


class DedupShard:
    def __init__(self, shard_id: int = 0, mode: str = "exact",
                 capacity: int = 1 << 16):
        self.shard_id = shard_id
        self.seen = make_seen_set(mode, capacity)
        # in-wave claims: hash -> (namespace, strictly-decreasing list of
        # KEPT claimant ords); folded into `seen` at commit_wave
        self.pending: dict[int, tuple[int, list[int]]] = {}

    def ping(self) -> bool:
        """Liveness probe (actor-loss recovery, pipelines/crawl.py)."""
        return True

    def stage_many_keyed(
        self, pairs: list[tuple[int, int]], ns: int = 0
    ) -> list[bool]:
        """Wave-scoped claim keyed by the row's ``ord`` lineage value,
        tagged with a caller namespace (0 = imgvisit URL claims, 1 =
        pixel-hash claims). Returns keep-flags: False for hashes seen
        in a PRIOR wave and for claimants whose ord is not below the
        smallest ord claimed so far this wave (they can never be the
        deterministic winner, so their fetch/decode work is skipped
        immediately). A claimant with a smaller ord than the current
        minimum must be kept — the earlier-arriving larger-ord row is
        already in flight; commit_wave reports every kept claimant so
        the driver can drop the losers."""
        out = []
        for h, o in pairs:
            h, o = int(h), int(o)
            if h in self.seen:
                out.append(False)
                continue
            ent = self.pending.get(h)
            if ent is not None and o in ent[1]:
                # idempotent re-stage: a retried Ray task re-claims an
                # ord already kept this wave — the original task's
                # output was lost (that's why it retried), so the row
                # must be kept again, not dropped as a "sure loser"
                out.append(True)
                continue
            if ent is not None and o >= ent[1][-1]:
                out.append(False)  # sure loser: a smaller ord already claimed
                continue
            if ent is None:
                self.pending[h] = (ns, [o])
            else:
                ent[1].append(o)  # strictly decreasing kept-ord list
            out.append(True)
        return out

    def commit_wave(self) -> list[tuple[int, list[int]]]:
        """Fold this wave's claims into the persistent set; return, for
        every hash with ≥2 KEPT claimants new this wave, its namespace
        tag and the kept claimant ords (the driver resolves winners by
        minimum ord — no data scan needed)."""
        conflicts = [
            (ns, list(ords))
            for h, (ns, ords) in self.pending.items()
            if len(ords) >= 2 and h not in self.seen
        ]
        for h in self.pending:
            self.seen.add_if_absent(h)
        self.pending.clear()
        return conflicts

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return len(self.seen)

    def checkpoint(self) -> bytes:
        # called at the wave barrier, after commit_wave → pending empty
        return pickle.dumps(
            {"shard_id": self.shard_id, "seen": self.seen.state()},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        self.shard_id = st["shard_id"]
        self.seen = restore_seen_set(st["seen"])
        self.pending = {}
