"""URL-seen membership structures: cuckoo filter (primary scale path),
bloom filter (cold-shard fallback), exact set (test/verification mode).

The reference's URL-seen mechanism is exact — Elasticsearch upserts
keyed ``_id = sha256(url)`` (playwrightcrawler.py:1431-1456, 1611-1651).
A cuckoo filter's false positives would *drop* URLs, so the engine's
default is ``exact`` (set-equality with the oracle is a hard
invariant, SURVEY.md §7.4 item 2); ``cuckoo``/``bloom`` are the
documented 10^10-scale paths whose FP budget is sized here and whose
no-false-negative property is tested.

All structures share one API over 64-bit item hashes (``url_id_64``):

- ``add_if_absent(h) -> bool``  (True = newly added)
- ``__contains__``
- ``state() / from_state()``   (checkpointable)

Cuckoo filter: 4-slot buckets, 16-bit fingerprints, partial-key cuckoo
hashing (Fan et al., "Cuckoo Filter: Practically Better Than Bloom",
CoNEXT 2014): alternate bucket = i ^ hash(fp). Kicked-out items that
exceed the eviction budget go to an exact overflow set, preserving
no-false-negatives under load. At 16-bit fingerprints / 4-slot buckets
the theoretical FP rate ≈ 8/2^16 ≈ 1.2e-4; at 10^10 URLs and ~2^31
buckets per 256-shard deployment that is ~1.2e6 expected false drops —
why exact mode (or cuckoo + per-shard exact spill) is the correctness
configuration.
"""

from __future__ import annotations

import numpy as np

_FP_BITS = 16
_SLOTS = 4
_MAX_KICKS = 500


class ExactSet:
    """Plain exact set of 64-bit hashes."""

    kind = "exact"

    def __init__(self, capacity: int = 0):
        self._s: set[int] = set()

    def add_if_absent(self, h: int) -> bool:
        if h in self._s:
            return False
        self._s.add(h)
        return True

    def __contains__(self, h: int) -> bool:
        return h in self._s

    def __len__(self) -> int:
        return len(self._s)

    def state(self) -> dict:
        return {"kind": self.kind, "items": np.fromiter(self._s, dtype=np.uint64)}

    @classmethod
    def from_state(cls, st: dict) -> "ExactSet":
        out = cls()
        out._s = set(int(x) for x in st["items"])
        return out


class CuckooFilter:
    kind = "cuckoo"

    def __init__(self, capacity: int = 1 << 16, seed: int = 0x9E3779B9):
        nbuckets = max(8, 1 << int(np.ceil(np.log2(max(1, capacity // _SLOTS)))))
        self._nb = nbuckets
        self._table = np.zeros((nbuckets, _SLOTS), dtype=np.uint16)
        self._overflow: set[int] = set()
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._count = 0

    def _fp_index(self, h: int) -> tuple[int, int]:
        fp = (h >> 48) & 0xFFFF
        if fp == 0:
            fp = 1
        i1 = h & (self._nb - 1)
        return fp, i1

    def _alt_index(self, i: int, fp: int) -> int:
        # partial-key hashing: i ^ H(fp)
        return (i ^ (fp * 0x5BD1E995)) & (self._nb - 1)

    def __contains__(self, h: int) -> bool:
        h = int(h)
        fp, i1 = self._fp_index(h)
        if (self._table[i1] == fp).any():
            return True
        i2 = self._alt_index(i1, fp)
        if (self._table[i2] == fp).any():
            return True
        # overflow holds synthesized (bucket<<16)|fp keys; an evicted item
        # with our fingerprint could only have been parked at one of our
        # two candidate buckets, so probe both.
        if self._overflow and (
            ((i1 << 16) | fp) in self._overflow
            or ((i2 << 16) | fp) in self._overflow
        ):
            return True
        return False

    def _insert(self, fp: int, i1: int) -> bool:
        for idx in (i1, self._alt_index(i1, fp)):
            row = self._table[idx]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = fp
                return True
        # evict
        idx = i1
        cur = fp
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(0, _SLOTS))
            cur, self._table[idx, slot] = int(self._table[idx, slot]), cur
            idx = self._alt_index(idx, cur)
            row = self._table[idx]
            empty = np.flatnonzero(row == 0)
            if empty.size:
                row[empty[0]] = cur
                return True
        # overflow keeps no-false-negatives; store the *fingerprint+index*
        # item is lost, so remember the kicked fingerprint in overflow by
        # synthesizing a stable key
        self._overflow.add((idx << 16) | cur)
        return True

    def add_if_absent(self, h: int) -> bool:
        h = int(h)
        if h in self:
            return False
        fp, i1 = self._fp_index(h)
        self._insert(fp, i1)
        self._count += 1
        return True

    def __len__(self) -> int:
        return self._count

    def state(self) -> dict:
        return {
            "kind": self.kind,
            "table": self._table.copy(),
            "overflow": np.fromiter(self._overflow, dtype=np.uint64)
            if self._overflow
            else np.zeros(0, np.uint64),
            "count": self._count,
            "seed": self._seed,
        }

    @classmethod
    def from_state(cls, st: dict) -> "CuckooFilter":
        out = cls(capacity=st["table"].shape[0] * _SLOTS, seed=int(st["seed"]))
        out._table = st["table"].copy()
        out._overflow = set(int(x) for x in st["overflow"])
        out._count = int(st["count"])
        return out


class BloomFilter:
    """k-hash bloom over a numpy bit array — the cold-shard fallback
    (smaller resident size than a cuckoo table at low occupancy)."""

    kind = "bloom"

    def __init__(self, capacity: int = 1 << 16, fp_rate: float = 1e-4):
        nbits = max(64, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self._nbits = 1 << int(np.ceil(np.log2(nbits)))
        self._bits = np.zeros(self._nbits // 8, dtype=np.uint8)
        self._k = max(1, int(round((self._nbits / max(1, capacity)) * np.log(2))))
        self._count = 0

    def _positions(self, h: int) -> np.ndarray:
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1
        return (h1 + np.arange(self._k, dtype=np.uint64) * h2) & (self._nbits - 1)

    def __contains__(self, h: int) -> bool:
        pos = self._positions(int(h))
        return bool(np.all(self._bits[pos >> 3] & (1 << (pos & 7).astype(np.uint8))))

    def add_if_absent(self, h: int) -> bool:
        h = int(h)
        pos = self._positions(h)
        byte_idx = (pos >> 3).astype(np.int64)
        masks = (1 << (pos & 7)).astype(np.uint8)
        present = bool(np.all(self._bits[byte_idx] & masks))
        if present:
            return False
        np.bitwise_or.at(self._bits, byte_idx, masks)
        self._count += 1
        return True

    def add_bulk(self, hs: np.ndarray) -> None:
        """Vectorized insert of a uint64 hash array (the build side of
        a broadcast semi-join). Count semantics match add_if_absent:
        only hashes not already present (per the filter's own probe)
        increment ``_count``."""
        hs = np.unique(np.asarray(hs, dtype=np.uint64))
        new = ~self.contains_many(hs)
        h1 = (hs & np.uint64(0xFFFFFFFF))[:, None]
        h2 = ((hs >> np.uint64(32)) | np.uint64(1))[:, None]
        pos = (h1 + np.arange(self._k, dtype=np.uint64)[None, :] * h2) \
            & np.uint64(self._nbits - 1)
        pos = pos.ravel()
        np.bitwise_or.at(self._bits, (pos >> 3).astype(np.int64),
                         (1 << (pos & np.uint64(7))).astype(np.uint8))
        self._count += int(new.sum())

    def contains_many(self, hs: np.ndarray) -> np.ndarray:
        """Vectorized membership probe: bool mask per hash (no false
        negatives; false positives at the configured rate)."""
        hs = np.asarray(hs, dtype=np.uint64)
        h1 = (hs & np.uint64(0xFFFFFFFF))[:, None]
        h2 = ((hs >> np.uint64(32)) | np.uint64(1))[:, None]
        pos = (h1 + np.arange(self._k, dtype=np.uint64)[None, :] * h2) \
            & np.uint64(self._nbits - 1)
        bits = self._bits[(pos >> 3).astype(np.int64)]
        masks = (1 << (pos & np.uint64(7))).astype(np.uint8)
        return np.all((bits & masks) != 0, axis=1)

    def __len__(self) -> int:
        return self._count

    def state(self) -> dict:
        return {"kind": self.kind, "bits": self._bits.copy(), "k": self._k,
                "count": self._count}

    @classmethod
    def from_state(cls, st: dict) -> "BloomFilter":
        out = cls.__new__(cls)
        out._bits = st["bits"].copy()
        out._nbits = out._bits.size * 8
        out._k = int(st["k"])
        out._count = int(st["count"])
        return out


def make_seen_set(mode: str = "exact", capacity: int = 1 << 16):
    if mode == "exact":
        return ExactSet(capacity)
    if mode == "cuckoo":
        return CuckooFilter(capacity)
    if mode == "bloom":
        return BloomFilter(capacity)
    raise ValueError(f"unknown seen-set mode {mode!r}")


def restore_seen_set(st: dict):
    return {"exact": ExactSet, "cuckoo": CuckooFilter, "bloom": BloomFilter}[
        st["kind"]
    ].from_state(st)
