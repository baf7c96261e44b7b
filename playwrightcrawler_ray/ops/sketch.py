"""Mergeable synopses behind one protocol and one combine.

Four bounded-state twins of exact aggregates whose state grows with the
key domain: HyperLogLog (distinct users), Misra-Gries and count-min
(word frequencies) and a quantile compactor stack (float quantiles).
Each is a ``Synopsis``: ``update(...)`` folds a batch in, ``merge(other)``
folds another synopsis of its kind in, a query (``estimate``,
``heavy_hitters``, ``quantile``) reads it, and ``to_state()`` /
``from_state(bytes)`` ship it between tasks as the pickle of itself.

``synopsis_agg`` is the one combine, on ``aggutil.partial_grouped_agg``:
one state row per batch and group, folded per group into a fresh
synopsis in arrival order, then finished into the op's frame.

Correctness: the four ops are rows-only in the driver (an estimate has
no SQL oracle). tests/test_sketches.py fuzzes each guarantee through
the protocol, state round trip included, and checks each op against
its SQL-oracled exact twin.
"""

from __future__ import annotations

import collections
import pickle
from collections.abc import Callable

import numpy as np
import pandas as pd

from ..functions.text import fingerprint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: int64/uint64 keys → well-mixed uint64."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class Synopsis:
    """The protocol's shipping half, shared by every synopsis."""

    def to_state(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_state(cls, state: bytes) -> "Synopsis":
        sk = pickle.loads(state)
        if not isinstance(sk, cls):
            raise TypeError(f"not a {cls.__name__} state: {type(sk)}")
        return sk


def synopsis_agg(ds, make: Callable[[], Synopsis],
                 fill: Callable[[Synopsis, pd.DataFrame], None],
                 finish: Callable, by: str | None = None) -> pd.DataFrame:
    """Per batch, one ``(group, state)`` row per ``by`` group (one
    state row per batch without ``by``) of a ``make()`` synopsis that
    ``fill(sk, rows)`` updated. The combine folds each group's states
    into a fresh ``make()`` in arrival order and returns ``finish(sk)``
    — with ``by``, ``finish({group: sk})`` in order of first arrival."""
    from .aggutil import partial_grouped_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        groups = df.groupby(by, sort=False) if by else [(None, df)]
        keys, states = [], []
        for key, rows in groups:
            sk = make()
            fill(sk, rows)
            keys.append(key)
            states.append(sk.to_state())
        return pd.DataFrame({by: keys, "state": states} if by
                            else {"state": states})

    def fold(states) -> Synopsis:
        sk = make()
        for s in states:
            sk.merge(type(sk).from_state(s))
        return sk

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        if by is None:
            return finish(fold(parts["state"]))
        return finish({key: fold(g["state"])
                       for key, g in parts.groupby(by, sort=False)})

    return partial_grouped_agg(ds, partial, combine)


# --- HyperLogLog: 2^P registers (P=14 → 16 KiB, ~0.8 % standard
# error) merged by elementwise max; the Flajolet et al. 2007 estimator
# with the small-range linear-counting correction. ---

HLL_P = 14
HLL_M = 1 << HLL_P
# alpha_m for m >= 128 (Flajolet et al. 2007, table)
_ALPHA = 0.7213 / (1.0 + 1.079 / HLL_M)


def _bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (no float log2 — a
    float64 conversion rounds near powers of two)."""
    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        v[big] >>= np.uint64(s)
    bl += (v > 0).astype(np.int64)
    return bl


class HLL(Synopsis):
    def __init__(self):
        self.registers = np.zeros(HLL_M, dtype=np.uint8)

    def update(self, keys: np.ndarray) -> None:
        """Fold a batch of integer keys into the registers."""
        h = _splitmix64(np.asarray(keys))
        idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
        w = (h << np.uint64(HLL_P)) >> np.uint64(HLL_P)  # low 64-P bits
        rank = ((64 - HLL_P) + 1 - _bit_length_u64(w)).astype(np.uint8)
        np.maximum.at(self.registers, idx, rank)

    def merge(self, other: "HLL") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> float:
        """Bias-corrected harmonic-mean estimate with the small-range
        linear-counting correction."""
        regs = self.registers
        e = _ALPHA * HLL_M * HLL_M / np.sum(2.0 ** -regs.astype(np.float64))
        zeros = int(np.count_nonzero(regs == 0))
        if e <= 2.5 * HLL_M and zeros:
            return HLL_M * np.log(HLL_M / zeros)  # linear counting
        return float(e)


def q_events_distinct_users_hll(sf_dir: str) -> pd.DataFrame:
    """Grouped approximate COUNT DISTINCT over events: one HLL per
    event_type per batch, merged in the combine — the bounded-state
    twin of ops/analytics.q_events_distinct_users."""
    from .analytics import _read

    def finish(sks: dict) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": pd.array(list(sks), dtype=object),
            "n_users_est": pd.array(
                [int(round(sk.estimate())) for sk in sks.values()],
                dtype="int64"),
        })

    return synopsis_agg(
        _read(sf_dir, "events", ["event_type", "user_id"]), HLL,
        lambda sk, g: sk.update(g["user_id"].to_numpy()), finish,
        by="event_type")


# --- Misra-Gries heavy hitters: at most k counters, with the
# mergeable-summaries guarantee (Agarwal et al. 2013). After any
# sequence of reductions and merges every estimate undercounts by at
# most the cumulative decrement D <= N/(k+1) for N items, so any item
# with true count > D survives. ---

MG_K = 64


class MisraGries(Synopsis):
    def __init__(self, k: int = MG_K):
        self.k = k
        self.counters: collections.Counter = collections.Counter()
        self.delta = 0  # cumulative decrement D

    def update(self, items, counts) -> None:
        """Fold exact (item, count) pairs, then reduce to <= k."""
        for w, n in zip(items, counts):
            self.counters[w] += int(n)
        self._reduce()

    def merge(self, other: "MisraGries") -> None:
        """Sum counters and decrements; the query reduces once."""
        self.counters.update(other.counters)
        self.delta += other.delta

    def _reduce(self) -> None:
        """The uniform MG decrement: subtract the (k+1)-th largest
        count from every counter and keep the positives."""
        if len(self.counters) > self.k:
            t = sorted(self.counters.values())[-self.k - 1]
            self.counters = collections.Counter(
                {w: n - t for w, n in self.counters.items() if n > t})
            self.delta += t

    def heavy_hitters(self) -> pd.DataFrame:
        """(word, est, err_bound) after the one final reduce, by est
        descending then word: every true count is in [est, est + D],
        and every word with true count > D is present."""
        self._reduce()
        out = pd.DataFrame({
            "word": np.array(list(self.counters), dtype=object),
            "est": np.array(list(self.counters.values()), dtype=np.int64),
        })
        out["err_bound"] = np.int64(self.delta)
        return out.sort_values(["est", "word"],
                               ascending=[False, True]).reset_index(drop=True)


def _word_counts(df: pd.DataFrame) -> pd.Series:
    """Exact whitespace-token counts of a batch, count-descending."""
    return df["text"].str.split().explode().dropna().value_counts()


def q_words_topk_mg(sf_dir: str, k: int = MG_K) -> pd.DataFrame:
    """Heavy-hitter words via mergeable Misra-Gries: per-batch exact
    counts reduced to k counters, summed in the combine and reduced
    once. ``err_bound`` is the EXACT cumulative decrement D of this
    run, not just the worst case N/(k+1)."""
    from .analytics import _read

    def fill(sk: MisraGries, df: pd.DataFrame) -> None:
        vc = _word_counts(df)
        sk.update(vc.index, vc.to_numpy())

    return synopsis_agg(_read(sf_dir, "documents", ["text"]),
                        lambda: MisraGries(k), fill,
                        MisraGries.heavy_hitters)


# --- Quantile sketch: a Munro-Paterson / KLL-style compactor stack for
# real-valued columns. Level l holds up to k values of weight 2^l; a
# full level is sorted and every other value promoted with doubled
# weight. The kept offset alternates by a counter instead of a coin
# flip, so reruns of one plan are bit-identical. Each compaction adds
# 2^l to ``err``: |est_rank(v) - true_rank(v)| <= err for every v. ---


class QuantileSketch(Synopsis):
    def __init__(self, k: int = 256):
        if k < 2 or k % 2:
            raise ValueError("k must be even and >= 2")
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0          # true item count (weight is conserved exactly)
        self.err = 0        # accumulated worst-case rank error
        self._alt = 0       # deterministic compaction-offset counter

    def update(self, vals: np.ndarray) -> None:
        vals = np.asarray(vals, dtype=np.float64)
        self.n += len(vals)
        self.levels[0] = np.concatenate([self.levels[0], vals])
        self._compact_all()

    def merge(self, other: "QuantileSketch") -> None:
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for l, v in enumerate(other.levels):
            self.levels[l] = np.concatenate([self.levels[l], v])
        self.n += other.n
        self.err += other.err
        self._alt += other._alt
        self._compact_all()

    def _compact_all(self) -> None:
        l = 0
        while l < len(self.levels):
            if len(self.levels[l]) >= self.k:
                v = np.sort(self.levels[l], kind="stable")
                # hold one value back when odd so 2^l-weight is conserved
                hold = v[-1:] if len(v) % 2 else v[:0]
                v = v[: len(v) - len(hold)]
                off = self._alt & 1
                self._alt += 1
                kept = v[off::2]
                self.err += 1 << l
                if l + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                self.levels[l + 1] = np.concatenate(
                    [self.levels[l + 1], kept])
                self.levels[l] = hold
            l += 1

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.concatenate(self.levels)
        wts = np.concatenate([
            np.full(len(v), 1 << l, dtype=np.int64)
            for l, v in enumerate(self.levels)
        ])
        order = np.argsort(vals, kind="stable")
        return vals[order], wts[order]

    def max_weight(self) -> int:
        return 1 << (len(self.levels) - 1)

    def quantile(self, q: float) -> float:
        """Smallest stored value whose estimated rank >= q*n
        (percentile_disc semantics on the summary)."""
        vals, wts = self._weighted()
        cum = np.cumsum(wts)
        target = max(1, int(np.ceil(q * self.n)))
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(vals[min(idx, len(vals) - 1)])


def q_embedding_norm_quantiles(sf_dir: str,
                               qs: tuple = (0.1, 0.25, 0.5, 0.75, 0.9),
                               k: int = 256) -> pd.DataFrame:
    """Quantiles of per-vector L2 norms over the embeddings table: one
    quantile sketch per batch, merged in the combine. State per partial
    is O(k log(n/k)) whatever the corpus size; the output carries the
    sketch's rank-error certificate, which the agreement test checks
    against exact ranks. No rows in, no rows out (typed columns)."""
    from .analytics import _read

    def fill(sk: QuantileSketch, df: pd.DataFrame) -> None:
        if len(df):
            m = np.stack(df["embedding"].to_numpy())
            sk.update(np.sqrt(np.einsum("ij,ij->i", m, m)))

    def finish(sk: QuantileSketch) -> pd.DataFrame:
        rows = [(float(q), sk.quantile(q), sk.err + sk.max_weight(), sk.n)
                for q in qs] if sk.n else []
        return pd.DataFrame(
            rows, columns=["q", "norm_est", "rank_err_bound", "n"]
        ).astype({"q": "float64", "norm_est": "float64",
                  "rank_err_bound": "int64", "n": "int64"})

    return synopsis_agg(_read(sf_dir, "embeddings", ["embedding"]),
                        lambda: QuantileSketch(k), fill, finish)


# --- Count-min (Cormode & Muthukrishnan 2005): d x w counters, one per
# row per item, estimate = min over rows. DETERMINISTIC guarantees,
# pinned in pytest: it never undercounts, and it is LINEAR (merge by
# addition = sketching the concatenated stream). w sizes the
# probabilistic side, est <= true + e*N/w with prob 1-(1/2)^d. ---

CMS_D = 4
CMS_W = 1 << 12


class CountMin(Synopsis):
    """``candidates`` is an item set carried beside the table and
    merged by union: the items a top-k query over the sketch ranks."""

    def __init__(self):
        self.table = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        self.candidates: set = set()

    @staticmethod
    def _cols(keys: np.ndarray, row: int) -> np.ndarray:
        """Row-salted column index for uint64 item keys."""
        salt = _splitmix64(np.array([row + 1], dtype=np.uint64))[0]
        return (_splitmix64(keys ^ salt) % np.uint64(CMS_W)).astype(np.int64)

    def update(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Fold (key, count) pairs, one ``np.add.at`` per row."""
        for r in range(CMS_D):
            np.add.at(self.table[r], self._cols(keys, r), counts)

    def merge(self, other: "CountMin") -> None:
        self.table += other.table
        self.candidates |= other.candidates

    def estimate(self, keys: np.ndarray) -> np.ndarray:
        """Point-frequency estimates: min over the d salted rows."""
        est = self.table[0][self._cols(keys, 0)].copy()
        for r in range(1, CMS_D):
            np.minimum(est, self.table[r][self._cols(keys, r)], out=est)
        return est


def q_words_topk_cms(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Corpus word top-k by count-min estimate. Each batch adds its
    local top-2k words as candidates beside its counts; the combine
    sums the tables and ranks the candidate union by estimate.
    Candidate recall is the per-batch-top-2k heuristic; the estimates
    inherit the sketch's one-sided bound (pinned against the exact
    twin in tests/test_sketches.py)."""
    from .analytics import _read

    def keys(words) -> np.ndarray:
        return np.fromiter(map(fingerprint64, words), dtype=np.uint64,
                           count=len(words))

    def fill(sk: CountMin, df: pd.DataFrame) -> None:
        vc = _word_counts(df)
        words = vc.index.to_numpy(dtype=object)
        sk.update(keys(words), vc.to_numpy().astype(np.int64))
        sk.candidates.update(words[:2 * k])  # value_counts: descending

    def finish(sk: CountMin) -> pd.DataFrame:
        cand = np.unique(np.array(list(sk.candidates), dtype=object))
        out = pd.DataFrame({"word": cand, "est": sk.estimate(keys(cand))})
        return out.sort_values(["est", "word"],
                               ascending=[False, True]).head(k
                               ).reset_index(drop=True)

    return synopsis_agg(_read(sf_dir, "documents", ["text"]), CountMin,
                        fill, finish)
