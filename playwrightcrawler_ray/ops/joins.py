"""Temporal join operators Ray Data lacks natively: AS-OF join and
interval (range) join, built as key-bucketed shuffles + vectorized
per-bucket merge kernels.

Both follow the one-shuffle pattern the task calls for when the engine
has no native operator: tag each side, align to a superset schema,
``union`` the two Datasets, hash-bucket on the join key, and run a
``groupby(bucket).map_groups`` kernel that sees every row of both
sides for its key range.  The kernels are pure vectorized pandas
(``merge_asof`` — a C merge over sorted columns — and prefix-sum
differences), never per-row Python.

Scale notes (100 TB): the only data movement is ONE hash shuffle of
each side on the join key — the same cost as any distributed hash
join; there is no broadcast and no driver materialization before the
final (aggregated) result.  Skewed keys share a bucket, so
``n_buckets`` should be ≳ cluster cores and a hot user key can be
salted upstream if one user dominates (same guidance as the frontier's
mega-host splitting, SURVEY.md §2.2).

Determinism: as-of ties (several orders on one user at the same
timestamp) are broken toward the LARGEST order key — the kernels sort
by (ts, key) so ``merge_asof``'s last-match-wins picks it, and the
DuckDB oracles encode the identical tie-break explicitly
(``ORDER BY o_orderdate DESC, o_orderkey DESC``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .io import to_frame


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    from .io import read_table

    return read_table(sf_dir, table, columns)


_SIDE_COLS = ["key", "ts", "event_id", "o_orderkey", "o_totalprice",
              "side", "bucket"]


def _two_sided(sf_dir: str, n_buckets: int):
    """events ∪ orders, aligned to one schema, bucketed by user key."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate",
                    "o_totalprice"])

    def ev_side(df: pd.DataFrame) -> pd.DataFrame:
        key = df["user_id"].astype("int64")
        return pd.DataFrame({
            "key": key,
            "ts": df["ts"].astype("datetime64[us]"),
            "event_id": df["event_id"].astype("int64"),
            "o_orderkey": np.full(len(df), -1, dtype=np.int64),
            "o_totalprice": np.zeros(len(df)),
            "side": np.zeros(len(df), dtype=np.int8),
            "bucket": (key % n_buckets).astype("int32"),
        })[_SIDE_COLS]

    def ord_side(df: pd.DataFrame) -> pd.DataFrame:
        key = df["o_custkey"].astype("int64")
        return pd.DataFrame({
            "key": key,
            "ts": df["o_orderdate"].astype("datetime64[us]"),
            "event_id": np.full(len(df), -1, dtype=np.int64),
            "o_orderkey": df["o_orderkey"].astype("int64"),
            "o_totalprice": df["o_totalprice"].astype("float64"),
            "side": np.ones(len(df), dtype=np.int8),
            "bucket": (key % n_buckets).astype("int32"),
        })[_SIDE_COLS]

    return (ev.map_batches(ev_side, batch_format="pandas")
            .union(orders.map_batches(ord_side, batch_format="pandas")))


def _split_sorted(g: pd.DataFrame):
    """Bucket rows → (events sorted by ts, orders sorted by
    (ts, orderkey)); mergesort keeps ties deterministic."""
    e = g[g["side"] == 0]
    o = g[g["side"] == 1]
    e = e.sort_values(["ts", "event_id"], kind="mergesort")
    o = o.sort_values(["ts", "o_orderkey"], kind="mergesort")
    return e, o


def q_asof_join(sf_dir: str, n_buckets: int = 32) -> pd.DataFrame:
    """AS-OF join: for every event, the SAME USER's latest order at or
    before the event timestamp (ties → largest order key); events with
    no prior order drop (inner as-of).  Kernel: per-bucket
    ``pd.merge_asof(on=ts, by=key, direction='backward')``."""
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        e, o = _split_sorted(g)
        m = pd.merge_asof(
            e[["ts", "key", "event_id"]],
            o[["ts", "key", "o_orderkey", "o_totalprice"]],
            on="ts", by="key", direction="backward",
        )
        m = m[m["o_orderkey"].notna()]
        return pd.DataFrame({
            "event_id": m["event_id"].astype("int64"),
            "user_id": m["key"].astype("int64"),
            "asof_orderkey": m["o_orderkey"].astype("int64"),
            "asof_totalprice": m["o_totalprice"].round(2),
        })

    out = to_frame(_two_sided(sf_dir, n_buckets)
                   .groupby("bucket")
                   .map_groups(kernel, batch_format="pandas"))
    return out.sort_values("event_id", ignore_index=True)


SQL_ASOF_JOIN = """
SELECT event_id, user_id, asof_orderkey,
       ROUND(asof_totalprice, 2) AS asof_totalprice
FROM (
  SELECT e.event_id, e.user_id,
         o.o_orderkey AS asof_orderkey,
         o.o_totalprice AS asof_totalprice,
         ROW_NUMBER() OVER (
             PARTITION BY e.event_id
             ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o
    ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts
) t
WHERE rn = 1
ORDER BY event_id
"""


def q_range_join(sf_dir: str, n_buckets: int = 32,
                 window_minutes: int = 60) -> pd.DataFrame:
    """Interval (range) self-join on the event log: per event, the
    count and value-sum of the SAME USER's other events in the
    trailing window (ts - window, ts] — the burst-detection shape.
    (The orders table shares no time range with events — 1995-2001 vs
    2024 — so the cross-table interval join is vacuous on this data;
    the self-join exercises the identical operator.)

    Kernel: hash-bucket by user, then per-user prefix sums + TWO
    ``merge_asof`` probes (at ``ts`` and ``ts - window``) — counts and
    sums are prefix differences, O(E log E) per bucket, zero per-row
    Python.  Events with no other in-window event are dropped."""
    win = pd.Timedelta(minutes=window_minutes)
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    def bucketize(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = (df["user_id"].astype("int64")
                        % n_buckets).astype("int32")
        return df

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        g = g.assign(
            _cnt=g.groupby("user_id").cumcount() + 1,
            _csum=g.groupby("user_id")["value"].cumsum(),
        )
        right = g[["ts", "user_id", "_cnt", "_csum"]]
        left = g[["ts", "user_id", "event_id", "value"]]
        # hi probe at ts: prefix over ALL same-user rows with ts_b ≤
        # ts_a — merge_asof's last-match lands on the final equal-ts
        # row, so simultaneous events count regardless of id order
        # (matching the oracle's b.ts <= a.ts), unlike the row's own
        # prefix which misses later-id ties
        hi = pd.merge_asof(left[["ts", "user_id"]], right,
                           on="ts", by="user_id", direction="backward")
        lo_left = left.assign(
            ts=(left["ts"] - win).astype(left["ts"].dtype))
        lo = pd.merge_asof(
            lo_left[["ts", "user_id"]].assign(_k=np.arange(len(lo_left))),
            right, on="ts", by="user_id", direction="backward",
        ).sort_values("_k")
        # window (ts-w, ts] including self, then exclude self
        n = (hi["_cnt"].to_numpy() - lo["_cnt"].fillna(0).to_numpy()
             ).astype(np.int64) - 1
        s = (hi["_csum"].to_numpy() - lo["_csum"].fillna(0.0).to_numpy()
             - left["value"].to_numpy())
        out = pd.DataFrame({
            "event_id": left["event_id"].astype("int64").to_numpy(),
            "user_id": left["user_id"].astype("int64").to_numpy(),
            "n_window": n,
            "sum_value": np.round(s, 2),
        })
        return out[out["n_window"] > 0]

    out = to_frame(ev.map_batches(bucketize, batch_format="pandas")
                   .groupby("bucket")
                   .map_groups(kernel, batch_format="pandas"))
    return out.sort_values("event_id", ignore_index=True)


SQL_RANGE_JOIN = """
SELECT a.event_id, a.user_id,
       COUNT(*) AS n_window,
       ROUND(SUM(b.value), 2) AS sum_value
FROM events a
JOIN events b
  ON a.user_id = b.user_id
 AND b.ts <= a.ts
 AND b.ts > a.ts - INTERVAL 60 MINUTE
 AND b.event_id <> a.event_id
GROUP BY a.event_id, a.user_id
ORDER BY a.event_id
"""


# --- Broadcast-Bloom semi-join (bloom-pruned hash join) ---

def q_bloom_semijoin(sf_dir: str, fp_rate: float = 1e-3) -> pd.DataFrame:
    """Selective-build hash join without shuffling the probe side:
    per-lineitem aggregates for orders matching a selective predicate
    (``o_orderpriority = '1-URGENT'``).

    The classic 100 TB shape: the BUILD side (filtered orders keys) is
    small, the PROBE side (lineitem) is the bulk. Instead of an
    all-to-all hash-join shuffle, the build keys are broadcast twice
    over: (1) a Bloom filter (``state/approxset.BloomFilter`` — the
    crawl's own URL-seen machinery, vectorized add_bulk /
    contains_many) prunes probe batches with a bit-array test that
    costs k bit reads per row and ships O(n·log(1/fp)/8) bits, then
    (2) the exact sorted key array resolves the filter's false
    positives by ``np.searchsorted`` — so the output is EXACT and
    DuckDB-oracled. At a scale where even the exact key array exceeds
    a broadcast, the bloom STILL ships (it is ~13 bits/key at 1e-4)
    and the verify step becomes the normal shuffle join over the
    pruned (≈ matching-only) remainder — the pruning is what saves
    the exchange. Aggregation is combiner-style on the already-pruned
    stream (per-batch partials, one small combine).
    """
    import ray

    from ..state.approxset import BloomFilter
    from .aggutil import partial_grouped_agg
    from .sketch import _splitmix64

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def build_keys(df: pd.DataFrame) -> pd.DataFrame:
        sel = df.loc[df["o_orderpriority"] == "1-URGENT", "o_orderkey"]
        return pd.DataFrame({"k": sel.to_numpy(dtype=np.int64)})

    k = to_frame(orders.map_batches(build_keys, batch_format="pandas"))
    keys = np.sort(k["k"].to_numpy(dtype=np.int64))
    bloom = BloomFilter(capacity=max(64, len(keys)), fp_rate=fp_rate)
    bloom.add_bulk(_splitmix64(keys))
    bc_ref = ray.put((bloom.state(), keys))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.approxset import BloomFilter as BF

        st, exact = ray.get(bc_ref)
        bf = BF.from_state(st)
        ks = df["l_orderkey"].to_numpy(dtype=np.int64)
        maybe = bf.contains_many(_splitmix64(ks))       # cheap prune
        sub = df[maybe]
        ks = ks[maybe]
        pos = np.searchsorted(exact, ks)                 # exact verify
        pos[pos == len(exact)] = 0
        hit = exact[pos] == ks if len(exact) else np.zeros(len(ks), bool)
        sub = sub[hit]
        sub = sub.assign(_q=sub["l_quantity"].astype("int64"))
        return sub.groupby("l_orderkey", as_index=False).agg(
            n_items=("_q", "size"), sum_qty=("_q", "sum"))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("l_orderkey", as_index=False).agg(
            n_items=("n_items", "sum"), sum_qty=("sum_qty", "sum"))
        out = out.rename(columns={"l_orderkey": "orderkey"})
        out["n_items"] = out["n_items"].astype("int64")
        out["sum_qty"] = out["sum_qty"].astype("int64")
        return out.sort_values("orderkey").reset_index(drop=True)

    return partial_grouped_agg(li, probe, combine)


SQL_BLOOM_SEMIJOIN = """
SELECT l.l_orderkey AS orderkey,
       COUNT(*) AS n_items,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE o.o_orderpriority = '1-URGENT'
GROUP BY l.l_orderkey
ORDER BY orderkey
"""
