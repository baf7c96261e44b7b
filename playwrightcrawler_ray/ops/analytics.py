"""Relational analytics operators (SURVEY.md §2.5-2.6 Ray mappings:
A4/A5 groupby distributions, O1 sort+limit top-k, J1 anti-join, plus
windowed aggregates for the events stream).

Float policy: money sums rounded to 2 decimals, averages/ratios to 4,
applied identically in the DuckDB oracles — block-order-dependent
float association must not flip the value hash.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .io import to_frame


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    from .io import read_table

    return read_table(sf_dir, table, columns)


def _round_cols(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for c, nd in spec.items():
        df[c] = df[c].round(nd)
    return df


def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped pricing summary over lineitem: column-pruned
    read, vectorized derived column, combiner-style partial aggregation
    (4 group keys → no sort shuffle)."""
    from .aggutil import partial_grouped_agg

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount", "l_shipdate"])
    keys = ["l_returnflag", "l_linestatus"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= pd.Timestamp("1998-09-01")].copy()
        df["disc_price"] = df["l_extendedprice"] * (1.0 - df["l_discount"])
        return df.groupby(keys, as_index=False, sort=False).agg(
            sum_qty=("l_quantity", "sum"),
            sum_base_price=("l_extendedprice", "sum"),
            sum_disc_price=("disc_price", "sum"),
            count_order=("l_quantity", "size"),
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, as_index=False, sort=False).agg(
            sum_qty=("sum_qty", "sum"),
            sum_base_price=("sum_base_price", "sum"),
            sum_disc_price=("sum_disc_price", "sum"),
            count_order=("count_order", "sum"),
        )
        g["avg_qty"] = g["sum_qty"] / g["count_order"]
        return g

    out = partial_grouped_agg(ds, partial, combine)
    out = _round_cols(out, {"sum_qty": 2, "sum_base_price": 2,
                            "sum_disc_price": 2})
    # half-up: quantities are integral doubles, so the average can land
    # exactly on a .00005 boundary (numpy half-even ≠ DuckDB half-away)
    out["avg_qty"] = np.floor(out["avg_qty"] * 10000 + 0.5) / 10000
    return out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
                "sum_disc_price", "avg_qty", "count_order"]]


SQL_PRICING_SUMMARY = """
SELECT l_returnflag, l_linestatus,
       ROUND(SUM(l_quantity), 2)            AS sum_qty,
       ROUND(SUM(l_extendedprice), 2)       AS sum_base_price,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       FLOOR(AVG(l_quantity) * 10000 + 0.5) / 10000 AS avg_qty,
       COUNT(*)                             AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-01'
GROUP BY l_returnflag, l_linestatus
"""


def q_top_customers(sf_dir: str) -> pd.DataFrame:
    """Broadcast-join orders⋈customer (small side broadcast, no
    shuffle join) → revenue per customer → top 10."""
    from .aggutil import partial_grouped_agg

    cust = to_frame(_read(sf_dir, "customer", ["c_custkey", "c_name"]))
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False, sort=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False, sort=False).agg(
            revenue=("revenue", "sum"), n_orders=("n_orders", "sum")
        )

    rev = partial_grouped_agg(orders, partial, combine).merge(
        cust, left_on="o_custkey", right_on="c_custkey")
    rev = rev.sort_values(["revenue", "o_custkey"],
                          ascending=[False, True]).head(10)
    rev["revenue"] = rev["revenue"].round(2)
    return rev[["c_custkey", "c_name", "revenue", "n_orders"]]


SQL_TOP_CUSTOMERS = """
SELECT o_custkey AS c_custkey, c_name,
       ROUND(SUM(o_totalprice), 2) AS revenue,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY o_custkey, c_name
ORDER BY SUM(o_totalprice) DESC, o_custkey
LIMIT 10
"""


def q_orders_without_lineitem(sf_dir: str) -> pd.DataFrame:
    """Anti-join (reference J1 links-minus-content analogue): broadcast
    the key set as a semi-filter inside map_batches — no shuffle."""
    # ``unique`` answers None, not [], on a zero-row table
    keys = _read(sf_dir, "lineitem", ["l_orderkey"]).unique("l_orderkey")
    keys_ref = ray.put(np.fromiter(keys or (), dtype=np.int64))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def anti(t: pa.Table) -> pa.Table:
        known = ray.get(keys_ref)
        mask = ~np.isin(t["o_orderkey"].to_numpy(), known)
        return t.filter(pa.array(mask))

    out = (
        orders.map_batches(anti, batch_format="pyarrow")
        .aggregate(Count(alias_name="n_orders"),
                   Sum("o_totalprice", alias_name="total_value"))
    )
    df = pd.DataFrame([out])
    # SUM over no rows is NULL (None here), a float NaN in the frame
    df["total_value"] = df["total_value"].astype("float64").round(2)
    return df


SQL_ORDERS_WITHOUT_LINEITEM = """
SELECT COUNT(*) AS n_orders, ROUND(SUM(o_totalprice), 2) AS total_value
FROM orders WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)
"""


def q_region_nation_counts(sf_dir: str) -> pd.DataFrame:
    """Dimension join via broadcast + grouped count (A5 host-level
    distribution analogue)."""
    from .aggutil import partial_grouped_agg

    region = to_frame(_read(sf_dir, "region"))
    nation = _read(sf_dir, "nation", ["n_regionkey"])

    def count(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_regionkey", as_index=False, sort=False).agg(
            n_nations=("n_regionkey", "size"))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("n_regionkey", as_index=False, sort=False).agg(
            n_nations=("n_nations", "sum"))

    out = partial_grouped_agg(nation, count, combine).merge(
        region, left_on="n_regionkey", right_on="r_regionkey")
    return out[["r_name", "n_nations"]]


SQL_REGION_NATION_COUNTS = """
SELECT r_name, COUNT(*) AS n_nations
FROM nation JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def q_part_top3_by_brand(sf_dir: str) -> pd.DataFrame:
    """Per-group top-k via groupby().map_groups (O1/O4 analogue)."""
    parts = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["p_retailprice", "p_partkey"],
                             ascending=[False, True]).head(3)

    out = to_frame(
        parts.groupby("p_brand").map_groups(top3, batch_format="pandas"))
    out["p_retailprice"] = out["p_retailprice"].round(2)
    return out.sort_values(["p_brand", "p_partkey"]).reset_index(drop=True)


SQL_PART_TOP3_BY_BRAND = """
SELECT p_brand, p_partkey, ROUND(p_retailprice, 2) AS p_retailprice
FROM (
  SELECT p_brand, p_partkey, p_retailprice,
         ROW_NUMBER() OVER (PARTITION BY p_brand
                            ORDER BY p_retailprice DESC, p_partkey) AS rn
  FROM part
) WHERE rn <= 3
"""


def q_events_by_type(sf_dir: str) -> pd.DataFrame:
    from .aggutil import partial_grouped_agg

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False, sort=False).agg(
            n=("value", "size"), total_value=("value", "sum"),
            min_value=("value", "min"), max_value=("value", "max"),
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False, sort=False).agg(
            n=("n", "sum"), total_value=("total_value", "sum"),
            min_value=("min_value", "min"), max_value=("max_value", "max"),
        )

    out = partial_grouped_agg(ev, partial, combine)
    return _round_cols(out, {"total_value": 2, "min_value": 2, "max_value": 2})


SQL_EVENTS_BY_TYPE = """
SELECT event_type, COUNT(*) AS n,
       ROUND(SUM(value), 2) AS total_value,
       ROUND(MIN(value), 2) AS min_value,
       ROUND(MAX(value), 2) AS max_value
FROM events GROUP BY event_type
"""


def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per user: window key derived vectorized
    in map_batches, then a grouped aggregate (streaming-shaped op on a
    partitioned log — the Ray Data windowing pattern)."""
    from .aggutil import partial_grouped_agg

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    keys = ["user_id", "window_start"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window_start"] = df["ts"].dt.floor("h")
        return df.groupby(keys, as_index=False, sort=False).agg(
            n_events=("value", "size"), window_value=("value", "sum")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False, sort=False).agg(
            n_events=("n_events", "sum"), window_value=("window_value", "sum")
        )

    out = partial_grouped_agg(ev, partial, combine)
    # DuckDB timestamps are microsecond precision; match exactly
    out["window_start"] = out["window_start"].astype("datetime64[us]")
    return _round_cols(out, {"window_value": 2})


SQL_EVENTS_HOURLY = """
SELECT user_id, date_trunc('hour', ts) AS window_start,
       COUNT(*) AS n_events, ROUND(SUM(value), 2) AS window_value
FROM events GROUP BY user_id, date_trunc('hour', ts)
"""


# rows one per-user map_groups group may hold: the bucket count grows
# with the table, so a group fits one worker at any scale. Buckets aim
# at half of it, headroom for the user_id % n spread.
ROWS_PER_GROUP = 1 << 17
MIN_BUCKETS = 32  # parallelism floor for small tables


def _user_groups(ds: ray.data.Dataset):
    """``ds`` grouped by ``bucket = user_id % n``: every user's rows in
    one group, n = max(MIN_BUCKETS, ceil(2 * rows / ROWS_PER_GROUP))."""
    n_buckets = max(MIN_BUCKETS, -(-2 * ds.count() // ROWS_PER_GROUP))

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["bucket"] = df["user_id"] % n_buckets
        return df

    return ds.map_batches(add_bucket, batch_format="pandas").groupby("bucket")


def q_user_sessions(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionization: per-user sort + gap detection inside map_groups
    — incremental state never leaves the group (SURVEY.md §2.9
    streaming mapping)."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized over the whole bucket: sort by (user, ts, event)
        # once, session starts = user change OR gap exceeded
        g = g.sort_values(["user_id", "ts", "event_id"])
        user_change = g["user_id"].ne(g["user_id"].shift())
        new_session = user_change | (g["ts"].diff() > gap)
        g = g.assign(_new=new_session.astype(int))
        out = g.groupby("user_id", as_index=False, sort=False).agg(
            n_sessions=("_new", "sum"), n_events=("_new", "size")
        )
        return out

    return to_frame(
        _user_groups(ev)
        .map_groups(sessions_of_bucket, batch_format="pandas")
    )


def q_events_ts_range(sf_dir: str) -> pd.DataFrame:
    """Timestamp range + count (A4: the reference's min/max created_at
    pivot aggregation, playwrightcrawler.py:1150-1159)."""
    ev = _read(sf_dir, "events", ["ts"])
    out = ev.aggregate(Min("ts", alias_name="ts_min"),
                       Max("ts", alias_name="ts_max"),
                       Count(alias_name="n"))
    df = pd.DataFrame([out])
    for c in ("ts_min", "ts_max"):
        df[c] = df[c].astype("datetime64[us]")
    return df


SQL_EVENTS_TS_RANGE = """
SELECT MIN(ts) AS ts_min, MAX(ts) AS ts_max, COUNT(*) AS n FROM events
"""


def q_supplier_by_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast dimension join supplier⋈nation → per-nation counts."""
    nation = to_frame(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    sup = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s_nationkey", as_index=False, sort=False).agg(
            n_suppliers=("s_acctbal", "size"), total_acctbal=("s_acctbal", "sum")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s_nationkey", as_index=False, sort=False).agg(
            n_suppliers=("n_suppliers", "sum"),
            total_acctbal=("total_acctbal", "sum"),
        )

    from .aggutil import partial_grouped_agg

    out = partial_grouped_agg(sup, partial, combine).merge(
        nation, left_on="s_nationkey", right_on="n_nationkey")
    out["total_acctbal"] = out["total_acctbal"].round(2)
    return out[["n_name", "n_suppliers", "total_acctbal"]]


SQL_SUPPLIER_BY_NATION = """
SELECT n_name, COUNT(*) AS n_suppliers,
       ROUND(SUM(s_acctbal), 2) AS total_acctbal
FROM supplier JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


def q_customer_segments(sf_dir: str) -> pd.DataFrame:
    cust = _read(sf_dir, "customer", ["c_mktsegment", "c_acctbal"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("c_mktsegment", as_index=False, sort=False).agg(
            n_customers=("c_acctbal", "size"), total_acctbal=("c_acctbal", "sum")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("c_mktsegment", as_index=False, sort=False).agg(
            n_customers=("n_customers", "sum"),
            total_acctbal=("total_acctbal", "sum"),
        )

    from .aggutil import partial_grouped_agg

    out = partial_grouped_agg(cust, partial, combine)
    out["total_acctbal"] = out["total_acctbal"].round(2)
    return out


SQL_CUSTOMER_SEGMENTS = """
SELECT c_mktsegment, COUNT(*) AS n_customers,
       ROUND(SUM(c_acctbal), 2) AS total_acctbal
FROM customer GROUP BY c_mktsegment
"""


SQL_USER_SESSIONS = """
SELECT user_id,
       CAST(SUM(CASE WHEN prev_ts IS NULL
                     OR ts - prev_ts > INTERVAL 30 MINUTE
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions,
       COUNT(*) AS n_events
FROM (
  SELECT user_id, ts,
         LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
) GROUP BY user_id
"""


def q_events_rolling(sf_dir: str) -> pd.DataFrame:
    """Ordered per-key window functions (LAG + ROWS-frame rolling sum):
    the per-user ordered computation lives entirely inside a bucketed
    ``map_groups`` — the same partitioning contract as sessionization,
    so no global sort. Integer measures (`event_id % 1000`, microsecond
    gaps) keep the Ray↔DuckDB value hash float-free."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])

    def roll_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        # normalize the unit explicitly: Arrow timestamp[us] surfaces
        # as datetime64[us] under pandas 2.x, not ns
        ts_us = g["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = g["user_id"].to_numpy()
        first = np.ones(len(g), dtype=bool)
        first[1:] = users[1:] != users[:-1]
        gap = np.full(len(g), -1, dtype=np.int64)
        gap[1:] = ts_us[1:] - ts_us[:-1]
        gap[first] = -1  # LAG over the partition start → sentinel
        g = g.assign(_m=(g["event_id"] % 1000).astype("int64"))
        roll = (
            g.groupby("user_id", sort=False)["_m"]
            .rolling(5, min_periods=1).sum()
            .to_numpy().astype(np.int64)
        )
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(),
            "user_id": users,
            "gap_us": gap,
            "roll_sum5": roll,
        })

    return to_frame(
        _user_groups(ev)
        .map_groups(roll_bucket, batch_format="pandas")
    )


SQL_EVENTS_ROLLING = """
SELECT event_id, user_id,
       COALESCE(epoch_us(ts) - LAG(epoch_us(ts)) OVER w, -1) AS gap_us,
       CAST(SUM(event_id % 1000) OVER (
           w ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS roll_sum5
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_lineitem_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP: the finest-level partial aggregates are
    computed ONCE (combiner-style, no shuffle) and every coarser level
    is derived by re-aggregating those partials — the single-scan
    multi-level layout a 100 TB rollup needs."""
    from .aggutil import partial_grouped_agg

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    keys = ["l_returnflag", "l_linestatus"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(_q=df["l_quantity"].astype("int64"))
        return df.groupby(keys, as_index=False, sort=False).agg(
            sum_qty=("_q", "sum"), n=("_q", "size"))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        fine = df.groupby(keys, as_index=False, sort=False).agg(
            sum_qty=("sum_qty", "sum"), n=("n", "sum"))
        lvl1 = fine.groupby("l_returnflag", as_index=False, sort=False).agg(
            sum_qty=("sum_qty", "sum"), n=("n", "sum"))
        lvl1["l_linestatus"] = "ALL"
        # the grand total is there even for no rows, and SUM over no
        # rows is NULL, as in DuckDB's ROLLUP
        total = pd.DataFrame({
            "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
            "sum_qty": [fine["sum_qty"].sum(min_count=1)],
            "n": [fine["n"].sum()],
        })
        out = pd.concat([fine, lvl1, total], ignore_index=True)
        return out.rename(columns={"l_returnflag": "returnflag",
                                   "l_linestatus": "linestatus"})

    df = partial_grouped_agg(ds, partial, combine)
    df["n"] = df["n"].astype("int64")
    if df["sum_qty"].notna().all():  # a NULL sum stays a float NaN
        df["sum_qty"] = df["sum_qty"].astype("int64")
    return df


SQL_LINEITEM_ROLLUP = """
SELECT COALESCE(l_returnflag, 'ALL') AS returnflag,
       COALESCE(l_linestatus, 'ALL') AS linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       COUNT(*) AS n
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_events_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Exact grouped COUNT DISTINCT: per-batch (type, user) dedup +
    per-pair counts is the combiner (state = distinct pairs, exactly
    the information COUNT DISTINCT needs); the combine step re-sums and
    collapses — at 100 TB it becomes a groupby over the pair stream
    (aggutil's documented swap). The HLL twin in ops/sketch.py is the
    bounded-state path when even the pair stream is too wide."""
    from .aggutil import partial_grouped_agg

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["event_type", "user_id"], as_index=False,
                          sort=False).size()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        pairs = df.groupby(["event_type", "user_id"], as_index=False,
                           sort=False)["size"].sum()
        out = pairs.groupby("event_type", as_index=False, sort=False).agg(
            n_users=("user_id", "size"), n_events=("size", "sum"))
        out["n_users"] = out["n_users"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return partial_grouped_agg(ds, partial, combine)


SQL_EVENTS_DISTINCT_USERS = """
SELECT event_type,
       COUNT(DISTINCT user_id) AS n_users,
       COUNT(*) AS n_events
FROM events
GROUP BY event_type
"""


_PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def q_lineitem_profile(sf_dir: str) -> pd.DataFrame:
    """Column profiling — the data-engineering staple every ingest
    pipeline runs before training (row counts, null fractions,
    distinct cardinalities, value ranges). One row per profiled
    numeric column.

    Scale shape: per-batch partials carry (n, n_null, min, max) as
    scalars plus the batch's DISTINCT value set — distincts are the
    only state that grows, and they collapse at each combine
    (np.unique over concatenated partials); for a genuinely
    high-cardinality column the documented swap is the HLL sketch
    (ops/sketch.py) or a groupby-on-value-partition, exactly the
    events_distinct_users pattern."""
    import numpy as np

    ds = _read(sf_dir, "lineitem", _PROFILE_COLS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in _PROFILE_COLS:
            v = df[c]
            nn = v.dropna().to_numpy(dtype=np.float64)
            rows.append({
                "col": c,
                "n": len(v),
                "n_null": int(v.isna().sum()),
                "vmin": nn.min() if len(nn) else np.nan,
                "vmax": nn.max() if len(nn) else np.nan,
                "distinct": np.unique(nn).tolist(),
            })
        return pd.DataFrame(rows)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        out = []
        for c, grp in df.groupby("col", sort=True):
            dis = np.unique(np.concatenate(
                [np.asarray(d, dtype=np.float64)
                 for d in grp["distinct"]]))
            out.append({
                "col": c,
                "n": int(grp["n"].sum()),
                "n_null": int(grp["n_null"].sum()),
                "n_distinct": int(len(dis)),
                "vmin": round(float(np.nanmin(grp["vmin"])), 4),
                "vmax": round(float(np.nanmax(grp["vmax"])), 4),
            })
        return pd.DataFrame(out)

    from .aggutil import partial_grouped_agg

    return partial_grouped_agg(ds, partial, combine)


SQL_LINEITEM_PROFILE = " UNION ALL ".join(
    f"""SELECT '{c}' AS col, COUNT(*) AS n,
       COUNT(*) - COUNT({c}) AS n_null,
       COUNT(DISTINCT {c}) AS n_distinct,
       ROUND(MIN({c}), 4) AS vmin, ROUND(MAX({c}), 4) AS vmax
FROM lineitem""" for c in _PROFILE_COLS
) + " ORDER BY col"


def q_events_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot / crosstab: event counts as (event_type × hour-of-day)
    — the reshape every analytics layer provides and Ray Data has no
    native operator for. Expressed as a combiner aggregation: per-batch
    (type, hour) count partials (≤ types×24 rows leave any batch),
    summed, then reshaped driver-side into one column per hour. No
    shuffle of event rows, ever."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = pd.DataFrame({
            "event_type": df["event_type"],
            "hour": df["ts"].dt.hour.astype("int64"),
        })
        out = sub.value_counts(["event_type", "hour"]).reset_index()
        out.columns = ["event_type", "hour", "cnt"]
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby(["event_type", "hour"], as_index=False,
                         sort=False)["cnt"].sum()
        wide = tot.pivot_table(index="event_type", columns="hour",
                               values="cnt", aggfunc="sum",
                               fill_value=0)
        wide = wide.reindex(columns=range(24), fill_value=0)
        wide.columns = [f"h{int(h)}" for h in wide.columns]
        wide = wide.reset_index().sort_values("event_type")
        for c in wide.columns:
            if c != "event_type":
                wide[c] = wide[c].astype("int64")
        return wide.reset_index(drop=True)

    from .aggutil import partial_grouped_agg

    return partial_grouped_agg(ds, partial, combine)


SQL_EVENTS_PIVOT = ("SELECT event_type, "
                    + ", ".join(
                        f"CAST(SUM(CASE WHEN EXTRACT(hour FROM ts) = {h}"
                        f" THEN 1 ELSE 0 END) AS BIGINT) AS h{h}"
                        for h in range(24))
                    + " FROM events GROUP BY event_type"
                    " ORDER BY event_type")


def q_lineitem_price_quartiles(sf_dir: str) -> pd.DataFrame:
    """Exact grouped PERCENTILE_CONT (p25/p50/p75 of extended price
    per returnflag). Values are quantized to integer CENTS on both
    sides before the linear interpolation, so the quantile arithmetic
    is exact integer work in a double — no float-parity tolerance
    needed against the oracle.

    Scale shape: groups here are few and bounded, so one
    ``groupby(flag).map_groups`` suffices; for high-cardinality
    groups or giant groups the documented swap is the mergeable
    QuantileSketch (ops/sketch.py) per group with its rank
    certificate."""
    import numpy as np

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def quartiles(g: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(
            g["l_extendedprice"].to_numpy(dtype=np.float64) * 100
        ).astype(np.int64)
        cents.sort()
        n = len(cents)
        # one row per flag; slices, not indices, so an empty group
        # yields no row
        rows = {"l_returnflag": g["l_returnflag"].to_numpy()[:1]}
        for name, p in (("p25", 0.25), ("p50", 0.5), ("p75", 0.75)):
            # PERCENTILE_CONT: rank h = p*(n-1), linear interpolation
            h = p * (n - 1)
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            lo_v, hi_v = cents[lo:lo + 1], cents[hi:hi + 1]
            v = lo_v + (h - lo) * (hi_v - lo_v)
            rows[name] = np.round(v / 100.0, 4)
        return pd.DataFrame(rows)

    out = to_frame(
        ds.groupby("l_returnflag")
        .map_groups(quartiles, batch_format="pandas")
    )
    return out.sort_values("l_returnflag").reset_index(drop=True)


SQL_LINEITEM_PRICE_QUARTILES = """
SELECT l_returnflag,
       ROUND(PERCENTILE_CONT(0.25) WITHIN GROUP (ORDER BY
             CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0, 4) AS p25,
       ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY
             CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0, 4) AS p50,
       ROUND(PERCENTILE_CONT(0.75) WITHIN GROUP (ORDER BY
             CAST(ROUND(l_extendedprice * 100) AS BIGINT)) / 100.0, 4) AS p75
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_lineitem_corr(sf_dir: str) -> pd.DataFrame:
    """Distributed Pearson correlation (quantity vs extended price
    per returnflag) via the classic sufficient-statistics combiner:
    each batch contributes (n, Σx, Σy, Σxx, Σyy, Σxy) per group —
    six scalars, mergeable by addition — and the correlation is
    computed once from the merged sums. The canonical "any moment
    statistic is a map-reduce" pattern; no row ever crosses the
    wire."""
    import numpy as np

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["l_quantity"].to_numpy(dtype=np.float64)
        y = df["l_extendedprice"].to_numpy(dtype=np.float64)
        sub = pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "n": 1.0, "sx": x, "sy": y,
            "sxx": x * x, "syy": y * y, "sxy": x * y,
        })
        return sub.groupby("l_returnflag", as_index=False,
                           sort=False).sum()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("l_returnflag", as_index=False,
                         sort=True).sum()
        n = tot["n"]
        cov = tot["sxy"] - tot["sx"] * tot["sy"] / n
        vx = tot["sxx"] - tot["sx"] ** 2 / n
        vy = tot["syy"] - tot["sy"] ** 2 / n
        return pd.DataFrame({
            "l_returnflag": tot["l_returnflag"],
            "n": n.astype("int64"),
            "corr_qty_price": np.round(cov / np.sqrt(vx * vy), 4),
        })

    from .aggutil import partial_grouped_agg

    return partial_grouped_agg(ds, partial, combine)


SQL_LINEITEM_CORR = """
SELECT l_returnflag, COUNT(*) AS n,
       ROUND(CORR(l_quantity, l_extendedprice), 4) AS corr_qty_price
FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q_user_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention — the product-analytics staple: users
    grouped by their first-activity day, counted as retained on each
    later day they appear. Two combiner passes, zero row shuffles:
    (1) first-event-day per user via per-batch min partials (output
    is user-sized); the (user → cohort day) map broadcasts as sorted
    arrays + searchsorted (ray.put; the documented swap at 10^9
    users is a user-bucketed join, exactly ops/joins' layout);
    (2) a second pass emits DISTINCT (cohort, offset, user) triples
    per batch — the pair-stream combiner of events_distinct_users —
    deduped again and counted at the merge."""
    import numpy as np

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    from .aggutil import partial_grouped_agg

    def first_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", as_index=False, sort=False).agg(
            first_ts=("ts", "min"))

    def first_combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", as_index=False, sort=False).agg(
            first_ts=("first_ts", "min"))

    first = partial_grouped_agg(ds, first_partial, first_combine)
    first = first.sort_values("user_id")
    uids = first["user_id"].to_numpy().astype(np.int64)
    cohorts = first["first_ts"].dt.floor("D").to_numpy()
    bc = ray.put((uids, cohorts))

    def triples(df: pd.DataFrame) -> pd.DataFrame:
        ids, chs = ray.get(bc)
        u = df["user_id"].to_numpy().astype(np.int64)
        coh = chs[np.searchsorted(ids, u)]
        day = df["ts"].dt.floor("D").to_numpy()
        off = ((day - coh) // np.timedelta64(1, "D")).astype(np.int64)
        sub = pd.DataFrame({"cohort_day": coh, "day_offset": off,
                            "user_id": u})
        return sub.drop_duplicates()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        # nunique already deduplicates users within each group — no
        # separate drop_duplicates pass over the merged triple stream
        out = (df.groupby(["cohort_day", "day_offset"], as_index=False)
               .agg(n_users=("user_id", "nunique")))
        out["n_users"] = out["n_users"].astype("int64")
        return out.sort_values(["cohort_day", "day_offset"]
                               ).reset_index(drop=True)

    return partial_grouped_agg(ds, triples, fold)


SQL_USER_RETENTION = """
WITH first AS (
  SELECT user_id, DATE_TRUNC('day', MIN(ts)) AS cohort_day
  FROM events GROUP BY user_id
)
SELECT f.cohort_day,
       CAST(DATE_DIFF('day', f.cohort_day,
                      DATE_TRUNC('day', e.ts)) AS BIGINT) AS day_offset,
       COUNT(DISTINCT e.user_id) AS n_users
FROM events e JOIN first f USING (user_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""
