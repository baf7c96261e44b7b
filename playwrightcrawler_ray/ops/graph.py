"""Link-graph analytics over the crawl output: weighted PageRank.

The crawl's ``kind='link'`` rows ARE a host-level link graph
(``parent_host → host``, one row per discovered link — reference
analogue: the links index playwrightcrawler.py persists per page).
PageRank over it is the canonical crawler-side ranking signal
(host authority for crawl prioritization / source weighting in a
training-data mix).

Distributed shape, sized for a web-scale graph:

- **Edges are aggregated once** to ``(src, dst, weight)`` — a single
  ``groupby`` on the edge key over the link rows; iterations never
  touch the raw link stream again.
- **Each power iteration is one pass over the edge Dataset**: the
  current rank vector is broadcast (``ray.put`` of two parallel
  numpy arrays: sorted host ids + ranks — ~16 B/host, so ~16 MB for
  a million hosts), every batch computes its edges' contributions
  ``rank[src] * w / out_w[src]`` vectorized and emits per-batch
  ``(dst, partial_sum)`` combiner rows; one small combine produces
  the next vector. Dangling mass (hosts with no out-links) and the
  teleport term are closed-form scalars added on the driver.
- At a node count where even the rank vector outgrows a broadcast,
  the documented swap is the components-op layout: hash-partition
  edges AND ranks on ``src`` so each partition joins locally, with
  the combine becoming a ``groupby(dst)`` — two shuffles per
  iteration, zero broadcast.

Correctness: rows-only in the driver (iterative float fixpoint — no
SQL oracle); pytest pins the result against an independent dense
transition-matrix power iteration to 1e-9 and checks the invariants
(ranks sum to 1, all positive, dangling handled).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .io import to_frame


def pagerank_from_edges(edges: pd.DataFrame, damping: float = 0.85,
                        n_iter: int = 30) -> pd.DataFrame:
    """Weighted PageRank over an aggregated ``(src, dst, weight)``
    edge table (host names as strings). The iteration itself runs the
    distributed shape described in the module docstring; the node-id
    dictionary is built driver-side (the HOST universe is the small
    side of a crawl — pages:hosts is ~1e3:1; at a node scale beyond
    that, ids become hashes and the dictionary is never materialized).
    """
    import ray
    import ray.data

    hosts = np.unique(np.concatenate([
        edges["src"].to_numpy(dtype=object),
        edges["dst"].to_numpy(dtype=object),
    ]))
    n = len(hosts)
    if n == 0:
        return pd.DataFrame({"host": [], "rank": []})
    src = np.searchsorted(hosts, edges["src"].to_numpy(dtype=object))
    dst = np.searchsorted(hosts, edges["dst"].to_numpy(dtype=object))
    w = edges["weight"].to_numpy(dtype=np.float64)

    out_w = np.zeros(n, dtype=np.float64)
    np.add.at(out_w, src, w)
    dangling = out_w == 0.0

    edge_ds = ray.data.from_pandas(pd.DataFrame({
        "src": src.astype(np.int64),
        "dst": dst.astype(np.int64),
        "w": w,
    }))

    ranks = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(n_iter):
        r_ref = ray.put((ranks, out_w))

        def contribs(df: pd.DataFrame) -> pd.DataFrame:
            r, ow = ray.get(r_ref)
            s = df["src"].to_numpy()
            c = r[s] * df["w"].to_numpy() / ow[s]
            part = pd.DataFrame({"dst": df["dst"].to_numpy(), "c": c})
            return part.groupby("dst", as_index=False)["c"].sum()

        agg = (
            to_frame(edge_ds.map_batches(contribs, batch_format="pandas"))
            .groupby("dst", as_index=False)["c"].sum()
        )
        new = np.zeros(n, dtype=np.float64)
        new[agg["dst"].to_numpy()] = agg["c"].to_numpy()
        dangling_mass = float(ranks[dangling].sum())
        ranks = ((1.0 - damping) / n
                 + damping * (new + dangling_mass / n))

    return pd.DataFrame({"host": hosts, "rank": ranks})


def crawl_host_pagerank(output_dir: str, damping: float = 0.85,
                        n_iter: int = 30) -> pd.DataFrame:
    """PageRank over the crawl's host link graph: aggregate the
    ``kind='link'`` rows to weighted host→host edges (self-links
    excluded — intra-host navigation is not an authority signal),
    then run the distributed power iteration."""
    from ..pipelines.crawl import load_unified

    ds = load_unified(output_dir, columns=["kind", "host", "parent_host"])

    def edge_partial(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[(df["kind"] == "link") & (df["parent_host"] != df["host"])]
        return sub.groupby(["parent_host", "host"], as_index=False).size()

    parts = to_frame(ds.map_batches(edge_partial, batch_format="pandas"))
    edges = (
        parts.groupby(["parent_host", "host"], as_index=False)["size"].sum()
        .rename(columns={"parent_host": "src", "host": "dst",
                         "size": "weight"})
    )
    out = pagerank_from_edges(edges, damping, n_iter)
    out["rank"] = out["rank"].round(10)
    return out.sort_values(
        ["rank", "host"], ascending=[False, True]).reset_index(drop=True)
