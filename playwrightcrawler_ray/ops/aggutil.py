"""Partial (combiner-style) grouped aggregation.

``groupby(key).aggregate(...)`` is an all-to-all sort shuffle — for
modest result cardinalities that is pure overhead (the guide's
"pre-aggregate first" rule). ``partial_grouped_agg`` computes partial
aggregates per batch inside ``map_batches`` (rows out ≈ distinct keys
per batch), coalesces the small partial stream to one block, and
combines. At 100 TB the same two stages stay valid — the combine step
becomes a ``groupby`` over partials when distinct keys no longer fit a
block (swap ``repartition(1)`` for ``groupby(keys)``), which is exactly
the mergeable-sketch layout.
"""

from __future__ import annotations

from collections.abc import Callable

import pandas as pd

from .io import to_frame


def partial_grouped_agg(
    ds,
    build_partial: Callable[[pd.DataFrame], pd.DataFrame],
    combine: Callable[[pd.DataFrame], pd.DataFrame],
) -> pd.DataFrame:
    """build_partial: batch → partial aggregate rows (per-batch groupby);
    combine: all partial rows → final aggregate rows. A zero-row input
    still returns combine's typed columns (``io.to_frame``)."""
    parts = ds.map_batches(build_partial, batch_format="pandas")
    return to_frame(parts.repartition(1).map_batches(
        combine, batch_format="pandas", batch_size=None))
