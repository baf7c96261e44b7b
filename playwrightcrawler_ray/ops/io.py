"""Shared pruned parquet reader for the ops/ query family, and the one
path from a Dataset to a pandas frame (``to_frame``).

The driver-generated testdata parquet carries ``pandas`` schema
metadata (a dict) that makes ``pyarrow.Schema`` unhashable — Ray Data
then logs "Failed to hash the schemas (for deduplication)" on every
multi-block read and loses schema dedup (VERDICT round 1 item 8).
Reading with an explicit metadata-stripped (subset) schema keeps the
blocks' schemas hashable and the logs clean, and keeps every read
column-pruned by construction.
"""

from __future__ import annotations

import inspect
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data._internal.delegating_block_builder import DelegatingBlockBuilder
from ray.data.block import Block, BlockAccessor

_SCHEMA_CACHE: dict[tuple[str, tuple | None], pa.Schema] = {}


def clean_schema(path: str, columns: list[str] | None = None) -> pa.Schema:
    key = (path, tuple(columns) if columns else None)
    if key not in _SCHEMA_CACHE:
        full = pq.read_schema(path)
        s = pa.schema([full.field(c) for c in columns]) if columns else full
        _SCHEMA_CACHE[key] = s.remove_metadata()
    return _SCHEMA_CACHE[key]


def read_table(sf_dir: str, table: str, columns: list[str] | None = None,
               **kw) -> ray.data.Dataset:
    path = os.path.join(sf_dir, f"{table}.parquet")
    return ray.data.read_parquet(
        path, columns=columns, schema=clean_schema(path, columns), **kw
    )


def to_frame(ds: ray.data.Dataset) -> pd.DataFrame:
    """``ds`` as a pandas frame, with its typed columns even when it
    has no rows: the one Dataset→pandas path of the ops.

    A non-empty result is ``ds.to_pandas()``; nothing runs twice. Ray
    returns a 0×0 frame for a zero-row Dataset, and after
    ``map_batches`` it knows no schema without running the UDF. So a
    result without columns is rebuilt by running the plan's own UDFs,
    in order, on an empty batch of its source's schema (a plain read
    yields the read schema)."""
    out = ds.to_pandas()
    if len(out.columns) == 0:
        block = _empty_output(ds._logical_plan.dag)
        out = BlockAccessor.for_block(block).to_pandas()
    return out


def materialize(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds.materialize()``, still typed for ``to_frame`` when it holds
    no rows. Ray keeps no columns for a materialized zero-row Dataset,
    so that one is swapped for the zero-row block of ``ds``'s plan."""
    out = ds.materialize()
    if out.count() == 0:  # block metadata: nothing runs again
        out = ray.data.from_blocks([_empty_output(ds._logical_plan.dag)])
    return out


def _empty_output(op) -> Block:
    """The block the logical operator ``op`` yields when its sources
    hold no rows."""
    from ray.data._internal.logical.operators.all_to_all_operator import (
        RandomizeBlocks, RandomShuffle, Repartition, Sort)
    from ray.data._internal.logical.operators.map_operator import (
        Filter, MapBatches, Project)
    from ray.data._internal.logical.operators.n_ary_operator import Union
    from ray.data._internal.logical.operators.one_to_one_operator import Limit

    if not op.input_dependencies:  # a read or an in-memory source
        return _empty_source(op)
    block = _empty_output(op.input_dependencies[0])
    if isinstance(op, MapBatches):
        return _run_udf(op, block)
    if isinstance(op, Project):
        return BlockAccessor.for_block(block).select(op.cols)
    if isinstance(op, (Filter, Limit, RandomizeBlocks, RandomShuffle,
                       Repartition, Sort, Union)):
        return block  # rows move or go; the columns stay
    raise TypeError(f"to_frame: no zero-row rule for {op.name}")


def _empty_source(op) -> Block:
    """A zero-row block of a source operator's schema: the read schema,
    or else that of its first in-memory block."""
    schema = op.infer_schema()
    if isinstance(schema, pa.Schema):
        return schema.empty_table()
    # in-memory pandas blocks, or zero-row ones that record no schema
    first = ray.get(op.input_data[0].block_refs[0])
    return BlockAccessor.for_block(first).slice(0, 0)


def _run_udf(op, block: Block) -> Block:
    """Run a ``map_batches`` (or ``map_groups``) UDF once on ``block``."""
    fn = op._fn
    if isinstance(fn, type):  # a callable class: build it as Ray would
        fn = fn(*(op._fn_constructor_args or ()),
                **(op._fn_constructor_kwargs or {}))
    fmt = op._batch_format
    if getattr(fn, "__qualname__", "").startswith("GroupedData.map_groups"):
        # Ray calls the map_groups UDF once per group and an empty
        # block has none: call it on the empty block as one group
        inner = inspect.getclosurevars(fn).nonlocals
        fn, fmt = inner["fn"], inner["batch_format"]
    out = fn(BlockAccessor.for_block(block).to_batch_format(fmt),
             *(op._fn_args or ()), **(op._fn_kwargs or {}))
    builder = DelegatingBlockBuilder()
    for batch in out if inspect.isgenerator(out) else [out]:
        builder.add_batch(batch)
    return builder.build()

