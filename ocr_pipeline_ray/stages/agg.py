"""How the engine reduces by key: two shapes, one module.

1. Partial-aggregate → tiny driver-side merge (``partial_merge``).
   A query states its aggregates once, as a spec of
   ``out_col -> (in_col, how)`` with how in sum / min / max / count
   (count counts rows, nulls included), and ``partial_merge`` runs both
   phases in Arrow with it. The DISTRIBUTED pass does all per-row work
   (the query's ``rows`` function) and collapses each batch to one row
   per key with ``group_by(keys).aggregate`` inside ``map_batches``
   (so the wire carries ~n_keys × n_batches rows, not n_input rows);
   the driver folds those partials with the merge of each aggregate
   (count and sum are summed, min and max kept). ``keys=[]`` is a
   global aggregate (one row), an empty spec the distinct keys. Use it
   for bounded-cardinality keys (dashboard rollups). Arrow's
   ``group_by`` keeps a null key as its own group, as SQL's
   ``GROUP BY`` does.

   Why not ``ds.groupby(...).aggregate(...)`` for the final combine:
   Ray Data's sort-based aggregate costs ~10 s of fixed overhead per
   call at any size (measured: 20.9 s for a 3,385-row final aggregate
   — AggregateMap 9.4 s + AggregateReduce 8.9 s on one block), which
   is pure loss when the partials already fit on the driver.

2. Hash-bucketed ``map_groups`` (``bucketed_map_groups``), for when
   group *contents* must be processed together at scale (per-document
   reassembly, per-doc field extraction, dedup, sessionization) or the
   key domain is unbounded. The key is hashed into ``num_buckets``
   int64 buckets (``bucket_ids``), the Dataset is grouped by that
   bucket, and ``fn`` gets each bucket's rows as ONE pandas frame —
   every key's rows arrive whole in exactly one call, and ``fn``
   handles all of the bucket's keys in one vectorized pass. Grouping
   by a bounded int64 is far cheaper for Ray's sort-based shuffle than
   a raw (often utf8, mostly-singleton) key, which pays a string sort
   plus one tiny frame per key. A multi-column group key needs no
   composite hash: bucketing on any one of its columns keeps each
   group in one bucket.

Every hash join of the package goes through ``hash_join``, which owns
the partition count, the aggregator resources and the guard for two
facts of Ray 2.49.2's hash shuffle:

- ``_shuffle_block`` sends no shard for a zero-row block
  (``ray/data/_internal/execution/operators/hash_shuffle.py:222-224``),
  yet ``_do_add_input_inner`` marks a side's schema as broadcast at
  that side's first block (``:548``, ``:588-589``). So when the first
  block a side sends has no rows, join partitions get no columns for
  that side and the join raises ``ArrowInvalid: No match … FieldRef``;
  a side with no rows at all fails the same way.
- A map cannot repair such a block: Ray never calls a UDF on a
  zero-row block, it passes the block on as it is
  (``ray/data/_internal/planner/plan_udf_map_op.py:455-462``).

So ``hash_join`` puts one all-null row ahead of each side, the block
the shuffle sees first, and drops the left one after the join.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

_PART_BYTES = 128 << 20   # on-disk input bytes per join partition / bucket


# how -> the aggregate that merges its partials
_MERGE = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def _group(t: pa.Table, keys: list[str], aggs: list[tuple],
           names: list[str]) -> pa.Table:
    return t.group_by(keys).aggregate(aggs).rename_columns(keys + names)


def partial_merge(ds, rows: Callable, keys: list[str],
                  spec: dict[str, tuple[str, str]]) -> pd.DataFrame:
    """Shape 1 (see module docstring): ``rows(batch) -> pa.Table`` gives
    the per-row columns, ``spec`` maps each output column to
    ``(in_col, how)``. Returns one row per key (pandas); empty, with the
    spec's column names, when no batch arrives."""
    names = list(spec)
    # count counts rows: nulls too, and whatever its column
    combine = [([], "count_all") if how == "count" else (col, how)
               for col, how in spec.values()]
    merge = [(out, _MERGE[how]) for out, (_col, how) in spec.items()]

    def partial(t: pa.Table) -> pa.Table:
        return _group(rows(t), keys, combine, names)

    out = None
    # folded per partial: driver memory stays n_keys + one partial
    for part in ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=65536) \
            .iter_batches(batch_format="pyarrow", batch_size=None):
        out = part if out is None else \
            _group(pa.concat_tables([out, part]), keys, merge, names)
    if out is None:
        return pd.DataFrame(columns=keys + names)
    return out.to_pandas()


def _crc32_byte_table() -> np.ndarray:
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, (c >> 1) ^ np.uint32(0xEDB88320), c >> 1)
    return c


_CRC32_TABLE = _crc32_byte_table()


def _crc32_buckets(col: pa.Array, num_buckets: int) -> np.ndarray:
    """zlib's ``crc32(s.encode()) % num_buckets`` per row, vectorized:
    the distinct values are hashed by a table-driven CRC-32 that
    advances every value by one byte per numpy step (keys are short),
    then mapped back to the rows."""
    enc = col.dictionary_encode()
    ids = enc.dictionary.cast(pa.large_binary())
    if len(ids) == 0:
        return np.zeros(len(col), dtype=np.int64)
    _, offs_buf, data_buf = ids.buffers()
    offs = np.frombuffer(offs_buf, dtype=np.int64)[
        ids.offset:ids.offset + len(ids) + 1]
    data = np.frombuffer(data_buf or b"", dtype=np.uint8)
    starts, lens = offs[:-1], np.diff(offs)
    crc = np.full(len(ids), 0xFFFFFFFF, dtype=np.uint32)
    for j in range(int(lens.max())):
        live = np.flatnonzero(lens > j)
        c = crc[live]
        crc[live] = _CRC32_TABLE[(c ^ data[starts[live] + j]) & 0xFF] ^ (c >> 8)
    buckets = ((crc ^ np.uint32(0xFFFFFFFF)) % num_buckets).astype(np.int64)
    return buckets[enc.indices.to_numpy(zero_copy_only=False)]


def _fibonacci_buckets(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Fibonacci multiplicative hash → bucket id. Int keys are often
    strided/clustered (TPC-H orderkeys skip in runs), so a plain
    ``key % k`` can land whole runs in one bucket; the golden-ratio
    multiply decorrelates the low bits first."""
    mixed = (keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) \
        >> np.uint64(32)
    return (mixed % np.uint64(num_buckets)).astype(np.int64)


def bucket_ids(col, num_buckets: int) -> np.ndarray:
    """Stable (never per-process randomized) int64 bucket in
    ``[0, num_buckets)`` per row of an Arrow column. The hash follows
    the Arrow type: string/binary keys take CRC-32 (equal to zlib's
    ``crc32(key.encode()) % num_buckets``), integer keys the Fibonacci
    multiplicative mix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_integer(t):
        return _fibonacci_buckets(col.to_numpy(zero_copy_only=False),
                                  num_buckets)
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return _crc32_buckets(col, num_buckets)
    raise TypeError(f"no bucket hash for Arrow type {t}")


def bucketed_map_groups(ds, key: str, fn: Callable, num_buckets: int):
    """Shape 2 (see module docstring): ``fn(frame) -> frame`` runs once
    per hash bucket of ``key`` with all of the bucket's rows, plus an
    int64 ``bucket`` column. ``fn`` is passed to ``map_groups`` as is,
    so Ray names the operator after it."""
    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("bucket", pa.array(
            bucket_ids(t[key], num_buckets), type=pa.int64()))

    return ds.map_batches(add_bucket, batch_format="pyarrow") \
        .groupby("bucket").map_groups(fn, batch_format="pandas")


def cluster_cpus() -> int:
    return int(ray.cluster_resources().get("CPU", 1))


def table_bytes(sf_dir: str, *tables: str) -> int:
    return sum(os.path.getsize(f"{sf_dir}/{t}.parquet") for t in tables)


def reduce_buckets(sf_dir: str, *tables: str) -> int:
    """Buckets for a key-complete reduce over ``tables``: one per ~128 MB
    on disk, floor 16, so a bucket's pandas frame stays bounded as the
    input grows."""
    return max(16, min(1024, table_bytes(sf_dir, *tables) // _PART_BYTES + 1))


def partitions_for(nbytes: int) -> int:
    """Shuffle partitions for ``nbytes`` of on-disk input: one under
    ``DataContext.target_min_block_size`` (the rows fit one block, and
    each partition starts an aggregator actor), else ~one per 128 MB,
    8 to 512 (measured: 64 aggregators ran 2× slower than 32 at
    sf0.01; 8 would serialize a 100 TB join)."""
    if nbytes < rd.DataContext.get_current().target_min_block_size:
        return 1
    return max(8, min(512, nbytes // _PART_BYTES + 1))


_PAD = "__pad"   # True on the left pad row; real left rows lack the column


def _null_row(ds) -> pa.Table:
    """One all-null row of ``ds``'s columns, typed as the shuffle sees
    them: a pandas block's ``object`` column is typed by Arrow."""
    schema = ds.schema()
    if object in schema.types:
        schema = ds.map_batches(lambda t: t, batch_format="pyarrow").schema()
    return pa.table({n: pa.nulls(1, t)
                     for n, t in zip(schema.names, schema.types)})


def hash_join(left, right, *, join_type: str, on: tuple[str, ...],
              right_on: tuple[str, ...], nbytes: int):
    """``left.join(right)`` (inner, left_outer or left_anti) over
    ``partitions_for(nbytes)`` partitions capped at the cluster's CPUs,
    each with a 0.1-CPU aggregator: aggregators that outgrow the free
    CPU starve the map tasks feeding them into a deadlock.

    Each side sends one all-null row first (module docstring). Its null
    key matches nothing. The left one, kept by outer and anti joins,
    also has a ``_PAD`` column, which the shuffle's concatenation gives
    every real left row as null: the rows where it is set are dropped
    after the join, and the column with them. ``schema()`` runs the
    first block of a side whose schema is not known yet."""
    def unpad(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_null(t[_PAD])).drop_columns([_PAD])

    left_pad = _null_row(left).append_column(_PAD, pa.array([True]))
    return rd.from_arrow(left_pad).union(left) \
        .join(rd.from_arrow(_null_row(right)).union(right),
              join_type=join_type, on=on, right_on=right_on,
              num_partitions=min(partitions_for(nbytes), cluster_cpus()),
              aggregator_ray_remote_args={"num_cpus": 0.1}) \
        .map_batches(unpad, batch_format="pyarrow")
