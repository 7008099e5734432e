"""The shared reduce and join helpers of stages/agg.py:
``partial_merge``, ``bucket_ids``, ``bucketed_map_groups`` and
``hash_join``."""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from ocr_pipeline_ray.stages import agg


# every aggregate, one of them over a column with nulls (count counts rows)
_SPEC = {"total": ("v2", "sum"), "lo": ("v", "min"), "hi": ("w", "max"),
         "n": ("w", "count")}


def _partial_blocks() -> list[pa.Table]:
    """Two 70,000-row blocks, more than one 65,536-row batch each, so
    several partials reach the driver; every key has rows in both."""
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(2):
        n = 70_000
        w = rng.normal(size=n)
        blocks.append(pa.table({
            "k": pa.array(rng.choice(["a", "b", "c"], n)),
            "j": pa.array(rng.integers(0, 2, n), pa.int64()),
            "v": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
            "w": pa.array(w, mask=rng.random(n) < 0.1)}))
    return blocks


@pytest.mark.parametrize("keys", [["k"], ["k", "j"], []])
def test_partial_merge_equals_pandas(keys):
    """Per-batch Arrow aggregate + driver merge == one pandas groupby
    over all rows (``count`` is pandas' ``size``); ``keys=[]`` is one
    global row."""
    blocks = _partial_blocks()
    got = agg.partial_merge(
        rd.from_arrow(blocks),
        lambda t: t.append_column("v2", pc.multiply(t["v"], 2)), keys,
        _SPEC)
    df = pa.concat_tables(blocks).to_pandas()
    df["v2"] = df["v"] * 2
    how = {"sum": "sum", "min": "min", "max": "max", "count": "size"}
    if keys:
        want = df.groupby(keys, as_index=False).agg(
            **{out: (col, how[h]) for out, (col, h) in _SPEC.items()})
        got = got.sort_values(keys).reset_index(drop=True)
    else:
        want = pd.DataFrame({out: [df[col].agg(how[h])]
                             for out, (col, h) in _SPEC.items()})
    pd.testing.assert_frame_equal(got[list(want.columns)], want)


def test_partial_merge_empty_spec_gives_distinct_keys():
    got = agg.partial_merge(rd.from_arrow(_partial_blocks()), lambda t: t,
                            ["k", "j"], {})
    assert sorted(map(tuple, got.values.tolist())) == \
        [(k, j) for k in "abc" for j in (0, 1)]


def test_partial_merge_keeps_a_null_key_group():
    """As SQL's GROUP BY does (pandas' default groupby drops it)."""
    t = pa.table({"k": ["x", None, None], "v": [1, 2, 3]})
    got = agg.partial_merge(rd.from_arrow(t), lambda t: t, ["k"],
                            {"n": ("v", "count")})
    assert dict(zip(got["k"], got["n"])) == {"x": 1, None: 2}


def test_partial_merge_of_only_empty_blocks_is_empty():
    """Ray maps no zero-row block, so no partial arrives: no rows, the
    spec's column names, ``keys=[]`` included."""
    empty = _partial_blocks()[0].slice(0, 0)
    for keys in (["k"], []):
        got = agg.partial_merge(rd.from_arrow([empty, empty]), lambda t: t,
                                keys, _SPEC)
        assert len(got) == 0
        assert list(got.columns) == keys + list(_SPEC)


@pytest.mark.parametrize("num_parts", [1, 3, 8, 4096])
def test_bucket_ids_match_zlib_crc32(num_parts):
    ids = ["", "a", "doc-00000001", "doc-00000042", "dóc-é✓",
           "x" * 300, "doc-00000001"] + [f"doc-{i:08d}" for i in range(500)]
    want = [zlib.crc32(d.encode()) % num_parts for d in ids]
    arr = pa.array(ids)
    assert agg.bucket_ids(arr, num_parts).tolist() == want
    chunked = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert agg.bucket_ids(chunked, num_parts).tolist() == want
    assert agg.bucket_ids(arr.slice(5, 4), num_parts).tolist() == \
        want[5:9]


@pytest.mark.parametrize("ids", [
    ["dóc-é✓", "日本語の文書", "naïve", "ß"],   # non-ASCII only
    ["", "", ""],                               # empty strings only
    ["y" * 300, "x" * 300, "y" * 299 + "z"],    # 300-char ids only
])
@pytest.mark.parametrize("typ", [pa.string(), pa.large_string(),
                                 pa.binary()])
def test_bucket_ids_edge_ids(ids, typ):
    """Batches made only of one kind of awkward id (the whole batch's
    byte loop runs 0 or 300 steps), in every string/binary type."""
    want = [zlib.crc32(d.encode()) % 64 for d in ids]
    col = pa.array([d.encode() for d in ids] if pa.types.is_binary(typ)
                   else ids, type=typ)
    assert agg.bucket_ids(col, 64).tolist() == want


def test_bucket_ids_empty_column():
    assert agg.bucket_ids(pa.array([], pa.string()), 8).tolist() == []
    assert agg.bucket_ids(pa.chunked_array([], pa.int64()), 8).tolist() == []


@pytest.mark.parametrize("k", [1, 7, 16, 64, 1024])
def test_bucket_ids_integer_keys_in_range_and_deterministic(k):
    rng = np.random.default_rng(0)
    keys = np.concatenate([
        np.arange(0, 10_000, 32),                      # strided run
        rng.integers(-2**62, 2**62, 1000),             # wide, signed
        np.array([0, -1, 2**63 - 1, -2**63])])
    in_int32 = (keys >= -2**31) & (keys < 2**31)
    for col in (pa.array(keys),
                pa.array(keys[in_int32].astype(np.int32)),
                pa.array(keys[keys >= 0].astype(np.uint64))):
        b = agg.bucket_ids(col, k)
        assert b.dtype == np.int64 and len(b) == len(col)
        assert ((b >= 0) & (b < k)).all()
        assert np.array_equal(b, agg.bucket_ids(col, k))
        # chunking does not change a row's bucket
        split = pa.chunked_array([col.slice(0, 10), col.slice(10)])
        assert np.array_equal(b, agg.bucket_ids(split, k))


def test_bucket_ids_spread_strided_integer_keys():
    # plain ``key % 16`` would put all of 0, 32, 64, ... in bucket 0
    strided = agg.bucket_ids(pa.array(np.arange(0, 10_000, 32)), 16)
    assert len(set(strided.tolist())) == 16


def test_bucket_ids_rejects_unhashed_types():
    with pytest.raises(TypeError):
        agg.bucket_ids(pa.array([1.5, 2.5]), 4)


def _group_sizes_fn():
    # built per test: Ray workers cannot import this test module, so
    # the UDF must be a closure (pickled by value)
    def _group_sizes(g: pd.DataFrame) -> pd.DataFrame:
        # one output row per key per call: a key split across two calls
        # would show up twice
        out = g.groupby("k", as_index=False).agg(n=("v", "size"),
                                                 total=("v", "sum"))
        out["n_buckets_seen"] = g["bucket"].nunique()
        return out
    return _group_sizes


@pytest.mark.parametrize("key_type", ["int", "str"])
def test_bucketed_map_groups_delivers_each_key_whole(key_type):
    """Keys spread over 12 blocks (every key has rows in every block)
    reach ``fn`` whole, in exactly one call, with one bucket per call."""
    n_keys, n_blocks = 97, 12
    rng = np.random.default_rng(1)
    frames = []
    for blk in range(n_blocks):
        ks = rng.permutation(n_keys)  # a different row order per block
        frames.append(pd.DataFrame({
            "k": ks if key_type == "int" else [f"key-{i}" for i in ks],
            "v": np.full(n_keys, blk + 1, dtype=np.int64)}))
    ds = rd.from_pandas(frames)
    assert ds.num_blocks() >= 8
    out = agg.bucketed_map_groups(ds, "k", _group_sizes_fn(), 8).to_pandas()
    assert len(out) == n_keys
    assert out["k"].nunique() == n_keys
    assert (out["n"] == n_blocks).all()
    assert (out["total"] == sum(range(1, n_blocks + 1))).all()
    assert (out["n_buckets_seen"] == 1).all()


def test_bucketed_map_groups_names_the_operator_after_fn():
    """Operator-name contract: materialized stats name the user's fn
    (the benchmark's per-operator probes match on it)."""
    ds = rd.from_pandas([pd.DataFrame({"k": [1, 2, 3], "v": [1, 1, 1]}),
                         pd.DataFrame({"k": [3, 4], "v": [1, 1]})])
    out = agg.bucketed_map_groups(ds, "k", _group_sizes_fn(), 4).materialize()
    assert "_group_sizes" in out.stats()


def test_partitions_for_follows_input_bytes():
    floor = rd.DataContext.get_current().target_min_block_size
    assert agg.partitions_for(0) == 1
    assert agg.partitions_for(floor - 1) == 1
    assert agg.partitions_for(floor) == 8
    assert agg.partitions_for(20 * (128 << 20)) == 21
    assert agg.partitions_for(1 << 50) == 512


# Few distinct keys on each side, so some of a 4-partition join's
# partitions get no rows from a side and depend on its broadcast schema.
_LEFT = pa.table({"k": pa.array([i % 4 for i in range(16)] + [None],
                                pa.int64()),
                  "s": [f"l{i}" for i in range(17)]})
_RIGHT = pa.table({"k2": pa.array([2, 7], pa.int64()), "b": [2.0, 7.0]})


def _bucketed_left():
    """``_LEFT``'s keyed rows as ``bucketed_map_groups`` output: 16
    one-row blocks into 4 buckets, so most of its blocks have no rows
    and no schema."""
    def rows(g: pd.DataFrame) -> pd.DataFrame:
        return g[["k", "s"]]

    keyed = _LEFT.slice(0, 16)
    return agg.bucketed_map_groups(
        rd.from_arrow([keyed.slice(i, 1) for i in range(16)]), "k", rows,
        4), keyed


def _join_case(case):
    empty_l, empty_r = _LEFT.slice(0, 0), _RIGHT.slice(0, 0)
    if case == "empty_first_left":
        return rd.from_arrow([empty_l, _LEFT]), _LEFT, \
            rd.from_arrow(_RIGHT), _RIGHT
    if case == "empty_first_right":
        return rd.from_arrow(_LEFT), _LEFT, \
            rd.from_arrow([empty_r, _RIGHT]), _RIGHT
    if case == "zero_row_left":
        return rd.from_arrow(empty_l), empty_l, rd.from_arrow(_RIGHT), _RIGHT
    if case == "zero_row_right":
        return rd.from_arrow(_LEFT), _LEFT, rd.from_arrow(empty_r), empty_r
    left, keyed = _bucketed_left()
    return left, keyed, rd.from_arrow(_RIGHT), _RIGHT


@pytest.mark.parametrize("case", ["empty_first_left", "empty_first_right",
                                  "zero_row_left", "zero_row_right",
                                  "bucketed_left"])
@pytest.mark.parametrize("join_type", ["inner", "left_outer", "left_anti"])
def test_hash_join_equals_arrow_join(join_type, case):
    """Every case here raised ``ArrowInvalid`` through a plain
    ``Dataset.join`` over 4 partitions: the first block a side sends
    has no rows (or the side has none). ``hash_join`` over 4 partitions
    (the input bytes ask for 9, the 4-CPU session caps them) equals
    ``pa.Table.join`` over the same rows; the left's null key row is
    kept where the join type keeps it."""
    left, left_rows, right, right_rows = _join_case(case)
    want = left_rows.join(right_rows, keys="k", right_keys="k2",
                          join_type=join_type.replace("_", " ")) \
        .to_pandas()
    got = agg.hash_join(left, right, join_type=join_type, on=("k",),
                        right_on=("k2",), nbytes=1 << 30).to_pandas()
    assert len(got) == len(want)
    if len(want):
        assert sorted(got.columns) == sorted(want.columns)
        pd.testing.assert_frame_equal(
            got[list(want.columns)].sort_values("s").reset_index(drop=True),
            want.sort_values("s").reset_index(drop=True),
            check_dtype=False)
