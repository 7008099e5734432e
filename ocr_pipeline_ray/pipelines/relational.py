"""Relational operator suite over the TPC-H-ish testdata tables.

Demonstrates the engine's general query capabilities — grouped
aggregation with partial pre-aggregation, broadcast joins of dimension
tables, hash joins (inner and anti) of fact tables, a broadcast
semi-join, sort/top-k, distinct — each expressed Ray-Data-first and
paired with a DuckDB oracle in ``__ray_entry__.oracle_sql`` (the
driver's correctness gate).

Scale notes (100 TB design):
- every read prunes columns (``columns=[...]``) and pushes filters
  into the parquet scan where possible;
- bounded-key aggregates state their aggregates once and run through
  ``stages/agg.partial_merge``: each batch collapses to one row per
  key inside ``map_batches`` and the driver merges the partials, so
  one row per (key, batch) leaves the workers, not one per input row;
- dimension sides (customer, nation, the filtered customer key set)
  are broadcast via ``ray.put`` once and read per task, never
  re-shipped per batch and never shuffled; fact tables (orders,
  lineitem) meet only in ``stages/agg.hash_join``, never broadcast.

Float determinism: distributed summation order differs from DuckDB's,
so any float sum would differ in the last ulp and can flip a rounded
digit (value-hash mismatch). Every summed float is therefore quantized
per row to an exact int64 (``round(x * 1e6)`` — both engines compute
the identical double then the identical integer), summed exactly and
order-independently in integer domain, and divided back in a fixed
operation order. Outputs need no rounding: the doubles are
bit-identical to the oracle's.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..stages.agg import (bucketed_map_groups, hash_join, partial_merge,
                          reduce_buckets, table_bytes)

SCALE = 1_000_000.0


def _i64(x: np.ndarray) -> np.ndarray:
    """Exact per-row quantization: identical in DuckDB as
    CAST(floor(x * 1000000 + 0.5) AS BIGINT). floor(x+0.5) (half-up)
    instead of round(): numpy rounds half-to-even while DuckDB rounds
    half-away, and exact .5 boundaries do occur (dyadic-rational
    scores), so round() would disagree between engines."""
    return np.floor(np.asarray(x, dtype=np.float64) * SCALE + 0.5).astype(np.int64)


def bucketed_sum_topk(ds, *, key: str, carry: str, val: str, k: int,
                      num_buckets: int = 16) -> pd.DataFrame:
    """KEY-COMPLETE per-key sum + global top-k over a Dataset of
    per-key PARTIALS (``(key, carry, val)`` rows, any fragmentation):
    ``bucketed_map_groups`` on the key (each key's rows arrive whole,
    so per-key totals are exact regardless of how the upstream
    join/map fragmented its blocks), top-k per bucket, then a driver
    merge of num_buckets × k rows. The scale-safe replacement for
    per-block top-k, which silently under-counts any key whose rows
    span two blocks."""
    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby([key, carry], as_index=False)[val].sum()
        return s.sort_values([val, key], ascending=[False, True]).head(k)

    tops = bucketed_map_groups(ds, key, bucket_topk, num_buckets).to_pandas()
    if tops.empty:
        return pd.DataFrame(columns=[key, carry, val])
    return tops[[key, carry, val]]


def bucketed_distinct_count(ds, *, key: str, by: str,
                            num_buckets: int = 16) -> pd.DataFrame:
    """KEY-COMPLETE ``count(DISTINCT key) GROUP BY by`` over a Dataset
    whose rows may repeat a key across blocks (EXISTS-style semantics;
    each key carries ONE ``by`` value). Per-batch dedup is a combiner
    (idempotent shrink), the bucket groupby dedups exactly, and the
    driver sums num_buckets × |by| partial counts."""
    def dedup_partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({key: t[key].to_numpy(),
                           by: t[by].to_pylist()}).drop_duplicates(key)
        return pa.Table.from_pandas(df, preserve_index=False) \
            .replace_schema_metadata()

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(key)
        c = d.groupby(by, as_index=False).agg(n=(key, "size"))
        return c

    parts = bucketed_map_groups(
        ds.map_batches(dedup_partial, batch_format="pyarrow"), key,
        bucket_count, num_buckets).to_pandas()
    if parts.empty:
        return pd.DataFrame({by: pd.Series([], dtype="object"),
                             "n": pd.Series([], dtype="int64")})
    return parts.groupby(by, as_index=False)["n"].sum()


def _lineitem(sf_dir: str, columns: list[str], filter_expr=None):
    return rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=columns,
                           filter=filter_expr)


# --- q1: pricing summary (grouped agg with partial pre-aggregation) ---

def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """Per (returnflag, linestatus): sums/avgs/counts, TPC-H Q1 shape."""
    cols = ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax"]
    ds = _lineitem(sf_dir, cols)

    def rows(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        tax = t["l_tax"].to_numpy()
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty_i": _i64(t["l_quantity"].to_numpy()),
            "base_i": _i64(ext),
            "disc_price_i": _i64(ext * (1 - disc)),
            "charge_i": _i64(ext * (1 - disc) * (1 + tax)),
            "disc_i": _i64(disc),
        })

    # cardinality: (returnflag, linestatus) = 6 groups — bounded
    sums = ["qty_i", "base_i", "disc_price_i", "charge_i", "disc_i"]
    out = partial_merge(
        ds, rows, keys=["l_returnflag", "l_linestatus"],
        spec={**{c: (c, "sum") for c in sums},
              "count_order": ("qty_i", "count")})
    n = out["count_order"].astype("float64")
    out["sum_qty"] = out["qty_i"] / SCALE
    out["sum_base_price"] = out["base_i"] / SCALE
    out["sum_disc_price"] = out["disc_price_i"] / SCALE
    out["sum_charge"] = out["charge_i"] / SCALE
    out["avg_qty"] = (out["qty_i"] / SCALE) / n
    out["avg_price"] = (out["base_i"] / SCALE) / n
    out["avg_disc"] = (out["disc_i"] / SCALE) / n
    out = out[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "sum_charge", "count_order", "avg_qty",
               "avg_price", "avg_disc"]]
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


# --- q3: semi-join + hash-join shipping priority ---

def _li_rev_partial(sf_dir: str):
    """lineitem → per-batch pre-aggregated (l_orderkey, rev_i): the
    combiner runs before the shuffle, so the join moves one row per
    (orderkey, batch) instead of per lineitem."""
    ds = _lineitem(sf_dir, ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        ext = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        df = pd.DataFrame({"l_orderkey": t["l_orderkey"].to_numpy(),
                           "rev_i": _i64(ext * (1 - disc))})
        g = df.groupby("l_orderkey", as_index=False)["rev_i"].sum()
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata()

    return ds.map_batches(partial, batch_format="pyarrow")


def q3_top_revenue_orders(sf_dir: str) -> pd.DataFrame:
    """BUILDING-segment customers ⋈ orders ⋈ lineitem → top-10 revenue.

    Scale shape (orders is a FACT table — 1.5B rows at sf1000 — so no
    orders-keyed driver dict / broadcast set anywhere):
    1. the BUILDING customer KEYS are a filtered DIMENSION column →
       broadcast once as zero-copy Arrow and semi-filter orders with
       ``pc.is_in`` per batch (broadcast semi-join; at a scale where
       even the filtered customer keys outgrow workers, swap for a
       ``left_semi`` Dataset.join);
    2. lineitem (pre-aggregated per batch) inner-join the surviving
       orders on orderkey;
    3. KEY-COMPLETE final sum + top-10: the joined partials are
       reduced per hash bucket of the orderkey
       (``bucketed_map_groups``) — groupby guarantees each group
       arrives whole, so per-orderkey totals are complete by
       construction. (The previous per-BLOCK reduction leaned on the
       undocumented "one block per join partition" invariant of Ray
       2.49's hash shuffle; if a fat partition ever splits into
       multiple blocks, an orderkey's partials fragment and a
       per-block top-k silently under-counts. See
       tests/test_join_completeness.py.) Driver merges
       num_buckets × 10 rows."""
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    building = cust.filter(
        pc.equal(cust["c_mktsegment"], "BUILDING"))["c_custkey"]
    bkeys_ref = ray.put(building.combine_chunks())

    def semi_building(t: pa.Table) -> pa.Table:
        keys = ray.get(bkeys_ref)  # zero-copy Arrow from the object store
        return t.filter(pc.is_in(t["o_custkey"], value_set=keys)) \
            .select(["o_orderkey", "o_orderdate"])

    orders_b = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]) \
        .map_batches(semi_building, batch_format="pyarrow")

    joined = hash_join(_li_rev_partial(sf_dir), orders_b, join_type="inner",
                       on=("l_orderkey",), right_on=("o_orderkey",),
                       nbytes=table_bytes(sf_dir, "lineitem", "orders"))

    per_order = bucketed_sum_topk(
        joined, key="l_orderkey", carry="o_orderdate", val="rev_i", k=10,
        num_buckets=reduce_buckets(sf_dir, "lineitem", "orders"))
    per_order["revenue"] = per_order["rev_i"] / SCALE
    # timestamps leave as strings so value hashing is resolution-proof
    per_order["o_orderdate"] = pd.to_datetime(per_order["o_orderdate"]) \
        .dt.strftime("%Y-%m-%d %H:%M:%S")
    top = per_order.sort_values(["revenue", "l_orderkey"],
                                ascending=[False, True]).head(10)
    return top[["l_orderkey", "o_orderdate", "revenue"]].reset_index(drop=True)


# --- q5: nation revenue: broadcast the DIMENSION, join the FACTS ---

def q5_nation_revenue(sf_dir: str) -> pd.DataFrame:
    """region→nation→customer→orders chain onto the lineitem fact scan.

    customer and nation are dimension tables → broadcast as zero-copy
    Arrow (ray.put once, pc.index_in per batch; at a scale where even
    customer outgrows workers, swap the map for another hash join).
    orders⋈lineitem is FACT⋈FACT → hash-partitioned ``Dataset.join``,
    never an orders-keyed dict (1.5B entries at sf1000). The final
    rollup is 25 keys → per-batch partials + driver merge."""
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nation_name = dict(zip(nation["n_nationkey"].to_pylist(),
                           nation["n_name"].to_pylist()))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    cust_ref = ray.put(cust.combine_chunks())

    def attach_nation(t: pa.Table) -> pa.Table:
        c = ray.get(cust_ref)  # zero-copy from the object store
        idx = pc.index_in(t["o_custkey"], value_set=c["c_custkey"])
        out = pa.table({"o_orderkey": t["o_orderkey"],
                        "n_nationkey": pc.take(c["c_nationkey"], idx)})
        # inner-join semantics: drop orders with no matching customer
        return out.filter(pc.is_valid(out["n_nationkey"]))

    orders_nat = rd.read_parquet(f"{sf_dir}/orders.parquet",
                                 columns=["o_orderkey", "o_custkey"]) \
        .map_batches(attach_nation, batch_format="pyarrow")

    joined = hash_join(_li_rev_partial(sf_dir), orders_nat,
                       join_type="inner", on=("l_orderkey",),
                       right_on=("o_orderkey",),
                       nbytes=table_bytes(sf_dir, "lineitem", "orders"))

    # cardinality: n_nationkey = 25 groups — bounded
    out = partial_merge(joined, lambda t: t, keys=["n_nationkey"],
                        spec={"rev_i": ("rev_i", "sum")})
    out["n_name"] = out["n_nationkey"].map(nation_name)
    out["revenue"] = out["rev_i"] / SCALE
    return out[["n_name", "revenue"]].sort_values("n_name").reset_index(drop=True)


# --- q6: forecast revenue (filter + global sum) ---

def q6_forecast_revenue(sf_dir: str) -> pd.DataFrame:
    ds = _lineitem(
        sf_dir, ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        filter_expr=(
            (pads.field("l_shipdate") >= pa.scalar(pd.Timestamp("1995-01-01")))
            & (pads.field("l_shipdate") < pa.scalar(pd.Timestamp("1996-01-01")))
            & (pads.field("l_discount") >= 0.03)
            & (pads.field("l_discount") <= 0.07)
            & (pads.field("l_quantity") < 24)
        ),
    )

    def rows(t: pa.Table) -> pa.Table:
        return pa.table({"rev_i": _i64(t["l_extendedprice"].to_numpy()
                                       * t["l_discount"].to_numpy())})

    # one global row, or none when no row passes the filter: revenue 0
    total = partial_merge(ds, rows, keys=[],
                          spec={"rev_i": ("rev_i", "sum")})["rev_i"].sum()
    return pd.DataFrame([{"revenue": int(total) / SCALE}])


# --- top-k / sort ---

def top10_orders_by_price(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    # per-batch top-k, then a tiny global top-k — no full sort shuffle
    def topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]).head(10)
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata()

    out = ds.map_batches(topk, batch_format="pyarrow", batch_size=65536).to_pandas()
    out = out.sort_values(["o_totalprice", "o_orderkey"],
                          ascending=[False, True]).head(10)
    return out.reset_index(drop=True)


# --- grouped aggregate over a dimension table ---

def customer_segment_stats(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(f"{sf_dir}/customer.parquet",
                         columns=["c_mktsegment", "c_acctbal"])

    def rows(t: pa.Table) -> pa.Table:
        return t.append_column("bal_i", pa.array(
            _i64(t["c_acctbal"].to_numpy())))

    # cardinality: c_mktsegment = 5 groups — bounded
    out = partial_merge(ds, rows, keys=["c_mktsegment"],
                        spec={"bal_i": ("bal_i", "sum"),
                              "n_customers": ("bal_i", "count"),
                              "min_acctbal": ("c_acctbal", "min"),
                              "max_acctbal": ("c_acctbal", "max")})
    out["avg_acctbal"] = (out["bal_i"] / SCALE) / out["n_customers"].astype("float64")
    out = out[["c_mktsegment", "n_customers", "avg_acctbal",
               "min_acctbal", "max_acctbal"]]
    return out.sort_values("c_mktsegment").reset_index(drop=True)


# --- semi-join via FACT⋈FACT hash join + per-partition distinct ---

def late_shipment_order_priority(sf_dir: str) -> pd.DataFrame:
    """Orders with ≥1 lineitem shipped >60 days after order date,
    counted per priority.

    orders is fact-sized, so the order dates travel through a
    hash-partitioned ``Dataset.join`` (never an all-orders driver
    dict). The EXISTS-dedup (count DISTINCT orderkey per priority) is
    KEY-COMPLETE: late rows are deduped per batch (combiner), then
    deduped exactly per orderkey hash bucket inside
    ``bucketed_map_groups`` — no reliance on the join emitting
    one block per partition (see q3 note / tests/
    test_join_completeness.py). Driver sums 16 × 5 partial counts."""
    li = _lineitem(sf_dir, ["l_orderkey", "l_shipdate"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = hash_join(li, orders, join_type="inner", on=("l_orderkey",),
                       right_on=("o_orderkey",),
                       nbytes=table_bytes(sf_dir, "lineitem", "orders"))

    def late_only(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy()
        odate = t["o_orderdate"].to_numpy()
        late = (ship - odate) > np.timedelta64(60 * 86400, "s")
        return t.filter(pa.array(late)) \
            .select(["l_orderkey", "o_orderpriority"])

    out = bucketed_distinct_count(
        joined.map_batches(late_only, batch_format="pyarrow"),
        key="l_orderkey", by="o_orderpriority",
        num_buckets=reduce_buckets(sf_dir, "lineitem", "orders"))
    out = out.rename(columns={"n": "n_orders"})
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


# --- anti-join (Dataset.join left_anti) ---

def customers_without_orders(sf_dir: str) -> pd.DataFrame:
    """customer ANTI orders on custkey via the hash-partitioned
    ``left_anti`` join (no broadcast of the fact-sized orders key set);
    the orders side is pre-deduped per batch to shrink the shuffle."""
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])

    def batch_distinct(t: pa.Table) -> pa.Table:
        return pa.table({"o_custkey": pc.unique(t["o_custkey"])})

    order_keys = rd.read_parquet(f"{sf_dir}/orders.parquet",
                                 columns=["o_custkey"]) \
        .map_batches(batch_distinct, batch_format="pyarrow")
    anti = hash_join(cust, order_keys, join_type="left_anti",
                     on=("c_custkey",), right_on=("o_custkey",),
                     nbytes=table_bytes(sf_dir, "customer", "orders"))

    # cardinality: c_mktsegment = 5 groups — bounded
    out = partial_merge(anti, lambda t: t, keys=["c_mktsegment"],
                        spec={"n_customers": ("c_mktsegment", "count")})
    if out.empty:  # empty aggregates lose their schema on to_pandas
        return pd.DataFrame({"c_mktsegment": pd.Series([], dtype="object"),
                             "n_customers": pd.Series([], dtype="int64")})
    return out.sort_values("c_mktsegment").reset_index(drop=True)


# --- global sort (the Ray AllToAll sort operator itself) ---

def sorted_orders_top100(sf_dir: str) -> pd.DataFrame:
    """True distributed sort (``ds.sort`` range-partitioned AllToAll) →
    limit. top10_orders_by_price shows the cheap per-batch-top-k
    pattern; this one exercises the engine's global sort operator."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    out = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]) \
        .limit(100).to_pandas()
    return out.reset_index(drop=True)


# --- hash join (Dataset.join) ---

def orders_join_customer_stats(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer via the hash-partitioned ``Dataset.join`` →
    per-segment order count + exact total. (The broadcast pattern in
    q3/q5 is usually better for a small dimension side; this entry
    exercises the shuffle join itself.)"""
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])

    def quantize(t: pa.Table) -> pa.Table:
        return t.append_column(
            "price_i", pa.array(_i64(t["o_totalprice"].to_numpy()),
                                type=pa.int64()))

    orders = orders.map_batches(quantize, batch_format="pyarrow") \
        .select_columns(["o_custkey", "price_i"])
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(orders, customer, join_type="inner",
                       on=("o_custkey",), right_on=("c_custkey",),
                       nbytes=table_bytes(sf_dir, "orders", "customer"))

    # cardinality: c_mktsegment = 5 groups — bounded
    out = partial_merge(joined, lambda t: t, keys=["c_mktsegment"],
                        spec={"n_orders": ("price_i", "count"),
                              "price_i": ("price_i", "sum")})
    out["total_price"] = out["price_i"] / SCALE
    out = out[["c_mktsegment", "n_orders", "total_price"]]
    return out.sort_values("c_mktsegment").reset_index(drop=True)


# --- multi-column distinct ---

def distinct_lang_source(sf_dir: str) -> pd.DataFrame:
    """DISTINCT over two columns: ``partial_merge`` with an empty spec
    (per-batch distinct keys, merged on the driver; single-column
    distinct uses ds.unique in distinct_part_types)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source"])
    out = partial_merge(ds, lambda t: t, keys=["lang", "source"], spec={})
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


# --- seeded sampling (rows-only: sampler is engine-defined) ---

def sample_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic 20% systematic sample (doc_id % 5 == 0): stable
    across engines and re-runs, unlike ds.random_sample whose seeded
    stream is engine-version-defined. For key-hash sampling at scale
    use ``stages.agg.bucket_ids(key, k)`` inside the same map_batches
    shape."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])

    def pick(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        return t.filter(pa.array(ids % 5 == 0))

    out = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# --- dimension-chain rollups (cover region + supplier tables) ---

def region_nation_counts(sf_dir: str) -> pd.DataFrame:
    """region ⋈ nation rollup: nations per region (broadcast join of two
    tiny dimension tables — read driver-side, compute distributed-free;
    the degenerate-but-correct plan for dimension-only queries)."""
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    out = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey") \
        .groupby("r_name", as_index=False).agg(n_nations=("n_nationkey", "size"))
    out["n_nations"] = out["n_nations"].astype("int64")
    return out.sort_values("r_name").reset_index(drop=True)


def supplier_nation_stats(sf_dir: str) -> pd.DataFrame:
    """supplier ⋈ nation: per-nation supplier count + exact balance sum."""
    ds = rd.read_parquet(f"{sf_dir}/supplier.parquet",
                         columns=["s_nationkey", "s_acctbal"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    name_of = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))

    def rows(t: pa.Table) -> pa.Table:
        return pa.table({"s_nationkey": t["s_nationkey"],
                         "bal_i": _i64(t["s_acctbal"].to_numpy())})

    # cardinality: s_nationkey = 25 groups — bounded
    out = partial_merge(ds, rows, keys=["s_nationkey"],
                        spec={"n_suppliers": ("bal_i", "count"),
                              "bal_i": ("bal_i", "sum")})
    out["n_name"] = out["s_nationkey"].map(name_of)
    out["total_acctbal"] = out["bal_i"] / SCALE
    out = out[["n_name", "n_suppliers", "total_acctbal"]]
    return out.sort_values("n_name").reset_index(drop=True)


# --- distinct ---

def distinct_part_types(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_type"])
    vals = sorted(ds.unique("p_type"))
    return pd.DataFrame({"p_type": vals})


# --- part stats ---

def part_brand_stats(sf_dir: str) -> pd.DataFrame:
    ds = rd.read_parquet(f"{sf_dir}/part.parquet",
                         columns=["p_brand", "p_retailprice", "p_size"])

    def rows(t: pa.Table) -> pa.Table:
        return t.append_column("price_i", pa.array(
            _i64(t["p_retailprice"].to_numpy())))

    # cardinality: p_brand = 25 groups — bounded
    out = partial_merge(ds, rows, keys=["p_brand"],
                        spec={"price_i": ("price_i", "sum"),
                              "n_parts": ("price_i", "count"),
                              "max_size": ("p_size", "max")})
    out["avg_price"] = (out["price_i"] / SCALE) / out["n_parts"].astype("float64")
    out = out[["p_brand", "n_parts", "avg_price", "max_size"]]
    return out.sort_values("p_brand").reset_index(drop=True)
