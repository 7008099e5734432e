"""Stream-shaped operators over the ``events`` table.

Ray Data is a batch engine; windowing is expressed as data (bucket
columns) + ``groupby``: tumbling windows become truncated-timestamp
group keys, sessions/running totals become per-key ``map_groups`` over
ts-sorted groups (the ordering is data, not an executor property —
same principle as the reassembly stage). An as-of join is a per-key
``pandas.merge_asof`` after co-partitioning.

Scale: the only shuffles are ``bucketed_map_groups`` reduces keyed on
the hour or on user_id; hourly pre-aggregation happens per batch
before the shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..stages.agg import bucketed_map_groups, reduce_buckets


def _events(sf_dir: str, columns: list[str]):
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window per event_type: count + sum(value).
    Pre-aggregated per batch (combiner — the shuffle moves one row per
    (type, hour, batch), never per event); the final combine is
    ``bucketed_map_groups`` keyed on ``hour`` (every (type, hour) group
    stays in its hour's bucket), so the merge work is distributed
    across bucket tasks and the driver receives only the output-sized
    result — the (type, hour) key domain GROWS with the time span
    (decades of data ≈ millions of keys), so an n_batches × keys
    driver merge is the wrong shape at scale."""
    num_buckets = reduce_buckets(sf_dir, "events")
    ds = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # hour bucket as string → resolution-proof value hashing vs the oracle;
        # value summed in exact int64 micro-units (see relational.py float policy)
        df = df.assign(
            hour=df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:%M:%S"),
            val_i=np.floor(df["value"].to_numpy() * 1e6 + 0.5).astype(np.int64))
        return df.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("val_i", "size"), val_i=("val_i", "sum"))

    def bucket_merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["event_type", "hour"], as_index=False).agg(
            n_events=("n_events", "sum"), val_i=("val_i", "sum"))

    out = bucketed_map_groups(ds.map_batches(partial, batch_format="pandas"),
                              "hour", bucket_merge, num_buckets).to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = out["val_i"] / 1e6
    out = out[["event_type", "hour", "n_events", "sum_value"]]
    return out.sort_values(["event_type", "hour"]).reset_index(drop=True)


def events_user_stats(sf_dir: str) -> pd.DataFrame:
    """Per-user rollup incl. a DISTINCT count (n_types) — needs each
    user's rows together, so it shuffles: ``bucketed_map_groups`` on
    ``user_id`` (64 buckets), each bucket task aggregating ALL its
    users with one vectorized pandas groupby."""
    ds = _events(sf_dir, ["user_id", "event_type", "value"])

    def quantize(t: pa.Table) -> pa.Table:
        val_i = np.floor(t["value"].to_numpy() * 1e6 + 0.5).astype(np.int64)
        return pa.table({"user_id": t["user_id"],
                         "event_type": t["event_type"],
                         "val_i": pa.array(val_i, type=pa.int64())})

    def bucket_stats(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("user_id", as_index=False).agg(
            n_events=("val_i", "size"), n_types=("event_type", "nunique"),
            val_i=("val_i", "sum"))
        out["avg_value"] = (out["val_i"] / 1e6) / out["n_events"].astype("float64")
        out["n_events"] = out["n_events"].astype("int64")
        out["n_types"] = out["n_types"].astype("int64")
        return out[["user_id", "n_events", "n_types", "avg_value"]]

    out = bucketed_map_groups(ds.map_batches(quantize, batch_format="pyarrow"),
                              "user_id", bucket_stats, 64).to_pandas()
    return out.sort_values("user_id").reset_index(drop=True)


def events_sessions(sf_dir: str) -> pd.DataFrame:
    """Session windows (30-min inactivity gap) per user: one row per
    session with start, n_events, duration. Gaps-and-islands over a
    (user_id, ts)-sorted per-BUCKET frame — a new session starts on a
    user change or a >30-min gap, so the whole bucket sessionizes in
    one vectorized pass (no per-user one-row frames)."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id"])

    def sessionize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = (g["ts"].diff() > pd.Timedelta(minutes=30)) | new_user
        sid = gap.cumsum()
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"), session_end=("ts", "max"),
            n_events=("event_id", "size"))
        # exact microseconds / 1e6 — bit-identical to the oracle's epoch()
        out["duration_s"] = (
            (out["session_end"] - out["session_start"]).dt.total_seconds())
        out["session_start"] = out["session_start"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        return out[["user_id", "session_start", "n_events", "duration_s"]]

    out = bucketed_map_groups(ds, "user_id", sessionize_bucket, 64).to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["user_id", "session_start"]).reset_index(drop=True)


def events_running_total(sf_dir: str) -> pd.DataFrame:
    """Per-user running sum of value in (ts, event_id) order — the
    streaming cumulative-state pattern as a per-key ordered fold."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "value"])

    def running_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        val_i = np.floor(g["value"].to_numpy() * 1e6 + 0.5).astype(np.int64)
        g = g.assign(val_i=val_i)
        g["running_value"] = g.groupby("user_id")["val_i"].cumsum() / 1e6
        return g[["user_id", "event_id", "running_value"]]

    out = bucketed_map_groups(ds, "user_id", running_bucket, 64).to_pandas()
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


def events_sessions_streaming(sf_dir: str) -> pd.DataFrame:
    """Same sessionization semantics as events_sessions, computed by the
    incremental keyed-actor operator (stages.streaming) — the bounded-
    state streaming path; results are identical (tested), and the same
    oracle SQL applies."""
    from ..stages.streaming import sessionize_streaming

    ds = _events(sf_dir, ["user_id", "ts", "event_id"])
    return sessionize_streaming(ds, gap_minutes=30)


def errors_with_last_signup(sf_dir: str) -> pd.DataFrame:
    """As-of join: each 'error' event matched to the same user's most
    recent prior-or-equal 'signup' event — one vectorized
    ``pd.merge_asof(by='user_id')`` per co-partitioned bucket."""
    ds = _events(sf_dir, ["user_id", "ts", "event_id", "event_type"])

    def asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        errors = g[g["event_type"] == "error"]
        signups = g[g["event_type"] == "signup"]
        if errors.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "event_id": pd.Series([], dtype="int64"),
                                 "signup_event_id": pd.Series([], dtype="float64")})
        merged = pd.merge_asof(
            errors[["user_id", "ts", "event_id"]],
            signups[["user_id", "ts", "event_id"]].rename(
                columns={"event_id": "signup_event_id"}),
            on="ts", by="user_id", direction="backward")
        out = merged[["user_id", "event_id", "signup_event_id"]]
        return out.astype({"signup_event_id": "float64"})

    out = bucketed_map_groups(ds, "user_id", asof_bucket, 64).to_pandas()
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)
