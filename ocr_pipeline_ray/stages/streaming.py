"""Stateful streaming operators: incremental state in keyed actors.

Ray Data has no event-time windows; for stream-shaped semantics that
genuinely need *incremental* state (an unbounded log processed in
arrival order with bounded memory), the Dataset API can't express the
operator — this is the documented last-resort case for raw Ray actors
(SURVEY §2 custom-operator rule (c)).

``StreamingSessionizer``: one actor per key-hash bucket holds the open
sessions for its keys. Ingestion is DISTRIBUTED: after the global ts
sort, the sorted blocks (object refs — rows never touch the driver)
are fanned out to ``_feed_block`` tasks, each of which splits its
block by key hash and ships the slices straight to the owning bucket
actors, tagged with the block's global sequence number. Because
concurrent feeder tasks can deliver out of order, each actor holds a
small REORDER BUFFER and consumes slices in sequence order as the
contiguous prefix arrives (every feeder sends its seq to every bucket
— empty slices advance the watermark), so per-key state still sees a
ts-ordered stream and memory stays bounded by (open sessions +
in-flight slices). Output is ACTOR-SIDE: each bucket actor spills its
closed sessions to its own parquet partition (atomic tmp→rename, the
checkpoint-commit pattern) whenever the in-memory chunk passes
``SPILL_ROWS``; ``drain`` flushes the tail and returns only FILE
PATHS — session rows never pass through the driver either. The bucket
count scales with ``ray.cluster_resources()``.

Ordering contract (stated per the guide): the global ``ts`` sort
provides it here; a production log would read ts-partitioned input in
partition order and use the partition index as the sequence number.
Results equal the batch ``pipelines.windows.events_sessions`` exactly
(tested).
"""

from __future__ import annotations

import os
import uuid

import pandas as pd
import ray

_OUT_COLUMNS = ["user_id", "session_start", "n_events", "duration_s"]
SPILL_ROWS = 100_000   # closed sessions a bucket holds before it spills


@ray.remote(num_cpus=0.5)
class SessionBucket:
    """Holds open sessions for the keys hashed to this bucket, plus a
    sequence reorder buffer for out-of-order feeder deliveries; closed
    sessions spill to this bucket's own parquet partition."""

    def __init__(self, gap_seconds: float, out_dir: str,
                 bucket_id: int) -> None:
        self.gap = pd.Timedelta(seconds=gap_seconds)
        self.open: dict[int, dict] = {}  # user_id -> session record
        self.closed: list[dict] = []
        self.buf: dict[int, pd.DataFrame | None] = {}
        self.next_seq = 0
        self.out_dir = out_dir
        self.bucket_id = bucket_id
        self.n_spilled = 0
        self.paths: list[str] = []

    def feed(self, seq: int, df: pd.DataFrame | None) -> None:
        """Accept slice ``seq`` (possibly empty); consume the contiguous
        prefix of buffered slices in sequence order."""
        self.buf[seq] = df
        while self.next_seq in self.buf:
            part = self.buf.pop(self.next_seq)
            self.next_seq += 1
            if part is not None and len(part):
                self._consume(part)
        if len(self.closed) >= SPILL_ROWS:
            self._spill()

    def _consume(self, df: pd.DataFrame) -> None:
        for row in df.itertuples(index=False):
            s = self.open.get(row.user_id)
            if s is not None and (row.ts - s["last_ts"]) > self.gap:
                self.closed.append(self._emit(s))
                s = None
            if s is None:
                self.open[row.user_id] = {
                    "user_id": row.user_id, "start": row.ts,
                    "last_ts": row.ts, "n_events": 1}
            else:
                s["last_ts"] = row.ts
                s["n_events"] += 1

    def _spill(self) -> None:
        """Write the closed-session chunk to a bucket-owned parquet file
        (tmp → rename, so readers never see a partial file)."""
        if not self.closed:
            return
        df = pd.DataFrame(self.closed, columns=_OUT_COLUMNS)
        df["n_events"] = df["n_events"].astype("int64")
        final = os.path.join(
            self.out_dir, f"bucket{self.bucket_id:04d}-{self.n_spilled:06d}.parquet")
        tmp = final + ".tmp"
        df.to_parquet(tmp, index=False)
        os.rename(tmp, final)
        self.paths.append(final)
        self.n_spilled += 1
        self.closed = []

    def drain(self) -> list[str]:
        """All feeders done: consume any buffered tail, flush open
        sessions, spill the final chunk, return this bucket's file
        paths (rows stay on disk — never shipped to the driver)."""
        for seq in sorted(self.buf):
            part = self.buf[seq]
            if part is not None and len(part):
                self._consume(part)
        self.buf.clear()
        self.closed += [self._emit(s) for s in self.open.values()]
        self.open = {}
        self._spill()
        return self.paths

    @staticmethod
    def _emit(s: dict) -> dict:
        return {
            "user_id": s["user_id"],
            "session_start": s["start"].strftime("%Y-%m-%d %H:%M:%S.%f"),
            "n_events": s["n_events"],
            "duration_s": (s["last_ts"] - s["start"]).total_seconds(),
        }


@ray.remote
def _feed_block(seq: int, block, actors: list, num_buckets: int) -> int:
    """Split one sorted block by key hash and ship each slice straight
    to its bucket actor (empty slices too — they advance the actors'
    sequence watermark). Returns after the actors accept the slices,
    which backpressures the feeder pool."""
    df = block.to_pandas()
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    pending = []
    for b in range(num_buckets):
        part = df[df["user_id"] % num_buckets == b]
        pending.append(actors[b].feed.remote(seq, part if len(part) else None))
    ray.get(pending)
    return seq


def _default_buckets() -> int:
    """Scale the actor count with the cluster: ~1 bucket per 4 CPUs
    (each actor reserves 0.5 CPU and shares the node with the feeder
    tasks and the upstream sort), clamped to [2, 64]."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return max(2, min(64, cpus // 4))


def _typed_empty_sessions() -> pd.DataFrame:
    """Empty result with the SAME dtypes the non-empty path produces
    (user_id/n_events int64, session_start utf8, duration_s float64) —
    an all-object empty frame would diverge from the batch sessionizer
    under exact-dtype/hash comparison."""
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "session_start": pd.Series([], dtype="object"),
        "n_events": pd.Series([], dtype="int64"),
        "duration_s": pd.Series([], dtype="float64")})


def sessionize_streaming_ds(events_ds, gap_minutes: int = 30):
    """Keyed-actor sessionizer with distributed ingestion AND
    distributed output: the driver sorts, hands sorted-block REFS to
    feeder tasks, and collects per-bucket parquet PATHS — event and
    session rows never pass through it. Returns a
    ``ray.data.Dataset`` reading the bucket partitions (the next
    pipeline stage consumes it as a stream), or None when no sessions
    were produced. The caller removes the spill directory (the parent
    of the Dataset's input files) once the Dataset is consumed.

    Spill-path visibility: bucket actors spill to a node-local
    ``/tmp`` directory on THEIR node, readable on a single node only;
    on a multi-node cluster this raises rather than failing later with
    a FileNotFoundError on the reading side."""
    import ray.data as rd

    num_buckets = _default_buckets()
    if sum(1 for n in ray.nodes() if n.get("Alive")) > 1:
        raise ValueError(
            "multi-node cluster: the node-local /tmp spill is only "
            "readable on a single node")
    out_dir = os.path.join("/tmp/ocr_ray_sessions", uuid.uuid4().hex[:12])
    os.makedirs(out_dir, exist_ok=True)
    actors = [SessionBucket.remote(gap_minutes * 60, out_dir, b)
              for b in range(num_buckets)]
    block_refs = events_ds.sort(["ts", "event_id"]).to_arrow_refs()
    feeds = [_feed_block.remote(seq, ref, actors, num_buckets)
             for seq, ref in enumerate(block_refs)]
    ray.get(feeds)
    paths = [p for a in actors for p in ray.get(a.drain.remote())]
    for a in actors:
        ray.kill(a)
    if not paths:
        return None
    return rd.read_parquet(paths)


def sessionize_streaming(events_ds, gap_minutes: int = 30) -> pd.DataFrame:
    """Driver-gate wrapper over ``sessionize_streaming_ds``: the
    session partitions flow back as a Dataset (distributed read, not a
    driver ``pd.concat``); the final ``to_pandas`` is the output-sized
    gate return. The spill directory is removed after readback."""
    import shutil

    ds = sessionize_streaming_ds(events_ds, gap_minutes=gap_minutes)
    if ds is None:
        return _typed_empty_sessions()
    out = ds.to_pandas()
    shutil.rmtree(os.path.dirname(ds.input_files()[0]), ignore_errors=True)
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values(["user_id", "session_start"]).reset_index(drop=True)
