"""Partition-committed output layout with lineage records and resume.

The north rule requires a killed ``ray job submit`` run to resume from
the last committed partition, with per-partition lineage + extraction
metrics — the reference has *no* checkpointing (SURVEY §3 state
inventory: a killed run loses everything), so this is new design:

- input documents are assigned to ``num_parts`` partitions by a STABLE
  hash of ``doc_id``: its CRC-32 modulo ``num_parts``
  (``stages.agg.bucket_ids``; never Python ``hash()``, which is
  per-process randomized);
- one invocation is ONE Ray Data pass over every pending partition (a
  partition without a ``_SUCCESS`` marker): ``plan_job`` plans the
  corpus read with ``keep_pending`` as its filter, ``extract_spans``
  runs the plan, and ``_PartitionSink`` writes it. Each write task
  stages its rows into one temp dir per partition (so a partition
  holds at most one parquet file per task) and returns a small
  per-partition lineage partial; once every task has written, the
  calling process merges the partials and, partition by partition,
  writes ``_lineage.json`` (docs, spans, counts by status/kind/cascade
  branch, confidence histogram, wall time of the pass) and the
  ``_SUCCESS`` marker into the temp dir, then atomically renames it to
  ``part={pid}/`` — data and commit marker appear together, so no kill
  window can expose an uncommitted partition. A partition no doc
  hashes to still commits, with ``n_docs=0`` and no parquet file;
- resume = re-invoke with the same args: committed partitions are
  skipped and never recomputed. A kill loses the in-flight pass's
  uncommitted partitions (all pending ones if it strikes before the
  commit loop), which the next invocation recomputes in one pass.
  Output readers MUST filter to partitions containing ``_SUCCESS``
  (glob ``part=*/_SUCCESS`` then read that partition's ``*.parquet``).

``keep_pending`` is the one place the job hashes ``doc_id`` into
partitions before the write. ``plan_job`` runs it in its per-file plan
tasks too, so the skew bound counts pending docs only. Driver state is
O(files + partitions): the plan's per-file statistics and the lineage
partials. ``plan_job`` picks the media plan from the footers and the
pending docs' ref ranges: on the zone map, a pass reads only the media
row groups that can hold its pending docs' refs; the join plan decodes
the whole media table on every pass (a resume's committed pages
included).

At 100 TB the partition count is sized so one partition's spans fit
comfortably in a staging dir (e.g. 4096 partitions of ~25 GB);
partitions are the commit/resume unit, blocks stream as usual.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data import Datasink
from ray.data.block import BlockAccessor

# perfbench wraps this module attribute to capture the job's Dataset
from ..pipelines.extract import extract_spans as extract_spans_hybrid
from ..pipelines.extract import plan_job
from ..stages.agg import bucket_ids

CONF_BINS = 10


def _staging_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"_tmp_part={pid}")


def _empty_partial() -> dict:
    return {"n_docs": 0, "n_spans": 0, "status_counts": Counter(),
            "kind_counts": Counter(), "cascade_counts": Counter(),
            "conf_histogram": np.zeros(CONF_BINS, dtype=np.int64)}


def _partial_lineage(t: pa.Table) -> dict:
    """Mergeable lineage counts of one write task's rows of one
    partition; partials of disjoint row sets add up field by field."""
    def counts(col: str) -> Counter:
        vc = pc.value_counts(t[col])
        return Counter(dict(zip(vc.field("values").to_pylist(),
                                vc.field("counts").to_pylist())))

    hist, _ = np.histogram(t["conf"].to_numpy(), bins=CONF_BINS,
                           range=(0.0, 1.0))
    return {"n_docs": int(pc.sum(pc.equal(t["order"], 0)).as_py() or 0),
            "n_spans": t.num_rows,
            "status_counts": counts("status"),
            "kind_counts": counts("kind"),
            "cascade_counts": counts("cascade"),
            "conf_histogram": hist}


def _lineage_record(pid: int, partial: dict, wall_s: float) -> dict:
    edges = np.linspace(0.0, 1.0, CONF_BINS + 1)
    return {
        "partition": pid,
        "n_docs": int(partial["n_docs"]),
        "n_spans": int(partial["n_spans"]),
        **{k: dict(sorted(partial[k].items()))
           for k in ("status_counts", "kind_counts", "cascade_counts")},
        "conf_histogram": {f"{edges[i]:.1f}-{edges[i + 1]:.1f}": int(n)
                           for i, n in enumerate(partial["conf_histogram"])},
        "wall_seconds": round(wall_s, 3),
        "committed_at_epoch": time.time(),
    }


class _PartitionSink(Datasink):
    """Stages span rows per partition; commits every pending partition
    once the whole pass has written (``on_write_complete``)."""

    def __init__(self, out_dir: str, num_parts: int, pending: list[int],
                 t0: float) -> None:
        self.out_dir = out_dir
        self.num_parts = num_parts
        self.pending = pending
        self.t0 = t0

    def on_write_start(self) -> None:
        for pid in self.pending:
            tmp = _staging_dir(self.out_dir, pid)
            if os.path.exists(tmp):
                shutil.rmtree(tmp)  # stale temp from a killed pass
            os.makedirs(tmp)

    def write(self, blocks, ctx) -> dict[int, dict]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}
        t = pa.concat_tables(tables, promote_options="default")
        pids = bucket_ids(t["doc_id"], self.num_parts)
        by_pid = np.argsort(pids, kind="stable")
        t, pids = t.take(by_pid), pids[by_pid]
        bounds = np.flatnonzero(np.diff(pids)) + 1
        partials = {}
        for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(pids)]):
            pid = int(pids[lo])
            part = t.slice(lo, hi - lo)
            pq.write_table(part, os.path.join(
                _staging_dir(self.out_dir, pid),
                f"part-{ctx.task_idx:06d}.parquet"))
            partials[pid] = _partial_lineage(part)
        return partials

    def on_write_complete(self, write_result) -> None:
        merged = {pid: _empty_partial() for pid in self.pending}
        for partials in write_result.write_returns:
            for pid, p in partials.items():
                merged[pid] = {k: merged[pid][k] + v for k, v in p.items()}
        wall_s = time.time() - self.t0
        for pid in self.pending:
            tmp = _staging_dir(self.out_dir, pid)
            # marker + lineage are written INTO the temp dir BEFORE the
            # atomic rename, so data and commit marker appear together
            with open(os.path.join(tmp, "_lineage.json"), "w") as f:
                json.dump(_lineage_record(pid, merged[pid], wall_s), f)
            with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
                f.write("ok")
            part_dir = os.path.join(self.out_dir, f"part={pid}")
            if os.path.exists(part_dir):
                shutil.rmtree(part_dir)  # uncommitted leftover
            os.rename(tmp, part_dir)


def run_partitioned(corpus_dir: str, out_dir: str, num_parts: int = 8) -> dict:
    """Run the flagship pipeline over every uncommitted partition in one
    Ray Data pass, committing each partition atomically; safe to
    re-invoke after a kill (committed partitions are skipped). Returns
    {"completed": [...], "skipped": [...]}."""
    os.makedirs(out_dir, exist_ok=True)
    committed = [os.path.exists(os.path.join(out_dir, f"part={pid}",
                                             "_SUCCESS"))
                 for pid in range(num_parts)]
    skipped = [pid for pid, done in enumerate(committed) if done]
    pending = [pid for pid, done in enumerate(committed) if not done]
    if not pending:
        return {"completed": [], "skipped": skipped}

    t0 = time.time()
    is_pending = np.zeros(num_parts, dtype=bool)
    is_pending[pending] = True

    def keep_pending(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(
            is_pending[bucket_ids(batch["doc_id"], num_parts)]))

    spans = extract_spans_hybrid(plan_job(
        os.path.join(corpus_dir, "documents_spans"),
        os.path.join(corpus_dir, "media"), keep_pending))
    spans.write_datasink(_PartitionSink(out_dir, num_parts, pending, t0))
    return {"completed": pending, "skipped": skipped}


def read_lineage(out_dir: str) -> list[dict]:
    """Lineage records of the committed partitions, in dir-name order."""
    recs = []
    for p in sorted(glob.glob(os.path.join(out_dir, "part=*",
                                           "_lineage.json"))):
        with open(p) as f:
            recs.append(json.load(f))
    return recs
