"""Per-document span-sequence reassembly (the north rule's shuffle).

``groupby(doc_id)`` + in-group sort by ``offset`` + dense re-rank —
the Ray-Data generalization of the reference's multi-page ordered
concat (pipeline.py:646-661, SURVEY §2.5 A1). Ordering is *data* (the
``offset``/``order`` columns), never an executor property, so the
result is invariant to Ray's unordered block completion (SURVEY §4
ordering row).

Skew note (100 TB design): the expensive work (OCR) happened *before*
this shuffle on exploded span rows, so groups here are narrow text
rows — a 1000-span document is a few hundred KB, far below any block
limit, and the hash shuffle spreads documents uniformly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .agg import bucketed_map_groups

KEEP_STATUSES = ("ok", "low_conf")
OUT_SCHEMA = pa.schema([
    ("doc_id", pa.string()), ("order", pa.int32()), ("kind", pa.string()),
    ("text", pa.string()), ("media_ref", pa.string()),
    ("conf", pa.float64()), ("conf_calibrated", pa.float64()),
    ("status", pa.string()), ("cascade", pa.string())])


def filter_keep(batch: pa.Table) -> pa.Table:
    """Drop blank/corrupt/oversize/boilerplate rows before the shuffle
    (cheap predicate pushdown: the shuffle moves only surviving rows)."""
    return batch.filter(pc.is_in(batch["status"], value_set=pa.array(KEEP_STATUSES)))


def rank_spans(spans: pa.Table) -> pa.Table:
    """The rank rule of both plans: span rows → ``OUT_SCHEMA`` rows
    sorted by ``(doc_id, offset)``, with ``order`` each row's position
    within its document (0-based). The sort is Arrow's stable sort, so
    rows with equal keys keep their input order and null offsets go
    last in their document; strings compare by UTF-8 bytes, which is
    code-point order. ``order`` is the row's position minus the position
    of its document's first row (the run starts of the sorted
    ``doc_id``)."""
    spans = spans.take(pc.sort_indices(
        spans, [("doc_id", "ascending"), ("offset", "ascending")]))
    ends = pc.run_end_encode(spans["doc_id"].combine_chunks()) \
        .run_ends.to_numpy()
    lengths = np.diff(ends, prepend=0)
    order = np.arange(spans.num_rows) - np.repeat(ends - lengths, lengths)
    return spans.append_column("order", pa.array(order)) \
        .select(OUT_SCHEMA.names).cast(OUT_SCHEMA)


def _rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
    # one task per hash bucket: ``rank_spans`` over all of its documents
    return rank_spans(pa.Table.from_pandas(g, preserve_index=False)) \
        .to_pandas()


def reassemble(ds):
    """spans(doc_id, kind, text, media_ref, offset, status, conf,
    conf_calibrated, cascade) → ordered ``OUT_SCHEMA`` spans(doc_id,
    order, kind, text, media_ref, conf, conf_calibrated, status,
    cascade).

    Hash-partitioned with ``bucketed_map_groups`` on ``doc_id``: the
    shuffle key is ``crc32(doc_id) % 64`` (an int64 with 64 distinct
    values — far cheaper for the range-partitioned shuffle than sorting
    millions of utf8 doc_ids), and each bucket task ranks all of its
    documents with one ``rank_spans`` (one Arrow sort). Same result as a
    per-doc groupby; the bucket count bounds reducer memory (one
    bucket's spans must fit a worker: at 10^12 docs that needs
    ~2^17 buckets)."""
    ds = ds.map_batches(filter_keep, batch_format="pyarrow")
    return bucketed_map_groups(ds, "doc_id", _rank_bucket, 64)
