"""Document → span-row explosion (SURVEY §7 step 1).

The reference processes one document at a time; at 100 TB the unit of
parallelism must be the *span* so a 1000-page document becomes 1000
independent rows before the expensive OCR stage (SURVEY §4 skew row).
This is the Ray-Data analog of the reference's page loop
(pipeline.py:1404-1426), done zero-copy with Arrow list kernels —
``list_flatten`` + ``list_parent_indices`` — no Python per-row loop.

In: documents(doc_id: string, spans: list<struct<...>>)
Out: one row per span: (doc_id, kind, text, media_ref, offset)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def explode_spans(batch: pa.Table) -> pa.Table:
    spans = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    doc_ids = pc.take(batch["doc_id"].combine_chunks(), parents)
    return pa.table({
        "doc_id": doc_ids,
        "kind": flat.field("kind"),
        "text": flat.field("text"),
        "media_ref": flat.field("media_ref"),
        "offset": flat.field("offset"),
    })
