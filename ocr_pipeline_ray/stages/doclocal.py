"""Doc-local extraction: the shuffle-free fast path.

The general pipeline explodes documents to span rows, processes them,
and re-groups with ``groupby(doc_id)`` — the explode buys intra-document
parallelism, but for the ~99% of documents whose spans fit comfortably
in one batch it buys nothing and costs a full all-to-all exchange
(measured: the shuffle machinery alone is ~5-8 s of fixed wall on a
400 k-row run, at any CPU count).

This stage is the exploded path's own operator chain fused into one
task: ``explode_spans`` → ``classify_spans`` → ``OcrStage`` →
``filter_keep`` → the reassembly rank kernel ``rank_spans``, all
called in-memory on one batch of whole documents, and all on Arrow
tables: the batch never converts to pandas. Because every document's
spans are in the batch, the rank needs no shuffle; the two plans
differ only in where the rank runs (the shuffle tail's
``_rank_bucket`` wraps the same ``rank_spans`` for its pandas
groups). Results are byte-identical to the exploded path by
construction: each rule has one home (keep and rank in
``stages.reassemble``, text classification in ``classify_spans``,
media resolution and reading in ``OcrStage``).
Map-only → linear scaling, zero shuffle. It runs as Ray Data tasks on
pooled worker processes, carrying its ``OcrStage`` (zone map and
``PageReader``), so it fuses with the read before it and boots no
actors.

The skew tail (documents with more spans than ``SKEW_THRESHOLD``) is
the one case where intra-doc parallelism matters; ``extract_spans``
routes those docs (if any) through the exploded+shuffle path and
unions the results — "shuffle only the skew tail".
"""

from __future__ import annotations

import pyarrow as pa

from .classify import classify_spans
from .explode import explode_spans
from .ocr import OcrStage
from .reassemble import filter_keep, rank_spans


class DocLocalExtract:
    """map_batches callable over DOCUMENT rows.

    In:  documents(doc_id, spans: list<struct<kind,text,media_ref,offset>>)
    Out: ``reassemble.OUT_SCHEMA`` span rows, ordered by
         ``(doc_id, order)`` — the exploded path's output for the
         batch's documents, ranked by ``rank_spans`` without leaving
         Arrow.
    """

    def __init__(self, zones: pa.Table, calib=None) -> None:
        self.ocr = OcrStage(zones, calib)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return rank_spans(filter_keep(
            self.ocr(classify_spans(explode_spans(batch)))))
