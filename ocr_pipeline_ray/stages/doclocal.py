"""Doc-local extraction: the shuffle-free fast path.

The general pipeline explodes documents to span rows, processes them,
and re-groups with ``groupby(doc_id)`` — the explode buys intra-document
parallelism, but for the ~99% of documents whose spans fit comfortably
in one batch it buys nothing and costs a full all-to-all exchange
(measured: the shuffle machinery alone is ~5-8 s of fixed wall on a
400 k-row run, at any CPU count).

This stage processes whole documents inside ``map_batches``: explode,
classify, OCR, cascade, filter and dense-rank happen in-memory per
document, emitting already-ordered span rows. Map-only → linear
scaling, zero shuffle. Results are byte-identical to the exploded
path (asserted in tests) because both run the same kernels in the
same canonical order.

The skew tail (documents with more spans than ``skew_threshold``) is
the one case where intra-doc parallelism matters; ``extract_spans_hybrid``
routes those docs through the exploded+shuffle path and unions the
results — "shuffle only the skew tail".
"""

from __future__ import annotations

import pyarrow as pa

from .classify import classify_one
from .ocr import PageReader
from .reassemble import KEEP_STATUSES


class DocLocalExtract(PageReader):
    """map_batches actor pool over DOCUMENT rows.

    In:  documents(doc_id, spans: list<struct<kind,text,media_ref,offset>>)
    Out: ordered spans(doc_id, order:int32, kind, text, media_ref,
         conf:float64, conf_calibrated, status, cascade) — same schema
         as stages.reassemble. Media pages are read by the same
         ``PageReader`` as OcrStage (byte-equality tested).
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        spans_col = batch["spans"].to_pylist()

        o_doc, o_order, o_kind, o_text, o_ref = [], [], [], [], []
        o_conf, o_cal, o_status, o_casc = [], [], [], []
        for doc_id, spans in zip(doc_ids, spans_col):
            order = 0
            for span in sorted(spans, key=lambda s: s["offset"]):
                if span["kind"] == "text":
                    kept, clean = classify_one(span["text"])
                    if not kept:
                        continue
                    text, conf, cal, status, casc = \
                        clean, 1.0, 1.0, "ok", "accepted"
                else:
                    payload = self.payload(span["media_ref"])
                    if payload is None:
                        continue  # missing_media: dropped, like filter_keep
                    text, conf, cal, status, casc = self.read(payload)
                    if status not in KEEP_STATUSES:
                        continue  # blank / corrupt dropped
                o_doc.append(doc_id)
                o_order.append(order)
                o_kind.append(span["kind"])
                o_text.append(text)
                o_ref.append(span["media_ref"])
                o_conf.append(conf)
                o_cal.append(cal)
                o_status.append(status)
                o_casc.append(casc)
                order += 1

        return pa.table({
            "doc_id": pa.array(o_doc, type=pa.string()),
            "order": pa.array(o_order, type=pa.int32()),
            "kind": pa.array(o_kind, type=pa.string()),
            "text": pa.array(o_text, type=pa.string()),
            "media_ref": pa.array(o_ref, type=pa.string()),
            "conf": pa.array(o_conf, type=pa.float64()),
            "conf_calibrated": pa.array(o_cal, type=pa.float64()),
            "status": pa.array(o_status, type=pa.string()),
            "cascade": pa.array(o_casc, type=pa.string()),
        })
