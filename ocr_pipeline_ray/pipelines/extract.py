"""Flagship extraction pipeline (north rule / SURVEY §7).

    read documents → explode to span rows → classify text spans →
    OCR media spans (tasks on pooled workers) → confidence cascade →
    groupby(doc_id)+offset-sort reassembly → ordered span sequences
    (+ a per-document field-extraction reduce on top).

Media-payload resolution has two strategies:

- ``broadcast`` (default when the media table fits in memory): the
  ``(media_ref, payload)`` Arrow table is ``ray.put`` ONCE on the
  driver and each OCR worker process maps it zero-copy once, in its
  warm ``PageReader`` — the classic small-side broadcast join; zero
  shuffle, payloads shipped to each node once, not per batch.
- ``join`` (the 100 TB path, media table too big to broadcast): the
  media table is OCR'd in place by a map stage, then a
  hash-partitioned ``Dataset.join`` on ``media_ref`` attaches the
  extracted TEXT to the span rows (text spans bypass the join and
  union back). Payload bytes never enter the shuffle — the exchange
  moves only narrow text rows.

Both return the same schema and byte-identical results (tested).

``extract_spans_hybrid`` runs the same operators: for documents below
the skew threshold, ``stages.doclocal.DocLocalExtract`` calls explode →
classify → ``OcrStage`` → keep filter → rank inside one task (no
shuffle, since each document is whole in its batch); only the skew
tail takes the exploded + shuffle plan above.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..config import (MEDIA_JOIN_BUCKETS, OCR_BATCH_SIZE, OCR_NUM_CPUS,
                      SKEW_THRESHOLD)
from ..stages.agg import bucketed_map_groups
from ..stages.classify import classify_spans
from ..stages.explode import explode_spans
from ..stages.ocr import OcrStage
from ..stages.reassemble import reassemble


def fit_page_calibrator(media_path: str, sample_n: int = 512):
    """M10/A7: fit the isotonic confidence calibrator on a seeded
    labelled sample (the reference fits offline on labelled bills and
    ships ``calibration_models.pkl``, pipeline.py:196-369; here the
    corpus's construction truth IS the label).

    Sample selection is a NARROW driver read (media_ref + media_kind
    only — the first ``sample_n`` page_png refs in media_ref order,
    deterministic); the payload decode itself is a ``map_batches`` over
    a ref-filtered scan (predicate pushdown — only sample rows' payload
    bytes leave storage), so the per-job fixed cost is one small
    distributed pass, not a serial driver loop. The ≤ sample_n (conf,
    correct) rows are re-sorted by media_ref on the driver before the
    PAV fit, which makes the knots byte-identical to the old serial
    loop (fit_isotonic's stable sort sees the same input order). A page
    is "correct" when its canonical decode equals the canonical ground
    truth. Returns ``(knots_x, knots_y)`` or None when the sample is
    too small (calibration then stays off).
    """
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..functions.calibration import MIN_SAMPLES, fit_isotonic

    refs = pq.read_table(media_path, columns=["media_ref", "media_kind"])
    refs = refs.filter(pc.equal(refs["media_kind"], "page_png"))["media_ref"]
    sample_refs = sorted(refs.to_pylist())[:sample_n]
    if not sample_refs:
        return None

    def decode_sample(batch: pa.Table) -> pa.Table:
        from ..functions.charfix import fix_text
        from ..functions.geometry import xy_cut_order
        from ..stages.ocr import ocr_page_cascade

        out_ref, out_conf, out_ok = [], [], []
        for ref, payload, truth in zip(batch["media_ref"].to_pylist(),
                                       batch["payload"].to_pylist(),
                                       batch["truth_lines"].to_pylist()):
            text, conf, status, _cascade = ocr_page_cascade(payload)
            if status != "ok" or not truth:
                continue
            xs = np.array([r["x"] for r in truth])
            ys = np.array([r["y"] for r in truth])
            order = xy_cut_order(xs, ys)
            truth_text = fix_text("\n".join(truth[i]["text"] for i in order))
            out_ref.append(ref)
            out_conf.append(conf)
            out_ok.append(1.0 if text == truth_text else 0.0)
        return pa.table({"media_ref": pa.array(out_ref, type=pa.string()),
                         "conf": pa.array(out_conf, type=pa.float64()),
                         "correct": pa.array(out_ok, type=pa.float64())})

    sample = rd.read_parquet(
        media_path, columns=["media_ref", "payload", "truth_lines"],
        filter=pads.field("media_ref").isin(sample_refs)) \
        .map_batches(decode_sample, batch_format="pyarrow") \
        .to_pandas()
    if len(sample) < MIN_SAMPLES:
        return None
    sample = sample.sort_values("media_ref", kind="mergesort")
    kx, ky = fit_isotonic(sample["conf"].to_numpy(),
                          sample["correct"].to_numpy())
    return kx.tolist(), ky.tolist()


def build_media_lookup(media_path: str) -> Any:
    """Driver-side: ``ray.put`` the (media_ref, payload) Arrow table ONCE.

    An Arrow table (unlike a Python dict) is ZERO-COPY out of the object
    store: every OCR worker's ``ray.get`` maps the same shared-memory
    buffers instead of unpickling a private multi-hundred-MB dict copy —
    pool-size × dict-deserialization was the dominant anti-scaling cost
    (measured: 32 CPUs slower than 8 before this change). Lookups use
    ``pyarrow.compute.index_in`` per batch.
    """
    import pyarrow.parquet as pq
    import ray

    t = pq.read_table(media_path, columns=["media_ref", "payload"])
    return ray.put(t.combine_chunks())


def extract_spans(docs_ds, *, media_lookup_ref=None, media_ds=None,
                  ocr_concurrency: int | None = None,
                  join_partitions: int = MEDIA_JOIN_BUCKETS,
                  calib=None):
    """documents Dataset → ordered span-sequence Dataset.

    Out schema: (doc_id, order:int32, kind, text, media_ref, conf,
    conf_calibrated, status, cascade). ``calib`` is an optional
    ``(knots_x, knots_y)`` isotonic calibrator (fit_page_calibrator);
    when given, the cascade thresholds are derived from target
    accuracies and ``conf_calibrated`` carries the calibrated score.
    ``ocr_concurrency`` caps the OCR stage's concurrent tasks; None
    leaves it uncapped, so it fuses with the map before it.
    """
    exploded = docs_ds.map_batches(explode_spans, batch_format="pyarrow")

    if media_ds is not None:
        # Scale path: the media TABLE is decoded in place by a map
        # stage (ensemble + cascade + calibration run where the payload
        # bytes already live), and only the extracted TEXT rows enter
        # the hash join with the span rows — payloads never cross the
        # shuffle. (The previous design joined payloads first and
        # decoded after; shipping the binary column through the
        # exchange was 3-10× slower and scaled super-linearly.)
        media_rows = exploded.filter(expr="kind == 'media'")
        # text rows have nothing pending, so OcrStage only adds the
        # passthrough columns, under MediaDecodeStage's warm-reader key.
        # No explicit batch_size on the text chain: a mid-pipeline
        # batch_size forces a re-bundling pass that measured 3x slower
        # end-to-end; block-sized batches keep the chain fused
        text_rows = exploded.filter(expr="kind == 'text'") \
            .map_batches(classify_spans, batch_format="pyarrow") \
            .map_batches(OcrStage(calib=calib), batch_format="pyarrow")
        from ..stages.ocr import MediaDecodeStage, apply_media_text
        media_text = media_ds.select_columns(["media_ref", "payload"]) \
            .map_batches(
                MediaDecodeStage(calib=calib), batch_format="pyarrow",
                batch_size=OCR_BATCH_SIZE, concurrency=ocr_concurrency,
                num_cpus=OCR_NUM_CPUS)
        joined = media_rows.join(
            media_text, join_type="left_outer",
            num_partitions=join_partitions, on=("media_ref",),
            # Aggregators are memory-bound accumulators; tiny fractional
            # CPU so a wide join (many partitions) can never starve the
            # OCR / map tasks into a deadlock on a small node.
            aggregator_ray_remote_args={"num_cpus": 0.1},
        )
        ocrd = joined.map_batches(apply_media_text, batch_format="pyarrow")
        ds = ocrd.union(text_rows)
    else:
        # Broadcast path: single pass, no branches — classify handles text
        # rows and passes media rows through; the OCR stage resolves
        # payloads from the zero-copy broadcast table. No explicit
        # batch_size (see note above).
        ds = exploded.map_batches(classify_spans, batch_format="pyarrow")
        ds = ds.map_batches(
            OcrStage(media_lookup_ref=media_lookup_ref, calib=calib),
            batch_format="pyarrow", batch_size=OCR_BATCH_SIZE,
            concurrency=ocr_concurrency, num_cpus=OCR_NUM_CPUS)

    return reassemble(ds)


def extract_spans_hybrid(docs_ds, *, media_lookup_ref=None,
                         skew_threshold: int = SKEW_THRESHOLD,
                         ocr_concurrency: int | None = None,
                         skew_tail: str = "auto",
                         calib=None):
    """Shuffle-only-the-skew-tail extraction.

    Documents with ≤ ``skew_threshold`` spans (the vast majority) run
    through the doc-local map-only path (stages.doclocal) — zero
    shuffle, linear scaling. The skew tail (huge PDFs) goes through the
    exploded + groupby path where intra-document parallelism matters.
    Union of the two is byte-identical to ``extract_spans`` (tested).
    ``ocr_concurrency`` caps each branch's OCR tasks (None: uncapped).

    ``skew_tail="never"``: skip the tail branch entirely — even an
    *empty* tail branch costs the full shuffle machinery's fixed wall
    time. Nothing here enforces a span cap: the caller must know that
    no document exceeds ``skew_threshold``, as ``run_partitioned``'s
    plan step does (it reads every pending doc's span count first).
    """
    import pyarrow.compute as pc

    from ..stages.doclocal import DocLocalExtract

    def small_only(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch["spans"])
        return batch.filter(pc.less_equal(n, skew_threshold))

    def big_only(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch["spans"])
        return batch.filter(pc.greater(n, skew_threshold))

    src = docs_ds if skew_tail == "never" \
        else docs_ds.map_batches(small_only, batch_format="pyarrow")
    small = src.map_batches(
        DocLocalExtract(media_lookup_ref=media_lookup_ref, calib=calib),
        batch_format="pyarrow", concurrency=ocr_concurrency,
        num_cpus=OCR_NUM_CPUS)
    if skew_tail == "never":
        return small
    big = extract_spans(
        docs_ds.map_batches(big_only, batch_format="pyarrow"),
        media_lookup_ref=media_lookup_ref, ocr_concurrency=ocr_concurrency,
        calib=calib)
    return small.union(big)


def extract_fields_per_doc(spans_ds):
    """Ordered spans → one row per document with extracted utility fields
    (reference extract_fields path, pipeline.py:2340-2380, now incl. the
    F10 KIE fallback + F11 correction loop and the full F7 aux set),
    per-field confidences (A4 pattern, pipeline.py:2505-2529: confidence
    of the spans whose text contains the match, capped 0.99; defaults
    0.9/0.85), validation status (pipeline.py:2769-2808), a sha256
    content digest (F12, pipeline.py:2580-2585) and mean span conf.

    Reduced with ``bucketed_map_groups`` on ``doc_id`` (64 buckets),
    like reassembly: each bucket task runs ``per_doc`` over all of its
    documents."""
    import hashlib

    import numpy as np
    import pandas as pd

    from ..functions.regex_banks import extract_fields, validate_fields

    def _field_conf(g: pd.DataFrame, value, default: float) -> float:
        if value is None:
            return 0.0
        needle = str(value)
        hit = g[g["text"].str.contains(needle, regex=False)]
        if hit.empty:
            return default
        return float(min(0.99, hit["conf"].min()))

    def per_doc(g: pd.DataFrame) -> dict:
        g = g.sort_values("order", kind="mergesort")
        full_text = "\n".join(g["text"])
        fields = extract_fields(full_text)
        status, warnings = validate_fields(fields)
        return {
            "doc_id": g["doc_id"].iloc[0],
            "electricity_kwh": fields["electricity_kwh"],
            "carbon_kgco2e": fields["carbon_kgco2e"],
            "account_number": fields["account_number"],
            "bill_date": fields["bill_date"],
            "meter_reading": fields["meter_reading"],
            "water_m3": fields["water_m3"],
            "billing_start": fields["billing_start"],
            "billing_end": fields["billing_end"],
            "current_reading": fields["current_reading"],
            "previous_reading": fields["previous_reading"],
            "peak_demand_kw": fields["peak_demand_kw"],
            "conf_electricity": _field_conf(g, fields["electricity_kwh"], 0.9),
            "conf_carbon": _field_conf(g, fields["carbon_kgco2e"], 0.85),
            "status": status,
            "n_warnings": len(warnings),
            "n_spans": len(g),
            "doc_conf": float(np.mean(g["conf"])) if len(g) else 0.0,
            "doc_digest": hashlib.sha256(full_text.encode()).hexdigest(),
        }

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = [per_doc(sub) for _, sub in g.groupby("doc_id", sort=True)]
        return pd.DataFrame(rows)

    return bucketed_map_groups(spans_ds, "doc_id", per_bucket, 64)

