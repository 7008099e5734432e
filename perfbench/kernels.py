"""In-process kernel pass: each layer's public functions timed one call
at a time, single-threaded, over the workload's own inputs. The pass is
also the serial baseline of the same job (``ray.kernel_frac``)."""

from __future__ import annotations

import time
import zlib

import numpy as np
import pyarrow.parquet as pq

from ocr_pipeline_ray.functions import regex_banks
from ocr_pipeline_ray.stages import classify, media_stub, ocr, pixels

OCR_KEYS = ("page.accepted", "page.enhanced", "page.retry_kept",
            "raster.accepted", "raster.restored", "digital", "blank",
            "corrupt")
OCR_P99_KEYS = ("page.accepted", "page.enhanced", "raster.accepted",
                "raster.restored")
PIXEL_KERNELS = ("pixel_stats", "bilateral", "hist_equalize", "sharpen3x3",
                 "binarize", "morph_close", "read_lines")
STRATEGIES = ("binarize", "equalize+binarize", "bilateral+binarize",
              "sharpen+binarize", "binarize+close")
# per-kernel timing uses the first pages only: enough for a p50
KERNEL_SAMPLE_PAGES = 48
REASSEMBLE_BUCKETS = 64     # stages.reassemble.reassemble default


def strategy_name(s: str) -> str:
    return s.replace("+", "-")


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def tau_enhance(calib) -> float:
    """The cascade's enhance threshold for ``calib`` (as the stages
    derive it from the target accuracy)."""
    if calib is None:
        return ocr.TAU_ENHANCE
    from ocr_pipeline_ray.functions.calibration import threshold_for_accuracy
    te = threshold_for_accuracy(np.asarray(calib[0]), np.asarray(calib[1]),
                                ocr.ACC_TARGET_ENHANCE)
    return ocr.TAU_ENHANCE if te is None else te


def _cascade_key(kind: str, status: str, cascade: str) -> str:
    if cascade == "none":
        return status if status in ("blank", "corrupt") else kind
    if cascade == "digital":
        return "digital"
    return f"{kind}.{cascade}"


def ocr_layer(payloads: list[bytes], tau: float, tracer) -> tuple[dict, float]:
    """stages.ocr: ``ocr_page_cascade`` on every media row, keyed by
    ``media_stub.classify_payload`` and the returned cascade."""
    ms: dict[str, list[float]] = {k: [] for k in OCR_KEYS}
    with tracer.span("stages.ocr", calls=len(payloads)):
        for p in payloads:
            kind = media_stub.classify_payload(p)
            t0 = time.perf_counter()
            _text, _conf, status, cascade = ocr.ocr_page_cascade(p, tau)
            dt = (time.perf_counter() - t0) * 1e3
            ms.setdefault(_cascade_key(kind, status, cascade), []).append(dt)
    out = {}
    for k in OCR_P99_KEYS:
        out[f"ocr.page_ms.{k}.p50"] = _pct(ms[k], 50)
        out[f"ocr.page_ms.{k}.p99"] = _pct(ms[k], 99)
    out["ocr.page_ms.page.retry_kept.p50"] = _pct(ms["page.retry_kept"], 50)
    out["ocr.page_ms.digital.p50"] = _pct(ms["digital"], 50)
    for k in OCR_KEYS:
        out[f"ocr.pages.{k}"] = float(len(ms[k]))
    text_pages = sum(len(v) for k, v in ms.items() if k.startswith("page."))
    redecoded = len(ms["page.enhanced"]) + len(ms["page.retry_kept"])
    out["ocr.redecode_frac"] = redecoded / text_pages if text_pages else 0.0
    out["ocr.redecode_useful_frac"] = \
        len(ms["page.enhanced"]) / redecoded if redecoded else 0.0
    total = sum(sum(v) for v in ms.values())
    raster = sum(ms["raster.accepted"]) + sum(ms["raster.restored"])
    out["ocr.raster_cpu_share"] = raster / total if total else 0.0
    return out, total / 1e3


def pixels_layer(rasters: list[bytes], tracer) -> dict:
    """stages.pixels per raster page: each kernel on the page as stored,
    and the routed restore + read per strategy. ``otsu_threshold`` is
    wrapped to count its calls per page read."""
    kernel_ms: dict[str, list[float]] = {k: [] for k in PIXEL_KERNELS}
    page_ms: dict[str, list[float]] = {s: [] for s in STRATEGIES}
    calls = [0]
    real_otsu = pixels.otsu_threshold

    def counting_otsu(img):
        calls[0] += 1
        return real_otsu(img)

    with tracer.span("stages.pixels", pages=len(rasters)):
        for n, p in enumerate(rasters):
            img = media_stub.decode_raster(p)
            pixels.otsu_threshold = counting_otsu
            try:
                t0 = time.perf_counter()
                _lines, strategy = pixels.restore_and_read(img)
                page_ms[strategy].append((time.perf_counter() - t0) * 1e3)
            finally:
                pixels.otsu_threshold = real_otsu
            if n >= KERNEL_SAMPLE_PAGES:
                continue
            mask = None
            for k in PIXEL_KERNELS:
                fn = getattr(pixels, k)
                arg = mask if k in ("morph_close", "read_lines") else img
                t0 = time.perf_counter()
                res = fn(arg)
                kernel_ms[k].append((time.perf_counter() - t0) * 1e3)
                if k == "binarize":
                    mask = res
    out = {f"pixels.ms.{k}.p50": _pct(v, 50) for k, v in kernel_ms.items()}
    for s, v in page_ms.items():
        out[f"pixels.page_ms.{strategy_name(s)}.p50"] = _pct(v, 50)
        out[f"pixels.pages.{strategy_name(s)}"] = float(len(v))
    out["pixels.otsu_calls_per_page"] = calls[0] / len(rasters) if rasters \
        else 0.0
    return out


def classify_layer(texts: list[str], tracer) -> tuple[dict, float]:
    """stages.classify: ``classify_one`` on every text span."""
    us, kept = [], 0
    with tracer.span("stages.classify", calls=len(texts)):
        for t in texts:
            t0 = time.perf_counter()
            keep, _clean = classify.classify_one(t)
            us.append((time.perf_counter() - t0) * 1e6)
            kept += keep
    return {"classify.us_per_span.p50": _pct(us, 50),
            "classify.us_per_span.p99": _pct(us, 99),
            "classify.spans": float(len(texts)),
            "classify.keep_frac": kept / len(texts) if texts else 0.0,
            }, sum(us) / 1e6


def fields_layer(doc_texts: list[str], tracer) -> tuple[dict, float]:
    """functions.regex_banks: ``extract_fields`` + ``validate_fields``
    over the oracle's ordered text of each doc."""
    us = []
    with tracer.span("functions.regex_banks", calls=len(doc_texts)):
        for t in doc_texts:
            t0 = time.perf_counter()
            regex_banks.validate_fields(regex_banks.extract_fields(t))
            us.append((time.perf_counter() - t0) * 1e6)
    return {"fields.us_per_doc.p50": _pct(us, 50),
            "fields.us_per_doc.p99": _pct(us, 99)}, sum(us) / 1e6


def bucket_skew(rows_per_doc: dict[str, int]) -> float:
    """stages.reassemble: max ÷ mean rows per crc32 bucket entering the
    shuffle (0 when no doc goes through it)."""
    counts = [0] * REASSEMBLE_BUCKETS
    for doc_id, n in rows_per_doc.items():
        counts[zlib.crc32(doc_id.encode()) % REASSEMBLE_BUCKETS] += n
    mean = sum(counts) / REASSEMBLE_BUCKETS
    return max(counts) / mean if mean else 0.0


def kernel_pass(corpus, expected: dict, calib, tracer, *,
                shuffled_docs: set[str], with_fields: bool
                ) -> tuple[dict, float]:
    """All kernel-level per-layer metrics for the corpus, and the serial
    kernel CPU-seconds of the job (OCR + classify, + fields when the
    job extracts fields)."""
    media = pq.read_table(corpus.media_dir, columns=["payload"])
    payloads = media["payload"].to_pylist()
    spans = pq.read_table(corpus.docs_dir, columns=["spans"])["spans"]
    texts = [s["text"] for doc in spans.to_pylist() for s in doc
             if s["kind"] == "text"]
    out, ocr_s = ocr_layer(payloads, tau_enhance(calib), tracer)
    rasters = [p for p in payloads
               if media_stub.classify_payload(p) == "raster"]
    out.update(pixels_layer(rasters, tracer))
    cls, cls_s = classify_layer(texts, tracer)
    out.update(cls)
    flds, flds_s = fields_layer(list(expected["texts"].values()), tracer)
    out.update(flds)
    out["reassemble.bucket_skew"] = bucket_skew(
        {d: n for d, n in expected["n_rows"].items() if d in shuffled_docs})
    return out, ocr_s + cls_s + (flds_s if with_fields else 0.0)
