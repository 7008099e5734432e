"""OCR stage for ``kind="media"`` spans, run as Ray Data tasks.

The Ray-Data re-expression of the reference's engine stack (SURVEY
§2.3 M1-M8): a callable INSTANCE for ``map_batches`` that only carries
its constructor arguments, so Ray Data runs it as tasks on its pooled,
already-warm worker processes (and fuses it with the map before it).
The warm "engines" live in ``warm_reader``'s per-process cache, built
once per worker process exactly like the reference's per-process lazy
singletons (pipeline.py:1150-1195 caches PaddleOCR on a function
attribute), and ``__call__`` scores a whole Arrow batch.

Multi-engine ensemble (reference pipeline.py:1948-1982): every page
line is read by THREE deterministic stub engines with distinct error
profiles and confidence models, and the readings are vote-merged per
line (J2 token vote, pipeline.py:1750-1848) with winner selection by
weighted agreement (J3 ``_aggregate_multi_engine_results``,
pipeline.py:1850-1898). The engines:

- ``stable``  (tesseract-style): reads the rasterized text as-is;
  base 0.98, −0.03 per suspect confusable char.
- ``sharp``   (paddle-style): applies the aggressive confusable→digit
  translate to ALL confusable-class words (len ≥ 2, digit not
  required) — it alone can recover fully-corrupted numbers like
  ``lOZS`` → ``1025`` that the conservative char-fix (F1 requires a
  digit witness) cannot; base 0.96, −0.01.
- ``fuzzy``   (easyocr-style): raw read at 300 DPI, but at 600 DPI it
  converges with ``sharp`` on the corrected variant; base 0.92, −0.02.

Confidence cascade with a GENUINE re-decode (R1, reference
pipeline.py:1989-2002 600-DPI retry): pages whose 300-DPI ensemble
confidence falls below tau_enhance are re-decoded at 600 DPI — higher
engine bases, no line truncation, and two engines now agree on the
corrected variant, so the retry can genuinely CHANGE the page text
(not just its confidence).

Calibration (M10/A7, reference pipeline.py:196-369): an optional
isotonic calibrator (fit offline on a seeded labelled sample —
``pipelines.extract.fit_page_calibrator``) maps raw ensemble
confidence → observed accuracy. The cascade thresholds are then the
raw confidences achieving the reference's target accuracies
(``get_calibrated_thresholds``, pipeline.py:330-369), inverted via
``threshold_for_accuracy``; a ``conf_calibrated`` column carries the
calibrated score downstream.

Everything around the stub decode is the real distributed design:
one warm ``PageReader`` per worker process (zero-copy broadcast
payloads, calibrated cascade thresholds) shared by the three OCR
stages, XY-cut reading order, char-correction canonicalization,
failure-as-data status columns.
"""

from __future__ import annotations

import re
import struct

import numpy as np
import pyarrow as pa

from ..config import TAU_ENHANCE, TAU_LLM
from ..functions.charfix import aggressive_digit_fix, fix_text
from ..functions.confidence import geomean_confidence
from ..functions.geometry import xy_cut_order
from . import media_stub

_CONFUSABLE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]+\b")
_HAS_DIGIT = re.compile(r"[0-9]")
_SUSPECTS = set("lIoOzZsSgGbB|")

# (name, base_conf, per-suspect penalty, variant) per DPI. At 300 only
# ``sharp`` trusts its aggressive correction; at 600 (cleaner glyphs)
# ``fuzzy`` converges on the corrected variant and every base rises —
# the deterministic analog of "retry at 600 dpi reads better".
ENGINE_PARAMS: dict[int, tuple[tuple[str, float, float, str], ...]] = {
    300: (("stable", 0.98, 0.03, "raw"),
          ("sharp", 0.96, 0.01, "fix"),
          ("fuzzy", 0.92, 0.02, "raw")),
    600: (("stable", 0.99, 0.03, "raw"),
          ("sharp", 0.97, 0.01, "fix"),
          ("fuzzy", 0.94, 0.02, "fix")),
}
N_ENGINES = 3
CONF_FLOOR = 0.55
# Winner confidence is docked per dissenting engine (J3: agreement is
# evidence; a split vote means the glyphs are ambiguous even when the
# winning reader is individually confident).
DISAGREE_PENALTY = 0.04

# 300-DPI line-scan window: longer lines are clipped. A clipped line is
# LOST TEXT regardless of how confident the engines are about the
# prefix, so the cascade force-re-decodes any truncated page at 600 DPI
# (no truncation there) instead of trusting the confidence gate — a
# confusable-free clipped line scores 0.98−0.05=0.93, above every
# trigger, and would otherwise be silently accepted. Far above the
# synthetic corpus line lengths; the mechanism is exercised by unit
# tests.
TRUNC_CHARS_300 = 120
TRUNC_PENALTY = 0.05

# Target accuracies for calibrated thresholds. The MECHANISM mirrors
# the reference's get_calibrated_thresholds (pipeline.py:330-369 —
# invert the per-engine calibrator at a target accuracy); the TARGETS
# are deliberately remapped, not copied: the reference uses
# 0.97 accept / 0.85 enhance / 0.70 llm, while this two-tier cascade
# has no separate accept tier and shifts enhance/llm up to 0.90/0.85
# (the config tau defaults), keeping threshold semantics aligned with
# the uncalibrated path.
ACC_TARGET_ENHANCE = 0.90
ACC_TARGET_LLM = 0.85

# Raster (FPX1 bitmap) pages: the strategy-routed P5-P8 restoration +
# template readback is a single-shot read (there is no higher-DPI
# variant of a bitmap to re-decode), and pages that needed a restore
# kernel dock a fixed residual-uncertainty penalty — the preprocessed-
# page analog of the reference's post-enhancement confidence haircut
# (adaptive_ocr_pipeline.py routes repaired pages as lower-trust).
RESTORE_PENALTY = 0.05

# Enhancement also triggers when the WORST line falls below this — the
# analog of the reference's per-FIELD confidence trigger
# (pipeline.py:1989 enhances on field_confidence, and fields live on
# single lines; a page geomean dilutes exactly the line the field
# extractor will read).
TAU_LINE_ENHANCE = 0.85


def suspect_char_count(raw: str) -> int:
    """Ambiguous glyph count: suspect chars inside digit-bearing
    confusable words (the F1 gate) AND inside digit-FREE confusable
    words of length ≥ 2 — a number whose every digit degraded (e.g.
    ``lOZS``) carries no digit witness but is maximally ambiguous, and
    only the aggressive engine can read it."""
    n = 0
    for m in _CONFUSABLE_WORD.finditer(raw):
        w = m.group(0)
        if _HAS_DIGIT.search(w) or len(w) >= 2:
            n += sum(1 for ch in w if ch in _SUSPECTS)
    return n


def line_confidence(raw: str) -> float:
    """The ``stable`` engine's line model (also the winning-variant conf
    on clean lines): base 0.98 − 0.03/suspect, floored at 0.55."""
    return max(CONF_FLOOR, 0.98 - 0.03 * suspect_char_count(raw))


def engine_readings(raw: str, dpi: int) -> list[tuple[str, str, float]]:
    """The three engines' independent readings of one line:
    [(engine_name, variant_text, conf)]. This is the exact input the
    flagship vote merges — ``pipelines.modelops.ensemble_vote_merge``
    explodes it through the generic J2 token-merge stage."""
    if dpi < 600 and len(raw) > TRUNC_CHARS_300:
        seen, pen = raw[:TRUNC_CHARS_300], TRUNC_PENALTY
    else:
        seen, pen = raw, 0.0
    fixw = aggressive_digit_fix(seen)
    s_raw = suspect_char_count(seen)
    s_fix = s_raw if fixw == seen else suspect_char_count(fixw)

    out: list[tuple[str, str, float]] = []
    for name, base, weight, variant in ENGINE_PARAMS[dpi]:
        text = seen if variant == "raw" else fixw
        s = s_raw if variant == "raw" else s_fix
        out.append((name, text, max(CONF_FLOOR, base - weight * s - pen)))
    return out


def read_line(raw: str, dpi: int) -> tuple[str, float]:
    """Three engine readings of one line + J2/J3 vote-merge.

    weight(variant) = sum(conf of its readers) × votes / n²  — the
    per-group weighted vote of stages.ensemble.vote_merge_tokens; the
    winner's confidence is the best reader's (J3 winner selection),
    docked per dissenting engine. Deterministic ties →
    lexicographically smallest variant.
    """
    readings = [(text, conf) for _name, text, conf in engine_readings(raw, dpi)]

    votes: dict[str, tuple[float, int]] = {}
    for text, conf in readings:
        c, n = votes.get(text, (0.0, 0))
        votes[text] = (c + conf, n + 1)
    best_text, best_w = "", -1.0
    for text in sorted(votes):
        c, n = votes[text]
        w = c * n / (N_ENGINES * N_ENGINES)
        if w > best_w:
            best_text, best_w = text, w
    conf = max(c for t, c in readings if t == best_text)
    dissent = N_ENGINES - votes[best_text][1]
    return best_text, max(CONF_FLOOR, conf - DISAGREE_PENALTY * dissent)


def _read_raster(payload: bytes) -> tuple[str, float, str, str]:
    """FPX1 bitmap page → (canonical_text, page_conf, status, cascade).

    The REAL pixel path (P3 stats → R3 strategy route → P5-P8 restore →
    template readback, stages/pixels.py), then the same per-line
    ensemble canonicalization every page read gets. Pages whose routed
    strategy ran a restoration kernel are tagged ``restored`` and dock
    ``RESTORE_PENALTY``; clean pages (plain Otsu binarize) are
    ``accepted``. Single-shot: a bitmap has no 600-DPI re-decode."""
    from . import pixels

    img = media_stub.decode_raster(payload)
    lines, strategy = pixels.restore_and_read(img)
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        return "", 0.0, "blank", "none"
    merged, confs = [], []
    for raw in lines:
        text, conf = read_line(raw, 300)
        merged.append(text)
        confs.append(conf)
    conf = geomean_confidence(np.array(confs))
    if strategy != "binarize":
        return (fix_text("\n".join(merged)),
                max(CONF_FLOOR, conf - RESTORE_PENALTY), "ok", "restored")
    return fix_text("\n".join(merged)), conf, "ok", "accepted"


def _decode(payload: bytes, dpi: int) -> tuple[str, float, float, str, bool]:
    """One ensemble pass at ``dpi`` →
    (canonical_text, page_conf, min_line_conf, status, truncated).
    ``truncated``: at least one line exceeded the DPI's scan window and
    was clipped (only possible below 600 DPI)."""
    kind = media_stub.classify_payload(payload)
    if kind == "blank":
        return "", 0.0, 0.0, "blank", False
    if kind == "corrupt":
        return "", 0.0, 0.0, "corrupt", False
    if kind == "raster":
        text, conf, status, _casc = _read_raster(payload)
        return text, conf, conf, status, False
    if kind == "digital":
        # digital-text fast path: extractable text, skip OCR entirely,
        # conf=1.0 (reference pdfminer path, pipeline.py:1938-1946)
        return media_stub.decode_digital(payload), 1.0, 1.0, "ok", False
    lines = media_stub.decode_page(payload)
    if not lines:
        return "", 0.0, 0.0, "blank", False
    xs = np.array([x for _, x, _ in lines])
    ys = np.array([y for _, _, y in lines])
    order = xy_cut_order(xs, ys)
    truncated = dpi < 600 and any(
        len(t) > TRUNC_CHARS_300 for t, _, _ in lines)
    merged, confs = [], []
    for i in order:
        text, conf = read_line(lines[i][0], dpi)
        merged.append(text)
        confs.append(conf)
    return (fix_text("\n".join(merged)),
            geomean_confidence(np.array(confs)), min(confs), "ok", truncated)


# Decode failures a torn-but-valid-magic payload can raise: reshape /
# format ValueErrors, short struct unpacks, utf-8 split mid-codepoint.
# Failure-as-data (S3, reference format validator pipeline.py:2615-2685):
# the page becomes a 'corrupt' STATUS ROW — an exception here would kill
# the actor task and with it the whole batch at 100 TB, where torn
# files are a certainty, not an edge case.
_DECODE_ERRORS = (ValueError, struct.error, UnicodeDecodeError)


def ocr_page(payload: bytes, dpi: int = 300) -> tuple[str, float, str]:
    """Decode one page at ``dpi`` → (canonical_text, confidence, status).
    One ensemble pass, no cascade (the cascade wraps this)."""
    try:
        text, conf, _min_conf, status, _trunc = _decode(payload, dpi)
    except _DECODE_ERRORS:
        return "", 0.0, "corrupt"
    return text, conf, status


def ocr_page_cascade(payload: bytes, tau_enhance: float = TAU_ENHANCE
                     ) -> tuple[str, float, str, str]:
    """R1 cascade with a genuine re-decode: 300-DPI ensemble first; when
    the page confidence falls below ``tau_enhance`` OR the worst line
    falls below ``TAU_LINE_ENHANCE`` (the per-field trigger analog) OR
    any line was clipped by the 300-DPI scan window (truncation = lost
    text no confidence score can vouch for), the page is re-decoded at
    600 DPI. The better-scoring result wins (reference
    pipeline.py:1989-2002 keeps the enhanced result only when it
    improves) — except for truncated pages, where the untruncated
    600-DPI read wins regardless of score (the 300-DPI confidence only
    describes the clipped prefix). Raster (FPX1) pages take the pixel
    path instead (``_read_raster``). A payload whose magic is valid
    but whose body is torn/garbled decodes to a 'corrupt' status row
    (``_DECODE_ERRORS`` — failure-as-data, never an actor-killing
    exception). Returns (text, conf, status, cascade) with cascade ∈
    {accepted, enhanced, retry_kept, restored, digital, none}."""
    try:
        return _cascade_unguarded(payload, tau_enhance)
    except _DECODE_ERRORS:
        return "", 0.0, "corrupt", "none"


def _cascade_unguarded(payload: bytes, tau_enhance: float
                       ) -> tuple[str, float, str, str]:
    kind = media_stub.classify_payload(payload)
    if kind == "digital":
        return media_stub.decode_digital(payload), 1.0, "ok", "digital"
    if kind == "raster":
        return _read_raster(payload)
    text, conf, min_conf, status, trunc = _decode(payload, 300)
    if status != "ok":
        return text, conf, status, "none"
    if conf >= tau_enhance and min_conf >= TAU_LINE_ENHANCE and not trunc:
        return text, conf, status, "accepted"
    t600, c600, _m600, s600, _t600 = _decode(payload, 600)
    if s600 == "ok" and (c600 > conf or trunc):
        return t600, c600, "ok", "enhanced"
    return text, conf, "ok", "retry_kept"


def _resolve_taus(calib) -> tuple[float, float]:
    """(tau_enhance_raw, tau_llm_raw): config defaults, or — when a
    calibrator is provided — the raw confidences achieving the target
    accuracies (reference get_calibrated_thresholds), with the config
    values as fallback when a target is unreachable."""
    if calib is None:
        return TAU_ENHANCE, TAU_LLM
    from ..functions.calibration import threshold_for_accuracy
    kx, ky = calib
    te = threshold_for_accuracy(kx, ky, ACC_TARGET_ENHANCE)
    tl = threshold_for_accuracy(kx, ky, ACC_TARGET_LLM)
    return (te if te is not None else TAU_ENHANCE,
            tl if tl is not None else TAU_LLM)


class PageReader:
    """Warm per-process page-read state shared by the OCR stages.

    Built once per worker process by ``warm_reader`` (the reference's
    lazy engine singletons, pipeline.py:1150-1195): the broadcast
    ``(media_ref, payload)`` table, its ref→row index, and the optional
    ``(knots_x, knots_y)`` isotonic calibrator with the cascade
    thresholds derived from it.
    """

    def __init__(self, media_lookup_ref=None, calib=None) -> None:
        # ZERO-COPY from the object store: ray.get maps shared buffers —
        # no per-process dict materialization of the payloads.
        self.media: pa.Table | None = None
        if media_lookup_ref is not None:
            import ray
            self.media = ray.get(media_lookup_ref)
        self._ref_index: dict[str, int] | None = None
        self.calib = None
        if calib is not None:
            self.calib = (np.asarray(calib[0], dtype=np.float64),
                          np.asarray(calib[1], dtype=np.float64))
        self.tau_enhance, self.tau_llm = _resolve_taus(self.calib)

    def payload(self, ref: str) -> bytes | None:
        """Payload bytes for ``ref`` from the broadcast table (None when
        there is no table or the ref is missing)."""
        if self.media is None:
            return None
        # ref→row index built ONCE per reader (lazily, off the zero-copy
        # broadcast table): pc.index_in re-hashes the whole value_set on
        # EVERY batch, which made per-batch cost grow with corpus size
        # (measured super-linear wall at 150k docs). The dict costs
        # ~100 B/ref of worker heap — the broadcast path is only used
        # when the media table is node-sized anyway (else: join path).
        if self._ref_index is None:
            self._ref_index = {r: i for i, r in
                               enumerate(self.media["media_ref"].to_pylist())}
        i = self._ref_index.get(ref)
        return None if i is None else self.media["payload"][i].as_py()

    def read(self, payload: bytes) -> tuple[str, float, float, str, str]:
        """One page → (text, conf, conf_calibrated, status, cascade)."""
        text, conf, status, cascade = ocr_page_cascade(payload,
                                                       self.tau_enhance)
        # calibration applies to OCR'd pages only — the digital fast
        # path (and failed pages) keep their native confidence
        cal = conf
        if self.calib is not None and cascade not in ("digital", "none"):
            cal = float(np.interp(conf, self.calib[0], self.calib[1]))
        # tau_llm is a RAW-confidence threshold (threshold_for_accuracy
        # inverts the calibrator back into raw space), so the gate
        # compares the raw conf — comparing the calibrated score
        # against it would double-apply the calibration and mis-route
        # pages whenever the map is non-identity.
        if status == "ok" and cascade != "digital" and conf < self.tau_llm:
            status = "low_conf"  # last-resort branch, pipeline.py:2034-2065
        return text, conf, cal, status, cascade


# One-entry per-process cache: (key, reader). Holding a single entry
# means a worker pins at most one broadcast table.
_warm: tuple[tuple, PageReader] | None = None


def warm_reader(media_lookup_ref=None, calib=None) -> PageReader:
    """This worker process's ``PageReader`` for ``(media_lookup_ref,
    calib)``, built on first use and reused by every later task on the
    same process. A different lookup ref or calibrator replaces the
    entry."""
    global _warm
    key = (media_lookup_ref,
           None if calib is None else (tuple(calib[0]), tuple(calib[1])))
    if _warm is None or _warm[0] != key:
        _warm = None  # drop the old table before mapping the new one
        _warm = (key, PageReader(media_lookup_ref, calib))
    return _warm[1]


class OcrStage:
    """map_batches callable over mixed span rows.

    Media rows (status='pending') are read through the broadcast lookup
    (``media_lookup_ref``); text rows pass through. ``calib`` is an
    optional ``(knots_x, knots_y)`` isotonic calibrator: it derives the
    cascade thresholds and fills ``conf_calibrated``.

    Output columns: doc_id, kind, text, media_ref, offset, status,
    conf, conf_calibrated, cascade.
    """

    def __init__(self, media_lookup_ref=None, calib=None) -> None:
        self.media_lookup_ref, self.calib = media_lookup_ref, calib

    def __call__(self, batch: pa.Table) -> pa.Table:
        reader = warm_reader(self.media_lookup_ref, self.calib)
        status = batch["status"].to_pylist()
        texts = batch["text"].to_pylist()
        confs = batch["conf"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        cascades = ["accepted"] * batch.num_rows
        cals = list(confs)

        for i, st in enumerate(status):
            if st != "pending":
                continue
            payload = reader.payload(refs[i])
            if payload is None:
                texts[i], confs[i], cals[i] = "", 0.0, 0.0
                status[i], cascades[i] = "missing_media", "none"
                continue
            texts[i], confs[i], cals[i], status[i], cascades[i] = \
                reader.read(payload)

        return pa.table({
            "doc_id": batch["doc_id"],
            "kind": batch["kind"],
            "text": pa.array(texts, type=pa.string()),
            "media_ref": batch["media_ref"],
            "offset": batch["offset"],
            "status": pa.array(status, type=pa.string()),
            "conf": pa.array(confs, type=pa.float64()),
            "conf_calibrated": pa.array(cals, type=pa.float64()),
            "cascade": pa.array(cascades, type=pa.string()),
        })


class MediaDecodeStage:
    """map_batches decode of the MEDIA TABLE itself (the join path's
    heavy stage): payload bytes are processed where they already live
    and never enter the shuffle — only the extracted text rows
    (media_ref, m_text, m_conf, m_conf_calibrated, m_status,
    m_cascade) are joined back to the span rows.
    """

    def __init__(self, calib=None) -> None:
        self.calib = calib

    def __call__(self, batch: pa.Table) -> pa.Table:
        reader = warm_reader(calib=self.calib)
        rows = [reader.read(p) for p in batch["payload"].to_pylist()]
        texts, confs, cals, statuses, cascades = zip(*rows) if rows \
            else ((),) * 5
        return pa.table({
            "media_ref": batch["media_ref"],
            "m_text": pa.array(texts, type=pa.string()),
            "m_conf": pa.array(confs, type=pa.float64()),
            "m_conf_calibrated": pa.array(cals, type=pa.float64()),
            "m_status": pa.array(statuses, type=pa.string()),
            "m_cascade": pa.array(cascades, type=pa.string()),
        })


def apply_media_text(batch: pa.Table) -> pa.Table:
    """Join-path finisher: span rows ⋈ decoded media text → the
    standard ensemble span schema (missing media ⇒ status
    'missing_media', dropped later by filter_keep)."""
    import pyarrow.compute as pc

    n = batch.num_rows
    have = pc.is_valid(batch["m_status"])
    return pa.table({
        "doc_id": batch["doc_id"],
        "kind": batch["kind"],
        "text": pc.if_else(have, batch["m_text"], pa.scalar("")),
        "media_ref": batch["media_ref"],
        "offset": batch["offset"],
        "status": pc.if_else(have, batch["m_status"],
                             pa.scalar("missing_media")),
        "conf": pc.if_else(have, batch["m_conf"], pa.scalar(0.0)),
        "conf_calibrated": pc.if_else(have, batch["m_conf_calibrated"],
                                      pa.scalar(0.0)),
        "cascade": pc.if_else(have, batch["m_cascade"], pa.scalar("none")),
    })


def add_passthrough_cols(batch: pa.Table) -> pa.Table:
    """Text-branch rows (join path) get the ensemble columns so the
    union's schema matches: cascade='accepted', conf_calibrated=conf."""
    return pa.table({
        "doc_id": batch["doc_id"],
        "kind": batch["kind"],
        "text": batch["text"],
        "media_ref": batch["media_ref"],
        "offset": batch["offset"],
        "status": batch["status"],
        "conf": batch["conf"],
        "conf_calibrated": batch["conf"],
        "cascade": pa.array(["accepted"] * batch.num_rows, type=pa.string()),
    })
