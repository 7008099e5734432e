"""OCR stage for ``kind="media"`` spans, run as Ray Data tasks.

The Ray-Data re-expression of the reference's engine stack (SURVEY
§2.3 M1-M8): a callable INSTANCE for ``map_batches`` that carries all
the state it reads (the media zone map and a ``PageReader``), so Ray
Data runs it as tasks on its pooled worker processes (and fuses it
with the map before it); ``__call__`` scores a whole Arrow batch. The
reference caches its engines once per process (pipeline.py:1150-1195)
because each loads a model; the stub engines load none, so nothing
lives beside the stage in a process.

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
confidence falls below tau_enhance are re-read at 600 DPI — higher
engine bases, no line truncation, and two engines now agree on the
corrected variant, so the retry can genuinely CHANGE the page text
(not just its confidence). The retry reads the lines the 300-DPI pass
already unscrambled; the payload is decoded once.

Calibration (M10/A7, reference pipeline.py:196-369): an optional
isotonic calibrator (fit offline on a seeded labelled sample —
``pipelines.extract.fit_page_calibrator``) maps raw ensemble
confidence → observed accuracy. The cascade thresholds are then the
raw confidences achieving the reference's target accuracies
(``get_calibrated_thresholds``, pipeline.py:330-369), inverted via
``threshold_for_accuracy``; a ``conf_calibrated`` column carries the
calibrated score downstream.

Everything around the stub decode is the real distributed design:
one decode (``PageReader.decode``) and one span finisher
(``apply_media_text``) shared by both media plans — ``OcrStage`` (also
run in-task by ``DocLocalExtract``) reads through the zone map,
``MediaDecodeStage`` decodes the media table for the join — XY-cut
reading order, char-correction canonicalization, failure-as-data
status columns.
"""

from __future__ import annotations

import bisect
import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import TAU_ENHANCE, TAU_LLM
from ..functions.charfix import (_CONFUSABLE_WORD, _HAS_DIGIT, _SUSPECTS,
                                 aggressive_digit_fix, fix_text)
from ..functions.confidence import geomean_confidence
from ..functions.geometry import xy_cut_order
from . import media_stub

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
# trigger, and would otherwise be silently accepted. A raster page with
# a line this long is read with the 600 engine set straight away. Far
# above the synthetic corpus line lengths; the mechanism is exercised
# by unit tests.
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


# A clean line's reading per DPI: the winner's confidence when every
# engine reads the raw line with no suspect, no clip and no dissent.
_CLEAN_CONF = {dpi: max(CONF_FLOOR, *(base for _n, base, _w, _v in params))
               for dpi, params in ENGINE_PARAMS.items()}


def read_line(raw: str, dpi: int) -> tuple[str, float]:
    """Three engine readings of one line + J2/J3 vote-merge.

    weight(variant) = sum(conf of its readers) × votes / n²  — the
    per-group weighted vote of stages.ensemble.vote_merge_tokens; the
    winner's confidence is the best reader's (J3 winner selection),
    docked per dissenting engine. Deterministic ties →
    lexicographically smallest variant.

    A line that fits the DPI's scan window and whose confusable words
    of two or more chars are all digits is decided before the vote:
    ``aggressive_digit_fix`` rewrites only those words, and a digit
    maps to itself, so it leaves the line as is; the line has no
    suspect char (a one-char confusable word without a digit counts
    none), so all three engines read the raw line at their base
    confidence, none dissents, and the vote returns it at the highest
    base (``_CLEAN_CONF``). Most page lines take this exit.
    """
    if (dpi >= 600 or len(raw) <= TRUNC_CHARS_300) and all(
            len(w) < 2 or w.isdigit() for w in _CONFUSABLE_WORD.findall(raw)):
        return raw, _CLEAN_CONF[dpi]
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


def _read_page(raws: list[str], dpi: int) -> tuple[str, float, float]:
    """Non-empty lines in reading order → (canonical_text, page_conf,
    min_line_conf): one ensemble read per line at ``dpi``, then the
    joined page text char-fixed."""
    merged, confs = [], []
    for raw in raws:
        text, conf = read_line(raw, dpi)
        merged.append(text)
        confs.append(conf)
    return (fix_text("\n".join(merged)),
            geomean_confidence(np.array(confs)), min(confs))


def _clipped(raws: list[str]) -> bool:
    """Whether a line exceeds the 300-DPI scan window."""
    return any(len(r) > TRUNC_CHARS_300 for r in raws)


def _page_lines(payload: bytes) -> list[str]:
    """FPG1 payload → its line texts in XY-cut reading order."""
    lines = media_stub.decode_page(payload)
    if not lines:
        return []
    xs = np.array([x for _, x, _ in lines])
    ys = np.array([y for _, _, y in lines])
    return [lines[i][0] for i in xy_cut_order(xs, ys)]


def _read_raster(payload: bytes) -> tuple[str, float, str, str]:
    """FPX1 bitmap page → (canonical_text, page_conf, status, cascade).

    The REAL pixel path (P3 stats → R3 strategy route → P5-P8 restore →
    template readback, stages/pixels.py), then the same per-line
    ensemble canonicalization every page read gets. Pages whose routed
    strategy ran a restoration kernel are tagged ``restored`` and dock
    ``RESTORE_PENALTY``; clean pages (plain Otsu binarize) are
    ``accepted``. Single-shot: a bitmap has no 600-DPI re-decode. The
    pixel reader recovers every line whole, so a page with a line
    longer than the 300-DPI window is read with the window-free 600
    engine set; clipping that line would lose text under status ok. A
    page whose last read still rejects a cell (no glyph within the
    reader's margin, even after the noisy-page bilateral passes) holds
    a '?' the engine knows is wrong, so it is ``low_conf``, never
    ``ok``."""
    from . import pixels

    img = media_stub.decode_raster(payload)
    lines, strategy, rejects = pixels._restore_and_read(img, None)
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        return "", 0.0, "blank", "none"
    text, conf, _min_conf = _read_page(lines, 600 if _clipped(lines) else 300)
    status = "low_conf" if rejects else "ok"
    if strategy != "binarize":
        return (text, max(CONF_FLOOR, conf - RESTORE_PENALTY), status,
                "restored")
    return text, conf, status, "accepted"


# Decode failures a torn-but-valid-magic payload can raise: reshape /
# format ValueErrors, short struct unpacks, utf-8 split mid-codepoint.
# Failure-as-data (S3, reference format validator pipeline.py:2615-2685):
# the page becomes a 'corrupt' STATUS ROW — an exception here would kill
# the actor task and with it the whole batch at 100 TB, where torn
# files are a certainty, not an edge case.
_DECODE_ERRORS = (ValueError, struct.error, UnicodeDecodeError)

# Payload byte cap kept from the reference (pipeline.py:458-491 size
# guard): a larger payload is an 'oversize' status row, never decoded.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


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
    exception); one over ``MAX_PAYLOAD_BYTES`` is an 'oversize' row,
    checked before any decode. Returns (text, conf, status, cascade)
    with cascade ∈ {accepted, enhanced, retry_kept, restored, digital,
    none}."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        return "", 0.0, "oversize", "none"
    try:
        return _cascade_unguarded(payload, tau_enhance)
    except _DECODE_ERRORS:
        return "", 0.0, "corrupt", "none"


def _cascade_unguarded(payload: bytes, tau_enhance: float
                       ) -> tuple[str, float, str, str]:
    kind = media_stub.classify_payload(payload)
    if kind == "digital":
        # digital-text fast path: extractable text, skip OCR entirely,
        # conf=1.0 (reference pdfminer path, pipeline.py:1938-1946)
        return media_stub.decode_digital(payload), 1.0, "ok", "digital"
    if kind == "raster":
        return _read_raster(payload)
    if kind != "page":
        return "", 0.0, kind, "none"
    raws = _page_lines(payload)
    if not raws:
        return "", 0.0, "blank", "none"
    text, conf, min_conf = _read_page(raws, 300)
    trunc = _clipped(raws)
    if conf >= tau_enhance and min_conf >= TAU_LINE_ENHANCE and not trunc:
        return text, conf, "ok", "accepted"
    t600, c600, _m600 = _read_page(raws, 600)
    if c600 > conf or trunc:
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


MEDIA_COLUMNS = ["media_ref", "payload"]

# One decoded media row: what ``PageReader.decode`` returns and the
# join plan joins back to the span rows.
DECODE_SCHEMA = pa.schema([("media_ref", pa.string()),
                           ("m_text", pa.string()),
                           ("m_conf", pa.float64()),
                           ("m_conf_calibrated", pa.float64()),
                           ("m_status", pa.string()),
                           ("m_cascade", pa.string())])


def read_zone_rows(zones: pa.Table, refs, columns: list[str]) -> pa.Table:
    """The media rows (``columns``) whose ``media_ref`` is one of the
    non-empty ``refs``, in file, row-group and row order. ``zones`` is
    the zone map (``pipelines.extract.build_media_lookup``). Only the
    row groups whose ``[min, max]`` holds a wanted ref are read (every
    row group with no range too), each file's in one call, whole, then
    filtered to the wanted refs."""
    wanted = sorted({r for r in refs if r})
    by_path: dict[str, list[int]] = {}
    for path, rg, lo, hi in zip(*(zones[c].to_pylist() for c in
                                  ("path", "row_group", "min", "max"))):
        if wanted and (lo is None or bisect.bisect_left(wanted, lo)
                       < bisect.bisect_right(wanted, hi)):
            by_path.setdefault(path, []).append(rg)
    if not by_path:
        return pa.table({c: [] for c in columns})
    t = pa.concat_tables(pq.ParquetFile(path).read_row_groups(rgs, columns)
                         for path, rgs in by_path.items())
    return t.filter(pc.is_in(t["media_ref"],
                             value_set=pa.array(wanted, pa.string())))


class PageReader:
    """Page-read state of the OCR stages: the optional ``(knots_x,
    knots_y)`` isotonic calibrator and the cascade thresholds derived
    from it. Each stage builds one in its ``__init__``; Ray Data ships
    it with the stage's transform.
    """

    def __init__(self, calib) -> None:
        self.calib = None
        if calib is not None:
            self.calib = (np.asarray(calib[0], dtype=np.float64),
                          np.asarray(calib[1], dtype=np.float64))
        self.tau_enhance, self.tau_llm = _resolve_taus(self.calib)

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

    def decode(self, media: pa.Table) -> pa.Table:
        """Media rows ``(media_ref, payload)`` → ``DECODE_SCHEMA`` rows,
        one per input row, in order."""
        rows = [self.read(p) for p in media["payload"].to_pylist()]
        cols = list(zip(*rows)) if rows else [()] * 5
        return pa.table([media["media_ref"], *cols], schema=DECODE_SCHEMA)


class OcrStage:
    """map_batches callable over mixed span rows.

    Media rows (status='pending') are read through the zone map
    ``zones`` (``pipelines.extract.build_media_lookup``): only the media
    row groups that can hold the batch's refs, each distinct ref decoded
    once (a ref held by several media rows takes the last of them). Text
    rows pass through. ``calib`` is an optional ``(knots_x, knots_y)``
    isotonic calibrator: it derives the cascade thresholds and fills
    ``conf_calibrated``.

    Output columns: ``apply_media_text``'s.
    """

    def __init__(self, zones: pa.Table, calib=None) -> None:
        self.zones, self.reader = zones, PageReader(calib)

    def __call__(self, batch: pa.Table) -> pa.Table:
        pending = batch["media_ref"].filter(
            pc.equal(batch["status"], "pending"))
        media = read_zone_rows(self.zones, pending.to_pylist(), MEDIA_COLUMNS)
        last = {ref: i for i, ref in enumerate(media["media_ref"].to_pylist())}
        decoded = self.reader.decode(
            media.take(pa.array(last.values(), pa.int64())))
        found = decoded.take(pc.index_in(batch["media_ref"],
                                         value_set=decoded["media_ref"]))
        for name in DECODE_SCHEMA.names[1:]:
            batch = batch.append_column(name, found[name])
        return apply_media_text(batch)


class MediaDecodeStage:
    """map_batches decode of the MEDIA TABLE itself (the join path's
    heavy stage): payload bytes are processed where they already live
    and never enter the shuffle — only the extracted text rows
    (``DECODE_SCHEMA``) are joined back to the span rows.
    """

    def __init__(self, calib) -> None:
        self.reader = PageReader(calib)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.reader.decode(batch)


def apply_media_text(batch: pa.Table) -> pa.Table:
    """The one span finisher of both media plans: span rows, with the
    ``DECODE_SCHEMA`` columns of each row's media decode (null where it
    has none; a batch without them has none) → the ensemble span
    schema. A pending row with a decode takes it; a pending row without
    one is ``missing_media`` (dropped later by ``filter_keep``); any
    other row keeps its text, status and conf, with ``conf_calibrated``
    = conf and cascade ``accepted``."""
    m = {name: batch[name] if name in batch.column_names
         else pa.nulls(batch.num_rows, DECODE_SCHEMA.field(name).type)
         for name in DECODE_SCHEMA.names[1:]}
    pending = pc.equal(batch["status"], "pending")
    have = pc.and_(pending, pc.is_valid(m["m_status"]))

    def pick(name, missing, own):
        return pc.if_else(have, m[name], pc.if_else(pending, missing, own))
    return pa.table({
        "doc_id": batch["doc_id"],
        "kind": batch["kind"],
        "text": pick("m_text", "", batch["text"]),
        "media_ref": batch["media_ref"],
        "offset": batch["offset"],
        "status": pick("m_status", "missing_media", batch["status"]),
        "conf": pick("m_conf", 0.0, batch["conf"]),
        "conf_calibrated": pick("m_conf_calibrated", 0.0, batch["conf"]),
        "cascade": pick("m_cascade", "none", pa.scalar("accepted")),
    })
