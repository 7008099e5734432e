"""Slow, single-process, obviously-correct oracle (FIXTURES.md §3).

Plays the role of the reference's reachable golden path (SURVEY §8):
sequential per-document processing, plain Python sorts, no Ray, no
vectorization. The engine's distributed output must equal this exactly
on (kind, text, media_ref, order) — the reference's exact-equality gate
(run_comprehensive_tests.py:58-66) lifted to span sequences.

Pipeline *logic* is re-implemented here independently (simple loops,
``sorted`` with explicit keys), and EVERY engine/cascade constant —
engine bases and penalties, truncation window, dissent dock, cascade
thresholds, target accuracies, boilerplate thresholds — is restated
below as a LITERAL (the cascade taus restate reference config.py:10-12;
the target ACCURACIES are the engine's deliberate remap — the
reference's pipeline.py:330-369 uses 0.97/0.85/0.70, see the
ACC_TARGET_* note in stages/ocr.py), NOT imported from the engine: a
wrong constant in the engine must FAIL this gate, not silently
propagate into it. The aggressive
confusable→digit reader, isotonic fit (PAV), interpolation and
threshold inversion are likewise re-derived here in plain Python.

Only deterministic *definitions* shared with the engine are imported:
the FPG1 payload format (format spec, not logic), the corpus generator
(the test input itself) and the F1-F4 char-correction rule bank, whose
rule table is the reference's own spec (pipeline.py:1296-1336) and is
truth-table-tested independently in tests/test_functions.py.
"""

from __future__ import annotations

import math
import re

from ocr_pipeline_ray.functions.charfix import fix_text
from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import media_stub

# --- Literal restatement of the engine/cascade constants (see module
# docstring). Engine rows: (base_conf, per-suspect penalty, variant).
_ENGINES = {
    300: ((0.98, 0.03, "raw"),   # stable / tesseract-style
          (0.96, 0.01, "fix"),   # sharp  / paddle-style
          (0.92, 0.02, "raw")),  # fuzzy  / easyocr-style
    600: ((0.99, 0.03, "raw"),
          (0.97, 0.01, "fix"),
          (0.94, 0.02, "fix")),
}
_CONF_FLOOR = 0.55
_DISAGREE_PENALTY = 0.04
_TRUNC_CHARS_300 = 120
_TRUNC_PENALTY = 0.05
_RESTORE_PENALTY = 0.05     # pixel-restored raster pages' residual dock
_TAU_ENHANCE = 0.90          # reference config.py tau_enhance
_TAU_LLM = 0.85              # reference config.py tau_llm
_TAU_LINE_ENHANCE = 0.85
_ACC_TARGET_ENHANCE = 0.90   # engine's remapped targets (the reference's
_ACC_TARGET_LLM = 0.85       # get_calibrated_thresholds uses 0.97/0.85/0.70;
# this cascade has no accept tier and pins its targets to the config
# taus — see stages/ocr.py ACC_TARGET_* note)
_LINK_DENSITY_DROP = 0.5     # boilerplate classifier thresholds
_MIN_TEXT_CHARS = 12

_TAG = re.compile(r"<[^>]+>")
_LINK = re.compile(r"<a\b[^>]*>(.*?)</a>", re.S | re.I)
_WS = re.compile(r"\s+")
_CONFUSABLE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]+\b")
_AGGRESSIVE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]{2,}\b")
_SUSPECTS = set("lIoOzZsSgGbB|")
# The reference's confusable→digit table (pipeline.py:1307-1312),
# restated here as a literal.
_CONFUSION = str.maketrans({"l": "1", "I": "1", "|": "1", "O": "0",
                            "o": "0", "Z": "2", "z": "2", "S": "5",
                            "s": "5", "G": "6", "g": "9", "B": "8"})


def _aggressive_fix(text: str) -> str:
    """The 'sharp' engine's reader: confusable→digit translate on ANY
    confusable-class word of length ≥ 2 (no digit witness required)."""
    return _AGGRESSIVE_WORD.sub(
        lambda m: m.group(0).translate(_CONFUSION), text)


def _classify_text(raw: str) -> tuple[bool, str]:
    link_chars = sum(len(m) for m in _LINK.findall(raw))
    visible = _WS.sub(" ", _TAG.sub(" ", raw)).strip()
    if len(visible) < _MIN_TEXT_CHARS:
        return False, ""
    if link_chars / len(visible) > _LINK_DENSITY_DROP:
        return False, ""
    return True, fix_text(visible)


def _suspects(raw: str) -> int:
    n = 0
    for m in _CONFUSABLE_WORD.finditer(raw):
        w = m.group(0)
        if any(c.isdigit() for c in w) or len(w) >= 2:
            n += sum(1 for ch in w if ch in _SUSPECTS)
    return n


def _read_line(raw: str, dpi: int) -> tuple[str, float]:
    """Independent re-derivation of the 3-engine vote-merge."""
    if dpi < 600 and len(raw) > _TRUNC_CHARS_300:
        seen, pen = raw[:_TRUNC_CHARS_300], _TRUNC_PENALTY
    else:
        seen, pen = raw, 0.0
    fixw = _aggressive_fix(seen)
    readings = []
    for base, weight, variant in _ENGINES[dpi]:
        text = seen if variant == "raw" else fixw
        conf = base - weight * _suspects(text) - pen
        readings.append((text, max(_CONF_FLOOR, conf)))
    # vote: weight(v) = sum(conf) * votes / 9; ties → smallest variant
    weights: dict[str, float] = {}
    counts: dict[str, int] = {}
    for text, conf in readings:
        weights[text] = weights.get(text, 0.0) + conf
        counts[text] = counts.get(text, 0) + 1
    best, best_w = "", -1.0
    for text in sorted(weights):
        w = weights[text] * counts[text] / 9.0
        if w > best_w:
            best, best_w = text, w
    conf = max(c for t, c in readings if t == best)
    conf -= _DISAGREE_PENALTY * (3 - counts[best])
    return best, max(_CONF_FLOOR, conf)


def _geomean(confs: list[float]) -> float:
    c = [max(x, 1e-3) for x in confs]
    if not c:
        return 0.0
    if len(c) > 20:
        keep = max(5, int(len(c) * 0.8))
        c = sorted(c)[-keep:]
    return math.exp(sum(math.log(x) for x in c) / len(c))


def _page_lines_ordered(payload: bytes) -> list[str] | None:
    lines = media_stub.decode_page(payload)
    if not lines:
        return None
    # XY-cut: band of 24px top-to-bottom, then left-to-right; stable ties.
    indexed = list(enumerate(lines))
    indexed.sort(key=lambda it: (it[1][2] // 24, it[1][1], it[1][2], it[0]))
    return [t for _, (t, _, _) in indexed]


def _decode(payload: bytes, dpi: int) -> tuple[str, float, float, str, bool]:
    kind = media_stub.classify_payload(payload)
    if kind == "digital":  # S2 fast path: text as-is, conf 1.0, no OCR
        return media_stub.decode_digital(payload), 1.0, 1.0, "ok", False
    if kind != "page":
        return "", 0.0, 0.0, kind, False
    ordered = _page_lines_ordered(payload)
    if ordered is None:
        return "", 0.0, 0.0, "blank", False
    truncated = dpi < 600 and any(len(r) > _TRUNC_CHARS_300 for r in ordered)
    merged, confs = [], []
    for raw in ordered:
        text, conf = _read_line(raw, dpi)
        merged.append(text)
        confs.append(conf)
    return (fix_text("\n".join(merged)), _geomean(confs), min(confs), "ok",
            truncated)


def _ocr_page(payload: bytes, dpi: int) -> tuple[str, float, str]:
    text, conf, _m, st, _t = _decode(payload, dpi)
    return text, conf, st


def _raster_expected(media_row: dict) -> tuple[str, float, str, str]:
    """Expected read of a raster-bitmap page, derived from CONSTRUCTION
    TRUTH (truth_lines in render order) — deliberately NOT by running
    the engine's pixel kernels: the engine must genuinely RECOVER the
    clean text from the degraded bitmap (P5-P8) or the texts diverge.
    Degraded pages are expected ``restored`` with the fixed residual
    dock; clean pages ``accepted`` (the strategy router must agree).
    The bitmap holds every line whole, so a page with a line longer than
    the 300-DPI window is read with the window-free 600 engine set."""
    lines = [t["text"] for t in media_row["truth_lines"]]
    dpi = 600 if any(len(raw) > _TRUNC_CHARS_300 for raw in lines) else 300
    merged, confs = [], []
    for raw in lines:
        text, conf = _read_line(raw, dpi)
        merged.append(text)
        confs.append(conf)
    conf = _geomean(confs)
    if media_row["degradations"]:
        return (fix_text("\n".join(merged)),
                max(_CONF_FLOOR, conf - _RESTORE_PENALTY), "ok", "restored")
    return fix_text("\n".join(merged)), conf, "ok", "accepted"


def _cascade(payload: bytes, tau_enhance: float) -> tuple[str, float, str, str]:
    kind = media_stub.classify_payload(payload)
    if kind == "digital":
        return media_stub.decode_digital(payload), 1.0, "ok", "digital"
    text, conf, min_conf, st, trunc = _decode(payload, 300)
    if st != "ok":
        return text, conf, st, "none"
    # truncation = lost text → always force the untruncated 600-DPI read
    if conf >= tau_enhance and min_conf >= _TAU_LINE_ENHANCE and not trunc:
        return text, conf, st, "accepted"
    t6, c6, _m6, s6, _t6 = _decode(payload, 600)
    if s6 == "ok" and (c6 > conf or trunc):
        return t6, c6, "ok", "enhanced"
    return text, conf, "ok", "retry_kept"


def _interp(x: float, kx: list[float], ky: list[float]) -> float:
    """Plain piecewise-linear interpolation, clipped at the ends
    (slope formulation — the standard y0 + slope·(x−x0))."""
    if x <= kx[0]:
        return ky[0]
    if x >= kx[-1]:
        return ky[-1]
    for i in range(1, len(kx)):
        if x <= kx[i]:
            if kx[i] == kx[i - 1]:
                return ky[i]
            slope = (ky[i] - ky[i - 1]) / (kx[i] - kx[i - 1])
            return slope * (x - kx[i - 1]) + ky[i - 1]
    return ky[-1]


def _pav_fit(confs: list[float], correct: list[float]
             ) -> tuple[list[float], list[float]]:
    """Independent pool-adjacent-violators isotonic fit (unit weights):
    sort by x (stable), merge adjacent violating blocks by weighted
    average, expand back, collapse duplicate x keeping the last (max)
    fitted value — one knot per distinct x."""
    order = sorted(range(len(confs)), key=lambda i: confs[i])
    x = [float(confs[i]) for i in order]
    vals = [float(correct[i]) for i in order]
    weights = [1.0] * len(vals)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1] + 1e-15:
            merged = (vals[i] * weights[i] + vals[i + 1] * weights[i + 1]) \
                / (weights[i] + weights[i + 1])
            weights[i] += weights[i + 1]
            vals[i] = merged
            del vals[i + 1], weights[i + 1]
            if i > 0:
                i -= 1
        else:
            i += 1
    fitted: list[float] = []
    for v, w in zip(vals, weights):
        fitted.extend([v] * int(w))
    kx: list[float] = []
    ky: list[float] = []
    for j in range(len(x)):
        if j == len(x) - 1 or x[j + 1] != x[j]:
            kx.append(x[j])
            ky.append(fitted[j])
    return kx, ky


def _threshold_for(kx: list[float], ky: list[float], target: float,
                   tol: float = 1e-4) -> float | None:
    """Smallest raw confidence whose calibrated accuracy ≥ target:
    plain bisection over the monotone map (None if unreachable)."""
    lo, hi = kx[0], kx[-1]
    if _interp(hi, kx, ky) < target:
        return None
    if _interp(lo, kx, ky) >= target:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if _interp(mid, kx, ky) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def golden_calibrator(seed: int, n_docs: int, skew_upper: int = 120,
                      sample_n: int = 512):
    """Independent construction of the calibration sample: all page_png
    media rows sorted by media_ref, first sample_n, decoded through the
    UNCALIBRATED cascade (default thresholds) — the same quantity the
    fitted map is later applied to — vs construction truth (truth lines
    ordered by the same XY-cut)."""
    rows = []
    for i in range(n_docs):
        _, media_rows = gen_doc(seed, i, skew_upper)
        for m in media_rows:
            if m["media_kind"] == "page_png":
                rows.append(m)
    rows.sort(key=lambda m: m["media_ref"])
    confs, correct = [], []
    for m in rows[:sample_n]:
        text, conf, st, _casc = _cascade(m["payload"], _TAU_ENHANCE)
        truth = m["truth_lines"]
        if st != "ok" or not truth:
            continue
        ordered = sorted(enumerate(truth),
                         key=lambda it: (it[1]["y"] // 24, it[1]["x"],
                                         it[1]["y"], it[0]))
        truth_text = fix_text("\n".join(t["text"] for _, t in ordered))
        confs.append(conf)
        correct.append(1.0 if text == truth_text else 0.0)
    if len(confs) < 10:
        return None
    return _pav_fit(confs, correct)


def golden_spans(seed: int, n_docs: int, skew_upper: int = 120,
                 calib=None) -> list[dict]:
    """Expected ordered span rows for the generated corpus (optionally
    with the calibrated cascade thresholds active)."""
    if calib is None:
        tau_enhance, tau_llm = _TAU_ENHANCE, _TAU_LLM
    else:
        kx, ky = list(calib[0]), list(calib[1])
        te = _threshold_for(kx, ky, _ACC_TARGET_ENHANCE)
        tl = _threshold_for(kx, ky, _ACC_TARGET_LLM)
        tau_enhance = te if te is not None else _TAU_ENHANCE
        tau_llm = tl if tl is not None else _TAU_LLM

    rows: list[dict] = []
    for i in range(n_docs):
        doc, media_rows = gen_doc(seed, i, skew_upper)
        media = {m["media_ref"]: m for m in media_rows}
        order = 0
        for span in doc["spans"]:  # generator emits offset order already
            if span["kind"] == "text":
                kept, clean = _classify_text(span["text"])
                if not kept:
                    continue
                rows.append({"doc_id": doc["doc_id"], "order": order,
                             "kind": "text", "text": clean, "media_ref": "",
                             "conf": 1.0, "conf_calibrated": 1.0,
                             "status": "ok", "cascade": "accepted"})
                order += 1
            else:
                m = media[span["media_ref"]]
                if m["media_kind"] == "page_raster":
                    text, conf, st, casc = _raster_expected(m)
                else:
                    text, conf, st, casc = _cascade(m["payload"], tau_enhance)
                if st != "ok":
                    continue  # blank/corrupt pages dropped from the sequence
                if calib is None or casc == "digital":
                    cal = conf
                else:
                    cal = _interp(conf, calib[0], calib[1])
                # tau_llm is raw-space (inverted through the calibrator) —
                # the gate compares the RAW confidence against it
                status = "low_conf" if (casc != "digital" and conf < tau_llm) \
                    else "ok"
                rows.append({"doc_id": doc["doc_id"], "order": order,
                             "kind": "media", "text": text,
                             "media_ref": span["media_ref"],
                             "conf": conf, "conf_calibrated": cal,
                             "status": status, "cascade": casc})
                order += 1
    return rows
