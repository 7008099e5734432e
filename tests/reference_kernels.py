"""Frozen reference copies of the page-read kernels, for differential
tests only.

``pixel_stats`` and ``read_lines`` (stages/pixels.py) and ``fix_text``
(functions/charfix.py) were rewritten for speed: integer ring and one
shared histogram, a reshape cut with a matmul Hamming distance, and a
folded F3 alternation with class-first F2 rules. Later the page-read
path gained exact short-circuits: a clean-line exit in ``read_line``
(stages/ocr.py), a digit-free identity exit in ``fix_text``, a
big-integer XOR in ``decode_page`` (stages/media_stub.py), a
``str.split`` whitespace collapse in ``classify_one``
(stages/classify.py), an int16 ``sharpen3x3`` and a
``restore_and_read`` that thresholds only the pixels the reader
samples. Then the doc-local chain: its rank moved from a pandas round
trip through ``_rank_bucket`` to the Arrow kernel ``rank_spans``
(stages/reassemble.py), the glyph match to a float32 BLAS matmul, F3
gained a first-letter lookahead, and ``read_line``'s clean-line exit
now also takes lines whose longer confusable words are all digits.
Every rewrite promises to return exactly what the version before it
returned. Those versions are kept here verbatim so
``tests/test_kernel_differential.py`` can assert that promise on every
input it generates. Only data (font tables, engine parameters,
thresholds, geometry constants and the output schema) is imported from
the engine; every line of logic is frozen here. One rule did change on
purpose: a noisy page's bilateral passes (two each, then one to three
until the read rejects no cell), so ``restore_and_read`` here follows
the new rule.

Two references here are not earlier versions but code the engine no
longer carries, because no job runs it: ``build_font``, the md5 salt
search whose output stages/pixels.py bakes as its glyph table, and
``tiled_apply``, the single-array form of the tiling that the
distributed ``explode_patches`` / ``blend_patches`` halves must equal.
``tiled_apply`` reuses the engine's tiling geometry helpers.
"""

from __future__ import annotations

import hashlib
import re
import struct
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_pipeline_ray.config import LINK_DENSITY_DROP, MIN_TEXT_CHARS
from ocr_pipeline_ray.stages.media_stub import MAGIC_PAGE
from ocr_pipeline_ray.stages.ocr import (
    CONF_FLOOR, DISAGREE_PENALTY, ENGINE_PARAMS, N_ENGINES, TRUNC_CHARS_300,
    TRUNC_PENALTY)
from ocr_pipeline_ray.stages.pixels import (
    _CONTRAST_EQUALIZE, _MIDTONE_SHARPEN, _PAPER_NOISE, _PARTIAL_CLOSE,
    CELL_H, CELL_W, CHARSET, GLYPH_H, GLYPH_W, SCALE, _FONT_CHARS,
    _FONT_STACK, _MIN_GLYPH_DIST)
from ocr_pipeline_ray.stages.reassemble import OUT_SCHEMA
from ocr_pipeline_ray.stages.tiling import OVERLAP, PATCH, _grid, _pad, \
    weight_mask


# --------------------------------------------------------------------------
# stages/pixels.py

def otsu_threshold(img: np.ndarray) -> int:
    hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    w0 = np.cumsum(hist) / total              # class-0 probability per t
    w1 = 1.0 - w0
    mu = np.cumsum(hist * np.arange(256.0)) / total   # class-0 mass per t
    mu_t = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = (mu_t * w0 - mu) ** 2 / (w0 * w1)
    between[(w0 <= 0) | (w1 <= 0)] = -1.0
    return int(np.argmax(between))


def binarize(img: np.ndarray, threshold: int | None = None) -> np.ndarray:
    t = otsu_threshold(img) if threshold is None else threshold
    return img <= t


def read_lines(mask: np.ndarray, max_err: int | None = None,
               physical: bool = True) -> list[str]:
    if max_err is None:
        max_err = _MIN_GLYPH_DIST // 2 - 1
    if physical:
        if mask.shape[0] % (CELL_H * SCALE) != 0 \
                or mask.shape[1] % SCALE != 0:
            raise ValueError(
                f"physical mask must be a multiple of "
                f"{CELL_H * SCALE} rows / {SCALE} cols, got {mask.shape}; "
                f"pass physical=False for a logical-resolution mask")
        c = SCALE // 2
        mask = mask[c::SCALE, c::SCALE]
    n_rows = mask.shape[0] // CELL_H
    n_cols = mask.shape[1] // CELL_W
    out: list[str] = []
    for r in range(n_rows):
        cells = []
        band = mask[r * CELL_H:r * CELL_H + GLYPH_H]
        for c in range(n_cols):
            cell = band[:, c * CELL_W:c * CELL_W + GLYPH_W]
            if cell.shape != (GLYPH_H, GLYPH_W):
                break
            cells.append(cell.ravel())
        if not cells:
            out.append("")
            continue
        dists = (np.stack(cells)[:, None, :] ^ _FONT_STACK[None, :, :]) \
            .sum(axis=2)
        best = np.argmin(dists, axis=1)
        best_d = dists[np.arange(len(cells)), best]
        chars = np.where(best_d <= max_err, _FONT_CHARS[best], "?")
        out.append("".join(chars).rstrip())
    return out


def pixel_stats(img: np.ndarray) -> dict[str, float]:
    f = img.astype(np.float64)
    ink_mask = binarize(img)            # Otsu's own split as ink estimate
    pf = np.pad(f, 1, mode="edge")
    ring = (pf[:-2, :-2] + pf[:-2, 1:-1] + pf[:-2, 2:]
            + pf[1:-1, :-2] + pf[1:-1, 2:]
            + pf[2:, :-2] + pf[2:, 1:-1] + pf[2:, 2:]) / 8.0
    interior = (f > 192.0) & (ring > 192.0)
    paper_hf = float(np.abs(f - ring)[interior].mean()) \
        if interior.any() else 0.0
    h = (ink_mask.shape[0] // SCALE) * SCALE
    w = (ink_mask.shape[1] // SCALE) * SCALE
    blocks = ink_mask[:h, :w].reshape(h // SCALE, SCALE, w // SCALE, SCALE) \
        .sum(axis=(1, 3))
    partial = (blocks > 0) & (blocks < SCALE * SCALE)
    return {
        "contrast": float(f.std()),
        "ink_frac": float(ink_mask.mean()),
        "paper_noise": paper_hf,
        "midtone_frac": float(((f > 64) & (f < 192)).mean()),
        "partial_frac": float(partial.mean()) if partial.size else 0.0,
    }


# --------------------------------------------------------------------------
# functions/charfix.py

_CONFUSION = str.maketrans({
    "l": "1", "I": "1", "|": "1",
    "O": "0", "o": "0",
    "Z": "2", "z": "2",
    "S": "5", "s": "5",
    "G": "6", "g": "9",
    "B": "8",
})

_CONFUSABLE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]+\b")
_HAS_DIGIT = re.compile(r"[0-9]")

_F2_RULES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"(?<=[0-9])[lI|](?=[0-9])"), "1"),
    (re.compile(r"(?<=[0-9])[oO](?=[0-9])"), "0"),
    (re.compile(r"(?<=[0-9])[sS](?=[0-9])"), "5"),
    (re.compile(r"[lI|](?=[0-9])"), "1"),
    (re.compile(r"(?<=[0-9])[lI|]"), "1"),
    (re.compile(r"[oO](?=[0-9]{2})"), "0"),
    (re.compile(r"(?<=[0-9]{2})[oO]"), "0"),
    (re.compile(r"(?<=[0-9])[sS]\b"), "5"),
]

_F3_RULES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"\bElectr[il1]c[il1]ty\b", re.IGNORECASE), "Electricity"),
    (re.compile(r"\b[ck][o0]n[s5]umpt[il1][o0]n\b", re.IGNORECASE), "Consumption"),
    (re.compile(r"\b(?:coze|c0ze|co2e|coz[e3]|c02e)\b", re.IGNORECASE), "CO2e"),
    (re.compile(r"\bkwh\b", re.IGNORECASE), "kWh"),
]


def _fix_confusable_word(m: re.Match[str]) -> str:
    word = m.group(0)
    if _HAS_DIGIT.search(word):
        return word.translate(_CONFUSION)
    return word


def _fix_once(text: str) -> str:
    for pat, repl in _F3_RULES:
        text = pat.sub(repl, text)
    for pat, repl in _F2_RULES:
        text = pat.sub(repl, text)
    return _CONFUSABLE_WORD.sub(_fix_confusable_word, text)


def fix_text(text: str) -> str:
    while True:
        fixed = _fix_once(text)
        if fixed == text:
            return fixed
        text = fixed


# --------------------------------------------------------------------------
# functions/charfix.py: the aggressive reader behind ``read_line``

_AGGRESSIVE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]{2,}\b")


def aggressive_digit_fix(text: str) -> str:
    return _AGGRESSIVE_WORD.sub(
        lambda m: m.group(0).translate(_CONFUSION), text)


# --------------------------------------------------------------------------
# stages/media_stub.py

def _keystream(seed: int, n: int) -> bytes:
    out = bytearray()
    state = seed.to_bytes(8, "little")
    while len(out) < n:
        state = hashlib.md5(state).digest()
        out.extend(state)
    return bytes(out[:n])


def decode_page(payload: bytes) -> list[tuple[str, int, int]]:
    if payload[:4] != MAGIC_PAGE:
        raise ValueError("not an FPG1 payload")
    (seed,) = struct.unpack("<Q", payload[4:12])
    body = bytes(a ^ b for a, b in zip(payload[12:], _keystream(seed, len(payload) - 12)))
    (n_lines,) = struct.unpack("<I", body[:4])
    if n_lines * 12 > len(body) - 4:
        raise ValueError("truncated FPG1 payload")
    off = 4
    lines: list[tuple[str, int, int]] = []
    for _ in range(n_lines):
        x, y, ln = struct.unpack("<iiI", body[off:off + 12])
        off += 12
        if off + ln > len(body):
            raise ValueError("truncated FPG1 payload")
        lines.append((body[off:off + ln].decode("utf-8"), x, y))
        off += ln
    return lines


# --------------------------------------------------------------------------
# stages/ocr.py

_OCR_CONFUSABLE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]+\b")
_SUSPECTS = set("lIoOzZsSgGbB|")


def suspect_char_count(raw: str) -> int:
    n = 0
    for m in _OCR_CONFUSABLE_WORD.finditer(raw):
        w = m.group(0)
        if _HAS_DIGIT.search(w) or len(w) >= 2:
            n += sum(1 for ch in w if ch in _SUSPECTS)
    return n


def engine_readings(raw: str, dpi: int) -> list[tuple[str, str, float]]:
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


# --------------------------------------------------------------------------
# stages/classify.py

_TAG = re.compile(r"<[^>]+>")
_LINK = re.compile(r"<a\b[^>]*>(.*?)</a>", re.S | re.I)
_WS = re.compile(r"\s+")


def classify_one(raw: str) -> tuple[bool, str]:
    link_chars = sum(len(m) for m in _LINK.findall(raw))
    visible = _WS.sub(" ", _TAG.sub(" ", raw)).strip()
    n = len(visible)
    if n < MIN_TEXT_CHARS:
        return False, ""
    if link_chars / n > LINK_DENSITY_DROP:
        return False, ""
    return True, fix_text(visible)


# --------------------------------------------------------------------------
# stages/pixels.py: the restore path

def bilateral(img: np.ndarray, radius: int = 2, sigma_s: float = 1.6,
              sigma_r: float = 80.0) -> np.ndarray:
    f = img.astype(np.int16)
    h, w = img.shape
    p = np.pad(img, radius, mode="edge").astype(np.int16)
    acc = np.zeros((h, w), dtype=np.float64)
    wsum = np.zeros((h, w), dtype=np.float64)
    inv2ss = 1.0 / (2.0 * sigma_s * sigma_s)
    inv2sr = 1.0 / (2.0 * sigma_r * sigma_r)
    range_lut = np.exp(-(np.arange(256, dtype=np.float64) ** 2) * inv2sr)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            shifted = p[radius + dy:radius + dy + h,
                        radius + dx:radius + dx + w]
            wgt = np.exp(-(dy * dy + dx * dx) * inv2ss) \
                * range_lut[np.abs(shifted - f)]
            acc += wgt * shifted
            wsum += wgt
    return np.clip(acc / wsum, 0, 255).round().astype(np.uint8)


def hist_equalize(img: np.ndarray) -> np.ndarray:
    hist = np.bincount(img.ravel(), minlength=256)
    cdf = np.cumsum(hist).astype(np.float64)
    nz = cdf[cdf > 0]
    if nz.size == 0:
        return img.copy()
    cdf_min = nz[0]
    denom = max(1.0, cdf[-1] - cdf_min)
    lut = np.clip((cdf - cdf_min) / denom * 255.0, 0, 255).round() \
        .astype(np.uint8)
    return lut[img]


def sharpen3x3(img: np.ndarray) -> np.ndarray:
    f = img.astype(np.float64)
    p = np.pad(f, 1, mode="edge")
    out = 5.0 * f - p[:-2, 1:-1] - p[2:, 1:-1] - p[1:-1, :-2] - p[1:-1, 2:]
    return np.clip(out, 0, 255).round().astype(np.uint8)


def _dilate(mask: np.ndarray) -> np.ndarray:
    p = np.pad(mask, 1, mode="constant", constant_values=False)
    out = np.zeros_like(mask)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out |= p[dy:dy + mask.shape[0], dx:dx + mask.shape[1]]
    return out


def _erode(mask: np.ndarray) -> np.ndarray:
    p = np.pad(mask, 1, mode="constant", constant_values=True)
    out = np.ones_like(mask)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out &= p[dy:dy + mask.shape[0], dx:dx + mask.shape[1]]
    return out


def morph_close(mask: np.ndarray) -> np.ndarray:
    return _erode(_dilate(mask))


def route_strategy(img: np.ndarray) -> str:
    s = pixel_stats(img)
    if s["contrast"] < _CONTRAST_EQUALIZE:
        return "equalize+binarize"
    if s["paper_noise"] > _PAPER_NOISE:
        return "bilateral+binarize"
    if s["midtone_frac"] > _MIDTONE_SHARPEN:
        return "sharpen+binarize"
    if s["partial_frac"] > _PARTIAL_CLOSE:
        return "binarize+close"
    return "binarize"


def _restore(img: np.ndarray, strategy: str, passes: int) -> np.ndarray:
    work = img
    for _ in range(passes):
        work = bilateral(work)
    if "equalize" in strategy:
        work = hist_equalize(work)
    if "sharpen" in strategy:
        work = sharpen3x3(work)
    mask = binarize(work)
    if "close" in strategy:
        mask = morph_close(mask)
    return mask


def _rejects(mask: np.ndarray) -> int:
    """Cells of a physical-scale mask that ``read_lines`` rejects."""
    max_err = _MIN_GLYPH_DIST // 2 - 1
    c = SCALE // 2
    mask = mask[c::SCALE, c::SCALE]
    n = 0
    for r in range(mask.shape[0] // CELL_H):
        band = mask[r * CELL_H:r * CELL_H + GLYPH_H]
        for col in range(mask.shape[1] // CELL_W):
            cell = band[:, col * CELL_W:col * CELL_W + GLYPH_W].ravel()
            n += int((cell[None, :] ^ _FONT_STACK).sum(axis=1).min()
                     > max_err)
    return n


# A bilateral page takes one pass, then one more (up to three) while
# the read still rejects a cell.
def _restore_mask(img: np.ndarray, strategy: str) -> np.ndarray:
    if "bilateral" not in strategy:
        return _restore(img, strategy, 0)
    for passes in (1, 2, 3):
        mask = _restore(img, strategy, passes)
        if not _rejects(mask):
            break
    return mask


def restore_and_read(img: np.ndarray, strategy: str | None = None
                     ) -> tuple[list[str], str]:
    if strategy is None:
        strategy = route_strategy(img)
    if img.min() == img.max():
        return read_lines(np.zeros(img.shape, dtype=bool)), strategy
    return read_lines(_restore_mask(img, strategy)), strategy


def restore_rejects(img: np.ndarray) -> int:
    """The cells that ``restore_and_read``'s last read rejects."""
    if img.min() == img.max():
        return 0
    return _rejects(_restore_mask(img, route_strategy(img)))


# --------------------------------------------------------------------------
# The glyph table's generator (stages/pixels.py bakes its output as
# ``_FONT_PACKED``)

_INK_MIN, _INK_MAX = 10, 24    # ink budget per glyph
_SALT_BATCH = 64


def _glyph_bits(ch: str, salt: int) -> np.ndarray:
    h = hashlib.md5(f"{ch}:{salt}".encode()).digest() \
        + hashlib.md5(f"{ch}:{salt}:b".encode()).digest()
    bits = np.unpackbits(np.frombuffer(h, dtype=np.uint8))[:GLYPH_W * GLYPH_H]
    return bits.astype(bool).reshape(GLYPH_H, GLYPH_W)


def build_font() -> dict[str, np.ndarray]:
    """Deterministic glyph table: per char, bump the salt until the
    glyph's ink count is in budget AND it keeps ``_MIN_GLYPH_DIST``
    Hamming distance from every glyph already placed (greedy over the
    fixed charset order, FIRST qualifying salt wins). Candidate salts
    are hashed in batches and screened with one (batch × placed)
    XOR-sum matrix."""
    font: dict[str, np.ndarray] = {" ": np.zeros((GLYPH_H, GLYPH_W), bool)}
    placed = [font[" "].ravel()]
    placed_mat = np.stack(placed)
    for ch in CHARSET:
        if ch == " ":
            continue
        salt = 0
        while True:
            batch = np.stack([
                _glyph_bits(ch, s).ravel()
                for s in range(salt, salt + _SALT_BATCH)])
            ink = batch.sum(axis=1)
            ok = (ink >= _INK_MIN) & (ink <= _INK_MAX)
            dist = (batch[:, None, :] ^ placed_mat[None, :, :]).sum(axis=2)
            ok &= dist.min(axis=1) >= _MIN_GLYPH_DIST
            hits = np.nonzero(ok)[0]
            if hits.size:
                g = batch[hits[0]]
                font[ch] = g.reshape(GLYPH_H, GLYPH_W)
                placed.append(g)
                placed_mat = np.stack(placed)
                break
            salt += _SALT_BATCH
    return font


# --------------------------------------------------------------------------
# The single-array form of stages/tiling.py's explode → kernel → blend

def tiled_apply(img: np.ndarray, kernel: Callable[[np.ndarray], np.ndarray],
                patch: int = PATCH, overlap: int = OVERLAP) -> np.ndarray:
    """Apply ``kernel`` (uint8 → uint8, shape-preserving) over
    overlapping tiles and blend. Equivalent to the reference's
    ``_process_patches`` with ``kernel`` as the model."""
    assert 0 <= overlap < patch, "overlap must be in [0, patch)"
    h, w = img.shape
    stride = patch - overlap
    ph, ys = _grid(h, patch, stride)
    pw, xs = _grid(w, patch, stride)
    padded = _pad(img, ph, pw)
    acc = np.zeros((ph, pw), dtype=np.float64)
    wsum = np.zeros((ph, pw), dtype=np.float64)
    mask = weight_mask(patch, overlap)
    for y in ys:
        for x in xs:
            tile = padded[y:y + patch, x:x + patch]
            out = kernel(tile).astype(np.float64)
            acc[y:y + patch, x:x + patch] += out * mask
            wsum[y:y + patch, x:x + patch] += mask
    blended = acc / wsum
    return np.clip(blended[:h, :w], 0, 255).round().astype(np.uint8)


# --------------------------------------------------------------------------
# stages/reassemble.py and the tail of stages/doclocal.py

def _rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
    # one task per hash bucket: sort the bucket once by (doc_id, offset),
    # dense-rank per doc with a vectorized cumcount
    g = g.sort_values(["doc_id", "offset"], kind="mergesort")
    g = g.assign(order=g.groupby("doc_id").cumcount().astype(np.int32))
    return g[OUT_SCHEMA.names]


def doclocal_rank(kept: pa.Table) -> pa.Table:
    return pa.Table.from_pandas(_rank_bucket(kept.to_pandas()),
                                preserve_index=False).cast(OUT_SCHEMA)
