"""Frozen reference copies of three page-read kernels, for differential
tests only.

``pixel_stats`` and ``read_lines`` (stages/pixels.py) and ``fix_text``
(functions/charfix.py) were rewritten for speed: integer ring and one
shared histogram, a reshape cut with a matmul Hamming distance, and a
folded F3 alternation with class-first F2 rules. The rewrites promise
to return exactly what the float64 / per-column / 13-rule versions
returned. Those versions are kept here verbatim so
``tests/test_kernel_differential.py`` can assert that promise on every
input it generates. Only data (font tables and geometry constants) is
imported from the engine; every line of logic is frozen here.
"""

from __future__ import annotations

import re

import numpy as np

from ocr_pipeline_ray.stages.pixels import (
    CELL_H, CELL_W, GLYPH_H, GLYPH_W, SCALE, _FONT_CHARS, _FONT_STACK,
    _MIN_GLYPH_DIST)


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
        "partial_frac": float(partial.mean()),
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
