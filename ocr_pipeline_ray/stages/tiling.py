"""P9: patch-tiled kernel application with overlap blending.

The reference's patch-tiled denoiser dataflow
(jax_denoising_adapter.py:237-348): pad the page so overlapping
``patch``-sized tiles cover it on a fixed ``stride = patch - overlap``
grid, run the per-patch model on every tile, accumulate the results
under a linear-ramp weight mask (full weight in the patch centre,
ramping down over the ``overlap//2``-pixel border) and normalize by
the summed weights, then crop the padding back off. The learned model
is env-blocked (no torch/JAX in this container); the MACHINERY is pure
array math and any P5-P8 kernel (``stages/pixels.py``) stands in as
the per-patch model — which is exactly how the reference composes it
(bilateral/U-Net per 256-px patch, 32-px overlap).

Why this is the scale path for huge pages: a 10k×10k scan processed
whole is one worker's memory and one task's latency; tiled, it is an
EXPLODE → per-patch kernel → REGROUP+BLEND pipeline (the same
explode/process/regroup shape as the J5 region-crop join) where every
patch is an independent row. ``explode_patches`` / ``blend_patches``
are the Ray-side halves; ``tiled_apply`` is the single-array kernel
used inside one ``map_batches`` task when the page fits.

Seam correctness: inside a patch the kernel sees real neighbours, so
away from tile borders the tiled output EQUALS the untiled kernel
exactly; across borders the overlap ramp cross-fades two kernel
outputs whose only disagreement is edge-padding effects — bounded and
pytest-asserted (tests/test_tiling.py).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

PATCH = 48      # default tile (small pages in the synth corpus; the
OVERLAP = 12    # reference runs 256/32 — same ratios, both configurable)


def _grid(n: int, patch: int, stride: int) -> tuple[int, list[int]]:
    """(padded length, tile offsets) along one axis: pad so
    (padded - patch) is a multiple of stride, tiles at every stride. A
    side shorter than one patch pads up to one whole patch."""
    pad = (stride - (n - patch) % stride) % stride
    padded = max(n + pad, patch)
    return padded, list(range(0, padded - patch + 1, stride))


def weight_mask(patch: int, overlap: int) -> np.ndarray:
    """Blend mask: 1.0 in the interior, linear ramp (1/b .. 1) over the
    ``b = overlap//2`` border pixels on every edge — separable, so it's
    an outer product of one ramp vector."""
    border = max(1, overlap // 2)
    ramp = np.ones(patch, dtype=np.float64)
    for i in range(min(border, patch)):
        w = (i + 1) / border
        ramp[i] = min(ramp[i], w)
        ramp[patch - 1 - i] = min(ramp[patch - 1 - i], w)
    return np.outer(ramp, ramp)


def _pad(img: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Reflect-pad bottom/right (the reference's mode) with an edge-
    replicate fallback when the pad is wider than the image (reflect
    requires pad < dim)."""
    h, w = img.shape
    mode = "reflect" if (ph - h) < h and (pw - w) < w else "edge"
    return np.pad(img, ((0, ph - h), (0, pw - w)), mode=mode)


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


# ----------------------------------------------------------------------
# Distributed halves: page row → patch rows → (kernel) → page bitmap.

def explode_patches(img: np.ndarray, patch: int = PATCH,
                    overlap: int = OVERLAP) -> list[dict]:
    """One page → independent patch rows ``{py, px, h, w, tile}``
    (tile flattened uint8 so it fits an Arrow fixed-type list column).
    ``h``/``w`` are the ORIGINAL page dims every patch row carries so
    the regroup task can rebuild the canvas without a side lookup."""
    h, w = img.shape
    stride = patch - overlap
    ph, ys = _grid(h, patch, stride)
    pw, xs = _grid(w, patch, stride)
    padded = _pad(img, ph, pw)
    return [{"py": y, "px": x, "h": h, "w": w,
             "tile": padded[y:y + patch, x:x + patch].ravel()}
            for y in ys for x in xs]


def blend_patches(rows: list[dict], patch: int = PATCH,
                  overlap: int = OVERLAP) -> np.ndarray:
    """Regroup side: processed patch rows of ONE page → blended page.
    Exact same accumulate/normalize as ``tiled_apply`` — the two paths
    are pytest-asserted identical."""
    h, w = int(rows[0]["h"]), int(rows[0]["w"])
    stride = patch - overlap
    ph, _ = _grid(h, patch, stride)
    pw, _ = _grid(w, patch, stride)
    acc = np.zeros((ph, pw), dtype=np.float64)
    wsum = np.zeros((ph, pw), dtype=np.float64)
    mask = weight_mask(patch, overlap)
    for r in rows:
        y, x = int(r["py"]), int(r["px"])
        tile = np.asarray(r["tile"], dtype=np.float64).reshape(patch, patch)
        acc[y:y + patch, x:x + patch] += tile * mask
        wsum[y:y + patch, x:x + patch] += mask
    blended = acc / wsum
    return np.clip(blended[:h, :w], 0, 255).round().astype(np.uint8)
