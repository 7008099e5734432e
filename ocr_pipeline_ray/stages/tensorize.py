"""P10 det/rec/angle tensorizers — REAL numpy dataflow on raster pages.

The reference prepares model inputs in three shapes
(pytorch_mobile/ocr_pipeline.py:350-444 ``ImagePreprocessor``):

- **detection** (DBNet): scale the page so max(h, w) == 960, snap both
  dims DOWN to /32 multiples (floor, min 32), bilinear resize,
  grayscale→3-channel, /255, per-channel ImageNet mean/std normalize,
  zero-pad bottom/right to 960×960 → (1, 3, 960, 960) + the scale
  factor (needed to map detected boxes back to page coordinates);
- **recognition** (CRNN): height 32, width = aspect·32 clamped to
  [32, 640], right-pad to 640 → (1, 3, 32, 640), one tensor per text
  LINE crop;
- **angle** classifier: fixed resize to 192×48 → (1, 3, 48, 192).

The learned models themselves are env-blocked (no torch in this
container — the documented seam, stages/multimodal.py), but everything
UP TO the model call is pure array math, so it is implemented for real
here — the same argument that made P5-P8 and the P9 patch-tiling real.
LANCZOS is a codec-library resample kernel; this module uses bilinear
(align_corners=False convention, the standard inference-time choice)
and documents the substitution — the dataflow contract (shapes, /32
snapping, normalize, pad, scale return) is what downstream models
consume and is what the tests pin.

Line crops for the rec tensorizer come from the raster page's line
bands (one CELL_H·SCALE-pixel band per rendered line — the analog of
the reference cropping each detected text box).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import media_stub
from .pixels import CELL_H, SCALE

DET_TARGET = 960
REC_H = 32
REC_W_MIN, REC_W_MAX = 32, 640
ANGLE_H, ANGLE_W = 48, 192
# ImageNet normalization triplets (reference ocr_pipeline.py:359-360)
MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)


def resize_bilinear(img: np.ndarray, new_h: int, new_w: int) -> np.ndarray:
    """Bilinear resample (align_corners=False pixel-center mapping) in
    pure numpy, separably vectorized. Exactly reproduces constant and
    linear intensity fields (tested) — the property that matters for
    feeding a conv net; identity when the size is unchanged."""
    h, w = img.shape
    if (new_h, new_w) == (h, w):
        return img.astype(np.float32)
    f = img.astype(np.float32)
    ys = (np.arange(new_h, dtype=np.float64) + 0.5) * (h / new_h) - 0.5
    xs = (np.arange(new_w, dtype=np.float64) + 0.5) * (w / new_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(np.float32)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0).astype(np.float32)[None, :]
    top = f[y0][:, x0] * (1 - wx) + f[y0][:, x1] * wx
    bot = f[y1][:, x0] * (1 - wx) + f[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def _normalize_3ch(gray: np.ndarray) -> np.ndarray:
    """grayscale (H, W) float → normalized (3, H, W) float32:
    channel-replicate, /255, per-channel ImageNet mean/std."""
    x = gray.astype(np.float32) / 255.0
    return (x[None, :, :] - MEAN[:, None, None]) / STD[:, None, None]


def det_tensor(img: np.ndarray) -> tuple[np.ndarray, float, int, int]:
    """Detection input: → ((1, 3, DET_TARGET, DET_TARGET) float32,
    scale, new_h, new_w). Scale = DET_TARGET / max(h, w); the resized dims
    (new_h, new_w) snap DOWN to /32 multiples (min 32); the valid
    region sits top-left, zero-padded right/bottom (reference
    preprocess_for_detection)."""
    h, w = img.shape
    scale = DET_TARGET / max(h, w)
    new_h = max(32, (int(h * scale) // 32) * 32)
    new_w = max(32, (int(w * scale) // 32) * 32)
    resized = resize_bilinear(img, new_h, new_w)
    t = _normalize_3ch(resized)
    out = np.zeros((1, 3, DET_TARGET, DET_TARGET), dtype=np.float32)
    out[0, :, :new_h, :new_w] = t
    return out, scale, new_h, new_w


def rec_width(h: int, w: int) -> int:
    """Recognition resize width of an (h, w) line crop: aspect-scaled
    to height REC_H, clamped to [REC_W_MIN, REC_W_MAX]."""
    return max(REC_W_MIN, min(int((w / h) * REC_H), REC_W_MAX))


def rec_tensor(line_img: np.ndarray) -> np.ndarray:
    """Recognition input for one text-line crop: height REC_H, width
    aspect-scaled and clamped to [REC_W_MIN, REC_W_MAX], right-padded
    to REC_W_MAX → (1, 3, REC_H, REC_W_MAX) float32 (reference
    preprocess_for_recognition)."""
    new_w = rec_width(*line_img.shape)
    resized = resize_bilinear(line_img, REC_H, new_w)
    t = _normalize_3ch(resized)
    out = np.zeros((1, 3, REC_H, REC_W_MAX), dtype=np.float32)
    out[0, :, :, :new_w] = t
    return out


def angle_tensor(img: np.ndarray) -> np.ndarray:
    """Angle-classifier input: fixed (ANGLE_H, ANGLE_W) resize →
    (1, 3, ANGLE_H, ANGLE_W) float32 (reference preprocess_for_angle)."""
    t = _normalize_3ch(resize_bilinear(img, ANGLE_H, ANGLE_W))
    return t[None, :, :, :]


def line_bands(img: np.ndarray) -> list[np.ndarray]:
    """Split a raster page into its per-line crops (one CELL_H·SCALE
    band per rendered line) — the rec tensorizer's inputs."""
    band = CELL_H * SCALE
    return [img[y:y + band] for y in range(0, img.shape[0], band)]


def _crc_tensor(t: np.ndarray) -> int:
    """Deterministic fingerprint of a float32 tensor (exact bytes —
    the whole tensorizer chain is reproducible arithmetic)."""
    import zlib

    return zlib.crc32(np.ascontiguousarray(t, dtype=np.float32).tobytes())


def tensorize_media(batch: pa.Table) -> pa.Table:
    """map_batches stage: raster payloads → per-page model-input
    profile. The full tensors are model-call-sized intermediates
    (a det tensor is 11 MB); they are produced, fingerprinted and
    dropped INSIDE the task — only the narrow profile row leaves
    (shapes, scale, per-tensor crc32, rec line count). Batches stay
    small for the same reason (the query passes batch_size≤16).
    Non-raster payloads and rasters with a zero side are skipped.

    Out columns: media_ref, det_h, det_w (valid region, pre-pad),
    det_scale_q (scale quantized to 1e-6 — exact int for the oracle
    hash), rec_n_lines, rec_w_max, crc_det, crc_rec_fold (int64 SUM of
    per-line crcs — order-independent), crc_angle.
    """
    refs, dh, dw, dsq = [], [], [], []
    rn, rw, cd, cr, ca = [], [], [], [], []
    for ref, payload in zip(batch["media_ref"].to_pylist(),
                            batch["payload"].to_pylist()):
        if media_stub.classify_payload(payload) != "raster":
            continue
        img = media_stub.decode_raster(payload)
        if 0 in img.shape:
            continue  # degenerate raster: no pixels to tensorize
        det, scale, new_h, new_w = det_tensor(img)
        bands = line_bands(img)
        recs = [rec_tensor(b) for b in bands]
        ang = angle_tensor(img)
        refs.append(ref)
        dh.append(new_h)
        dw.append(new_w)
        dsq.append(int(np.floor(scale * 1e6 + 0.5)))
        rn.append(len(recs))
        rw.append(max(rec_width(*b.shape) for b in bands))
        cd.append(_crc_tensor(det))
        cr.append(int(sum(_crc_tensor(r) for r in recs)))
        ca.append(_crc_tensor(ang))
    return pa.table({
        "media_ref": pa.array(refs, type=pa.string()),
        "det_h": pa.array(dh, type=pa.int64()),
        "det_w": pa.array(dw, type=pa.int64()),
        "det_scale_q": pa.array(dsq, type=pa.int64()),
        "rec_n_lines": pa.array(rn, type=pa.int64()),
        "rec_w_max": pa.array(rw, type=pa.int64()),
        "crc_det": pa.array(cd, type=pa.int64()),
        "crc_rec_fold": pa.array(cr, type=pa.int64()),
        "crc_angle": pa.array(ca, type=pa.int64()),
    })
