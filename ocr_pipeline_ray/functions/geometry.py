"""Bbox geometry: IoU + XY-cut reading-order reconstruction.

- bbox_iou_matrix: vectorized axis-aligned IoU (reference
  pipeline.py:1729-1748 scalar version, lifted to an NxM numpy kernel
  for the token ensemble vote-merge J2).
- xy_cut_order: deterministic reading order over (x, y) line anchors —
  generalizes the reference's box-ordering/crop/recognize loop
  (pytorch_mobile/ocr_pipeline.py:780-803). Ties broken by
  (y_band, x, index) so ordering is byte-stable (SURVEY §7 hard part b).
- truth_reading_order: a media row's construction-truth line records
  read in that same order (the label the calibrator and the
  robustness banks score against).
"""

from __future__ import annotations

import numpy as np

# XY-cut band height: lines whose y falls in the same 24-pixel band
# read as one row
XY_CUT_BAND = 24


def bbox_iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU for every pair: a is (N,4), b is (M,4) as x1,y1,x2,y2 → (N,M)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0, None) * np.clip(iy2 - iy1, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def xy_cut_order(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Return the permutation that reads line anchors in XY-cut order.

    Lines are grouped into horizontal bands of ``XY_CUT_BAND`` pixels
    (top-to-bottom), then read left-to-right within a band. Tie-break is
    (band, x, y, original index) — fully deterministic.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    band = ys // XY_CUT_BAND
    idx = np.arange(xs.size)
    return np.lexsort((idx, ys, xs, band))


def truth_reading_order(truth: list[dict]) -> list[str]:
    """Truth line records ``{text, x, y}`` → their texts in XY-cut
    reading order."""
    order = xy_cut_order(np.array([r["x"] for r in truth]),
                         np.array([r["y"] for r in truth]))
    return [truth[i]["text"] for i in order]
