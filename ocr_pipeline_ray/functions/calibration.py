"""Per-engine isotonic confidence calibration (SURVEY §2.5 A7).

Re-implements the semantics of the reference's calibrator
(pipeline.py:196-369): fit a monotone map raw-confidence → observed
accuracy per engine (isotonic regression via pool-adjacent-violators),
apply it at scoring time, and invert it to find the raw-confidence
threshold that achieves a target accuracy (binary search — reference
pipeline.py:330-369 thresholds 0.97/0.85/0.70).

Distribution model: calibration data is SMALL (per-engine (conf,
correct) samples) — fit happens on the driver, the fitted arrays are
``ray.put`` once and applied per batch with ``np.interp`` (broadcast
small state, the M10 pattern)."""

from __future__ import annotations

import numpy as np

MIN_SAMPLES = 10  # reference enforces >=10 samples/engine (pipeline.py:231)


def fit_isotonic(raw_conf: np.ndarray, is_correct: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pool-adjacent-violators: returns (x_knots, y_fitted) with y
    non-decreasing in x. Raises ValueError below MIN_SAMPLES."""
    x = np.asarray(raw_conf, dtype=np.float64)
    y = np.asarray(is_correct, dtype=np.float64)
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need >= {MIN_SAMPLES} samples, got {x.size}")
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    # PAV with unit weights
    vals = list(y)
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
    # expand back to knot positions
    fitted = np.repeat(vals, [int(w) for w in weights])
    # canonicalize: collapse duplicate x to ONE knot keeping the last
    # (max) fitted y — duplicate-x knots make linear interpolation
    # implementation-defined (np.interp keeps last; a naive scan keeps
    # first), and raw confidences are discrete so duplicates are the
    # norm. One knot per x ⇒ every interpolator agrees.
    keep = np.ones(x.size, dtype=bool)
    keep[:-1] = x[1:] != x[:-1]
    return x[keep], fitted[keep]


def apply_calibration(knots_x: np.ndarray, knots_y: np.ndarray,
                      raw: np.ndarray) -> np.ndarray:
    """Monotone interpolation (clipped at the ends) — vectorized per batch."""
    return np.interp(np.asarray(raw, dtype=np.float64), knots_x, knots_y)


def threshold_for_accuracy(knots_x: np.ndarray, knots_y: np.ndarray,
                           target: float) -> float | None:
    """Smallest raw confidence whose calibrated accuracy >= target
    (binary search over the monotone map to 1e-4; None if
    unreachable)."""
    lo, hi = float(knots_x[0]), float(knots_x[-1])
    if apply_calibration(knots_x, knots_y, np.array([hi]))[0] < target:
        return None
    if apply_calibration(knots_x, knots_y, np.array([lo]))[0] >= target:
        return lo
    while hi - lo > 1e-4:
        mid = (lo + hi) / 2
        if apply_calibration(knots_x, knots_y, np.array([mid]))[0] >= target:
            hi = mid
        else:
            lo = mid
    return hi
