"""Confidence aggregation (SURVEY §2.5 A2): ``geomean_confidence``,
reference pipeline.py:386-414 — floor 1e-3, if more than 20 tokens
keep the top-80% (min 5), geometric mean. It reduces one confidence
vector (a numpy array) to a score.
"""

from __future__ import annotations

import numpy as np

_FLOOR = 1e-3


def geomean_confidence(confs: np.ndarray) -> float:
    """Reference A2 semantics for one token-confidence vector.

    The log-sum runs SEQUENTIALLY (math.fsum-free, fixed left-to-right
    order) so any independent reimplementation with a plain loop is
    bit-identical — page confidences feed the calibrator fit, whose
    knots must match the oracle's exactly (float-determinism policy,
    see pipelines/relational.py)."""
    import math

    c = np.maximum(np.asarray(confs, dtype=np.float64), _FLOOR)
    if c.size == 0:
        return 0.0
    if c.size > 20:
        keep = max(5, int(c.size * 0.8))
        c = np.sort(c)[-keep:]
    total = 0.0
    for x in c.tolist():
        total += math.log(x)
    return math.exp(total / c.size)
