"""Accuracy metric (SURVEY §2.6 F14; reference
run_comprehensive_tests.py:40-70): the character-level similarity
ratio between a degraded page's read and its construction-time truth,
which ``modelops.degradation_bank`` scores every page with.
"""

from __future__ import annotations

from difflib import SequenceMatcher


def char_accuracy(expected: str, actual: str) -> float:
    """SequenceMatcher ratio in [0, 1] (1.0 = identical)."""
    if not expected and not actual:
        return 1.0
    return SequenceMatcher(None, expected, actual).ratio()
