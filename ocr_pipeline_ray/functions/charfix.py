"""Character-confusion correction + number normalization.

Re-implements the *semantics* of the reference's rule family
(SURVEY §2.6 F1-F4):

- F1 token-level char-confusion fix (reference pipeline.py:1296-1336 and
  pytorch_mobile/ocr_pipeline.py:597-622): inside whitespace-delimited
  words made only of digit-confusable characters AND containing at
  least one digit, map ``l I | -> 1``, ``O o -> 0``, ``Z z -> 2``,
  ``S s -> 5``, ``G -> 6``, ``g -> 9``, ``B -> 8``.
- F2 numerical-context corrections (pipeline.py:2093-2113): confusable
  letters adjacent to / between digits are rewritten even inside mixed
  words.
- F3 word-level OCR-error fixes (pipeline.py:2306-2338): canonical
  spellings for domain keywords (``Electricity``, ``CO2e`` variants).
- F4 number normalizer (pipeline.py:2181-2197): strip separators,
  map confusables, parse int.

All rules are applied in ONE canonical order (F3 words, F2 context,
F1 tokens), and that pass is iterated to a fixpoint (``fix_text``), so
output text is byte-stable regardless of batch or partition
boundaries — required for span-sequence equality.

A pass costs 10 regex scans: F3 is one alternation of the four
keyword rules behind a lookahead on their first letters, and each of
the eight F2 rules opens with its character class, so ``re`` can skip
straight to candidate characters. Both forms match exactly what the
separate / lookbehind-first rules matched
(tests/test_kernel_differential.py). Text with no digit and no F3
keyword skips the passes: every F2 rule needs an adjacent digit and
F1 leaves digit-free words alone, so a pass over it is the identity
and the text is already the fixpoint. Most text spans take this exit.
"""

from __future__ import annotations

import re

# Public: the canonical confusable→digit translate table (engines and
# the ensemble's aggressive reader reuse exactly this rule set).
CONFUSION_TABLE = _CONFUSION = str.maketrans({
    "l": "1", "I": "1", "|": "1",
    "O": "0", "o": "0",
    "Z": "2", "z": "2",
    "S": "5", "s": "5",
    "G": "6", "g": "9",  # reference maps G->6 but g->9 (pipeline.py:1307-1312)
    "B": "8",
})

# F1 gate: a whole word of confusable chars that contains >=1 digit.
_CONFUSABLE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]+\b")
_HAS_DIGIT = re.compile(r"[0-9]")
# The confusable glyphs of that class (its letters and ``|``).
_SUSPECTS = set("lIoOzZsSgGbB|")

# Aggressive gate (the ensemble's "sharp" engine and the F11 last-chance
# correction loop): ANY confusable-class word of length >= 2, digit
# witness NOT required — recovers fully-corrupted numbers (``lOZS`` →
# ``1025``) that the conservative F1 rule must leave alone. Safe only
# as a fallback/second-opinion: a real all-confusable word (none exist
# in the domain vocabulary) would be mangled.
_AGGRESSIVE_WORD = re.compile(r"\b[0-9lIoOzZsSgGbB|]{2,}\b")


def aggressive_digit_fix(text: str) -> str:
    return _AGGRESSIVE_WORD.sub(
        lambda m: m.group(0).translate(_CONFUSION), text)

# F2: confusables in direct numeric context (subset ordering matters —
# apply left-context, right-context, then between-digit rules). A rule
# with left context opens with its character class and asserts the
# context as a lookbehind over that character, so ``re`` can scan for
# the class instead of trying the lookbehind at every position; it
# matches exactly where ``(?<=ctx)[cls]`` does.
_F2_RULES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"[lI|](?<=[0-9][lI|])(?=[0-9])"), "1"),
    (re.compile(r"[oO](?<=[0-9][oO])(?=[0-9])"), "0"),
    (re.compile(r"[sS](?<=[0-9][sS])(?=[0-9])"), "5"),
    (re.compile(r"[lI|](?=[0-9])"), "1"),
    (re.compile(r"[lI|](?<=[0-9][lI|])"), "1"),
    (re.compile(r"[oO](?=[0-9]{2})"), "0"),
    (re.compile(r"[oO](?<=[0-9]{2}[oO])"), "0"),
    (re.compile(r"[sS](?<=[0-9][sS])\b"), "5"),
]

# F3: canonical keyword spellings (domain words the field extractors
# key on; mirrors the reference's Electr[il]city / coze / C0Ze fixes),
# one alternation whose group number names the canonical word. Each
# branch matches a whole word, and no word matches two branches, so
# one pass equals applying the branches one after another. The
# lookahead names the branches' first letters (under IGNORECASE ``k``
# also matches the Kelvin sign U+212A, in the lookahead as in the
# branches), so ``re`` tries the alternation only where one can match.
_F3_WORDS = ("Electricity", "Consumption", "CO2e", "kWh")
_F3_RULE = re.compile(
    r"(?=[eck])\b(?:(Electr[il1]c[il1]ty)"
    r"|([ck][o0]n[s5]umpt[il1][o0]n)"
    r"|(coze|c0ze|co2e|coz[e3]|c02e)"
    r"|(kwh))\b", re.IGNORECASE)


def _f3_word(m: re.Match[str]) -> str:
    return _F3_WORDS[m.lastindex - 1]


_NON_DIGIT = re.compile(r"[^0-9]")


def _fix_confusable_word(m: re.Match[str]) -> str:
    word = m.group(0)
    if _HAS_DIGIT.search(word):
        return word.translate(_CONFUSION)
    return word


def _fix_once(text: str) -> str:
    text = _F3_RULE.sub(_f3_word, text)
    for pat, repl in _F2_RULES:
        text = pat.sub(repl, text)
    return _CONFUSABLE_WORD.sub(_fix_confusable_word, text)


def fix_text(text: str) -> str:
    """Apply F3 → F2 → F1 in canonical order, iterated to a fixpoint.

    A single pass is NOT idempotent: an F2 substitution can mint a new
    digit that enables a further F2/F1 match on the neighbouring char
    (e.g. ``'eB84S|0'`` → ``'eB84S10'`` → ``'eB84510'``).  Each pass
    either strictly increases the digit count or rewrites an F3 keyword
    (both bounded by ``len(text)``), so the loop terminates; in practice
    it converges in ≤3 passes.  The fixpoint makes ``fix_text`` byte-
    stable and idempotent regardless of batch/partition boundaries —
    required for span-sequence equality (tests/test_properties.py).
    Text with no digit and no F3 keyword is returned as is: a pass over
    it changes nothing (see the module docstring).
    """
    if not _HAS_DIGIT.search(text) and not _F3_RULE.search(text):
        return text
    while True:
        fixed = _fix_once(text)
        if fixed == text:
            return fixed
        text = fixed


def normalize_number(raw: str) -> int | None:
    """F4: confusables → digits, strip separators, parse int (None if empty)."""
    cleaned = _NON_DIGIT.sub("", raw.translate(_CONFUSION))
    return int(cleaned) if cleaned else None
