"""Rule-based boilerplate classifier for text/HTML spans.

Readability/jusText-style heuristics (the north rule's text branch):
per-span scalar features — visible-text length, link density — plus
threshold keep/drop rules. Same computational shape as the reference's
context/range validators + quality scorer (SURVEY §0, §2.6 F8/F9/F15):
cheap scalar features, fixed thresholds, deterministic decision.

Kept spans emit canonical text: tags stripped, whitespace collapsed,
char-corrections applied (charfix F3→F2→F1 canonical order) so output
bytes are partition-invariant.

A stateless ``map_batches`` function run as tasks: the only state is
two compiled regexes, created once per *process* at module import.
(The reference's analogous rule banks are also module-level compiles,
pipeline.py:2071-2090.)
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..config import LINK_DENSITY_DROP, MIN_TEXT_CHARS
from ..functions.charfix import fix_text

_TAG = re.compile(r"<[^>]+>")
_LINK = re.compile(r"<a\b[^>]*>(.*?)</a>", re.S | re.I)


def classify_one(raw: str) -> tuple[bool, str]:
    """(keep?, canonical_text) for one raw text/HTML span. Whitespace
    runs collapse to one space and the ends are stripped: ``str.split``
    splits on exactly the characters ``re``'s ``\\s`` matches."""
    link_chars = sum(len(m) for m in _LINK.findall(raw))
    visible = " ".join(_TAG.sub(" ", raw).split())
    n = len(visible)
    if n < MIN_TEXT_CHARS:
        return False, ""
    if link_chars / n > LINK_DENSITY_DROP:
        return False, ""
    return True, fix_text(visible)


def classify_spans(batch: pa.Table) -> pa.Table:
    """Text rows classified+cleaned (boilerplate dropped), media rows pass
    through with status='pending'. A text span with null text is
    boilerplate.

    In:  (doc_id, kind, text, media_ref, offset)
    Out: same + (status, conf).
    """
    kinds = batch["kind"].to_pylist()
    texts = batch["text"].to_pylist()
    keep = np.ones(len(kinds), dtype=bool)
    out_text = list(texts)
    status = ["pending"] * len(kinds)
    conf = [0.0] * len(kinds)
    for i, (k, t) in enumerate(zip(kinds, texts)):
        if k == "text":
            kept, clean = (False, "") if t is None else classify_one(t)
            keep[i] = kept
            out_text[i] = clean
            status[i] = "ok" if kept else "boilerplate"
            conf[i] = 1.0
    out = pa.table({
        "doc_id": batch["doc_id"],
        "kind": batch["kind"],
        "text": pa.array(out_text, type=pa.string()),
        "media_ref": batch["media_ref"],
        "offset": batch["offset"],
        "status": pa.array(status, type=pa.string()),
        "conf": pa.array(conf, type=pa.float64()),
    })
    return out.filter(pa.array(keep))
