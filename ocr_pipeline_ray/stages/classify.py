"""Rule-based boilerplate classifier for text/HTML spans.

Readability/jusText-style heuristics (the north rule's text branch):
per-span scalar features — visible-text length, link density — plus
threshold keep/drop rules. Same computational shape as the reference's
context/range validators + quality scorer (SURVEY §0, §2.6 F8/F9/F15):
cheap scalar features, fixed thresholds, deterministic decision.

Kept spans emit canonical text: tags stripped, whitespace collapsed,
char-corrections applied (charfix F3→F2→F1 canonical order) so output
bytes are partition-invariant.

A stateless ``map_batches`` function (NOT an actor pool): the only
state is three compiled regexes, created once per *process* at module
import — tasks stay elastic and cannot deadlock against an actor pool
on a small node. (The reference's analogous rule banks are also
module-level compiles, pipeline.py:2071-2090.)
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from ..config import LINK_DENSITY_DROP, MIN_TEXT_CHARS
from ..functions.charfix import fix_text

_TAG = re.compile(r"<[^>]+>")
_LINK = re.compile(r"<a\b[^>]*>(.*?)</a>", re.S | re.I)
_WS = re.compile(r"\s+")


def classify_one(raw: str) -> tuple[bool, str]:
    """(keep?, canonical_text) for one raw text/HTML span."""
    link_chars = sum(len(m) for m in _LINK.findall(raw))
    visible = _WS.sub(" ", _TAG.sub(" ", raw)).strip()
    n = len(visible)
    if n < MIN_TEXT_CHARS:
        return False, ""
    if link_chars / n > LINK_DENSITY_DROP:
        return False, ""
    return True, fix_text(visible)


def classify_spans(batch: pa.Table) -> pa.Table:
    """Text rows classified+cleaned (boilerplate dropped), media rows pass
    through with status='pending'.

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
            kept, clean = classify_one(t)
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
