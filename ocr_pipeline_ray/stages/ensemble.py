"""Token-level multi-engine ensemble vote-merge (SURVEY §2.4 J2/J3).

Re-implements the semantics of the reference's vote merge
(pipeline.py:1750-1848): explode every engine's tokens, greedily group
tokens whose bboxes overlap with IoU ≥ 0.5, per-group weighted vote
``sum(conf)·(votes/group_size)/n_engines``, winner = highest-weight
text variant; winner tokens ordered by reading position.

Ray-Data shape: the join key is *document-local* (tokens of one doc
only ever merge with tokens of the same doc), so after
``groupby(doc_id)`` the whole merge happens inside ``map_groups`` with
a vectorized IoU matrix (functions.geometry.bbox_iou_matrix) — no
global spatial join, no extra shuffle beyond the doc groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.geometry import bbox_iou_matrix
from .agg import bucketed_map_groups

IOU_THRESHOLD = 0.5


def vote_merge_tokens(tokens: pd.DataFrame, n_engines: int) -> pd.DataFrame:
    """One document's exploded token table →  merged winner tokens.

    In columns:  engine, text, conf, x1, y1, x2, y2
    Out columns: text, conf, x1, y1, x2, y2, votes
    """
    if tokens.empty:
        return pd.DataFrame(columns=["text", "conf", "x1", "y1", "x2", "y2",
                                     "votes"])
    boxes = tokens[["x1", "y1", "x2", "y2"]].to_numpy(dtype=np.float64)
    iou = bbox_iou_matrix(boxes, boxes)
    n = len(tokens)
    assigned = np.full(n, -1, dtype=np.int64)
    group = 0
    # greedy grouping in stable row order (the reference iterates engine
    # emission order; we iterate (y1, x1, row) for partition-invariance)
    order = np.lexsort((np.arange(n), boxes[:, 0], boxes[:, 1]))
    for i in order:
        if assigned[i] >= 0:
            continue
        members = np.where((iou[i] >= IOU_THRESHOLD) & (assigned == -1))[0]
        assigned[members] = group
        group += 1

    rows = []
    confs = tokens["conf"].to_numpy()
    texts = tokens["text"].to_numpy()
    for g in range(group):
        idx = np.where(assigned == g)[0]
        votes: dict[str, float] = {}
        for j in idx:
            votes[texts[j]] = votes.get(texts[j], 0.0) + float(confs[j])
        # weight = sum(conf) * (votes/group_size) / n_engines; ties → lexical
        best_text, best_w = None, -1.0
        counts = {t: sum(1 for j in idx if texts[j] == t) for t in votes}
        for t in sorted(votes):
            w = votes[t] * (counts[t] / len(idx)) / max(1, n_engines)
            if w > best_w:
                best_text, best_w = t, w
        member_boxes = boxes[idx]
        rows.append({
            "text": best_text,
            "conf": float(np.max(confs[idx])),
            "x1": float(member_boxes[:, 0].min()),
            "y1": float(member_boxes[:, 1].min()),
            "x2": float(member_boxes[:, 2].max()),
            "y2": float(member_boxes[:, 3].max()),
            "votes": int(len(idx)),
        })
    out = pd.DataFrame(rows)
    return out.sort_values(["y1", "x1", "text"], kind="mergesort") \
        .reset_index(drop=True)


def ensemble_merge(ds, n_engines: int):
    """Dataset of exploded engine tokens (doc_id, engine, text, conf,
    x1..y2) → merged tokens per doc, via ``bucketed_map_groups`` on
    ``doc_id`` (64 buckets) with a vectorized pandas sub-groupby per
    bucket."""
    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for did, sub in g.groupby("doc_id", sort=True):
            merged = vote_merge_tokens(sub, n_engines)
            merged.insert(0, "doc_id", did)
            frames.append(merged)
        return pd.concat(frames, ignore_index=True)

    return bucketed_map_groups(ds, "doc_id", per_bucket, 64)
