"""Multimodal column stages: opaque binary payloads + typed metadata.

Image/audio/video content is carried as plain ``binary`` columns with
a ``media_kind`` string and struct metadata. Feature extraction
(``media_features``), P1-P5 preprocessing (``preprocess_media``) and
frame sampling (``frame_sample``) are stateless ``map_batches``
functions over those columns; Ray Data runs them as tasks. Decode-and-verify is not a stage of its own: the OCR read
path (``stages.ocr.ocr_page_cascade``) decodes each payload once and
turns an over-size, blank or torn one into a status row.

Reference parity: the preprocessing family P1-P11 (SURVEY §2.2,
pipeline.py:458-644) is the same stage shape — per-row binary→tensor
kernels in a map stage; the degradation bank
(synthetic_degradation.py:60-76) is mirrored by ``sources.degrade``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from ..functions.charfix import _AGGRESSIVE_WORD, _SUSPECTS
from ..functions.geometry import XY_CUT_BAND
from . import media_stub

FEATURE_DIM = 8


def media_features(batch: pa.Table) -> pa.Table:
    """binary payload → fixed-size numeric feature vector.

    The feature extractor analog of the reference's image-quality
    scorer (adaptive_ocr_pipeline.py:76-148): cheap scalar statistics
    of the payload bytes (size, entropy estimate, magic class) emitted
    as a ``list<float>`` column ready for the similarity operators.
    """
    feats = []
    for payload in batch["payload"].to_pylist():
        if not payload:
            feats.append([0.0] * FEATURE_DIM)
            continue
        arr = np.frombuffer(payload[:4096], dtype=np.uint8)
        hist, _ = np.histogram(arr, bins=4, range=(0, 256))
        p = hist / max(1, arr.size)
        ent = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
        kind = media_stub.classify_payload(payload)
        feats.append([
            float(len(payload)),
            float(arr.mean()),
            float(arr.std()),
            ent,
            1.0 if kind == "page" else 0.0,
            1.0 if kind == "blank" else 0.0,
            1.0 if kind == "corrupt" else 0.0,
            float(int(hashlib.md5(payload).hexdigest()[:8], 16) % 997) / 997.0,
        ])
    return batch.drop_columns(["payload"]).append_column(
        "features", pa.array(feats, type=pa.list_(pa.float32(), FEATURE_DIM)))


# ---------------------------------------------------------------------------
# P1-P5 preprocessing kernels — REAL transforms on the FPG1 format
# (reference pipeline.py:458-644: size/rotate guards, deskew, dewarp,
# binarize). The FPG1 payload carries (text, x, y) line records, so the
# geometric preprocessors are genuine coordinate transforms whose effect
# on downstream XY-cut reading order is observable and tested.

MAX_COORD = 10_000   # P1 coordinate cap (reference size guard 458-491)


def rotate_page_cw(payload: bytes) -> bytes:
    """Rotate an FPG1 page 90° clockwise — (x, y) → (H − y, x) — used to
    synthesize mis-scanned pages (and as the P2 test fixture)."""
    lines = media_stub.decode_page(payload)
    (seed,) = struct.unpack("<Q", payload[4:12])
    h = max((y for _, _, y in lines), default=0)
    return media_stub.encode_page([(t, h - y, x) for t, x, y in lines], seed)


def _detect_rotation(lines: list[tuple[str, int, int]]) -> bool:
    """P2 deskew detector: a readable page stacks lines vertically (many
    distinct y bands, few x columns); a 90°-rotated page inverts that.
    Pages under 3 lines carry no layout evidence and are left alone."""
    if len(lines) < 3:
        return False
    xbands = {x // 24 for _, x, _ in lines}
    ybands = {y // 24 for _, _, y in lines}
    return len(xbands) > len(ybands)


def _unrotate(lines: list[tuple[str, int, int]]) -> list[tuple[str, int, int]]:
    """Inverse of the clockwise rotation: (x', y') → (y', W − x'). The
    unknown original height only shifts all y by a constant, which
    preserves band structure and reading order."""
    w = max(x for _, x, _ in lines)
    return [(t, y, w - x) for t, x, y in lines]


# y gaps ≤ this are jitter, not a new baseline: must exceed the worst
# per-line jitter but stay under the 24 px XY-cut band height (rows
# closer than that are unreadable anyway)
_DEWARP_GAP = 15


def _dewarp_lines(lines: list[tuple[str, int, int]]
                  ) -> tuple[list[tuple[str, int, int]], bool]:
    """P4 dewarp: cluster the distinct y values into baselines (break a
    cluster when the gap to the next y exceeds ``_DEWARP_GAP``) and
    snap each line's y to its cluster mean — straightens per-line
    jitter that would otherwise push one visual row's cells into two
    XY-cut bands (multi-column pages are the common casualty). A mean
    that lands in the same band as the baseline above is pushed down
    to the top of the next band, so distinct baselines never share a
    band and the page reads row-major. No-ops
    when the layout carries no baseline evidence (<3 distinct y, or
    everything chains into one cluster — a continuous warp this local
    rule cannot honestly straighten)."""
    ys = sorted({y for _, _, y in lines})
    if len(ys) < 3:
        return lines, False
    clusters: list[list[int]] = [[ys[0]]]
    for prev, cur in zip(ys, ys[1:]):
        if cur - prev > _DEWARP_GAP:
            clusters.append([cur])
        else:
            clusters[-1].append(cur)
    if len(clusters) < 2:
        return lines, False
    snap: dict[int, int] = {}
    prev_band = -1
    for c in clusters:
        base = int(round(sum(c) / len(c)))
        if base // XY_CUT_BAND <= prev_band:
            base = (prev_band + 1) * XY_CUT_BAND
        prev_band = base // XY_CUT_BAND
        snap.update((y, base) for y in c)
    snapped = [(t, x, snap[y]) for t, x, y in lines]
    return snapped, snapped != lines


def _rescale_coords(lines: list[tuple[str, int, int]]
                    ) -> tuple[list[tuple[str, int, int]], bool]:
    """P1 size cap: coordinates past MAX_COORD are scaled down uniformly
    (order-preserving), the resize-guard analog."""
    m = max((max(x, y) for _, x, y in lines), default=0)
    if m <= MAX_COORD:
        return lines, False
    scale = MAX_COORD / m
    return [(t, int(x * scale), int(y * scale)) for t, x, y in lines], True


def _noise_score(lines: list[tuple[str, int, int]]) -> float:
    """P3/P5 noise statistic: density of suspect glyphs inside
    confusable-class words (the ambiguity the OCR ensemble actually
    struggles with — ordinary prose contains l/o/s everywhere and must
    not count). Reported per page as ``pp_noise_score``."""
    chars = sum(len(t) for t, _, _ in lines)
    if chars == 0:
        return 1.0
    sus = sum(sum(1 for ch in m.group(0) if ch in _SUSPECTS)
              for t, _, _ in lines for m in _AGGRESSIVE_WORD.finditer(t))
    return sus / chars


def preprocess_media(batch: pa.Table) -> pa.Table:
    """P1-P5 preprocessing stage: FPG1 pages are deskewed (rotation
    detect + inverse transform), dewarped (baseline snap), size-capped
    and noise-scored; the corrected payload is re-encoded in place so
    every downstream decode (OCR, frame sampling) sees the preprocessed
    page. Non-page payloads pass through untouched.

    Output = input columns with ``payload`` replaced and
    ``pp_rotated / pp_dewarped / pp_rescaled : bool``,
    ``pp_noise_score : float64`` appended.
    """
    payloads, rot, dew, res, noise = [], [], [], [], []
    for payload in batch["payload"].to_pylist():
        if payload is None or \
                media_stub.classify_payload(payload) != "page":
            payloads.append(payload)
            rot.append(False)
            dew.append(False)
            res.append(False)
            noise.append(0.0)
            continue
        lines = media_stub.decode_page(payload)
        (seed,) = struct.unpack("<Q", payload[4:12])
        was_rot = _detect_rotation(lines)
        if was_rot:
            lines = _unrotate(lines)
        lines, was_dew = _dewarp_lines(lines)
        lines, was_res = _rescale_coords(lines)
        payloads.append(media_stub.encode_page(lines, seed)
                        if (was_rot or was_dew or was_res) else payload)
        rot.append(was_rot)
        dew.append(was_dew)
        res.append(was_res)
        noise.append(_noise_score(lines))
    out = batch.drop_columns(["payload"])
    return out.append_column("payload", pa.array(payloads,
                                                 type=pa.binary())) \
        .append_column("pp_rotated", pa.array(rot, type=pa.bool_())) \
        .append_column("pp_dewarped", pa.array(dew, type=pa.bool_())) \
        .append_column("pp_rescaled", pa.array(res, type=pa.bool_())) \
        .append_column("pp_noise_score", pa.array(noise, type=pa.float64()))


def frame_sample(batch: pa.Table) -> pa.Table:
    """'Video' payloads → every 2nd 'frame' (line record) as new rows —
    the flat_map-shaped explode (one input row → many output rows) used
    for frame sampling; on the fake format a frame is a page line."""
    refs, idxs, texts = [], [], []
    for ref, payload in zip(batch["media_ref"].to_pylist(),
                            batch["payload"].to_pylist()):
        if media_stub.classify_payload(payload) != "page":
            continue
        for i, (text, _, _) in enumerate(media_stub.decode_page(payload)):
            if i % 2 == 0:
                refs.append(ref)
                idxs.append(i)
                texts.append(text)
    return pa.table({
        "media_ref": pa.array(refs, type=pa.string()),
        "frame_index": pa.array(idxs, type=pa.int32()),
        "frame_text": pa.array(texts, type=pa.string()),
    })
