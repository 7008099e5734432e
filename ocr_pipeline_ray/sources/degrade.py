"""Standalone 15-op synthetic degradation bank (SURVEY §2.2 P11).

Re-expresses the reference's degradation suite
(synthetic_degradation.py:60-426: 15 named image ops, severity-scaled,
applied to rendered pages whose ground truth is known) on the FPG1
page format: 10 TEXT-domain ops model pixel damage as the character
errors it produces downstream, and 5 GEOMETRY-domain ops damage the
line coordinates (the deskew/dewarp/size-cap preprocessors' inputs).
Every op is a pure function of (lines, severity, seed);
``degrade_page`` wraps decode → degrade → re-encode for one payload.
``pipelines.modelops.degradation_bank`` calls it inside its
``map_batches`` explode, one row per (page, op), so the bank runs
distributed over a media corpus exactly like the reference applies
its bank to rendered bitmaps.

Severity scaling matches the generator's corruption levels
(sources/synth.py:_corrupt_text): low 0.08, medium 0.2, high 0.4.
"""

from __future__ import annotations

import struct

import numpy as np

from ..stages import media_stub
from .synth import _CORRUPT

Lines = list[tuple[str, int, int]]

SEVERITY_P = {"low": 0.08, "medium": 0.2, "high": 0.4}

_SALT = "#*%@"


def _rng(seed: int, salt: str) -> np.random.RandomState:
    import zlib
    return np.random.RandomState(
        (seed ^ zlib.crc32(salt.encode())) % (2**32))


# --- text-domain ops (pixel damage modeled as its OCR consequence) ---

def _per_char(lines: Lines, rng, p: float, fn) -> Lines:
    out = []
    for text, x, y in lines:
        chars = []
        for ch in text:
            chars.extend(fn(ch) if rng.rand() < p else [ch])
        out.append(("".join(chars), x, y))
    return out


def op_gaussian_noise(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p,
                     lambda ch: [_CORRUPT.get(ch, ch)])


def op_salt_pepper(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p / 2,
                     lambda ch: [_SALT[rng.randint(0, len(_SALT))]]
                     if ch != " " else [ch])


def op_motion_blur(lines: Lines, rng, p: float) -> Lines:
    out = []
    for text, x, y in lines:
        chars = list(text)
        for i in range(len(chars) - 1):
            if rng.rand() < p / 2:
                chars[i], chars[i + 1] = chars[i + 1], chars[i]
        out.append(("".join(chars), x, y))
    return out


def op_jpeg_artifacts(lines: Lines, rng, p: float) -> Lines:
    # blocky compression merges glyphs → spaces vanish
    return _per_char(lines, rng, p / 2,
                     lambda ch: [] if ch == " " else [ch])


def op_downscale(lines: Lines, rng, p: float) -> Lines:
    # resolution loss: line tails become unreadable
    return [(t[:max(1, int(len(t) * (1 - p / 2)))], x, y)
            for t, x, y in lines]


def op_brightness(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p, lambda ch: [ch.swapcase()])


def op_shadows(lines: Lines, rng, p: float) -> Lines:
    # a shadow band obscures the left margin of some lines
    k = int(p * 8)
    return [(t[k:] if rng.rand() < 0.5 else t, x, y) for t, x, y in lines]


def op_char_dropout(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p / 3, lambda ch: [])


def op_char_duplicate(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p / 3, lambda ch: [ch, ch])


def op_whitespace_noise(lines: Lines, rng, p: float) -> Lines:
    return _per_char(lines, rng, p / 4, lambda ch: [ch, " "])


# --- geometry-domain ops (what the P1-P5 preprocessors repair) ---

def op_rotate90(lines: Lines, rng, p: float) -> Lines:
    h = max((y for _, _, y in lines), default=0)
    return [(t, h - y, x) for t, x, y in lines]


def op_baseline_jitter(lines: Lines, rng, p: float) -> Lines:
    j = max(1, int(p * 30))
    return [(t, x, y + int(rng.randint(0, j + 1))) for t, x, y in lines]


def op_coordinate_blowup(lines: Lines, rng, p: float) -> Lines:
    k = 1000 if p < 0.3 else 10_000
    return [(t, x * k, y * k) for t, x, y in lines]


def op_line_swap(lines: Lines, rng, p: float) -> Lines:
    # scan-order damage: records arrive permuted; the XY-cut reading
    # order reconstruction must not care about storage order
    perm = rng.permutation(len(lines))
    return [lines[i] for i in perm]


def op_blankout(lines: Lines, rng, p: float) -> Lines:
    return [("" if rng.rand() < p / 3 else t, x, y) for t, x, y in lines]


DEGRADATION_OPS: dict[str, object] = {
    # text-domain (10)
    "gaussian_noise": op_gaussian_noise,
    "salt_pepper": op_salt_pepper,
    "motion_blur": op_motion_blur,
    "jpeg_artifacts": op_jpeg_artifacts,
    "downscale": op_downscale,
    "brightness": op_brightness,
    "shadows": op_shadows,
    "char_dropout": op_char_dropout,
    "char_duplicate": op_char_duplicate,
    "whitespace_noise": op_whitespace_noise,
    # geometry-domain (5)
    "rotate90": op_rotate90,
    "baseline_jitter": op_baseline_jitter,
    "coordinate_blowup": op_coordinate_blowup,
    "line_swap": op_line_swap,
    "blankout": op_blankout,
}

GEOMETRY_OPS = ("rotate90", "baseline_jitter", "coordinate_blowup",
                "line_swap")


def degrade_page(payload: bytes, op: str, severity: str) -> bytes:
    """Apply one bank op to an FPG1 payload (non-page payloads pass
    through). Deterministic: the RNG seeds from (payload seed, op)."""
    if media_stub.classify_payload(payload) != "page":
        return payload
    lines = media_stub.decode_page(payload)
    (seed,) = struct.unpack("<Q", payload[4:12])
    rng = _rng(seed, f"{op}:{severity}")
    degraded = DEGRADATION_OPS[op](lines, rng, SEVERITY_P[severity])
    return media_stub.encode_page(degraded, seed)

