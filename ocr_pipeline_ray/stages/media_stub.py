"""Opaque binary "page" format + deterministic fake OCR decode.

The container has no image/OCR libraries (no PIL/cv2/tesseract), so —
as permitted for multimodal stages — the *decode* step is a
deterministic fake while all Ray-side plumbing (binary payload column,
map stage, batch sizing, schema) is real. The format plays the
role of the reference's rendered page bitmaps whose ground-truth text
is known by construction (synthetic_degradation.py:457-506 pattern).

Format ``FPG1`` (fake page, version 1):

    b"FPG1" | seed: uint64 LE | n_lines: uint32 LE |
    n_lines x ( x: int32 | y: int32 | len: uint32 | utf8 text ... )

The per-line records after the header are XOR-scrambled with an
md5-chain keystream derived from ``seed`` so the payload is genuinely
opaque binary (a decode step is required; you cannot grep the text).
The keystream is one join of ``ceil(n/16)`` chained md5 digests, and
the XOR runs once over the whole body as two big integers
(``_scramble``), not byte by byte; encode and decode share it.

``BLNK`` payloads model blank pages (reference blank detector,
pipeline.py:425-456); payloads without a known magic model corrupt
files (reference format validator, pipeline.py:2615-2685).

Format ``FPX1`` (raster page, version 1) carries a REAL grayscale
bitmap (a ``stages.pixels.render_lines`` rendering, possibly
pixel-degraded at corpus-build time):

    b"FPX1" | h: uint32 LE | w: uint32 LE | h*w uint8 pixels (row-major)

Unlike FPG1 there is no text to unscramble — recovering the page text
requires the P5-P8 pixel kernels plus the template readback
(``stages.pixels.restore_and_read``), which is exactly what the
flagship cascade does for this kind.
"""

from __future__ import annotations

import hashlib
import struct

MAGIC_PAGE = b"FPG1"
MAGIC_BLANK = b"BLNK"
MAGIC_DIGITAL = b"DTXT"
MAGIC_RASTER = b"FPX1"


def _keystream(seed: int, n: int) -> bytes:
    state = seed.to_bytes(8, "little")
    blocks = []
    for _ in range(-(-n // 16)):
        state = hashlib.md5(state).digest()
        blocks.append(state)
    return b"".join(blocks)[:n]


def _scramble(data: bytes, seed: int) -> bytes:
    """XOR ``data`` with the ``seed`` keystream (its own inverse)."""
    n = len(data)
    x = int.from_bytes(data, "little") \
        ^ int.from_bytes(_keystream(seed, n), "little")
    return x.to_bytes(n, "little")


def encode_page(lines: list[tuple[str, int, int]], seed: int) -> bytes:
    """Encode [(text, x, y), ...] into an opaque FPG1 payload."""
    body = bytearray(struct.pack("<I", len(lines)))
    for text, x, y in lines:
        raw = text.encode("utf-8")
        body.extend(struct.pack("<iiI", x, y, len(raw)))
        body.extend(raw)
    return MAGIC_PAGE + struct.pack("<Q", seed) + _scramble(body, seed)


def encode_blank(seed: int) -> bytes:
    return MAGIC_BLANK + _keystream(seed, 64)


def encode_corrupt(seed: int) -> bytes:
    return _keystream(seed ^ 0xDEAD, 48)


def encode_digital(text: str) -> bytes:
    """A 'digital-text PDF': extractable text, no OCR needed (the
    reference's pdfminer fast path, pipeline.py:1938-1946)."""
    return MAGIC_DIGITAL + text.encode("utf-8")


def decode_digital(payload: bytes) -> str:
    if payload[:4] != MAGIC_DIGITAL:
        raise ValueError("not a DTXT payload")
    return payload[4:].decode("utf-8")


def encode_raster(img) -> bytes:
    """Encode a 2-D uint8 grayscale bitmap into an FPX1 payload."""
    import numpy as np

    a = np.ascontiguousarray(img, dtype=np.uint8)
    h, w = a.shape
    return MAGIC_RASTER + struct.pack("<II", h, w) + a.tobytes()


def decode_raster(payload: bytes):
    """Decode an FPX1 payload back to its (h, w) uint8 bitmap."""
    import numpy as np

    if payload[:4] != MAGIC_RASTER:
        raise ValueError("not an FPX1 payload")
    h, w = struct.unpack("<II", payload[4:12])
    return np.frombuffer(payload[12:12 + h * w], dtype=np.uint8) \
        .reshape(h, w).copy()


def classify_payload(payload: bytes) -> str:
    """S4/S5 analog: magic-byte sniffing →
    page | raster | digital | blank | corrupt."""
    if payload[:4] == MAGIC_PAGE:
        return "page"
    if payload[:4] == MAGIC_RASTER:
        return "raster"
    if payload[:4] == MAGIC_DIGITAL:
        return "digital"
    if payload[:4] == MAGIC_BLANK:
        return "blank"
    return "corrupt"


def decode_page(payload: bytes) -> list[tuple[str, int, int]]:
    """Decode an FPG1 payload back to [(text, x, y), ...] (raises on corrupt)."""
    if payload[:4] != MAGIC_PAGE:
        raise ValueError("not an FPG1 payload")
    (seed,) = struct.unpack("<Q", payload[4:12])
    body = _scramble(payload[12:], seed)
    (n_lines,) = struct.unpack("<I", body[:4])
    if n_lines * 12 > len(body) - 4:
        # a torn/garbled payload can decode to an absurd line count;
        # every line costs ≥12 header bytes, so this bound rejects it
        # BEFORE the record loop (no unbounded spin on hostile input)
        raise ValueError("truncated FPG1 payload")
    off = 4
    lines: list[tuple[str, int, int]] = []
    for _ in range(n_lines):
        x, y, ln = struct.unpack("<iiI", body[off:off + 12])
        off += 12
        if off + ln > len(body):
            # a record whose declared text length runs past the buffer
            # is a torn payload — fail loudly here so the caller's
            # failure-as-data guard turns it into a 'corrupt' row
            # (a silent short slice would fabricate truncated text)
            raise ValueError("truncated FPG1 payload")
        lines.append((body[off:off + ln].decode("utf-8"), x, y))
        off += ln
    return lines
