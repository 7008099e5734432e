"""Deterministic interleaved-span corpus generator (FIXTURES.md §1-§2).

Produces the engine's primary input shape (BASELINE.json input_hint):

    documents(doc_id: string,
              spans: list<struct<kind: string, text: string,
                                 media_ref: string, offset: int32>>)
    media(media_ref: string, media_kind: string, payload: binary,
          truth_lines: list<struct<text: string, x: int32, y: int32>>,
          degradations: list<struct<type: string, severity: string>>)

Everything is a pure function of ``(seed, doc_index)`` so the corpus
can be synthesized identically on the driver (tests) or inside
``map_batches`` over ``ray.data.range(n_docs)`` (bench-scale), in any
partition order. Mirrors the reference's synthetic-degradation corpus
approach (synthetic_degradation.py:457-506): ground truth is known by
construction; degradations are recorded as lineage.

Span-count profile per FIXTURES.md: 80% of docs 3-20 spans, 15%
20-100, 5% 100-``skew_upper`` (the "huge PDF" skew tail).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages import media_stub

VOCAB = (
    "the fast key order sort table scan merge part window small hash join "
    "query row data slow filter customer line batch value spark group stream "
    "big column vector agg plan index page cache disk node shard block"
).split()

_BILL_TEMPLATES = (
    "Total Consumption {e} kWh",
    "Electricity {e} kWh",
    "Kg CO2e {c}",
    "Carbon footprint {c} Kg CO2e",
    "Account Number: {a}",
    "Bill Date {d}",
    "Meter Reading {m}",
    "From {d} To {d2}",
    "Current Reading {m} Previous Reading {m2}",
    "Peak Demand {p} kW",
    "Water {w} m3",
)

# Digit → confusable corruption (the inverse direction of charfix F1).
_CORRUPT = {"1": "l", "0": "O", "2": "Z", "5": "S", "8": "B"}

_SEVERITY_LEVELS = ("none", "low", "medium", "high")
_SEVERITY_P = (0.4, 0.3, 0.2, 0.1)
_DEGRADATION_TYPES = (
    "gaussian_noise", "salt_pepper", "motion_blur", "jpeg_compression",
    "downscale", "brightness", "shadows",
)

# Pixel-domain degradation classes for raster pages (page_raster media):
# each is repaired by exactly one P5-P8 kernel at the severities the
# pixel tests prove necessary+sufficient (stages/pixels.py defaults).
_PIXEL_DEGRADATIONS = ("none", "pixel_low_contrast", "pixel_noise",
                       "pixel_blur", "pixel_dropout")
_PIXEL_DEG_P = (0.28, 0.18, 0.18, 0.18, 0.18)

SPANS_SCHEMA = pa.list_(pa.struct([
    ("kind", pa.string()), ("text", pa.string()),
    ("media_ref", pa.string()), ("offset", pa.int32()),
]))
DOCS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", SPANS_SCHEMA)])
MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()), ("media_kind", pa.string()),
    ("payload", pa.binary()),
    ("truth_lines", pa.list_(pa.struct([
        ("text", pa.string()), ("x", pa.int32()), ("y", pa.int32())]))),
    ("degradations", pa.list_(pa.struct([
        ("type", pa.string()), ("severity", pa.string())]))),
])


def _rng_for(seed: int, doc_index: int) -> np.random.RandomState:
    return np.random.RandomState((seed * 1_000_003 + doc_index) % (2**32))


def _words(rng: np.random.RandomState, n: int) -> str:
    return " ".join(VOCAB[i] for i in rng.randint(0, len(VOCAB), n))


def _bill_line(rng: np.random.RandomState) -> str:
    # every placeholder draws eagerly so the rng stream length per bill
    # line is fixed regardless of the chosen template (determinism)
    t = _BILL_TEMPLATES[rng.randint(0, len(_BILL_TEMPLATES))]
    e = int(rng.randint(60, 40_000))
    return t.format(
        e=e,
        c=int(max(11, min(19_000, e * (0.1 + 0.8 * rng.rand())))),
        a=f"{rng.randint(10**7, 10**9)}{rng.randint(10, 99)}",
        d=f"{rng.randint(1, 29):02d}/{rng.randint(1, 13):02d}/{rng.randint(2019, 2026)}",
        m=int(rng.randint(1_000, 9_999_999)),
        d2=f"{rng.randint(1, 29):02d}/{rng.randint(1, 13):02d}/{rng.randint(2019, 2026)}",
        m2=int(rng.randint(1_000, 9_999_999)),
        p=int(rng.randint(2, 900)),
        w=int(rng.randint(20, 900)),
    )


def _corrupt_text(text: str, rng: np.random.RandomState, sev_idx: int) -> str:
    """Deterministically swap some digits for confusables (severity-scaled)."""
    if sev_idx == 0:
        return text
    p = (0.0, 0.08, 0.2, 0.4)[sev_idx]
    out = []
    for ch in text:
        if ch in _CORRUPT and rng.rand() < p:
            out.append(_CORRUPT[ch])
        else:
            out.append(ch)
    return "".join(out)


def _raster_media(rng: np.random.RandomState, mseed: int) -> dict:
    """One raster-page media row: render clean text lines to a REAL
    grayscale bitmap (stages.pixels), apply at most one pixel-domain
    degradation, and store the degraded bitmap as the payload. The
    flagship must run the matching P5-P8 kernel to read the page back
    (ground truth recorded as lineage, reference
    synthetic_degradation.py:457-506 pattern)."""
    from ..stages import pixels

    n_lines = int(rng.randint(2, 6))
    texts = [(_bill_line(rng) if rng.rand() < 0.3
              else _words(rng, int(rng.randint(3, 8))))
             for _ in range(n_lines)]
    img = pixels.render_lines(texts)
    deg = _PIXEL_DEGRADATIONS[int(rng.choice(len(_PIXEL_DEGRADATIONS),
                                             p=_PIXEL_DEG_P))]
    if deg == "pixel_low_contrast":
        img = pixels.degrade_low_contrast(img)
    elif deg == "pixel_noise":
        img = pixels.degrade_noise(img, mseed)
    elif deg == "pixel_blur":
        img = pixels.degrade_blur(img)
    elif deg == "pixel_dropout":
        img = pixels.degrade_stroke_breaks(img, mseed)
    band = pixels.CELL_H * pixels.SCALE
    return {
        "media_kind": "page_raster",
        "payload": media_stub.encode_raster(img),
        # reading order = render order (one band per line, top to bottom)
        "truth_lines": [{"text": t, "x": 0, "y": li * band}
                        for li, t in enumerate(texts)],
        "degradations": ([] if deg == "none"
                         else [{"type": deg, "severity": "high"}]),
    }


def _boilerplate_span(rng: np.random.RandomState) -> str:
    n_links = int(rng.randint(3, 9))
    labels = ("Home", "About", "Contact", "Login", "Terms", "Privacy", "Sitemap", "Careers")
    links = " ".join(
        f'<a href="#">{labels[rng.randint(0, len(labels))]}</a>' for _ in range(n_links)
    )
    return f"<nav>{links}</nav>"


def _main_span(rng: np.random.RandomState) -> str:
    body = _words(rng, int(rng.randint(20, 80)))
    if rng.rand() < 0.2:
        body = body + " " + _bill_line(rng)
    return f"<p>{body}</p>"


def gen_doc(seed: int, doc_index: int, skew_upper: int = 300) -> tuple[dict, list[dict]]:
    """One document row + its media rows. Pure function of (seed, doc_index)."""
    rng = _rng_for(seed, doc_index)
    doc_id = f"doc-{doc_index:08d}"
    u = rng.rand()
    if u < 0.80:
        n_spans = int(rng.randint(3, 21))
    elif u < 0.95:
        n_spans = int(rng.randint(20, 101))
    else:
        n_spans = int(rng.randint(100, max(101, skew_upper)))

    spans: list[dict] = []
    media_rows: list[dict] = []
    for off in range(n_spans):
        if rng.rand() < 0.30:  # media span
            ref = f"m-{doc_id}-{off}"
            kind_roll = rng.rand()
            mseed = int(rng.randint(0, 2**31))
            if kind_roll < 0.05:
                media_rows.append({
                    "media_ref": ref, "media_kind": "blank",
                    "payload": media_stub.encode_blank(mseed),
                    "truth_lines": [], "degradations": [],
                })
            elif kind_roll < 0.08:
                media_rows.append({
                    "media_ref": ref, "media_kind": "corrupt",
                    "payload": media_stub.encode_corrupt(mseed),
                    "truth_lines": [], "degradations": [],
                })
            elif kind_roll < 0.18:
                # digital-text PDF: extractable text, no OCR (S2 fast path)
                n_lines = int(rng.randint(2, 7))
                dlines = [(_bill_line(rng) if rng.rand() < 0.35
                           else _words(rng, int(rng.randint(3, 9))))
                          for _ in range(n_lines)]
                media_rows.append({
                    "media_ref": ref, "media_kind": "digital_pdf",
                    "payload": media_stub.encode_digital("\n".join(dlines)),
                    "truth_lines": [], "degradations": [],
                })
            elif kind_roll < 0.26:
                # raster-bitmap page: P5-P8 pixel kernels required
                media_rows.append({"media_ref": ref,
                                   **_raster_media(rng, mseed)})
            else:
                sev_idx = int(rng.choice(len(_SEVERITY_LEVELS), p=_SEVERITY_P))
                n_lines = int(rng.randint(3, 12))
                lines, truth = [], []
                for li in range(n_lines):
                    clean = (_bill_line(rng) if rng.rand() < 0.35
                             else _words(rng, int(rng.randint(3, 9))))
                    x = int(rng.randint(0, 2) * 250 + rng.randint(0, 6))
                    y = int(li * 30 + rng.randint(0, 6))
                    degraded = _corrupt_text(clean, rng, sev_idx)
                    lines.append((degraded, x, y))
                    truth.append({"text": clean, "x": x, "y": y})
                order = rng.permutation(n_lines)  # stored order is shuffled;
                lines = [lines[i] for i in order]  # XY-cut must restore it
                degs = ([] if sev_idx == 0 else [{
                    "type": _DEGRADATION_TYPES[int(rng.randint(0, len(_DEGRADATION_TYPES)))],
                    "severity": _SEVERITY_LEVELS[sev_idx],
                }])
                media_rows.append({
                    "media_ref": ref, "media_kind": "page_png",
                    "payload": media_stub.encode_page(lines, mseed),
                    "truth_lines": truth, "degradations": degs,
                })
            spans.append({"kind": "media", "text": "", "media_ref": ref,
                          "offset": off})
        else:  # text span
            is_boiler = rng.rand() < 0.35
            text = _boilerplate_span(rng) if is_boiler else _main_span(rng)
            spans.append({"kind": "text", "text": text, "media_ref": "",
                          "offset": off})
    return {"doc_id": doc_id, "spans": spans}, media_rows


def _write_part(out_dir: str, part: int, lo: int, hi: int, seed: int,
                skew_upper: int) -> None:
    """Docs ``[lo, hi)`` → ``documents_spans/part-NNNN.parquet`` and
    ``media/part-NNNN.parquet`` under ``out_dir`` (dirs created)."""
    docs, media = [], []
    for i in range(lo, hi):
        d, m = gen_doc(seed, i, skew_upper)
        docs.append(d)
        media.extend(m)
    for sub, rows, schema in (("documents_spans", docs, DOCS_SCHEMA),
                              ("media", media, MEDIA_SCHEMA)):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                       os.path.join(out_dir, sub, f"part-{part:04d}.parquet"))


def write_corpus(out_dir: str, n_docs: int, seed: int = 42, skew_upper: int = 300,
                 num_files: int = 4) -> None:
    """Write partitioned parquet (documents_spans/, media/) under out_dir:
    ``num_files`` contiguous shards of the docs, one Ray task per file
    (a shard past the last doc is not written), so multiple part files
    let downstream reads parallelize and give the checkpoint/resume
    tests real input shards. ``gen_doc`` is a pure function of (seed,
    doc_index), so a file's bytes do not depend on the task that writes
    it. Needs a Ray session (``ray.remote`` starts one otherwise).
    """
    import ray

    per = (n_docs + num_files - 1) // num_files
    task = ray.remote(_write_part)
    ray.get([task.remote(out_dir, f, f * per, min(n_docs, (f + 1) * per),
                         seed, skew_upper)
             for f in range(num_files) if f * per < n_docs])


_CORPUS_CACHE = "/tmp/ocr_ray_corpus"


def _span_corpus_docs(sf_dir: str) -> int:
    """Document count of the span corpus for an sf tier."""
    return max(50, pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows // 2)


def _span_corpus_path(sf_dir: str) -> str:
    """PATH of the deterministic span corpus for an sf tier — pure
    (reads only the tier's parquet metadata; never synthesizes the
    corpus). Used by ``__ray_entry__.oracle_sql`` so that building the
    oracle dict has no side effects; the paired Ray query (which the
    driver runs first) materializes the corpus via ``_span_corpus``,
    at this same path."""
    return os.path.join(_CORPUS_CACHE,
                        f"v4-n{_span_corpus_docs(sf_dir)}-seed42")


def _span_corpus(sf_dir: str) -> str:
    """Deterministic span corpus derived from the sf tier (cached)."""
    out = _span_corpus_path(sf_dir)
    marker = os.path.join(out, "_DONE")
    if not os.path.exists(marker):
        n_docs = _span_corpus_docs(sf_dir)
        write_corpus(out, n_docs=n_docs, seed=42, skew_upper=200,
                     num_files=n_docs // 300 if n_docs >= 2000 else 4)
        with open(marker, "w") as f:
            f.write("ok")
    return out
