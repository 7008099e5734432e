"""Flagship extraction pipeline (north rule / SURVEY §7).

    read documents → explode to span rows → classify text spans →
    OCR media spans (tasks on pooled workers) → confidence cascade →
    groupby(doc_id)+offset-sort reassembly → ordered span sequences
    (+ a per-document field-extraction reduce on top).

``extract_spans`` is the one entry; media-payload resolution has two
plans, and ``plan_job`` picks one from the data (footers and the
documents' ``media_ref`` ranges; no payload read, no constant):

- ``zone map`` (clustered media): the media zone map, one row per media
  row group with its footer ``media_ref`` min/max, a KB-sized table the
  OCR stage instances carry.
  ``stages.doclocal.DocLocalExtract`` runs explode → classify →
  ``OcrStage`` → keep filter → rank inside one task (no shuffle: each
  document is whole in its batch); ``OcrStage`` reads only the media
  row groups whose range holds a ref of its batch. Only docs over
  ``SKEW_THRESHOLD`` spans take the exploded + shuffle plan below, a
  branch built only when the plan's skew bound is over it.
- ``join`` (unclustered media): the media table is OCR'd in place by a
  map stage, then a hash-partitioned ``Dataset.join`` on ``media_ref``
  attaches the extracted TEXT to the span rows (text spans bypass the
  join and union back). Payload bytes never enter the shuffle — the
  exchange moves only narrow text rows.

Both plans decode with ``PageReader.decode`` and build span rows with
``stages.ocr.apply_media_text``, so every plan returns the same schema
and byte-identical results (tested).
``extract_spans`` runs the ``JobPlan`` that ``plan_job`` made.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import OCR_BATCH_SIZE, SKEW_THRESHOLD
from ..stages.agg import bucketed_map_groups, cluster_cpus, hash_join
from ..stages.classify import classify_spans
from ..stages.explode import explode_spans
from ..stages.ocr import (MEDIA_COLUMNS, MediaDecodeStage, OcrStage,
                          apply_media_text, read_zone_rows)
from ..stages.reassemble import reassemble


# The calibration sample's rows: one per decoded sample page.
SAMPLE_SCHEMA = pa.schema([("media_ref", pa.string()),
                           ("conf", pa.float64()),
                           ("correct", pa.float64())])


def _sample_pages(media_path: str, sample_n: int) -> list[tuple[str, str]]:
    """``(file, media_ref)`` of the first ``sample_n`` page_png refs in
    media_ref order, sorted by file so that a decode block reads a file
    at most once. A NARROW read in the calling process that keeps each
    file's ``sample_n`` smallest refs before the merge: O(files ×
    sample_n) refs, and always the global first ``sample_n``."""
    pages = []
    for frag in pads.dataset(media_path, format="parquet").get_fragments():
        t = frag.to_table(columns=["media_ref", "media_kind"])
        refs = t.filter(pc.equal(t["media_kind"], "page_png"))["media_ref"] \
            .combine_chunks()
        refs = refs.take(pc.bottom_k_unstable(refs, sample_n))
        pages += [(ref, frag.path) for ref in refs.to_pylist()]
    wanted = set(sorted(ref for ref, _ in pages)[:sample_n])
    return sorted({(path, ref) for ref, path in pages if ref in wanted})


def _calibration_sample(media_path: str, sample_n: int):
    """``SAMPLE_SCHEMA`` rows of ``_sample_pages``' refs, as a Dataset
    (None when there is no page_png): a ``map_batches`` over the refs,
    in file order, in up to 2 × the cluster's CPUs blocks (Ray's block
    count for a small read). Each task reads its refs' rows through the
    zone map (only the row groups that can hold them) and decodes them.
    Every input block holds at least one ref, so every block the pass
    emits is a ``SAMPLE_SCHEMA`` table; a filtered ``read_parquet``
    instead emits a schema-less zero-row block for each file or split
    with no sample row, which Ray passes by the map untouched."""
    pairs = _sample_pages(media_path, sample_n)
    if not pairs:
        return None
    zones = build_media_lookup(media_path)

    def decode_sample(batch: pa.Table) -> pa.Table:
        from ..functions.charfix import fix_text
        from ..functions.geometry import truth_reading_order
        from ..stages.ocr import ocr_page_cascade

        t = read_zone_rows(zones, batch["media_ref"].to_pylist(),
                           MEDIA_COLUMNS + ["truth_lines"])
        rows = {name: [] for name in SAMPLE_SCHEMA.names}
        for ref, payload, truth in zip(t["media_ref"].to_pylist(),
                                       t["payload"].to_pylist(),
                                       t["truth_lines"].to_pylist()):
            text, conf, status, _cascade = ocr_page_cascade(payload)
            if status != "ok" or not truth:
                continue
            truth_text = fix_text("\n".join(truth_reading_order(truth)))
            rows["media_ref"].append(ref)
            rows["conf"].append(conf)
            rows["correct"].append(1.0 if text == truth_text else 0.0)
        return pa.table(rows, schema=SAMPLE_SCHEMA)

    return rd.from_items([{"media_ref": ref} for _path, ref in pairs],
                         override_num_blocks=min(len(pairs),
                                                 2 * cluster_cpus())) \
        .map_batches(decode_sample, batch_format="pyarrow")


def fit_page_calibrator(media_path: str):
    """M10/A7: fit the isotonic confidence calibrator on a seeded
    labelled sample (the reference fits offline on labelled bills and
    ships ``calibration_models.pkl``, pipeline.py:196-369; here the
    corpus's construction truth IS the label).

    The sample is ``_calibration_sample``'s one small distributed pass
    over 512 pages, not a serial loop in the calling process. The
    ≤ 512 (conf, correct) rows are re-sorted by media_ref before the
    PAV fit, which
    makes the knots byte-identical to the old serial loop
    (fit_isotonic's stable sort sees the same input order). A page is
    "correct" when its canonical decode equals the canonical ground
    truth. Returns ``(knots_x, knots_y)`` or None when the sample is
    too small (calibration then stays off).
    """
    from ..functions.calibration import MIN_SAMPLES, fit_isotonic

    sample = _calibration_sample(media_path, 512)
    if sample is None:
        return None
    sample = sample.to_pandas()
    if len(sample) < MIN_SAMPLES:
        return None
    sample = sample.sort_values("media_ref", kind="mergesort")
    kx, ky = fit_isotonic(sample["conf"].to_numpy(),
                          sample["correct"].to_numpy())
    return kx.tolist(), ky.tolist()


def _metadata_bytes(md) -> int:
    """Uncompressed bytes of every column chunk in one Parquet file's
    footer ``md``."""
    return sum(rg.column(c).total_uncompressed_size
               for rg in map(md.row_group, range(md.num_row_groups))
               for c in range(rg.num_columns))


def build_media_lookup(media_path: str) -> pa.Table:
    """The media zone map, the zone-map plan's ``media``: one row per
    row group of the media files at ``media_path``, in file and
    row-group order, with its ``path``, ``row_group`` and the footer's
    ``media_ref`` ``min`` / ``max`` (null when it has none). No data is
    read. It is O(media row groups); each ``OcrStage`` reads through it
    only the row groups that can hold its batch's refs."""
    files = sorted(pads.dataset(media_path, format="parquet").get_fragments(),
                   key=lambda f: f.path)
    return pa.Table.from_pylist(
        [{"path": f.path, "row_group": rg.id,
          **rg.statistics.get("media_ref", {})}
         for f in files for rg in f.row_groups],
        schema=pa.schema([("path", pa.string()), ("row_group", pa.int64()),
                          ("min", pa.string()), ("max", pa.string())]))


def _zone_reads(zones: pa.Table, ranges) -> int:
    """Media row groups the zone map reads for documents files whose
    non-empty refs span ``ranges`` (``(min, max)``, None without refs),
    at one block per file: per file, #(min ≤ file max) − #(max < file
    min) over two sorted arrays, plus every row group with no range."""
    mins = sorted(m for m in zones["min"].to_pylist() if m is not None)
    maxs = sorted(m for m in zones["max"].to_pylist() if m is not None)
    unranged = zones.num_rows - len(mins)
    return sum(bisect.bisect_right(mins, hi) - bisect.bisect_left(maxs, lo)
               + unranged for lo, hi in ranges if lo is not None)


@dataclass(frozen=True)
class JobPlan:
    """What ``extract_spans`` runs: the planned documents read, the
    media plan (``build_media_lookup``'s zone map or the join's media
    Dataset) and the largest span count of a doc the job
    extracts."""
    docs: rd.Dataset
    media: pa.Table | rd.Dataset
    max_spans: int


def _file_plan(path: str, keep: Callable | None
               ) -> tuple[int, int, str | None, str | None]:
    """One documents file's footer bytes, the largest span count among
    the docs ``keep`` leaves, and the min and max of their non-empty
    ``media_ref`` values (None when they have none), from one open.
    Reads the offset and ``media_ref`` leaves of ``spans`` (plus
    ``doc_id`` for ``keep``) by their paths in the file's Parquet
    schema: writers name the list child ``element`` or ``item``, and
    only ``pq.ParquetFile.read`` takes nested paths."""
    f = pq.ParquetFile(path)
    leaves = [c.path for c in f.schema if c.path.startswith("spans.")
              and c.path.endswith((".offset", ".media_ref"))]
    t = f.read(columns=leaves + ["doc_id"] * (keep is not None))
    if keep is not None:
        t = keep(t)
    n = pc.list_value_length(t["spans"]).fill_null(0)
    refs = pc.struct_field(pc.list_flatten(t["spans"]), "media_ref")
    ends = pc.min_max(refs.filter(pc.not_equal(refs, ""))).as_py()
    return (_metadata_bytes(f.metadata), int(pc.max(n).as_py() or 0),
            ends["min"], ends["max"])


def plan_job(docs_path, media_path: str,
             keep: Callable | None = None) -> JobPlan:
    """Every plan decision of an extraction job over the documents files
    at ``docs_path`` (a dir, a file or a list of files) and the media at
    ``media_path``. ``keep`` is an optional batch filter on ``doc_id``:
    it runs as the read's ``map_batches`` stage, and the skew bound and
    the ref ranges count only the docs it leaves.

    Ray's own plan gives a read at least 2 × CPUs blocks even when the
    input is smaller than one ``target_min_block_size`` block: for a
    tiny input, a split read plus 2 × CPUs unfused map tasks of a few
    docs each, mostly fixed cost. When the files' footer bytes are under
    that block size and there are fewer than 2 × CPUs files, the read
    gets one block per file, so a read → doc-local chain runs as one
    fused task per file; every other input keeps Ray's plan. A doc is
    one row, so the rows do not depend on the plan.

    The media plan is the zone map when, summed over the documents
    files, the media row groups it reads (``_zone_reads``) are no more
    than the media's row groups, the join's single scan; otherwise the
    join."""
    files = sorted(f.path for f in
                   pads.dataset(docs_path, format="parquet").get_fragments())
    task = ray.remote(_file_plan)
    stats = ray.get([task.remote(f, keep) for f in files])
    min_block = rd.DataContext.get_current().target_min_block_size
    tiny = len(files) < 2 * cluster_cpus() \
        and sum(s[0] for s in stats) < min_block
    docs = rd.read_parquet(files, override_num_blocks=len(files) if tiny
                           else None)
    if keep is not None:
        docs = docs.map_batches(keep, batch_format="pyarrow")
    media = build_media_lookup(media_path)
    if _zone_reads(media, [s[2:] for s in stats]) > media.num_rows:
        media = rd.read_parquet(media_path, columns=MEDIA_COLUMNS)
    return JobPlan(docs=docs, media=media,
                   max_spans=max((s[1] for s in stats), default=0))


def _exploded(docs_ds, media, *, calib):
    """explode → classify → OCR → ``reassemble`` shuffle: the join plan
    (``media`` a media Dataset) and the zone-map plan's skew tail
    (``media`` the zone map)."""
    exploded = docs_ds.map_batches(explode_spans, batch_format="pyarrow")

    if isinstance(media, rd.Dataset):
        # The media table is decoded where its payload bytes live, and
        # only its text rows enter the hash join with the pending media
        # spans (shipping payloads through it measured 3-10× slower).
        # Text spans bypass the join, with no batch_size: a mid-pipeline
        # batch_size forces a re-bundling pass (measured 3× slower).
        media_text = media.select_columns(MEDIA_COLUMNS).map_batches(
            MediaDecodeStage(calib), batch_format="pyarrow",
            batch_size=OCR_BATCH_SIZE)

        def pending_media(batch: pa.Table) -> pa.Table:
            return classify_spans(batch.filter(pc.equal(batch["kind"],
                                                        "media")))

        joined = hash_join(
            exploded.map_batches(pending_media, batch_format="pyarrow"),
            media_text, join_type="left_outer", on=("media_ref",),
            right_on=("media_ref",),
            nbytes=sum(map(os.path.getsize, media.input_files())))
        ds = joined.map_batches(apply_media_text, batch_format="pyarrow") \
            .union(exploded.filter(expr="kind == 'text'")
                   .map_batches(classify_spans, batch_format="pyarrow")
                   .map_batches(apply_media_text, batch_format="pyarrow"))
    else:
        # Zone-map skew tail: single pass, no branches — classify
        # handles text rows and passes media rows through; the OCR
        # stage reads each batch's payloads through the zone map.
        ds = exploded.map_batches(classify_spans, batch_format="pyarrow") \
            .map_batches(OcrStage(media, calib), batch_format="pyarrow",
                         batch_size=OCR_BATCH_SIZE)

    return reassemble(ds)


def _doc_local(docs_ds, zones: pa.Table, *, threshold: int, tail: bool,
               calib=None):
    """Docs with ≤ ``threshold`` spans run map-only through
    ``DocLocalExtract``; with ``tail`` the rest take ``_exploded``,
    without it no shuffle is built and every doc runs doc-local."""
    from ..stages.doclocal import DocLocalExtract

    def small_only(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch["spans"])
        return batch.filter(pc.less_equal(n, threshold))

    def big_only(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(batch["spans"])
        return batch.filter(pc.greater(n, threshold))

    src = docs_ds.map_batches(small_only, batch_format="pyarrow") if tail \
        else docs_ds
    small = src.map_batches(DocLocalExtract(zones, calib),
                            batch_format="pyarrow")
    if not tail:
        return small
    big = _exploded(docs_ds.map_batches(big_only, batch_format="pyarrow"),
                    zones, calib=calib)
    return small.union(big)


def extract_spans(plan: JobPlan, *, calib=None):
    """``plan.docs`` → ``reassemble.OUT_SCHEMA`` span rows, as
    ``plan_job`` planned them.

    A media Dataset runs the join plan; a zone map runs doc-local, plus
    the shuffle tail for docs over ``SKEW_THRESHOLD`` spans when
    ``plan.max_spans`` exceeds it. ``calib`` is an optional
    ``(knots_x, knots_y)`` isotonic calibrator (fit_page_calibrator):
    it sets the cascade thresholds and ``conf_calibrated``. Ray Data
    sizes every stage's task count, so the doc-local stage fuses with
    its read. Every plan returns the same rows: the plan only changes
    speed.
    """
    if isinstance(plan.media, rd.Dataset):
        return _exploded(plan.docs, plan.media, calib=calib)
    return _doc_local(plan.docs, plan.media, threshold=SKEW_THRESHOLD,
                      tail=plan.max_spans > SKEW_THRESHOLD, calib=calib)


def extract_spans_hybrid(docs_ds, *, media_lookup_ref,
                         skew_threshold=SKEW_THRESHOLD, skew_tail="auto",
                         **kw):
    """perfbench's old entry; delete once it calls ``extract_spans``.
    ``media_lookup_ref`` is ``build_media_lookup``'s zone map.
    ``skew_tail="never"`` builds no tail, ``"auto"`` always one.
    ``ocr_concurrency`` is accepted and ignored: Ray Data sizes the
    stages."""
    kw.pop("ocr_concurrency", None)
    return _doc_local(docs_ds, media_lookup_ref, threshold=skew_threshold,
                      tail=skew_tail != "never", **kw)


# One row per document out of ``extract_fields_per_doc``, declared so
# that a field no document of a bucket has keeps its type. Numeric
# fields are float64: the banks return int or float, absent is null.
FIELDS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("electricity_kwh", pa.float64()),
    ("carbon_kgco2e", pa.float64()),
    ("account_number", pa.string()),
    ("bill_date", pa.string()),
    ("meter_reading", pa.float64()),
    ("water_m3", pa.float64()),
    ("billing_start", pa.string()),
    ("billing_end", pa.string()),
    ("current_reading", pa.float64()),
    ("previous_reading", pa.float64()),
    ("peak_demand_kw", pa.float64()),
    ("conf_electricity", pa.float64()),
    ("conf_carbon", pa.float64()),
    ("status", pa.string()),
    ("n_warnings", pa.int64()),
    ("n_spans", pa.int64()),
    ("doc_conf", pa.float64()),
    ("doc_digest", pa.string()),
])


def extract_fields_per_doc(spans_ds):
    """Ordered spans → one ``FIELDS_SCHEMA`` row per document with
    extracted utility fields (reference extract_fields path,
    pipeline.py:2340-2380, now incl. the F10 KIE fallback + F11
    correction loop and the full F7 aux set), per-field confidences (A4
    pattern, pipeline.py:2505-2529: confidence of the spans whose text
    contains the match, capped 0.99; defaults 0.9/0.85), validation
    status (pipeline.py:2769-2808), a sha256 content digest (F12,
    pipeline.py:2580-2585) and mean span conf.

    Reduced with ``bucketed_map_groups`` on ``doc_id`` (64 buckets),
    like reassembly: each bucket task runs ``per_doc`` over all of its
    documents."""
    import hashlib

    import pandas as pd

    from ..functions.regex_banks import extract_fields, validate_fields

    def _field_conf(g: pd.DataFrame, value, default: float) -> float:
        if value is None:
            return 0.0
        needle = str(value)
        hit = g[g["text"].str.contains(needle, regex=False)]
        if hit.empty:
            return default
        return float(min(0.99, hit["conf"].min()))

    def per_doc(g: pd.DataFrame) -> dict:
        g = g.sort_values("order", kind="mergesort")
        full_text = "\n".join(g["text"])
        fields = extract_fields(full_text)
        status, warnings = validate_fields(fields)
        return {
            "doc_id": g["doc_id"].iloc[0],
            **fields,
            "conf_electricity": _field_conf(g, fields["electricity_kwh"], 0.9),
            "conf_carbon": _field_conf(g, fields["carbon_kgco2e"], 0.85),
            "status": status,
            "n_warnings": len(warnings),
            "n_spans": len(g),
            "doc_conf": float(np.mean(g["conf"])) if len(g) else 0.0,
            "doc_digest": hashlib.sha256(full_text.encode()).hexdigest(),
        }

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        return pa.Table.from_pylist(
            [per_doc(sub) for _, sub in g.groupby("doc_id", sort=True)],
            schema=FIELDS_SCHEMA)

    return bucketed_map_groups(spans_ds, "doc_id", per_bucket, 64)
