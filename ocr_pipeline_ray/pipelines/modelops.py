"""Model-adjacent operator pipelines: multimodal features, frame
sampling, multi-engine ensemble merge, confidence calibration.
Their map stages are stateless functions that Ray Data runs as tasks,
as many as its scheduler picks.

All operate on the deterministic span/media corpus (derived per
sf_dir) or seeded synthetic samples; results are deterministic but not
SQL-expressible → rows-only entries in the driver gate, with exact
assertions in tests/test_stages_extra.py and tests/test_modelops.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions import calibration
from ..sources.synth import _span_corpus
from ..stages import multimodal
from ..stages.agg import partial_merge
from ..stages.ensemble import ensemble_merge


def _lineage_write(ds: "rd.Dataset", path: str) -> "rd.Dataset":
    """Materialize a lineage/profile Dataset to a deterministic parquet
    directory (cleared first — content is deterministic per corpus) and
    return a Dataset reading it back. The paired DuckDB entry in
    ``__ray_entry__.oracle_sql`` re-reads these same files, so its
    hash comparison checks serialization and determinism of the
    aggregation (rows + schema + hash; a stale or missing file fails),
    not the answer itself: nothing recomputes the per-row decisions.
    Those are gated by the pytest kernel tests named next to each
    entry there. The written partition dir doubles as the resumable
    output the 100 TB run would checkpoint."""
    import shutil

    shutil.rmtree(path, ignore_errors=True)
    ds.write_parquet(path)
    return rd.read_parquet(path)


def media_feature_stats(sf_dir: str) -> pd.DataFrame:
    """``media_features`` stage → per media_kind count + mean payload
    size (feature[0]); exercises the binary→feature plumbing end-to-end."""
    corpus = _span_corpus(sf_dir)
    media = rd.read_parquet(f"{corpus}/media",
                            columns=["media_kind", "payload"])
    feats = media.map_batches(multimodal.media_features, batch_size=128,
                              batch_format="pyarrow")

    def rows(t: pa.Table) -> pa.Table:
        size = pc.list_element(t["features"], 0)
        return pa.table({"media_kind": t["media_kind"],
                         "size_i": pc.cast(size, pa.int64(), safe=False)})

    # cardinality: media_kind has 4 values — bounded, partial_merge-safe
    out = partial_merge(feats, rows, keys=["media_kind"],
                        spec={"n": ("size_i", "count"),
                              "total_bytes": ("size_i", "sum")})
    return out.sort_values("media_kind").reset_index(drop=True)


def preprocess_media(sf_dir: str) -> pd.DataFrame:
    """P1-P5 preprocessing over the media corpus with a deterministic
    mis-scan injected: every page whose crc32(media_ref) % 5 == 0 is
    rotated 90° clockwise upstream (simulated scanner rotation), then
    the ``preprocess_media`` stage deskews / dewarps / size-caps /
    noise-scores every payload. Returns per-media preprocessing
    lineage, WRITTEN to a derived parquet partition first (the
    ``_lineage_write`` contract); the paired DuckDB entry re-reads
    that file, which checks serialization and determinism only. The
    bitmap decisions themselves (rotated-page reading-order recovery)
    are gated exactly in tests/test_stages_extra.py."""
    import zlib

    corpus = _span_corpus(sf_dir)
    media = rd.read_parquet(f"{corpus}/media",
                            columns=["media_ref", "media_kind", "payload"])

    def misscan(t: pa.Table) -> pa.Table:
        refs = t["media_ref"].to_pylist()
        kinds = t["media_kind"].to_pylist()
        payloads = t["payload"].to_pylist()
        out = []
        for r, k, p in zip(refs, kinds, payloads):
            if k == "page_png" and zlib.crc32(r.encode()) % 5 == 0:
                out.append(multimodal.rotate_page_cw(p))
            else:
                out.append(p)
        return pa.table({"media_ref": t["media_ref"],
                         "media_kind": t["media_kind"],
                         "payload": pa.array(out, type=pa.binary())})

    def round_score(t: pa.Table) -> pa.Table:
        return t.set_column(
            t.column_names.index("pp_noise_score"), "pp_noise_score",
            pc.round(t["pp_noise_score"], ndigits=6))

    pp = media.map_batches(misscan, batch_format="pyarrow") \
        .map_batches(multimodal.preprocess_media, batch_size=128,
                     batch_format="pyarrow") \
        .drop_columns(["payload"]) \
        .map_batches(round_score, batch_format="pyarrow")
    out = _lineage_write(pp, f"{_span_corpus(sf_dir)}/preprocess_lineage") \
        .to_pandas()
    return out.sort_values("media_ref").reset_index(drop=True)


def degradation_bank(sf_dir: str, sample_n: int = 384) -> pd.DataFrame:
    """P11: run the full 15-op degradation bank (sources/degrade.py —
    reference synthetic_degradation.py's 15 severity-scaled ops, at
    ``medium`` severity) over a page sample: degrade → P1-P5
    preprocess → ensemble cascade decode → char accuracy vs
    construction truth. One row per op (+ the clean
    baseline): the measured robustness profile of the whole read path.
    Geometry-domain damage (rotation, jitter, scan order, coordinate
    blowup) must be repaired by the preprocessors — their accuracy
    matches the clean baseline; text-domain damage degrades it
    (asserted in tests/test_stages_extra.py). The binary decode is not
    SQL-expressible, but the per-page scored rows ARE data: they are
    WRITTEN to a derived parquet partition (``_lineage_write``) and the
    returned profile aggregates that file with the engine-standard
    scaled-int mean — the paired DuckDB entry re-reads the SAME file, a
    rows+schema+hash check of serialization and determinism, not a
    recomputation."""
    from ..functions.accuracy import char_accuracy
    from ..sources.degrade import DEGRADATION_OPS, degrade_page

    corpus = _span_corpus(sf_dir)
    ops = ["none"] + sorted(DEGRADATION_OPS)
    base = rd.read_parquet(
        f"{corpus}/media",
        columns=["media_ref", "media_kind", "payload", "truth_lines"]) \
        .filter(expr="media_kind == 'page_png'") \
        .limit(sample_n)

    # the op is DATA, not control flow: each page explodes into one row
    # per bank op, so the whole 16-op profile is ONE streamed execution
    # (16 sequential Dataset runs measured 6× slower — each paid the
    # executor's fixed floor)
    def explode_ops(batch: pa.Table) -> pa.Table:
        out_op, out_ref, out_payload, out_truth = [], [], [], []
        for ref, payload, truth in zip(batch["media_ref"].to_pylist(),
                                       batch["payload"].to_pylist(),
                                       batch["truth_lines"].to_pylist()):
            for op in ops:
                out_op.append(op)
                out_ref.append(ref)
                out_payload.append(
                    payload if op == "none"
                    else degrade_page(payload, op, "medium"))
                out_truth.append(truth)
        return pa.table({
            "op": pa.array(out_op, type=pa.string()),
            "media_ref": pa.array(out_ref, type=pa.string()),
            "payload": pa.array(out_payload, type=pa.binary()),
            "truth_lines": pa.array(out_truth),
        })

    def score(batch: pa.Table) -> pa.Table:
        from ..functions.charfix import fix_text
        from ..functions.geometry import truth_reading_order
        from ..stages.ocr import ocr_page_cascade

        out_op, out_ref, accs, confs = [], [], [], []
        for op, ref, payload, truth in zip(batch["op"].to_pylist(),
                                           batch["media_ref"].to_pylist(),
                                           batch["payload"].to_pylist(),
                                           batch["truth_lines"].to_pylist()):
            text, conf, _st, _casc = ocr_page_cascade(payload)
            if not truth:
                continue
            truth_text = fix_text("\n".join(truth_reading_order(truth)))
            out_op.append(op)
            out_ref.append(ref)
            accs.append(char_accuracy(truth_text, text))
            confs.append(conf)
        return pa.table({"op": pa.array(out_op, type=pa.string()),
                         "media_ref": pa.array(out_ref, type=pa.string()),
                         "acc": pa.array(accs, type=pa.float64()),
                         "conf": pa.array(confs, type=pa.float64())})

    scored = base \
        .map_batches(explode_ops, batch_size=32, batch_format="pyarrow") \
        .map_batches(multimodal.preprocess_media, batch_size=128,
                     batch_format="pyarrow") \
        .map_batches(score, batch_format="pyarrow")
    lineage = _lineage_write(
        scored, f"{corpus}/degradation_bank_lineage").to_pandas()
    # driver merge bounded by |ops| × sample_n scored rows (tiny).
    # Scaled-int means (floor(x*1e6+0.5) per row, exact int64 sum,
    # fixed division order) — bit-identical to the DuckDB oracle over
    # the same lineage file (see pipelines/relational.py float policy).
    import numpy as np

    lineage["acc_i"] = np.floor(
        lineage["acc"].to_numpy() * 1e6 + 0.5).astype("int64")
    lineage["conf_i"] = np.floor(
        lineage["conf"].to_numpy() * 1e6 + 0.5).astype("int64")
    out = lineage.groupby("op", as_index=False).agg(
        n_pages=("acc_i", "size"), acc_s=("acc_i", "sum"),
        conf_s=("conf_i", "sum"))
    out["mean_char_acc"] = (out["acc_s"] / 1e6) / out["n_pages"]
    out["mean_conf"] = (out["conf_s"] / 1e6) / out["n_pages"]
    out["n_pages"] = out["n_pages"].astype("int64")
    return out.sort_values("op").reset_index(drop=True)[
        ["op", "n_pages", "mean_char_acc", "mean_conf"]]


def tensorize_profile(sf_dir: str, sample_n: int = 256) -> pd.DataFrame:
    """P10 det/rec/angle tensorizer dataflow over raster pages
    (stages/tensorize.py — reference ImagePreprocessor,
    pytorch_mobile/ocr_pipeline.py:350-444). The model-input tensors
    are produced, crc-fingerprinted and dropped inside each task —
    only the narrow per-page profile row leaves the task (an 11 MB
    det tensor must never enter the object store as a column). The
    profile is WRITTEN to a derived parquet partition
    (``_lineage_write``) and the DuckDB entry re-reads the same file,
    a rows+schema+hash check of serialization and determinism, not
    of the tensors; the tensorizer kernels themselves are exactly
    gated in tests/test_tensorize.py."""
    from ..stages.tensorize import tensorize_media

    corpus = _span_corpus(sf_dir)
    base = rd.read_parquet(f"{corpus}/media",
                           columns=["media_ref", "media_kind", "payload"]) \
        .filter(expr="media_kind == 'page_raster'") \
        .limit(sample_n)
    profile = base.map_batches(tensorize_media, batch_size=16,
                               batch_format="pyarrow")
    out = _lineage_write(
        profile, f"{corpus}/tensorize_lineage").to_pandas()
    return out.sort_values("media_ref").reset_index(drop=True)


def frame_samples(sf_dir: str) -> pd.DataFrame:
    """``frame_sample`` explode (1 media row → k frame rows), sorted
    output."""
    corpus = _span_corpus(sf_dir)
    media = rd.read_parquet(f"{corpus}/media",
                            columns=["media_ref", "payload"])
    out = media.map_batches(multimodal.frame_sample, batch_size=128,
                            batch_format="pyarrow").to_pandas()
    return out.sort_values(["media_ref", "frame_index"]).reset_index(drop=True)


def ensemble_vote_merge(sf_dir: str) -> pd.DataFrame:
    """The REAL engine stack's per-line readings (stages.ocr
    ``engine_readings`` — exactly what OcrStage votes on at 300 DPI)
    exploded to a (doc_id, engine, text, conf, bbox) token table and
    merged by the generic J2/J3 ``ensemble_merge`` stage. The merged
    line text equals the flagship ``read_line`` winner for every line
    (asserted exactly in tests/test_modelops.py)."""
    from ..stages import media_stub
    from ..stages.ocr import engine_readings

    corpus = _span_corpus(sf_dir)
    media = rd.read_parquet(f"{corpus}/media",
                            columns=["media_ref", "payload"])

    def explode_engines(t: pa.Table) -> pa.Table:
        rows = {"doc_id": [], "engine": [], "text": [], "conf": [],
                "x1": [], "y1": [], "x2": [], "y2": []}
        for ref, payload in zip(t["media_ref"].to_pylist(),
                                t["payload"].to_pylist()):
            if media_stub.classify_payload(payload) != "page":
                continue
            for text, x, y in media_stub.decode_page(payload)[:5]:
                w = 8 * max(1, len(text))
                for eng, variant, conf in engine_readings(text, 300):
                    rows["doc_id"].append(ref)
                    rows["engine"].append(eng)
                    rows["text"].append(variant)
                    rows["conf"].append(conf)
                    rows["x1"].append(float(x))
                    rows["y1"].append(float(y))
                    rows["x2"].append(float(x + w))
                    rows["y2"].append(float(y + 20))
        return pa.table(rows)

    tokens = media.map_batches(explode_engines, batch_format="pyarrow",
                               batch_size=128)
    merged = ensemble_merge(tokens, n_engines=3).to_pandas()
    return merged.sort_values(["doc_id", "y1", "x1"]).reset_index(drop=True)


def calibration_thresholds(sf_dir: str) -> pd.DataFrame:
    """Fit per-engine isotonic calibration on seeded samples, invert for
    the reference's target accuracies (0.97/0.85/0.70)."""
    rng = np.random.RandomState(42)
    rows = []
    for engine, skill in [("paddle", 1.0), ("tesseract", 0.8), ("easy", 0.6)]:
        raw = rng.rand(500)
        correct = (rng.rand(500) < np.clip(raw * skill + 0.05, 0, 1)).astype(float)
        kx, ky = calibration.fit_isotonic(raw, correct)
        for target in (0.97, 0.85, 0.70):
            thr = calibration.threshold_for_accuracy(kx, ky, target)
            rows.append({"engine": engine, "target_accuracy": target,
                         "raw_threshold": round(thr, 4) if thr is not None else None})
    return pd.DataFrame(rows)


def pixel_restore_bank(sf_dir: str, sample_n: int = 96) -> pd.DataFrame:
    """P5-P8: REAL pixel-domain restoration kernels (stages/pixels.py)
    over rendered page bitmaps, profiled as a bank.

    Every sampled page's truth lines are rendered (reading order via
    XY-cut) to a genuine grayscale bitmap, then each of 4 pixel
    degradations (+ the clean baseline) is applied, statistics-routed
    to its restore kernel, and template-read back:

    - ``low_contrast`` -> equalize + Otsu binarize (P5/P7a; reference
      pipeline.py:633-644 cv2 OTSU),
    - ``noise``        -> 2x bilateral + binarize (P6; reference
      adaptive_ocr_pipeline.py:425-431 bilateralFilter),
    - ``blur``         -> 3x3 unsharp + binarize (P7; reference
      adaptive_ocr_pipeline.py:433-437 filter2D sharpen),
    - ``breaks``       -> binarize + 3x3 morphological close (P8;
      reference adaptive_ocr_pipeline.py:438-441 MORPH_CLOSE).

    Output: one row per (op, routed strategy) with page counts and
    three read outcomes — fixed-128-threshold read (no P5), Otsu-only
    read (P5, no P6-P8), and the routed restore read — so the profile
    shows each kernel's necessity AND sufficiency. Deterministic
    (seeded per media_ref x op). The per-(page, op) outcome rows are
    WRITTEN to a derived parquet partition (``_lineage_write``) and
    the returned profile is aggregated FROM that file — the paired
    DuckDB entry runs the same GROUP BY over the same file, which
    checks serialization and determinism of the aggregation, not the
    reads (the bitmap kernels themselves are gated exactly in
    tests/test_pixels.py).

    The op is data (each page explodes into 5 rows inside the batch
    fn), so the whole profile is ONE streamed execution; only narrow
    count rows leave the workers.
    """
    import zlib

    from ..functions.geometry import truth_reading_order
    from ..stages import pixels as px

    corpus = _span_corpus(sf_dir)
    ops = ["none", "low_contrast", "noise", "blur", "breaks"]
    base = rd.read_parquet(
        f"{corpus}/media", columns=["media_ref", "media_kind",
                                    "truth_lines"]) \
        .filter(expr="media_kind == 'page_png'") \
        .limit(sample_n)

    def run_bank(batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for ref, truth in zip(batch["media_ref"].to_pylist(),
                              batch["truth_lines"].to_pylist()):
            if not truth:
                continue
            lines = truth_reading_order(truth)
            expect = [ln.rstrip() for ln in lines]
            img = px.render_lines(lines)
            for op in ops:
                seed = zlib.crc32(f"{ref}:{op}".encode())
                if op == "none":
                    d = img
                elif op == "low_contrast":
                    d = px.degrade_low_contrast(img)
                elif op == "noise":
                    d = px.degrade_noise(img, seed)
                elif op == "blur":
                    d = px.degrade_blur(img)
                else:
                    d = px.degrade_stroke_breaks(img, seed)
                recovered, strategy = px.restore_and_read(d)
                rows.append({
                    "media_ref": ref,
                    "op": op,
                    "strategy": strategy,
                    "fixed128_ok": int(px.read_lines(
                        px.binarize(d, threshold=128)) == expect),
                    "otsu_only_ok": int(px.read_lines(
                        px.binarize(d)) == expect),
                    "restored_ok": int(recovered == expect),
                })
        df = pd.DataFrame(rows, columns=["media_ref", "op", "strategy",
                                         "fixed128_ok", "otsu_only_ok",
                                         "restored_ok"])
        return pa.Table.from_pandas(df, preserve_index=False) \
            .replace_schema_metadata()

    lineage = _lineage_write(
        base.map_batches(run_bank, batch_size=16, batch_format="pyarrow"),
        f"{corpus}/pixel_bank_lineage")

    # cardinality: |ops| x |strategies| <= 25 — bounded, partial_merge-safe
    oks = ("fixed128_ok", "otsu_only_ok", "restored_ok")
    out = partial_merge(lineage, lambda t: t, keys=["op", "strategy"],
                        spec={"n_pages": ("media_ref", "count"),
                              **{c: (c, "sum") for c in oks}})
    return out.sort_values(["op", "strategy"]).reset_index(drop=True)


def pixel_tiled_restore(sf_dir: str) -> pd.DataFrame:
    """P9: the patch-tiled overlap-blend denoise dataflow (reference
    jax_denoising_adapter.py:237-348) run as a REAL Ray pipeline over
    corpus pages — the explode → per-patch kernel → regroup+blend
    shape that makes huge pages parallel patch rows:

    1. each sampled page renders, takes seeded sigma-90 sensor noise,
       and EXPLODES into overlapping 48px patch rows
       (``tiling.explode_patches``) inside the scan task;
    2. a stateless ``map_batches`` stage runs the per-patch model
       (2-pass bilateral, the P6 kernel) on every patch row — the seam
       where the reference's learned U-Net would run, torch/JAX-blocked
       here but dataflow-identical;
    3. ``groupby(media_ref)`` regroups one page's patches and blends
       them under the linear-ramp weight mask
       (``tiling.blend_patches``), then binarizes and template-reads
       the page back.

    Per-page outcome rows (patch count, Otsu-only read vs tiled-restore
    read) are written via ``_lineage_write`` and the DuckDB entry
    re-reads the same derived file, a serialization and determinism
    check only.
    Seam correctness and blend math are gated in tests/test_tiling.py;
    the end-to-end Ray path is gated in tests/test_modelops.py.
    """
    import zlib

    from ..functions.geometry import truth_reading_order
    from ..stages import pixels as px
    from ..stages import tiling as tl

    corpus = _span_corpus(sf_dir)
    base = rd.read_parquet(
        f"{corpus}/media", columns=["media_ref", "media_kind",
                                    "truth_lines"]) \
        .filter(expr="media_kind == 'page_png'") \
        .limit(12)

    def explode(batch: pa.Table) -> pa.Table:
        refs, expects, naive, py, pxs, hh, ww, tiles = \
            [], [], [], [], [], [], [], []
        for ref, truth in zip(batch["media_ref"].to_pylist(),
                              batch["truth_lines"].to_pylist()):
            if not truth:
                continue
            lines = truth_reading_order(truth)
            expect = [ln.rstrip() for ln in lines]
            img = px.render_lines(lines)
            noisy = px.degrade_noise(img, zlib.crc32(ref.encode()))
            naive_ok = int(px.read_lines(px.binarize(noisy)) == expect)
            for p in tl.explode_patches(noisy):
                refs.append(ref)
                expects.append("\n".join(expect))
                naive.append(naive_ok)
                py.append(p["py"])
                pxs.append(p["px"])
                hh.append(p["h"])
                ww.append(p["w"])
                tiles.append(p["tile"])
        return pa.table({
            "media_ref": pa.array(refs, type=pa.string()),
            "expect": pa.array(expects, type=pa.string()),
            "otsu_only_ok": pa.array(naive, type=pa.int64()),
            "py": pa.array(py, type=pa.int64()),
            "px": pa.array(pxs, type=pa.int64()),
            "h": pa.array(hh, type=pa.int64()),
            "w": pa.array(ww, type=pa.int64()),
            "tile": pa.array([t.tolist() for t in tiles],
                             type=pa.list_(pa.uint8())),
        })

    def denoise_patch(batch: pa.Table) -> pa.Table:
        out = []
        for t in batch["tile"].to_pylist():
            tile = np.asarray(t, dtype=np.uint8) \
                .reshape(tl.PATCH, tl.PATCH)
            out.append(px.bilateral(px.bilateral(tile)).ravel().tolist())
        return batch.set_column(batch.column_names.index("tile"), "tile",
                                pa.array(out, type=pa.list_(pa.uint8())))

    def regroup(g: pd.DataFrame) -> pd.DataFrame:
        page = tl.blend_patches(g.to_dict("records"))
        restored = px.read_lines(px.binarize(page))
        expect = g["expect"].iloc[0].split("\n")
        return pd.DataFrame({
            "media_ref": [g["media_ref"].iloc[0]],
            "n_patches": pd.Series([len(g)], dtype="int64"),
            "otsu_only_ok": pd.Series([int(g["otsu_only_ok"].iloc[0])],
                                      dtype="int64"),
            "tiled_restored_ok": pd.Series([int(restored == expect)],
                                           dtype="int64")})

    profile = base.map_batches(explode, batch_format="pyarrow",
                               batch_size=4) \
        .map_batches(denoise_patch, batch_format="pyarrow",
                     batch_size=64) \
        .groupby("media_ref").map_groups(regroup, batch_format="pandas")
    out = _lineage_write(profile, f"{corpus}/pixel_tiled_lineage") \
        .to_pandas()
    for c in ("n_patches", "otsu_only_ok", "tiled_restored_ok"):
        out[c] = out[c].astype("int64")
    return out.sort_values("media_ref").reset_index(drop=True)
