"""North-rule gate: engine span sequences == oracle golden spans,
exactly, on (kind, text, media_ref, order) — plus conf/status/cascade/
calibration parity. The doc-local plan with and without the isotonic
calibrator active, the zone-map plan with its exploded tail forced
(calibrated), the join plan, and the doc-local plan re-run in one
session over different zone maps."""

from __future__ import annotations

import dataclasses
import glob

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines import extract
from ocr_pipeline_ray.pipelines.extract import (extract_spans,
                                                fit_page_calibrator, plan_job)
from tests.oracle.golden import golden_calibrator, golden_spans

N_DOCS, SEED, SKEW = 60, 42, 120


@pytest.fixture(scope="module")
def golden_df():
    df = pd.DataFrame(golden_spans(SEED, N_DOCS, SKEW))
    return df.sort_values(["doc_id", "order"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def calib(small_corpus):
    c = fit_page_calibrator(f"{small_corpus}/media")
    assert c is not None
    return c


@pytest.fixture(scope="module")
def golden_calib_df(calib):
    # the oracle constructs its calibration sample independently — it
    # must equal the engine's fit bit-for-bit before the spans compare
    oc = golden_calibrator(SEED, N_DOCS, SKEW, sample_n=512)
    assert oc is not None
    assert oc[0] == calib[0] and oc[1] == calib[1]
    df = pd.DataFrame(golden_spans(SEED, N_DOCS, SKEW, calib=oc))
    return df.sort_values(["doc_id", "order"]).reset_index(drop=True)


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["doc_id", "order"]).reset_index(drop=True)
    df["order"] = df["order"].astype("int64")
    return df


def _assert_matches_golden(out_df: pd.DataFrame, golden_df: pd.DataFrame):
    out = _normalize(out_df)
    gold = _normalize(golden_df)
    assert len(out) == len(gold)
    for col in ["doc_id", "order", "kind", "text", "media_ref", "status",
                "cascade"]:
        pd.testing.assert_series_equal(out[col], gold[col], check_names=False)
    assert (out["conf"] - gold["conf"]).abs().max() < 1e-9
    assert (out["conf_calibrated"] - gold["conf_calibrated"]).abs().max() < 1e-9


def _plan(corpus: str):
    return plan_job(f"{corpus}/documents_spans", f"{corpus}/media")


def test_broadcast_path_matches_golden(small_corpus, golden_df):
    out = extract_spans(_plan(small_corpus)).to_pandas()
    _assert_matches_golden(out, golden_df)


def test_join_path_matches_golden(small_corpus, golden_df):
    plan = dataclasses.replace(
        _plan(small_corpus), media=rd.read_parquet(f"{small_corpus}/media"))
    out = extract_spans(plan).to_pandas()
    _assert_matches_golden(out, golden_df)


def test_broadcast_path_with_calibration(small_corpus, calib, golden_calib_df,
                                        monkeypatch):
    # every doc with a span takes the exploded + shuffle tail
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", 0)
    out = extract_spans(_plan(small_corpus), calib=calib).to_pandas()
    _assert_matches_golden(out, golden_calib_df)


def test_calibration_sample_blocks_carry_schema(small_corpus):
    """A sample that only some media files hold: every block of the
    calibrator's decode pass is a ``SAMPLE_SCHEMA`` table (a filtered
    read emits a schema-less zero-row block for each file or split
    without a sample row), and its rows are the sample pages."""
    media = f"{small_corpus}/media"
    files = sorted(glob.glob(f"{media}/*.parquet"))
    t = pq.read_table(files, columns=["media_ref", "media_kind"])
    pages = sorted(t.filter(pc.equal(t["media_kind"], "page_png"))
                   ["media_ref"].to_pylist())
    holders = [f for f in files if set(pages[:8]) & set(
        pq.read_table(f, columns=["media_ref"])["media_ref"].to_pylist())]
    assert 0 < len(holders) < len(files)

    blocks = ray.get(extract._calibration_sample(media, 8).to_arrow_refs())
    assert blocks
    assert all(b.schema == extract.SAMPLE_SCHEMA for b in blocks)
    refs = pa.concat_tables(blocks)["media_ref"].to_pylist()
    assert set(refs) <= set(pages[:8]) and len(refs) == len(set(refs))


def test_calibration_sample_is_the_global_first_pages(tmp_path):
    """Each media file keeps only its ``sample_n`` smallest page refs
    before the merge; the selection still equals a global sort's first
    ``sample_n`` page refs, on a corpus where one file alone holds more
    page refs than ``sample_n``."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    write_corpus(str(tmp_path), n_docs=40, seed=3, num_files=4)
    media = f"{tmp_path}/media"
    files = sorted(glob.glob(f"{media}/*.parquet"))
    per_file = {}
    for f in files:
        t = pq.read_table(f, columns=["media_ref", "media_kind"])
        per_file[f] = t.filter(pc.equal(t["media_kind"], "page_png")) \
            ["media_ref"].to_pylist()
    sample_n = min(len(refs) for refs in per_file.values()) - 1
    assert len(files) > 1 and sample_n > 0
    want = sorted(r for refs in per_file.values() for r in refs)[:sample_n]

    pairs = extract._sample_pages(media, sample_n)
    assert sorted(ref for _, ref in pairs) == want
    assert pairs == sorted((f, r) for f, refs in per_file.items()
                           for r in refs if r in set(want))


def test_doclocal_path_with_calibration(small_corpus, calib,
                                       golden_calib_df):
    out = extract_spans(_plan(small_corpus), calib=calib).to_pandas()
    _assert_matches_golden(out, golden_calib_df)


def test_warm_reader_rekeys_across_datasets(small_corpus, tmp_path,
                                           golden_df, calib,
                                           golden_calib_df):
    """Pooled workers outlive a Dataset: a later run with another zone
    map, or with a calibrator, must not be served anything an earlier
    run left on the same process."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    other, other_seed, other_n = str(tmp_path / "other"), 7, 24
    write_corpus(other, n_docs=other_n, seed=other_seed, skew_upper=SKEW,
                 num_files=2)
    other_gold = pd.DataFrame(golden_spans(other_seed, other_n, SKEW))

    def run(corpus, c=None):
        return extract_spans(_plan(corpus), calib=c).to_pandas()

    _assert_matches_golden(run(small_corpus), golden_df)
    _assert_matches_golden(run(other), other_gold)
    _assert_matches_golden(run(small_corpus, calib), golden_calib_df)


def test_cascade_is_a_real_redecode(golden_df):
    """Enhanced rows must exist and their text must be able to differ
    from the 300-DPI decode (the retry is not a confidence bump)."""
    from ocr_pipeline_ray.sources.synth import gen_doc
    from ocr_pipeline_ray.stages.ocr import ocr_page_cascade
    from tests.conftest import ocr_page

    enhanced = golden_df[golden_df["cascade"] == "enhanced"]
    assert len(enhanced) > 0, "no page ever took the enhanced branch"
    changed = 0
    payloads = {}
    for i in range(N_DOCS):
        _, media_rows = gen_doc(SEED, i, SKEW)
        payloads.update({m["media_ref"]: m["payload"] for m in media_rows})
    for _, row in enhanced.iterrows():
        t300, _, _ = ocr_page(payloads[row["media_ref"]], dpi=300)
        text, conf, st, casc = ocr_page_cascade(payloads[row["media_ref"]])
        assert casc == "enhanced" and text == row["text"]
        if text != t300:
            changed += 1
    assert changed > 0, "600-DPI retry never changed any page text"
