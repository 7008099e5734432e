"""North-rule gate: engine span sequences == oracle golden spans,
exactly, on (kind, text, media_ref, order) — plus conf/status/cascade/
calibration parity. Both payload-resolution paths with and without
the isotonic calibrator active, the doc-local path with it, and the
doc-local path re-run in one session over different lookups."""

from __future__ import annotations

import pandas as pd
import pytest
import ray.data as rd

from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                extract_spans,
                                                extract_spans_hybrid,
                                                fit_page_calibrator)
from tests.oracle.golden import golden_calibrator, golden_spans

N_DOCS, SEED, SKEW = 60, 42, 120


@pytest.fixture(scope="module")
def golden_df():
    df = pd.DataFrame(golden_spans(SEED, N_DOCS, SKEW))
    return df.sort_values(["doc_id", "order"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def calib(small_corpus):
    c = fit_page_calibrator(f"{small_corpus}/media", sample_n=512)
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


def test_broadcast_path_matches_golden(small_corpus, golden_df):
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    out = extract_spans(docs, media_lookup_ref=ref).to_pandas()
    _assert_matches_golden(out, golden_df)


def test_join_path_matches_golden(small_corpus, golden_df):
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    media = rd.read_parquet(f"{small_corpus}/media")
    out = extract_spans(docs, media_ds=media, join_partitions=8).to_pandas()
    _assert_matches_golden(out, golden_df)


def test_broadcast_path_with_calibration(small_corpus, calib, golden_calib_df):
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    out = extract_spans(docs, media_lookup_ref=ref, calib=calib).to_pandas()
    _assert_matches_golden(out, golden_calib_df)


def test_doclocal_path_with_calibration(small_corpus, calib,
                                       golden_calib_df):
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    out = extract_spans_hybrid(docs, media_lookup_ref=ref, calib=calib,
                               skew_tail="never").to_pandas()
    _assert_matches_golden(out, golden_calib_df)


def test_warm_reader_rekeys_across_datasets(small_corpus, tmp_path,
                                           golden_df, calib,
                                           golden_calib_df):
    """Pooled workers outlive a Dataset and keep their warm PageReader:
    a later run with another lookup, or with a calibrator, must not be
    served by the reader an earlier run left on the same process."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    other, other_seed, other_n = str(tmp_path / "other"), 7, 24
    write_corpus(other, n_docs=other_n, seed=other_seed, skew_upper=SKEW,
                 num_files=2)
    other_gold = pd.DataFrame(golden_spans(other_seed, other_n, SKEW))

    def run(corpus, c=None):
        docs = rd.read_parquet(f"{corpus}/documents_spans")
        ref = build_media_lookup(f"{corpus}/media")
        return extract_spans_hybrid(docs, media_lookup_ref=ref, calib=c,
                                    skew_tail="never").to_pandas()

    _assert_matches_golden(run(small_corpus), golden_df)
    _assert_matches_golden(run(other), other_gold)
    _assert_matches_golden(run(small_corpus, calib), golden_calib_df)


def test_cascade_is_a_real_redecode(golden_df):
    """Enhanced rows must exist and their text must be able to differ
    from the 300-DPI decode (the retry is not a confidence bump)."""
    from ocr_pipeline_ray.stages.ocr import ocr_page, ocr_page_cascade
    from ocr_pipeline_ray.sources.synth import gen_doc

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
