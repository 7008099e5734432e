"""Hybrid (doc-local + skew-tail shuffle) path must equal the exploded
path byte-for-byte, including when the skew tail is non-empty."""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                extract_spans,
                                                extract_spans_hybrid)


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["doc_id", "order"]).reset_index(drop=True)
    return df[["doc_id", "order", "kind", "text", "media_ref", "conf",
               "conf_calibrated", "status", "cascade"]]


def test_hybrid_equals_exploded(small_corpus):
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    a = _norm(extract_spans(docs, media_lookup_ref=ref).to_pandas())
    b = _norm(extract_spans_hybrid(docs, media_lookup_ref=ref).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_hybrid_with_forced_skew_tail(small_corpus):
    # low threshold → many docs take the exploded+shuffle branch
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    a = _norm(extract_spans(docs, media_lookup_ref=ref).to_pandas())
    b = _norm(extract_spans_hybrid(docs, media_lookup_ref=ref,
                                   skew_threshold=10).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_operator_names_keep_the_stage_classes(small_corpus):
    """Ray Data names a callable-object operator after its class; the
    benchmark's op.doclocal.* and op.ocr_pool.* layers are keyed on
    these names and would silently read 0 without them."""
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    ref = build_media_lookup(f"{small_corpus}/media")
    hybrid = extract_spans_hybrid(docs, media_lookup_ref=ref).materialize()
    assert "DocLocalExtract" in hybrid.stats()
    exploded = extract_spans(docs, media_lookup_ref=ref).materialize()
    assert "OcrStage" in exploded.stats()
