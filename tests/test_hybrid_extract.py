"""Hybrid (doc-local + skew-tail shuffle) path must equal the exploded
path byte-for-byte, including when the skew tail is non-empty."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                extract_spans,
                                                extract_spans_hybrid)
from ocr_pipeline_ray.sources.synth import DOCS_SCHEMA
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages.classify import classify_spans
from ocr_pipeline_ray.stages.doclocal import DocLocalExtract
from ocr_pipeline_ray.stages.explode import explode_spans
from ocr_pipeline_ray.stages.ocr import OcrStage
from ocr_pipeline_ray.stages.reassemble import (OUT_SCHEMA, _rank_bucket,
                                                filter_keep)


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


# --- doc-local stage == the exploded chain, on hand-built edge cases ---

_MEDIA = {
    "m-page": media_stub.encode_page([("Total due 42 EUR", 0, 0)], 7),
    "m-digital": media_stub.encode_digital("Meter reading 1234"),
    "m-blank": media_stub.encode_blank(3),
    "m-corrupt": media_stub.encode_corrupt(5),
}
_BODY = "Quarterly statement for the account holder"


def _text(offset, text):
    return {"kind": "text", "text": text, "media_ref": "", "offset": offset}


def _media(offset, ref):
    return {"kind": "media", "text": "", "media_ref": ref, "offset": offset}


# case → (documents as (doc_id, spans), expected (doc_id, order, kind,
# text for text rows / media_ref for media rows))
_EDGE_CASES = {
    "null_spans": ([("d1", None), ("d2", [_text(0, _BODY)])],
                   [("d2", 0, "text", _BODY)]),
    "empty_spans": ([("d1", []), ("d2", [_media(0, "m-digital")])],
                    [("d2", 0, "media", "m-digital")]),
    "all_boilerplate": ([("d1", [_text(0, "Home"),
                                 _text(1, '<a href="/x">Sign in now</a>')]),
                         ("d2", [_text(0, _BODY)])],
                        [("d2", 0, "text", _BODY)]),
    "null_text": ([("d1", [_text(0, None), _text(1, _BODY)])],
                  [("d1", 0, "text", _BODY)]),
    "missing_media": ([("d1", [_media(0, "m-gone"), _media(1, "m-page")])],
                      [("d1", 0, "media", "m-page")]),
    "blank_and_corrupt_pages": ([("d1", [_media(0, "m-blank"),
                                         _media(1, "m-corrupt"),
                                         _media(2, "m-digital")])],
                                [("d1", 0, "media", "m-digital")]),
    "out_of_offset_order": ([("d1", [_media(2, "m-page"), _text(0, _BODY),
                                     _media(1, "m-digital")])],
                            [("d1", 0, "text", _BODY),
                             ("d1", 1, "media", "m-digital"),
                             ("d1", 2, "media", "m-page")]),
    "empty_output": ([("d1", None), ("d2", []),
                      ("d3", [_text(0, "Home"), _media(1, "m-blank"),
                              _media(2, "m-gone")])],
                     []),
}


@pytest.fixture(scope="module")
def edge_lookup_ref():
    return ray.put(pa.table({
        "media_ref": pa.array(list(_MEDIA), type=pa.string()),
        "payload": pa.array(list(_MEDIA.values()), type=pa.binary())}))


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_doclocal_equals_exploded_chain(case, edge_lookup_ref):
    docs, want = _EDGE_CASES[case]
    batch = pa.Table.from_pylist([{"doc_id": d, "spans": s} for d, s in docs],
                                 schema=DOCS_SCHEMA)
    out = DocLocalExtract(media_lookup_ref=edge_lookup_ref)(batch)

    chain = OcrStage(media_lookup_ref=edge_lookup_ref)(
        classify_spans(explode_spans(batch)))
    ranked = _rank_bucket(filter_keep(chain).to_pandas())
    assert out.schema == OUT_SCHEMA
    assert out.to_pylist() == ranked.to_dict("records")
    assert [(r["doc_id"], r["order"], r["kind"],
             r["text"] if r["kind"] == "text" else r["media_ref"])
            for r in out.to_pylist()] == want
