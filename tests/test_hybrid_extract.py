"""The skew plan of ``extract_spans``: doc-local only when the plan's
span bound is not over the skew threshold, doc-local + the exploded
shuffle tail otherwise; every plan equals the golden spans. Plus the
doc-local stage against the exploded chain, the tail plan and the join
plan on hand-built edge cases."""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines import extract
from ocr_pipeline_ray.pipelines.extract import (JobPlan, build_media_lookup,
                                                extract_spans,
                                                extract_spans_hybrid,
                                                plan_job)
from ocr_pipeline_ray.sources.synth import DOCS_SCHEMA
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages.classify import classify_spans
from ocr_pipeline_ray.stages.doclocal import DocLocalExtract
from ocr_pipeline_ray.stages.explode import explode_spans
from ocr_pipeline_ray.stages.ocr import OcrStage
from ocr_pipeline_ray.stages.reassemble import (OUT_SCHEMA, filter_keep,
                                                rank_spans)
from tests.conftest import media_lookup
from tests.oracle.golden import golden_spans
from tests.test_extract_golden import (N_DOCS, SEED, SKEW,
                                       _assert_matches_golden)


@pytest.fixture(scope="module")
def golden_df():
    return pd.DataFrame(golden_spans(SEED, N_DOCS, SKEW))


@pytest.fixture(scope="module")
def largest_doc(small_corpus):
    spans = pq.read_table(f"{small_corpus}/documents_spans",
                          columns=["spans"])["spans"]
    return max(len(s or ()) for s in spans.to_pylist())


def _run(corpus):
    """(output frame, executed operator stats) of one extraction."""
    ds = extract_spans(plan_job(f"{corpus}/documents_spans",
                                f"{corpus}/media")).materialize()
    return ds.to_pandas(), ds.stats()


def test_no_doc_over_threshold_builds_no_tail(small_corpus, golden_df,
                                              largest_doc):
    assert largest_doc <= extract.SKEW_THRESHOLD
    out, stats = _run(small_corpus)
    assert "DocLocalExtract" in stats and "_rank_bucket" not in stats
    _assert_matches_golden(out, golden_df)


def test_threshold_below_largest_doc_builds_tail(small_corpus, golden_df,
                                                 largest_doc, monkeypatch):
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", largest_doc - 1)
    out, stats = _run(small_corpus)
    assert "DocLocalExtract" in stats and "_rank_bucket" in stats
    _assert_matches_golden(out, golden_df)


def test_operator_names_keep_the_stage_classes(small_corpus, monkeypatch):
    """Ray Data names a callable-object operator after its class; the
    benchmark's op.doclocal.* and op.ocr_pool.* layers are keyed on
    these names and would silently read 0 without them."""
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", 0)
    _, stats = _run(small_corpus)
    for name in ("DocLocalExtract", "explode_spans", "classify_spans",
                 "OcrStage", "filter_keep", "_rank_bucket"):
        assert name in stats, name


def test_benchmark_alias_keeps_its_plans(tmp_path, golden_df, monkeypatch):
    """The benchmark harness calls ``extract_spans_hybrid`` with
    ``skew_tail="never"`` (no tail) and ``skew_threshold=96,
    skew_tail="auto"`` (a tail at 96, built unconditionally), and
    passes ``ocr_concurrency``, which is ignored: the doc-local stage
    fuses with its read. The corpus has 8 files, enough for the 4-CPU
    session that Ray splits no read block (a ``SplitBlocks`` after the
    read would stop the fusion on its own)."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    write_corpus(str(tmp_path), n_docs=N_DOCS, seed=SEED, skew_upper=SKEW,
                 num_files=8)
    plans = []
    real = extract._doc_local

    def spy(docs, zones, **kw):
        plans.append((kw["threshold"], kw["tail"]))
        return real(docs, zones, **kw)
    monkeypatch.setattr(extract, "_doc_local", spy)
    docs = rd.read_parquet(f"{tmp_path}/documents_spans")
    zones = build_media_lookup(f"{tmp_path}/media")
    for kw, has_tail in (({"skew_tail": "never"}, False),
                         ({"skew_threshold": 96, "skew_tail": "auto"}, True)):
        ds = extract_spans_hybrid(docs, media_lookup_ref=zones,
                                  ocr_concurrency=2, **kw).materialize()
        assert re.search(r"ReadParquet->[^:\n]*MapBatches\(DocLocalExtract\)",
                         ds.stats()), ds.stats()
        assert ("_rank_bucket" in ds.stats()) == has_tail
        _assert_matches_golden(ds.to_pandas(), golden_df)
    assert plans == [(extract.SKEW_THRESHOLD, False), (96, True)]


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
    "null_spans_beside_a_tail_doc": ([("d1", None),
                                      ("d2", [_text(1, _BODY),
                                              _media(0, "m-digital")])],
                                     [("d2", 0, "media", "m-digital"),
                                      ("d2", 1, "text", _BODY)]),
    "empty_output": ([("d1", None), ("d2", []),
                      ("d3", [_text(0, "Home"), _media(1, "m-blank"),
                              _media(2, "m-gone")])],
                     []),
}


@pytest.fixture(scope="module")
def edge_media(tmp_path_factory):
    """(media dir, zone map) of ``_MEDIA``."""
    media_dir = tmp_path_factory.mktemp("edge_media")
    return str(media_dir), media_lookup(media_dir, _MEDIA)


def _edge_batch(case: str) -> pa.Table:
    return pa.Table.from_pylist([{"doc_id": d, "spans": s}
                                 for d, s in _EDGE_CASES[case][0]],
                                schema=DOCS_SCHEMA)


def _keyed(rows) -> list[tuple]:
    """(doc_id, order, kind, text for text rows / media_ref for media
    rows) of each span row."""
    return [(r["doc_id"], r["order"], r["kind"],
             r["text"] if r["kind"] == "text" else r["media_ref"])
            for r in rows]


def _in_order(ds) -> list[dict]:
    return sorted(ds.take_all(), key=lambda r: (r["doc_id"], r["order"]))


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_doclocal_equals_exploded_chain(case, edge_media):
    zones = edge_media[1]
    batch = _edge_batch(case)
    out = DocLocalExtract(zones)(batch)

    chain = OcrStage(zones)(classify_spans(explode_spans(batch)))
    ranked = rank_spans(filter_keep(chain))
    assert out.schema == OUT_SCHEMA
    assert out.to_pylist() == ranked.to_pylist()
    assert _keyed(out.to_pylist()) == _EDGE_CASES[case][1]


def test_explode_ignores_the_chunk_layout():
    """A ``spans`` column of zero chunks, or one split into two chunks,
    explodes to the rows of the same column in one chunk."""
    zero = pa.Table.from_batches([], DOCS_SCHEMA)
    assert zero["spans"].num_chunks == 0
    assert explode_spans(zero).equals(
        explode_spans(DOCS_SCHEMA.empty_table()))

    docs = [doc for case in _EDGE_CASES.values() for doc in case[0]]
    one = pa.Table.from_pylist([{"doc_id": d, "spans": s} for d, s in docs],
                               schema=DOCS_SCHEMA)
    cut = one.num_rows // 2
    two = pa.concat_tables([one.slice(0, cut), one.slice(cut)])
    assert two["spans"].num_chunks == 2 and one["spans"].num_chunks == 1
    want = explode_spans(one)
    assert want.num_rows > 0
    assert explode_spans(two).equals(want)


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_tail_plan_on_edge_cases(case, edge_media, monkeypatch):
    """The same cases through ``extract_spans`` with the tail forced:
    documents of one span or none run doc-local, the rest in the tail;
    a null-``spans`` document is in neither and yields no rows."""
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", 1)
    # a hand-sized plan: its span bound is over the threshold
    ds = extract_spans(JobPlan(docs=rd.from_arrow(_edge_batch(case)),
                               media=edge_media[1],
                               max_spans=extract.SKEW_THRESHOLD + 1)
                       ).materialize()
    assert "_rank_bucket" in ds.stats()
    assert _keyed(_in_order(ds)) == _EDGE_CASES[case][1]


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_join_plan_on_edge_cases(case, edge_media):
    """The same cases through the join plan (a media Dataset): it
    decodes the media table and finishes the joined rows with the same
    ``apply_media_text`` as the zone-map plan, so both agree on null
    spans, missing media, blank/corrupt pages and offset order."""
    docs = _EDGE_CASES[case][0]
    ds = extract_spans(JobPlan(
        docs=rd.from_arrow(_edge_batch(case)),
        media=rd.read_parquet(edge_media[0], columns=extract.MEDIA_COLUMNS),
        max_spans=max(len(s or ()) for _d, s in docs))).materialize()
    assert "MediaDecodeStage" in ds.stats()
    assert _keyed(_in_order(ds)) == _EDGE_CASES[case][1]


def test_join_plan_when_the_first_block_has_no_media(edge_media):
    """Ray's hash shuffle drops a zero-row block and sends a side's
    columns to every join partition only with that side's first block:
    unguarded, a first documents block without a media span leaves the
    partitions no media row reaches without the span columns, and their
    join fails."""
    first, second = (pa.Table.from_pylist([{"doc_id": d, "spans": [s]}],
                                          schema=DOCS_SCHEMA)
                     for d, s in (("d1", _text(0, _BODY)),
                                  ("d2", _media(0, "m-page"))))
    ds = extract_spans(JobPlan(
        docs=rd.from_arrow([first, second]),
        media=rd.read_parquet(edge_media[0], columns=extract.MEDIA_COLUMNS),
        max_spans=1))
    assert _keyed(_in_order(ds)) == [("d1", 0, "text", _BODY),
                                     ("d2", 0, "media", "m-page")]
