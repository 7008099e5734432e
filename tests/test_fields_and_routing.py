"""Field extraction per doc (A4/F12)."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines.extract import (FIELDS_SCHEMA,
                                                extract_fields_per_doc,
                                                extract_spans, plan_job)


def _spans(corpus: str):
    return extract_spans(plan_job(f"{corpus}/documents_spans",
                                  f"{corpus}/media"))


@pytest.fixture(scope="module")
def fields_df(small_corpus):
    spans = _spans(small_corpus)
    return extract_fields_per_doc(spans).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)


def test_fields_schema_and_validity(fields_df):
    assert {"electricity_kwh", "carbon_kgco2e", "conf_electricity",
            "conf_carbon", "status", "doc_digest"} <= set(fields_df.columns)
    assert len(fields_df) == 60  # one row per doc
    # extracted values respect the generator's ranges (F9 validity)
    kwh = fields_df["electricity_kwh"].dropna()
    assert len(kwh) > 0
    # statuses from the F9 validator vocabulary
    assert set(fields_df["status"]) <= {"success", "partial", "failed"}
    # field confidences: 0 when absent, (0, 0.99] when present
    present = fields_df["electricity_kwh"].notna()
    assert (fields_df.loc[present, "conf_electricity"] > 0).all()
    assert (fields_df.loc[present, "conf_electricity"] <= 0.99).all()
    assert (fields_df.loc[~present, "conf_electricity"] == 0).all()


def test_aux_fields_present_in_corpus(fields_df):
    """F7 completion: the generator emits billing period / readings /
    peak demand / water lines, and the extractors find them."""
    for col in ("water_m3", "billing_start", "billing_end",
                "current_reading", "previous_reading", "peak_demand_kw"):
        assert col in fields_df.columns
        assert fields_df[col].notna().sum() > 0, f"{col} never extracted"


def test_absent_field_keeps_declared_type():
    """A field no document has keeps its declared type in every bucket's
    block: float64 with nulls, not an all-None column whose type
    depends on which rows shared the bucket."""
    ids = [f"doc-{i:02d}" for i in range(12) for _ in range(2)]
    spans = pa.table({
        "doc_id": ids,
        "order": [0, 1] * 12,
        "text": ["Account No: 12345678",
                 "Electricity consumption 1205 kWh"] * 12,
        "conf": [0.97] * 24,
    })
    out = extract_fields_per_doc(rd.from_arrow(spans)).materialize()
    blocks = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
    for t in blocks:
        assert t.schema.field("water_m3").type == pa.float64()
        assert t.schema == FIELDS_SCHEMA
    t = pa.concat_tables(blocks)
    assert t.num_rows == 12
    assert t["water_m3"].null_count == 12
    assert t["electricity_kwh"].to_pylist() == [1205.0] * 12


def test_kie_and_correction_loop_recover_degraded_fields():
    """F10/F11: fields the regex bank alone misses are recovered by the
    contextual scorer and the correction loop."""
    from ocr_pipeline_ray.functions.regex_banks import (_bank_pass,
                                                        extract_fields)

    # bank misses (no kWh unit anywhere) → KIE elects from context
    t1 = "monthly electricity usage was 2990 this period"
    assert _bank_pass(t1)["electricity_kwh"] is None
    assert extract_fields(t1)["electricity_kwh"] == 2990
    # fully-corrupted number (no digit witness) → aggressive last chance
    t2 = "Electricity lZOS kWh"
    assert _bank_pass(t2)["electricity_kwh"] is None
    assert extract_fields(t2)["electricity_kwh"] == 1205
    # F11: raw (un-fixed) text re-extracted after numerical correction
    t3 = "Total Consumption Z99O kWh"
    assert _bank_pass(t3)["electricity_kwh"] is None
    assert extract_fields(t3)["electricity_kwh"] == 2990


def test_doc_digest_matches_sha256_of_text(small_corpus, fields_df):
    spans = _spans(small_corpus).to_pandas()
    one = fields_df.iloc[0]
    g = spans[spans["doc_id"] == one["doc_id"]].sort_values("order")
    expected = hashlib.sha256("\n".join(g["text"]).encode()).hexdigest()
    assert one["doc_digest"] == expected

