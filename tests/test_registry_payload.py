"""Nested payload builder and its JSONL sink."""

from __future__ import annotations

import json

import pytest

from ocr_pipeline_ray.functions.payload import build_payload, write_payloads


class TestPayload:
    ROW = {
        "doc_id": "doc-1", "electricity_kwh": 299, "carbon_kgco2e": 120,
        "account_number": "786512345", "bill_date": "01/02/2024",
        "meter_reading": 1234, "conf_electricity": 0.95, "conf_carbon": 0.9,
        "status": "success", "n_warnings": 0, "n_spans": 7,
        "doc_conf": 0.97, "doc_digest": "ab" * 32,
    }

    def test_nested_shape(self):
        p = build_payload(self.ROW)
        assert p["billInfo"]["accountNumber"] == "786512345"
        assert p["consumptionData"]["electricity"]["value"] == 299.0
        assert p["emissionsData"]["carbonFootprint"]["unit"] == "kg CO2e"
        assert p["emissionsData"]["carbonPerKwh"] == pytest.approx(120 / 299,
                                                                   abs=1e-6)
        assert p["validation"]["status"] == "success"
        assert p["metadata"]["sha256"] == "ab" * 32

    def test_missing_fields_are_none(self):
        p = build_payload({"doc_id": "d"})
        assert p["consumptionData"]["electricity"]["value"] is None
        assert p["emissionsData"]["carbonPerKwh"] is None

    def test_write_payloads_jsonl(self, tmp_path):
        import pandas as pd
        df = pd.DataFrame([self.ROW, {**self.ROW, "doc_id": "doc-2"}])
        out = tmp_path / "payloads.jsonl"
        n = write_payloads(df, str(out))
        assert n == 2
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines[1]["billInfo"]["documentId"] == "doc-2"
