"""Nested output payload builder (SURVEY §2.1 S6).

Re-expresses the reference's comprehensive utility-bill JSON schema
(pytorch_mobile/ocr_pipeline.py:1176-1286: billInfo / consumptionData /
emissionsData / validation / metadata, plus the simple payload form
pipeline.py:2587-2613) as a projection over the engine's flat fields
table — nesting is a *presentation* concern applied at the edge; the
engine keeps plain columns throughout.
"""

from __future__ import annotations

from typing import Any

from .. import __version__


def build_payload(row: dict[str, Any]) -> dict:
    """One fields-table row → the nested payload dict."""
    def fmt(v):
        return None if v is None else float(f"{float(v):.6f}")

    elec = row.get("electricity_kwh")
    carbon = row.get("carbon_kgco2e")
    return {
        "billInfo": {
            "accountNumber": row.get("account_number"),
            "billDate": row.get("bill_date"),
            "documentId": row.get("doc_id"),
        },
        "consumptionData": {
            "electricity": {"value": fmt(elec), "unit": "kWh",
                            "confidence": row.get("conf_electricity")},
            "meterReading": row.get("meter_reading"),
        },
        "emissionsData": {
            "carbonFootprint": {"value": fmt(carbon), "unit": "kg CO2e",
                                "confidence": row.get("conf_carbon")},
            "carbonPerKwh": (fmt(carbon / elec)
                             if elec and carbon else None),
        },
        "validation": {
            "status": row.get("status"),
            "warnings": int(row.get("n_warnings") or 0),
        },
        "metadata": {
            "spanCount": int(row.get("n_spans") or 0),
            "documentConfidence": row.get("doc_conf"),
            "sha256": row.get("doc_digest"),
            "engineVersion": __version__,
        },
    }


def write_payloads(fields_df, out_path: str) -> int:
    """Fields table → one JSON document per line (the reference's --save
    file write, pipeline.py:2810-2816, lifted to a batch sink)."""
    import json

    n = 0
    with open(out_path, "w") as f:
        for row in fields_df.to_dict("records"):
            f.write(json.dumps(build_payload(row), default=str) + "\n")
            n += 1
    return n
