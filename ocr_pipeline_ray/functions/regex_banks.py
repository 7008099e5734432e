"""Field-extraction regex banks + KIE fallback + correction loop +
context/range validation.

Capability parity with the reference's extractors (SURVEY §2.6):

- F5 electricity bank (reference pipeline.py:2071-2077, 2388-2394;
  pytorch_mobile/ocr_pipeline.py:888-897)
- F6 carbon bank (pipeline.py:2079-2090, 2412-2419)
- F7 aux fields: account number, bill date, meter readings, water,
  billing period, current/previous reading, peak demand
  (pytorch_mobile/ocr_pipeline.py:926-1050)
- F8 context validator: +/-50-char window must contain a unit keyword
  (pipeline.py:2115-2143)
- F9 range + cross-field validator: electricity in [50, 50000], carbon
  in [10, 20000], carbon/kWh in [0.1, 1.0] (pipeline.py:2200-2221)
- F10 text-KIE contextual scorer (pipeline.py:2245-2304): when the
  banks miss, extract EVERY number with its ±30-char context window,
  score electricity/carbon keyword hits, elect by (score, proximity
  to a domain prior)
- F11 field-aware correction loop (pipeline.py:2145-2179): re-extract
  from numerically-corrected text and accept values that pass the
  context validator; last chance = the aggressive confusable→digit
  read for fully-corrupted numbers

Banks are compiled once at import; extraction runs per string inside a
``map_batches`` kernel (regex evaluation is inherently per-string, the
batching amortizes everything else).
"""

from __future__ import annotations

import re
from typing import Any

from .charfix import aggressive_digit_fix, fix_text, normalize_number

# F5 — electricity (kWh): context-first patterns, then OCR-tolerant fallbacks.
ELECTRICITY_PATTERNS: list[re.Pattern[str]] = [
    re.compile(r"(?:Total\s+)?Consumption[^0-9]{0,30}([0-9][0-9,\.]{0,10})\s*kWh", re.I),
    re.compile(r"Electricity[^0-9]{0,40}([0-9][0-9,\.]{0,10})\s*kWh", re.I),
    re.compile(r"([0-9][0-9,\.]{0,10})\s*kWh", re.I),
    re.compile(r"kWh[^0-9]{0,15}([0-9][0-9,\.]{0,10})", re.I),
]

# F6 — carbon (kg CO2e), incl. OCR-error forms handled upstream by F3.
CARBON_PATTERNS: list[re.Pattern[str]] = [
    re.compile(r"(?:Kg|kg)\s*CO2e[^0-9]{0,20}([0-9][0-9,\.]{0,10})", re.I),
    re.compile(r"([0-9][0-9,\.]{0,10})\s*(?:Kg|kg)\s*CO2e", re.I),
    re.compile(r"Carbon[^0-9]{0,40}([0-9][0-9,\.]{0,10})", re.I),
]

# F7 — aux fields (reference pytorch_mobile/ocr_pipeline.py:926-1050).
ACCOUNT_PATTERN = re.compile(r"Account(?:\s+(?:No|Number|#))?\.?\s*:?\s*([0-9]{8,12})", re.I)
DATE_PATTERN = re.compile(r"\b([0-3][0-9]/[0-1][0-9]/[12][0-9]{3})\b")
METER_PATTERN = re.compile(r"Meter\s+Reading[^0-9]{0,20}([0-9][0-9,]{0,10})", re.I)
WATER_PATTERN = re.compile(r"([0-9][0-9,\.]{0,10})\s*m3|Water[^0-9]{0,30}([0-9][0-9,\.]{0,10})", re.I)
PERIOD_PATTERNS: list[re.Pattern[str]] = [
    re.compile(r"From[:\s]*([0-9]{1,2}/[0-9]{1,2}/[0-9]{2,4})\s*"
               r"To[:\s]*([0-9]{1,2}/[0-9]{1,2}/[0-9]{2,4})", re.I),
    re.compile(r"Period[:\s]*([0-9]{1,2}/[0-9]{1,2}/[0-9]{2,4})\s*-\s*"
               r"([0-9]{1,2}/[0-9]{1,2}/[0-9]{2,4})", re.I),
]
CURRENT_READING_PATTERN = re.compile(
    r"(?:Current|Present)\s*Reading[:\s]*([0-9]{4,8})", re.I)
PREVIOUS_READING_PATTERN = re.compile(
    r"(?:Previous|Last)\s*Reading[:\s]*([0-9]{4,8})", re.I)
PEAK_PATTERNS: list[re.Pattern[str]] = [
    re.compile(r"Peak\s*Demand[:\s]*([0-9]{1,4}\.?[0-9]*)\s*kW", re.I),
    re.compile(r"Max(?:imum)?\s*Demand[:\s]*([0-9]{1,4}\.?[0-9]*)\s*kW", re.I),
]

# F10 — contextual number extraction (reference window pattern,
# pipeline.py:2257, and keyword scoring tables, pipeline.py:2273-2283).
# Deliberate fix vs the reference's alternation order: its
# ``\d{1,3}(?:,\d{3})*`` first-alternative truncates plain 4-5 digit
# numbers (2990 → 299); requiring a real comma group (+) in the first
# alternative lets the plain-number alternative take the whole run.
# The lazy prefix + boundary guards keep the window from eating into
# the number itself (the reference's greedy ``.{0,30}`` can split
# ``1,234`` into context "1,2" + number "34"), and the after-window is
# a lookahead so a nearby second number is still its own candidate
# (findall's consumed windows silently skip it).
KIE_NUMBER_CONTEXT = re.compile(
    r"(.{0,30}?)(?<![0-9,])((?:\d{1,3}(?:,\d{3})+|\d{2,6}))(?![0-9])(?=(.{0,30}))")
KIE_ELEC_KEYWORDS = ("kwh", "electricity", "consumption", "usage",
                     "electric", "reading")
KIE_CARBON_KEYWORDS = ("co2", "carbon", "footprint", "emission", "kg",
                       "environmental", "c02")
KIE_ELEC_PRIOR = 300    # typical residential kWh (pipeline.py:2297)
KIE_CARBON_PRIOR = 120  # typical kgCO2e (pipeline.py:2302)

_CONTEXT_KEYWORDS = {
    "electricity_kwh": ("kwh", "electricity", "consumption"),
    "carbon_kgco2e": ("co2", "carbon", "kg"),
    "water_m3": ("m3", "water"),
}

RANGES = {
    "electricity_kwh": (50, 50_000),
    "carbon_kgco2e": (10, 20_000),
}
CARBON_PER_KWH = (0.1, 1.0)


def context_valid(text: str, start: int, end: int, field: str) -> bool:
    """F8: the +/-50 chars around a match must mention a unit keyword."""
    ctx = text[max(0, start - 50): end + 50].lower()
    return any(k in ctx for k in _CONTEXT_KEYWORDS.get(field, ()))


def _first_match(text: str, patterns: list[re.Pattern[str]], field: str) -> int | None:
    for pat in patterns:
        for m in pat.finditer(text):
            if context_valid(text, m.start(), m.end(), field):
                val = normalize_number(m.group(1))
                if val is not None:
                    return val
    return None


def kie_fallback(text: str) -> tuple[int | None, int | None]:
    """F10: contextual number election (reference pipeline.py:2245-2304).

    Every number (incl. comma-grouped) is paired with its ±30-char
    window; electricity/carbon keyword hits score 2 each, exact unit
    mentions +3; candidates in the field's sane range are elected by
    (score desc, |value − domain prior|). Returns (elec, carbon)."""
    elec_c: list[tuple[int, int]] = []
    carb_c: list[tuple[int, int]] = []
    for m in KIE_NUMBER_CONTEXT.finditer(text):
        try:
            value = int(m.group(2).replace(",", ""))
        except ValueError:
            continue
        if value < 10 or value > 100_000:
            continue
        ctx = (m.group(1) + m.group(3)).lower()
        es = sum(2 for kw in KIE_ELEC_KEYWORDS if kw in ctx)
        cs = sum(2 for kw in KIE_CARBON_KEYWORDS if kw in ctx)
        if "kwh" in ctx:
            es += 3
        if any(t in ctx for t in ("co2e", "co2", "kg")):
            cs += 3
        if es > 0 and 50 <= value <= 50_000:
            elec_c.append((value, es))
        if cs > 0 and 10 <= value <= 20_000:
            carb_c.append((value, cs))
    elec_c.sort(key=lambda x: (-x[1], abs(x[0] - KIE_ELEC_PRIOR), x[0]))
    carb_c.sort(key=lambda x: (-x[1], abs(x[0] - KIE_CARBON_PRIOR), x[0]))
    return (elec_c[0][0] if elec_c else None,
            carb_c[0][0] if carb_c else None)


def _bank_pass(text: str) -> dict[str, Any]:
    """One pass of the primary banks over one text."""
    elec = _first_match(text, ELECTRICITY_PATTERNS, "electricity_kwh")
    carbon = _first_match(text, CARBON_PATTERNS, "carbon_kgco2e")
    acct = ACCOUNT_PATTERN.search(text)
    date = DATE_PATTERN.search(text)
    meter = METER_PATTERN.search(text)
    water = None
    wm = WATER_PATTERN.search(text)
    if wm:
        raw = wm.group(1) or wm.group(2)
        if context_valid(text, wm.start(), wm.end(), "water_m3"):
            water = normalize_number(raw)
    period = None
    for pat in PERIOD_PATTERNS:
        pm = pat.search(text)
        if pm:
            period = (pm.group(1), pm.group(2))
            break
    cur = CURRENT_READING_PATTERN.search(text)
    prev = PREVIOUS_READING_PATTERN.search(text)
    peak = None
    for pat in PEAK_PATTERNS:
        km = pat.search(text)
        if km:
            peak = float(km.group(1))
            break
    return {
        "electricity_kwh": elec,
        "carbon_kgco2e": carbon,
        "account_number": acct.group(1) if acct else None,
        "bill_date": date.group(1) if date else None,
        "meter_reading": normalize_number(meter.group(1)) if meter else None,
        "water_m3": water,
        "billing_start": period[0] if period else None,
        "billing_end": period[1] if period else None,
        "current_reading": normalize_number(cur.group(1)) if cur else None,
        "previous_reading": normalize_number(prev.group(1)) if prev else None,
        "peak_demand_kw": peak,
    }


def _merge_missing(base: dict[str, Any], extra: dict[str, Any]) -> None:
    for k, v in extra.items():
        if base.get(k) is None and v is not None:
            base[k] = v


_SEWA_DECIMAL = re.compile(r"\b([0-9]{2,4}\.[0-9]{2})\b")


def sewa_table_heuristic(text: str) -> dict[str, Any]:
    """F7 tail: SEWA/Sharjah bills print consumption as a bare decimal
    table (no unit next to the number). Mirror of the reference's
    provider-specific election (pytorch_mobile/ocr_pipeline.py:1005-
    1048): collect plausible decimal consumption values, electricity =
    largest, water = second largest."""
    if "SEWA" not in text and "Sharjah" not in text:
        return {}
    vals = []
    for m in _SEWA_DECIMAL.finditer(text):
        v = float(m.group(1))
        if 50.0 <= v <= 1000.0:
            vals.append(v)
    vals.sort(reverse=True)
    out: dict[str, Any] = {}
    if vals:
        out["electricity_kwh"] = int(vals[0])
    if len(vals) >= 2:
        out["water_m3"] = int(vals[1])
    return out


def extract_fields(text: str) -> dict[str, Any]:
    """Full extraction stack over one document text: primary banks (F5-
    F7), then the F11 correction loop (re-extract from corrected text,
    accepting only context-validated values), then the F10 KIE
    contextual fallback, then the aggressive last-chance read for
    fully-corrupted numbers.

    Returns a flat dict with None for absent fields — columnar-friendly
    (the reference's ``_``-prefixed magic keys become plain columns).
    """
    fields = _bank_pass(text)

    # F11: numerical corrections → re-extract → accept what validates.
    # (Pipeline text is already canonical, so this engages mainly when
    # extract_fields is called on raw/un-fixed text.)
    corrected = fix_text(text)
    if corrected != text:
        _merge_missing(fields, _bank_pass(corrected))

    # Provider-specific table heuristic (fills only missing fields).
    if fields["electricity_kwh"] is None or fields["water_m3"] is None:
        _merge_missing(fields, sewa_table_heuristic(corrected))

    # F10: contextual KIE fallback for the two primary fields.
    if fields["electricity_kwh"] is None or fields["carbon_kgco2e"] is None:
        e, c = kie_fallback(corrected)
        if fields["electricity_kwh"] is None:
            fields["electricity_kwh"] = e
        if fields["carbon_kgco2e"] is None:
            fields["carbon_kgco2e"] = c

    # Last chance (F11 tail): the aggressive confusable→digit read can
    # resurrect numbers whose every digit degraded; context validation
    # inside the banks/KIE guards against fabrications.
    if fields["electricity_kwh"] is None or fields["carbon_kgco2e"] is None:
        aggr = aggressive_digit_fix(corrected)
        if aggr != corrected:
            recovered = _bank_pass(aggr)
            e2, c2 = kie_fallback(aggr)
            if recovered["electricity_kwh"] is None:
                recovered["electricity_kwh"] = e2
            if recovered["carbon_kgco2e"] is None:
                recovered["carbon_kgco2e"] = c2
            for k in ("electricity_kwh", "carbon_kgco2e"):
                if fields[k] is None:
                    fields[k] = recovered[k]
    return fields


def validate_fields(fields: dict[str, Any]) -> tuple[str, list[str]]:
    """F9: range + cross-field checks → (status, warnings)."""
    warnings: list[str] = []
    for name, (lo, hi) in RANGES.items():
        v = fields.get(name)
        if v is not None and not (lo <= v <= hi):
            warnings.append(f"{name}_out_of_range")
    e, c = fields.get("electricity_kwh"), fields.get("carbon_kgco2e")
    if e and c:
        ratio = c / e
        if not (CARBON_PER_KWH[0] <= ratio <= CARBON_PER_KWH[1]):
            warnings.append("carbon_per_kwh_out_of_range")
    extracted = sum(v is not None for v in fields.values())
    if extracted == 0:
        return "failed", warnings
    if e is not None and c is not None and not warnings:
        return "success", warnings
    return "partial", warnings
