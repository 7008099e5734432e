"""Robustness matrix (reference stress_test.py / robustness_evaluation.py
pattern): severity-controlled degraded pages → OCR → verify that
(a) confidence decreases monotonically with severity,
(b) char accuracy vs construction truth stays high (char-fix restores
    most confusions),
(c) the distributed fields reduce equals the sequential computation,
(d) a worker process that dies mid-batch loses no rows."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from ocr_pipeline_ray.functions.accuracy import char_accuracy
from ocr_pipeline_ray.sources.synth import _corrupt_text
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages.ocr import engine_readings
from tests.conftest import ocr_page


def _degraded_page(lines: list[str], sev_idx: int, seed: int) -> bytes:
    rng = np.random.RandomState(seed)
    recs = [(_corrupt_text(t, rng, sev_idx), 10, 30 * i)
            for i, t in enumerate(lines)]
    return media_stub.encode_page(recs, seed=seed)


def word_hit_rate(expected: str, actual: str,
                  critical: tuple[str, ...] = ()) -> float:
    """Fraction of (critical or all expected) words present in actual
    (F14, reference run_comprehensive_tests.py:40-70)."""
    words = list(critical) if critical else expected.split()
    if not words:
        return 1.0
    actual_set = set(actual.split())
    return sum(1 for w in words if w in actual_set) / len(words)


def field_exact_match(expected: dict, actual: dict) -> float:
    """Fraction of expected (non-None) fields matched exactly (F14)."""
    keys = [k for k, v in expected.items() if v is not None]
    if not keys:
        return 1.0
    return sum(1 for k in keys if actual.get(k) == expected[k]) / len(keys)


LINES = ["Total Consumption 2990 kWh", "Kg CO2e 1205",
         "Account Number: 786512345", "Meter Reading 1048576"]


class TestSeverityMatrix:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_confidence_monotone_in_severity(self, seed):
        confs = []
        for sev in range(4):
            _, conf, status = ocr_page(_degraded_page(LINES, sev, seed))
            assert status == "ok"
            confs.append(conf)
        assert confs[0] == pytest.approx(0.98)      # clean page scores base
        assert all(confs[0] > c for c in confs[1:])  # any degradation costs
        # severity trend (corruption counts are random draws, so adjacent
        # levels may cross by a hair; the ends must not)
        assert confs[3] <= confs[1] + 1e-9

    @pytest.mark.parametrize("sev", [0, 1, 2])
    def test_char_accuracy_after_charfix(self, sev):
        truth = "\n".join(LINES)
        text, _, _ = ocr_page(_degraded_page(LINES, sev, seed=3))
        acc = char_accuracy(truth, text)
        # char-fix restores digit confusions inside digit-bearing words;
        # low/medium severity should stay near-perfect
        assert acc > 0.97, (acc, text)

    def test_word_hit_rate_critical_words(self):
        text, _, _ = ocr_page(_degraded_page(LINES, 1, seed=5))
        assert word_hit_rate("", text, critical=("kWh", "CO2e", "Account")) == 1.0

    def test_degraded_confidence_formula_matches_kernel(self):
        raw = _corrupt_text("Meter 120345", np.random.RandomState(0), 3)
        fixed_count = sum(1 for ch in raw if ch in set("lIoOzZsSgGbB|"))
        stable = engine_readings(raw, 300)[0]   # within the 300-DPI window
        assert stable[0] == "stable" and stable[2] <= 0.98
        if fixed_count:
            assert stable[2] < 0.98


class TestFieldsParity:
    def test_distributed_fields_equal_sequential(self, small_corpus):
        """extract_fields_per_doc (groupby reduce) == sequential
        extract_fields over the oracle's golden spans."""
        from ocr_pipeline_ray.functions.regex_banks import (extract_fields,
                                                            validate_fields)
        from ocr_pipeline_ray.pipelines.extract import (extract_fields_per_doc,
                                                        extract_spans,
                                                        plan_job)
        from tests.oracle.golden import golden_spans

        plan = plan_job(f"{small_corpus}/documents_spans",
                        f"{small_corpus}/media")
        got = extract_fields_per_doc(extract_spans(plan)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        gold = pd.DataFrame(golden_spans(42, 60, 120))
        rows = []
        for doc_id, g in gold.groupby("doc_id"):
            text = "\n".join(g.sort_values("order")["text"])
            f = extract_fields(text)
            status, _ = validate_fields(f)
            rows.append({"doc_id": doc_id, **f, "status": status})
        exp = pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)

        for col in ["electricity_kwh", "carbon_kgco2e", "account_number",
                    "bill_date", "meter_reading", "status"]:
            pd.testing.assert_series_equal(
                got[col], exp[col], check_names=False, check_dtype=False,
                obj=col)

    def test_field_exact_match_metric(self):
        assert field_exact_match({"a": 1, "b": None}, {"a": 1}) == 1.0
        assert field_exact_match({"a": 1, "b": 2}, {"a": 1, "b": 3}) == 0.5


class TestTornPayloads:
    """Failure-as-data for payloads with a VALID magic but a torn or
    garbled body — at 100 TB a truncated file is a certainty, and an
    exception inside the decode would kill the actor task (and its
    whole batch) instead of producing a 'corrupt' status row."""

    def _torn(self):
        import numpy as np

        from ocr_pipeline_ray.stages import media_stub, pixels

        raster = media_stub.encode_raster(pixels.render_lines(["hello"]))
        page = media_stub.encode_page([("abc def", 0, 0)], seed=5)
        digital = media_stub.encode_digital("café lines")
        return [raster[: len(raster) // 2],   # half the pixel bytes
                page[:10],                    # torn inside the header
                page[:-3],                    # torn inside a record
                digital[:8],                  # utf-8 split inside 'é'
                raster[:6]]                   # torn before h/w

    def test_cascade_yields_corrupt_rows_not_exceptions(self):
        from ocr_pipeline_ray.stages.ocr import ocr_page_cascade

        for torn in self._torn():
            text, conf, status, cascade = ocr_page_cascade(torn)
            assert (text, conf, status, cascade) == ("", 0.0, "corrupt",
                                                     "none"), torn[:8]
            assert ocr_page(torn)[2] == "corrupt"

    def test_torn_rows_flow_through_the_ocr_stage(self, tmp_path):
        import pyarrow as pa

        from ocr_pipeline_ray.stages.ocr import OcrStage
        from tests.conftest import media_lookup

        torn = self._torn()
        n = len(torn)
        refs = [f"m{i}" for i in range(n)]
        lookup = media_lookup(tmp_path / "media", dict(zip(refs, torn)))
        batch = pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "kind": pa.array(["media"] * n),
            "text": pa.array([""] * n),
            "media_ref": pa.array(refs),
            "offset": pa.array(list(range(n)), type=pa.int32()),
            "status": pa.array(["pending"] * n),
            "conf": pa.array([0.0] * n),
        })
        out = OcrStage(lookup)(batch)
        assert out["status"].to_pylist() == ["corrupt"] * n
        assert out["cascade"].to_pylist() == ["none"] * n

    def test_absurd_line_count_rejected_before_loop(self):
        import struct as _s

        from ocr_pipeline_ray.stages import media_stub

        # forge a body that decodes to n_lines = 2**31 in 40 bytes
        seed = 9
        body = _s.pack("<I", 2**31) + b"x" * 36
        ks = media_stub._keystream(seed, len(body))
        payload = media_stub.MAGIC_PAGE + _s.pack("<Q", seed) \
            + bytes(a ^ b for a, b in zip(body, ks))
        import pytest as _pt
        with _pt.raises(ValueError):
            media_stub.decode_page(payload)


class TestOversizePayload:
    """The reference's payload byte cap (``MAX_PAYLOAD_BYTES``): a payload
    over it is an 'oversize' status row, checked before any decode, and
    ``filter_keep`` drops it like a corrupt page. The bound is patched
    low so a small page is over it."""

    def test_oversize_page_is_a_dropped_status_row(self, monkeypatch,
                                                   tmp_path):
        import pyarrow as pa

        from ocr_pipeline_ray.sources.synth import DOCS_SCHEMA
        from ocr_pipeline_ray.stages import ocr
        from ocr_pipeline_ray.stages.doclocal import DocLocalExtract
        from tests.conftest import media_lookup

        big = media_stub.encode_page(
            [("Total Consumption 2990 kWh for the billing period", 0, 0)], 7)
        small = media_stub.encode_digital("Meter reading 1234")
        assert len(big) > len(small)
        monkeypatch.setattr(ocr, "MAX_PAYLOAD_BYTES", len(small))

        assert ocr.ocr_page_cascade(big) == ("", 0.0, "oversize", "none")
        assert ocr.ocr_page_cascade(small)[2:] == ("ok", "digital")

        lookup = media_lookup(tmp_path / "media",
                              {"m-big": big, "m-small": small})
        spans = [{"kind": "media", "text": "", "media_ref": ref,
                  "offset": off} for off, ref in enumerate(["m-big",
                                                            "m-small"])]
        batch = pa.Table.from_pylist([{"doc_id": "d1", "spans": spans}],
                                     schema=DOCS_SCHEMA)
        out = DocLocalExtract(lookup)(batch).to_pylist()
        assert [(r["order"], r["media_ref"], r["status"]) for r in out] \
            == [(0, "m-small", "ok")]


class TestUniformRaster:
    """A one-level raster page (all white, gray or black) has no text:
    it must read as a blank status row, never as '?' text with status
    'ok' (its zero contrast routes it to equalize+binarize, which used
    to turn the single level into all ink)."""

    @pytest.mark.parametrize("shape", [(48, 18), (240, 300)])
    @pytest.mark.parametrize("level", [0, 128, 255])
    def test_uniform_page_reads_blank(self, shape, level):
        from ocr_pipeline_ray.stages.ocr import ocr_page_cascade

        payload = media_stub.encode_raster(np.full(shape, level, np.uint8))
        assert ocr_page_cascade(payload) == ("", 0.0, "blank", "none")
        assert ocr_page(payload) == ("", 0.0, "blank")


class TestWorkerDeath:
    def test_worker_dying_mid_batch_is_retried_to_golden(self, small_corpus,
                                                         tmp_path):
        """The doc-local stage runs as tasks on pooled workers, so a
        worker process killed inside ``__call__`` is a retried task: its
        input block is re-read and the output still equals golden."""
        import os

        import ray.data as rd

        from ocr_pipeline_ray.pipelines.extract import build_media_lookup
        from ocr_pipeline_ray.stages.doclocal import DocLocalExtract
        from tests.oracle.golden import golden_spans
        from tests.test_extract_golden import (N_DOCS, SEED, SKEW,
                                               _assert_matches_golden)

        class DieOnce(DocLocalExtract):
            def __init__(self, marker, **kw):
                super().__init__(**kw)
                self.marker = marker

            def __call__(self, batch):
                if not os.path.exists(self.marker):
                    open(self.marker, "w").close()
                    os._exit(1)  # no cleanup, no exception: the process dies
                return super().__call__(batch)

        marker = str(tmp_path / "died")
        zones = build_media_lookup(f"{small_corpus}/media")
        out = rd.read_parquet(f"{small_corpus}/documents_spans") \
            .map_batches(DieOnce(marker, zones=zones),
                         batch_format="pyarrow").to_pandas()
        assert os.path.exists(marker)
        _assert_matches_golden(out, pd.DataFrame(golden_spans(SEED, N_DOCS,
                                                              SKEW)))
