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

from ocr_pipeline_ray.functions.accuracy import (char_accuracy,
                                                 field_exact_match,
                                                 word_hit_rate)
from ocr_pipeline_ray.sources.synth import _corrupt_text
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages.ocr import line_confidence, ocr_page


def _degraded_page(lines: list[str], sev_idx: int, seed: int) -> bytes:
    rng = np.random.RandomState(seed)
    recs = [(_corrupt_text(t, rng, sev_idx), 10, 30 * i)
            for i, t in enumerate(lines)]
    return media_stub.encode_page(recs, seed=seed)


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
        assert line_confidence(raw) <= 0.98
        if fixed_count:
            assert line_confidence(raw) < 0.98


class TestFieldsParity:
    def test_distributed_fields_equal_sequential(self, small_corpus):
        """extract_fields_per_doc (groupby reduce) == sequential
        extract_fields over the oracle's golden spans."""
        import ray.data as rd

        from ocr_pipeline_ray.functions.regex_banks import (extract_fields,
                                                            validate_fields)
        from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                        extract_fields_per_doc,
                                                        extract_spans)
        from tests.oracle.golden import golden_spans

        docs = rd.read_parquet(f"{small_corpus}/documents_spans")
        ref = build_media_lookup(f"{small_corpus}/media")
        got = extract_fields_per_doc(
            extract_spans(docs, media_lookup_ref=ref)).to_pandas() \
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
        from ocr_pipeline_ray.stages.ocr import ocr_page, ocr_page_cascade

        for torn in self._torn():
            text, conf, status, cascade = ocr_page_cascade(torn)
            assert (text, conf, status, cascade) == ("", 0.0, "corrupt",
                                                     "none"), torn[:8]
            assert ocr_page(torn)[2] == "corrupt"

    def test_torn_rows_flow_through_the_ocr_stage(self):
        import pyarrow as pa
        import ray

        from ocr_pipeline_ray.stages.ocr import OcrStage

        torn = self._torn()
        n = len(torn)
        refs = [f"m{i}" for i in range(n)]
        lookup = ray.put(pa.table({
            "media_ref": pa.array(refs),
            "payload": pa.array(torn, type=pa.binary()),
        }))
        batch = pa.table({
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "kind": pa.array(["media"] * n),
            "text": pa.array([""] * n),
            "media_ref": pa.array(refs),
            "offset": pa.array(list(range(n)), type=pa.int32()),
            "status": pa.array(["pending"] * n),
            "conf": pa.array([0.0] * n),
        })
        out = OcrStage(media_lookup_ref=lookup)(batch)
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
        ref = build_media_lookup(f"{small_corpus}/media")
        out = rd.read_parquet(f"{small_corpus}/documents_spans") \
            .map_batches(DieOnce(marker, media_lookup_ref=ref),
                         batch_format="pyarrow").to_pandas()
        assert os.path.exists(marker)
        _assert_matches_golden(out, pd.DataFrame(golden_spans(SEED, N_DOCS,
                                                              SKEW)))
