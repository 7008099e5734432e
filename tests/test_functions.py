"""Unit tests for the pure kernels (charfix truth table, geometry,
confidence, textstats, media format) — the reference's unit-test layer
(pytorch_mobile/test_pipeline.py char-correction truth table pattern)."""

from __future__ import annotations

import numpy as np
import pytest

from ocr_pipeline_ray.functions import charfix, confidence, geometry
from ocr_pipeline_ray.functions import textstats as ts
from ocr_pipeline_ray.stages import media_stub


class TestCharfix:
    @pytest.mark.parametrize("raw,expected", [
        ("Z99 kWh", "299 kWh"),            # Z->2 inside digit word
        ("12O", "120"),                    # O->0
        ("meter l23", "meter 123"),        # l->1
        ("hello world", "hello world"),    # untouched: no digits
        ("S5S", "555"),                    # S->5
        ("Account 7B21", "Account 7821"),  # B->8
        ("ZZZ", "ZZZ"),                    # all-confusable but NO digit -> gate fails
        ("Electr1c1ty", "Electricity"),    # F3 word fix
        ("kg coze 120", "kg CO2e 120"),    # F3 CO2e variant
        ("1O1", "101"),                    # O between digits (F2 + F1)
    ])
    def test_truth_table(self, raw, expected):
        assert charfix.fix_text(raw) == expected

    def test_idempotent(self):
        s = "Total Consumption Z99 kWh and 12O Kg coze"
        once = charfix.fix_text(s)
        assert charfix.fix_text(once) == once

    def test_normalize_number(self):
        assert charfix.normalize_number("1,2O0 ") == 1200
        assert charfix.normalize_number("abc") is None


class TestGeometry:
    def test_iou_identity_and_disjoint(self):
        a = np.array([[0, 0, 10, 10]])
        b = np.array([[0, 0, 10, 10], [20, 20, 30, 30], [5, 5, 15, 15]])
        iou = geometry.bbox_iou_matrix(a, b)[0]
        assert iou[0] == pytest.approx(1.0)
        assert iou[1] == 0.0
        assert iou[2] == pytest.approx(25 / 175)

    def test_xy_cut_reads_bands_then_columns(self):
        # two bands; within band left-to-right regardless of input order
        xs = np.array([250, 0, 250, 0])
        ys = np.array([0, 2, 31, 30])
        order = geometry.xy_cut_order(xs, ys)
        assert list(order) == [1, 0, 3, 2]


class TestConfidence:
    def test_geomean_empty_and_floor(self):
        assert confidence.geomean_confidence(np.array([])) == 0.0
        assert confidence.geomean_confidence(np.array([0.0])) == pytest.approx(1e-3)

    def test_geomean_top80_rule(self):
        confs = np.array([0.1] * 5 + [0.9] * 20)  # 25 tokens -> keep top 20
        got = confidence.geomean_confidence(confs)
        assert got == pytest.approx(0.9)  # the 0.1s fall outside top-80%


class TestTextstats:
    def test_jaccard_bounds(self):
        assert ts.jaccard(["a"], ["a"]) == 1.0
        assert ts.jaccard(["a"], ["b"]) == 0.0
        assert ts.jaccard([], []) == 0.0  # no shingles → no evidence

    def test_minhash_similar_docs_share_bands(self):
        a = ts.token_shingles("the quick brown fox jumps over the lazy dog today")
        sig_a = ts.minhash_signature(a)
        sig_b = ts.minhash_signature(a)  # identical
        assert sig_a == sig_b
        assert set(ts.lsh_band_ints(sig_a)) & set(ts.lsh_band_ints(sig_b))

    def test_simhash_close_for_near_texts(self):
        t1 = "spark data table scan merge join filter group sort".split()
        t2 = "spark data table scan merge join filter group order".split()
        d = ts.hamming64(ts.simhash64(t1), ts.simhash64(t2))
        assert d < 24
        assert ts.hamming64(ts.simhash64(t1), ts.simhash64(t1)) == 0

    def test_lang_id_deterministic_tiebreak(self):
        assert ts.lang_id("xyz qqq") == "unknown"
        assert ts.lang_id("the und") == "en"  # tie en/de -> first in order


class TestMediaStub:
    def test_roundtrip(self):
        lines = [("Total 299 kWh", 10, 20), ("second line", 0, 50)]
        payload = media_stub.encode_page(lines, seed=7)
        assert media_stub.classify_payload(payload) == "page"
        assert media_stub.decode_page(payload) == lines

    def test_blank_and_corrupt_detection(self):
        assert media_stub.classify_payload(media_stub.encode_blank(1)) == "blank"
        assert media_stub.classify_payload(media_stub.encode_corrupt(1)) == "corrupt"

    def test_payload_is_opaque(self):
        payload = media_stub.encode_page([("findme secret", 0, 0)], seed=3)
        assert b"findme" not in payload

    def test_raster_roundtrip(self):
        import numpy as np
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        payload = media_stub.encode_raster(img)
        assert media_stub.classify_payload(payload) == "raster"
        assert np.array_equal(media_stub.decode_raster(payload), img)
