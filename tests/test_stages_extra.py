"""Tests for multimodal stages, ensemble vote-merge, isotonic calibration."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from ocr_pipeline_ray.functions import calibration
from ocr_pipeline_ray.stages import multimodal
from ocr_pipeline_ray.stages.ensemble import ensemble_merge, vote_merge_tokens


class TestMultimodal:
    def test_media_features_stage(self, small_corpus):
        media = rd.read_parquet(f"{small_corpus}/media")
        out = media.map_batches(multimodal.media_features, batch_size=64,
                                batch_format="pyarrow").to_pandas()
        dims = {len(f) for f in out["features"]}
        assert dims == {multimodal.FEATURE_DIM}

    def test_frame_sample_explodes(self, small_corpus):
        media = rd.read_parquet(f"{small_corpus}/media")
        out = media.map_batches(multimodal.frame_sample, batch_size=64,
                                batch_format="pyarrow").to_pandas()
        assert len(out) > 0
        assert (out["frame_index"] % 2 == 0).all()


class TestEnsemble:
    def _tokens(self):
        # 2 engines, 2 true tokens; engine B misreads token 2 with low conf
        return pd.DataFrame([
            {"doc_id": "d1", "engine": "A", "text": "299", "conf": 0.9,
             "x1": 0, "y1": 0, "x2": 10, "y2": 10},
            {"doc_id": "d1", "engine": "B", "text": "299", "conf": 0.8,
             "x1": 1, "y1": 1, "x2": 10, "y2": 10},
            {"doc_id": "d1", "engine": "A", "text": "kWh", "conf": 0.9,
             "x1": 20, "y1": 0, "x2": 30, "y2": 10},
            {"doc_id": "d1", "engine": "B", "text": "kWb", "conf": 0.3,
             "x1": 20, "y1": 0, "x2": 30, "y2": 10},
        ])

    def test_vote_merge_prefers_agreement(self):
        out = vote_merge_tokens(self._tokens(), n_engines=2)
        assert list(out["text"]) == ["299", "kWh"]
        assert list(out["votes"]) == [2, 2]

    def test_ensemble_merge_dataset(self):
        ds = rd.from_pandas(self._tokens())
        out = ensemble_merge(ds, n_engines=2).to_pandas()
        assert list(out["text"]) == ["299", "kWh"]
        assert (out["doc_id"] == "d1").all()

    def test_merge_is_input_order_invariant(self):
        t = self._tokens()
        shuffled = t.sample(frac=1.0, random_state=3).reset_index(drop=True)
        a = vote_merge_tokens(t, 2)
        b = vote_merge_tokens(shuffled, 2)
        pd.testing.assert_frame_equal(a, b)


class TestCalibration:
    def test_pav_monotone_and_interp(self):
        rng = np.random.RandomState(0)
        raw = rng.rand(200)
        correct = (rng.rand(200) < raw).astype(float)  # accuracy ~ raw conf
        kx, ky = calibration.fit_isotonic(raw, correct)
        assert np.all(np.diff(ky) >= -1e-12)  # monotone
        cal = calibration.apply_calibration(kx, ky, np.array([0.1, 0.5, 0.9]))
        assert cal[0] <= cal[1] <= cal[2]

    def test_threshold_inversion(self):
        kx = np.linspace(0, 1, 50)
        ky = kx.copy()  # identity calibration
        thr = calibration.threshold_for_accuracy(kx, ky, target=0.85)
        assert thr == pytest.approx(0.85, abs=1e-3)
        assert calibration.threshold_for_accuracy(kx, ky, 1.5) is None

    def test_min_samples_enforced(self):
        with pytest.raises(ValueError):
            calibration.fit_isotonic(np.ones(5), np.ones(5))


class TestCascadeGates:
    """ADVICE r2: truncation must force the 600-DPI re-decode, and the
    low_conf gate compares RAW conf against the RAW-space tau_llm."""

    def _long_clean_line(self) -> str:
        # no confusable-class words (every word has a non-confusable char)
        words = ["the", "quick", "red", "fox", "jumped", "over", "the",
                 "hay", "heap", "and", "ran", "far", "away", "then",
                 "came", "back", "for", "more", "fun", "runs", "deep",
                 "down", "the", "dark", "dirt", "path", "near", "here"]
        return " ".join(words)  # 135 chars > TRUNC_CHARS_300

    def test_truncated_line_forces_redecode(self):
        from ocr_pipeline_ray.stages import media_stub
        from ocr_pipeline_ray.stages.ocr import (TRUNC_CHARS_300,
                                                 ocr_page_cascade)
        from tests.conftest import ocr_page

        line = self._long_clean_line()
        assert len(line) > TRUNC_CHARS_300
        payload = media_stub.encode_page([(line, 10, 10)], seed=7)

        t300, c300, st = ocr_page(payload, dpi=300)
        assert st == "ok" and t300 == line[:TRUNC_CHARS_300]
        # clipped-but-confusable-free: every engine agrees on the prefix,
        # so the page sails over both confidence triggers...
        assert c300 >= 0.90
        # ...yet the cascade must re-decode anyway: truncation is lost
        # text that no confidence score can vouch for
        text, conf, st, casc = ocr_page_cascade(payload)
        assert casc == "enhanced"
        assert text == line
        assert conf > c300

    def test_low_conf_gate_is_raw_space(self):
        """tau_llm comes back from threshold_for_accuracy in RAW space;
        a page whose raw conf clears it must stay 'ok' even when its
        CALIBRATED score is numerically below the threshold."""
        import pyarrow as pa

        from ocr_pipeline_ray.stages import media_stub
        from ocr_pipeline_ray.stages.ocr import (MediaDecodeStage,
                                                 PageReader,
                                                 ocr_page_cascade)

        kx, ky = [0.55, 0.98], [0.30, 0.90]
        stage = MediaDecodeStage(calib=(kx, ky))
        reader = PageReader(calib=(kx, ky))
        tau_llm = reader.tau_llm
        assert tau_llm is not None and 0.90 < tau_llm < 0.98

        clean = media_stub.encode_page([("a clean line of plain text", 5, 5)],
                                       seed=1)
        noisy = media_stub.encode_page(
            [("Meter l0l5 total 1O2S usage 9B7 kWh", 5, 5)], seed=2)
        batch = pa.table({"media_ref": ["clean", "noisy"],
                          "payload": [clean, noisy]})
        out = stage(batch)
        rows = {r["media_ref"]: r for r in out.to_pylist()}

        for ref, payload in (("clean", clean), ("noisy", noisy)):
            _t, raw_conf, _st, casc = ocr_page_cascade(payload,
                                                       reader.tau_enhance)
            expect = "low_conf" if raw_conf < tau_llm else "ok"
            assert rows[ref]["m_status"] == expect, (ref, raw_conf, tau_llm)
        # the clean page's CALIBRATED score sits below tau_llm — the old
        # cal-vs-raw comparison would have mis-routed it to low_conf
        assert rows["clean"]["m_status"] == "ok"
        assert rows["clean"]["m_conf_calibrated"] < tau_llm
        assert rows["noisy"]["m_status"] == "low_conf"


class TestPreprocessKernels:
    """P1-P5 are REAL transforms on FPG1: degraded pages must be
    recovered (text equality vs the clean decode), not just flagged."""

    def _clean_page(self, seed=11):
        from ocr_pipeline_ray.stages import media_stub
        lines = [(f"row {i} col {c} text", c * 250, i * 30)
                 for i in range(6) for c in (0, 1)]
        return media_stub.encode_page(lines, seed)

    def test_rotation_detected_and_recovered(self):
        from ocr_pipeline_ray.stages import multimodal
        from tests.conftest import ocr_page

        clean = self._clean_page()
        rotated = multimodal.rotate_page_cw(clean)
        truth, _, _ = ocr_page(clean, dpi=300)
        scrambled, _, _ = ocr_page(rotated, dpi=300)
        assert scrambled != truth  # the mis-scan really breaks reading order

        import pyarrow as pa
        out = multimodal.preprocess_media(
            pa.table({"media_ref": ["r"], "payload": [rotated]}))
        assert out["pp_rotated"][0].as_py() is True
        fixed, _, _ = ocr_page(out["payload"][0].as_py(), dpi=300)
        assert fixed == truth

    def test_clean_page_not_flagged_rotated(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages import multimodal
        out = multimodal.preprocess_media(
            pa.table({"media_ref": ["c"], "payload": [self._clean_page()]}))
        assert out["pp_rotated"][0].as_py() is False

    def test_dewarp_restores_row_order(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages import media_stub, multimodal
        from tests.conftest import ocr_page

        # two-column page; row 2's left cell jitters into band 3 while
        # its right cell stays in band 2 → XY-cut reads R before L
        lines = [("zeroL", 0, 2), ("zeroR", 250, 1),
                 ("oneL", 0, 31), ("oneR", 250, 40),
                 ("twoL", 0, 73), ("twoR", 250, 60)]
        warped = media_stub.encode_page(lines, 5)
        bad, _, _ = ocr_page(warped, dpi=300)
        assert bad.splitlines()[4] == "twoR"  # mis-ordered without dewarp

        out = multimodal.preprocess_media(
            pa.table({"media_ref": ["w"], "payload": [warped]}))
        assert out["pp_dewarped"][0].as_py() is True
        good, _, _ = ocr_page(out["payload"][0].as_py(), dpi=300)
        assert good.splitlines() == ["zeroL", "zeroR", "oneL", "oneR",
                                     "twoL", "twoR"]

    def test_size_cap_rescales_order_preserving(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages import media_stub, multimodal
        from tests.conftest import ocr_page

        lines = [(f"giant row {i}", 0, i * 40_000) for i in range(4)]
        big = media_stub.encode_page(lines, 3)
        out = multimodal.preprocess_media(
            pa.table({"media_ref": ["g"], "payload": [big]}))
        assert out["pp_rescaled"][0].as_py() is True
        fixed = out["payload"][0].as_py()
        ys = [y for _, _, y in media_stub.decode_page(fixed)]
        assert max(ys) <= multimodal.MAX_COORD
        assert ys == sorted(ys)  # order preserved
        text, _, _ = ocr_page(fixed, dpi=300)
        assert text.splitlines() == [f"giant row {i}" for i in range(4)]

    def test_noise_score_feeds_routing(self):
        import pyarrow as pa

        from ocr_pipeline_ray.stages import media_stub, multimodal

        clean = media_stub.encode_page([("plain readable text here", 0, 0),
                                        ("more clean words", 0, 30),
                                        ("and a third row", 0, 60)], 9)
        noisy = media_stub.encode_page([("lOZS Sll OBB l|l", 0, 0),
                                        ("ZSl lOB SSS OOO", 0, 30),
                                        ("B|l zSo gOl bIz", 0, 60)], 9)
        out = multimodal.preprocess_media(
            pa.table({"media_ref": ["c", "n"], "payload": [clean, noisy]}))
        scores = out["pp_noise_score"].to_pylist()
        assert scores[0] < 0.1 < 0.5 < scores[1]


class TestDegradationBank:
    """P11: 15-op bank; geometry damage must be REPAIRED by P1-P5,
    text damage must degrade accuracy (and never crash the cascade)."""

    def test_every_op_changes_a_page(self):
        from ocr_pipeline_ray.sources.degrade import (DEGRADATION_OPS,
                                                      degrade_page)
        from ocr_pipeline_ray.stages import media_stub

        lines = [(f"Meter 1025 row {i} text here", (i % 2) * 250, 30 * i)
                 for i in range(8)]
        payload = media_stub.encode_page(lines, seed=21)
        assert len(DEGRADATION_OPS) == 15
        for op in DEGRADATION_OPS:
            out = degrade_page(payload, op, "high")
            assert media_stub.classify_payload(out) == "page"
            assert out != payload, f"{op} was a no-op"
            # determinism
            assert out == degrade_page(payload, op, "high")

    def test_bank_profile_geometry_recovered(self, ray_session):
        from ocr_pipeline_ray.pipelines.modelops import degradation_bank
        from ocr_pipeline_ray.sources.degrade import (DEGRADATION_OPS,
                                                      GEOMETRY_OPS)

        df = degradation_bank("/root/testdata/sf0.001", sample_n=96)
        assert set(df["op"]) == set(DEGRADATION_OPS) | {"none"}
        acc = dict(zip(df["op"], df["mean_char_acc"]))
        base = acc["none"]
        for op in GEOMETRY_OPS:
            # preprocessors restore the exact clean-page reading
            assert acc[op] == base, (op, acc[op], base)
        for op in set(DEGRADATION_OPS) - set(GEOMETRY_OPS):
            # small tolerance: extra confusables can TRIP the 600-DPI
            # retry on a marginal page and read it better than the
            # accepted 300-DPI baseline pass
            assert acc[op] <= base + 1e-3, (op, acc[op], base)
        # unrepaired text damage really hurts (brightness flips case)
        assert acc["brightness"] < base - 0.1


class TestSessionizerReorder:
    """The distributed feeders deliver out of order; the bucket actor's
    sequence reorder buffer must make arrival order irrelevant."""

    def _slices(self):
        import pandas as pd
        base = pd.Timestamp("2024-01-01 00:00:00")
        mk = lambda rows: pd.DataFrame(
            rows, columns=["user_id", "ts", "event_id"])
        s0 = mk([(1, base, 1), (2, base + pd.Timedelta(minutes=5), 2)])
        s1 = mk([(1, base + pd.Timedelta(minutes=10), 3)])
        s2 = mk([(1, base + pd.Timedelta(hours=2), 4),
                 (2, base + pd.Timedelta(hours=3), 5)])
        return [s0, s1, s2]

    def _run(self, order):
        import tempfile

        import pandas as pd
        import ray

        from ocr_pipeline_ray.stages.streaming import SessionBucket
        out_dir = tempfile.mkdtemp(prefix="sessbucket-")
        a = SessionBucket.remote(30 * 60, out_dir, 0)
        slices = self._slices()
        for seq in order:
            ray.get(a.feed.remote(seq, slices[seq]))
        paths = ray.get(a.drain.remote())
        ray.kill(a)
        rows = pd.concat([pd.read_parquet(p) for p in paths],
                         ignore_index=True).to_dict("records")
        return sorted(rows, key=lambda r: (r["user_id"], r["session_start"]))

    def test_out_of_order_equals_in_order(self, ray_session):
        expect = self._run([0, 1, 2])
        assert len(expect) == 4  # 2 sessions per user (the 2h gap splits)
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            assert self._run(order) == expect
