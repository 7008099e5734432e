"""P10 tensorizer dataflow gates (stages/tensorize.py — reference
ImagePreprocessor, pytorch_mobile/ocr_pipeline.py:350-444).

The learned det/rec/angle models are env-blocked; these tests pin the
REAL part — the input-preparation contract a model would consume:
shape/snap/clamp arithmetic, normalization, padding layout, the
resize kernel's linear-reproduction property, and an exact
un-normalize roundtrip on the no-resize path.
"""

from __future__ import annotations

import numpy as np
import pytest

from ocr_pipeline_ray.stages import media_stub, pixels
from ocr_pipeline_ray.stages import tensorize as tz


def _page(texts=("Total 299 kWh", "second line here")):
    return pixels.render_lines(list(texts))


class TestResize:
    def test_identity_when_size_unchanged(self):
        img = _page()
        out = tz.resize_bilinear(img, *img.shape)
        assert np.array_equal(out, img.astype(np.float32))

    def test_constant_field_preserved(self):
        img = np.full((40, 56), 177, dtype=np.uint8)
        out = tz.resize_bilinear(img, 96, 33)
        assert np.allclose(out, 177.0, atol=1e-4)

    def test_linear_ramp_reproduced_in_interior(self):
        """Bilinear reproduces affine intensity fields exactly — the
        correctness anchor for the kernel (edges are clamped, so the
        assertion covers the interior)."""
        h, w = 64, 80
        ys, xs = np.mgrid[0:h, 0:w]
        img = (ys * 2.0 + xs * 1.0)
        out = tz.resize_bilinear(img, 32, 40)
        nys = (np.arange(32) + 0.5) * (h / 32) - 0.5
        nxs = (np.arange(40) + 0.5) * (w / 40) - 0.5
        expected = nys[:, None] * 2.0 + nxs[None, :] * 1.0
        assert np.allclose(out[1:-1, 1:-1], expected[1:-1, 1:-1], atol=1e-3)


class TestDet:
    def test_shape_snap_and_scale(self):
        img = _page()
        t, scale, det_h, det_w = tz.det_tensor(img)
        assert t.shape == (1, 3, 960, 960)
        assert t.dtype == np.float32
        assert scale == 960 / max(img.shape)
        new_h = max(32, (int(img.shape[0] * scale) // 32) * 32)
        new_w = max(32, (int(img.shape[1] * scale) // 32) * 32)
        assert (det_h, det_w) == (new_h, new_w)
        assert new_h % 32 == 0 and new_w % 32 == 0
        # padding is exactly zero outside the valid region
        assert not t[0, :, new_h:, :].any()
        assert not t[0, :, :, new_w:].any()

    def test_no_resize_roundtrip_exact(self):
        """A 960-max-side /32-divisible page takes the identity resize
        path; un-normalizing the valid region recovers the input
        bit-exactly — pins channel order, mean/std application and pad
        placement in one assertion."""
        rng = np.random.RandomState(3)
        img = rng.randint(0, 256, (960, 704)).astype(np.uint8)
        t, scale, _, _ = tz.det_tensor(img)
        assert scale == 1.0
        valid = t[0, :, :960, :704]
        back = (valid * tz.STD[:, None, None] + tz.MEAN[:, None, None]) * 255.0
        for c in range(3):
            assert np.allclose(back[c], img, atol=1e-3)

    def test_deterministic_fingerprint(self):
        img = _page()
        a, *_ = tz.det_tensor(img)
        b, *_ = tz.det_tensor(img)
        assert tz._crc_tensor(a) == tz._crc_tensor(b)


class TestRecAngle:
    def test_rec_width_formula_and_clamps(self):
        # aspect 10:1 at h=32 → w=320 (unclamped)
        t = tz.rec_tensor(np.zeros((24, 240), dtype=np.uint8))
        assert t.shape == (1, 3, tz.REC_H, tz.REC_W_MAX)
        # narrow crop clamps up to REC_W_MIN: valid region is exactly
        # normalize(0)-valued there, pad stays 0 beyond REC_W_MIN
        narrow = tz.rec_tensor(np.zeros((48, 8), dtype=np.uint8))
        assert narrow[0, :, :, : tz.REC_W_MIN].all()
        assert not narrow[0, :, :, tz.REC_W_MIN:].any()
        # ultra-wide crop clamps down to REC_W_MAX (no pad at all)
        wide = tz.rec_tensor(np.zeros((8, 8000), dtype=np.uint8))
        assert wide[0, 0, 0, tz.REC_W_MAX - 1] != 0.0

    def test_angle_fixed_shape(self):
        t = tz.angle_tensor(_page())
        assert t.shape == (1, 3, tz.ANGLE_H, tz.ANGLE_W)

    def test_line_bands_cover_page(self):
        img = _page(("one", "two", "three"))
        bands = tz.line_bands(img)
        assert len(bands) == 3
        assert all(b.shape[0] == pixels.CELL_H * pixels.SCALE for b in bands)
        assert np.array_equal(np.vstack(bands), img)


class TestStage:
    def test_profile_rows_over_corpus(self, ray_session):
        import ray.data as rd

        from ocr_pipeline_ray.pipelines.modelops import tensorize_profile

        df = tensorize_profile("/root/testdata/sf0.001", sample_n=24)
        assert len(df) > 0
        assert (df["det_h"] % 32 == 0).all()
        assert (df["det_w"] % 32 == 0).all()
        assert (df["rec_n_lines"] >= 1).all()
        assert df["rec_w_max"].between(tz.REC_W_MIN, tz.REC_W_MAX).all()
        # deterministic end to end (same corpus → same fingerprints)
        df2 = tensorize_profile("/root/testdata/sf0.001", sample_n=24)
        assert df.equals(df2)

    def test_stage_fingerprints_match_direct_kernels(self, small_corpus):
        """The stage's profile equals computing the tensors
        directly from the same payloads — no hidden state."""
        import pyarrow.parquet as pq

        media = pq.read_table(f"{small_corpus}/media",
                              columns=["media_ref", "media_kind", "payload"])
        rows = [(r, p) for k, r, p in zip(media["media_kind"].to_pylist(),
                                          media["media_ref"].to_pylist(),
                                          media["payload"].to_pylist())
                if k == "page_raster"][:5]
        assert rows
        import pyarrow as pa
        out = tz.tensorize_media(pa.table({
            "media_ref": pa.array([r for r, _ in rows]),
            "payload": pa.array([p for _, p in rows], type=pa.binary())}))
        got = {r: c for r, c in zip(out["media_ref"].to_pylist(),
                                    out["crc_det"].to_pylist())}
        for ref, payload in rows:
            img = media_stub.decode_raster(payload)
            det, *_ = tz.det_tensor(img)
            assert got[ref] == tz._crc_tensor(det), ref

    def test_degenerate_rasters_are_skipped(self):
        """FPX1 payloads with a zero side used to raise (IndexError for
        (0, 40)/(40, 0), ZeroDivisionError for (0, 0)) and kill the
        whole batch; they are skipped and the normal page's row is
        unchanged."""
        import pyarrow as pa

        img = _page()
        good = media_stub.encode_raster(img)
        degenerate = [media_stub.encode_raster(np.zeros(s, dtype=np.uint8))
                      for s in ((0, 40), (40, 0), (0, 0))]
        alone = tz.tensorize_media(pa.table({
            "media_ref": pa.array(["good"]),
            "payload": pa.array([good], type=pa.binary())}))
        mixed = tz.tensorize_media(pa.table({
            "media_ref": pa.array(["d0", "d1", "good", "d2"]),
            "payload": pa.array(degenerate[:2] + [good] + degenerate[2:],
                                type=pa.binary())}))
        assert mixed.to_pylist() == alone.to_pylist()
        row = mixed.to_pylist()[0]
        det, scale, det_h, det_w = tz.det_tensor(img)
        bands = tz.line_bands(img)
        assert row["media_ref"] == "good"
        assert (row["det_h"], row["det_w"]) == (det_h, det_w)
        assert row["det_scale_q"] == int(np.floor(scale * 1e6 + 0.5))
        assert row["rec_n_lines"] == len(bands) == 2
        assert row["rec_w_max"] == max(
            max(tz.REC_W_MIN, min(int((b.shape[1] / b.shape[0]) * tz.REC_H),
                                  tz.REC_W_MAX)) for b in bands)
        assert row["crc_det"] == tz._crc_tensor(det)
        assert row["crc_rec_fold"] == sum(
            tz._crc_tensor(tz.rec_tensor(b)) for b in bands)
        assert row["crc_angle"] == tz._crc_tensor(tz.angle_tensor(img))
