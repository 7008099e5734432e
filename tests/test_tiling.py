"""P9 patch-tiled overlap-blend dataflow (stages/tiling.py) — the
reference's pad → overlapping patches → linear-ramp blend → un-pad
machinery (jax_denoising_adapter.py:237-348) with P5-P8 kernels as the
per-patch model. The single-array form, ``tiled_apply``, lives in
tests/reference_kernels.py; the distributed halves must equal it. No
Ray needed: pure array math."""

import numpy as np
import pytest

from ocr_pipeline_ray.stages import pixels as px
from ocr_pipeline_ray.stages import tiling as tl
from tests.reference_kernels import tiled_apply


def _page(n_lines: int = 8, width: int = 40) -> tuple[np.ndarray, list[str]]:
    lines = [f"line {i} of the tiled page test corpus"[:width]
             for i in range(n_lines)]
    return px.render_lines(lines), [ln.rstrip() for ln in lines]


class TestBlendMachinery:
    def test_identity_kernel_is_exact_any_shape(self):
        """Weight normalization must be exact: an identity per-patch
        model makes the tiled pipeline a no-op, for page sizes below,
        at, and off the patch grid — including a 10-px side, shorter
        than one patch — on both the single-array path and the
        distributed halves."""
        rng = np.random.RandomState(3)
        for h, w in [(20, 31), (48, 48), (50, 97), (100, 100), (131, 77),
                     (10, 31), (10, 97), (97, 10)]:
            img = rng.randint(0, 256, (h, w)).astype(np.uint8)
            out = tiled_apply(img, lambda t: t)
            np.testing.assert_array_equal(out, img)
            np.testing.assert_array_equal(
                tl.blend_patches(tl.explode_patches(img)), img)

    def test_constant_image_stays_constant_through_bilateral(self):
        """No seam banding: a flat page through a nonlinear kernel must
        come out flat (any ripple = broken weight accounting)."""
        img = np.full((100, 130), 170, dtype=np.uint8)
        out = tiled_apply(img, px.bilateral)
        assert np.unique(out).tolist() == [170]

    def test_explode_blend_equals_tiled_apply(self):
        """The distributed halves (explode_patches → kernel per row →
        blend_patches) must reproduce the single-array path exactly."""
        img, _ = _page()
        rows = tl.explode_patches(img)
        for r in rows:
            tile = np.asarray(r["tile"], dtype=np.uint8) \
                .reshape(tl.PATCH, tl.PATCH)
            r["tile"] = px.bilateral(tile).ravel()
        via_rows = tl.blend_patches(rows)
        via_apply = tiled_apply(img, px.bilateral)
        np.testing.assert_array_equal(via_rows, via_apply)

    def test_matches_untiled_kernel_away_from_seams(self):
        """Away from tile borders the tiled output EQUALS the untiled
        kernel exactly; across seams the overlap ramp keeps the
        deviation far below anything glyph-visible."""
        img = px.degrade_noise(_page()[0], seed=11)
        untiled = px.bilateral(img)
        tiled = tiled_apply(img, px.bilateral)
        h, w = img.shape
        stride = tl.PATCH - tl.OVERLAP
        radius = 2  # px.bilateral window radius
        edge_dist_y = np.full(h, 10_000)
        edge_dist_x = np.full(w, 10_000)
        for y0 in range(0, h + tl.PATCH, stride):
            for e in (y0, y0 + tl.PATCH - 1):
                edge_dist_y = np.minimum(edge_dist_y,
                                         np.abs(np.arange(h) - e))
        for x0 in range(0, w + tl.PATCH, stride):
            for e in (x0, x0 + tl.PATCH - 1):
                edge_dist_x = np.minimum(edge_dist_x,
                                         np.abs(np.arange(w) - e))
        interior = (edge_dist_y[:, None] >= radius) \
            & (edge_dist_x[None, :] >= radius)
        # also exclude the image's own border band: the tiled path
        # reflect-pads to the grid while the untiled kernel edge-pads
        # at the true border — a padding-semantics difference, not a
        # seam artifact
        border_y = (np.arange(h) >= radius) & (np.arange(h) < h - radius)
        border_x = (np.arange(w) >= radius) & (np.arange(w) < w - radius)
        interior &= border_y[:, None] & border_x[None, :]
        assert interior.mean() > 0.5  # the claim covers most of the page
        np.testing.assert_array_equal(tiled[interior], untiled[interior])
        diff = np.abs(tiled.astype(int) - untiled.astype(int))
        assert diff.max() <= 40  # seam pixels: bounded cross-fade error


class TestTiledRestore:
    def test_noise_recovery_through_tiles(self):
        """The P6 claim survives tiling: a sigma-90 noisy page that the
        Otsu-only read gets WRONG reads back exactly after the tiled
        2-pass bilateral — the page is larger than one patch in both
        axes, so real seams are crossed."""
        img, expect = _page(n_lines=8, width=40)
        assert img.shape[0] > tl.PATCH and img.shape[1] > tl.PATCH
        for seed in (5, 23, 91):
            noisy = px.degrade_noise(img, seed=seed)
            assert px.read_lines(px.binarize(noisy)) != expect
            restored = tiled_apply(
                noisy, lambda t: px.bilateral(px.bilateral(t)))
            assert px.read_lines(px.binarize(restored)) == expect

    def test_overlap_blending_is_necessary(self):
        """overlap=0 (disjoint blocks, no cross-fade) leaves larger
        seam error vs the untiled kernel than the overlap ramp does —
        the blend machinery earns its keep."""
        img = px.degrade_noise(_page()[0], seed=7)
        untiled = px.bilateral(img)

        def err(out):
            return np.abs(out.astype(int) - untiled.astype(int)).sum()

        blocky = tiled_apply(img, px.bilateral, overlap=0)
        blended = tiled_apply(img, px.bilateral)
        assert err(blended) < err(blocky)

    def test_bad_overlap_rejected(self):
        img, _ = _page(2)
        with pytest.raises(AssertionError):
            tiled_apply(img, lambda t: t, patch=32, overlap=32)
