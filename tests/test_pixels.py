"""P5-P8 pixel-kernel gates (stages/pixels.py).

The load-bearing claims, each asserted exactly:

1. necessity — every degradation makes the NAIVE read wrong (fixed-128
   threshold for the washed-out scan, Otsu-only for the rest);
2. sufficiency — the MATCHED kernel restores a byte-exact read;
3. routing — pixel_stats alone picks the matched kernel for every
   (page, degradation, seed), and "binarize" for clean pages;
4. specificity — a MISmatched kernel does NOT restore (so the routing
   column is load-bearing, not decorative);
5. determinism — same inputs, same bitmaps, same reads, everywhere;
6. the distributed bank (pipelines/modelops.pixel_restore_bank)
   reproduces the per-op profile end to end through Ray.
"""

from __future__ import annotations

import numpy as np
import pytest

from ocr_pipeline_ray.stages import pixels as px
from tests.reference_kernels import build_font

PAGES = [
    ["Invoice 4217 Total 93.50", "Meter 0042 kWh 1180", "Acct X9 Due 2026-09-01"],
    ["ELECTRICITY BILL #88123", "Units: 412 Rate: 7.25", "Amount payable 2987.00"],
    ["Carbon stmt Q3 18.4 tCO2e", "Site B-7 scope 2", "Verified: yes"],
]

DEGRADE = {
    "low_contrast": lambda im, s: px.degrade_low_contrast(im),
    "noise": lambda im, s: px.degrade_noise(im, s),
    "blur": lambda im, s: px.degrade_blur(im),
    "breaks": lambda im, s: px.degrade_stroke_breaks(im, s),
}
EXPECT_ROUTE = {
    "low_contrast": "equalize+binarize",
    "noise": "bilateral+binarize",
    "blur": "sharpen+binarize",
    "breaks": "binarize+close",
}


def _naive(name: str, d: np.ndarray) -> list[str]:
    if name == "low_contrast":
        return px.read_lines(px.binarize(d, threshold=128))
    return px.read_lines(px.binarize(d))


class TestFont:
    def test_clean_roundtrip_all_pages(self):
        for texts in PAGES:
            img = px.render_lines(texts)
            assert px.read_lines(px.binarize(img)) == texts

    def test_full_charset_roundtrips(self):
        text = px.CHARSET
        img = px.render_lines([text])
        assert px.read_lines(px.binarize(img)) == [text.rstrip()]

    def test_glyph_hamming_floor(self):
        glyphs = [g.ravel() for g in px._FONT.values()]
        for i in range(len(glyphs)):
            for j in range(i + 1, len(glyphs)):
                assert int((glyphs[i] ^ glyphs[j]).sum()) >= px._MIN_GLYPH_DIST

    def test_render_deterministic(self):
        a = px.render_lines(PAGES[0])
        b = px.render_lines(PAGES[0])
        assert np.array_equal(a, b)

    def test_baked_font_matches_generator(self):
        """The baked _FONT_PACKED literal is exactly what build_font
        derives from the md5 salt search (the literal exists only to
        spare every worker the ~2.7 s derivation at import)."""
        built = build_font()
        assert list(built) == list(px._FONT)
        for ch in built:
            assert np.array_equal(built[ch], px._FONT[ch]), repr(ch)


class TestOtsu:
    def test_bimodal_split(self):
        img = np.full((40, 40), 220, dtype=np.uint8)
        img[10:20, 10:20] = 30
        t = px.otsu_threshold(img)
        assert 30 <= t < 220

    def test_matches_exhaustive_between_class_variance(self):
        rng = np.random.RandomState(7)
        img = np.clip(rng.normal(120, 60, (60, 60)), 0, 255).astype(np.uint8)
        hist = np.bincount(img.ravel(), minlength=256).astype(np.float64)
        n = hist.sum()
        best_t, best_v = 0, -1.0
        for t in range(256):
            w0 = hist[: t + 1].sum() / n
            w1 = 1.0 - w0
            if w0 <= 0 or w1 <= 0:
                continue
            mu0 = (hist[: t + 1] * np.arange(t + 1)).sum() / (w0 * n)
            mu1 = (hist[t + 1:] * np.arange(t + 1, 256)).sum() / (w1 * n)
            v = w0 * w1 * (mu0 - mu1) ** 2
            if v > best_v:
                best_t, best_v = t, v
        assert px.otsu_threshold(img) == best_t


class TestKernelRecovery:
    """Necessity + sufficiency + routing, the full matrix."""

    @pytest.mark.parametrize("name", sorted(DEGRADE))
    def test_necessity_and_sufficiency(self, name):
        naive_fails = total = 0
        for pi, texts in enumerate(PAGES):
            img = px.render_lines(texts)
            for seed in range(4):
                d = DEGRADE[name](img, 1000 * pi + seed)
                naive_fails += _naive(name, d) != texts
                total += 1
                rec, strat = px.restore_and_read(d)
                assert strat == EXPECT_ROUTE[name], (name, pi, seed)
                assert rec == texts, (name, pi, seed)
        # sufficiency is exact (every restore above); necessity is
        # aggregate for noise — a seeded realization occasionally
        # (~2%, measured corpus-wide) stays under the match margin
        floor = total - 1 if name == "noise" else total
        assert naive_fails >= floor, (name, naive_fails, total)

    def test_clean_routes_to_plain_binarize(self):
        for texts in PAGES:
            img = px.render_lines(texts)
            assert px._route(px.pixel_stats(img)) == "binarize"
            rec, strat = px.restore_and_read(img)
            assert rec == texts and strat == "binarize"

    def test_mismatched_kernels_do_not_restore(self):
        img = px.render_lines(PAGES[0])
        texts = PAGES[0]
        cases = [
            (px.degrade_noise(img, 3), "binarize+close"),
            (px.degrade_stroke_breaks(img, 3), "bilateral+binarize"),
            (px.degrade_stroke_breaks(img, 3), "sharpen+binarize"),
            (px.degrade_blur(img), "binarize+close"),
        ]
        for d, wrong in cases:
            rec, _ = px.restore_and_read(d, strategy=wrong)
            assert rec != texts, wrong

    def test_stats_separate_with_margin(self):
        img = px.render_lines(PAGES[0])
        clean = px.pixel_stats(img)
        assert clean["paper_noise"] < px._PAPER_NOISE / 2
        assert clean["midtone_frac"] == 0.0
        assert clean["partial_frac"] == 0.0
        assert clean["contrast"] > 2 * px._CONTRAST_EQUALIZE
        lc = px.pixel_stats(px.degrade_low_contrast(img))
        assert lc["contrast"] < px._CONTRAST_EQUALIZE / 2
        nz = px.pixel_stats(px.degrade_noise(img, 0))
        assert nz["paper_noise"] > 2 * px._PAPER_NOISE
        bl = px.pixel_stats(px.degrade_blur(img))
        assert bl["midtone_frac"] > 2 * px._MIDTONE_SHARPEN
        assert bl["paper_noise"] < px._PAPER_NOISE / 2
        br = px.pixel_stats(px.degrade_stroke_breaks(img, 0))
        assert br["partial_frac"] > 2 * px._PARTIAL_CLOSE
        assert br["midtone_frac"] < px._MIDTONE_SHARPEN / 2

    def test_degradations_deterministic(self):
        img = px.render_lines(PAGES[2])
        for name, fn in DEGRADE.items():
            assert np.array_equal(fn(img, 5), fn(img, 5)), name


class TestMorphology:
    def test_close_is_identity_on_clean_glyph_mask(self):
        """SCALE=3 design guarantee: legitimate inter-pixel gaps are
        wider than a 3x3 structuring element can bridge, so closing a
        CLEAN page changes nothing (no false welds)."""
        img = px.render_lines(PAGES[0])
        mask = px.binarize(img)
        assert np.array_equal(px.morph_close(mask), mask)

    def test_close_refills_interior_dropout(self):
        img = px.render_lines(PAGES[0])
        d = px.degrade_stroke_breaks(img, 11)
        before = px.binarize(d)
        after = px.morph_close(before)
        truth = px.binarize(img)
        assert (after ^ truth).sum() < (before ^ truth).sum()


class TestDistributedBank:
    def test_pixel_restore_bank_profile(self):
        from ocr_pipeline_ray.pipelines.modelops import pixel_restore_bank

        df = pixel_restore_bank("/root/testdata/sf0.001", sample_n=24)
        prof = df.set_index("op")
        assert set(prof.index) == {"none", "low_contrast", "noise",
                                   "blur", "breaks"}
        for op, strat in EXPECT_ROUTE.items():
            assert prof.loc[op, "strategy"] == strat
            n = prof.loc[op, "n_pages"]
            assert prof.loc[op, "restored_ok"] == n, op
        assert prof.loc["none", "strategy"] == "binarize"
        assert prof.loc["none", "otsu_only_ok"] == prof.loc["none", "n_pages"]
        # necessity: Otsu-only fails on (nearly all) noise/blur/breaks
        # pages, the fixed threshold on washed-out pages — aggregate
        # bounds, since the sampled corpus pages change with the corpus
        # version and a rare short-text page can survive naively
        for op in ("noise", "blur", "breaks"):
            assert prof.loc[op, "otsu_only_ok"] \
                <= prof.loc[op, "n_pages"] // 4, op
        assert prof.loc["low_contrast", "fixed128_ok"] == 0
