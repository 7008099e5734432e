"""Differential gates for the rewritten page-read kernels.

``pixel_stats``, ``read_lines`` and ``fix_text`` promise to return
exactly what their previous float64 / per-column / 13-rule versions
returned. Those versions are frozen in ``tests/reference_kernels.py``;
every test here compares the engine against them with plain ``==``
(floats included), over generated corpora and over hypothesis inputs.
The perfbench oracle imports ``fix_text`` from the engine, so these
tests are what catches a regression in it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions import charfix
from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages import pixels as px
from tests import reference_kernels as ref

SEEDS = (1, 2, 3, 4)
N_DOCS = 200


@pytest.fixture(scope="module")
def corpus():
    """Every text span, page line and digital line, and every raster page
    (with its degradation), of ``gen_doc`` seeds 1-4 × docs 0..N_DOCS-1."""
    texts: list[str] = []
    rasters: list[tuple[str, np.ndarray]] = []
    for seed in SEEDS:
        for i in range(N_DOCS):
            doc, media = gen_doc(seed, i)
            texts.extend(s["text"] for s in doc["spans"] if s["text"])
            for m in media:
                kind, payload = m["media_kind"], m["payload"]
                if kind == "page_png":
                    texts.extend(t for t, _, _ in
                                 media_stub.decode_page(payload))
                elif kind == "digital_pdf":
                    texts.extend(media_stub.decode_digital(payload)
                                 .split("\n"))
                elif kind == "page_raster":
                    deg = (m["degradations"][0]["type"]
                           if m["degradations"] else "none")
                    rasters.append((deg, media_stub.decode_raster(payload)))
    return texts, rasters


# --------------------------------------------------------------------------
# fix_text

_KEYWORDS = ["Electr1c1ty", "ElectrIcIty", "electricity", "c0nsumpt1on",
             "Konsumpti0n", "CONSUMPTION", "COZE", "c0ze", "co2e", "C02E",
             "coz3", "Kwh", "kwh", "KWH", "kWh"]
_CONFUSABLE = "0123456789lIoOzZsSgGbB|eEcCkKwWhHnNuUmMpPtTyYr .,-:/\n"
_fix_inputs = st.lists(
    st.one_of(st.sampled_from(_KEYWORDS),
              st.text(alphabet=_CONFUSABLE, max_size=8)),
    max_size=12).map("".join)


@settings(max_examples=1500, deadline=None)
@given(_fix_inputs)
def test_fix_text_equals_reference_on_confusables(s):
    assert charfix.fix_text(s) == ref.fix_text(s)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_fix_text_equals_reference_on_any_text(s):
    assert charfix.fix_text(s) == ref.fix_text(s)


def test_fix_text_equals_reference_on_corpus(corpus):
    texts, _ = corpus
    assert len(texts) > 10_000
    bad = [t for t in texts if charfix.fix_text(t) != ref.fix_text(t)]
    assert bad == []


# --------------------------------------------------------------------------
# pixel_stats

def test_corpus_rasters_cover_every_degradation(corpus):
    _, rasters = corpus
    assert {d for d, _ in rasters} == {
        "none", "pixel_low_contrast", "pixel_noise", "pixel_blur",
        "pixel_dropout"}


def test_pixel_stats_equals_reference_on_corpus(corpus):
    _, rasters = corpus
    for deg, img in rasters:
        assert px.pixel_stats(img) == ref.pixel_stats(img), deg


@pytest.mark.parametrize("degrade", [
    lambda im, s: im,
    lambda im, s: px.degrade_low_contrast(im),
    lambda im, s: px.degrade_noise(im, s),
    lambda im, s: px.degrade_noise(im, s, sigma=20.0),
    lambda im, s: px.degrade_blur(im),
    lambda im, s: px.degrade_stroke_breaks(im, s),
], ids=["clean", "low_contrast", "noise", "light_noise", "blur", "dropout"])
def test_pixel_stats_equals_reference_per_degradation(degrade):
    lines = ["Invoice 4217 Total 93.50", "Meter 0042 kWh 1180", "x"]
    for seed in range(4):
        img = degrade(px.render_lines(lines[:seed + 1]), seed)
        assert px.pixel_stats(img) == ref.pixel_stats(img)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(0, 2**31 - 1))
def test_pixel_stats_equals_reference_on_random_images(h, w, seed):
    rng = np.random.RandomState(seed)
    img = rng.randint(0, 256, size=(h, w)).astype(np.uint8)
    img[rng.rand(h, w) < 0.5] = 255        # mostly paper, like a page
    got, want = px.pixel_stats(img), ref.pixel_stats(img)
    if min(h, w) < px.SCALE:               # no whole block: both are nan
        assert np.isnan(got.pop("partial_frac"))
        assert np.isnan(want.pop("partial_frac"))
    assert got == want


# --------------------------------------------------------------------------
# read_lines

def test_read_lines_equals_reference_on_corpus(corpus):
    _, rasters = corpus
    rejects = 0
    for deg, img in rasters:
        for mask in (px.binarize(img), px.binarize(img, 128)):
            got = px.read_lines(mask)
            assert got == ref.read_lines(mask), deg
            rejects += sum(ln.count("?") for ln in got)
            assert px.read_lines(mask, max_err=3) \
                == ref.read_lines(mask, max_err=3), deg
    assert rejects > 0          # the unrestored noisy pages reject cells


def test_read_lines_equals_reference_on_logical_masks():
    rng = np.random.RandomState(7)
    for h, w in [(8, 4), (8, 5), (7, 30), (16, 6), (16, 17), (40, 61),
                 (0, 12), (24, 0)]:
        mask = rng.rand(h, w) < 0.4
        for max_err in (None, 0, 6, 35):
            assert px.read_lines(mask, max_err=max_err, physical=False) \
                == ref.read_lines(mask, max_err=max_err, physical=False), \
                (h, w, max_err)


def test_read_lines_narrower_than_one_cell():
    mask = np.ones((px.CELL_H * px.SCALE * 2, 3 * px.SCALE), dtype=bool)
    assert px.read_lines(mask) == ref.read_lines(mask) == ["", ""]


def test_read_lines_rejects_bad_physical_shape_like_reference():
    mask = np.zeros((25, 9), dtype=bool)
    with pytest.raises(ValueError):
        ref.read_lines(mask)
    with pytest.raises(ValueError):
        px.read_lines(mask)
