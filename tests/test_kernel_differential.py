"""Differential gates for the rewritten page-read kernels.

``pixel_stats``, ``read_lines``, ``fix_text``, ``read_line``,
``classify_one``, ``decode_page`` (and its keystream),
``hist_equalize``, ``sharpen3x3`` and ``restore_and_read`` promise to
return exactly what their previous versions returned. Those versions
are frozen in ``tests/reference_kernels.py``; every test here compares
the engine against them with plain ``==`` (floats included), over
generated corpora and over hypothesis inputs. The perfbench oracle
imports ``fix_text`` and ``decode_page`` from the engine, so these
tests are what catches a regression in either.
"""

from __future__ import annotations

import struct
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions import charfix
from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import classify, media_stub, ocr
from ocr_pipeline_ray.stages import pixels as px
from tests import reference_kernels as ref
from tests.oracle import golden

SEEDS = (1, 2, 3, 4)
N_DOCS = 200
STRATEGIES = ("binarize", "equalize+binarize", "bilateral+binarize",
              "sharpen+binarize", "binarize+close")


@pytest.fixture(scope="module")
def corpus():
    """Of ``gen_doc`` seeds 1-4 × docs 0..N_DOCS-1: every text span
    (``spans``), every FPG1 page line and raster truth line
    (``lines``), every non-raster media payload (``payloads``), every
    raster page with its degradation (``rasters``), and ``texts``: the
    spans, FPG1 page lines and digital lines."""
    c = SimpleNamespace(spans=[], lines=[], payloads=[], rasters=[],
                        texts=[])
    for seed in SEEDS:
        for i in range(N_DOCS):
            doc, media = gen_doc(seed, i)
            c.spans.extend(s["text"] for s in doc["spans"] if s["text"])
            for m in media:
                kind, payload = m["media_kind"], m["payload"]
                if kind == "page_raster":
                    deg = (m["degradations"][0]["type"]
                           if m["degradations"] else "none")
                    c.rasters.append((deg, media_stub.decode_raster(payload)))
                    c.lines.extend(t["text"] for t in m["truth_lines"])
                    continue
                c.payloads.append(payload)
                if kind == "page_png":
                    page = [t for t, _, _ in media_stub.decode_page(payload)]
                    c.lines.extend(page)
                    c.texts.extend(page)
                elif kind == "digital_pdf":
                    c.texts.extend(media_stub.decode_digital(payload)
                                   .split("\n"))
    c.texts = c.spans + c.texts
    return c


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
    texts = corpus.texts
    assert len(texts) > 10_000
    bad = [t for t in texts if charfix.fix_text(t) != ref.fix_text(t)]
    assert bad == []


# --------------------------------------------------------------------------
# pixel_stats

def test_corpus_rasters_cover_every_degradation(corpus):
    assert {d for d, _ in corpus.rasters} == {
        "none", "pixel_low_contrast", "pixel_noise", "pixel_blur",
        "pixel_dropout"}


def test_pixel_stats_equals_reference_on_corpus(corpus):
    for deg, img in corpus.rasters:
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
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, want = px.pixel_stats(img), ref.pixel_stats(img)
    if min(h, w) < px.SCALE:               # no whole block: none partial
        assert got["partial_frac"] == 0.0
    assert got == want


# --------------------------------------------------------------------------
# read_lines

def test_read_lines_equals_reference_on_corpus(corpus):
    rejects = 0
    for deg, img in corpus.rasters:
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


def _outcome(fn, *args, **kw):
    """``fn``'s value, or the type of the exception it raised."""
    try:
        return "value", fn(*args, **kw)
    except Exception as e:  # noqa: BLE001 - the type is the outcome
        return "raised", type(e)


# --------------------------------------------------------------------------
# read_line

def test_read_line_equals_reference_on_corpus(corpus):
    assert len(corpus.lines) > 10_000
    for dpi in (300, 600):
        bad = [ln for ln in corpus.lines
               if ocr.read_line(ln, dpi) != ref.read_line(ln, dpi)]
        assert bad == [], dpi


_LINE_WORDS = st.one_of(
    st.sampled_from(_KEYWORDS + ["Total", "Account", "Meter", "lOZS",
                                 "Sll", "OBB", "l|l", "x", "kWh"]),
    st.text(alphabet="0123456789lIoOzZsSgGbB|", min_size=1, max_size=8),
    st.text(alphabet=_CONFUSABLE, max_size=12),
    st.text(alphabet="abcdefhjkmnpqrtuvwxy .,:-", min_size=1, max_size=40))
_lines = st.lists(_LINE_WORDS, max_size=16).map(" ".join)


@settings(max_examples=1500, deadline=None)
@given(_lines, st.sampled_from([300, 600]))
def test_read_line_equals_reference_on_confusables(raw, dpi):
    assert ocr.read_line(raw, dpi) == ref.read_line(raw, dpi)


@pytest.mark.parametrize("n", [0, 1, 119, 120, 121, 300])
@pytest.mark.parametrize("tail", ["", " 42", " lOZS", " abc", " kwh"])
def test_read_line_equals_reference_around_scan_window(n, tail):
    for body in ("x" * n, ("word " * n)[:n]):
        for raw in (body + tail, tail + body):
            for dpi in (300, 600):
                assert ocr.read_line(raw, dpi) == ref.read_line(raw, dpi), \
                    (len(raw), dpi)


# --------------------------------------------------------------------------
# classify_one

def test_classify_one_equals_reference_on_corpus(corpus):
    assert len(corpus.spans) > 5_000
    bad = [t for t in corpus.spans
           if classify.classify_one(t) != ref.classify_one(t)]
    assert bad == []


# ASCII and Unicode whitespace (what ``\s`` and ``str.split`` share)
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000" \
    "\u2028\u2029\u202f\u3000"
_spans = st.lists(st.one_of(
    st.text(alphabet=_CONFUSABLE + _WHITESPACE, max_size=20),
    st.sampled_from(["<a href='x'>", "</a>", "<p>", "<br/>", "<b>",
                     "</b>", "<", ">", "\u200b", "Electr1c1ty"]),
    st.text(max_size=10)), max_size=12).map("".join)


@settings(max_examples=1500, deadline=None)
@given(_spans)
def test_classify_one_equals_reference_on_any_text(raw):
    assert classify.classify_one(raw) == ref.classify_one(raw)


# --------------------------------------------------------------------------
# decode_page and its keystream

def test_keystream_equals_reference():
    for seed in (0, 1, 7, 2**31 - 1, 2**64 - 1):
        for n in [*range(0, 70), 255, 256, 257, 4096]:
            assert media_stub._keystream(seed, n) == ref._keystream(seed, n)


def test_decode_page_equals_reference_on_corpus(corpus):
    pages = [p for p in corpus.payloads
             if media_stub.classify_payload(p) == "page"]
    assert len(pages) > 1_000
    for p in pages:
        assert media_stub.decode_page(p) == ref.decode_page(p)


def _torn_pages() -> list[bytes]:
    page = media_stub.encode_page(
        [("Total due 42 EUR", 3, 4), ("Meter lOZS", 9, 30)], seed=11)
    seed = 5
    head = media_stub.MAGIC_PAGE + struct.pack("<Q", seed)

    def scrambled(body: bytes) -> bytes:
        ks = ref._keystream(seed, len(body))
        return head + bytes(a ^ b for a, b in zip(body, ks))

    torn = [page[:n] for n in range(len(page))]          # every cut
    torn += [b"", b"FPG1", media_stub.MAGIC_PAGE + b"\x00" * 7]
    torn += [
        scrambled(struct.pack("<I", 2**31)),              # absurd count
        scrambled(struct.pack("<I", 1) + struct.pack("<iiI", 0, 0, 999)
                  + b"abc"),                              # line too long
        scrambled(struct.pack("<I", 1) + struct.pack("<iiI", 0, 0, 2)
                  + b"\xc3("),                            # bad utf-8
        scrambled(struct.pack("<I", 0)),                  # no lines
        scrambled(struct.pack("<I", 1) + struct.pack("<iiI", -4, 7, 0)),
    ]
    rng = np.random.RandomState(3)
    torn += [head + rng.bytes(n) for n in (1, 3, 4, 15, 16, 17, 64)]
    return torn


def test_decode_page_torn_payloads_match_reference():
    for p in _torn_pages():
        assert _outcome(media_stub.decode_page, p) \
            == _outcome(ref.decode_page, p), p


def test_torn_pages_read_as_corrupt_rows():
    for p in _torn_pages():
        got = ocr.ocr_page_cascade(p)
        if _outcome(ref.decode_page, p)[0] == "raised":
            assert got == ("", 0.0, "corrupt", "none"), p


def test_page_cascade_equals_oracle_on_corpus(corpus):
    """Every FPG1 / digital / blank / corrupt payload through the whole
    300→600 cascade, against the oracle's independent cascade."""
    for p in corpus.payloads:
        assert ocr.ocr_page_cascade(p) \
            == golden._cascade(p, ocr.TAU_ENHANCE), p[:4]


# --------------------------------------------------------------------------
# hist_equalize, sharpen3x3, restore_and_read

def _random_images(n: int, seed: int = 0):
    rng = np.random.RandomState(seed)
    for _ in range(n):
        h, w = rng.randint(1, 60, size=2)
        img = rng.randint(0, 256, size=(h, w)).astype(np.uint8)
        img[rng.rand(h, w) < 0.5] = 255
        yield img


def test_equalize_and_sharpen_equal_reference(corpus):
    images = [img for _, img in corpus.rasters] + list(_random_images(60))
    images += [np.full((24, 9), v, np.uint8) for v in (0, 128, 255)]
    images.append(np.zeros((0, 0), np.uint8))
    for img in images:
        got, want = px.hist_equalize(img), ref.hist_equalize(img)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if img.size:
            got, want = px.sharpen3x3(img), ref.sharpen3x3(img)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_restore_and_read_equals_reference_on_corpus(corpus):
    assert any(d == "pixel_noise" for d, _ in corpus.rasters)
    for deg, img in corpus.rasters:
        assert px.restore_and_read(img) == ref.restore_and_read(img), deg


def test_restore_and_read_equals_reference_per_strategy(corpus):
    """Every strategy forced on pages of every degradation, plus
    strategy strings that chain kernels the router never chains."""
    seen: dict[str, int] = {}
    pages = []
    for deg, img in corpus.rasters:
        if seen.get(deg, 0) < 3:
            seen[deg] = seen.get(deg, 0) + 1
            pages.append((deg, img))
    chains = ("bilateral+equalize+binarize", "equalize+sharpen+binarize",
              "bilateral+sharpen+binarize+close",
              "equalize+binarize+close", "none")
    for deg, img in pages:
        for strategy in STRATEGIES + chains:
            assert px.restore_and_read(img, strategy) \
                == ref.restore_and_read(img, strategy), (deg, strategy)


def _odd_rasters() -> list[np.ndarray]:
    rng = np.random.RandomState(5)
    page = px.render_lines(["Total 42", "kWh 7"])
    out = [np.zeros((h, w), np.uint8)
           for h, w in [(0, 0), (0, 9), (24, 0), (48, 0)]]
    for h, w in [(1, 1), (25, 9), (24, 10), (23, 18), (48, 4), (24, 3),
                 (24, 17), (72, 6), (24, 18)]:
        out.append(rng.randint(0, 256, size=(h, w)).astype(np.uint8))
        for v in (0, 128, 255):                     # one level
            out.append(np.full((h, w), v, np.uint8))
    out += [page, page[:-1], page[:, :-1], page[:, :-3], page[:24],
            px.degrade_noise(page, 1), px.degrade_low_contrast(page)]
    return out


def test_restore_and_read_odd_shapes_match_reference():
    for img in _odd_rasters():
        assert _outcome(px.restore_and_read, img) \
            == _outcome(ref.restore_and_read, img), img.shape


def test_odd_rasters_give_the_reference_status_row():
    """A raster the reference cannot read is a corrupt row; one it reads
    as no text is a blank row; any other page reads ok, or low_conf when
    the reference's read still rejects a cell."""
    for img in _odd_rasters():
        got = ocr.ocr_page_cascade(media_stub.encode_raster(img))
        kind, want = _outcome(ref.restore_and_read, img)
        if kind == "raised":
            assert got == ("", 0.0, "corrupt", "none"), img.shape
        elif not any(ln.strip() for ln in want[0]):
            assert got == ("", 0.0, "blank", "none"), img.shape
        else:
            assert got[2] == ("low_conf" if ref.restore_rejects(img)
                              else "ok"), img.shape


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 24), st.integers(0, 2**31 - 1))
def test_restore_and_read_equals_reference_on_random_pages(rows, cols, seed):
    rng = np.random.RandomState(seed)
    shape = (rows * px.CELL_H * px.SCALE, cols * px.SCALE)
    img = rng.randint(0, 256, size=shape).astype(np.uint8)
    img[rng.rand(*shape) < 0.6] = 255
    assert px.restore_and_read(img) == ref.restore_and_read(img)
