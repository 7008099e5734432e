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
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_pipeline_ray.functions import charfix
from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import classify, media_stub, ocr, reassemble
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

# Characters Python's IGNORECASE folds onto ASCII letters (the Kelvin
# sign onto k, long s onto s, dotless i and dotted I onto i), and the
# F3 keywords where they touch ``|``, digits and each other.
_FOLDS = ["\u212a", "\u017f", "\u0131", "\u0130"]
_F3_EDGES = ["\u212awh", "\u212aWH", "\u212aonsumpti0n", "con\u017fumption",
             "c0n\u017fumpt1on", "electr\u0131c\u0131ty", "ELECTR\u0130C\u0130TY",
             "\u017fwh", "\u0131wh", "\u0130kwh", "kwh|", "|kwh", "|kwh|",
             "kwh1", "1kwh", "12kwh 3", "co2e|5", "5|c0ze", "Electr1c1ty|5",
             "|Consumpti0n|", "kwhkwh", "kwh|kwh", "c02e2", "coz3|",
             "Electricity", "e", "c", "k", "|", "\u212a"]

_fix_inputs = st.lists(
    st.one_of(st.sampled_from(_KEYWORDS + _F3_EDGES),
              st.text(alphabet=_CONFUSABLE + "".join(_FOLDS), max_size=8)),
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


def test_f3_on_case_folds_and_separators():
    for edge in _F3_EDGES:
        for text in (edge, f" {edge} ", f"7{edge}7", f"{edge}|{edge}"):
            assert charfix.fix_text(text) == ref.fix_text(text), text
            want = text
            for pat, repl in ref._F3_RULES:
                want = pat.sub(repl, want)
            assert charfix._F3_RULE.sub(charfix._f3_word, text) == want, text


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


def _cells_mask(cells: list[np.ndarray]) -> np.ndarray:
    """One logical line holding each (GLYPH_H·GLYPH_W,) 0/1 cell."""
    mask = np.zeros((px.CELL_H, px.CELL_W * len(cells)), dtype=bool)
    for i, cell in enumerate(cells):
        mask[:px.GLYPH_H, i * px.CELL_W:i * px.CELL_W + px.GLYPH_W] = \
            cell.reshape(px.GLYPH_H, px.GLYPH_W)
    return mask


def _physical(mask: np.ndarray) -> np.ndarray:
    return np.kron(mask, np.ones((px.SCALE, px.SCALE), dtype=bool))


def _glyph_matches(cells: list[np.ndarray], max_err: int) -> None:
    mask = _cells_mask(cells)
    got = px.read_lines(mask, max_err=max_err, physical=False)
    assert got == ref.read_lines(mask, max_err=max_err, physical=False)
    assert px.read_lines(_physical(mask), max_err=max_err) == got


def test_read_lines_cell_at_exactly_max_err():
    """Cells ``max_err`` flips from their glyph read as it; one flip
    more reads as the reference reads it ('?' or another glyph)."""
    font = px._FONT_STACK.astype(bool)
    rng = np.random.RandomState(11)
    default = px._MIN_GLYPH_DIST // 2 - 1
    for max_err in (0, 3, default, 35):
        cells, at = [], []
        for g in rng.choice(len(font), size=12, replace=False):
            for flips in (max_err, max_err + 1):
                cell = font[g].copy()
                cell[rng.choice(cell.size, min(flips, cell.size),
                                replace=False)] ^= True
                cells.append(cell)
            at.append((g, cells[-2]))
        _glyph_matches(cells, max_err)
        got = px.read_lines(_cells_mask([c for _g, c in at]),
                            max_err=max_err, physical=False)[0]
        if max_err < px._MIN_GLYPH_DIST // 2:
            assert got == "".join(px._FONT_CHARS[g] for g, _c in at).rstrip()


def _equidistant_cell(a: int, b: int) -> np.ndarray:
    """A cell half way from glyph ``a`` to glyph ``b`` (their Hamming
    distance is even): ``a`` with half of the pixels where they differ
    set as in ``b``."""
    font = px._FONT_STACK.astype(bool)
    diff = np.flatnonzero(font[a] != font[b])
    cell = font[a].copy()
    cell[diff[:len(diff) // 2]] = font[b][diff[:len(diff) // 2]]
    return cell


def test_read_lines_cell_equidistant_from_two_glyphs():
    """A tie goes to the first glyph in CHARSET order, as in the
    reference, at a margin that accepts the tie and one that rejects
    it."""
    font = px._FONT_STACK.astype(np.int64)
    d = (font[:, None, :] != font[None, :, :]).sum(axis=2)
    pairs = [(a, b) for a in range(len(font)) for b in range(a + 1, len(font))
             if d[a, b] % 2 == 0][:40]
    assert pairs
    cells = []
    for a, b in pairs:
        cell = _equidistant_cell(a, b)
        dist = (font != cell).sum(axis=1)
        assert dist[a] == dist[b] == d[a, b] // 2
        cells.append(cell)
        if dist.min() == dist[a]:       # a real tie for the nearest glyph
            for max_err in (d[a, b] // 2, d[a, b] // 2 - 1):
                got = px.read_lines(_cells_mask([cell]), max_err=max_err,
                                    physical=False)[0]
                want = px._FONT_CHARS[np.argmin(dist)]
                assert got == (want.rstrip() if max_err >= dist[a] else "?")
    for max_err in (6, 7, 8, 10):
        _glyph_matches(cells, max_err)


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
@pytest.mark.parametrize("tail", ["", " 42", " lOZS", " abc", " kwh", " l"])
def test_read_line_equals_reference_around_scan_window(n, tail):
    """Words, digits and one-letter confusables filling the 300-DPI
    window, to one char short of it and one char past it."""
    for unit in ("x", "word ", "1", "42 ", "7 l ", "0|", "l ", "12 | "):
        body = (unit * n)[:n]
        for raw in (body + tail, tail + body):
            for dpi in (300, 600):
                assert ocr.read_line(raw, dpi) == ref.read_line(raw, dpi), \
                    (len(raw), dpi)


# Lines at the edge of the clean-line exit: one-char confusable words
# (letters, ``|``, digits), all-digit words, ``|``-joined words.
_EXIT_EDGES = ["l", "I", "|", "o", "O", "s", "S", "g", "B", "z", "Z",
               "l 42", "a l b", "I 1", "| 5", "0 O", "x s 7", "12 l 34",
               "42", "0", "1234 5678", "Total 93.50", "07 2026", "00",
               "12|34", "|12", "12|", "1|", "|1", "a|b", "l|l", "||",
               "kWh|12", "Total|42", "4|2", "4 | 2", "1l", "l1", "Il",
               "O0", "ss 12", "lOZS", "Meter 0042 kWh 1180 l"]


def test_read_line_at_the_clean_exit_edges():
    for edge in _EXIT_EDGES:
        for raw in (edge, f"Total {edge}", f"{edge} due", f"{edge}|{edge}"):
            for dpi in (300, 600):
                assert ocr.read_line(raw, dpi) == ref.read_line(raw, dpi), \
                    (raw, dpi)


_exit_lines = st.lists(st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=6),
    st.sampled_from(list("lIoOzZsSgGbB|") + ["a", "kWh", "x1", "Total"])),
    max_size=20).flatmap(
    lambda ws: st.sampled_from([" ", "|", ". ", ""]).map(
        lambda sep: sep.join(ws)))


@settings(max_examples=1000, deadline=None)
@given(_exit_lines, st.sampled_from([300, 600]))
def test_read_line_equals_reference_on_digit_lines(raw, dpi):
    assert ocr.read_line(raw, dpi) == ref.read_line(raw, dpi)


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


# --------------------------------------------------------------------------
# rank_spans (the doc-local rank) and the shuffle tail's _rank_bucket

# doc_ids from ASCII case to the astral plane: Arrow sorts strings by
# their UTF-8 bytes, pandas by their code points
_DOC_IDS = ["d1", "d10", "d2", "D1", "", "z", "\u00e9", "\u00ff", "\u0100",
            "\uffff", "\U0001f600"]
_rank_rows = st.lists(st.tuples(
    st.sampled_from(_DOC_IDS),
    st.one_of(st.none(), st.integers(-2, 4)),         # duplicate offsets
    st.sampled_from(["text", "media"]),
    st.floats(0.0, 1.0),
    st.sampled_from(["ok", "low_conf"])), max_size=40)


def _span_table(rows, cuts: list[int]) -> pa.Table:
    """Span rows in ``filter_keep``'s schema (``text`` names the input
    row, so a reordering of equal keys shows), cut into chunks at
    ``cuts``."""
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.string()),
        "kind": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([f"row {i}" for i in range(len(rows))], pa.string()),
        "media_ref": pa.array([None if r[2] == "text" else f"m{i}"
                               for i, r in enumerate(rows)], pa.string()),
        "offset": pa.array([r[1] for r in rows], pa.int32()),
        "status": pa.array([r[4] for r in rows], pa.string()),
        "conf": pa.array([r[3] for r in rows], pa.float64()),
        "conf_calibrated": pa.array([r[3] / 2 for r in rows], pa.float64()),
        "cascade": pa.array(["accepted"] * len(rows), pa.string()),
    })
    edges = sorted({0, t.num_rows, *(c for c in cuts if c < t.num_rows)})
    return pa.concat_tables([t.slice(a, b - a)
                             for a, b in zip(edges, edges[1:])] or [t])


def _assert_rank_equals_reference(t: pa.Table) -> None:
    got, want = reassemble.rank_spans(t), ref.doclocal_rank(t)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want)
    frame = t.to_pandas().assign(bucket=np.int64(3))
    assert pa.Table.from_pandas(reassemble._rank_bucket(frame),
                                preserve_index=False).equals(
        pa.Table.from_pandas(ref._rank_bucket(frame), preserve_index=False))


@settings(max_examples=500, deadline=None)
@given(_rank_rows, st.lists(st.integers(0, 40), max_size=4))
def test_rank_spans_equals_reference(rows, cuts):
    """Docs interleaved in the batch, unsorted, duplicate and null
    offsets, in one or several chunks. Confidences are finite: the
    pandas round trip turned a NaN into null, and no stage makes a NaN
    confidence."""
    _assert_rank_equals_reference(_span_table(rows, cuts))


def test_rank_spans_on_edge_tables():
    rows = [("d2", 1, "text", 0.5, "ok"), ("d1", None, "media", 0.9, "ok"),
            ("d2", 1, "media", 0.7, "low_conf"), ("d1", 0, "text", 1.0, "ok"),
            ("d2", 0, "text", 0.1, "ok"), ("d1", None, "text", 0.2, "ok")]
    for t in (_span_table([], []), _span_table(rows, []),
              _span_table(rows, [1, 2, 3, 4, 5])):
        _assert_rank_equals_reference(t)
    ranked = reassemble.rank_spans(_span_table(rows, [2]))
    assert ranked.select(["doc_id", "order", "text"]).to_pylist() == [
        {"doc_id": d, "order": o, "text": f"row {i}"} for d, o, i in
        [("d1", 0, 3), ("d1", 1, 1), ("d1", 2, 5),
         ("d2", 0, 4), ("d2", 1, 0), ("d2", 2, 2)]]


def test_rank_spans_ranks_null_doc_ids_as_one_last_document():
    """The pandas rank raised on a null ``doc_id`` (its cumcount skips
    the null group); ``rank_spans`` ranks those rows as one document,
    after every other."""
    t = _span_table([(None, 1, "text", 1.0, "ok"), ("d1", 0, "text", 1.0, "ok"),
                     (None, 0, "text", 1.0, "ok")], [])
    with pytest.raises(ValueError):
        ref.doclocal_rank(t)
    assert reassemble.rank_spans(t).select(["doc_id", "order", "text"]) \
        .to_pylist() == [{"doc_id": "d1", "order": 0, "text": "row 1"},
                         {"doc_id": None, "order": 0, "text": "row 2"},
                         {"doc_id": None, "order": 1, "text": "row 0"}]
