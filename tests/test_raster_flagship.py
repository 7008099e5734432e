"""Flagship pixel-path gate (VERDICT r4 #8): the extraction cascade
must exercise the REAL P5-P8 kernels on corpus data, not only in the
bank queries.

Three claims, each tested:
1. the generated corpus carries raster-bitmap pages in EVERY pixel
   degradation class (so the flagship cannot dodge the kernels);
2. for degraded raster pages the naive read (fixed threshold for the
   contrast class, Otsu-alone for the rest) gets the text WRONG while
   the strategy-routed restore reads it back exactly — i.e. the
   kernels are necessary and sufficient on flagship inputs, and the
   router picks the matching kernel per class;
3. the flagship ``extract_spans`` output contains ``restored`` rows
   whose text equals the construction truth (byte parity with the
   golden oracle is separately gated in test_extract_golden.py).
"""

from __future__ import annotations

import pandas as pd
import pytest

from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import media_stub, pixels

N_SCAN_DOCS = 120
SEED = 42

_EXPECT_STRATEGY = {
    "pixel_low_contrast": "equalize+binarize",
    "pixel_noise": "bilateral+binarize",
    "pixel_blur": "sharpen+binarize",
    "pixel_dropout": "binarize+close",
    "none": "binarize",
}


@pytest.fixture(scope="module")
def raster_rows():
    rows = []
    for i in range(N_SCAN_DOCS):
        _, media = gen_doc(SEED, i, 120)
        for m in media:
            if m["media_kind"] == "page_raster":
                deg = (m["degradations"][0]["type"] if m["degradations"]
                       else "none")
                rows.append((deg, m))
    return rows


def test_corpus_contains_all_pixel_degradation_classes(raster_rows):
    found = {deg for deg, _ in raster_rows}
    assert found == set(_EXPECT_STRATEGY), found


def test_router_picks_matching_kernel_per_class(raster_rows):
    for deg, m in raster_rows:
        img = media_stub.decode_raster(m["payload"])
        assert pixels._route(pixels.pixel_stats(img)) \
            == _EXPECT_STRATEGY[deg], (deg, m["media_ref"])


def test_degraded_pages_defeat_naive_read_and_recover_restored(raster_rows):
    naive_wrong = {d: 0 for d in _EXPECT_STRATEGY}
    totals = {d: 0 for d in _EXPECT_STRATEGY}
    for deg, m in raster_rows:
        img = media_stub.decode_raster(m["payload"])
        truth = [t["text"] for t in m["truth_lines"]]
        # class-matched naive baseline: the washed-out class is exactly
        # the one Otsu repairs, so its naive read is a FIXED threshold
        naive_mask = (pixels.binarize(img, 128)
                      if deg == "pixel_low_contrast"
                      else pixels.binarize(img))
        naive = pixels.read_lines(naive_mask)
        restored, strategy = pixels.restore_and_read(img)
        totals[deg] += 1
        if naive != truth:
            naive_wrong[deg] += 1
        # sufficiency is exact per page: the flagship's read IS this
        assert restored == truth, (deg, m["media_ref"], strategy)
    for deg in _EXPECT_STRATEGY:
        if deg == "none":
            assert naive_wrong[deg] == 0  # clean pages read raw
            continue
        # necessity in aggregate: the degradations are tuned so the
        # naive read fails on (nearly) every page; a rare lucky page
        # is tolerated, a readable class is not
        assert totals[deg] > 0
        assert naive_wrong[deg] >= 0.7 * totals[deg], \
            (deg, naive_wrong[deg], totals[deg])


def test_flagship_extract_emits_restored_rows(small_corpus):
    from ocr_pipeline_ray.pipelines.extract import extract_spans, plan_job

    out = extract_spans(plan_job(f"{small_corpus}/documents_spans",
                                 f"{small_corpus}/media")).to_pandas()
    restored = out[out["cascade"] == "restored"]
    assert len(restored) > 0
    assert (restored["kind"] == "media").all()
    assert (restored["status"] == "ok").all()

    # every restored row's text equals the construction truth after the
    # standard canonicalization — the pixel kernels really ran and won
    truth_by_ref: dict[str, str] = {}
    for i in range(60):
        _, media = gen_doc(SEED, i, 120)
        for m in media:
            if m["media_kind"] == "page_raster" and m["degradations"]:
                from ocr_pipeline_ray.functions.charfix import fix_text
                truth_by_ref[m["media_ref"]] = fix_text(
                    "\n".join(t["text"] for t in m["truth_lines"]))
    got = dict(zip(restored["media_ref"], restored["text"]))
    assert set(got) == set(truth_by_ref)
    assert got == truth_by_ref


@pytest.mark.parametrize("degraded", [False, True], ids=["clean", "blur"])
def test_raster_line_longer_than_300_window_reads_whole(degraded):
    """A raster line longer than the 300-DPI scan window is recovered
    whole by the pixel reader; the page read must keep it whole (an FPG1
    page gets the window-free 600-DPI read for the same case) and agree
    with the oracle on (text, conf, status, cascade)."""
    from ocr_pipeline_ray.stages.ocr import TRUNC_CHARS_300, ocr_page_cascade
    from tests.oracle.golden import _raster_expected

    lines = ["Account 12345 " + "x" * 130, "Total 42 kWh"]
    assert len(lines[0]) > TRUNC_CHARS_300
    img = pixels.render_lines(lines)
    if degraded:
        img = pixels.degrade_blur(img)
    got = ocr_page_cascade(media_stub.encode_raster(img))
    assert got[0].split("\n") == lines
    assert got[2:] == ("ok", "restored" if degraded else "accepted")
    row = {"truth_lines": [{"text": t} for t in lines],
           "degradations": [{"type": "pixel_blur"}] if degraded else []}
    assert got == _raster_expected(row)


@pytest.mark.parametrize("seed,doc,ref", [
    (3, 45, "m-doc-00000045-7"), (10, 178, "m-doc-00000178-0")])
def test_noisy_page_takes_passes_until_no_reject(monkeypatch, seed, doc, ref):
    """Two sigma-90 noise pages whose read still rejects a cell after
    two bilateral passes read equal to the oracle after a third."""
    from ocr_pipeline_ray.stages.ocr import ocr_page_cascade
    from tests.oracle.golden import _raster_expected

    _, media = gen_doc(seed, doc)
    m = next(m for m in media if m["media_ref"] == ref)
    assert m["degradations"][0]["type"] == "pixel_noise"
    passes = []
    real = pixels.bilateral
    monkeypatch.setattr(pixels, "bilateral",
                        lambda img: passes.append(1) or real(img))
    assert ocr_page_cascade(m["payload"]) == _raster_expected(m)
    assert len(passes) == 3


def test_page_unreadable_at_the_pass_bound_is_low_conf():
    """Noise past what three bilateral passes repair leaves a rejected
    cell: the page reads low_conf, never ok."""
    from ocr_pipeline_ray.stages.ocr import ocr_page_cascade

    img = pixels.degrade_noise(
        pixels.render_lines(["Total 42 kWh", "Account 12345"]), 1,
        sigma=200.0)
    lines, strategy = pixels.restore_and_read(img)
    assert strategy == "bilateral+binarize"
    assert any("?" in ln for ln in lines)
    assert ocr_page_cascade(media_stub.encode_raster(img))[2:] \
        == ("low_conf", "restored")
