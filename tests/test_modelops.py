"""ensemble_vote_merge must be an exact derivative of the flagship
engine stack: the generic J2/J3 token-merge over ``engine_readings``
elects the same text per line as ``read_line`` inside OcrStage."""

from __future__ import annotations

import os
import subprocess
import sys

import pandas as pd

from ocr_pipeline_ray.pipelines import modelops
from ocr_pipeline_ray.sources.synth import gen_doc
from ocr_pipeline_ray.stages import media_stub
from ocr_pipeline_ray.stages.ocr import read_line

SF_DIR = "/root/testdata/sf0.001"


def test_vote_merge_equals_flagship_read_line(ray_session):
    merged = modelops.ensemble_vote_merge(SF_DIR)
    assert len(merged) > 0
    # rebuild the per-line expectation from the same corpus definition
    import __ray_entry__ as entrymod
    corpus = entrymod._span_corpus(SF_DIR)
    import pyarrow.parquet as pq
    media = pq.read_table(f"{corpus}/media",
                          columns=["media_ref", "payload"])
    expected = {}
    for ref, payload in zip(media["media_ref"].to_pylist(),
                            media["payload"].to_pylist()):
        if media_stub.classify_payload(payload) != "page":
            continue
        for text, x, y in media_stub.decode_page(payload)[:5]:
            expected[(ref, float(y), float(x))] = read_line(text, 300)[0]
    checked = 0
    for _, row in merged.iterrows():
        key = (row["doc_id"], row["y1"], row["x1"])
        if key in expected:  # IoU grouping may merge overlapping lines
            assert row["text"] == expected[key], key
            checked += 1
    assert checked > 0.8 * len(merged)


def test_disagreeing_engines_vote_flips():
    """A constructed case where the aggressive pair outvotes the
    stable engine (600 DPI: sharp+fuzzy agree on the correction)."""
    winner_300, _ = read_line("Meter lOZS", 300)
    winner_600, _ = read_line("Meter lOZS", 600)
    assert winner_300 == "Meter lOZS"   # raw pair wins at 300
    assert winner_600 == "Meter 1025"   # corrected pair wins at 600


def test_pixel_tiled_restore_recovers_every_page(ray_session):
    """P9 end-to-end through Ray: every sampled page's sigma-90 noise
    defeats the Otsu-only read (necessity) and the tiled 2-pass
    bilateral — explode → per-patch kernel → regroup+blend — restores
    an exact read (sufficiency), across real patch seams (every page
    larger than one 48px tile)."""
    prof = modelops.pixel_tiled_restore(SF_DIR)
    assert len(prof) > 0
    assert (prof["n_patches"] > 1).all()
    assert (prof["otsu_only_ok"] == 0).all()
    assert (prof["tiled_restored_ok"] == 1).all()


_TWO_CPU_RUN = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=256 * 2**20)
from ocr_pipeline_ray.pipelines import modelops
modelops.media_feature_stats(sys.argv[1]).to_pickle(sys.argv[2])
ray.shutdown()
"""


def test_media_feature_stats_finishes_on_two_cpus(ray_session, tmp_path):
    """A 2-CPU session finishes: every map stage runs as tasks, so no
    stage holds both CPUs while the ReadParquet that feeds it waits.
    The 2-CPU frame equals this 4-CPU session's."""
    want = modelops.media_feature_stats(SF_DIR)
    out = tmp_path / "two_cpus.pkl"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", _TWO_CPU_RUN, SF_DIR, str(out)],
                   cwd=root, check=True, timeout=180,
                   env={**os.environ, "PYTHONPATH": root})
    pd.testing.assert_frame_equal(pd.read_pickle(out), want)
