"""Session-scoped Ray fixture: ONE ray.init per pytest session."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """Seeded span corpus written once per session (FIXTURES.md profile,
    scaled down for test speed)."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    out = tmp_path_factory.mktemp("corpus")
    write_corpus(str(out), n_docs=60, seed=42, skew_upper=120, num_files=3)
    return str(out)


def media_lookup(media_dir, media: dict):
    """``build_media_lookup`` over one media file holding ``media``'s
    (media_ref, payload) rows, written under ``media_dir``."""
    from ocr_pipeline_ray.pipelines.extract import build_media_lookup

    os.makedirs(media_dir, exist_ok=True)
    pq.write_table(pa.table({
        "media_ref": pa.array(list(media), type=pa.string()),
        "payload": pa.array(list(media.values()), type=pa.binary())}),
        os.path.join(media_dir, "part-0000.parquet"))
    return build_media_lookup(str(media_dir))


def ocr_page(payload: bytes, dpi: int = 300) -> tuple[str, float, str]:
    """One page read at ``dpi`` → (canonical_text, confidence, status):
    the single ensemble pass the R1 cascade starts from, no retry. Only
    FPG1 pages have a DPI; every other payload reads as the cascade
    reads it."""
    from ocr_pipeline_ray.config import TAU_ENHANCE
    from ocr_pipeline_ray.stages import media_stub
    from ocr_pipeline_ray.stages.ocr import (_DECODE_ERRORS,
                                             _cascade_unguarded,
                                             _page_lines, _read_page)

    try:
        if media_stub.classify_payload(payload) != "page":
            return _cascade_unguarded(payload, TAU_ENHANCE)[:3]
        raws = _page_lines(payload)
        if not raws:
            return "", 0.0, "blank"
        text, conf, _min_conf = _read_page(raws, dpi)
        return text, conf, "ok"
    except _DECODE_ERRORS:
        return "", 0.0, "corrupt"
