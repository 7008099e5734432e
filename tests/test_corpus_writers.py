"""The corpus writer's Ray tasks write the same part files, byte for
byte, as ``_write_part`` called in this process with the same sharding."""

from __future__ import annotations

import os

import pytest

from ocr_pipeline_ray.sources.synth import _write_part, write_corpus


# 9 docs in files of 3: the fourth file would be empty and is not written
@pytest.mark.parametrize("n_docs,num_files,n_parts", [(40, 4, 4), (9, 4, 3)])
def test_parallel_writer_equals_sequential(tmp_path, n_docs, num_files,
                                           n_parts):
    seq, par = tmp_path / "seq", tmp_path / "par"
    per = (n_docs + num_files - 1) // num_files
    for f in range(n_parts):
        _write_part(str(seq), f, f * per, min(n_docs, (f + 1) * per), 7, 120)
    write_corpus(str(par), n_docs=n_docs, seed=7, skew_upper=120,
                 num_files=num_files)
    for sub in ("documents_spans", "media"):
        names = sorted(os.listdir(seq / sub))
        assert len(names) == n_parts
        assert sorted(os.listdir(par / sub)) == names
        for name in names:
            assert (seq / sub / name).read_bytes() \
                == (par / sub / name).read_bytes(), (sub, name)
