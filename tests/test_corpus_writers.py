"""The Ray-parallel corpus writer writes the same part files, byte for
byte, as the sequential one with the same sharding."""

from __future__ import annotations

import os

import pytest

from ocr_pipeline_ray.sources.synth import write_corpus, write_corpus_parallel


# 9 docs in files of 3: the fourth file would be empty and is not written
@pytest.mark.parametrize("n_docs,num_files,n_parts", [(40, 4, 4), (9, 4, 3)])
def test_parallel_writer_equals_sequential(tmp_path, n_docs, num_files,
                                           n_parts):
    seq, par = tmp_path / "seq", tmp_path / "par"
    write_corpus(str(seq), n_docs=n_docs, seed=7, skew_upper=120,
                 num_files=num_files)
    write_corpus_parallel(str(par), n_docs=n_docs, seed=7, skew_upper=120,
                          num_files=num_files)
    for sub in ("documents_spans", "media"):
        names = sorted(os.listdir(seq / sub))
        assert len(names) == n_parts
        assert sorted(os.listdir(par / sub)) == names
        for name in names:
            assert (seq / sub / name).read_bytes() \
                == (par / sub / name).read_bytes(), (sub, name)
