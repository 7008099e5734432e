"""Checkpoint/resume: killed-run semantics, commit markers, lineage."""

from __future__ import annotations

import glob
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines.extract import build_media_lookup, extract_spans
from ocr_pipeline_ray.state import checkpoint

STAMPS = ("wall_seconds", "committed_at_epoch")


@pytest.fixture(scope="module")
def out_dirs(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@pytest.fixture(scope="module")
def uninterrupted(small_corpus, out_dirs):
    """One uninterrupted 4-partition run: the reference every kill/resume
    case must reproduce."""
    out = str(out_dirs / "uninterrupted")
    checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    return out


@pytest.fixture
def extract_calls(monkeypatch):
    """Records the keyword args of every ``extract_spans_hybrid`` call the
    job entry makes."""
    calls = []
    real = checkpoint.extract_spans_hybrid

    def spy(*a, **kw):
        calls.append(kw)
        return real(*a, **kw)
    monkeypatch.setattr(checkpoint, "extract_spans_hybrid", spy)
    return calls


def _read_all(out_dir: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    df = rd.read_parquet(files).to_pandas()
    return df.sort_values(["doc_id", "order"]).reset_index(drop=True)


def _committed(out_dir: str, num_parts: int) -> pa.Table:
    """Committed spans in a canonical order, after checking that every
    partition committed and no part dir lacks its marker."""
    parts = sorted(glob.glob(os.path.join(out_dir, "part=*")))
    assert len(parts) == num_parts
    for p in parts:
        assert os.path.exists(os.path.join(p, "_SUCCESS")), p
    assert not glob.glob(os.path.join(out_dir, "_tmp_part=*"))
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "*.parquet")))
    t = pa.concat_tables([pq.read_table(f, partitioning=None) for f in files])
    return t.sort_by([("doc_id", "ascending"), ("order", "ascending")])


def test_partitioned_run_resume_and_equality(small_corpus, out_dirs):
    full_dir = str(out_dirs / "full")
    resumed_dir = str(out_dirs / "resumed")

    # one-shot run
    r1 = checkpoint.run_partitioned(small_corpus, full_dir, num_parts=4)
    assert sorted(r1["completed"]) == [0, 1, 2, 3]

    # "killed" run: only partitions 0 and 1 committed...
    r_partial = checkpoint.run_partitioned(small_corpus, resumed_dir, num_parts=4)
    # simulate the kill retroactively: delete partitions 2,3 commits
    for pid in (2, 3):
        import shutil
        shutil.rmtree(os.path.join(resumed_dir, f"part={pid}"))
    # ...resume: 0,1 skipped, 2,3 recomputed
    r2 = checkpoint.run_partitioned(small_corpus, resumed_dir, num_parts=4)
    assert sorted(r2["skipped"]) == [0, 1]
    assert sorted(r2["completed"]) == [2, 3]

    # resumed output equals the one-shot output exactly
    pd.testing.assert_frame_equal(_read_all(full_dir), _read_all(resumed_dir))

    # idempotent re-run: everything skipped
    r3 = checkpoint.run_partitioned(small_corpus, resumed_dir, num_parts=4)
    assert sorted(r3["skipped"]) == [0, 1, 2, 3]


def _lineage_oracle(spans_df: pd.DataFrame, pid: int) -> dict:
    """Independent pandas recomputation of a lineage record from the
    committed parquet (the record the job entry built before lineage
    moved into the write pass)."""
    conf = spans_df["conf"].to_numpy()
    hist, edges = np.histogram(conf, bins=10, range=(0.0, 1.0))

    def counts(col: str) -> dict:
        return {k: int(v) for k, v in spans_df[col].value_counts().items()}

    return {
        "partition": pid,
        "n_docs": int(spans_df["doc_id"].nunique()),
        "n_spans": int(len(spans_df)),
        "status_counts": counts("status"),
        "kind_counts": counts("kind"),
        "cascade_counts": counts("cascade"),
        "conf_histogram": {f"{edges[i]:.1f}-{edges[i+1]:.1f}": int(hist[i])
                           for i in range(len(hist))},
    }


def _partition_df(out_dir: str, pid: int) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_dir, f"part={pid}", "*.parquet")))
    if not files:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in
                             (("doc_id", object), ("conf", float),
                              ("status", object), ("kind", object),
                              ("cascade", object))})
    return pa.concat_tables([pq.read_table(f, partitioning=None)
                             for f in files]).to_pandas()


def test_lineage_records(small_corpus, out_dirs):
    out = str(out_dirs / "lineage")
    checkpoint.run_partitioned(small_corpus, out, num_parts=2)
    recs = checkpoint.read_lineage(out)
    assert len(recs) == 2
    for r in recs:
        assert r["n_spans"] > 0 and r["n_docs"] > 0
        got = {k: v for k, v in r.items() if k not in STAMPS}
        assert got == _lineage_oracle(_partition_df(out, r["partition"]),
                                      r["partition"])
        assert r["wall_seconds"] > 0
    # one pass committed both partitions: its wall time is on each record
    assert len({r["wall_seconds"] for r in recs}) == 1
    # partition assignment is disjoint + complete over docs
    total_docs = sum(r["n_docs"] for r in recs)
    docs = rd.read_parquet(f"{small_corpus}/documents_spans").count()
    assert total_docs == docs


@pytest.mark.parametrize("num_parts", [1, 3, 8, 4096])
def test_part_ids_match_zlib_crc32(num_parts):
    ids = ["", "a", "doc-00000001", "doc-00000042", "dóc-é✓",
           "x" * 300, "doc-00000001"] + [f"doc-{i:08d}" for i in range(500)]
    want = [zlib.crc32(d.encode()) % num_parts for d in ids]
    arr = pa.array(ids)
    assert checkpoint._part_ids(arr, num_parts).tolist() == want
    chunked = pa.chunked_array([arr.slice(0, 3), arr.slice(3)])
    assert checkpoint._part_ids(chunked, num_parts).tolist() == want
    assert checkpoint._part_ids(arr.slice(5, 4), num_parts).tolist() == \
        want[5:9]


def test_empty_partitions_commit(tmp_path, extract_calls):
    from ocr_pipeline_ray.sources.synth import write_corpus

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "out")
    write_corpus(corpus, n_docs=2, seed=42, num_files=1)
    r1 = checkpoint.run_partitioned(corpus, out, num_parts=8)
    assert r1 == {"completed": list(range(8)), "skipped": []}
    # no doc of this corpus exceeds the skew threshold: no tail branch
    assert [kw["skew_tail"] for kw in extract_calls] == ["never"]
    _committed(out, 8)
    recs = checkpoint.read_lineage(out)
    assert len(recs) == 8
    for r in recs:
        got = {k: v for k, v in r.items() if k not in STAMPS}
        assert got == _lineage_oracle(_partition_df(out, r["partition"]),
                                      r["partition"])
    assert sum(r["n_docs"] == 0 for r in recs) >= 6
    assert sum(r["n_docs"] for r in recs) == 2

    r2 = checkpoint.run_partitioned(corpus, out, num_parts=8)
    assert r2 == {"completed": [], "skipped": list(range(8))}
    assert len(extract_calls) == 1


def test_stale_staging_dir_is_cleared(small_corpus, uninterrupted, tmp_path):
    out = str(tmp_path / "out")
    # a "killed" pass left junk parquet in a staging dir
    stale = os.path.join(out, "_tmp_part=1")
    os.makedirs(stale)
    junk = pq.read_table(glob.glob(os.path.join(
        uninterrupted, "part=0", "*.parquet"))[0], partitioning=None)
    pq.write_table(junk, os.path.join(stale, "junk.parquet"))
    checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))
    assert not glob.glob(os.path.join(out, "*", "junk.parquet"))


def test_commit_failure_resumes_remaining(small_corpus, uninterrupted,
                                          tmp_path, monkeypatch,
                                          extract_calls):
    out = str(tmp_path / "out")
    real_rename = os.rename
    renamed = []

    def rename_then_die(src, dst):
        if "_tmp_part=" in str(src):
            if renamed:
                raise OSError("injected kill in the commit loop")
            renamed.append(os.path.basename(dst))
        return real_rename(src, dst)

    monkeypatch.setattr(os, "rename", rename_then_die)
    with pytest.raises(OSError, match="injected kill"):
        checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    monkeypatch.setattr(os, "rename", real_rename)
    assert sorted(glob.glob(os.path.join(out, "part=*"))) == \
        [os.path.join(out, renamed[0])]

    r = checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    first = int(renamed[0].split("=")[1])
    assert r["skipped"] == [first]
    assert r["completed"] == [p for p in range(4) if p != first]
    assert len(extract_calls) == 2
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))


def test_failed_write_task_commits_nothing(small_corpus, uninterrupted,
                                           tmp_path, monkeypatch):
    out = str(tmp_path / "out")
    base = checkpoint._PartitionSink

    class DyingSink(base):
        def write(self, blocks, ctx):
            super().write(blocks, ctx)  # stage the rows, then die
            raise RuntimeError("injected write-task failure")

    monkeypatch.setattr(checkpoint, "_PartitionSink", DyingSink)
    with pytest.raises(Exception, match="injected write-task failure"):
        checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    assert not glob.glob(os.path.join(out, "part=*"))
    monkeypatch.setattr(checkpoint, "_PartitionSink", base)

    r = checkpoint.run_partitioned(small_corpus, out, num_parts=4)
    assert r == {"completed": [0, 1, 2, 3], "skipped": []}
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))


def test_skew_tail_in_job_entry(small_corpus, tmp_path, monkeypatch,
                                extract_calls):
    counts = pq.read_table(f"{small_corpus}/documents_spans",
                           columns=["spans"])["spans"]
    threshold = 50
    assert max(len(s) for s in counts.to_pylist()) > threshold
    monkeypatch.setattr(checkpoint, "SKEW_THRESHOLD", threshold)
    out = str(tmp_path / "out")
    checkpoint.run_partitioned(small_corpus, out, num_parts=3)
    assert [(kw["skew_tail"], kw["skew_threshold"]) for kw in extract_calls] \
        == [("auto", threshold)]

    got = _committed(out, 3)
    docs = rd.read_parquet(f"{small_corpus}/documents_spans")
    refs = extract_spans(docs, media_lookup_ref=build_media_lookup(
        f"{small_corpus}/media")).to_arrow_refs()
    want = pa.concat_tables([t for t in ray.get(refs) if t.num_rows]) \
        .select(got.schema.names) \
        .sort_by([("doc_id", "ascending"), ("order", "ascending")])
    assert got.equals(want)

    # all partitions committed: nothing to extract
    checkpoint.run_partitioned(small_corpus, out, num_parts=3)
    assert len(extract_calls) == 1
