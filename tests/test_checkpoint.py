"""Checkpoint/resume: killed-run semantics, commit markers, lineage."""

from __future__ import annotations

import dataclasses
import glob
import os
import re
import shutil
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

from ocr_pipeline_ray.pipelines import extract
from ocr_pipeline_ray.pipelines.extract import (JobPlan, build_media_lookup,
                                                extract_spans, plan_job)
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
    """Records the plan of every extraction call the job entry makes
    (through ``checkpoint.extract_spans_hybrid``)."""
    calls = []
    real = checkpoint.extract_spans_hybrid

    def spy(plan, **kw):
        calls.append(plan)
        return real(plan, **kw)
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


def _largest_doc(corpus: str) -> int:
    spans = pq.read_table(f"{corpus}/documents_spans",
                          columns=["spans"])["spans"]
    return max(len(s or ()) for s in spans.to_pylist())


def test_empty_partitions_commit(tmp_path, extract_calls):
    from ocr_pipeline_ray.sources.synth import write_corpus

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "out")
    write_corpus(corpus, n_docs=2, seed=42, num_files=1)
    r1 = checkpoint.run_partitioned(corpus, out, num_parts=8)
    assert r1 == {"completed": list(range(8)), "skipped": []}
    # the plan's bound: no doc of this corpus exceeds the skew
    # threshold, so no tail branch is built
    assert [p.max_spans for p in extract_calls] == [_largest_doc(corpus)]
    assert _largest_doc(corpus) <= extract.SKEW_THRESHOLD
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


def _ops(ds) -> list[tuple[str, int, int]]:
    """(operator, tasks, blocks produced) of an executed, written
    Dataset, from its stats."""
    return [(name, int(tasks), int(blocks)) for name, tasks, blocks in
            re.findall(r"Operator \d+ (\S+): (\d+) tasks executed, "
                       r"(\d+) blocks produced", ds._write_ds.stats())]


def test_docs_read_planned_from_footers(tmp_path, monkeypatch):
    """A few documents files under one Ray minimum block: the job
    entry's pass is ONE fused read → doc-local → write operator of one
    task per file (Ray's own plan splits such a read into 2 × CPUs
    blocks and runs the map chain as a second, unfused operator). With
    the block floor lowered to the files' footer bytes, the input is no
    longer tiny and Ray's split plan stands, with the same committed
    rows and lineage."""
    from ocr_pipeline_ray.sources.synth import write_corpus

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=24, seed=7, num_files=2)
    files = glob.glob(f"{corpus}/documents_spans/*.parquet")
    captured = []
    real = checkpoint.extract_spans_hybrid

    def capture(*a, **kw):
        captured.append(real(*a, **kw))
        return captured[-1]
    monkeypatch.setattr(checkpoint, "extract_spans_hybrid", capture)

    fused = str(tmp_path / "fused")
    checkpoint.run_partitioned(corpus, fused, num_parts=2)
    [(name, tasks, _)] = _ops(captured[-1])
    assert name.startswith("ReadParquet->") and name.endswith("->Write")
    assert "DocLocalExtract" in name and "SplitBlocks" not in name
    assert tasks == len(files)
    for part in glob.glob(os.path.join(fused, "part=*")):
        assert len(glob.glob(os.path.join(part, "*.parquet"))) \
            <= len(files)

    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size",
                        sum(extract._metadata_bytes(pq.ParquetFile(f).metadata)
                            for f in files))
    split = str(tmp_path / "split")
    checkpoint.run_partitioned(corpus, split, num_parts=2)
    read = _ops(captured[-1])[0]
    assert read[0].startswith("ReadParquet->SplitBlocks(")
    assert read[2] >= 2 * int(ray.cluster_resources()["CPU"])
    assert _committed(split, 2).equals(_committed(fused, 2))

    def lineage(out):
        return [{k: v for k, v in r.items() if k not in STAMPS}
                for r in checkpoint.read_lineage(out)]
    assert lineage(split) == lineage(fused)


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
    threshold = 50
    assert _largest_doc(small_corpus) > threshold
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", threshold)
    out = str(tmp_path / "out")
    checkpoint.run_partitioned(small_corpus, out, num_parts=3)
    assert [p.max_spans for p in extract_calls] \
        == [_largest_doc(small_corpus)]

    got = _committed(out, 3)
    # the doc-local plan (a bound of 0 builds no tail) as the reference
    refs = extract_spans(JobPlan(
        docs=rd.read_parquet(f"{small_corpus}/documents_spans"),
        media=build_media_lookup(f"{small_corpus}/media"),
        max_spans=0)).to_arrow_refs()
    want = pa.concat_tables([t for t in ray.get(refs) if t.num_rows]) \
        .select(got.schema.names) \
        .sort_by([("doc_id", "ascending"), ("order", "ascending")])
    assert got.equals(want)

    # all partitions committed: nothing to extract
    checkpoint.run_partitioned(small_corpus, out, num_parts=3)
    assert len(extract_calls) == 1


def test_pending_bound_counts_only_pending_docs(small_corpus):
    files = sorted(glob.glob(f"{small_corpus}/documents_spans/*.parquet"))
    t = pq.read_table(files, columns=["doc_id", "spans"])
    n = np.array([len(s or ()) for s in t["spans"].to_pylist()])
    pids = np.array([zlib.crc32(d.encode()) % 3
                     for d in t["doc_id"].to_pylist()])
    media = f"{small_corpus}/media"
    for pid in range(3):
        def keep(batch, pid=pid):
            ids = [zlib.crc32(d.encode()) % 3
                   for d in batch["doc_id"].to_pylist()]
            return batch.filter(pa.array(np.array(ids) == pid))
        assert plan_job(files, media, keep=keep).max_spans \
            == n[pids == pid].max()
    assert plan_job(files, media).max_spans == n.max()


def test_one_plan_read_per_documents_file(small_corpus, tmp_path,
                                          monkeypatch):
    """``_file_plan`` opens each documents file once per job: once per
    file for ``plan_job`` and for the job entry, and not at all when
    every partition is committed. The spy runs in the plan tasks, so it
    logs each call to a file."""
    log = tmp_path / "plan_reads.log"
    real = extract._file_plan

    def spy(path, keep=None):
        with open(log, "a") as f:
            f.write(path + "\n")
        return real(path, keep)
    monkeypatch.setattr(extract, "_file_plan", spy)

    def reads() -> list[str]:
        calls = log.read_text().split() if log.exists() else []
        log.unlink(missing_ok=True)
        return sorted(calls)

    files = sorted(glob.glob(f"{small_corpus}/documents_spans/*.parquet"))
    plan_job(f"{small_corpus}/documents_spans", f"{small_corpus}/media")
    assert reads() == files
    out = str(tmp_path / "out")
    checkpoint.run_partitioned(small_corpus, out, num_parts=2)
    assert reads() == files
    checkpoint.run_partitioned(small_corpus, out, num_parts=2)
    assert reads() == []


def test_legacy_list_naming(small_corpus, uninterrupted, tmp_path,
                            monkeypatch):
    """A documents file written with legacy nested naming (list child
    ``item``, not ``element``) reads the same, so the job entry and
    ``extract_spans``, whose plan steps read the offset leaf by its
    Parquet path, give the same output as on the compliant corpus."""
    legacy = tmp_path / "legacy"
    (legacy / "documents_spans").mkdir(parents=True)
    os.symlink(os.path.join(small_corpus, "media"), legacy / "media")
    for f in sorted(glob.glob(f"{small_corpus}/documents_spans/*.parquet")):
        t = pq.read_table(f)
        item = pa.list_(t.schema.field("spans").type.value_type)
        t = t.set_column(t.schema.get_field_index("spans"), "spans",
                         t["spans"].cast(item))
        dst = legacy / "documents_spans" / os.path.basename(f)
        pq.write_table(t, dst, use_compliant_nested_type=False)
        assert "spans.list.item.offset" in [
            c.path for c in pq.ParquetFile(dst).schema]

    out = str(tmp_path / "out")
    checkpoint.run_partitioned(str(legacy), out, num_parts=4)
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))

    # a tail threshold under the largest doc: the plan read decides it
    monkeypatch.setattr(extract, "SKEW_THRESHOLD", 50)

    def spans(corpus):
        ds = extract_spans(plan_job(f"{corpus}/documents_spans",
                                    f"{corpus}/media"))
        return ds.to_pandas().sort_values(["doc_id", "order"]) \
            .reset_index(drop=True)
    pd.testing.assert_frame_equal(spans(legacy), spans(small_corpus))


def _relayout(corpus: str, dst, num_files: int, **write_kw) -> str:
    """A copy of ``corpus`` whose media rows, in a seeded random order,
    are split over ``num_files`` files written with ``write_kw``; the
    documents are a symlink to the original's."""
    os.makedirs(dst / "media")
    os.symlink(os.path.join(corpus, "documents_spans"),
               dst / "documents_spans")
    t = pq.read_table(os.path.join(corpus, "media"))
    t = t.take(np.random.default_rng(0).permutation(t.num_rows))
    for i, rows in enumerate(np.array_split(np.arange(t.num_rows),
                                            num_files)):
        pq.write_table(t.take(rows), dst / "media" / f"part-{i:04d}.parquet",
                       **write_kw)
    return str(dst)


def test_media_plan_from_the_data(small_corpus, tmp_path):
    """``plan_job`` takes the zone map when the media row groups it
    reads, summed over the documents files, are no more than the
    media's row groups. ``write_corpus`` clusters each documents file's
    refs into one media file: the zone map. Media rows shuffled across
    the files, or one media file written without statistics next to
    several documents files: the join. Forced onto the shuffled layout,
    the zone map still returns the clustered layout's rows."""
    def zone_reads(corpus):
        files = sorted(glob.glob(f"{corpus}/documents_spans/*.parquet"))
        ranges = [extract._file_plan(f, None)[2:] for f in files]
        return extract._zone_reads(
            build_media_lookup(f"{corpus}/media"), ranges)

    def plan(corpus):
        return plan_job(f"{corpus}/documents_spans", f"{corpus}/media")

    clustered = plan(small_corpus)
    zones = clustered.media
    assert isinstance(zones, pa.Table)
    assert zones.equals(build_media_lookup(f"{small_corpus}/media"))
    assert zones.num_rows == 3 and zones["min"].null_count == 0
    assert zone_reads(small_corpus) == 3

    shuffled = _relayout(small_corpus, tmp_path / "shuffled", 3)
    no_stats = _relayout(small_corpus, tmp_path / "no_stats", 1,
                         write_statistics=False)
    assert zone_reads(shuffled) == 9 and zone_reads(no_stats) == 3
    for corpus in (shuffled, no_stats):
        join = plan(corpus).media
        assert isinstance(join, rd.Dataset)
        assert join.schema().names == extract.MEDIA_COLUMNS

    def rows(p):
        return p.to_pandas().sort_values(["doc_id", "order"]) \
            .reset_index(drop=True)
    forced = dataclasses.replace(
        plan(shuffled), media=build_media_lookup(f"{shuffled}/media"))
    pd.testing.assert_frame_equal(rows(extract_spans(forced)),
                                  rows(extract_spans(clustered)))


def _read_row_groups_spy(monkeypatch) -> list[int]:
    """Row groups read per ``pq.ParquetFile.read_row_groups`` call in
    this process."""
    reads = []
    real = pq.ParquetFile.read_row_groups

    def spy(self, row_groups, *a, **kw):
        reads.append(len(row_groups))
        return real(self, row_groups, *a, **kw)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    return reads


def test_doclocal_reads_one_media_row_group_per_file(small_corpus,
                                                     monkeypatch):
    """On the clustered layout, ``DocLocalExtract`` over one documents
    file reads one media row group: the one whose range holds the
    file's refs. The stage runs in this process, where the spy sees
    it."""
    from ocr_pipeline_ray.stages.doclocal import DocLocalExtract

    lookup = build_media_lookup(f"{small_corpus}/media")
    reads = _read_row_groups_spy(monkeypatch)
    for f in sorted(glob.glob(f"{small_corpus}/documents_spans/*.parquet")):
        reads.clear()
        out = DocLocalExtract(lookup)(pq.read_table(f))
        assert "media" in out["kind"].to_pylist()
        assert reads == [1], f


def test_pending_partition_reads_only_its_refs(small_corpus, monkeypatch):
    """With a ``keep`` that leaves 1 of 4 partitions, the media rows the
    zone map keeps after its ref filter are exactly that partition's
    media refs."""
    from ocr_pipeline_ray.stages import ocr
    from ocr_pipeline_ray.stages.agg import bucket_ids
    from ocr_pipeline_ray.stages.doclocal import DocLocalExtract

    kept = []
    real = ocr.read_zone_rows

    def spy(zones, refs, columns):
        t = real(zones, refs, columns)
        kept.extend(t["media_ref"].to_pylist())
        return t
    monkeypatch.setattr(ocr, "read_zone_rows", spy)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(bucket_ids(batch["doc_id"], 4) == 1))

    lookup = build_media_lookup(f"{small_corpus}/media")
    want = []
    for f in sorted(glob.glob(f"{small_corpus}/documents_spans/*.parquet")):
        batch = keep(pq.read_table(f))
        want += [s["media_ref"] for spans in batch["spans"].to_pylist()
                 for s in spans or () if s["kind"] == "media"]
        DocLocalExtract(lookup)(batch)
    assert want and sorted(kept) == sorted(want)


def test_join_plan_in_job_entry(small_corpus, uninterrupted, tmp_path,
                                monkeypatch):
    """Media rows shuffled across the files send the job entry down the
    join plan, fresh and on a resume, with the zone-map run's
    partitions."""
    corpus = _relayout(small_corpus, tmp_path / "shuffled", 3)
    captured = []
    real = checkpoint.extract_spans_hybrid

    def capture(plan, **kw):
        captured.append(plan.media)
        ds = real(plan, **kw)
        captured.append(ds)
        return ds
    monkeypatch.setattr(checkpoint, "extract_spans_hybrid", capture)

    def ran_join() -> bool:
        media, ds = captured[-2:]
        stats = getattr(ds, "_write_ds", ds).stats()
        return isinstance(media, rd.Dataset) and "MediaDecodeStage" in stats

    out = str(tmp_path / "out")
    checkpoint.run_partitioned(corpus, out, num_parts=4)
    assert ran_join()
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))
    shutil.rmtree(os.path.join(out, "part=2"))
    r = checkpoint.run_partitioned(corpus, out, num_parts=4)
    assert r == {"completed": [2], "skipped": [0, 1, 3]}
    assert ran_join()
    assert _committed(out, 4).equals(_committed(uninterrupted, 4))


def test_join_plan_resume_with_an_emptied_docs_block(small_corpus,
                                                     tmp_path, extract_calls,
                                                     monkeypatch):
    """A join-plan resume whose pending partition has no doc in the
    first two documents files: ``keep_pending`` empties their whole
    blocks, so the join's left side starts with zero-row blocks, and
    the two pending docs have few media spans, so most join partitions
    get no left row (the block-size floor is lowered so that the media
    bytes ask for more than one partition). The resume commits the
    uninterrupted run's rows."""
    from ocr_pipeline_ray.stages.agg import bucket_ids

    docs = pq.read_table(f"{small_corpus}/documents_spans")
    part = bucket_ids(docs["doc_id"], 4)
    n_media = np.array([sum(s["kind"] == "media" for s in spans or ())
                        for spans in docs["spans"].to_pylist()])
    pending = np.flatnonzero((part == 1) & (n_media > 0))
    a, b = pending[np.argsort(n_media[pending], kind="stable")[:2]]
    rest = np.flatnonzero(part != 1)
    src = tmp_path / "regrouped"
    os.makedirs(src / "documents_spans")
    os.symlink(os.path.join(small_corpus, "media"), src / "media")
    for i, rows in enumerate([rest[:2], rest[2:4], np.append(rest[4:], a),
                              [b]]):
        pq.write_table(docs.take(rows),
                       src / "documents_spans" / f"part-{i:04d}.parquet")
    corpus = _relayout(str(src), tmp_path / "shuffled", 3)
    monkeypatch.setattr(rd.DataContext.get_current(),
                        "target_min_block_size", 1)

    fresh, out = str(tmp_path / "fresh"), str(tmp_path / "out")
    checkpoint.run_partitioned(corpus, fresh, num_parts=4)
    shutil.copytree(fresh, out)
    shutil.rmtree(os.path.join(out, "part=1"))
    r = checkpoint.run_partitioned(corpus, out, num_parts=4)
    assert r == {"completed": [1], "skipped": [0, 2, 3]}
    assert all(isinstance(p.media, rd.Dataset) for p in extract_calls)
    assert _committed(out, 4).equals(_committed(fresh, 4))
