"""The benchmark's own tests (no Ray session needed):

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import probes, run, workloads  # noqa: E402

W = workloads.WORKLOADS["partitioned_resume"]   # the smallest corpus
SEED = 7


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return workloads.build_corpus(W, SEED, str(tmp_path_factory.mktemp("c")))


@pytest.fixture(scope="module")
def expected(corpus):
    return workloads.oracle(corpus, SEED, None, cache=False)


def _oracle_table(corpus) -> pa.Table:
    rows = workloads.golden_rows(SEED, corpus.indices, None)
    return pa.Table.from_pylist(rows)


def test_same_seed_same_docs_and_digest(corpus, expected, tmp_path):
    again = workloads.build_corpus(W, SEED, str(tmp_path))
    assert again.indices == corpus.indices
    assert again.counts == corpus.counts
    assert workloads.oracle(again, SEED, None, cache=False)["digest"] \
        == expected["digest"]
    other = workloads.build_corpus(W, SEED + 1, str(tmp_path))
    assert other.indices != corpus.indices


def test_quotas_fix_the_corpus_shape():
    q = workloads.quotas(workloads._stratum_probs(W.stratum), W.n_docs)
    assert sum(q.values()) == W.n_docs
    for seed in (1, 2):
        kept = workloads.kept_docs(W, seed)
        shape: dict = {}
        for _i, doc, media in kept:
            n_raster = sum(m["media_kind"] == "page_raster" for m in media)
            s = W.stratum(len(doc["spans"]), n_raster)
            shape[s] = shape.get(s, 0) + 1
        assert shape == q


def test_oracle_check_catches_one_span_mutation(corpus, expected):
    table = _oracle_table(corpus)
    assert workloads.bad_docs(expected, workloads.engine_digests(table)) \
        == set()
    rows = table.to_pylist()
    victim = next(r for r in rows if r["kind"] == "text")
    victim["text"] += "x"
    mutated = pa.Table.from_pylist(rows)
    assert workloads.bad_docs(
        expected, workloads.engine_digests(mutated)) == {victim["doc_id"]}
    dropped = pa.Table.from_pylist([r for r in table.to_pylist()
                                    if r["doc_id"] != victim["doc_id"]])
    assert workloads.bad_docs(
        expected, workloads.engine_digests(dropped)) == {victim["doc_id"]}


def test_fields_check_catches_one_field_mutation(expected):
    rows = [{"doc_id": d, **{k: f[k] for k in workloads.FIELD_NAMES}}
            for d, f in expected["fields"].items()]
    assert workloads.bad_fields(expected, pa.Table.from_pylist(rows)) == set()
    rows[0]["bill_date"] = "01/01/1999"
    assert workloads.bad_fields(expected, pa.Table.from_pylist(rows)) \
        == {rows[0]["doc_id"]}


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_declared_end_to_end_metrics_are_emitted():
    decl = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert decl == run.E2E_UNITS


def test_every_per_layer_metric_is_declared_and_emitted(corpus, expected):
    decl = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert decl == run.per_layer_units()
    args = argparse.Namespace(workload=W.name, seed=SEED, seconds=1,
                              trace=1)
    bench = run.Bench(args, [0], [0])
    bench.corpus, bench.expected = corpus, expected
    bench.setup = {k: 1.0 for k in decl if k.startswith("setup.")}
    reps = [run.Rep(wall_s=1.0, main_busy_s=1.0) for _ in range(2)]
    emitted = bench.layer_metrics(*reps)
    assert set(emitted) == set(decl)


def test_op_metrics_without_stats_are_all_zero():
    out = probes.op_metrics([])
    assert out and all(v == 0.0 for v in out.values())


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bills",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert p.returncode != 0
    assert p.stdout.strip() == ""
