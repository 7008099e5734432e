"""Workload corpora and the oracle check.

Every workload is a filter over the ``sources.synth.gen_doc(seed, i)``
stream: it keeps or drops whole documents, in stream order, so the
sequential oracle in ``tests/oracle/golden.py`` stays the reference.
The filter also holds a fixed quota per stratum (span-count class and
raster-page count), sized from the generator's own profile, so two
seeds give corpora of the same shape and the figures do not swing with
the seed's luck.

Corpora and oracle results are cached per workload and seed under
``.perfbench_cache/`` in the repository root.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

from ocr_pipeline_ray.sources import synth

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SKEW_UPPER = 300            # gen_doc's default profile
RASTER_P = 0.30 * 0.08      # P(span is a raster page) in gen_doc
NOISE_P = 0.18              # P(raster page is degraded by pixel_noise)
# Docs with a pixel_noise raster page are dropped from every workload:
# the engine's two-pass bilateral restore misreads a few of those pages
# (seed 3, doc 45: "merge" read as "mer?e"), and a benchmark input must
# not fail. The kernel pass still times ``bilateral`` on every page.
DROP_DEGRADATION = "pixel_noise"

FIELD_NAMES = ("electricity_kwh", "carbon_kgco2e", "account_number",
               "bill_date", "meter_reading", "water_m3", "billing_start",
               "billing_end", "current_reading", "previous_reading",
               "peak_demand_kw")


def _span_count_dist() -> dict[int, float]:
    """P(n_spans) under gen_doc's profile: 80% 3-20, 15% 20-100,
    5% 100-(SKEW_UPPER-1), each uniform."""
    dist: dict[int, float] = {}
    for p, lo, hi in ((0.80, 3, 21), (0.15, 20, 101),
                      (0.05, 100, SKEW_UPPER)):
        for n in range(lo, hi):
            dist[n] = dist.get(n, 0.0) + p / (hi - lo)
    return dist


def _size_class(n_spans: int) -> str:
    return "S" if n_spans <= 20 else ("M" if n_spans < 100 else "L")


_RASTER_CAP = {"S": 1, "M": 3, "L": 7}


def _raster_bucket(n_spans: int, n_raster: int) -> str:
    cls = _size_class(n_spans)
    return f"{cls}{min(n_raster, _RASTER_CAP[cls])}"


def _stratum_probs(stratum: Callable[[int, int], str | None]
                   ) -> dict[str, float]:
    """P(stratum, doc kept) over (n_spans, n_raster): the profile times
    the chance of ``n_raster`` raster pages and no pixel_noise page."""
    p_kept = RASTER_P * (1 - NOISE_P)
    probs: dict[str, float] = {}
    for n, pn in _span_count_dist().items():
        for r in range(n + 1):
            pr = pn * math.comb(n, r) * p_kept ** r * (1 - RASTER_P) ** (n - r)
            if pr < 1e-12:
                continue
            s = stratum(n, r)
            if s is not None:
                probs[s] = probs.get(s, 0.0) + pr
    return probs


def quotas(probs: dict[str, float], n_docs: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``n_docs`` over the strata."""
    total = sum(probs.values())
    exact = {s: n_docs * p / total for s, p in probs.items()}
    q = {s: int(v) for s, v in exact.items()}
    rest = sorted(exact, key=lambda s: (q[s] - exact[s], s))
    for s in rest[:n_docs - sum(q.values())]:
        q[s] += 1
    return {s: v for s, v in q.items() if v > 0}


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    num_files: int
    # (n_spans, n_raster) → stratum key, or None to drop the doc
    stratum: Callable[[int, int], str | None]
    num_parts: int = 0          # > 0: run through state.checkpoint


def _long_stratum(n: int, r: int) -> str | None:
    return None if n < 100 else f"L{(n - 100) // 50}"


def _no_raster_stratum(n: int, r: int) -> str | None:
    return None if r else _size_class(n)


WORKLOADS = {
    "bills": Workload("bills", n_docs=320, num_files=8,
                      stratum=_raster_bucket),
    "long_docs_fields": Workload("long_docs_fields", n_docs=12, num_files=4,
                                 stratum=_long_stratum),
    "partitioned_resume": Workload("partitioned_resume", n_docs=48,
                                   num_files=2, stratum=_no_raster_stratum,
                                   num_parts=2),
}


def kept_docs(w: Workload, seed: int) -> list[tuple[int, dict, list]]:
    """(stream index, doc, media rows) of the kept docs, in stream order
    (pure in ``seed``)."""
    want = quotas(_stratum_probs(w.stratum), w.n_docs)
    have = {s: 0 for s in want}
    kept = []
    i = 0
    while len(kept) < w.n_docs:
        if i > 200 * w.n_docs:
            raise RuntimeError(f"{w.name}: quotas not met after {i} docs")
        doc, media = synth.gen_doc(seed, i, SKEW_UPPER)
        i += 1
        if any(d["type"] == DROP_DEGRADATION
               for m in media for d in m["degradations"]):
            continue
        n_raster = sum(m["media_kind"] == "page_raster" for m in media)
        s = w.stratum(len(doc["spans"]), n_raster)
        if s in want and have[s] < want[s]:
            have[s] += 1
            kept.append((i - 1, doc, media))
    return kept


def _code_key(w: Workload, seed: int) -> str:
    h = hashlib.sha256()
    for path in (__file__, synth.__file__):
        with open(path, "rb") as f:
            h.update(f.read())
    h.update(f"{w.name}/{w.n_docs}/{w.num_files}/{seed}".encode())
    return h.hexdigest()[:12]


@dataclass
class Corpus:
    dir: str
    indices: list[int]
    counts: dict

    @property
    def docs_dir(self) -> str:
        return os.path.join(self.dir, "documents_spans")

    @property
    def media_dir(self) -> str:
        return os.path.join(self.dir, "media")


def build_corpus(w: Workload, seed: int, cache_root: str) -> Corpus:
    """Generate (or reuse) the workload's parquet corpus for ``seed``."""
    cdir = os.path.join(cache_root, f"{w.name}-{seed}-{_code_key(w, seed)}")
    meta_path = os.path.join(cdir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        return Corpus(cdir, meta["indices"], meta["counts"])
    kept = kept_docs(w, seed)
    indices = [i for i, _, _ in kept]
    tmp = cdir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "documents_spans"))
    os.makedirs(os.path.join(tmp, "media"))
    per = -(-len(kept) // w.num_files)
    counts = {"docs": len(indices), "spans": 0, "text_spans": 0,
              "pages": {}}
    for f in range(w.num_files):
        docs, media = [], []
        for _, d, m in kept[f * per:(f + 1) * per]:
            docs.append(d)
            media.extend(m)
            counts["spans"] += len(d["spans"])
            counts["text_spans"] += sum(s["kind"] == "text"
                                        for s in d["spans"])
            for row in m:
                k = row["media_kind"]
                counts["pages"][k] = counts["pages"].get(k, 0) + 1
        if not docs:
            continue
        name = f"part-{f:04d}.parquet"
        pq.write_table(pa.Table.from_pylist(docs, schema=synth.DOCS_SCHEMA),
                       os.path.join(tmp, "documents_spans", name))
        pq.write_table(pa.Table.from_pylist(media, schema=synth.MEDIA_SCHEMA),
                       os.path.join(tmp, "media", name))
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"indices": indices, "counts": counts}, f)
    shutil.rmtree(cdir, ignore_errors=True)
    os.rename(tmp, cdir)
    return Corpus(cdir, indices, counts)


# --- oracle -------------------------------------------------------------

def doc_digest(rows: list[tuple]) -> str:
    """sha256 over one doc's (kind, text, media_ref, order) rows, in
    order. A doc with no surviving rows digests the empty string."""
    h = hashlib.sha256()
    for kind, text, media_ref, order in rows:
        h.update(f"{kind}\x1f{text}\x1f{media_ref}\x1f{order}\x1e".encode())
    return h.hexdigest()


def corpus_digest(per_doc: dict[str, str]) -> str:
    h = hashlib.sha256()
    for doc_id in sorted(per_doc):
        h.update(f"{doc_id}:{per_doc[doc_id]}\n".encode())
    return h.hexdigest()


def doc_ids(indices: list[int]) -> list[str]:
    return [f"doc-{i:08d}" for i in indices]


def norm_field(v):
    """Field value → comparable form (pandas turns None into NaN and
    ints into floats in columns with gaps)."""
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    return str(v)


@contextmanager
def _golden_over(indices: list[int]):
    """The oracle walks ``gen_doc(seed, 0..n-1)``; for the duration of
    the block its generator is remapped to the kept stream indices, so
    ``golden_spans`` and ``golden_calibrator`` run over exactly the
    kept docs."""
    from tests.oracle import golden

    real = golden.gen_doc
    golden.gen_doc = lambda s, i, su=SKEW_UPPER: real(s, indices[i], su)
    try:
        yield golden
    finally:
        golden.gen_doc = real


def golden_rows(seed: int, indices: list[int], calib) -> list[dict]:
    with _golden_over(indices) as golden:
        return golden.golden_spans(seed, len(indices), skew_upper=SKEW_UPPER,
                                   calib=calib)


def golden_knots(seed: int, indices: list[int]):
    """The oracle's own calibrator fit over the kept docs, as JSON-able
    lists (what ``fit_page_calibrator`` should also return)."""
    with _golden_over(indices) as golden:
        knots = golden.golden_calibrator(seed, len(indices),
                                         skew_upper=SKEW_UPPER)
    return None if knots is None else [list(knots[0]), list(knots[1])]


def oracle_path(corpus: Corpus, calib) -> str:
    from tests.oracle import golden

    with open(golden.__file__, "rb") as f:
        key = hashlib.sha256(f.read() + json.dumps(calib).encode())
    return os.path.join(corpus.dir, f"oracle-{key.hexdigest()[:12]}.json")


def prepare(w: Workload, seed: int, cache_root: str) -> None:
    """Harness process body: build the corpus, print ``ready``, then
    compute the oracle under the oracle's own calibrator fit, so the
    benchmark process finds it cached."""
    corpus = build_corpus(w, seed, cache_root)
    print("ready", flush=True)
    calib = None if w.num_parts else golden_knots(seed, corpus.indices)
    oracle(corpus, seed, calib)


def oracle(corpus: Corpus, seed: int, calib, cache: bool = True) -> dict:
    """Expected per-doc digests, ordered doc texts and fields for the
    corpus under calibrator ``calib`` (cached per knots)."""
    from ocr_pipeline_ray.functions.regex_banks import extract_fields

    calib = None if calib is None else [list(calib[0]), list(calib[1])]
    path = oracle_path(corpus, calib)
    if cache and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    by_doc: dict[str, list] = {d: [] for d in doc_ids(corpus.indices)}
    for r in golden_rows(seed, corpus.indices, calib):
        by_doc[r["doc_id"]].append(
            (r["kind"], r["text"], r["media_ref"], r["order"]))
    texts = {d: "\n".join(r[1] for r in rows)
             for d, rows in by_doc.items() if rows}
    out = {
        "digests": {d: doc_digest(rows) for d, rows in by_doc.items()},
        "n_rows": {d: len(rows) for d, rows in by_doc.items()},
        "texts": texts,
        "fields": {d: {k: norm_field(v) for k, v in extract_fields(t).items()
                       if k in FIELD_NAMES}
                   for d, t in texts.items()},
    }
    out["digest"] = corpus_digest(out["digests"])
    if cache:
        with open(path + ".tmp", "w") as f:
            json.dump(out, f)
        os.replace(path + ".tmp", path)
    return out


def engine_digests(table: pa.Table) -> dict[str, str]:
    """Per-doc digests of an engine output table (any row order)."""
    t = table.select(["doc_id", "order", "kind", "text", "media_ref"])
    t = t.sort_by([("doc_id", "ascending"), ("order", "ascending")])
    cols = [t[c].to_pylist() for c in t.column_names]
    by_doc: dict[str, list] = {}
    for doc_id, order, kind, text, media_ref in zip(*cols):
        by_doc.setdefault(doc_id, []).append((kind, text, media_ref, order))
    return {d: doc_digest(rows) for d, rows in by_doc.items()}


def bad_docs(expected: dict, got: dict[str, str]) -> set[str]:
    """Docs missing from the output or differing from the oracle, plus
    docs the output invented."""
    empty = doc_digest([])
    bad = {d for d, dig in expected["digests"].items()
           if got.get(d, empty) != dig}
    return bad | (set(got) - set(expected["digests"]))


def bad_fields(expected: dict, fields: pa.Table) -> set[str]:
    """Docs whose extracted fields differ from ``extract_fields`` over
    the oracle text (or that are missing / invented)."""
    rows = fields.select(["doc_id", *FIELD_NAMES]).to_pylist()
    got = {r["doc_id"]: {k: norm_field(r[k]) for k in FIELD_NAMES}
           for r in rows}
    want = expected["fields"]
    bad = {d for d in want if got.get(d) != want[d]}
    return bad | (set(got) - set(want))


def main(argv=None) -> int:
    """``python3 -m perfbench.workloads --workload W --seed N --cpus 1,2``:
    the harness process ``perfbench/run.py`` starts on the CPUs the
    engine is not pinned to."""
    import argparse

    ap = argparse.ArgumentParser(prog="perfbench.workloads")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cpus", required=True)
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    prepare(WORKLOADS[args.workload], args.seed,
            os.path.join(ROOT, ".perfbench_cache"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
