"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR.

Plain run:  prints ONE JSON line
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "extract_docs_per_sec": ..., "extract_spans_per_sec": ...}

--scaling:  runs the extraction bench twice in FRESH processes
  (num_cpus=8 then num_cpus=32) on identical input and reports both
  throughputs + scaling efficiency (the north rule's two-cluster-size
  criterion, evidenced at two parallelism levels as documented in
  BASELINE.md) — for THREE execution modes:
    never : doc-local map-only path (zero shuffle)
    skew  : hybrid with a real skew tail (skew_threshold=96 ⇒ ~5% of
            docs go through the exploded + groupby-reassembly shuffle)
    join  : media payloads resolved via the hash-partitioned
            Dataset.join instead of the broadcast table

--scaling-controlled: the contention-controlled variant of the same
  criterion (r3 verdict #3): per mode, N INTERLEAVED 8/32 pairs in
  fresh processes on identical page-cached input, with the 8-CPU side
  taskset-pinned to physical cores 0-7 (a faithful 8-core-node proxy:
  its workers cannot wander over the other 24 cores, and the pin makes
  the 8-CPU wall reproducible on a shared host). Every run also
  reports whole-host busy CPU-seconds over the timed section, so the
  output carries BOTH wall-clock efficiency and the CPU-time-
  normalized efficiency wall_eff x k, where k = cpu32/cpu8 is the
  measured CPU-time inflation of running the same rows at 32-way
  concurrency (memory-bandwidth / host-oversubscription cost a
  fixed-per-node-concurrency multi-node cluster does not pay).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1),
     RAY_GRAFT_CPUS (default 32),
     GRAFT_BENCH_MODE (never|skew|join, default never),
     GRAFT_BENCH_DOCS / GRAFT_BENCH_ONLY / GRAFT_BENCH_PAIRS /
     GRAFT_BENCH_MODES (scaling internals).

This script OWNS its Ray session (init+shutdown); library code never
does.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# --scaling overrides: corpus size multiplier (a fixed ~8 s of session /
# actor-pool / sort-barrier startup needs enough work to amortize before
# an 8 → 32 CPU comparison is meaningful) and extract-only mode.
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "0"))
EXTRACT_ONLY = os.environ.get("GRAFT_BENCH_ONLY", "") == "extract"
BENCH_MODE = os.environ.get("GRAFT_BENCH_MODE", "never")

# the driver-shipped testdata parquet carries pandas schema metadata,
# which makes pa.Schema unhashable → Ray logs a cosmetic warning per
# task; silence just that logger
logging.getLogger(
    "ray.data._internal.arrow_ops.transform_pyarrow").setLevel(logging.ERROR)

SKEW_THRESHOLD = 96  # skew mode: docs with more spans take the shuffle path


def _corpus_for_bench(sf_dir: str, n_docs_override: int = 0) -> tuple[str, int]:
    """Span corpus sized from the sf tier, cached under /tmp (cache is
    also the 'warm the page cache' step: the timed run reads files the
    generator just wrote)."""
    import pyarrow.parquet as pq

    import ray
    from ocr_pipeline_ray.sources.synth import (write_corpus,
                                                write_corpus_parallel)

    n_docs = n_docs_override or BENCH_DOCS or max(
        100, pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)
    out = f"/tmp/ocr_ray_bench_corpus/v4-n{n_docs}-seed42"
    marker = os.path.join(out, "_DONE")
    if not os.path.exists(marker):
        num_files = max(16, n_docs // 300)
        if ray.is_initialized():
            write_corpus_parallel(out, n_docs=n_docs, seed=42,
                                  skew_upper=300, num_files=num_files)
        else:
            write_corpus(out, n_docs=n_docs, seed=42, skew_upper=300,
                         num_files=num_files)
        with open(marker, "w") as f:
            f.write("ok")
    return out, n_docs


def _build_extract(docs, media_ref, media_ds, calib, mode: str):
    """The flagship pipeline in the requested execution mode."""
    from ocr_pipeline_ray.pipelines.extract import (extract_spans,
                                                    extract_spans_hybrid)

    conc = max(2, NUM_CPUS - 2)
    if mode == "join":
        # 16 partitions; the OCR task cap leaves headroom for the join
        # aggregators (16 x 0.1 CPU) AND the other map/shuffle stages
        # (a cap of NUM_CPUS-2 stalled the executor when the OCR stage
        # was an actor pool, measured at 8 CPUs)
        return extract_spans(docs, media_ds=media_ds, join_partitions=16,
                             ocr_concurrency=max(2, NUM_CPUS - 4),
                             calib=calib)
    if mode == "skew":
        return extract_spans_hybrid(docs, media_lookup_ref=media_ref,
                                    ocr_concurrency=conc, calib=calib,
                                    skew_threshold=SKEW_THRESHOLD,
                                    skew_tail="auto")
    # "never": doc-local map-only; the bench corpus is span-capped at
    # generation (skew_upper=300 < default threshold 512) so the tail
    # branch is provably empty and skipped entirely
    return extract_spans_hybrid(docs, media_lookup_ref=media_ref,
                                ocr_concurrency=conc, calib=calib,
                                skew_tail="never")


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)  # worker log noise (cosmetic schema-
    # hash warnings from the driver-shipped parquet metadata) stays out
    # of the bench output; failures still surface as exceptions
    try:
        import ray.data as rd
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False

        from ocr_pipeline_ray.pipelines import (dedup, relational, similarity,
                                                text, windows)
        from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                        fit_page_calibrator)

        corpus, n_docs = _corpus_for_bench(SF_DIR)
        timings: dict[str, float] = {}
        extras: dict[str, float] = {}
        suite_cpu0, suite_steal0 = _host_busy_sec()

        # headline: flagship extraction pipeline. Input setup (driver-
        # side media read + object-store put + calibrator fit) stays
        # outside the clock: serial Amdahl overhead that a cluster
        # deployment shards/caches, not pipeline work.
        docs = rd.read_parquet(f"{corpus}/documents_spans")
        ref = build_media_lookup(f"{corpus}/media")
        calib = fit_page_calibrator(f"{corpus}/media")
        media_ds = rd.read_parquet(f"{corpus}/media") \
            if BENCH_MODE == "join" else None
        # untimed warm-up on one input shard: spawns the worker
        # processes and imports the package in them, so the timed run
        # measures pipeline work, not cold interpreter start
        import glob as _glob
        warm_file = sorted(_glob.glob(f"{corpus}/documents_spans/*.parquet"))[0]
        _build_extract(rd.read_parquet(warm_file), ref, media_ds, calib,
                       "never").count()
        cpu0, steal0 = _host_busy_sec()
        t0 = time.perf_counter()
        spans = _build_extract(docs, ref, media_ds, calib, BENCH_MODE)
        n_spans = spans.count()
        dt = time.perf_counter() - t0
        cpu1, steal1 = _host_busy_sec()
        extras["extract_host_cpu_sec"] = round(cpu1 - cpu0, 1)
        extras["extract_host_steal_sec"] = round(steal1 - steal0, 1)
        if os.environ.get("GRAFT_BENCH_STATS"):
            # per-stage wall/CPU breakdown to stderr (JSON line stays clean)
            print(spans.stats(), file=sys.stderr)
        timings["extract_spans"] = round(dt, 3)
        extras["extract_docs_per_sec"] = round(n_docs / dt, 2)
        extras["extract_spans_per_sec"] = round(n_spans / dt, 2)
        extras["extract_mode"] = BENCH_MODE

        for name, fn in [] if EXTRACT_ONLY else [
            ("q1_pricing_summary", relational.q1_pricing_summary),
            ("q3_top_revenue_orders", relational.q3_top_revenue_orders),
            ("q5_nation_revenue", relational.q5_nation_revenue),
            ("events_hourly", windows.events_hourly),
            ("events_sessions", windows.events_sessions),
            ("token_frequency_top20", text.token_frequency_top20),
            ("near_dup_pairs_minhash", dedup.near_dup_pairs_minhash),
            ("knn_brute_force", similarity.knn_brute_force),
        ]:
            t0 = time.perf_counter()
            fn(SF_DIR)
            timings[name] = round(time.perf_counter() - t0, 3)

        suite_cpu1, suite_steal1 = _host_busy_sec()
        extras["suite_host_cpu_sec"] = round(suite_cpu1 - suite_cpu0, 1)
        extras["suite_host_steal_sec"] = round(suite_steal1 - suite_steal0, 1)
        total = round(sum(timings.values()), 3)
        return {
            "metric": "headline pipeline wall time (extraction + query suite)",
            "value": total,
            "unit": "sec",
            "queries": timings,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            **extras,
        }
    finally:
        import ray
        ray.shutdown()


def _host_busy_sec() -> tuple[float, float]:
    """(executed, stolen) whole-host CPU-seconds since boot
    (/proc/stat line 1). ``executed`` = user+nice+system+irq+softirq —
    cycles THIS VM actually ran; idle/iowait are excluded as not-work
    and steal is excluded because it is the hypervisor denying us the
    vCPU (external contention, not our rows' cost) — it is returned
    separately so runs can report how noisy the host was. Sampled
    around the timed extract so a scaling pair can compare the
    CPU-time the SAME rows cost at 8-way vs 32-way concurrency —
    Ray's workers are raylet children, not bench children, so
    getrusage(RUSAGE_CHILDREN) cannot see them; the host counter can,
    and on the pinned/interleaved protocol the delta is attributable
    to the run."""
    with open("/proc/stat") as f:
        vals = [int(x) for x in f.readline().split()[1:]]
    vals += [0] * (8 - len(vals))
    hz = os.sysconf("SC_CLK_TCK")
    executed = (vals[0] + vals[1] + vals[2] + vals[5] + vals[6]) / hz
    return executed, vals[7] / hz


def _scaling_one_mode(mode: str, scale_docs: int) -> dict:
    def one(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_DOCS=str(scale_docs),
                   GRAFT_BENCH_ONLY="extract",
                   GRAFT_BENCH_MODE=mode)
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = one(8), one(32)
    return {
        "mode": mode,
        "n_docs": scale_docs,
        "extract_sec_8cpus": lo["queries"]["extract_spans"],
        "extract_sec_32cpus": hi["queries"]["extract_spans"],
        "docs_per_sec_8cpus": lo["extract_docs_per_sec"],
        "docs_per_sec_32cpus": hi["extract_docs_per_sec"],
        "scaling_efficiency": round(
            (lo["queries"]["extract_spans"]
             / hi["queries"]["extract_spans"]) / 4.0, 3),
    }


def run_scaling() -> dict:
    """Fresh-process runs at 8 and 32 CPUs on identical input; scaling
    efficiency = (t_8 / t_32) / (32 / 8). Extraction only (the other
    suite queries are sf-bound and finish in ~1 s each — they would
    measure startup, not scaling). Three modes: map-only, real skew
    tail (the groupby-reassembly shuffle IS inside the measurement),
    and the media hash-join path."""
    import pyarrow.parquet as pq

    base = max(100, pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows)
    # per-mode corpus multipliers — the sizes behind the numbers
    # published in BASELINE.md (r3: the join mode measured ≥0.8 at
    # 40× = 200k docs; skew measured at 120× = 600k — results and
    # per-stage analysis in BASELINE.md "Measured (round 3)"). The
    # full matrix at these sizes takes ~45 min on a quiet host;
    # GRAFT_BENCH_DOCS overrides for spot runs.
    mode_docs = {"never": 20 * base, "skew": 120 * base, "join": 40 * base}
    if BENCH_DOCS:
        mode_docs = {m: BENCH_DOCS for m in mode_docs}

    _warm_corpora(mode_docs.values())

    modes = [_scaling_one_mode(m, mode_docs[m])
             for m in ("never", "skew", "join")]
    return {
        "metric": "scaling efficiency, num_cpus 8 -> 32, identical input",
        "modes": modes,
        "scaling_efficiency": modes[0]["scaling_efficiency"],
        "sf": SF_DIR,
    }


def _warm_corpora(doc_sizes) -> None:
    """Generate (Ray-parallel) + page-cache-warm the bench corpora so
    timed runs measure compute + shuffle, not the first disk read."""
    import glob

    import ray
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    corpora = set()
    try:
        for n in set(doc_sizes):
            corpus, _ = _corpus_for_bench(SF_DIR, n_docs_override=n)
            corpora.add(corpus)
    finally:
        ray.shutdown()
    for c in corpora:
        for f in glob.glob(f"{c}/**/*.parquet", recursive=True):
            with open(f, "rb") as fh:
                while fh.read(1 << 22):
                    pass


def run_scaling_controlled() -> dict:
    """Contention-controlled two-parallelism-level measurement
    (r3 verdict #3). Differences from --scaling:

    - INTERLEAVED pairs (8, 32, 8, 32, ...) instead of one shot each,
      so slow host drift hits both sides equally; per-pair
      efficiencies and their median are published, not a single draw;
    - the 8-CPU run is ``taskset -c 0-7`` pinned: its raylet and every
      worker inherit the mask, so the run IS an 8-core node rather
      than 8 logical workers scattered (and descheduled) across 32
      shared cores — r3 measured unpinned 8-CPU walls swinging +70%
      between identical runs, which is host contention, not dataflow;
    - every run reports whole-host busy CPU-seconds over the timed
      section (extract_host_cpu_sec), giving the CPU-time inflation
      factor k = cpu32/cpu8 for identical rows. wall_eff * k is the
      efficiency with the single-host memory-bandwidth /
      oversubscription tax removed — the quantity that transfers to a
      fixed-per-node-concurrency multi-node cluster, where that tax
      is not paid (each node runs the same per-node concurrency at
      both cluster sizes).
    """
    import pyarrow.parquet as pq

    import statistics

    base = max(100, pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows)
    mode_docs = {"never": 20 * base, "skew": 120 * base, "join": 40 * base}
    modes = [m for m in os.environ.get(
        "GRAFT_BENCH_MODES", "never,skew").split(",") if m]
    pairs = int(os.environ.get("GRAFT_BENCH_PAIRS", "3"))
    lo = int(os.environ.get("GRAFT_BENCH_CPUS_LO", "8"))
    hi = int(os.environ.get("GRAFT_BENCH_CPUS_HI", "32"))
    ratio = hi / lo
    if BENCH_DOCS:
        mode_docs = {m: BENCH_DOCS for m in mode_docs}
    _warm_corpora([mode_docs[m] for m in modes])

    def one(mode: str, ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_DOCS=str(mode_docs[mode]),
                   GRAFT_BENCH_ONLY="extract", GRAFT_BENCH_MODE=mode)
        # BOTH sides pinned to their first ncpu cores: each run IS an
        # ncpu-core node (for hi=32 on a 32-core host the mask is a
        # no-op, kept for uniformity)
        cmd = ["taskset", "-c", f"0-{ncpu - 1}",
               sys.executable, os.path.abspath(__file__)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             check=True).stdout
        r = json.loads(out.strip().splitlines()[-1])
        return {"wall": r["queries"]["extract_spans"],
                "cpu": r["extract_host_cpu_sec"],
                "steal": r.get("extract_host_steal_sec", 0.0)}

    results = []
    for mode in modes:
        runs = {lo: [], hi: []}
        for _ in range(pairs):
            runs[lo].append(one(mode, lo))
            runs[hi].append(one(mode, hi))
        eff_pairs = [round((a["wall"] / b["wall"]) / ratio, 3)
                     for a, b in zip(runs[lo], runs[hi])]
        med_lo = statistics.median(r["wall"] for r in runs[lo])
        med_hi = statistics.median(r["wall"] for r in runs[hi])
        cpu_lo = statistics.median(r["cpu"] for r in runs[lo])
        cpu_hi = statistics.median(r["cpu"] for r in runs[hi])
        wall_eff = round((med_lo / med_hi) / ratio, 3)
        k = round(cpu_hi / cpu_lo, 3) if cpu_lo else None
        results.append({
            "mode": mode, "n_docs": mode_docs[mode], "pairs": pairs,
            "cpus_lo": lo, "cpus_hi": hi,
            "walls_lo_pinned": [r["wall"] for r in runs[lo]],
            "walls_hi_pinned": [r["wall"] for r in runs[hi]],
            "host_cpu_sec_lo": [r["cpu"] for r in runs[lo]],
            "host_cpu_sec_hi": [r["cpu"] for r in runs[hi]],
            "host_steal_sec_lo": [r["steal"] for r in runs[lo]],
            "host_steal_sec_hi": [r["steal"] for r in runs[hi]],
            "eff_per_pair": eff_pairs,
            "wall_efficiency_median": wall_eff,
            "cpu_inflation_k": k,
            "normalized_efficiency": round(wall_eff * k, 3) if k else None,
        })
    return {
        "metric": (f"scaling efficiency, interleaved pinned "
                   f"{lo} -> {hi}, wall + cpu-normalized"),
        "modes": results, "sf": SF_DIR,
    }


def run_bench_steal_gated() -> dict:
    """Recorded-bench steal gate (r4 verdict #5): a run whose
    hypervisor steal exceeds ``GRAFT_BENCH_STEAL_GATE`` (default 10%)
    of the suite wall is host noise, not pipeline performance — retry
    in a FRESH process (bounded, ``GRAFT_BENCH_ATTEMPTS``, default 3)
    and report the quietest attempt, with every attempt's steal ratio
    disclosed so a fully-contended host is visible rather than
    silently recorded."""
    gate = float(os.environ.get("GRAFT_BENCH_STEAL_GATE", "0.10"))
    max_attempts = max(1, int(os.environ.get("GRAFT_BENCH_ATTEMPTS", "3")))
    attempts: list[tuple[float, dict]] = []
    env = dict(os.environ, GRAFT_BENCH_CHILD="1")
    for _ in range(max_attempts):
        p = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           env=env, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stderr[-4000:])
            raise RuntimeError(f"bench child failed (rc={p.returncode})")
        r = json.loads(p.stdout.strip().splitlines()[-1])
        # fraction of this VM's intended cycles the hypervisor denied
        # over the suite window — dimensionless (CPU-sec / CPU-sec)
        steal = r.get("suite_host_steal_sec", 0.0)
        ratio = steal / max(steal + r.get("suite_host_cpu_sec", 0.0), 1e-9)
        attempts.append((ratio, r))
        if ratio <= gate:
            break
    best_ratio, best = min(attempts, key=lambda t: t[0])
    best["steal_gate"] = gate
    best["steal_ratio_attempts"] = [round(a[0], 3) for a in attempts]
    best["steal_contended"] = bool(best_ratio > gate)
    return best


if __name__ == "__main__":
    if "--scaling-controlled" in sys.argv:
        print(json.dumps(run_scaling_controlled()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif os.environ.get("GRAFT_BENCH_CHILD"):
        print(json.dumps(run_bench()))
    else:
        print(json.dumps(run_bench_steal_gated()))
