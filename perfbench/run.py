"""Oracle-checked benchmark of the ocr_pipeline_ray extraction path.

    python3 perfbench/run.py --workload bills --seed 1 --seconds 10 --trace 0

Generates the workload's corpus from ``--seed`` (a filter over
``sources.synth.gen_doc``), starts a local Ray session pinned to the
CPUs ``nproc`` reports, and runs the job in a closed loop (one job in
flight) for ``--seconds``. Every job's output is checked against the
sequential oracle in ``tests/oracle/golden.py``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the job once untraced and
once traced, adds an in-process kernel pass over the same inputs, and
reports the per-layer metrics. Human-readable lines come first on
stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Spans and a full
record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from dataclasses import dataclass, field

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import probes  # noqa: E402  (stdlib only)

SETUP_REPEATS = 3           # set-up steps repeated per run; median kept
JOB_BOUND_S = 120.0         # a job running longer counts as a failed run
RUN_DEADLINE_S = 165.0      # no job may run past this (process age)
RAY_TEMP_MAX_CHARS = 44     # Ray's socket paths must stay under 108 chars

E2E_UNITS = {"docs_per_s": "docs/s", "setup_s": "s", "peak_mem_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name → unit (the same set on every
    workload; a layer a workload does not run reports 0)."""
    from perfbench import kernels

    u = {"setup.ray_init_s": "s", "setup.media_lookup_s": "s",
         "setup.calibrator_s": "s", "setup.warmup_s": "s"}
    for cat, fields in probes.OP_FIELDS.items():
        for f in fields:
            u[f"op.{cat}.{f}"] = "count" if f.startswith("rows") else "s"
    u["op.fused_explode_ocr"] = "count"
    u["ray.busy_frac"] = "frac"
    u["ray.kernel_frac"] = "frac"
    for k in kernels.OCR_P99_KEYS:
        u[f"ocr.page_ms.{k}.p50"] = "ms"
        u[f"ocr.page_ms.{k}.p99"] = "ms"
    u["ocr.page_ms.page.retry_kept.p50"] = "ms"
    u["ocr.page_ms.digital.p50"] = "ms"
    for k in kernels.OCR_KEYS:
        u[f"ocr.pages.{k}"] = "count"
    u["ocr.redecode_frac"] = "frac"
    u["ocr.redecode_useful_frac"] = "frac"
    u["ocr.raster_cpu_share"] = "frac"
    for k in kernels.PIXEL_KERNELS:
        u[f"pixels.ms.{k}.p50"] = "ms"
    for s in kernels.STRATEGIES:
        u[f"pixels.page_ms.{kernels.strategy_name(s)}.p50"] = "ms"
    for s in kernels.STRATEGIES:
        u[f"pixels.pages.{kernels.strategy_name(s)}"] = "count"
    u["pixels.otsu_calls_per_page"] = "count"
    u["classify.us_per_span.p50"] = "us"
    u["classify.us_per_span.p99"] = "us"
    u["classify.spans"] = "count"
    u["classify.keep_frac"] = "frac"
    u["fields.us_per_doc.p50"] = "us"
    u["fields.us_per_doc.p99"] = "us"
    u["reassemble.bucket_skew"] = "ratio"
    u["checkpoint.partition_s.p50"] = "s"
    u["checkpoint.partition_s.max"] = "s"
    u["checkpoint.resume_s"] = "s"
    u["checkpoint.resume_cost_ratio"] = "ratio"
    u["trace.overhead_frac"] = "frac"
    return u


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Rep:
    """One job of the closed loop."""
    wall_s: float = 0.0
    busy_s: float = 0.0
    main_busy_s: float = 0.0    # CPU-s of the docs_per_s part of the job
    steal_s: float = 0.0
    bad: set = field(default_factory=set)
    timed_out: bool = False
    outputs: list = field(default_factory=list)  # per-doc digests, per check
    fields: object = None                        # fields table (pyarrow)
    resume_s: float = 0.0
    stats: list = field(default_factory=list)   # (group, stats summary)
    lineage: list = field(default_factory=list)


class Bench:
    def __init__(self, args, cpus: list[int], other_cpus: list[int]) -> None:
        from perfbench import workloads

        self.args = args
        self.w = workloads.WORKLOADS[args.workload]
        self.cpus = cpus
        self.other_cpus = other_cpus
        self.tracer = probes.Tracer(uuid.uuid4().hex[:12], bool(args.trace))
        self.out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.work_dir = os.path.join(self.out_dir, f"work-{os.getpid()}")
        self.env: dict = {}
        self.setup: dict = {}
        self.calib = None
        self.ml = None
        # bills runs a fixed pool, so no autoscaling decision varies
        # between runs; Ray's logical CPUs must cover every pool at once
        self.pool = max(2, len(cpus))
        if args.workload == "bills":
            self.logical_cpus = self.pool + 2
        else:
            self.logical_cpus = 4       # covers the default (1, k) pools

    # --- set-up ---------------------------------------------------------

    def start_ray(self) -> None:
        import ray
        import ray.data as rd

        temp = os.path.join(ROOT, ".perfbench_tmp")
        kw = {}
        if len(temp) <= RAY_TEMP_MAX_CHARS:
            kw["_temp_dir"] = temp
        self.env["ray_temp_dir"] = kw.get("_temp_dir", "ray default")
        sw = probes.Stopwatch(self.cpus)
        with self.tracer.span("ray.init"):
            ray.init(num_cpus=self.logical_cpus, include_dashboard=False,
                     logging_level="ERROR", log_to_driver=False,
                     object_store_memory=512 * 2**20, **kw)
        self.setup["setup.ray_init_s"] = sw.seconds()
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def session_setup(self) -> None:
        """Media lookup and calibrator fit, ``SETUP_REPEATS`` times. The
        first, cold pass also spawns and warms the worker processes;
        ``setup.warmup_s`` is what it cost beyond the medians. The
        checkpoint job builds its own lookup and fits no calibrator."""
        from ocr_pipeline_ray.pipelines.extract import (build_media_lookup,
                                                        fit_page_calibrator)
        lookup, calib = [], []
        for _ in range(SETUP_REPEATS):
            sw = probes.Stopwatch(self.cpus)
            with self.tracer.span("pipelines.extract.build_media_lookup"):
                self.ml = build_media_lookup(self.corpus.media_dir)
            lookup.append(sw.seconds())
            sw = probes.Stopwatch(self.cpus)
            if not self.w.num_parts:
                with self.tracer.span("pipelines.extract.fit_page_calibrator"):
                    self.calib = fit_page_calibrator(self.corpus.media_dir)
            calib.append(sw.seconds())
        self.setup["setup.media_lookup_s"] = statistics.median(lookup)
        self.setup["setup.calibrator_s"] = statistics.median(calib)
        self.setup["setup.warmup_s"] = lookup[0] + calib[0] \
            - self.setup["setup.media_lookup_s"] \
            - self.setup["setup.calibrator_s"]

    def hybrid_kwargs(self) -> dict:
        if self.args.workload == "long_docs_fields":
            # default pools, as the job entry runs them
            return {"skew_threshold": 96, "skew_tail": "auto"}
        return {"skew_tail": "never", "ocr_concurrency": self.pool}

    # --- jobs -----------------------------------------------------------

    def _tables(self, ds):
        import pyarrow as pa
        import ray

        tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
        return pa.concat_tables(tables, promote_options="default")

    def job_extract(self, rep: Rep) -> None:
        import ray.data as rd

        from ocr_pipeline_ray.pipelines.extract import (extract_fields_per_doc,
                                                        extract_spans_hybrid)
        from perfbench import workloads

        fields = None
        sw = probes.Stopwatch(self.cpus)
        with self.tracer.span("pipelines.extract.extract_spans_hybrid"):
            spans = extract_spans_hybrid(
                rd.read_parquet(self.corpus.docs_dir),
                media_lookup_ref=self.ml, calib=self.calib,
                **self.hybrid_kwargs()).materialize()
        if self.args.workload == "long_docs_fields":
            with self.tracer.span("pipelines.extract.extract_fields_per_doc"):
                fields = extract_fields_per_doc(spans).materialize()
        rep.wall_s, rep.main_busy_s, _ = sw.read()
        rep.outputs = [workloads.engine_digests(self._tables(spans))]
        rep.stats = [("spans", probes.stats_summary(spans))]
        if fields is not None:
            rep.fields = self._tables(fields)
            rep.stats.append(("fields", probes.stats_summary(fields)))

    def _committed(self, out: str):
        import glob

        import pyarrow.parquet as pq
        files = sorted(glob.glob(os.path.join(out, "part=*", "*.parquet")))
        return pq.ParquetDataset(files).read()

    def job_partitioned(self, rep: Rep) -> None:
        """A fresh run into ``num_parts`` partitions, then a resume after
        half of the committed partition dirs are deleted. Both outputs
        are checked."""
        from ocr_pipeline_ray.state import checkpoint
        from perfbench import workloads

        out = os.path.join(self.work_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        captured = []
        real = checkpoint.extract_spans_hybrid
        if self.tracer.enabled:
            def capture(*a, **kw):
                ds = real(*a, **kw)
                captured.append(ds)
                return ds
            checkpoint.extract_spans_hybrid = capture
        try:
            sw = probes.Stopwatch(self.cpus)
            with self.tracer.span("state.checkpoint.run_partitioned",
                                  mode="fresh"):
                checkpoint.run_partitioned(self.corpus.dir, out,
                                           num_parts=self.w.num_parts)
            rep.wall_s, rep.main_busy_s, _ = sw.read()
            rep.stats = [("spans", probes.stats_summary(ds))
                         for ds in captured]
            rep.lineage = checkpoint.read_lineage(out)
            rep.outputs = [workloads.engine_digests(self._committed(out))]
            if self.args.trace and not self.tracer.enabled:
                return      # the untraced rep of a traced run: fresh only
            for pid in range(self.w.num_parts // 2):
                shutil.rmtree(os.path.join(out, f"part={pid}"))
            sw = probes.Stopwatch(self.cpus)
            with self.tracer.span("state.checkpoint.run_partitioned",
                                  mode="resume"):
                checkpoint.run_partitioned(self.corpus.dir, out,
                                           num_parts=self.w.num_parts)
            rep.resume_s = sw.seconds()
            rep.outputs.append(
                workloads.engine_digests(self._committed(out)))
        finally:
            checkpoint.extract_spans_hybrid = real

    def run_job(self, traced: bool) -> Rep:
        """One job under the wall bound; CPU, steal and memory sampled
        around it."""
        rep = Rep()
        bound = min(JOB_BOUND_S,
                    RUN_DEADLINE_S - (time.perf_counter() - T_START))
        if bound < 5.0:
            rep.timed_out = True
            return rep
        self.tracer.enabled = traced
        job = self.job_partitioned if self.w.num_parts else self.job_extract
        sw = probes.Stopwatch(self.cpus)
        self.mem.start()
        signal.setitimer(signal.ITIMER_REAL, bound)
        try:
            with self.tracer.span("job"):
                job(rep)
        except JobTimeout:
            print(f"perfbench: job passed its {bound:.0f} s bound",
                  file=sys.stderr)
            rep.timed_out = True
        except Exception:   # a crashed run fails every doc, not the bench
            traceback.print_exc()
            rep.timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.mem.stop()
            self.tracer.enabled = bool(self.args.trace)
        _, rep.busy_s, rep.steal_s = sw.read()
        return rep

    def run_loop(self, reps: list[Rep]) -> None:
        """Trace: one untraced and one traced job. Otherwise jobs back to
        back until the next would end after ``--seconds`` (at least one)."""
        if self.args.trace:
            reps.append(self.run_job(traced=False))
            if not reps[-1].timed_out:
                reps.append(self.run_job(traced=True))
            return
        loop0 = time.perf_counter()
        while True:
            reps.append(self.run_job(traced=False))
            spent = time.perf_counter() - loop0
            if reps[-1].timed_out or \
                    spent + reps[-1].wall_s > self.args.seconds:
                return

    # --- the run ----------------------------------------------------------

    def run(self) -> tuple[dict, list[str]]:
        from perfbench import workloads

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
        import ray

        # The corpus and oracle are built by a harness process on the
        # CPUs the engine is not pinned to, while Ray starts.
        cache_root = os.path.join(ROOT, ".perfbench_cache")
        harness = subprocess.Popen(
            [sys.executable, "-m", "perfbench.workloads",
             "--workload", self.args.workload, "--seed", str(self.args.seed),
             "--cpus", ",".join(map(str, self.other_cpus))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.mem = probes.MemorySampler(exclude={harness.pid},
                                        cpus=self.other_cpus)
        reps: list[Rep] = []
        layer: dict = {}
        try:
            try:    # set-up gets the same deadline as the jobs
                signal.setitimer(signal.ITIMER_REAL, RUN_DEADLINE_S
                                 - (time.perf_counter() - T_START))
                self.start_ray()
                if select.select([harness.stdout], [], [], 120)[0]:
                    harness.stdout.readline()
                self.corpus = workloads.build_corpus(self.w, self.args.seed,
                                                     cache_root)
                self.session_setup()
            except (JobTimeout, Exception):     # a failed set-up fails
                traceback.print_exc()           # the run, not the bench
                reps.append(Rep(timed_out=True))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if not reps:
                self.run_loop(reps)
            try:
                harness.wait(timeout=max(1.0, RUN_DEADLINE_S
                                         - (time.perf_counter() - T_START)))
            except subprocess.TimeoutExpired:
                pass    # killed below; the oracle is then computed here
        finally:
            ray.shutdown()
            probes.reap(self.mem.close())
            if harness.poll() is None:
                harness.kill()
            harness.wait()
            harness.stdout.close()
            shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"),
                          ignore_errors=True)
            shutil.rmtree(self.work_dir, ignore_errors=True)
        if not hasattr(self, "corpus"):
            self.corpus = workloads.build_corpus(self.w, self.args.seed,
                                                 cache_root)
        # Oracle: cached by the harness when the engine's calibrator knots
        # equal the oracle's own fit; otherwise computed here.
        calib = None if self.calib is None else [list(k) for k in self.calib]
        self.env["engine_knots_match_oracle"] = os.path.exists(
            workloads.oracle_path(self.corpus, calib))
        with self.tracer.span("harness.oracle"):
            self.expected = workloads.oracle(self.corpus, self.args.seed,
                                             self.calib)
        for r in reps:
            for got in r.outputs:
                r.bad |= workloads.bad_docs(self.expected, got)
            if r.fields is not None:
                r.bad |= workloads.bad_fields(self.expected, r.fields)
        if self.args.trace and len(reps) == 2 and not any(
                r.timed_out for r in reps):
            layer = self.layer_metrics(reps[0], reps[1])

        n = len(self.corpus.indices)
        attempted = n * len(reps)
        failed = sum(len(r.bad) if not r.timed_out else n for r in reps)
        ok = [r for r in reps if not r.timed_out]
        setup_s = sum(self.setup.values())
        walls = [r.wall_s for r in ok]
        self.env.update(self.environment(reps))
        e2e = {"docs_per_s": n / statistics.median(walls) if ok else 0.0,
               "setup_s": setup_s, "peak_mem_mb": self.mem.peak_mb}
        if self.args.trace:
            metrics, units = layer, per_layer_units()
        else:
            metrics, units = e2e, E2E_UNITS
        info = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
        info["resume_s"] = (statistics.median(r.resume_s for r in ok)
                            if ok and self.w.num_parts else None, "s")
        info["doc_error_rate"] = (failed / attempted, "frac")
        if metrics and set(metrics) != set(units):
            raise RuntimeError("emitted metrics differ from the declared "
                               f"set: {sorted(set(metrics) ^ set(units))}")
        lines = [f"env {json.dumps(self.env, sort_keys=True)}"]
        lines += [f"{k} {v:.6g} {u}" for k, (v, u) in info.items()
                  if v is not None]
        tag = f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}"
        if self.args.trace:
            spans_path = os.path.join(self.out_dir, f"spans-{tag}.json")
            self.tracer.dump(spans_path)
            lines.append(f"spans {spans_path} ({len(self.tracer.spans)})")
        result = {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in sorted(metrics.items())},
        }
        with open(os.path.join(self.out_dir, f"result-{tag}.json"), "w") as f:
            json.dump({"env": self.env, "setup": self.setup,
                       "info": {k: v for k, (v, _u) in info.items()},
                       "walls_s": walls, "result": result}, f, indent=1)
        return result, lines

    def environment(self, reps: list[Rep]) -> dict:
        import ray

        busy = sum(r.busy_s for r in reps)
        steal = sum(r.steal_s for r in reps)
        return {
            "workload": self.args.workload, "seed": self.args.seed,
            "seconds": self.args.seconds, "trace": self.args.trace,
            "nproc": len(self.cpus), "pinned_cpus": self.cpus,
            "ray_logical_cpus": self.logical_cpus,
            "pool_sizes": (self.pool if self.args.workload == "bills"
                           else "extract_spans_hybrid defaults"),
            "num_parts": self.w.num_parts or None,
            "ray_version": ray.__version__,
            "host_busy_cpu_s": round(busy, 3),
            "host_steal_cpu_s": round(steal, 3),
            "steal_frac": round(steal / (busy + steal), 4)
            if busy + steal else 0.0,
            "corpus": self.corpus.counts,
            "oracle_digest": self.expected["digest"]
            if hasattr(self, "expected") else None,
            "reps": len(reps), "timed_out": sum(r.timed_out for r in reps),
        }

    def layer_metrics(self, untraced: Rep, traced: Rep) -> dict:
        from perfbench import kernels

        m = dict(self.setup)
        m.update(probes.op_metrics(traced.stats))
        shuffled = set()
        if self.args.workload == "long_docs_fields":
            shuffled = set(self.expected["n_rows"])
        k, kernel_cpu_s = kernels.kernel_pass(
            self.corpus, self.expected, self.calib, self.tracer,
            shuffled_docs=shuffled,
            with_fields=self.args.workload == "long_docs_fields")
        m.update(k)
        m["ray.busy_frac"] = traced.main_busy_s / (traced.wall_s
                                                   * len(self.cpus))
        m["ray.kernel_frac"] = kernel_cpu_s / traced.main_busy_s \
            if traced.main_busy_s else 0.0
        walls = [r["wall_seconds"] for r in traced.lineage]
        m["checkpoint.partition_s.p50"] = statistics.median(walls) \
            if walls else 0.0
        m["checkpoint.partition_s.max"] = max(walls, default=0.0)
        m["checkpoint.resume_s"] = traced.resume_s
        recomputed = (self.w.num_parts // 2) / self.w.num_parts \
            if self.w.num_parts else 0.0
        m["checkpoint.resume_cost_ratio"] = \
            traced.resume_s / (traced.wall_s * recomputed) if recomputed \
            else 0.0
        m["trace.overhead_frac"] = 1.0 - untraced.wall_s / traced.wall_s
        return m


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import ocr_pipeline_ray
        from tests.oracle import golden

        from perfbench import workloads
    except ImportError as e:
        print(f"perfbench: the engine or its oracle is missing under {ROOT}:"
              f" {e}", file=sys.stderr)
        return 2
    for mod in (ocr_pipeline_ray, golden):   # not a copy from elsewhere
        if not os.path.abspath(mod.__file__).startswith(ROOT + os.sep):
            print(f"perfbench: {mod.__name__} is imported from "
                  f"{mod.__file__}, not from {ROOT}", file=sys.stderr)
            return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    allowed = sorted(os.sched_getaffinity(0))
    cpus = probes.pinned_cpus()
    other = [c for c in allowed if c not in cpus] or cpus
    probes.pin(cpus)
    signal.signal(signal.SIGALRM, _on_alarm)
    # Ray and the engine log to stdout too; keep stdout for the result
    result_fd = os.dup(1)
    os.dup2(2, 1)
    result, lines = Bench(args, cpus, other).run()
    sys.stdout.flush()
    with os.fdopen(result_fd, "w") as out:
        for line in lines:
            out.write(line + "\n")
        out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
