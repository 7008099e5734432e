"""Measurement helpers read from outside the engine: CPU pinning, /proc
CPU and memory counters, process reaping, spans, and Ray Data operator
stats turned into structured fields."""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager


def pinned_cpus() -> list[int]:
    """The CPUs this process may use, cut to what ``nproc`` reports
    (``OMP_NUM_THREADS`` caps it, as it does for ``nproc``)."""
    allowed = sorted(os.sched_getaffinity(0))
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", "0"))
    except ValueError:
        n = 0
    if n <= 0 or n > len(allowed):
        n = len(allowed)
    return allowed[:n]


def pin(cpus: list[int]) -> None:
    """Pin this process; Ray's processes inherit the mask from it."""
    os.sched_setaffinity(0, set(cpus))


def cpu_seconds(cpus: list[int]) -> tuple[float, float]:
    """(busy, stolen) CPU-seconds since boot summed over ``cpus``, from
    the per-CPU lines of /proc/stat. Busy is user+nice+system+irq+
    softirq; idle and iowait are not work, and steal is time the
    hypervisor gave to another guest."""
    want = {f"cpu{c}" for c in cpus}
    busy = steal = 0
    with open("/proc/stat") as f:
        for line in f:
            parts = line.split()
            if parts and parts[0] in want:
                v = [int(x) for x in parts[1:]] + [0] * 8
                busy += v[0] + v[1] + v[2] + v[5] + v[6]
                steal += v[7]
    hz = os.sysconf("SC_CLK_TCK")
    return busy / hz, steal / hz


class Stopwatch:
    """Wall time since start, less the time the hypervisor stole from
    the pinned CPUs (per CPU), and busy CPU-s of those CPUs. Steal is
    another guest's load on the host, not this program's cost."""

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.t0 = time.perf_counter()
        self.busy0, self.steal0 = cpu_seconds(cpus)

    def read(self) -> tuple[float, float, float]:
        """(steal-corrected wall s, busy CPU-s, stolen CPU-s)."""
        wall = time.perf_counter() - self.t0
        busy, steal = cpu_seconds(self.cpus)
        steal -= self.steal0
        return wall - steal / len(self.cpus), busy - self.busy0, steal

    def seconds(self) -> float:
        return self.read()[0]


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants(root: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """One thread, on ``cpus``, sums the PSS of this process and all its
    descendants but ``exclude`` (the Ray head processes and workers)
    every ``interval`` seconds.
    ``peak_mb`` covers only the windows between ``start`` and ``stop``.
    Every pid seen is remembered so that ``reap`` can wait for it."""

    def __init__(self, exclude: set[int], cpus: list[int],
                 interval: float = 0.2) -> None:
        self.interval = interval
        self.exclude = exclude
        self.cpus = cpus
        self.seen: set[int] = set()
        self.peak_kb = 0
        self._active = False
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))    # this thread only
        me = os.getpid()
        while not self._halt.wait(self.interval):
            pids = [p for p in descendants(me) if p not in self.exclude]
            with self._lock:
                self.seen.update(pids)
                if self._active:
                    kb = _pss_kb(me) + sum(_pss_kb(p) for p in pids)
                    self.peak_kb = max(self.peak_kb, kb)

    def start(self) -> None:
        with self._lock:
            self._active = True

    def stop(self) -> None:
        with self._lock:
            self._active = False

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def close(self) -> set[int]:
        self._halt.set()
        self._thread.join(timeout=5)
        with self._lock:
            self.seen.update(p for p in descendants(os.getpid())
                             if p not in self.exclude)
            return set(self.seen)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def reap(pids: set[int], grace: float = 10.0) -> None:
    """Wait until every pid has ended; SIGKILL what outlives ``grace``.
    Ray workers are re-parented when the raylet exits, so they are
    polled through /proc rather than waited on."""
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    for p in pids:  # collect our own zombie children
        try:
            os.waitpid(p, os.WNOHANG)
        except ChildProcessError:
            pass


class Tracer:
    """Spans recorded in memory and written out at the end: name, start,
    end (seconds since the tracer was made), parent span id and one run
    id shared by every span. Disabled, ``span`` costs one branch."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"run": self.run_id, "id": len(self.spans) + 1,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter() - self._t0,
               "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


# --- Ray Data operator stats -------------------------------------------

OP_FIELDS = {
    "read": ("wall_s", "cpu_s"),
    "doclocal": ("wall_s", "cpu_s", "rows_out"),
    "explode_classify": ("wall_s", "cpu_s"),
    "ocr_pool": ("wall_s", "cpu_s", "rows_out"),
    "reassemble": ("wall_s", "cpu_s", "rows_in"),
    "fields_reduce": ("wall_s", "cpu_s"),
}


def _categories(name: str, group: str) -> list[str]:
    """Operator name → benchmark categories. Ray fuses adjacent map
    operators, so one fused operator may count in several categories
    (explode/classify run fused into the OCR pool on Ray 2.49)."""
    cats = []
    if "ReadParquet" in name:
        cats.append("read")
    if "DocLocalExtract" in name:
        cats.append("doclocal")
    if "explode_spans" in name or "classify_spans" in name:
        cats.append("explode_classify")
    if "OcrStage" in name:
        cats.append("ocr_pool")
    if group == "fields":
        if not cats:
            cats.append("fields_reduce")
    elif ("filter_keep" in name or "_rank_bucket" in name
          or name.startswith("Sort")):
        cats.append("reassemble")
    return cats


def _walk(summary, seen: set[int]):
    if id(summary) in seen:
        return
    seen.add(id(summary))
    for parent in summary.parents:
        yield from _walk(parent, seen)
    yield from summary.operators_stats


def stats_summary(ds):
    """Structured stats of an executed Dataset. A Dataset written with
    ``write_parquet`` keeps its stats on the write plan."""
    write_ds = getattr(ds, "_write_ds", None)
    if write_ds is not None:
        ds = write_ds
    return ds._get_stats_summary()


def op_metrics(groups: list[tuple[str, object]]) -> dict[str, float]:
    """``groups``: (group, DatasetStatsSummary) pairs, group "spans" or
    "fields". For "fields" only the summary's own operators count (its
    parents are the spans plan, counted under "spans"). Returns every
    ``op.<category>.<field>`` name, 0 where no operator ran."""
    out = {f"op.{c}.{f}": 0.0 for c, fs in OP_FIELDS.items() for f in fs}
    out["op.fused_explode_ocr"] = 0.0
    for group, summary in groups:
        ops = summary.operators_stats if group == "fields" \
            else list(_walk(summary, set()))
        for op in ops:
            name = op.operator_name
            cats = _categories(name, group)
            if "explode_classify" in cats and "ocr_pool" in cats:
                out["op.fused_explode_ocr"] = 1.0
            wall = (op.wall_time or {}).get("sum", 0.0)
            cpu = (op.cpu_time or {}).get("sum", 0.0)
            rows = (op.output_num_rows or {}).get("sum", 0)
            for c in cats:
                out[f"op.{c}.wall_s"] += wall
                out[f"op.{c}.cpu_s"] += cpu
                if c in ("doclocal", "ocr_pool"):
                    out[f"op.{c}.rows_out"] += rows
                # rows entering the shuffle = rows leaving its keep filter
                if c == "reassemble" and "filter_keep" in name:
                    out["op.reassemble.rows_in"] += rows
    return out
