"""Shared plumbing for the perfbench workloads.

Everything here is harness code: it never changes what the program under
test computes, only how it is timed, traced, checked and reported.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import platform
import pstats
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_ROOT = BENCH_DIR / ".work"

#: The repo's layer packages, in the order the per-layer table lists them.
#: ``other`` is numpy, the stdlib, and harness code.
LAYERS = ("sim", "rpc", "workloads", "fleet", "net", "obs", "core",
          "theory", "serve", "studies", "other")

#: The profiler leaves its own bookkeeping between events unattributed,
#: so the summed self times fall a little short of the traced wall time
#: (about 2.5% on a DES study). A wider gap means the grouping lost time.
SELF_SUM_TOLERANCE = 0.05


class BenchError(RuntimeError):
    """A benchmark run that cannot produce a result."""


def require_source() -> None:
    """Put ``src/`` on the import path, or fail before measuring."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC_DIR}; run from a "
                         "checkout of the repository")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
    return env


@contextmanager
def work_dir(tag: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def sub_seed(seed: int, *key) -> int:
    """A stable 31-bit seed derived from the run seed and a key path."""
    material = repr((int(seed),) + tuple(key)).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(),
                          "little") & 0x7FFFFFFF


def sha256_arrays(*arrays) -> str:
    """Digest of arrays' dtypes, shapes and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(a.tobytes()))
    return h.hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """This process's lifetime peak RSS (Linux ``ru_maxrss`` is in KB)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------

def time_child_until_ready(argv: Sequence[str], ready_prefix: str,
                           timeout_s: float = 60.0
                           ) -> Tuple[float, subprocess.Popen, str]:
    """Spawn ``argv``; seconds until it prints a line starting with
    ``ready_prefix``. Returns ``(seconds, process, ready_line)``; the
    caller owns the still-running process."""
    start_s = time.perf_counter()
    proc = subprocess.Popen(list(argv), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            cwd=REPO_ROOT, env=child_env())
    deadline_s = start_s + timeout_s
    while True:
        remaining_s = deadline_s - time.perf_counter()
        line = ""
        if remaining_s > 0 and select.select([proc.stdout], [], [],
                                             remaining_s)[0]:
            line = proc.stdout.readline()
        if line.startswith(ready_prefix):
            return time.perf_counter() - start_s, proc, line.strip()
        if not line:
            stop_process(proc)
            raise BenchError(f"{' '.join(argv[1:4])} exited or hung "
                             f"before printing {ready_prefix!r}")


def stop_process(proc: subprocess.Popen, timeout_s: float = 20.0) -> None:
    """SIGTERM a child (SIGKILL if it lingers) and wait until it ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def measure_setup(workload: str, samples: int) -> List[float]:
    """Interpreter start → workload ready, in fresh processes.

    Each sample runs ``run.py --setup-probe`` in a new interpreter, so
    import and build costs are paid again every time — as a user pays
    them — and the median is steady against one slow start.
    """
    out = []
    for _ in range(samples):
        seconds, proc, _line = time_child_until_ready(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--setup-probe", workload], "ready")
        stop_process(proc)
        out.append(seconds)
    return out


# ----------------------------------------------------------------------
# Tracing: benchmark-side spans and the per-layer profile
# ----------------------------------------------------------------------

class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``(name, start_s, end_s, parent_index)``; spans are only
    written out by :meth:`dump` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name_, start_s, _end, parent_ = self.spans[index]
            self.spans[index] = (name_, start_s, time.perf_counter(), parent_)

    def add(self, name: str, start_s: float, end_s: float) -> None:
        """Record a span measured elsewhere (e.g. an aggregated wrapper)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, start_s, end_s, parent))

    def total_s(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _p in self.spans
                   if n == name)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start_s": round(s - origin, 9),
                 "end_s": round(e - origin, 9), "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows, indent=0) + "\n")


class _NullTracer(Tracer):
    """Untimed runs: spans cost one attribute lookup and record nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = _NullTracer()


def timed_method(tracer: Tracer, owner, attr: str, span_name: str) -> Callable:
    """Wrap ``owner.attr`` so each call adds to one aggregate span total.

    Returns an ``undo`` callable. Calls are summed rather than recorded
    one span each, so a per-span sink hook stays cheap.
    """
    original = getattr(owner, attr)
    totals = {"s": 0.0}

    def wrapper(*args, **kwargs):
        start_s = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals["s"] += time.perf_counter() - start_s

    setattr(owner, attr, wrapper)

    def undo() -> float:
        if isinstance(owner, type):
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
        now = time.perf_counter()
        tracer.add(span_name, now - totals["s"], now)
        return totals["s"]

    return undo


def layer_of(filename: str) -> str:
    """Map a profiled code location to its ``repro.<layer>`` package."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or "/src/repro/" not in path:
        return "other"
    rest = path[at + len(marker):]
    head = rest.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "other"


def layer_table(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                              Dict[str, int]]:
    """Self seconds and call counts per layer from a profile."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in \
            stats.stats.items():
        layer = layer_of(filename)
        self_s[layer] += tt
        calls[layer] += nc
    return self_s, calls


def profiled(fn: Callable[[], object]) -> Tuple[object, pstats.Stats, float]:
    """Run ``fn`` under cProfile: ``(result, stats, traced_wall_s)``."""
    profiler = cProfile.Profile()
    start_s = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start_s
    return result, pstats.Stats(profiler), wall_s


def layer_metrics(self_s: Dict[str, float], calls: Dict[str, int],
                  traced_wall_s: float, untraced_wall_s: float
                  ) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer block every workload reports, plus failed checks."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = float(calls[layer])
    total_s = sum(self_s.values())
    out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    out["trace.self_sum_ratio"] = total_s / traced_wall_s
    failures = []
    if abs(1.0 - out["trace.self_sum_ratio"]) > SELF_SUM_TOLERANCE:
        failures.append(
            f"layer self times sum to {total_s:.3f}s but the traced wall "
            f"is {traced_wall_s:.3f}s (tolerance {SELF_SUM_TOLERANCE:.0%})")
    return out, failures


# ----------------------------------------------------------------------
# Provenance and results
# ----------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest() -> str:
    """SHA-256 over every file under ``src/repro`` (path + bytes).

    The benchmark also runs from plain exports with no git metadata;
    this names the program measured either way.
    """
    h = hashlib.sha256()
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC_DIR).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: bool,
               seconds: float) -> Dict[str, object]:
    import numpy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "measured_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
    }


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))
