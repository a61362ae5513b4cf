"""``serve_open``: the real ``repro-rpc serve`` under open-loop load.

Each measurement phase gets its own server process (``serve --port 0``,
default config, its own ``--cache-dir``), so a burn-rate alert or load
shedding tripped in one phase cannot leak into the next. The first
three servers start from an empty cache: their spawn → prewarm → bind
time is the workload's set-up. Capacity probes start from a copy of the
cache the first server prewarmed, which is the same state at a fraction
of the start-up cost.

Chosen because it is the only request-serving surface: response caching
shows here and nowhere else, and its prewarm runs two small DES studies,
which ties DES speed to this workload's set-up time.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import loadgen
from common import (BENCH_DIR, LAYERS, BenchError, Outcome, Tracer,
                    layer_metrics, median, percentile, proc_hwm_mb,
                    stop_process, sub_seed, time_child_until_ready,
                    work_dir)

#: Fixed open-loop rates, frozen from the seed's measured capacity on a
#: 2-core x86 box (~30% and ~70% of it). They do not follow the host.
LIGHT_RPS = 21.0
HEAVY_RPS = 49.0
#: serve's default latency SLO: p99 within 50 ms.
SLO_P99_MS = 50.0
#: Failures a capacity probe may have and still pass (share of requests).
PROBE_FAILURE_BOUND = 0.001
#: Capacity bisection range (requests/s) and number of probes.
CAPACITY_LO_RPS = 10.0
CAPACITY_HI_RPS = 190.0
CAPACITY_PROBES = 3
#: Closed-loop rounds on server A. Each round times one batch of the
#: full mix (``throughput_per_s``) and one of its cache-hot part
#: (``replay_per_s``); each metric is the median over rounds, so one
#: slow stretch of the host moves at most one sample.
CLOSED_ROUNDS = 5
CLOSED_BATCH_REQUESTS = 200
#: Untimed cache-hot requests each server gets before it is measured.
WARMUP_REQUESTS = 200
#: Share of ``--seconds`` given to each open-loop phase; the probes share
#: the rest. The closed-loop batches are sized by request count instead.
LIGHT_SHARE = 0.15
HEAVY_SHARE = 0.20
PROBE_SHARE = 0.30

READY = "serving on http://"


def n_connections() -> int:
    """The open loop uses at most one keep-alive connection per core."""
    return max(1, os.cpu_count() or 1)


class Server:
    """One ``repro-rpc serve`` child process."""

    def __init__(self, cache_dir: Path, profile_out: Optional[Path] = None):
        if profile_out is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_profiled.py"),
                    str(profile_out), "--"]
        argv += ["serve", "--port", "0", "--cache-dir", str(cache_dir)]
        self.profile_out = profile_out
        self.setup_s, self.proc, line = time_child_until_ready(argv, READY)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            stop_process(self.proc)
            raise BenchError(f"cannot parse listen address from {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def hwm_mb(self) -> float:
        return proc_hwm_mb(self.proc.pid)

    def profile(self, start: bool) -> None:
        self.proc.send_signal(signal.SIGUSR1 if start else signal.SIGUSR2)

    def read_profile(self, timeout_s: float = 30.0) -> Dict[str, object]:
        deadline_s = time.perf_counter() + timeout_s
        while not self.profile_out.exists():
            if time.perf_counter() > deadline_s:
                raise BenchError("profiled server wrote no profile")
            time.sleep(0.05)
        return json.loads(self.profile_out.read_text())

    def stop(self) -> None:
        stop_process(self.proc)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def direct_render(seed: int) -> str:
    """A study answer computed directly, without the server."""
    from repro.core.parallel import run_tree_study_cached
    from repro.workloads.catalog import CatalogConfig, build_catalog

    params = loadgen.HOT_STUDY
    catalog = build_catalog(CatalogConfig(n_methods=params["methods"],
                                          seed=seed))
    result, _hit = run_tree_study_cached(
        catalog, n_trees=params["trees"], seed=seed,
        max_nodes=params["max_nodes"], cache=None)
    return result.render()


def expected_hot_render() -> str:
    """What every ``study_hot`` response must carry."""
    return direct_render(loadgen.HOT_STUDY["seed"])


def check_body(sample: loadgen.Sample, hot_render: str) -> Optional[str]:
    """Why a 200 response is wrong, or ``None`` if it is right."""
    endpoint = sample.endpoint
    if endpoint == "metrics":
        return None if b"serve_requests" in sample.body else \
            "metrics: no serve_requests series"
    try:
        doc = json.loads(sample.body)
    except ValueError:
        return f"{endpoint}: body is not JSON"
    if endpoint == "healthz":
        return None if doc.get("status") == "ok" else "healthz: not ok"
    if endpoint == "study_hot":
        if doc.get("cache_hit") is not True:
            return "study_hot: cache_hit is not true"
        if doc.get("render") != hot_render:
            return "study_hot: body differs from the direct computation"
        return None
    if endpoint == "study_miss":
        return None if doc.get("cache_hit") is False else \
            "study_miss: served from cache"
    mode = "analytic" if endpoint == "whatif_analytic" else "des"
    if doc.get("mode") != mode:
        return f"{endpoint}: mode {doc.get('mode')!r} != {mode!r}"
    if doc.get("cache_hit") is not True:
        return f"{endpoint}: cache_hit is not true"
    return None


def account(samples: Sequence[loadgen.Sample], outcome: Outcome,
            hot_render: str, allow_overload: bool = False) -> Dict[str, int]:
    """Check every response; returns shed/error/timeout counts.

    In a capacity probe (``allow_overload``) shedding and timeouts are
    the probe's signal that the rate is too high, not failed operations.
    """
    counts = {"shed": 0, "errors": 0, "timeouts": 0}
    for s in samples:
        if s.status is None:
            counts["timeouts"] += 1
            if not allow_overload:
                outcome.fail(f"{s.endpoint}: timed out")
            continue
        if s.status == 503:
            counts["shed"] += 1
            if not allow_overload:
                outcome.fail(f"{s.endpoint}: shed (503)")
            continue
        if s.status != 200:
            counts["errors"] += 1
            outcome.fail(f"{s.endpoint}: HTTP {s.status}")
            continue
        problem = check_body(s, hot_render)
        outcome.check(problem is None, problem or "")
    return counts


def latency_ms(samples: Sequence[loadgen.Sample], q: float) -> float:
    return percentile([s.latency_s for s in samples], q) * 1e3


def verify_misses(samples: Sequence[loadgen.Sample], outcome: Outcome,
                  limit: int = 2) -> None:
    """Recompute a few fresh-seed studies directly and compare bodies."""
    checked = 0
    for s in samples:
        if s.endpoint != "study_miss" or s.status != 200:
            continue
        doc = json.loads(s.body)
        outcome.check(doc.get("render") == direct_render(int(doc["seed"])),
                      f"study_miss seed {doc.get('seed')}: body differs "
                      "from the direct computation")
        checked += 1
        if checked >= limit:
            break


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------

def probe_passes(samples: Sequence[loadgen.Sample]) -> Tuple[bool, Dict]:
    """p99 within the SLO, failures within bound, and no growing backlog."""
    ok = [s for s in samples if s.status == 200]
    failures = len(samples) - len(ok)
    p99_ms = latency_ms(samples, 99) if samples else float("inf")
    quarter = max(1, len(samples) // 4)
    head = sorted(s.latency_s for s in samples[:quarter])
    tail = sorted(s.latency_s for s in samples[-quarter:])
    head_ms, tail_ms = head[len(head) // 2] * 1e3, tail[len(tail) // 2] * 1e3
    growing = tail_ms > max(2.0 * head_ms, head_ms + 10.0)
    passed = (p99_ms <= SLO_P99_MS and not growing
              and failures <= PROBE_FAILURE_BOUND * len(samples))
    return passed, {"p99_ms": p99_ms, "failures": failures,
                    "backlog_head_p50_ms": head_ms,
                    "backlog_tail_p50_ms": tail_ms, "n": len(samples)}


def warm_up(server: Server, seed: int) -> None:
    """Untimed cache-hot traffic until lazy start-up work is done.

    A freshly prewarmed server answers the same analytic what-if several
    times slower for its first few hundred requests (allocator and
    first-touch effects that vary from start to start); users pay that
    once per server, so it is kept out of every timed phase.
    """
    loadgen.run_closed_loop(server.host, server.port,
                            loadgen.fixed_batch(seed, WARMUP_REQUESTS),
                            n_connections())


def find_capacity(seed: int, duration_s: float, first: "Server",
                  template: Path, root: Path, outcome: Outcome,
                  hot_render: str) -> Tuple[float, List, float]:
    """Bisect the open-loop rate; every probe runs on a fresh server.

    ``first`` (already warmed) takes the first probe; later probes start
    from a copy of the prewarmed cache, so an alert or shedding tripped
    by one probe cannot leak into the next. Returns ``(capacity, probes,
    peak RSS of the first server)``.
    """
    lo, hi = CAPACITY_LO_RPS, CAPACITY_HI_RPS
    probes = []
    server: Optional[Server] = first
    for k in range(CAPACITY_PROBES):
        rate = (lo + hi) / 2.0
        schedule = loadgen.poisson_schedule(
            sub_seed(seed, "probe", k), rate, duration_s,
            first_miss_seed=1_000_000 * (k + 10))
        try:
            if server is None:
                cache = root / f"probe{k}"
                shutil.copytree(template, cache)
                server = Server(cache)
                warm_up(server, sub_seed(seed, "warm", "probe", k))
            samples = loadgen.run_open_loop(server.host, server.port,
                                            schedule, n_connections())
            if k == 0:
                first_hwm_mb = server.hwm_mb()
        finally:
            if server is not None:
                server.stop()
            server = None
        account(samples, outcome, hot_render, allow_overload=True)
        passed, stats = probe_passes(samples)
        probes.append({"rate_rps": rate, "passed": passed, **stats})
        if passed:
            lo = rate
        else:
            hi = rate
    return lo, probes, first_hwm_mb


def endpoint_latencies(samples: Sequence[loadgen.Sample]
                       ) -> Dict[str, float]:
    out = {}
    for endpoint in loadgen.ENDPOINTS:
        mine = [s for s in samples if s.endpoint == endpoint]
        for q in (50, 99):
            out[f"serve.{endpoint}.p{q}_ms"] = (latency_ms(mine, q)
                                                if mine else 0.0)
    return out


def server_phases(server: Server) -> Dict[str, float]:
    """Per-phase server span percentiles for ``/v1/study`` requests."""
    doc = loadgen.get_json(server.host, server.port,
                           "/debug/query?service=serve&percentiles=50,99")
    rows = {row["method"]: row for row in doc["groups"]}
    out = {}
    for phase in ("parse", "cache_lookup", "compute", "serialize"):
        row = rows.get(f"study/{phase}", {})
        out[f"serve.phase.{phase}.p50_ms"] = float(row.get("p50_ms", 0.0))
        out[f"serve.phase.{phase}.p99_ms"] = float(row.get("p99_ms", 0.0))
    study = rows.get("study", {})
    out["_study_server_p50_ms"] = float(study.get("p50_ms", 0.0))
    out["_study_server_spans"] = int(study.get("count", 0))
    return out


def hit_ratio(samples: Sequence[loadgen.Sample]) -> float:
    flags = []
    for s in samples:
        if s.status == 200 and s.endpoint.startswith(("study", "whatif")):
            flags.append(bool(json.loads(s.body).get("cache_hit")))
    return sum(flags) / len(flags) if flags else 0.0


def open_phase(server: Server, seed: int, name: str, rate_rps: float,
               duration_s: float, first_miss_seed: int, outcome: Outcome,
               hot_render: str, detail: Dict[str, object]
               ) -> List[loadgen.Sample]:
    """One fixed-rate open-loop phase; latencies go into ``detail``."""
    schedule = loadgen.poisson_schedule(sub_seed(seed, name), rate_rps,
                                        duration_s, first_miss_seed)
    samples = loadgen.run_open_loop(server.host, server.port, schedule,
                                    n_connections())
    counts = account(samples, outcome, hot_render)
    detail[f"p50_ms_{name}"] = latency_ms(samples, 50)
    detail[f"p99_ms_{name}"] = latency_ms(samples, 99)
    detail[f"n_{name}"] = len(samples)
    detail[f"{name}_failures"] = counts
    return samples


def closed_rounds(server: Server, seed: int, outcome: Outcome,
                  hot_render: str) -> Tuple[List[float], List[float]]:
    """Alternate full-mix and cache-hot closed-loop batches; returns the
    req/s of each ``(full-mix batches, cache-hot batches)``."""
    full, hot, mixed = [], [], []
    for k in range(CLOSED_ROUNDS):
        for hot_only, rates in ((False, full), (True, hot)):
            batch = loadgen.fixed_batch(
                sub_seed(seed, "closed", k, hot_only),
                CLOSED_BATCH_REQUESTS,
                first_miss_seed=3_000_000 + k * CLOSED_BATCH_REQUESTS,
                hot_only=hot_only)
            samples, wall_s = loadgen.run_closed_loop(
                server.host, server.port, batch, n_connections())
            account(samples, outcome, hot_render)
            if not hot_only:
                mixed.extend(samples)
            rates.append(len(batch) / wall_s)
    verify_misses(mixed, outcome)
    return full, hot


def run(seed: int, seconds: float, trace: bool) -> tuple:
    hot_render = expected_hot_render()
    outcome = Outcome()
    tracer = Tracer()
    with work_dir("serve") as root:
        if trace:
            return _run_traced(seed, seconds, root, outcome, tracer,
                               hot_render)
        detail: Dict[str, object] = {"light_rps": LIGHT_RPS,
                                     "heavy_rps": HEAVY_RPS,
                                     "connections": n_connections()}
        setups, hwms = [], []

        def cold_server(name: str) -> Server:
            server = Server(root / f"cache-{name}")
            setups.append(server.setup_s)
            try:
                if name == "a":
                    # Prewarmed and untouched: the probes' starting cache.
                    shutil.copytree(root / "cache-a", root / "template")
                warm_up(server, sub_seed(seed, "warm", name))
            except BaseException:
                server.stop()
                raise
            return server

        with cold_server("a") as server:
            open_phase(server, seed, "light", LIGHT_RPS,
                       LIGHT_SHARE * seconds, 1_000_000, outcome,
                       hot_render, detail)
            saturated, replay = closed_rounds(server, seed, outcome,
                                              hot_render)
            hwms.append(server.hwm_mb())
        with cold_server("b") as server:
            heavy = open_phase(server, seed, "heavy", HEAVY_RPS,
                               HEAVY_SHARE * seconds, 2_000_000, outcome,
                               hot_render, detail)
            hwms.append(server.hwm_mb())
        verify_misses(heavy, outcome)
        capacity, probes, hwm_mb = find_capacity(
            seed, PROBE_SHARE * seconds / CAPACITY_PROBES, cold_server("c"),
            root / "template", root, outcome, hot_render)
        hwms.append(hwm_mb)
        detail.update({"capacity_rps": capacity, "probes": probes,
                       "saturated_rps_rounds": saturated,
                       "replay_rps_rounds": replay,
                       "setup_samples_s": setups, "server_hwm_mb": hwms})
    metrics = {"setup_s": median(setups),
               "throughput_per_s": median(saturated),
               "replay_per_s": median(replay),
               "peak_rss_mb": median(hwms)}
    return metrics, detail, outcome, tracer


def _run_traced(seed, seconds, root, outcome, tracer, hot_render):
    """Client spans and server phases from an untraced heavy phase; then
    the replay batch untraced and profiled on the same server."""
    detail: Dict[str, object] = {}
    with Server(root / "cache", profile_out=root / "profile.json") as server:
        # This warm-up leaves out /v1/study: ``/debug/query`` reads every
        # span the server kept, so the study phase spans it reports must
        # all come from the heavy phase the client side times.
        loadgen.run_closed_loop(
            server.host, server.port,
            [r for r in loadgen.fixed_batch(sub_seed(seed, "warm", "a"),
                                            WARMUP_REQUESTS)
             if not r.endpoint.startswith("study")],
            n_connections())
        samples = open_phase(server, seed, "heavy", HEAVY_RPS,
                             HEAVY_SHARE * seconds, 2_000_000, outcome,
                             hot_render, detail)
        for s in samples:
            tracer.add(f"client.{s.endpoint}", s.due_s, s.done_s)
        counts = detail["heavy_failures"]
        phases = server_phases(server)
        batch = loadgen.fixed_batch(sub_seed(seed, "replay"),
                                    CLOSED_ROUNDS * CLOSED_BATCH_REQUESTS)
        replay, untraced_wall_s = loadgen.run_closed_loop(
            server.host, server.port, batch, n_connections())
        account(replay, outcome, hot_render)
        server.profile(start=True)
        replay, traced_wall_s = loadgen.run_closed_loop(
            server.host, server.port, batch, n_connections())
        server.profile(start=False)
        account(replay, outcome, hot_render)
        profile = server.read_profile()
    metrics, failures = layer_metrics(
        {k: float(profile["self_s"][k]) for k in LAYERS},
        {k: int(profile["calls"][k]) for k in LAYERS},
        float(profile["wall_s"]), untraced_wall_s)
    # The overhead ratio compares the client-timed batch walls; the
    # self-sum check above compares against the server's profiled window.
    metrics["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
    for message in failures:
        outcome.fail(message)
    metrics.update(endpoint_latencies(samples))
    study_client = [s for s in samples if s.endpoint.startswith("study")]
    metrics["serve.queue_p50_ms"] = (latency_ms(study_client, 50)
                                     - phases.pop("_study_server_p50_ms"))
    # The server keeps a sample of spans; none may predate the window.
    detail["study_spans_server_vs_client"] = [
        phases.pop("_study_server_spans"), len(study_client)]
    metrics.update(phases)
    metrics["core.cache.hit_ratio"] = hit_ratio(samples)
    metrics["serve.shed"] = float(counts["shed"])
    metrics["serve.errors"] = float(counts["errors"])
    metrics["serve.timeouts"] = float(counts["timeouts"])
    metrics["loadgen.lag_p99_ms"] = percentile([s.lag_s for s in samples],
                                               99) * 1e3
    return metrics, detail, outcome, tracer
