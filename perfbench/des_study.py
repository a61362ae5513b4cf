"""``des_study``: the Tier-B discrete-event fleet, end to end.

One job = :func:`repro.studies.run_service_study` over all eight Table-1
services in one cluster (Dapper sampling 0.5) for a fixed simulated
slice, with every sampled span streamed into a ``SpanStoreSink``; then
the Fig. 14 breakdown and Fig. 15 what-if engine-side, and the Fig. 14
breakdown observer-side from the committed warehouse.

Chosen because it is the costliest computation in the repo and the only
workload that fires DES events: a change to the engine, the RPC model or
the span stores shows here first.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (NULL_TRACER, Outcome, Tracer, layer_metrics,
                    layer_table, median, peak_rss_mb, profiled,
                    sha256_arrays, sub_seed, timed_method, work_dir)

#: Simulated seconds per job (~3.5 host seconds on a 2-core x86 box).
SLICE_S = 0.2
N_CLUSTERS = 1
DAPPER_SAMPLING = 0.5
RUN_KEY = "des"
#: Times the timed loop runs each job's analyses (``replay_per_s`` takes
#: the median): they last ~0.2 s, short enough for host jitter to swing.
ANALYSIS_REPEATS = 3


def load():
    """Import the layers the job calls (this is the workload's set-up)."""
    from repro.core.breakdown import breakdown_cdf_for_service
    from repro.core.observer import observer_breakdown_cdf
    from repro.core.whatif import what_if_for_service
    from repro.obs.query import method_matrix
    from repro.obs.spanstore import SpanStore, SpanStoreSink, SpanWarehouse
    from repro.rpc.stack import (APP_COMPONENT, PROC_COMPONENTS,
                                 QUEUE_COMPONENTS)
    from repro.studies import run_service_study
    from repro.workloads.services import (CATEGORY_APP, CATEGORY_QUEUE,
                                          CATEGORY_STACK, SERVICE_SPECS)
    category = {APP_COMPONENT: CATEGORY_APP,
                **{c: CATEGORY_QUEUE for c in QUEUE_COMPONENTS},
                **{c: CATEGORY_STACK for c in PROC_COMPONENTS}}
    return dict(run_service_study=run_service_study,
                breakdown=breakdown_cdf_for_service,
                whatif=what_if_for_service,
                observer_breakdown=observer_breakdown_cdf,
                method_matrix=method_matrix, SpanStore=SpanStore,
                SpanStoreSink=SpanStoreSink, SpanWarehouse=SpanWarehouse,
                specs=SERVICE_SPECS, category=category)


def _count_rpcs(study) -> int:
    return sum(client.calls_completed
               for dep in study.deployments.values()
               for clients in dep.clients_by_cluster.values()
               for client in clients)


def job(api, seed: int, root: Path, tracer: Optional[Tracer] = None
        ) -> Dict[str, object]:
    """Run one study + analyses; returns timings, counters and outputs."""
    traced = tracer is not None
    tracer = tracer or NULL_TRACER
    sink = api["SpanStoreSink"](api["SpanStore"](root, RUN_KEY))
    if traced:
        undo_record = timed_method(tracer, sink, "record",
                                   "obs.warehouse_write")
    t0 = time.perf_counter()
    with tracer.span("studies.run_service_study"):
        study = api["run_service_study"](
            n_clusters=N_CLUSTERS, duration_s=SLICE_S, seed=seed,
            dapper_sampling=DAPPER_SAMPLING, span_sink=sink)
    with tracer.span("obs.warehouse_close"):
        sink.close()
    t1 = time.perf_counter()
    if traced:
        undo_record()
    out = analyse(api, study, root, tracer)
    return dict(study=study, sim_s=t1 - t0, wall_s=t1 - t0 + out["replay_s"],
                rpcs=_count_rpcs(study), **out)


def analyse(api, study, root: Path, tracer: Tracer = NULL_TRACER
            ) -> Dict[str, object]:
    """Fig. 14 and Fig. 15 engine-side, then Fig. 14 observer-side from
    the committed warehouse under ``root``."""
    specs = api["specs"]
    t0 = time.perf_counter()
    with tracer.span("core.fig14"):
        engine = {name: api["breakdown"](study.dapper, name, spec.method)
                  for name, spec in specs.items()}
    with tracer.span("core.fig15"):
        whatif = {name: api["whatif"](study.dapper, name, spec.method)
                  for name, spec in specs.items()}
    with tracer.span("obs.observer_query"):
        warehouse = api["SpanWarehouse"].open(root, RUN_KEY)
        observer = {name: api["observer_breakdown"](warehouse, name,
                                                    spec.method)
                    for name, spec in specs.items()}
    return dict(engine=engine, whatif=whatif, observer=observer,
                warehouse=warehouse, replay_s=time.perf_counter() - t0)


def digests(api, out) -> Dict[str, Dict[str, str]]:
    """Per-service SHA-256 of the component matrix, engine and warehouse."""
    study, warehouse = out["study"], out["warehouse"]
    result = {}
    for name, spec in api["specs"].items():
        engine = study.dapper.matrix_for_method(f"{name}/{spec.method}")
        stored = api["method_matrix"](warehouse, name, spec.method)
        result[name] = {"engine": sha256_arrays(engine.values),
                        "warehouse": sha256_arrays(stored.values)}
    return result


def check(api, out, outcome: Outcome, reference: Optional[int]
          ) -> Dict[str, object]:
    """Output checks for one job; each failed check is a failed op.

    ``reference`` is the recorded Fig. 14 match count for this job, or
    ``None`` where none is recorded (the count is then not gated).
    """
    import numpy as np

    matched = 0
    for name, spec in api["specs"].items():
        dominant = out["engine"][name].dominant_at(95)
        matched += api["category"].get(dominant) == spec.category
        outcome.check(np.array_equal(out["engine"][name].component_values,
                                     out["observer"][name].component_values),
                      f"{name}: observer-side Fig. 14 differs from "
                      "engine-side")
        outcome.check(out["whatif"][name].n_tail > 0,
                      f"{name}: Fig. 15 what-if found no tail RPCs")
    matrix_digests = digests(api, out)
    for name, pair in matrix_digests.items():
        outcome.check(pair["engine"] == pair["warehouse"],
                      f"{name}: warehouse component matrix digest "
                      f"{pair['warehouse'][:12]} != engine "
                      f"{pair['engine'][:12]}")
    if reference is not None:
        outcome.check(matched >= reference,
                      f"Fig. 14 categories matched {matched}/8, below the "
                      f"reference {reference}")
    return {"fig14_services_matched": matched,
            "component_matrix_sha256": {k: v["engine"] for k, v in
                                        matrix_digests.items()}}


def counters(out) -> Dict[str, float]:
    study = out["study"]
    events = study.sim.events_fired
    return {"sim.events": events,
            "sim.events_per_rpc": events / out["rpcs"],
            "sim.peak_heap": study.sim.max_heap_size,
            "sim.rpcs": out["rpcs"],
            "obs.spans_recorded": study.dapper.spans_recorded}


def run(seed: int, seconds: float, trace: bool, fig14_reference) -> tuple:
    """The timed loop (or the traced pair); returns
    ``(metrics, detail, outcome, tracer)``."""
    api = load()
    outcome = Outcome()
    tracer = Tracer()
    detail: Dict[str, object] = {"slice_s": SLICE_S}
    if trace:
        rep_seed = sub_seed(seed, "des", 0)
        with work_dir("des") as root:
            untraced = job(api, rep_seed, root / "u")
            check(api, untraced, outcome, fig14_reference(seed, 0))
            count = counters(untraced)
            untraced_wall_s = untraced["wall_s"]
            del untraced
            gc.collect()
            traced, stats, traced_wall_s = profiled(
                lambda: job(api, rep_seed, root / "t", tracer))
            check(api, traced, outcome, fig14_reference(seed, 0))
        self_s, calls = layer_table(stats)
        metrics, failures = layer_metrics(self_s, calls, traced_wall_s,
                                          untraced_wall_s)
        for message in failures:
            outcome.fail(message)
        metrics.update(count)
        metrics["host.calls_per_event"] = (sum(calls.values())
                                           / count["sim.events"])
        metrics["obs.warehouse_write_s"] = (
            tracer.total_s("obs.warehouse_write")
            + tracer.total_s("obs.warehouse_close"))
        metrics["obs.observer_query_s"] = tracer.total_s("obs.observer_query")
        metrics["core.analysis_s"] = (tracer.total_s("core.fig14")
                                      + tracer.total_s("core.fig15"))
        metrics["studies.run_service_study_s"] = tracer.total_s(
            "studies.run_service_study")
        return metrics, detail, outcome, tracer

    reps: List[Dict[str, object]] = []
    start_s = time.perf_counter()
    deadline_s = start_s + seconds
    rep = 0
    with work_dir("des") as root:
        while True:
            out = job(api, sub_seed(seed, "des", rep), root / f"rep{rep}")
            checked = check(api, out, outcome, fig14_reference(seed, rep))
            replay_s = median([out["replay_s"]] + [
                analyse(api, out["study"], root / f"rep{rep}")["replay_s"]
                for _ in range(ANALYSIS_REPEATS - 1)])
            reps.append({"rpcs": out["rpcs"], "sim_s": out["sim_s"],
                         "replay_s": replay_s, "wall_s": out["wall_s"],
                         "spans": out["study"].dapper.spans_recorded,
                         **checked, **(counters(out) if rep == 0 else {})})
            # Free this job's object graph now, not inside the next job's
            # timed region, and before the next job's peak adds to it.
            del out
            gc.collect()
            rep += 1
            now_s = time.perf_counter()
            if now_s + (now_s - start_s) / rep > deadline_s:
                break
    # Medians over jobs: each job is its own sub-seed (service mixes
    # differ), and a median shrugs off a job the host slowed down.
    sim_rpcs_per_s = median([r["rpcs"] / r["sim_s"] for r in reps])
    spans_per_s = median([r["spans"] / r["replay_s"] for r in reps])
    first = reps[0]
    detail.update({
        "reps": len(reps),
        "wall_s": median([r["wall_s"] for r in reps]),
        "sim_rpcs_per_s": sim_rpcs_per_s,
        "fig14_services_matched": first["fig14_services_matched"],
        "fig14_services_matched_per_rep": [r["fig14_services_matched"]
                                           for r in reps],
        "component_matrix_sha256": first["component_matrix_sha256"],
        "counters": {k: first[k] for k in
                     ("sim.events", "sim.events_per_rpc", "sim.peak_heap",
                      "sim.rpcs", "obs.spans_recorded")},
    })
    metrics = {"throughput_per_s": sim_rpcs_per_s,
               "replay_per_s": spans_per_s,
               "peak_rss_mb": peak_rss_mb()}
    return metrics, detail, outcome, tracer
