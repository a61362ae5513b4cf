"""``trees_spill``: the Tier-A call-tree pipeline through the columnar spill.

One job, on the paper-shaped 2000-method catalog with ``jobs=1`` and a
fresh spill directory: a cold Fig. 4 tree-shape pass (generate, then
``ShardStore.put``), a warm pass replaying the same shards through mmap
(``ShardStore.get``), then the critical-path ablation with its own node
budget (cold again: a different budget is a different spill run).

Chosen because it stresses call-tree generation, the ``core`` folds and
the spill with no engine events, and because the write pass sits beside
the read pass: a change that speeds one at the other's cost shows.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (NULL_TRACER, Outcome, Tracer, layer_metrics,
                    layer_table, median, peak_rss_mb, profiled,
                    sha256_arrays, sub_seed, timed_method, work_dir)

#: The benchmarks' paper-shaped catalog (``benchmarks/conftest.py``); it
#: stays fixed so ``--seed`` varies the forests, not the fleet.
CATALOG_METHODS = 2000
CATALOG_SEED = 7
#: Fig. 4 node budget and the critical-path ablation budget.
SHAPE_MAX_NODES = 20_000
CP_MAX_NODES = 1500
#: Trees per pass (one default-size shard each).
N_TREES = 1000
N_CP_TRACES = 500


def load():
    """Import the layers the job calls (the catalog is built separately)."""
    from repro.core.parallel import (run_critical_path_study_parallel,
                                     run_tree_study_parallel)
    from repro.core.shardstore import ShardStore
    from repro.sim.instrument import Probe
    from repro.workloads.catalog import CatalogConfig, build_catalog

    class SpillCounter(Probe):
        """Counts what the map-reduce plan reports per shard."""

        def __init__(self) -> None:
            self.bytes_written = 0
            self.shards_spilled = 0
            self.shards_folded = 0
            self.nodes_folded = 0

        def shard_spilled(self, shard_index, n_trees, n_nodes, n_bytes):
            self.bytes_written += n_bytes
            self.shards_spilled += 1

        def shard_folded(self, shard_index, n_trees, n_nodes):
            self.shards_folded += 1
            self.nodes_folded += n_nodes

    return dict(tree_study=run_tree_study_parallel,
                cp_study=run_critical_path_study_parallel,
                ShardStore=ShardStore, SpillCounter=SpillCounter,
                catalog=lambda: build_catalog(CatalogConfig(
                    n_methods=CATALOG_METHODS, seed=CATALOG_SEED)))


def shape_digest(result) -> str:
    """SHA-256 of a tree-shape result: the folded count histograms."""
    import numpy as np

    arrays = [np.array([result.n_trees, result.n_methods,
                        result.max_depth_seen], dtype=np.int64)]
    for table in (result.per_method_descendants,
                  result.per_method_ancestors):
        for method_id in sorted(table):
            arrays.append(np.array([method_id], dtype=np.int64))
            arrays.append(np.ascontiguousarray(table[method_id]))
    return sha256_arrays(*arrays)


def job(api, catalog, seed: int, root: Path,
        tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Cold pass, warm replay, critical-path pass; timings and outputs."""
    traced = tracer is not None
    tracer = tracer or NULL_TRACER
    if traced:
        undo = [timed_method(tracer, api["ShardStore"], "put",
                             "core.shardstore.put"),
                timed_method(tracer, api["ShardStore"], "get",
                             "core.shardstore.get")]
    cold_probe, warm_probe = api["SpillCounter"](), api["SpillCounter"]()
    try:
        t0 = time.perf_counter()
        with tracer.span("core.tree_study.cold"):
            cold = api["tree_study"](catalog, n_trees=N_TREES, seed=seed,
                                     jobs=1, max_nodes=SHAPE_MAX_NODES,
                                     spill_dir=root, probe=cold_probe)
        t1 = time.perf_counter()
        with tracer.span("core.tree_study.warm"):
            warm = api["tree_study"](catalog, n_trees=N_TREES, seed=seed,
                                     jobs=1, max_nodes=SHAPE_MAX_NODES,
                                     spill_dir=root, probe=warm_probe)
        t2 = time.perf_counter()
        with tracer.span("core.cp_study"):
            cp = api["cp_study"](catalog, n_traces=N_CP_TRACES, seed=seed,
                                 jobs=1, max_nodes=CP_MAX_NODES,
                                 spill_dir=root)
        t3 = time.perf_counter()
    finally:
        if traced:
            for fn in undo:
                fn()
    return dict(cold=cold, warm=warm, cp=cp, cold_probe=cold_probe,
                warm_probe=warm_probe, cold_s=t1 - t0, warm_s=t2 - t1,
                cp_s=t3 - t2, wall_s=t3 - t0)


def check(out, outcome: Outcome) -> Dict[str, object]:
    """Warm replay must fold to exactly the cold state, from the spill."""
    cold_digest = shape_digest(out["cold"])
    warm_digest = shape_digest(out["warm"])
    outcome.check(warm_digest == cold_digest,
                  f"warm replay state {warm_digest[:12]} != cold "
                  f"{cold_digest[:12]}")
    warm = out["warm_probe"]
    outcome.check(warm.shards_spilled == 0 and warm.shards_folded > 0,
                  f"warm pass regenerated {warm.shards_spilled} shard(s) "
                  "instead of replaying the spill")
    outcome.check(out["cp"].n_traces == N_CP_TRACES,
                  f"critical-path study analysed {out['cp'].n_traces} "
                  f"traces, expected {N_CP_TRACES}")
    return {"shape_sha256": cold_digest,
            "cp_sha256": sha256_arrays(out["cp"].path_depths,
                                       out["cp"].path_tax_s)}


def counters(out) -> Dict[str, float]:
    cold, warm = out["cold_probe"], out["warm_probe"]
    return {"rpc.nodes_generated": cold.nodes_folded,
            "core.shardstore.bytes_written": cold.bytes_written,
            "core.shardstore.shards_reused": (warm.shards_folded
                                              - warm.shards_spilled)}


def run(seed: int, seconds: float, trace: bool) -> tuple:
    api = load()
    outcome = Outcome()
    tracer = Tracer()
    detail: Dict[str, object] = {"n_trees": N_TREES,
                                 "n_cp_traces": N_CP_TRACES}
    if trace:
        rep_seed = sub_seed(seed, "trees", 0)
        catalog_start_s = time.perf_counter()
        catalog = api["catalog"]()
        catalog_s = time.perf_counter() - catalog_start_s
        with work_dir("trees") as root:
            untraced = job(api, catalog, rep_seed, root / "u")
            check(untraced, outcome)
            count = counters(untraced)
            untraced_wall_s = untraced["wall_s"]
            del untraced
            gc.collect()
            traced, stats, traced_wall_s = profiled(
                lambda: job(api, catalog, rep_seed, root / "t", tracer))
            check(traced, outcome)
        self_s, calls = layer_table(stats)
        metrics, failures = layer_metrics(self_s, calls, traced_wall_s,
                                          untraced_wall_s)
        for message in failures:
            outcome.fail(message)
        metrics.update(count)
        metrics["workloads.catalog_s"] = catalog_s
        metrics["core.shardstore.put_s"] = tracer.total_s(
            "core.shardstore.put")
        metrics["core.shardstore.get_s"] = tracer.total_s(
            "core.shardstore.get")
        metrics["core.cp_s"] = tracer.total_s("core.cp_study")
        return metrics, detail, outcome, tracer

    catalog = api["catalog"]()
    reps: List[Dict[str, object]] = []
    deadline_s = time.perf_counter() + seconds
    rep = 0
    with work_dir("trees") as root:
        while True:
            out = job(api, catalog, sub_seed(seed, "trees", rep),
                      root / f"rep{rep}")
            reps.append({"cold_s": out["cold_s"], "warm_s": out["warm_s"],
                         "cp_s": out["cp_s"], "wall_s": out["wall_s"],
                         **check(out, outcome),
                         **(counters(out) if rep == 0 else {})})
            # Free this job's object graph now, not inside the next job's
            # timed region, and before the next job's peak adds to it.
            del out
            gc.collect()
            rep += 1
            mean_s = sum(r["wall_s"] for r in reps) / len(reps)
            if time.perf_counter() + mean_s > deadline_s:
                break
    first = reps[0]
    detail.update({
        "reps": len(reps),
        "wall_s": median([r["wall_s"] for r in reps]),
        "cold_traces_per_s": median([N_TREES / r["cold_s"] for r in reps]),
        "warm_traces_per_s": median([N_TREES / r["warm_s"] for r in reps]),
        "cp_traces_per_s": median([N_CP_TRACES / r["cp_s"] for r in reps]),
        "shape_sha256": first["shape_sha256"],
        "cp_sha256": first["cp_sha256"],
        "counters": {k: first[k] for k in
                     ("rpc.nodes_generated", "core.shardstore.bytes_written",
                      "core.shardstore.shards_reused")},
    })
    # Medians over jobs: each job is its own sub-seed, so heavy-tailed
    # forests vary job to job, and a median shrugs off a job the host
    # slowed down. Throughput covers both generate-and-spill passes.
    metrics = {"throughput_per_s": median(
                   [(N_TREES + N_CP_TRACES) / (r["cold_s"] + r["cp_s"])
                    for r in reps]),
               "replay_per_s": detail["warm_traces_per_s"],
               "peak_rss_mb": peak_rss_mb()}
    return metrics, detail, outcome, tracer
