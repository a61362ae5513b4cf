"""Run one perfbench workload and print its metrics.

    python3 perfbench/run.py --workload des_study --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics from a separate traced run. The line
before it carries the full record: provenance, the workload's own named
metrics and output digests. The same record is written under
``perfbench/results/``. A failed output check exits 1; a run that cannot
start (no program source, say) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (BENCH_DIR, RESULTS_DIR, BenchError,  # noqa: E402
                    measure_setup, median, provenance, require_source)

WORKLOADS = ("des_study", "trees_spill", "serve_open")
#: Fresh interpreters timed per run for ``setup_s`` (des/trees; serve
#: times the start-up of the servers it launches anyway).
SETUP_SAMPLES = 5


def load_spec() -> Dict[str, object]:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_probe(workload: str) -> None:
    """Import (and build) what the workload needs, then say so."""
    if workload == "des_study":
        import des_study
        des_study.load()
    elif workload == "trees_spill":
        import trees_spill
        trees_spill.load()["catalog"]()
    else:
        raise BenchError(f"no set-up probe for {workload}")
    print("ready", flush=True)


def fig14_reference():
    """Recorded Fig. 14 matches: exact for rep 0 of the recorded seeds,
    ``None`` (not gated) for any other job."""
    data = json.loads((BENCH_DIR / "reference" / "des_fig14.json")
                      .read_text())
    table = {int(k): v for k, v in data["rep0_by_seed"].items()}

    def reference(seed: int, rep: int) -> Optional[int]:
        return table.get(seed) if rep == 0 else None
    return reference


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "des_study":
        import des_study
        return des_study.run(seed, seconds, trace, fig14_reference())
    if workload == "trees_spill":
        import trees_spill
        return trees_spill.run(seed, seconds, trace)
    import serve_open
    return serve_open.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child server is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        require_source()
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        seconds = (args.seconds if args.seconds is not None
                   else float(spec["run_seconds"]))
        trace = bool(args.trace)
        record = {"provenance": provenance(args.workload, args.seed, trace,
                                           seconds)}
        setups = ([] if trace or args.workload == "serve_open"
                  else measure_setup(args.workload, SETUP_SAMPLES))
        metrics, detail, outcome, tracer = run_workload(
            args.workload, args.seed, seconds, trace)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if setups:
        metrics["setup_s"] = median(setups)
        detail["setup_samples_s"] = setups
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # A layer the workload never enters reports 0 (e.g. serve.* in the
    # DES run): every run prints the whole table.
    result_metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                  "unit": m["unit"]}
                      for m in wanted}
    missing_e2e = [m["name"] for m in wanted
                   if not trace and m["name"] not in metrics]
    for name in missing_e2e:
        outcome.fail(f"end-to-end metric {name} was not measured")
    result = {"correct": outcome.failed == 0,
              "attempted": max(1, outcome.attempted),
              "failed": outcome.failed,
              "metrics": result_metrics}
    record.update({"detail": detail, "failures": outcome.failures[:50],
                   "result": result})
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    if trace:
        tracer.dump(RESULTS_DIR / f"{stem}.spans.json")
    for message in outcome.failures[:20]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
