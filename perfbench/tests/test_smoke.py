"""Smoke-size runs of every perfbench workload.

    python3 -m pytest perfbench/tests -q

Each workload runs shrunk (tiny DES slice, small forests, short serve
phases) through ``run.main``, once plain and once traced: the printed
result must name every metric in ``BENCHMARK.json``. A second run per
workload corrupts one output on its way to the check and must fail:
``correct`` false and exit code 1.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import des_study  # noqa: E402
import run  # noqa: E402
import serve_open  # noqa: E402
import trees_spill  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 424242


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(des_study, "SLICE_S", 0.02)
    monkeypatch.setattr(trees_spill, "N_TREES", 60)
    monkeypatch.setattr(trees_spill, "N_CP_TRACES", 30)
    monkeypatch.setattr(serve_open, "CAPACITY_PROBES", 1)
    monkeypatch.setattr(serve_open, "WARMUP_REQUESTS", 20)
    monkeypatch.setattr(serve_open, "CLOSED_ROUNDS", 2)
    monkeypatch.setattr(serve_open, "CLOSED_BATCH_REQUESTS", 40)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    # Smoke slices are too short for the paper's Fig. 14 categories.
    monkeypatch.setattr(run, "fig14_reference",
                        lambda: lambda seed, rep: None)
    return monkeypatch


def run_main(workload: str, trace: int, seconds: float = 0.5):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", str(seconds), "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])["record"]


def metric_names(kind: str):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_reported(small, workload, trace):
    seconds = 4.0 if workload == "serve_open" else 0.5
    code, result, record = run_main(workload, trace, seconds)
    assert code == 0, record["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == metric_names(kind)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("commit", "source_sha256", "host", "seed", "measured_at"):
        assert key in record["provenance"]


def _corrupt_des(monkeypatch):
    load = des_study.load

    def corrupted():
        api = load()
        method_matrix = api["method_matrix"]

        def flipped(*args, **kwargs):
            matrix = method_matrix(*args, **kwargs)
            matrix.values = matrix.values.copy()
            matrix.values[0, 0] += 1e-9
            return matrix
        api["method_matrix"] = flipped
        return api
    monkeypatch.setattr(des_study, "load", corrupted)


def _corrupt_trees(monkeypatch):
    load = trees_spill.load

    def corrupted():
        api = load()
        tree_study = api["tree_study"]
        calls = {"n": 0}

        def second_pass_off_by_one(*args, **kwargs):
            result = tree_study(*args, **kwargs)
            calls["n"] += 1
            if calls["n"] == 2:  # the warm replay
                table = result.per_method_descendants
                key = min(table)
                table[key] = table[key].copy()
                table[key][-1, -1] += 1
            return result
        api["tree_study"] = second_pass_off_by_one
        return api
    monkeypatch.setattr(trees_spill, "load", corrupted)


def _corrupt_serve(monkeypatch):
    monkeypatch.setattr(serve_open, "expected_hot_render",
                        lambda: "not the study the server computes")


@pytest.mark.parametrize("workload,corrupt", [
    ("des_study", _corrupt_des),
    ("trees_spill", _corrupt_trees),
    ("serve_open", _corrupt_serve),
])
def test_corrupted_output_fails_the_run(small, workload, corrupt):
    corrupt(small)
    seconds = 4.0 if workload == "serve_open" else 0.5
    code, result, record = run_main(workload, 0, seconds)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert record["failures"]


def test_refuses_to_run_without_program_source(tmp_path):
    import shutil
    import subprocess

    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des_study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
