"""Self-tests of the benchmark, at toy size.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from vloc import FilterConfig, MatchConfig, ScanConfig, WorldConfig, run_monte_carlo  # noqa: E402
from vloc import evaluate, localize_sequence  # noqa: E402

WORKLOADS = ["mc_eval", "long_drive", "city_db"]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == WORKLOADS == list(workloads.SPECS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run(workload):
    proc = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = record["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and env["python"] and env["blas_build"]["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_fires_every_layer_and_matches_untraced(workload):
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]
    # correct also requires the traced outputs to equal the untraced run's
    assert result["correct"], record["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    counts = record["span_counts"]
    assert all(counts[name] > 0 for name in tracer.LAYER_SPANS), counts
    metrics = result["metrics"]
    assert metrics["database.scan.calls"]["value"] == result["attempted"] * workloads.TOY_SPECS[workload].queries
    assert metrics["kalman.calls"]["value"] == metrics["database.scan.calls"]["value"]


def test_traced_and_untraced_outputs_identical(tmp_path):
    spec = workloads.TOY_SPECS["long_drive"]
    plain = workloads.run(spec, 3, 0.0, tmp_path)
    traced = workloads.run(spec, 3, 0.0, tmp_path, tracer=tracer.Tracer(), max_ops=plain.attempted)
    assert plain.correct and traced.correct
    assert plain.digest == traced.digest


def test_pool_trials_reproduce_run_monte_carlo():
    spec = workloads.SPECS["mc_eval"]
    traces = []
    for world_seed, start_seed in workloads.pool_seeds(3):
        db, queries = workloads.pool_trial(spec, world_seed, start_seed)
        traces.append(localize_sequence(db, queries, spec.scan, workloads.MATCH, workloads.FILTER))
    ours = evaluate(traces)
    theirs = run_monte_carlo(
        WorldConfig(seed=0), ScanConfig(window_s=20.0, exclusion_s=1.0), MatchConfig(), FilterConfig(), trials=3
    )
    np.testing.assert_array_equal(ours.mean_meas_m, theirs.mean_meas_m)
    np.testing.assert_array_equal(ours.mean_est_m, theirs.mean_est_m)
    reference = workloads.load_reference()
    assert [[s.matched_frame_id for s in t] for t in traces] == reference[:3]


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    tr.starts, tr.ends, tr.parents = [0.0, 1.0, 4.0, 5.0], [10.0, 3.0, 9.0, 6.0], [-1, 0, 0, 2]
    tr.names = ["a", "b", "c", "d"]
    assert tr.self_times() == [3.0, 2.0, 4.0, 1.0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc_eval", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
