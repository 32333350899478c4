"""Self-test of the benchmark itself (not of the program).

    python3 -m pytest perfbench

One traced round per workload is enough to show that a seed fixes the
inputs and every exact count, that another seed changes the inputs, and
that the trace accounts for its whole wall time.
"""

import json
import shutil
import subprocess
import sys
from math import isclose

import pytest

import program

program.put_on_path()

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "bits")


def traced(name, seed):
    workload = workloads.WORKLOADS[name]()
    workload.trace_rounds = 1
    return run.traced_run(workload, seed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_exact_counts(name):
    meters_a, metrics_a, _, digest_a, _ = traced(name, 7)
    meters_b, metrics_b, _, digest_b, _ = traced(name, 7)
    assert digest_a == digest_b
    exact_a = {k: v for k, (v, unit) in metrics_a.items() if unit in EXACT_UNITS}
    exact_b = {k: v for k, (v, unit) in metrics_b.items() if unit in EXACT_UNITS}
    assert exact_a == exact_b
    assert exact_a["harness.ops"] > 0
    for meter in meters_a + meters_b:
        assert meter.failed == meter.known, dict(meter.reasons)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_changes_inputs(name):
    workload = workloads.WORKLOADS[name]()
    assert json.dumps(workload.round_inputs(7, 0)) != json.dumps(workload.round_inputs(8, 0))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_sum_to_traced_wall(name):
    _, metrics, _, _, _ = traced(name, 3)
    wall = metrics["trace.traced_wall_s"][0]
    parts = metrics["harness.self_s"][0] + sum(metrics[f"{layer}.self_s"][0] for layer in program.LAYERS)
    assert isclose(parts, wall, rel_tol=1e-9)


def test_cli_failures_are_exactly_the_known_probes():
    meters, _, _, _, _ = traced("cli_mix", 5)
    m = meters[0]
    assert m.attempted == len(workloads.CliMix.cases(5))
    assert m.failed == m.known == len(workloads.PROBES)


def test_index_counts_match_divisor_sums():
    counts = workloads.index_counts(2, 30)
    assert counts == {k: sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, 31)}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_pairs", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def run_benchmark(name, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=program.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_result_line_has_every_end_to_end_metric(name):
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    result = run_benchmark(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_result_line_has_every_per_layer_metric():
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    result = run_benchmark("cli_mix", 1)
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in result["metrics"].items()}
