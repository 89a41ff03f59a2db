"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench

Runs every workload at smoke size through the command line and checks the
result schema, checks that a corrupted output counts as a failed op, and
checks that the exact per-layer counts repeat between two traced runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Chaos12, RatioSweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("streams.block_normals.normals",
                "kernels.rank_one_contraction_norm.calls",
                "chaos.SecondChaosSpectrum.from_kernel.calls")


def test_spec_names_the_implemented_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert len(set(layer_names)) == len(layer_names)
    assert set(EXACT_COUNTS) <= set(layer_names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_a_valid_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in group]
    for m in group:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chaos12", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _corrupt_phi(table):
    table.rows[0]["phi"] *= 1.0 + 1e-6
    return table


def _shift_samples(out):
    out["samples"] = out["samples"] + 1.0
    return out


@pytest.mark.parametrize("cls, corrupt", [(RatioSweep, _corrupt_phi),
                                          (Chaos12, _shift_samples)])
def test_corrupted_output_counts_as_failed_op(cls, corrupt):
    workload = cls(seed=5, threads=2, scale="smoke")
    clean = child.measure(workload, 0.0)
    assert (clean["attempted"], clean["failed"]) == (1, 0)
    op = workload.op
    workload.op = lambda i: corrupt(op(i))
    broken = child.measure(workload, 0.0)
    assert (broken["attempted"], broken["failed"]) == (1, 1)


def _traced_counts(cls) -> dict:
    workload = cls(seed=11, threads=2, scale="smoke")
    workload.warm_up()
    layers = child.measure(workload, 0.0, tracing.Tracer())["layers"]
    return {key: layers.get(key, 0) for key in EXACT_COUNTS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat_between_traced_runs(name):
    first = _traced_counts(WORKLOADS[name])
    assert _traced_counts(WORKLOADS[name]) == first
    if name == "bm_bound":
        assert first["kernels.rank_one_contraction_norm.calls"] == 4
    if name == "chaos12":
        assert first["chaos.SecondChaosSpectrum.from_kernel.calls"] == 3
    if name != "bm_bound":
        assert first["streams.block_normals.normals"] > 0


def test_every_layer_metric_is_measured_on_some_workload():
    # guards against a name in BENCHMARK.json that the tracer never emits,
    # which run.py would otherwise report as 0
    seen = set()
    for cls in WORKLOADS.values():
        workload = cls(seed=13, threads=2, scale="smoke")
        layers = child.measure(workload, 0.0, tracing.Tracer())["layers"]
        seen |= {key for key, value in layers.items() if value}
    expected = {m["name"] for m in SPEC["per_layer"]} - {
        "stationary.PathSampler.dense_fallbacks",  # fGn never falls back
        "trace.overhead_s"}  # computed by run.py
    assert expected <= seen
