"""The benchmark's workloads (bench/workloads.py) call the package with
fixed signatures and config fields; a change that breaks one of those calls
must fail here, not only in the benchmark's own self-test."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["rates_fgn", "ratio_sweep", "bm_bound",
                                  "chaos12"])
def test_smoke_op_passes_its_check(workloads, name):
    workload = workloads.WORKLOADS[name](seed=7, threads=2, scale="smoke")
    workload.warm_up()
    assert workload.check(workload.op(0)) == []
