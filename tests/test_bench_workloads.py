"""The benchmark's workloads (bench/workloads.py) call the package with
fixed signatures and config fields; a change that breaks one of those calls
must fail here, not only in the benchmark's own self-test."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaosclt import experiments

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


def test_chaos12_op_makes_no_eigendecomposition(workloads, monkeypatch):
    # the warm-up's sample_batch decomposes F's order-2 kernel; an op's
    # bound report reads the matrix of its own g, and its samples reuse F's
    # decomposition
    workload = workloads.WORKLOADS["chaos12"](seed=7, threads=2,
                                              scale="smoke")
    workload.warm_up()
    calls = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert workload.check(workload.op(0)) == []
    assert calls == []


def test_chaos12_report_peak_memory_is_g_and_a_panel(workloads):
    # the op's bound report holds its dense g and at most a row panel of
    # an eighth of g beside it, where whole-matrix temporaries took 3 x g
    workload = workloads.WORKLOADS["chaos12"](seed=7, threads=2,
                                              scale="smoke")
    workload.warm_up()
    tracemalloc.start()
    try:
        table, _ = experiments.run_bound_report(workload.bound_config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows[0]["variance"] > 0.0
    assert peak <= 1.25 * workload.F.dim ** 2 * 8
