"""The benchmark's workloads (bench/workloads.py) call the package with
fixed signatures and config fields; a change that breaks one of those calls
must fail here, not only in the benchmark's own self-test."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chaosclt import experiments

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve a module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.mark.parametrize("name", ["rates_fgn", "ratio_sweep", "bm_bound",
                                  "chaos12"])
def test_smoke_op_passes_its_check(workloads, name):
    workload = workloads.WORKLOADS[name](seed=7, threads=2, scale="smoke")
    workload.warm_up()
    assert workload.check(workload.op(0)) == []


@pytest.mark.parametrize("name", ["rates_fgn", "ratio_sweep", "bm_bound",
                                  "chaos12"])
def test_full_size_configs_pass_the_size_budget(workloads, name):
    workloads.WORKLOADS[name](seed=7, threads=2)


# the exact counts the benchmark reports per op, as bench/tracer.py counts
# them: bm_bound takes one contraction norm per r <= p/2 of orders {2, 4};
# chaos12 decomposes one kernel, and its report takes one norm for the
# bound and one for phi's kappa_4
EXACT_COUNTS = {
    "bm_bound": {"kernels.rank_one_contraction_norm.calls": 3},
    "chaos12": {"chaos.SecondChaosSpectrum.from_kernel.calls": 1,
                "kernels.rank_one_contraction_norm.calls": 2},
}


@pytest.mark.parametrize("name", ["rates_fgn", "ratio_sweep", "bm_bound",
                                  "chaos12"])
def test_traced_counts_repeat_and_match_the_benchmarks(workloads, tracer,
                                                       name):
    workload = workloads.WORKLOADS[name](seed=11, threads=2, scale="smoke")
    workload.warm_up()
    runs = []
    for _ in range(2):
        with tracer.installed(tracer.Tracer()) as traced:
            workload.op(0)
        runs.append(dict(traced.counts))
    assert runs[0] == runs[1]
    for key, count in EXACT_COUNTS.get(name, {}).items():
        assert runs[0][key] == count
    normals = runs[0].get("streams.block_normals.normals", 0)
    assert normals == 0 if name == "bm_bound" else normals > 0


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
