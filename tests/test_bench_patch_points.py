"""The benchmark's tracer (bench/tracer.py) wraps package functions by
name; a rename in the package must fail here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from chaosclt import bounds, chaos, experiments
from chaosclt.kernels import DenseKernel, RankOneSumKernel
from chaosclt.stationary import CovarianceFunction, PathSampler
from chaosclt.streams import BLOCK_SIZE, CHUNK_NORMALS, replica_blocks

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def patch_points(tracer):
    """Every (owner, attribute) that tracer.installed replaces."""
    points = [(module, attr) for modules, attr, _, _ in tracer.FUNCTIONS
              for module in modules]
    points += [(module, "run_blocks") for module in tracer.RUN_BLOCKS_WORKERS]
    points += [(cls, attr) for cls, attr, _, _ in tracer.METHODS]
    points += [(cls, attr) for cls, attr, _ in tracer.CLASSMETHODS]
    points.append((tracer.stationary.PathSampler, "__init__"))
    return points


def test_patch_points_exist_and_are_restored(monkeypatch):
    tracer = load_tracer(monkeypatch)
    points = patch_points(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in points]
    with tracer.installed(tracer.Tracer()):
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(points, originals))
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(points, originals))


def test_tracer_counts_every_row_chunk_of_a_rates_run(monkeypatch):
    # the benchmark counts normals at the block_normals name it wraps; a
    # chunk drawn around that name would make its count read low
    tracer = load_tracer(monkeypatch)
    n, M = 1024, BLOCK_SIZE + 100
    rows = CHUNK_NORMALS // (2 * n)
    assert BLOCK_SIZE >= 3 * rows  # a full block spans >= 3 chunks
    config = experiments.RatesConfig(hurst=0.7, n_grid=[256, n],
                                     replicas=M, seed=3)
    with tracer.installed(tracer.Tracer()) as traced:
        experiments.run_rates(config)
    counts = traced.counts
    assert counts["streams.block_normals.normals"] == M * 2 * n
    # transform.bytes as if each block were transformed whole
    sampler = PathSampler(CovarianceFunction.fgn(0.7), n)
    whole = sum(tracer._transform_bytes(
        (sampler, np.empty((count, 2 * n))), np.empty((count, n)))["bytes"]
        for _, _, count in replica_blocks(M))
    assert counts["stationary.PathSampler.transform.bytes"] == whole
    assert counts["streams.block_normals.calls"] == sum(
        -(-count // rows) for _, _, count in replica_blocks(M))


def test_tracer_counts_the_normals_of_sample_batch(monkeypatch):
    tracer = load_tracer(monkeypatch)
    dim, M = 64, BLOCK_SIZE + 37
    rng = np.random.default_rng(4)
    a = rng.normal(size=(dim, dim))
    F = chaos.ChaosSum({1: DenseKernel(rng.normal(size=dim)),
                        2: DenseKernel((a + a.T) / 2.0)})
    with tracer.installed(tracer.Tracer()) as traced:
        chaos.sample_batch(F, M, seed=5, threads=2)
    assert traced.counts["streams.block_normals.normals"] == M * dim


def test_tracer_sees_the_second_moment_of_chaos_sum_bound(monkeypatch):
    # chaos_sum_bound looks second_moment up at each call; a name bound at
    # import would keep the unpatched function and the tracer would see none
    tracer = load_tracer(monkeypatch)
    rng = np.random.default_rng(6)
    F = chaos.ChaosSum({2: RankOneSumKernel(order=2,
                                            coeffs=rng.normal(size=3),
                                            vectors=rng.normal(size=(3, 5)))})
    with tracer.installed(tracer.Tracer()) as traced:
        bounds.chaos_sum_bound(F)
    assert traced.counts["chaos.second_moment.calls"] == 1
