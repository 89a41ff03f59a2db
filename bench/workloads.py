"""The benchmark's workloads.

Each workload builds all of its inputs from the workload seed in its
constructor, runs one complete experiment per ``op`` and checks that op's
outputs in ``check``, which returns a list of problems (empty when the op
is correct).  Deterministic outputs are compared with ``reference.json`` at
relative 1e-9; Monte Carlo outputs get statistical tests that any exact
sampler passes, so a later change to the random stream protocol does not
break them.

The sizes under ``"smoke"`` exist for the benchmark's self-test only.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from chaosclt import bounds, chaos, distances, experiments, kernels
from chaosclt.kernels import DenseKernel
from chaosclt.stationary import CovarianceFunction, HermiteEvenCoeffs

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REL_TOL = 1e-9

# Chance that an exact sampler fails one Dvoretzky-Kiefer-Wolfowitz check.
DKW_ALPHA = 1e-12

HURST = 0.7
RATES_GRID = [256, 512, 1024, 2048, 4096]
LAMBDA_GRID = [1e2, 1e3, 1e4]


def op_seed(seed: int, op: int) -> int:
    """Monte Carlo seed of op number ``op`` in a run with workload seed
    ``seed``; distinct ops draw independent streams."""
    state = np.random.SeedSequence([seed, op]).generate_state(1, np.uint64)
    return int(state[0])


def dkw_epsilon(samples: int) -> float:
    """sup |ECDF - F| exceeds this with probability at most DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * samples))


def load_reference(scale: str) -> dict:
    """Reference values by workload; empty until make_reference.py ran."""
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[scale]


def compare(values: dict[str, list[float]],
            reference: dict[str, list[float]]) -> list[str]:
    """Problems where values differ from reference by more than REL_TOL."""
    if not reference:
        return ["no reference values"]
    problems = []
    for key, expected in reference.items():
        got = values.get(key, [])
        if len(got) != len(expected):
            problems.append(f"{key}: {len(got)} values, expected "
                            f"{len(expected)}")
            continue
        for i, (g, e) in enumerate(zip(got, expected)):
            if not abs(g - e) <= REL_TOL * abs(e):
                problems.append(f"{key}[{i}] = {g!r}, reference {e!r}")
    return problems


def within_se(name: str, value: float, target: float, se: float,
              k: float = 5.0) -> list[str]:
    if abs(value - target) <= k * se:
        return []
    return [f"{name} = {value!r} is more than {k} SE ({se:.3g}) from "
            f"{target!r}"]


class Workload:
    """Base: subclasses set ``name`` and ``SIZES`` and define the rest."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, threads: int, scale: str = "full"):
        self.seed = seed
        self.threads = threads
        self.size = self.SIZES[scale]
        self.reference = load_reference(scale).get(self.name, {})

    def warm_up(self) -> None:
        """A small call through the same code, so lazy imports and
        caches that every user pays once are not timed."""

    def op(self, i: int):
        raise NotImplementedError

    @staticmethod
    def deterministic(out) -> dict[str, list[float]]:
        """The outputs that must match the reference values."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        return compare(self.deterministic(out), self.reference)


class RatesFgn(Workload):
    """run_rates for fGn H = 0.7, q = 2 over the criterion-5 n grid."""

    name = "rates_fgn"
    SIZES = {"full": {"replicas": 4096}, "smoke": {"replicas": 1024}}

    def __init__(self, seed, threads, scale="full"):
        super().__init__(seed, threads, scale)
        self.config = experiments.RatesConfig(
            hurst=HURST, q=2, n_grid=RATES_GRID,
            replicas=self.size["replicas"], seed=seed, threads=threads)

    def warm_up(self):
        experiments.run_rates(replace(self.config, n_grid=[64, 128],
                                      replicas=100))

    def op(self, i):
        return experiments.run_rates(
            replace(self.config, seed=op_seed(self.seed, i)))

    @staticmethod
    def deterministic(table):
        return {col: [row[col] for row in table.rows]
                for col in ("bound_covariance_43", "bound_covariance_sq",
                            "bound_total")}

    def check(self, table):
        reference = dict(self.reference)
        exact = reference.pop("d_kol_exact", [])
        problems = compare(self.deterministic(table), reference)
        if len(exact) != len(table.rows):
            problems.append("no exact d_kol for every grid point")
        # the estimate lies within dkw_epsilon of the exact distance
        eps = dkw_epsilon(self.config.replicas)
        for row, d in zip(table.rows, exact):
            if not 0.0 < row["d_kol"] <= d + eps:
                problems.append(f"d_kol = {row['d_kol']!r} at n = {row['n']} "
                                f"outside (0, {d + eps:.4f}]")
        if not math.isfinite(table.metadata["fitted_slope"]):
            problems.append("fitted slope is not finite")
        return problems


class RatioSweep(Workload):
    """run_ratio over lambda in {1e2, 1e3, 1e4}, rho = sigma1 = sigma2 = 1,
    no perturbations."""

    name = "ratio_sweep"
    SIZES = {"full": {"replicas": 16384}, "smoke": {"replicas": 4096}}

    def __init__(self, seed, threads, scale="full"):
        super().__init__(seed, threads, scale)
        self.config = experiments.RatioConfig(
            lambda_grid=LAMBDA_GRID, replicas=self.size["replicas"],
            seed=seed, rho=1.0, sigma1=1.0, sigma2=1.0, threads=threads)

    def warm_up(self):
        experiments.run_ratio(replace(self.config, lambda_grid=[10.0],
                                      replicas=100))

    def op(self, i):
        return experiments.run_ratio(
            replace(self.config, seed=op_seed(self.seed, i)))

    @staticmethod
    def deterministic(table):
        return {col: [row[col] for row in table.rows]
                for col in ("phi", "mean_drift", "f_second_moment_gap",
                            "g_second_moment_gap", "remainder",
                            "bound_total")}

    def check(self, table):
        # criterion 8: monotone within 2/sqrt(M), final d_kol <= 0.05, and
        # no rejected replica
        problems = super().check(table)
        if not table.metadata["monotone_within_tolerance"]:
            problems.append("d_kol is not monotone within tolerance: "
                            f"{[row['d_kol'] for row in table.rows]}")
        if not table.rows[-1]["d_kol"] <= 0.05:
            problems.append(f"final d_kol = {table.rows[-1]['d_kol']!r} > 0.05")
        if any(row["rejection_rate"] != 0.0 for row in table.rows):
            problems.append("some replicas were rejected")
        return problems


class BmBound(Workload):
    """Breuer-Major kernels for fGn H = 0.7 with lambda_2 = lambda_4 = 1,
    their chaos-sum bound, the covariance-sum bound at the exact variance,
    and the M = 3 cross-sum diagnostic.  Draws no random numbers."""

    name = "bm_bound"
    SIZES = {"full": {"n": 2048, "nz_grid": [64, 128, 256]},
             "smoke": {"n": 256, "nz_grid": [16, 32]}}

    def __init__(self, seed, threads, scale="full"):
        super().__init__(seed, threads, scale)
        self.cov = CovarianceFunction.fgn(HURST)
        self.coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 1.0]))
        self.nz_config = experiments.NzConfig(
            hurst=HURST, n_grid=self.size["nz_grid"], seed=seed, m=3,
            signs=[1, -1, 1])

    def _run(self, n, nz_config):
        ks = kernels.breuer_major_kernels(self.cov, n, self.coeffs)
        F = chaos.ChaosSum({k.order: k for k in ks})
        report = bounds.chaos_sum_bound(F)
        bm = bounds.breuer_major_bound(self.cov, n, self.coeffs.d,
                                       self.coeffs.m, report.normalization)
        nz = experiments.run_nz_diagnostics(nz_config)
        return {"chaos_sum": report, "breuer_major": bm, "nz": nz}

    def warm_up(self):
        self._run(32, replace(self.nz_config, n_grid=[8]))

    def op(self, i):
        return self._run(self.size["n"], self.nz_config)

    @staticmethod
    def deterministic(out):
        values = {}
        for part in ("chaos_sum", "breuer_major"):
            report = out[part]
            for label, value in report.terms.items():
                values[f"{part}.{label}"] = [value]
            values[f"{part}.normalization"] = [report.normalization]
            values[f"{part}.total"] = [report.total]
        values["nz.ratio"] = [row["ratio"] for row in out["nz"].rows]
        return values


class Chaos12(Workload):
    """A dense F = I1(f) + I2(g) with dim 512 drawn from the seed: the bound
    report from kernel-JSON dicts, then exact samples of F and their
    Kolmogorov distance to N(0, E[F^2])."""

    name = "chaos12"
    DIM = 512
    SIZES = {"full": {"samples": 100_000}, "smoke": {"samples": 8192}}

    def __init__(self, seed, threads, scale="full"):
        super().__init__(seed, threads, scale)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(self.DIM) / math.sqrt(self.DIM)
        a = rng.standard_normal((self.DIM, self.DIM))
        g = (a + a.T) / (2.0 * self.DIM)
        self.bound_config = experiments.BoundConfig(inputs=[{
            "label": self.name,
            "kernels": [kernels.kernel_to_json(DenseKernel(f)),
                        kernels.kernel_to_json(DenseKernel(g))],
        }])
        self.F = chaos.ChaosSum({1: DenseKernel(f), 2: DenseKernel(g)})
        self.reference = self.oracle(f, g)

    @staticmethod
    def oracle(f, g) -> dict[str, list[float]]:
        """The report's columns in closed form, independent of chaosclt:
        E[F^2] = |f|^2 + 2|g|^2, |g (x)_1 g| = |g g|, the mixed term
        <f (x) f, g (x)_1 g>^(1/2) = |g f|, and phi = sqrt(48 tr g^4) + |g f|."""
        variance = float(f @ f + 2.0 * np.sum(g * g))
        contraction = float(np.linalg.norm(g @ g))
        mixed = float(np.linalg.norm(g @ f))
        return {"variance": [variance],
                "max_contraction_norm": [contraction],
                "mixed_inner": [mixed],
                "total": [(contraction + mixed) / variance],
                "phi": [math.sqrt(48.0) * contraction + mixed]}

    def warm_up(self):
        # Also caches F's order-2 spectrum, which every later sample_batch
        # call on F reuses: filling that cache from two threads at once
        # would make the decomposition count of an op vary between runs.
        chaos.sample_batch(self.F, 64, self.seed, threads=1)
        small = np.eye(4) / 4.0
        experiments.run_bound_report(experiments.BoundConfig(inputs=[{
            "kernels": [kernels.kernel_to_json(DenseKernel(small[0])),
                        kernels.kernel_to_json(DenseKernel(small))]}]))

    def op(self, i):
        table, _ = experiments.run_bound_report(self.bound_config)
        samples = chaos.sample_batch(self.F, self.size["samples"],
                                     op_seed(self.seed, i),
                                     threads=self.threads)
        d_kol = distances.kolmogorov_distance(
            distances.EmpiricalSample.from_data(samples), 0.0,
            table.rows[0]["variance"])
        return {"table": table, "samples": samples, "d_kol": d_kol}

    @staticmethod
    def deterministic(out):
        row = out["table"].rows[0]
        return {col: [row[col]] for col in ("variance", "max_contraction_norm",
                                            "mixed_inner", "total", "phi")}

    def check(self, out):
        problems = super().check(out)
        x = out["samples"]
        m = x.size
        variance = self.reference["variance"][0]
        centered = x - x.mean()
        m2 = float(np.mean(centered ** 2))
        m4 = float(np.mean(centered ** 4))
        problems += within_se("sample mean", float(x.mean()), 0.0,
                              math.sqrt(m2 / m))
        problems += within_se("sample variance", m2, variance,
                              math.sqrt(max(m4 - m2 * m2, 0.0) / m))
        if not 0.0 < out["d_kol"] < 1.0:
            problems.append(f"d_kol = {out['d_kol']!r} outside (0, 1)")
        return problems


WORKLOADS = {cls.name: cls for cls in (RatesFgn, RatioSweep, BmBound, Chaos12)}
