"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  The Monte Carlo heavy criterion, rate reproduction, takes
about 35 s on 2 cores.
"""

import math
import time
from functools import lru_cache

import numpy as np

from chaosclt.chaos import (ChaosSum, kappa4_I2, kappa4_I2_contraction,
                            sample, sample_batch, second_moment)
from chaosclt.experiments import RatesConfig, RatioConfig, run_rates, run_ratio
from chaosclt.hermite import hermite_monomial_coeffs
from chaosclt.kernels import (DenseKernel, RankOneSumKernel, contract, inner,
                              norm, rank_one_contraction_norm,
                              rank_one_mixed_inner, symmetrize)
from chaosclt.stationary import CovarianceFunction, sample_paths

from oracles import (hermite_e_value, mean_se, monomial_coeff_quadrature,
                     sample_variance_se)

SEED = 20260809
THREADS = 2


def report(num, name, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim)) / (2.0 * dim)
    return DenseKernel(a + a.T)


def test_criterion_1_product_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        f = rng.normal(size=dim)
        g = rng.normal(size=dim)
        Ff = ChaosSum({1: DenseKernel(f)})
        Fg = ChaosSum({1: DenseKernel(g)})
        F2 = ChaosSum({2: symmetrize(DenseKernel(np.outer(f, g)))})
        zs = rng.normal(size=(10, dim))
        for z in zs:
            gap = abs(sample(Ff, z) * sample(Fg, z)
                      - sample(F2, z) - float(f @ g))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(1, "product formula at order one", worst <= 1e-9 and elapsed < 1.0,
           f"max gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_fourth_cumulant_bracket():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst_gap = 0.0
    bracket_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        g = random_symmetric(rng, dim)
        spectral = kappa4_I2(g)
        contraction = kappa4_I2_contraction(g)
        worst_gap = max(worst_gap, abs(spectral - contraction))
        c1 = inner(contract(g, g, 1), contract(g, g, 1))
        if not (16.0 * c1 - 1e-9 <= spectral <= 48.0 * c1 + 1e-9):
            bracket_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and bracket_ok and elapsed < 1.0
    report(2, "fourth-cumulant bracket and identity", ok,
           f"max identity gap {worst_gap:.2e}, {elapsed:.2f} s")


def test_criterion_3_structured_versus_dense():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    cases = 0
    while cases < 50:
        for kind in ("self2", "mix12", "mix24", "self3"):
            dim = int(rng.integers(2, 5))
            terms = int(rng.integers(1, 5))
            if kind == "self2":
                k = RankOneSumKernel(order=2,
                                     coeffs=rng.uniform(-1, 1, terms),
                                     vectors=rng.uniform(-1, 1, (terms, dim)))
                d = k.densify()
                gap = abs(rank_one_contraction_norm(k, 1)
                          - norm(contract(d, d, 1)))
            elif kind == "self3":
                k = RankOneSumKernel(order=3,
                                     coeffs=rng.uniform(-1, 1, terms),
                                     vectors=rng.uniform(-1, 1, (terms, dim)))
                d = k.densify()
                gap = max(abs(rank_one_contraction_norm(k, r)
                              - norm(contract(d, d, r))) for r in (1, 2))
            else:
                p, q = (1, 2) if kind == "mix12" else (2, 4)
                kp = RankOneSumKernel(order=p,
                                      coeffs=rng.uniform(-1, 1, terms),
                                      vectors=rng.uniform(-1, 1, (terms, dim)))
                kq = RankOneSumKernel(order=q,
                                      coeffs=rng.uniform(-1, 1, terms),
                                      vectors=rng.uniform(-1, 1, (terms, dim)))
                dp, dq = kp.densify(), kq.densify()
                oracle = inner(contract(dp, dp, 0), contract(dq, dq, q - p))
                gap = abs(rank_one_mixed_inner(kp, kq) - oracle)
            worst = max(worst, gap)
            cases += 1
    elapsed = time.perf_counter() - t0
    report(3, "structured kernels match the dense oracle",
           worst <= 1e-10 and elapsed < 10.0,
           f"{cases} instances, max gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_4_isometry_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    M = 200_000
    failures = []
    for case in range(20):
        dim = int(rng.integers(2, 9))
        kernels = {}
        if rng.random() < 0.7:
            kernels[1] = DenseKernel(rng.normal(size=dim))
        if rng.random() < 0.7:
            kernels[2] = random_symmetric(rng, dim)
        if rng.random() < 0.7 or not kernels:
            order = int(rng.integers(3, 5))
            terms = int(rng.integers(1, 4))
            kernels[order] = RankOneSumKernel(
                order=order, coeffs=rng.uniform(-0.5, 0.5, terms),
                vectors=rng.uniform(-1, 1, (terms, dim)))
        F = ChaosSum(kernels)
        out = sample_batch(F, M, seed=SEED + 100 + case, threads=THREADS)
        exact = second_moment(F)
        se = sample_variance_se(out)
        gap = abs(out.var() - exact)
        if gap >= 5 * se:
            failures.append((case, gap, se))
    elapsed = time.perf_counter() - t0
    report(4, "isometry second moments over 2e5 replicas",
           not failures and elapsed < 60.0,
           f"20 chaos sums, {elapsed:.1f} s"
           + (f", failures {failures}" if failures else ""))


@lru_cache(maxsize=None)
def _rates_table(hurst):
    config = RatesConfig(hurst=hurst, n_grid=[2 ** k for k in range(8, 13)],
                         replicas=100_000, seed=SEED, q=2, threads=THREADS)
    return run_rates(config)


def test_criterion_5_breuer_major_rates():
    t0 = time.perf_counter()
    results = {}
    for hurst, low, high in ((0.30, -0.65, -0.35), (0.70, -0.35, -0.05)):
        table = _rates_table(hurst)
        slope = table.metadata["fitted_slope"]
        results[hurst] = (slope, low <= slope <= high)
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in results.values())
    detail = ", ".join(f"H={h}: slope {s:.4f}"
                       for h, (s, _) in results.items())
    report(5, "power-variation rate exponents", ok,
           f"{detail}, {elapsed:.0f} s")


def test_criterion_6_bound_rate_coherence():
    table = _rates_table(0.30)
    ratios = [row["d_kol"] / row["bound_total"] for row in table.rows]
    spread = max(ratios) / min(ratios)
    report(6, "empirical distance tracks the bound rate", spread < 5.0,
           f"ratio spread {spread:.2f} across the n grid")


def test_criterion_7_hermite_monomial_coeffs():
    worst_quad = 0.0
    worst_rebuild = 0.0
    xs = np.linspace(-3.0, 3.0, 20)
    for q in (2, 4, 6, 8):
        coeffs = hermite_monomial_coeffs(q)
        for k, c in enumerate(coeffs):
            worst_quad = max(worst_quad,
                             abs(c - monomial_coeff_quadrature(q, k)))
        rebuilt = sum(c * hermite_e_value(2 * k, xs)
                      for k, c in enumerate(coeffs))
        worst_rebuild = max(worst_rebuild,
                            float(np.abs(rebuilt - xs ** q).max()))
    ok = worst_quad <= 1e-8 and worst_rebuild <= 1e-9
    report(7, "monomial expansion coefficients", ok,
           f"max quadrature gap {worst_quad:.2e}, "
           f"max reconstruction gap {worst_rebuild:.2e}")


def test_criterion_8_ratio_experiment():
    t0 = time.perf_counter()
    M = 100_000
    config = RatioConfig(lambda_grid=[1e2, 1e3, 1e4], replicas=M, seed=SEED,
                         rho=1.0, sigma1=1.0, sigma2=1.0, threads=THREADS)
    table = run_ratio(config)
    elapsed = time.perf_counter() - t0
    ds = [row["d_kol"] for row in table.rows]
    tol = 2.0 / math.sqrt(M)
    decreasing = all(ds[i + 1] <= ds[i] + tol for i in range(len(ds) - 1))
    final_small = ds[-1] <= 0.05
    no_rejects = all(row["rejection_rate"] == 0.0 for row in table.rows)
    exact_zero_terms = all(
        row[label] == 0.0
        for row in table.rows
        for label in ("mean_drift", "f_second_moment_gap",
                      "g_second_moment_gap", "remainder"))
    ok = (decreasing and final_small and no_rejects and exact_zero_terms
          and elapsed < 300.0)
    report(8, "ratio family converges to N(0, 2)", ok,
           f"d_kol {['%.4f' % d for d in ds]}, final <= 0.05: {final_small}, "
           f"rejections 0: {no_rejects}, exact zero terms: "
           f"{exact_zero_terms}, {elapsed:.0f} s")


def test_criterion_9_sampler_fidelity():
    cov = CovarianceFunction.fgn(0.7)
    n, M = 1024, 10_000
    X = sample_paths(cov, n, M, seed=SEED, threads=THREADS).values
    bad_lags = []
    for lag in range(6):
        prods = (X[:, : n - lag] * X[:, lag:]).mean(axis=1)
        se = mean_se(prods)
        if abs(prods.mean() - cov(lag)) >= 5 * se:
            bad_lags.append(lag)
    serial = sample_paths(cov, 64, 2500, seed=SEED).values
    identical = all(
        np.array_equal(serial,
                       sample_paths(cov, 64, 2500, seed=SEED, threads=t).values)
        for t in (2, 5))
    report(9, "sampler covariance fidelity and determinism",
           not bad_lags and identical,
           f"lags within 5 SE, thread-invariant: {identical}"
           + (f", bad lags {bad_lags}" if bad_lags else ""))
