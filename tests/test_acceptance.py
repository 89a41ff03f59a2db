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
from chaosclt.distances import rate_fit
from chaosclt.experiments import RatesConfig, RatioConfig, run_rates, run_ratio
from chaosclt.hermite import hermite_monomial_coeffs
from chaosclt.kernels import (DenseKernel, RankOneSumKernel, contract,
                              rank_one_contraction_norm, rank_one_mixed_inner)
from chaosclt.stationary import CovarianceFunction, sample_paths

from oracles import (densify, hermite_e_value, inner, mean_se,
                     monomial_coeff_quadrature, norm, sample_variance_se,
                     symmetrize)

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
                d = densify(k)
                gap = abs(rank_one_contraction_norm(k, 1)
                          - norm(contract(d, d, 1)))
            elif kind == "self3":
                k = RankOneSumKernel(order=3,
                                     coeffs=rng.uniform(-1, 1, terms),
                                     vectors=rng.uniform(-1, 1, (terms, dim)))
                d = densify(k)
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
                dp, dq = densify(kp), densify(kq)
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


RATES_GRID = [2 ** k for k in range(8, 13)]
RATES_REPLICAS = 100_000

# Exact d_Kol of the standardized quadratic variation (q = 2) of fGn at each
# n of RATES_GRID, computed once without Monte Carlo by the Gil-Pelaez method
# of exact_d_kol_quadratic_variation in bench/make_reference.py: Q - E[Q] is
# a weighted sum of centered chi-square(1) variables with the eigenvalues of
# the n x n fGn covariance as weights, its CDF is the Gil-Pelaez inversion
# of its characteristic function, and the sup over x of its gap to Phi is
# found on a grid of 181 points in [-4, 5], refined to 1e-6.  The H = 0.7
# values are the d_kol_exact entries of bench/reference.json.
EXACT_D_KOL = {
    0.30: [0.01328679616639683, 0.009398140756557982, 0.006646533068155991,
           0.004700177418752283, 0.003323657661618684],
    0.70: [0.02951924260058625, 0.023948010871701397, 0.019452694733837372,
           0.01581594259102026, 0.012867765241708629],
}

# Chance that an exact sampler fails the two-sided DKW check at one n.
DKW_ALPHA = 1e-9


@lru_cache(maxsize=None)
def _rates_table(hurst):
    config = RatesConfig(hurst=hurst, n_grid=RATES_GRID,
                         replicas=RATES_REPLICAS, seed=SEED, q=2,
                         threads=THREADS)
    return run_rates(config)


def test_criterion_5_breuer_major_rates():
    # At n >= 2048 the exact distance at H = 0.3 is near the ECDF noise
    # floor, so a slope fitted to Monte Carlo distances is noise.  Checked
    # instead: (a) every estimate lies within the DKW epsilon of the exact
    # distance, which holds for an exact sampler except with probability
    # DKW_ALPHA per n (sup |ECDF - F| <= eps and the triangle inequality);
    # (b) the exact distances decay at a rate inside the exponent band.
    t0 = time.perf_counter()
    eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * RATES_REPLICAS))
    results = {}
    for hurst, low, high in ((0.30, -0.65, -0.35), (0.70, -0.35, -0.05)):
        table = _rates_table(hurst)
        exact = EXACT_D_KOL[hurst]
        assert [row["n"] for row in table.rows] == RATES_GRID
        gap = max(abs(row["d_kol"] - d) for row, d in zip(table.rows, exact))
        slope = rate_fit(list(zip(RATES_GRID, exact))).slope
        results[hurst] = (gap, slope, gap <= eps and low <= slope <= high)
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, _, flag in results.values())
    detail = ", ".join(f"H={h}: max |d_kol - exact| {g:.4f}, exact slope "
                       f"{s:.4f}" for h, (g, s, _) in results.items())
    report(5, "power-variation rates against exact distances", ok,
           f"{detail}, DKW eps {eps:.4f}, {elapsed:.0f} s")


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
