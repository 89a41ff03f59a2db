import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chaosclt import bounds
from chaosclt.bounds import (BoundReport, RatePrediction, breuer_major_bound,
                             chaos_sum_bound, checked_sqrt_inner, fgn_rate,
                             nz_ratio_diagnostic, phi, power_variation_bound)
from chaosclt.chaos import ChaosSum
from chaosclt.errors import TOLERANCE, NumericalError, ValidationError
from chaosclt.kernels import (DenseKernel, RankOneSumKernel,
                              breuer_major_kernels, contract,
                              rank_one_contraction_norm,
                              rank_one_norm_squared)
from chaosclt.stationary import CovarianceFunction, HermiteEvenCoeffs

from oracles import densify, inner, norm


def basis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def eigenvalue_sum_kernel(m, dense=False):
    """sum_{i=1..m} e_i (x) e_i inside dimension m."""
    if dense:
        return DenseKernel(np.eye(m))
    return RankOneSumKernel(order=2, coeffs=np.ones(m), vectors=np.eye(m))


def random_chaos_sum(rng, dim):
    kernels = {}
    if rng.random() < 0.8:
        kernels[1] = DenseKernel(rng.normal(size=dim))
    if rng.random() < 0.8:
        a = rng.normal(size=(dim, dim))
        kernels[2] = DenseKernel((a + a.T) / 2.0)
    if rng.random() < 0.7 or not kernels:
        order = int(rng.integers(3, 5))
        kernels[order] = RankOneSumKernel(
            order=order, coeffs=rng.uniform(-1, 1, size=3),
            vectors=rng.uniform(-1, 1, size=(3, dim)))
    return ChaosSum(kernels)


class TestChaosSumBound:
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("dense", [False, True])
    def test_equal_eigenvalue_second_chaos(self, m, dense):
        # ||f (x)_1 f|| = sqrt(m), E[F^2] = 2m, so the total at C=1 is
        # sqrt(m) / (2m); dense and rank-one routes must agree
        F = ChaosSum({2: eigenvalue_sum_kernel(m, dense=dense)})
        report = chaos_sum_bound(F)
        assert report.terms["mixed_inner"] == 0.0
        assert report.terms["max_contraction_norm"] == pytest.approx(
            math.sqrt(m), rel=1e-12)
        assert report.normalization == pytest.approx(2.0 * m, rel=1e-12)
        assert report.total == pytest.approx(math.sqrt(m) / (2.0 * m),
                                             rel=1e-12)

    def test_single_chaos_has_no_mixed_term(self):
        rng = np.random.default_rng(0)
        k = RankOneSumKernel(order=3, coeffs=rng.normal(size=2),
                             vectors=rng.normal(size=(2, 3)))
        report = chaos_sum_bound(ChaosSum({3: k}))
        assert report.terms["mixed_inner"] == 0.0

    def test_orthogonal_first_and_second_chaos(self):
        F = ChaosSum({1: DenseKernel(basis(2, 0)),
                      2: DenseKernel(np.outer(basis(2, 1), basis(2, 1)))})
        report = chaos_sum_bound(F)
        assert report.terms["mixed_inner"] == pytest.approx(0.0, abs=1e-12)
        assert report.terms["max_contraction_norm"] == pytest.approx(1.0,
                                                                     rel=1e-12)
        assert report.normalization == pytest.approx(3.0)

    def test_pure_first_chaos_bound_vanishes(self):
        report = chaos_sum_bound(ChaosSum({1: DenseKernel(basis(3, 1))}))
        assert report.total == 0.0

    def test_mixed_term_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            F = random_chaos_sum(rng, 3)
            if not F.delta_dn:
                continue
            report = chaos_sum_bound(F)
            best = 0.0
            orders = F.orders
            for i, p in enumerate(orders):
                for q in orders[i + 1:]:
                    fp, fq = F.kernels[p], F.kernels[q]
                    dp = fp if isinstance(fp, DenseKernel) else densify(fp)
                    dq = fq if isinstance(fq, DenseKernel) else densify(fq)
                    val = inner(contract(dp, dp, 0), contract(dq, dq, q - p))
                    best = max(best, math.sqrt(max(val, 0.0)))
            assert report.terms["mixed_inner"] == pytest.approx(best, abs=1e-9)

    def test_sharper_than_factorized_bound(self):
        # the mixed term never exceeds max ||f_p|| * max sqrt||f_q (x)_r f_q||
        rng = np.random.default_rng(2)
        for _ in range(20):
            F = random_chaos_sum(rng, 3)
            if not F.delta_dn:
                continue
            report = chaos_sum_bound(F)
            max_norm = 0.0
            max_contr = 0.0
            for p, k in F.kernels.items():
                if isinstance(k, DenseKernel):
                    nsq = inner(k, k)
                else:
                    nsq = rank_one_norm_squared(k)
                max_norm = max(max_norm, math.sqrt(max(nsq, 0.0)))
                if p >= 2:
                    for r in range(1, p):
                        if isinstance(k, DenseKernel):
                            c = norm(contract(k, k, r))
                        else:
                            c = rank_one_contraction_norm(k, r)
                        max_contr = max(max_contr, math.sqrt(c))
            assert report.terms["mixed_inner"] <= max_norm * max_contr + 1e-10

    def test_invariant_under_orthogonal_rotation(self):
        rng = np.random.default_rng(3)
        dim = 4
        qmat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        f1 = rng.normal(size=dim)
        a = rng.normal(size=(dim, dim))
        f2 = (a + a.T) / 2.0
        k3 = RankOneSumKernel(order=3, coeffs=rng.normal(size=2),
                              vectors=rng.normal(size=(2, dim)))
        F = ChaosSum({1: DenseKernel(f1), 2: DenseKernel(f2), 3: k3})
        rotated = ChaosSum({
            1: DenseKernel(qmat @ f1),
            2: DenseKernel(qmat @ f2 @ qmat.T),
            3: RankOneSumKernel(order=3, coeffs=k3.coeffs,
                                vectors=k3.vectors @ qmat.T),
        })
        r0 = chaos_sum_bound(F)
        r1 = chaos_sum_bound(rotated)
        for key in r0.terms:
            assert r1.terms[key] == pytest.approx(r0.terms[key], abs=1e-9)
        assert r1.normalization == pytest.approx(r0.normalization, rel=1e-9)

    def test_scaling_acts_quadratically_per_term(self):
        rng = np.random.default_rng(4)
        c = 1.7
        for _ in range(10):
            F = random_chaos_sum(rng, 3)
            scaled = {}
            for p, k in F.kernels.items():
                if isinstance(k, DenseKernel):
                    scaled[p] = DenseKernel(c * k.values)
                else:
                    scaled[p] = RankOneSumKernel(order=k.order,
                                                 coeffs=c * k.coeffs,
                                                 vectors=k.vectors)
            r0 = chaos_sum_bound(F)
            r1 = chaos_sum_bound(ChaosSum(scaled))
            for key in r0.terms:
                assert r1.terms[key] == pytest.approx(c * c * r0.terms[key],
                                                      rel=1e-9, abs=1e-9)
            assert r1.normalization == pytest.approx(c * c * r0.normalization,
                                                     rel=1e-12)

    def test_single_chaos_scale_invariant_total(self):
        k = eigenvalue_sum_kernel(3)
        F = ChaosSum({2: k})
        scaled = ChaosSum({2: RankOneSumKernel(order=2, coeffs=5.0 * k.coeffs,
                                               vectors=k.vectors)})
        assert chaos_sum_bound(scaled).total == pytest.approx(
            chaos_sum_bound(F).total, rel=1e-12)


class TestBreuerMajorChaosSumBound:
    def test_runs_on_the_gram_alone(self, monkeypatch):
        cov = CovarianceFunction.fgn(0.7)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
        ks = breuer_major_kernels(cov, 96, coeffs)
        explicit = ChaosSum({k.order: RankOneSumKernel(
            order=k.order, coeffs=k.coeffs, vectors=k.vectors) for k in ks})
        expected = chaos_sum_bound(explicit)

        def refuse(mat):
            raise AssertionError("eigendecomposition on the bound path")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        report = chaos_sum_bound(ChaosSum(
            {k.order: k for k in breuer_major_kernels(cov, 96, coeffs)}))
        for label, value in expected.terms.items():
            assert report.terms[label] == pytest.approx(value, rel=1e-10)
        assert report.normalization == pytest.approx(expected.normalization,
                                                     rel=1e-10)

    def test_bound_path_forms_no_gram_matrix(self, monkeypatch):
        # the kernels share a Gram built from its Toeplitz row, and neither
        # the kernels nor the bound form the n x n matrix (128 MiB at
        # n = 4096)
        n = 4096
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
        tracemalloc.start()
        try:
            ks = breuer_major_kernels(CovarianceFunction.fgn(0.7), n, coeffs)
            report = chaos_sum_bound(ChaosSum({k.order: k for k in ks}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ks[0]._gram._matrix is None
        assert report.terms["max_contraction_norm"] > 0.0
        assert peak < 16 * 2 ** 20

    def test_peak_memory_below_one_gram(self):
        # the Gram is built before tracing starts; the bound itself needs
        # O(n) memory, far below one more n x n float64 array
        n = 1024
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 1.0]))
        ks = breuer_major_kernels(CovarianceFunction.fgn(0.7), n, coeffs)
        F = ChaosSum({k.order: k for k in ks})
        assert ks[0].gram.shape == (n, n)
        tracemalloc.start()
        try:
            report = chaos_sum_bound(F)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.terms["max_contraction_norm"] > 0.0
        assert peak < n * n * 8


class TestCheckedSqrtInner:
    def test_clamps_float_noise(self):
        assert checked_sqrt_inner(-5e-11) == 0.0
        assert checked_sqrt_inner(0.25) == 0.5

    def test_raises_beyond_tolerance(self):
        with pytest.raises(NumericalError):
            checked_sqrt_inner(-2 * TOLERANCE)

    def test_tolerance_is_relative_to_scale(self):
        assert checked_sqrt_inner(-1e-8, scale=1e4) == 0.0
        with pytest.raises(NumericalError):
            checked_sqrt_inner(-1e-24, scale=1e-24)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_a_value_beyond_float64(self, value):
        # NaN fails every comparison, so the tolerance check alone let it
        # through to max(0.0, nan)
        with pytest.raises(NumericalError, match="not finite"):
            checked_sqrt_inner(value, scale=math.inf)


class TestPhi:
    def test_orthogonal_pair(self):
        f1 = DenseKernel(basis(2, 0))
        f2 = DenseKernel(np.outer(basis(2, 1), basis(2, 1)))
        assert phi(f1, f2) == pytest.approx(math.sqrt(48.0), rel=1e-12)

    def test_zero_second_kernel(self):
        f1 = DenseKernel(basis(2, 0))
        f2 = DenseKernel(np.zeros((2, 2)))
        assert phi(f1, f2) == 0.0

    def test_aligned_pair(self):
        v = np.array([0.6, 0.8])
        f1 = DenseKernel(v)
        f2 = DenseKernel(np.outer(v, v))
        assert phi(f1, f2) == pytest.approx(math.sqrt(48.0) + 1.0, rel=1e-12)

    def test_rank_one_inputs_accepted(self):
        v = np.array([1.0, 0.0])
        f1 = RankOneSumKernel(order=1, coeffs=np.array([1.0]),
                              vectors=v[None, :])
        f2 = RankOneSumKernel(order=2, coeffs=np.array([1.0]),
                              vectors=v[None, :])
        assert phi(f1, f2) == pytest.approx(math.sqrt(48.0) + 1.0, rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValidationError):
            phi(DenseKernel(np.eye(2)), DenseKernel(np.eye(2)))

    def test_mixed_guard_is_shared_with_the_chaos_sum_bound(self,
                                                            monkeypatch):
        # both read the module-level rank_one_mixed_inner, the name the
        # benchmark tracer patches, and name the orders when it fails
        monkeypatch.setattr(bounds, "rank_one_mixed_inner",
                            lambda kp, kq: -1.0)
        f1 = DenseKernel(basis(2, 0))
        f2 = DenseKernel(np.outer(basis(2, 1), basis(2, 1)))
        message = r"mixed inner product \(orders 1, 2\) is negative"
        with pytest.raises(NumericalError, match=message):
            phi(f1, f2)
        with pytest.raises(NumericalError, match=message):
            chaos_sum_bound(ChaosSum({1: f1, 2: f2}))


class TestBreuerMajorBound:
    def test_iid_terms_are_unit(self):
        cov = CovarianceFunction.iid()
        for n in (1, 5, 100):
            report = breuer_major_bound(cov, n, d=1, m=2, variance=2.0)
            assert report.terms["covariance_43"] == pytest.approx(1.0)
            assert report.terms["rank_cross"] == pytest.approx(1.0)
            assert report.total == pytest.approx(2.0 / (2.0 * math.sqrt(n)))

    def test_single_point_reduces_to_lag_zero(self):
        cov = CovarianceFunction.fgn(0.7)
        report = breuer_major_bound(cov, 1, d=1, m=1, variance=3.0)
        assert report.total == pytest.approx(2.0 / 3.0)

    def test_independent_summation_oracle(self):
        H, n, d = 0.7, 1024, 1
        cov = CovarianceFunction.fgn(H)
        report = breuer_major_bound(cov, n, d=d, m=2, variance=1.0)
        # second implementation: plain loops, no vectorization
        s43 = 0.0
        for k in range(-(n - 1), n):
            s43 += abs(cov(k)) ** (4.0 / 3.0)
        s2d = sum(abs(cov(k)) ** (2 * d) for k in range(n))
        s2 = sum(abs(cov(k)) ** 2 for k in range(n))
        expected_total = (s43 ** 1.5 + s2d * math.sqrt(s2)) / math.sqrt(n)
        assert report.total == pytest.approx(expected_total, abs=1e-12,
                                             rel=1e-12)

    def test_argument_validation(self):
        cov = CovarianceFunction.iid()
        with pytest.raises(ValidationError):
            breuer_major_bound(cov, 0, 1, 1, 1.0)
        with pytest.raises(ValidationError):
            breuer_major_bound(cov, 4, 2, 1, 1.0)
        with pytest.raises(ValidationError):
            breuer_major_bound(cov, 4, 1, 1, 0.0)


class TestPowerVariationBound:
    def test_iid_total(self):
        cov = CovarianceFunction.iid()
        report = power_variation_bound(cov, 16, variance=2.0)
        assert report.total == pytest.approx(2.0 / (2.0 * 4.0))

    def test_coincides_with_rank_one_bound_when_sums_match(self):
        # iid: sum |rho|^2 = sum |rho|^(2d) at d = 1, so the two bounds agree
        cov = CovarianceFunction.fgn(0.5)
        for n in (1, 7, 64):
            a = power_variation_bound(cov, n, variance=1.3)
            b = breuer_major_bound(cov, n, d=1, m=1, variance=1.3)
            assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_h07_slope_matches_rate_prediction(self):
        # slope of the exact bound itself (fixed normalization) across the
        # grid 2^8..2^14 sits within 0.02 of 4H - 3
        from chaosclt.distances import rate_fit
        H = 0.7
        cov = CovarianceFunction.fgn(H)
        pts = []
        for k in range(8, 15):
            n = 2 ** k
            pts.append((n, power_variation_bound(cov, n,
                                                 variance=1.0).total))
        fit = rate_fit(pts)
        assert abs(fit.slope - (4 * H - 3)) <= 0.02


class TestFgnRate:
    def test_three_regimes(self):
        assert fgn_rate(0.3) == RatePrediction(exponent=-0.5, log_power=0.0)
        assert fgn_rate(0.625) == RatePrediction(exponent=-0.5,
                                                 log_power=1.5)
        assert fgn_rate(0.7) == RatePrediction(
            exponent=pytest.approx(-0.2), log_power=0.0)

    def test_exponent_always_negative(self):
        for H in np.linspace(0.05, 0.74, 30):
            assert fgn_rate(float(H)).exponent < 0.0

    @pytest.mark.parametrize("H", [0.75, 0.9, 0.0, -0.1])
    def test_out_of_regime(self, H):
        with pytest.raises(ValidationError):
            fgn_rate(H)


class TestNzDiagnostic:
    def test_iid_ratio_is_one(self):
        cov = CovarianceFunction.iid()
        assert nz_ratio_diagnostic(cov, 10, 2) == pytest.approx(1.0)

    def test_fgn_ratio_finite_positive(self):
        cov = CovarianceFunction.fgn(0.7)
        ratio = nz_ratio_diagnostic(cov, 256, 2)
        assert 0.0 < ratio < math.inf

    def test_three_fold_brute_force(self):
        # the oracle takes every sign vector; the diagnostic takes none
        cov = CovarianceFunction.fgn(0.6)
        n = 4
        rhs = sum(abs(cov(k)) ** (4.0 / 3.0)
                  for k in range(-n, n + 1)) ** 3
        ratio = nz_ratio_diagnostic(cov, n, 3)
        for signs in itertools.product((1, -1), repeat=3):
            lhs = 0.0
            for k1 in range(-n, n + 1):
                for k2 in range(-n, n + 1):
                    for k3 in range(-n, n + 1):
                        dot = signs[0] * k1 + signs[1] * k2 + signs[2] * k3
                        lhs += (abs(cov(dot)) * abs(cov(k1)) * abs(cov(k2))
                                * abs(cov(k3)))
            assert ratio == pytest.approx(lhs / rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("signs", [[1, 1], [1, -1], [-1, 1], [-1, -1]])
    def test_two_fold_brute_force(self, n, signs):
        cov = CovarianceFunction.fgn(0.7)
        lhs = sum(abs(cov(signs[0] * k1 + signs[1] * k2))
                  * abs(cov(k1)) * abs(cov(k2))
                  for k1 in range(-n, n + 1) for k2 in range(-n, n + 1))
        rhs = sum(abs(cov(k)) ** 1.5 for k in range(-n, n + 1)) ** 2
        assert nz_ratio_diagnostic(cov, n, 2) == pytest.approx(
            lhs / rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("signs", list(itertools.product((1, -1),
                                                             repeat=4)))
    def test_four_fold_brute_force(self, n, signs):
        cov = CovarianceFunction.fgn(0.7)
        box = range(-n, n + 1)
        lhs = sum(abs(cov(sum(s * k for s, k in zip(signs, ks))))
                  * math.prod(abs(cov(k)) for k in ks)
                  for ks in itertools.product(box, repeat=4))
        rhs = sum(abs(cov(k)) ** 1.25 for k in box) ** 4
        assert nz_ratio_diagnostic(cov, n, 4) == pytest.approx(
            lhs / rhs, rel=1e-12)

    def test_m_validation(self):
        cov = CovarianceFunction.iid()
        with pytest.raises(ValidationError):
            nz_ratio_diagnostic(cov, 8, 1)


class TestBoundReport:
    def test_total_formula(self):
        report = BoundReport(terms={"a": 1.0, "b": 2.0}, normalization=4.0)
        assert report.total == pytest.approx(0.75)

    def test_rejects_negative_terms(self):
        with pytest.raises(ValidationError):
            BoundReport(terms={"a": -0.1}, normalization=1.0)
        with pytest.raises(ValidationError):
            BoundReport(terms={"a": 0.1}, normalization=0.0)

    def test_to_json_fields(self):
        report = BoundReport(terms={"a": 0.25, "b": 1.5}, normalization=3.0)
        data = report.to_json()
        assert data["terms"] == report.terms
        assert data["normalization"] == report.normalization
        assert data["total"] == pytest.approx(report.total)
