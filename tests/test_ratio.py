import math

import numpy as np
import pytest
from scipy import stats

from chaosclt.bounds import phi
from chaosclt.chaos import kappa4_I2, second_moment, ChaosSum
from chaosclt.errors import ValidationError
from chaosclt.ratio import (Perturbations, RatioFamily, ratio_bound,
                            sample_ratio, sample_ratio_batch)

from oracles import f_kernel, g_kernel, mean_se


def default_family(lam, **kwargs):
    return RatioFamily(lam=lam, rho_const=1.0, sigma1=1.0, sigma2=1.0,
                       **kwargs)


class TestFamilyConstruction:
    def test_reference_parameters(self):
        fam = default_family(4.0)
        assert fam.m == 4
        assert fam.mean_g == pytest.approx(2.0)
        # Var(V) = 2 ||g||^2 = 2 * 4 * (1/sqrt(8))^2 = 1
        assert 2.0 * fam.m * fam.g_eigenvalue ** 2 == pytest.approx(1.0)
        assert fam.sigma_sq == pytest.approx(2.0)

    def test_non_integer_lambda_rounds_up(self):
        assert default_family(2.5).m == 3

    def test_positivity_constraint(self):
        with pytest.raises(ValidationError, match="sqrt"):
            RatioFamily(lam=4.0, rho_const=1.0, sigma1=1.5, sigma2=1.0)
        with pytest.raises(ValidationError):
            RatioFamily(lam=4.0, rho_const=1.0, sigma1=math.sqrt(2.0),
                        sigma2=1.0)
        # just below the threshold is accepted
        RatioFamily(lam=4.0, rho_const=1.0, sigma1=math.sqrt(2.0) - 1e-9,
                    sigma2=1.0)

    def test_lambda_limited_by_float64_resolution(self):
        # beyond m = 2 (TOLERANCE / eps)^2 ~ 4.06e11 the rounding of m in
        # ||Z[:m]||^2 - m exceeds TOLERANCE times its spread sqrt(2m), and
        # at lambda = 1e32 the sampled ratio is off by d_kol = 0.5
        assert default_family(4.0e11).m == 400_000_000_000
        for lam in (4.1e11, 1e32, 1e300):
            with pytest.raises(ValidationError, match="at most 4.056e"):
                default_family(lam)

    def test_exact_second_moments(self):
        fam = default_family(7.0)
        assert fam.g_centered_second_moment() == 1.0
        assert fam.f_second_moment() == 1.0
        pert = Perturbations(s_norm=0.5)
        fam2 = default_family(8.0, perturbations=pert)
        assert fam2.g_centered_second_moment() == pytest.approx(
            1.0 + 0.25 / 8.0)

    def test_perturbation_validation(self):
        with pytest.raises(ValidationError):
            Perturbations(s_norm=-1.0)
        with pytest.raises(ValidationError):
            Perturbations(f_overlap=1.0)

    def test_materialized_kernels_match_analytic_moments(self):
        fam = default_family(16.0)
        g = g_kernel(fam)
        f = f_kernel(fam)
        # isometry: E[V^2] = 2 ||g||^2 = sigma1^2
        assert second_moment(ChaosSum({2: g})) == pytest.approx(
            fam.sigma1 ** 2, rel=1e-12)
        assert second_moment(ChaosSum({1: f})) == pytest.approx(
            fam.sigma2 ** 2, rel=1e-12)


class TestSampleRatio:
    def test_unit_square_projections_isolate_first_chaos(self):
        # z with z_i^2 = 1 on the second-chaos directions makes V vanish,
        # leaving Q = sigma2 * z_f exactly (E G = rho sqrt(lam))
        fam = default_family(4.0)
        z = np.zeros(fam.dim)
        z[:fam.m] = 1.0
        z[fam.m] = 0.37
        value, rejected = sample_ratio(fam, z)
        assert not rejected
        assert value == pytest.approx(0.37, rel=1e-12)

    def test_zero_numerator_when_sigma2_zero(self):
        fam = RatioFamily(lam=4.0, rho_const=1.0, sigma1=1.0, sigma2=0.0)
        z = np.zeros(fam.dim)
        z[:fam.m] = -1.0
        value, _ = sample_ratio(fam, z)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rejection_is_data_not_error(self):
        # a large S perturbation can push the denominator negative
        fam = default_family(1.0, perturbations=Perturbations(s_norm=50.0))
        z = np.zeros(fam.dim)
        z[fam.m + 1] = -10.0
        _, rejected = sample_ratio(fam, z)
        assert rejected

    def test_dimension_validated(self):
        fam = default_family(4.0)
        with pytest.raises(ValidationError):
            sample_ratio(fam, np.zeros(2))

    def test_never_rejects_default_family(self):
        fam = default_family(100.0)
        _, rejected = sample_ratio_batch(fam, 50_000, seed=3)
        assert rejected.sum() == 0

    def test_monte_carlo_mean_near_zero(self):
        fam = default_family(10_000.0)
        values, rejected = sample_ratio_batch(fam, 50_000, seed=5)
        kept = values[~rejected]
        assert abs(kept.mean()) < 5 * mean_se(kept)

    def test_batch_deterministic_and_thread_invariant(self):
        fam = default_family(64.0)
        a, ra = sample_ratio_batch(fam, 3000, seed=9)
        b, rb = sample_ratio_batch(fam, 3000, seed=9, threads=4)
        assert np.array_equal(a, b) and np.array_equal(ra, rb)

    def test_overlap_changes_samples(self):
        fam0 = default_family(16.0)
        fam1 = default_family(16.0,
                              perturbations=Perturbations(f_overlap=0.5))
        a, _ = sample_ratio_batch(fam0, 100, seed=1)
        b, _ = sample_ratio_batch(fam1, 100, seed=1)
        assert not np.allclose(a, b)


class TestRatioBound:
    def test_default_family_terms(self):
        fam = default_family(100.0)
        report = ratio_bound(fam)
        assert report.terms["mean_drift"] == 0.0
        assert report.terms["f_second_moment_gap"] == 0.0
        assert report.terms["g_second_moment_gap"] == 0.0
        assert report.terms["remainder"] == 0.0
        # kappa4(V) = 48 m a^4 = 12 sigma1^4 / m, orthogonal f gives
        # phi = sigma1^2 sqrt(12/m)
        assert report.terms["phi"] == pytest.approx(math.sqrt(12.0 / fam.m),
                                                    rel=1e-12)
        assert report.total == report.terms["phi"]

    def test_mu_only_populates_remainder(self):
        fam = default_family(25.0, perturbations=Perturbations(mu=0.3))
        report = ratio_bound(fam)
        assert report.terms["remainder"] == pytest.approx(0.3 / 5.0)
        assert report.terms["mean_drift"] == 0.0

    def test_mean_drift_term(self):
        eps = 0.01
        fam = default_family(16.0,
                             perturbations=Perturbations(eg_epsilon=eps))
        report = ratio_bound(fam)
        assert report.terms["mean_drift"] == pytest.approx(2.0 * eps)
        assert fam.mean_g == pytest.approx(4.0 * (1 + eps))

    def test_phi_cross_checked_against_kernel_routes(self):
        for overlap in (0.0, 0.4):
            fam = default_family(
                32.0, perturbations=Perturbations(f_overlap=overlap))
            report = ratio_bound(fam)
            g = g_kernel(fam)
            f = f_kernel(fam)
            assert math.sqrt(abs(kappa4_I2(g))) == pytest.approx(
                math.sqrt(48.0 * fam.m * fam.g_eigenvalue ** 4), rel=1e-12)
            assert report.terms["phi"] == pytest.approx(phi(f, g), rel=1e-10)

    def test_s_norm_contributes_gap_and_remainder(self):
        fam = default_family(16.0, perturbations=Perturbations(s_norm=0.5))
        report = ratio_bound(fam)
        assert report.terms["g_second_moment_gap"] == pytest.approx(0.25 / 16.0)
        assert report.terms["remainder"] == pytest.approx(0.5 / 4.0)

    def test_bound_decays_along_lambda_grid(self):
        totals = [ratio_bound(default_family(lam)).total
                  for lam in (1e2, 1e3, 1e4)]
        assert totals[0] > totals[1] > totals[2]


class TestEmpiricalConvergence:
    def test_distance_decreases_and_rejections_absent(self):
        from chaosclt.distances import EmpiricalSample, kolmogorov_distance
        M = 20_000
        ds = []
        for stream, lam in enumerate((1e2, 1e3, 1e4)):
            fam = default_family(lam)
            values, rejected = sample_ratio_batch(fam, M, seed=31,
                                                  stream=stream)
            assert rejected.sum() == 0
            ds.append(kolmogorov_distance(
                EmpiricalSample.from_data(values), 0.0, fam.sigma_sq))
        tol = 2.0 / math.sqrt(M)
        assert ds[1] <= ds[0] + tol
        assert ds[2] <= ds[1] + tol


class TestSufficientStatisticSampler:
    """The batch path draws (Z_0, Z_F, Z_S, Z_U) and a chi-square(m - 1)
    variate per replica instead of the full Gaussian vector."""

    @pytest.mark.parametrize("lam", [1.0, 4.0, 37.5, 1e4, 1e11])
    def test_matches_exact_chi_square_law(self, lam):
        # with sigma2 = 0 and no perturbations Q = V / (1 + V / (rho
        # sqrt(lam))) is increasing in V = a (chi2_m - m), so its CDF is a
        # chi-square CDF; DKW bounds the ECDF distance at level alpha
        M, alpha = 200_000, 1e-9
        fam = RatioFamily(lam=lam, rho_const=1.0, sigma1=1.0, sigma2=0.0)
        values, rejected = sample_ratio_batch(fam, M, seed=17, threads=2)
        assert not rejected.any()
        c = fam.rho_const * math.sqrt(lam)
        x = np.sort(values)
        assert x[-1] < c
        v = x * c / (c - x)
        cdf = stats.chi2.cdf(fam.m + v / fam.g_eigenvalue, fam.m)
        ranks = np.arange(1, M + 1) / M
        distance = max((ranks - cdf).max(), (cdf - ranks + 1.0 / M).max())
        assert distance <= math.sqrt(math.log(2.0 / alpha) / (2.0 * M))

    def test_batch_law_matches_explicit_vectors(self):
        # small m and a large overlap, so that F's dependence on the Z_0
        # inside ||Z[:m]||^2 shows; s_norm makes some denominators
        # nonpositive, and rejected replicas enter both samples as +inf
        pert = Perturbations(s_norm=0.5, u_norm=0.7, mu=0.3, f_overlap=0.9)
        fam = default_family(2.0, perturbations=pert)
        N = 40_000
        Z = np.random.default_rng(2024).standard_normal((N, fam.dim))
        explicit = np.array([np.inf if rejected else value
                             for value, rejected in (sample_ratio(fam, z)
                                                     for z in Z)])
        values, rejected = sample_ratio_batch(fam, N, seed=8)
        batch = np.where(rejected, np.inf, values)
        assert 0 < rejected.sum() < N // 10
        assert stats.ks_2samp(explicit, batch).pvalue > 1e-6

    def test_prefix_does_not_depend_on_replica_count(self):
        fam = default_family(37.5, perturbations=Perturbations(f_overlap=0.3))
        full, full_rej = sample_ratio_batch(fam, 3000, seed=4, threads=2)
        for k in (100, 1500):
            part, part_rej = sample_ratio_batch(fam, k, seed=4)
            assert np.array_equal(part, full[:k])
            assert np.array_equal(part_rej, full_rej[:k])

    @pytest.mark.parametrize("threads", [2, 4])
    def test_thread_invariant(self, threads):
        fam = default_family(1e4)
        a, _ = sample_ratio_batch(fam, 5000, seed=21, stream=3)
        b, _ = sample_ratio_batch(fam, 5000, seed=21, stream=3,
                                  threads=threads)
        assert np.array_equal(a, b)

    def test_explicit_vector_reduced_to_statistics(self):
        # ||z[:m]||^2 = m + v / a fixes V exactly; F reads z_0 and z_m
        pert = Perturbations(f_overlap=0.6)
        fam = RatioFamily(lam=3.0, rho_const=1.0, sigma1=1.0, sigma2=0.5,
                          perturbations=pert)
        z = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 0.0])
        V = fam.g_eigenvalue * (6.0 - 3.0)
        F = 0.5 * (0.8 * 0.5 + 0.6 * 1.0)
        c = math.sqrt(3.0)
        value, _ = sample_ratio(fam, z)
        assert value == pytest.approx((V + F) / (1.0 + V / c), rel=1e-12)

    def test_non_finite_perturbations_rejected(self):
        with pytest.raises(ValidationError, match="mu"):
            Perturbations(mu=float("nan"))
        with pytest.raises(ValidationError, match="u_norm"):
            Perturbations(u_norm="0.5")
