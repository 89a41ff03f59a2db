import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from chaosclt import toeplitz as toeplitz_module
from chaosclt.errors import NumericalError, ValidationError
from chaosclt.stationary import (CovarianceFunction, HermiteEvenCoeffs,
                                 PathSampler, breuer_major_statistic,
                                 exact_variance_power_variation,
                                 fgn_covariance, hermite_monomial_coeffs,
                                 power_variation, power_variation_mean,
                                 sample_paths)
from chaosclt.streams import (BLOCK_SIZE, CHUNK_NORMALS, block_normals,
                              replica_blocks)

from oracles import (hermite_e_value, mean_se, monomial_coeff_quadrature,
                     sample_variance_se, variance_power_variation_quadrature)


# rho(k) at the float H to 50 digits, from the direct formula evaluated
# with 60-digit mpmath
FGN_EXACT = [
    (0.3, 1, "-2.4214171674480097049053600587633564150967648958025e-1"),
    (0.3, 2, "-4.9125544044516706835599966565754558183324722470908e-2"),
    (0.3, 7, "-7.9166973320295928035003654453618474661110081515388e-3"),
    (0.3, 8, "-6.5579189032012441217667371181534443092334153635221e-3"),
    (0.3, 9, "-5.5558394868174456084687797219662094260677165292736e-3"),
    (0.3, 1024, "-7.3242207057783358017509441488491939529990474568189e-6"),
    (0.3, 8192, "-3.9850642406998169126242906846601765434124125592886e-7"),
    (0.3, 65536, "-2.1682499407900016942160126876057485208673066668118e-8"),
    (0.7, 1, "3.1950791077289417814003236875961474493060359684787e-1"),
    (0.7, 2, "1.8875253932725092799475996272447872232564726668466e-1"),
    (0.7, 7, "8.7259401834478640407356243276689849761919732275843e-2"),
    (0.7, 8, "8.0509889500283693001839274786924903464563811818703e-2"),
    (0.7, 9, "7.4996829997952157213358869739974474725903878228456e-2"),
    (0.7, 1024, "4.3750003337861061166335098039837849897306920284733e-3"),
    (0.7, 8192, "1.2563888272757378746477261350178298972259301492957e-3"),
    (0.7, 65536, "3.6080294435868329418654342604600915245099631165341e-4"),
] + [(0.5, k, "0") for k in (1, 2, 7, 8, 9, 1024, 8192, 65536)]


class TestFgnCovariance:
    @pytest.mark.parametrize("H, k, exact", FGN_EXACT)
    def test_matches_high_precision_values(self, H, k, exact):
        # the binomial series from lag 8 on keeps every digit; below it the
        # direct formula is off by up to 4.2e-14 at these H
        got = fgn_covariance(H, k)
        with decimal.localcontext() as context:
            context.prec = 60
            want = decimal.Decimal(exact)
            if want == 0:
                assert got == 0.0
                return
            error = abs((decimal.Decimal(got) - want) / want)
        assert error <= (4e-16 if k >= 8 else 1e-13)

    @pytest.mark.parametrize("H", [0.01, 0.3, 0.5, 0.7, 0.74, 0.99])
    def test_array_evaluator_equals_scalar_bit_for_bit(self, H):
        rho = CovarianceFunction.fgn(H)
        lags = np.r_[0:600, 4090:4100, 65530:65540]
        scalar = np.array([fgn_covariance(H, int(k)) for k in lags])
        assert np.array_equal(rho.array_evaluator(lags), scalar)
        assert np.array_equal(rho.array_evaluator(-lags), scalar)
        assert np.array_equal(rho.lag_array(600), scalar[:600])

    def test_lag_zero_is_one(self):
        for H in (0.1, 0.5, 0.7, 0.9):
            assert fgn_covariance(H, 0) == 1.0

    def test_brownian_increments_are_independent(self):
        assert fgn_covariance(0.5, 1) == pytest.approx(0.0, abs=1e-15)
        assert fgn_covariance(0.5, 7) == pytest.approx(0.0, abs=1e-15)

    def test_h07_lag_one(self):
        # direct evaluation of (2**1.4 - 2) / 2
        assert fgn_covariance(0.7, 1) == pytest.approx(0.5 * (2 ** 1.4 - 2.0),
                                                       rel=1e-15)

    @given(H=st.floats(0.01, 0.99), k=st.integers(-50, 50))
    def test_symmetric_in_lag(self, H, k):
        assert fgn_covariance(H, k) == fgn_covariance(H, -k)

    @pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_domain(self, H):
        with pytest.raises(ValidationError):
            fgn_covariance(H, 1)

    @pytest.mark.parametrize("H", [0.3, 0.55, 0.7])
    def test_bounded_by_one(self, H):
        assert all(abs(fgn_covariance(H, k)) <= 1.0 for k in range(1, 200))

    @pytest.mark.parametrize("H", [0.3, 0.6, 0.7])
    def test_squared_sums_grow_sublinearly_below_three_quarters(self, H):
        def s(n):
            return sum(fgn_covariance(H, k) ** 2 for k in range(-n + 1, n))
        ns = [64, 256, 1024, 4096]
        ratios = [s(n) / n for n in ns]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


class TestSamplePaths:
    def test_iid_case_shape_and_whiteness(self):
        cov = CovarianceFunction.fgn(0.5)
        pm = sample_paths(cov, 4, 1, seed=1)
        assert pm.shape == (1, 4)
        big = sample_paths(cov, 4, 40_000, seed=1)
        gram = big.T @ big / big.shape[0]
        assert np.abs(gram - np.eye(4)).max() < 5 * 1.5 / math.sqrt(big.shape[0])

    def test_deterministic_for_fixed_seed(self):
        cov = CovarianceFunction.fgn(0.7)
        a = sample_paths(cov, 33, 2049, seed=99)
        b = sample_paths(cov, 33, 2049, seed=99)
        assert np.array_equal(a, b)

    def test_thread_count_does_not_change_output(self):
        cov = CovarianceFunction.fgn(0.3)
        a = sample_paths(cov, 17, 3000, seed=5, threads=1)
        b = sample_paths(cov, 17, 3000, seed=5, threads=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode, cov", [
        ("circulant", CovarianceFunction.fgn(0.7))])
    def test_chunked_blocks_match_whole_block_draws(self, mode, cov):
        n, M = 300, BLOCK_SIZE + 37
        sampler = PathSampler(cov, n)
        assert sampler.mode == mode
        # a full block is several row chunks, the last one partial
        assert BLOCK_SIZE % (CHUNK_NORMALS // (2 * n)) != 0
        width = sampler.normals_per_replica
        want = []
        for block, _, count in replica_blocks(M):
            # rows are transformed in pairs: the odd last block is drawn
            # with one more row, whose path is dropped
            rows = count + count % 2
            paths = sampler.transform(block_normals(6, 3, block, rows, width))
            want.append(paths[:count])
        want = np.concatenate(want)
        assert M % 2
        for threads in (1, 2, 4):
            got = sample_paths(cov, n, M, seed=6, threads=threads, stream=3)
            assert np.array_equal(got, want)

    def test_chunks_of_a_block_share_one_output_buffer(self):
        # the circulant route transforms every chunk of a block into one
        # pair of work arrays, so a chunk is overwritten by the next one
        n = 300
        sampler = PathSampler(CovarianceFunction.fgn(0.7), n)
        chunks = list(sampler.sample_chunks(6, 3, 0, BLOCK_SIZE))
        assert len(chunks) > 2
        first, last = chunks[0][1], chunks[-1][1]
        assert np.shares_memory(first, last)
        width = sampler.normals_per_replica
        whole = sampler.transform(block_normals(6, 3, 0, BLOCK_SIZE, width))
        lo = chunks[-1][0]
        assert np.array_equal(last, whole[lo:lo + len(last)])

    def test_chunks_are_drawn_into_the_spectrum_work_array(self):
        # a block at n = 4096 holds 1 MiB of spectra and 0.5 MiB of paths;
        # a separate 1 MiB array of normals per chunk would show on top
        sampler = PathSampler(CovarianceFunction.fgn(0.7), 4096)
        tracemalloc.start()
        try:
            chunks = sum(1 for _ in sampler.sample_chunks(6, 3, 0,
                                                          BLOCK_SIZE))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chunks > 2
        assert peak < 2 * 2 ** 20

    def test_different_seeds_differ(self):
        cov = CovarianceFunction.fgn(0.7)
        a = sample_paths(cov, 8, 10, seed=1)
        b = sample_paths(cov, 8, 10, seed=2)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_empirical_covariance_matches_exact(self, H):
        cov = CovarianceFunction.fgn(H)
        n, M = 128, 10_000
        X = sample_paths(cov, n, M, seed=11)
        for k in range(9):
            prods = (X[:, : n - k] * X[:, k:]).mean(axis=1)
            se = mean_se(prods)
            assert abs(prods.mean() - cov(k)) < 5 * se, f"lag {k}"

    def test_path_length_one(self):
        cov = CovarianceFunction.fgn(0.7)
        X = sample_paths(cov, 1, 50_000, seed=3)
        assert abs(X.var() - 1.0) < 5 * sample_variance_se(X.ravel())

    @pytest.mark.parametrize("H,n", [(0.3, 1), (0.3, 7), (0.7, 16), (0.5, 5)])
    def test_transform_covariance_is_exact(self, H, n):
        # the sampler is linear in its white noise, and a pair of rows (4n
        # normals) makes two paths, so the transforms of the 4n unit
        # vectors give the exact output covariances: each path must have
        # the Toeplitz target to rounding error, not just in distribution,
        # and the two paths of a pair must be uncorrelated
        cov = CovarianceFunction.fgn(H)
        sampler = PathSampler(cov, n)
        width = sampler.normals_per_replica
        basis = np.eye(2 * width).reshape(4 * width, width)
        T = sampler.transform(basis).reshape(2 * width, 2, n)
        re, im = T[:, 0], T[:, 1]
        target = np.array([[cov(i - j) for j in range(n)] for i in range(n)])
        assert np.abs(re.T @ re - target).max() < 1e-12
        assert np.abs(im.T @ im - target).max() < 1e-12
        assert np.abs(re.T @ im).max() < 1e-12

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 4096])
    def test_transform_matches_reference_expression_bitwise(self, H, n):
        # rows 2j and 2j+1 as one complex white-noise vector of length
        # m = 2n, scaled by the full circulant spectrum and transformed
        # by one complex FFT: its real part is path 2j, its imaginary part
        # path 2j+1
        cov = CovarianceFunction.fgn(H)
        sampler = PathSampler(cov, n)
        assert sampler.mode == "circulant"
        m = 2 * n
        w = np.random.default_rng(n).standard_normal((4, m))
        pairs = np.concatenate([w[0::2], w[1::2]], axis=1)
        noise = pairs[:, 0::2] + 1j * pairs[:, 1::2]
        lam = toeplitz_module.circulant_eigenvalues(cov.lag_array(n + 1))
        lam = np.clip(np.concatenate([lam, lam[-2:0:-1]]), 0.0, None)
        x = np.fft.fft(noise * np.sqrt(lam / m), axis=1)[:, :n]
        want = np.empty((4, n))
        want[0::2], want[1::2] = x.real, x.imag
        assert np.array_equal(sampler.transform(w), want)

    def test_transform_rejects_a_lone_row(self):
        sampler = PathSampler(CovarianceFunction.fgn(0.7), 8)
        with pytest.raises(ValidationError, match="pairs"):
            sampler.transform(np.ones((3, 16)))

    @pytest.mark.parametrize("n", [1, 300, 5000])
    def test_first_replicas_do_not_depend_on_m_or_threads(self, n):
        # replica r is made from rows 2j and 2j+1 of its block, j =
        # (r % BLOCK_SIZE) // 2, however many replicas are drawn, in how
        # many threads and in which row chunks; an odd M draws the partner
        # row of its last replica and drops its path.  At n = 5000 a row
        # chunk holds CHUNK_NORMALS // (2n) = 13 rows, rounded down to 12.
        cov = CovarianceFunction.fgn(0.7)
        assert (CHUNK_NORMALS // (2 * 5000)) % 2
        want = sample_paths(cov, n, 2048, seed=4, threads=1)
        for M in (1, 2, 3, 1061, 1062, 2048):
            for threads in (1, 2, 4):
                got = sample_paths(cov, n, M, seed=4, threads=threads)
                assert np.array_equal(got, want[:M]), (M, threads)

    @pytest.mark.parametrize("cov, n", [
        # cos(0.37 k) is positive semidefinite (rank 2), and so is the
        # 2 x 2 covariance with rho(1) = 0.99, but their size-2n circulant
        # embeddings are not
        (CovarianceFunction(evaluator=lambda k: math.cos(0.37 * k)), 300),
        (CovarianceFunction(
            evaluator=lambda k: {0: 1.0, 1: 0.99, -1: 0.99}.get(k, 0.0)), 2)])
    def test_indefinite_circulant_embedding_is_rejected(self, cov, n):
        lags = cov.lag_array(n + 1)
        assert toeplitz_module.circulant_eigenvalues(lags).min() < -0.1
        assert np.linalg.eigvalsh(toeplitz(lags[:n]))[0] > -1e-12
        message = "circulant embedding .* eigenvalue -"
        with pytest.raises(NumericalError, match=message):
            PathSampler(cov, n)
        with pytest.raises(NumericalError, match=message):
            sample_paths(cov, n, 4, seed=0)

    def test_non_psd_covariance_reports_eigenvalue(self):
        cov = CovarianceFunction(
            evaluator=lambda k: {0: 1.0}.get(abs(k),
                                             0.9 if abs(k) == 1 else 0.0))
        with pytest.raises(NumericalError, match="eigenvalue"):
            sample_paths(cov, 3, 1, seed=0)

    @pytest.mark.parametrize("s", [1.0, 4.0 ** 7, 4.0 ** 10])
    def test_eigenvalue_clamp_is_relative_to_rho0(self, s):
        # s cos(2 pi 5 k / 512) is exactly PSD (rank 2); at n = 256 its
        # circulant embedding has rounding-level eigenvalues near -5e-14 s,
        # which an absolute clamp rejected from s ~ 1e4 on.  Scaling by a
        # power of 4 is exact in floating point, so the paths must scale by
        # exactly sqrt(s).
        def cosine(scale):
            return CovarianceFunction(
                evaluator=lambda k: scale * math.cos(
                    2 * math.pi * 5 * k / 512))

        assert PathSampler(cosine(s), 256).mode == "circulant"
        np.testing.assert_allclose(
            sample_paths(cosine(s), 256, 8, seed=3),
            math.sqrt(s) * sample_paths(cosine(1.0), 256, 8, seed=3),
            rtol=1e-12)

    def test_bad_arguments(self):
        cov = CovarianceFunction.fgn(0.5)
        with pytest.raises(ValidationError):
            sample_paths(cov, 0, 1, seed=0)
        with pytest.raises(ValidationError):
            sample_paths(cov, 4, 0, seed=0)


class TestToeplitzMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500])
    def test_matches_scipy_bitwise(self, n):
        row = np.random.default_rng(n).normal(size=n)
        got = toeplitz_module.matrix(row)
        assert np.array_equal(got, toeplitz(row))
        assert got.flags.c_contiguous and got.flags.writeable


class TestPowerVariation:
    def test_constant_paths(self):
        assert power_variation(np.array([1.0, 1.0, 1.0]), 2) == 1.0
        assert power_variation(np.array([1.0, -1.0]), 2) == 1.0
        assert power_variation(np.array([2.0]), 4) == 16.0

    @pytest.mark.parametrize("q", [1, 3, 0, -2])
    def test_rejects_bad_power(self, q):
        with pytest.raises(ValidationError):
            power_variation(np.array([1.0]), q)

    def test_rejects_empty_path(self):
        with pytest.raises(ValidationError):
            power_variation(np.array([]), 2)

    def test_mean_is_double_factorial(self):
        assert power_variation_mean(1.0, 2) == 1.0
        assert power_variation_mean(1.0, 4) == 3.0
        assert power_variation_mean(1.0, 6) == 15.0
        assert power_variation_mean(2.0, 2) == 2.0


class TestBreuerMajorStatistic:
    def test_single_point_zero(self):
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        assert breuer_major_statistic(CovarianceFunction.iid(),
                                      np.array([0.0]), coeffs) == -1.0

    @given(x=st.floats(-5, 5))
    def test_single_point_is_h2(self, x):
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        assert breuer_major_statistic(CovarianceFunction.iid(), np.array([x]),
                                      coeffs) == pytest.approx(
            x * x - 1.0, abs=1e-12)

    def test_mixed_orders_match_direct_sum(self):
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([0.5, 2.0]))
        path = np.array([1.0, -2.0, 0.3])
        x = path / 2.0
        expected = (0.5 * hermite_e_value(2, x).sum()
                    + 2.0 * hermite_e_value(4, x).sum()) / math.sqrt(3)
        assert breuer_major_statistic(CovarianceFunction.iid(4.0), path,
                                      coeffs) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_monte_carlo_mean_is_zero(self):
        cov = CovarianceFunction.fgn(0.7)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.25]))
        X = sample_paths(cov, 16, 100_000, seed=17)
        n = X.shape[1]
        x = X
        vals = (hermite_e_value(2, x).sum(axis=1)
                + 0.25 * hermite_e_value(4, x).sum(axis=1)) / math.sqrt(n)
        # same replicas through the library path, pointwise
        lib = np.array([breuer_major_statistic(cov, row, coeffs)
                        for row in X[:100]])
        ours = vals[:100]
        assert np.abs(lib - ours).max() < 1e-9
        assert abs(vals.mean()) < 5 * mean_se(vals)

    def test_variance_is_read_from_the_covariance(self):
        # the paths of this covariance have variance rho(0) = 2, and the
        # statistic standardizes them by it: its variance is
        # 2! * lambda_2^2 = 2, as E[F^2] of breuer_major_kernels says
        cov = CovarianceFunction(evaluator=lambda k: 2.0 if k == 0 else 0.0)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        X = sample_paths(cov, 4, 20_000, seed=29)
        stats = np.array([breuer_major_statistic(cov, row, coeffs)
                          for row in X])
        assert abs(stats.var() - 2.0) < 5 * sample_variance_se(stats)

    def test_coefficient_shape_validated(self):
        with pytest.raises(ValidationError):
            HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0]))
        with pytest.raises(ValidationError):
            HermiteEvenCoeffs(d=2, m=1, lambdas=np.array([]))


class TestExactVariance:
    def test_iid_quadratic(self):
        cov = CovarianceFunction.iid()
        assert exact_variance_power_variation(cov, 2, 10) == pytest.approx(0.2)

    def test_two_point_correlated(self):
        cov = CovarianceFunction(
            evaluator=lambda k: {0: 1.0, 1: 0.5, -1: 0.5}.get(k, 0.0))
        # direct covariance sum: (1/4) * sum 2 rho(i-j)^2 = (4 + 1) / 4
        assert exact_variance_power_variation(cov, 2, 2) == pytest.approx(1.25)

    def test_iid_quartic_single_point(self):
        # Var(Z**4) = E Z**8 - (E Z**4)**2 = 105 - 9
        cov = CovarianceFunction.iid()
        assert exact_variance_power_variation(cov, 4, 1) == pytest.approx(96.0)

    @pytest.mark.parametrize("H,q,n", [(0.3, 2, 6), (0.7, 2, 6),
                                       (0.3, 4, 5), (0.7, 4, 5)])
    def test_against_pair_moment_quadrature(self, H, q, n):
        cov = CovarianceFunction.fgn(H)
        oracle = variance_power_variation_quadrature(
            [cov(k) for k in range(n)], q)
        assert exact_variance_power_variation(cov, q, n) == pytest.approx(
            oracle, rel=1e-9)

    def test_scales_with_rho0(self):
        cov = CovarianceFunction.iid(variance=3.0)
        oracle = variance_power_variation_quadrature([3.0, 0.0, 0.0], 2)
        assert exact_variance_power_variation(cov, 2, 3) == pytest.approx(
            oracle, rel=1e-9)

    @pytest.mark.parametrize("H,q", [(0.3, 2), (0.7, 2), (0.3, 4), (0.7, 4)])
    def test_monte_carlo_agreement_n64(self, H, q):
        cov = CovarianceFunction.fgn(H)
        n, M = 64, 100_000
        X = sample_paths(cov, n, M, seed=23)
        qv = (X ** q).mean(axis=1)
        exact = exact_variance_power_variation(cov, q, n)
        assert abs(qv.var() - exact) < 5 * sample_variance_se(qv)


class TestHermiteMonomialCoeffs:
    @pytest.mark.parametrize("q,expected", [
        (2, [1.0, 1.0]),
        (4, [3.0, 6.0, 1.0]),
        (6, [15.0, 45.0, 15.0, 1.0]),
    ])
    def test_known_expansions(self, q, expected):
        assert hermite_monomial_coeffs(q).tolist() == expected

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_against_quadrature_oracle(self, q):
        coeffs = hermite_monomial_coeffs(q)
        for k in range(q // 2 + 1):
            assert coeffs[k] == pytest.approx(monomial_coeff_quadrature(q, k),
                                              rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_reconstructs_monomial(self, q):
        coeffs = hermite_monomial_coeffs(q)
        xs = np.linspace(-3.0, 3.0, 20)
        rebuilt = sum(c * hermite_e_value(2 * k, xs)
                      for k, c in enumerate(coeffs))
        assert np.abs(rebuilt - xs ** q).max() <= 1e-9

    def test_leading_coefficient_is_one(self):
        for q in (2, 4, 6, 8, 10, 12):
            assert hermite_monomial_coeffs(q)[-1] == 1.0

    def test_rejects_odd_and_oversized(self):
        with pytest.raises(ValidationError):
            hermite_monomial_coeffs(3)
        with pytest.raises(ValidationError):
            hermite_monomial_coeffs(34)


class TestCovarianceFunction:
    def test_requires_positive_rho0(self):
        with pytest.raises(ValidationError):
            CovarianceFunction(evaluator=lambda k: 0.0)

    def test_rho0_is_read_from_the_evaluator(self):
        cov = CovarianceFunction(evaluator=lambda k: 2.0 if k == 0 else 0.0)
        assert cov.rho0 == 2.0
        with pytest.raises(AttributeError):
            cov.rho0 = 1.0
        with pytest.raises(TypeError):
            CovarianceFunction(evaluator=cov.evaluator, rho0=1.0)

    @pytest.mark.parametrize("cov, want", [
        (CovarianceFunction(evaluator=lambda k: math.cos(0.37 * k)),
         [math.cos(0.37 * k) for k in range(50)]),
        (CovarianceFunction.iid(2.5), [2.5] + [0.0] * 49)])
    def test_scalar_only_evaluator_gives_its_own_lags(self, cov, want):
        assert cov.array_evaluator is None
        assert cov.lag_array(50).tolist() == want

    def test_lag_array(self):
        cov = CovarianceFunction.fgn(0.7)
        lags = cov.lag_array(4)
        assert lags[0] == 1.0
        assert lags[1] == pytest.approx(fgn_covariance(0.7, 1))
