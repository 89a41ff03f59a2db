import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import toeplitz as scipy_toeplitz

from chaosclt import chaos as chaos_module
from chaosclt import kernels as kernels_module
from chaosclt import toeplitz as toeplitz_module
from chaosclt.chaos import (ChaosSum, SecondChaosSpectrum, _eigen_terms,
                            _eval_block, _unit_terms, as_rank_one, hermite,
                            kappa3_I2, kappa4_I2, sample, sample_batch,
                            second_moment)
from chaosclt.bounds import chaos_sum_bound, phi
from chaosclt.errors import UnsupportedRepresentationError, ValidationError
from chaosclt.experiments import BoundConfig, run_bound_report
from chaosclt.kernels import (DenseKernel, RankOneSumKernel,
                              breuer_major_kernels, contract, kernel_to_json)
from chaosclt.stationary import CovarianceFunction, HermiteEvenCoeffs
from chaosclt.streams import (BLOCK_SIZE, CHUNK_NORMALS, block_normals,
                              replica_blocks)

from oracles import (densify, hermite_e_value, inner, kappa4_I2_contraction,
                     mean_se, reconstruct, sample_variance_se, symmetrize)


def basis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def random_symmetric_order2(rng, dim):
    a = rng.normal(size=(dim, dim))
    return DenseKernel((a + a.T) / 2.0)


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 3.7) == 1.0
        assert hermite(1, 3.7) == 3.7
        assert hermite(2, 0.0) == -1.0
        # explicit polynomial oracle: H4(x) = x^4 - 6x^2 + 3
        assert hermite(4, 1.0) == -2.0

    @pytest.mark.parametrize("q", range(9))
    def test_matches_hermite_e_basis(self, q):
        xs = np.linspace(-4, 4, 17)
        assert np.allclose(hermite(q, xs), hermite_e_value(q, xs),
                           rtol=1e-12, atol=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValidationError):
            hermite(-1, 0.0)

    def test_array_shape_preserved(self):
        out = hermite(3, np.zeros((2, 5)))
        assert out.shape == (2, 5)

    @pytest.mark.parametrize("q", range(9))
    def test_input_untouched_and_not_aliased(self, q):
        x = np.linspace(-2, 2, 12).reshape(3, 4)
        before = x.copy()
        out = hermite(q, x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(out, x)


class TestChaosSumConstruction:
    def test_requires_a_kernel(self):
        with pytest.raises(ValidationError):
            ChaosSum({})

    def test_orders_and_delta(self):
        F = ChaosSum({1: DenseKernel(basis(2, 0)),
                      2: DenseKernel(np.eye(2))})
        assert F.orders == [1, 2]
        assert F.d == 1 and F.N == 2 and F.delta_dn == 1
        single = ChaosSum({2: DenseKernel(np.eye(2))})
        assert single.delta_dn == 0

    def test_rejects_dense_high_order(self):
        with pytest.raises(UnsupportedRepresentationError):
            ChaosSum({3: DenseKernel(np.zeros((2, 2, 2)))})

    def test_rejects_asymmetric_order2(self):
        with pytest.raises(ValidationError, match="symmetric"):
            ChaosSum({2: DenseKernel(np.array([[0.0, 1.0], [0.0, 0.0]]))})

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValidationError, match="dimension"):
            ChaosSum({1: DenseKernel(basis(2, 0)),
                      2: DenseKernel(np.eye(3))})

    def test_dense_kernels_stored_as_rank_one_sums(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=3)
        g = random_symmetric_order2(rng, 3)
        F = ChaosSum({1: DenseKernel(f), 2: g})
        assert all(isinstance(k, RankOneSumKernel) for k in F.kernels.values())
        assert np.allclose(densify(F.kernels[1]).values, f, atol=1e-12)
        assert np.allclose(densify(F.kernels[2]).values, g.values, atol=1e-12)

    def test_order_key_must_match_kernel(self):
        with pytest.raises(ValidationError):
            ChaosSum({2: DenseKernel(basis(2, 0))})


class TestSample:
    def test_linear_form(self):
        F = ChaosSum({1: DenseKernel(basis(3, 0))})
        assert sample(F, np.array([1.5, -2.0, 0.3])) == 1.5

    def test_second_order_single_direction(self):
        F = ChaosSum({2: DenseKernel(np.eye(1))})
        assert sample(F, np.array([2.0])) == pytest.approx(3.0, abs=1e-12)

    def test_fourth_order_rank_one(self):
        k = RankOneSumKernel(order=4, coeffs=np.array([1.0]),
                             vectors=np.array([[1.0]]))
        F = ChaosSum({4: k})
        assert sample(F, np.array([1.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_rank_one_matches_hermite_identity(self):
        # a * ||v||^p * H_p(<v,z>/||v||) for a general vector
        rng = np.random.default_rng(0)
        v = rng.normal(size=4)
        a = 0.7
        k = RankOneSumKernel(order=3, coeffs=np.array([a]), vectors=v[None, :])
        F = ChaosSum({3: k})
        z = rng.normal(size=4)
        nv = np.linalg.norm(v)
        expected = a * nv ** 3 * hermite_e_value(3, float(v @ z) / nv)
        assert sample(F, z) == pytest.approx(expected, rel=1e-12)

    def test_zero_vector_term_contributes_nothing(self):
        k = RankOneSumKernel(order=2, coeffs=np.array([5.0, 1.0]),
                             vectors=np.array([[0.0, 0.0], [1.0, 0.0]]))
        F = ChaosSum({2: k})
        assert sample(F, np.array([2.0, 0.0])) == pytest.approx(3.0, abs=1e-12)

    def test_dimension_validated(self):
        F = ChaosSum({1: DenseKernel(basis(2, 0))})
        with pytest.raises(ValidationError):
            sample(F, np.zeros(3))

    def test_dense_and_spectral_sampling_agree_with_quadratic_form(self):
        rng = np.random.default_rng(1)
        g = random_symmetric_order2(rng, 5)
        F = ChaosSum({2: g})
        for _ in range(10):
            z = rng.normal(size=5)
            expected = float(z @ g.values @ z) - float(np.trace(g.values))
            assert sample(F, z) == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_dense_and_rank_one_order2_sample_identically(self):
        # both routes evaluate z^t K z - tr(K) for the same kernel matrix
        rng = np.random.default_rng(2)
        k = RankOneSumKernel(order=2, coeffs=rng.normal(size=3),
                             vectors=rng.normal(size=(3, 4)))
        F_rank = ChaosSum({2: k})
        F_dense = ChaosSum({2: densify(k)})
        for _ in range(10):
            z = rng.normal(size=4)
            assert sample(F_rank, z) == pytest.approx(sample(F_dense, z),
                                                      rel=1e-10, abs=1e-10)


class TestProductFormulaOrderOne:
    def test_deterministic_identity(self):
        # I1(f) I1(g) = I2(sym(f x g)) + <f, g> pointwise in z
        rng = np.random.default_rng(2)
        for _ in range(25):
            dim = int(rng.integers(1, 8))
            f = rng.normal(size=dim)
            g = rng.normal(size=dim)
            Ff = ChaosSum({1: DenseKernel(f)})
            Fg = ChaosSum({1: DenseKernel(g)})
            mixed = ChaosSum({2: symmetrize(DenseKernel(np.outer(f, g)))})
            for _ in range(5):
                z = rng.normal(size=dim)
                lhs = sample(Ff, z) * sample(Fg, z)
                rhs = sample(mixed, z) + float(f @ g)
                assert abs(lhs - rhs) <= 1e-9


class TestSampleBatch:
    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(3)
        g = random_symmetric_order2(rng, 4)
        F = ChaosSum({2: g})
        a = sample_batch(F, 2500, seed=7)
        b = sample_batch(F, 2500, seed=7, threads=3)
        assert np.array_equal(a, b)
        c = sample_batch(F, 2500, seed=8)
        assert not np.allclose(a, c)

    def test_batch_matches_pointwise_sampling(self):
        rng = np.random.default_rng(4)
        k = RankOneSumKernel(order=3, coeffs=rng.normal(size=2),
                             vectors=rng.normal(size=(2, 3)))
        F = ChaosSum({1: DenseKernel(rng.normal(size=3)), 3: k})
        batch = sample_batch(F, 50, seed=11)
        Z = block_normals(11, 0, 0, 50, 3)
        pointwise = np.array([sample(F, z) for z in Z])
        assert np.allclose(batch, pointwise, atol=1e-12)

    def test_centered_second_chaos(self):
        rng = np.random.default_rng(5)
        g = random_symmetric_order2(rng, 4)
        F = ChaosSum({2: g})
        out = sample_batch(F, 200_000, seed=13)
        assert abs(out.mean()) < 5 * mean_se(out)
        expected_var = 2.0 * inner(g, g)
        assert abs(out.var() - expected_var) < 5 * sample_variance_se(out)


def eigen_form_sum(rng, dim, orders):
    """A sum over orders (a subset of {1, 2}) with dense kernels, which
    ChaosSum stores in eigen-form."""
    kernels = {2: random_symmetric_order2(rng, dim)}
    if 1 in orders:
        kernels[1] = DenseKernel(rng.normal(size=dim))
    return ChaosSum(kernels)


class TestEigenFormSampling:
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_eigen_form_gram_is_exact_identity(self, dim):
        F = eigen_form_sum(np.random.default_rng(dim), dim, (2,))
        assert np.array_equal(F.kernels[2].gram, np.eye(dim))

    def test_sampling_and_moments_form_no_identity(self, monkeypatch):
        # the eigen-form's Gram is the identity by construction; only a
        # read of the matrix itself forms it (2 MiB at dim 512)
        F = eigen_form_sum(np.random.default_rng(3), 64, (1, 2))
        g = F.kernels[2]

        def refuse(*args, **kwargs):
            raise AssertionError("an identity matrix was formed")

        with monkeypatch.context() as patch:
            patch.setattr(np, "eye", refuse)
            sample_batch(F, 10, seed=1)
            second_moment(F)
            kappa3_I2(g)
            kappa4_I2(g)
        assert np.array_equal(g.gram, np.eye(64))

    def test_peak_memory_is_one_row_chunk(self):
        # eigen-form blocks are drawn in row chunks into one work array
        # per worker (1 MiB at dim 512); a whole-block draw holds 4 MiB
        F = eigen_form_sum(np.random.default_rng(15), 512, (1, 2))
        assert _eigen_terms(F) is not None
        tracemalloc.start()
        try:
            sample_batch(F, 2 * BLOCK_SIZE, seed=3, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    @pytest.mark.parametrize("orders", [(1, 2), (2,)])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_replica_is_sample_at_rotated_normals(self, dim, orders):
        # replica r reads its normals xi as eigen-coordinates: it is F at
        # the Gaussian vector V^T xi
        F = eigen_form_sum(np.random.default_rng(dim), dim, orders)
        M = BLOCK_SIZE + 37  # one full block and a partial last one
        batch = sample_batch(F, M, seed=5, stream=2)
        xi = np.concatenate([block_normals(5, 2, block, count, dim)
                             for block, _, count in replica_blocks(M)])
        V = F.kernels[2].vectors
        expected = np.array([sample(F, V.T @ row) for row in xi])
        assert np.abs(batch - expected).max() <= (
            1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("orders", [(1, 2), (2,)])
    def test_thread_count_invariant(self, orders):
        # dim 16 is the narrowest row for which threads 2 and 4 start a pool
        # (streams.block_threads)
        F = eigen_form_sum(np.random.default_rng(10), 16, orders)
        runs = [sample_batch(F, 3 * BLOCK_SIZE + 5, seed=9, threads=threads)
                for threads in (1, 2, 4)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("route", ["eigen", "unit"])
    def test_blocks_match_whole_block_evaluation(self, route):
        # dim 600 spans several row chunks (streams.row_chunks) with a
        # partial last one.  Every chunk is drawn into the leading rows of
        # a work array of a full block's first chunk and evaluated at that
        # array's shape, so the BLAS products of the unit-term route see
        # the same shapes for every chunk; the rows past the chunk's do
        # not change its bits, and zeros stand in for them here.  With
        # more blocks than workers, the partial last block is drawn into a
        # full-size work array that earlier blocks used
        dim = 600
        rows = CHUNK_NORMALS // dim
        assert BLOCK_SIZE % rows != 0
        rng = np.random.default_rng(12)
        F = self.route_sum(rng, dim, route)
        terms = _eigen_terms(F) or _unit_terms(F)
        assert (terms[0][1] is None) == (route == "eigen")

        def evaluate(Z):
            padded = np.zeros((rows, dim))
            padded[:len(Z)] = Z
            return _eval_block(terms, padded)[:len(Z)]

        for M in (BLOCK_SIZE + 37, 3 * BLOCK_SIZE + 37):
            want = np.concatenate([
                evaluate(Z[lo:lo + rows])
                for block, _, count in replica_blocks(M)
                for Z in [block_normals(2, 1, block, count, dim)]
                for lo in range(0, count, rows)])
            for threads in (1, 2, 3, 4):
                got = sample_batch(F, M, seed=2, threads=threads, stream=1)
                assert np.array_equal(got, want)

    @staticmethod
    def route_sum(rng, dim, route):
        """A sum that sample_batch draws on the eigen or the unit-term
        route."""
        if route == "eigen":
            return eigen_form_sum(rng, dim, (1, 2))
        return ChaosSum({2: RankOneSumKernel(
            order=2, coeffs=rng.normal(size=6),
            vectors=rng.normal(size=(6, dim)))})

    @pytest.mark.parametrize("route, dim", [("eigen", 512), ("unit", 600)])
    def test_work_arrays_are_lent_per_worker(self, route, dim, monkeypatch):
        # every block draws into a work array allocated once per call for
        # its worker, not into one of its own; the wrapper keeps each
        # array alive, so no id is reused for a new array
        F = self.route_sum(np.random.default_rng(16), dim, route)
        assert (_eigen_terms(F) is not None) == (route == "eigen")
        bases = []
        draw = chaos_module.block_normals

        def keep_base(*args, out=None, **kwargs):
            bases.append(out if out.base is None else out.base)
            return draw(*args, out=out, **kwargs)

        monkeypatch.setattr(chaos_module, "block_normals", keep_base)
        sample_batch(F, 4 * BLOCK_SIZE, seed=5, threads=2)
        assert 1 <= len({id(base) for base in bases}) <= 2

    def test_replicas_do_not_depend_on_the_block_row_count(self):
        # a replica's bits depend only on its row of normals: the eigen
        # route evaluates row by row, and the unit-term route evaluates
        # every chunk at one fixed shape, so the partial block of M
        # replicas holds the bits of a full block's first rows, for any
        # thread count.  dim 16 is one chunk a block and starts a pool;
        # 512 and 600 are several, 600 with a partial last one
        for route in ("eigen", "unit"):
            for dim in (16, 512, 600):
                F = self.route_sum(np.random.default_rng(13), dim, route)
                assert (_eigen_terms(F) is not None) == (route == "eigen")
                full = sample_batch(F, 4 * BLOCK_SIZE, seed=6)
                for M in (1, 37, BLOCK_SIZE, 3 * BLOCK_SIZE + 37):
                    for threads in (1, 2, 3, 4):
                        short = sample_batch(F, M, seed=6, threads=threads)
                        assert np.array_equal(short, full[:M]), (
                            route, dim, M, threads)

    def test_replica_matches_sample_at_rotated_normals_closely(self):
        F = eigen_form_sum(np.random.default_rng(14), 600, (1, 2))
        batch = sample_batch(F, 50, seed=8)
        V = F.kernels[2].vectors
        expected = np.array([sample(F, V.T @ xi)
                             for xi in block_normals(8, 0, 0, 50, 600)])
        assert np.abs(batch - expected).max() <= (
            1e-12 * np.abs(expected).max())

    def test_non_orthonormal_sum_samples_pointwise(self):
        # as many terms as dimensions, but not orthonormal: each replica is
        # F at its own row of normals
        rng = np.random.default_rng(11)
        k = RankOneSumKernel(order=2, coeffs=rng.normal(size=5),
                             vectors=rng.normal(size=(5, 5)))
        F = ChaosSum({1: DenseKernel(rng.normal(size=5)), 2: k})
        batch = sample_batch(F, 40, seed=4)
        pointwise = np.array([sample(F, z)
                              for z in block_normals(4, 0, 0, 40, 5)])
        assert np.abs(batch - pointwise).max() <= (
            1e-12 * np.abs(pointwise).max())


class TestBreuerMajorSampling:
    def test_shared_gram_is_factored_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(mat):
            calls.append(mat.shape)
            return eigh(mat)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
        ks = breuer_major_kernels(CovarianceFunction.fgn(0.7), 24, coeffs)
        F = ChaosSum({k.order: k for k in ks})
        x = sample_batch(F, 300, seed=3, threads=2)
        assert calls == [(24, 24)]
        explicit = ChaosSum({k.order: RankOneSumKernel(
            order=k.order, coeffs=k.coeffs, vectors=k.vectors) for k in ks})
        assert np.array_equal(x, sample_batch(explicit, 300, seed=3))


class TestSecondMoment:
    def test_unit_vector(self):
        assert second_moment(ChaosSum({1: DenseKernel(basis(2, 0))})) == 1.0

    def test_single_second_order(self):
        assert second_moment(ChaosSum({2: DenseKernel(np.eye(1))})) == 2.0

    def test_mixed_orders(self):
        a, b = 0.7, -1.2
        F = ChaosSum({1: DenseKernel(basis(2, 0)),
                      2: DenseKernel(np.diag([a, b]))})
        assert second_moment(F) == pytest.approx(1.0 + 2.0 * (a * a + b * b),
                                                 rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(6)
        k = RankOneSumKernel(order=4, coeffs=rng.normal(size=3) / 4.0,
                             vectors=rng.normal(size=(3, 5)))
        F = ChaosSum({1: DenseKernel(rng.normal(size=5)), 4: k})
        out = sample_batch(F, 200_000, seed=19)
        assert abs(out.var() - second_moment(F)) < 5 * sample_variance_se(out)


class TestCumulants:
    def test_single_eigenvalue(self):
        g = DenseKernel(np.array([[1.0]]))
        # chi-square(1) - 1 has kappa3 = 8 and kappa4 = 48 (raw normal moments)
        assert kappa3_I2(g) == pytest.approx(8.0)
        assert kappa4_I2(g) == pytest.approx(48.0)

    def test_symmetric_spectrum_kills_kappa3(self):
        g = DenseKernel(np.diag([1.0, -1.0]))
        assert kappa3_I2(g) == pytest.approx(0.0, abs=1e-12)
        assert kappa4_I2(g) == pytest.approx(96.0)

    def test_zero_kernel(self):
        g = DenseKernel(np.zeros((3, 3)))
        assert kappa3_I2(g) == 0.0
        assert kappa4_I2(g) == 0.0
        assert kappa4_I2_contraction(g) == 0.0

    def test_rejects_asymmetric(self):
        g = DenseKernel(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError):
            kappa4_I2(g)
        with pytest.raises(ValidationError):
            kappa4_I2_contraction(g)

    def test_rank_one_representation_agrees_with_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            k = RankOneSumKernel(order=2, coeffs=rng.normal(size=3),
                                 vectors=rng.normal(size=(3, 4)))
            d = densify(k)
            assert kappa3_I2(k) == pytest.approx(kappa3_I2(d), rel=1e-9,
                                                 abs=1e-10)
            assert kappa4_I2(k) == pytest.approx(kappa4_I2(d), rel=1e-9,
                                                 abs=1e-10)
            assert kappa4_I2_contraction(k) == pytest.approx(
                kappa4_I2_contraction(d), rel=1e-9, abs=1e-10)

    def test_contraction_identity_and_bracket(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_symmetric_order2(rng, int(rng.integers(2, 9)))
            spectral = kappa4_I2(g)
            contraction = kappa4_I2_contraction(g)
            assert abs(spectral - contraction) <= 1e-9 * max(1.0, abs(spectral))
            c1 = inner(contract(g, g, 1), contract(g, g, 1))
            assert 16.0 * c1 - 1e-9 <= spectral <= 48.0 * c1 + 1e-9

    def test_eigen_form_matches_dense_contractions(self, monkeypatch):
        # a dense order-2 kernel's eigen-form sits on an orthonormal Gram,
        # and its power sums are those of the eigenvalues, read without
        # the Gram matrix
        g = random_symmetric_order2(np.random.default_rng(9), 40)
        c = contract(g, g, 1)
        tr3 = inner(c, g)
        tr4 = inner(c, c)
        k = as_rank_one(g)
        assert k.orthonormal_terms

        def refuse(self):
            raise AssertionError("the Gram matrix was read")

        monkeypatch.setattr(RankOneSumKernel, "gram", property(refuse))
        assert kappa3_I2(k) == pytest.approx(8.0 * tr3, rel=1e-11)
        assert kappa4_I2(k) == pytest.approx(48.0 * tr4, rel=1e-12)
        assert kappa4_I2(k) == pytest.approx(kappa4_I2_contraction(g),
                                             rel=1e-12)

    def test_monte_carlo_kappa4(self):
        g = DenseKernel(np.diag([1.0, 0.5]))
        F = ChaosSum({2: g})
        out = sample_batch(F, 400_000, seed=29)
        centered = out - out.mean()
        m2 = (centered ** 2).mean()
        m4 = (centered ** 4).mean()
        k4_hat = m4 - 3 * m2 ** 2
        # rough large-sample error scale for the fourth cumulant
        se = np.sqrt(((centered ** 4 - m4) ** 2).mean() / out.size) * 3
        assert abs(k4_hat - kappa4_I2(g)) < 5 * se

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_breuer_major_kappa4_needs_no_matrix(self, H, monkeypatch):
        # f_2 = (lam / sqrt(n)) sum_i eps_i (x) eps_i has the nonzero
        # spectrum of (lam / sqrt(n)) T(rho), so kappa_4 = 48 sum mu^4 for
        # the eigenvalues mu of that matrix; the closed form reads only its
        # first row
        n, lam = 256, 1.5
        cov = CovarianceFunction.fgn(H)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([lam]))
        (k,) = breuer_major_kernels(cov, n, coeffs)
        mu = lam / math.sqrt(n) * np.linalg.eigvalsh(
            scipy_toeplitz(cov.lag_array(n)))
        expected = 48.0 * float(np.sum(mu ** 4))

        def refuse(row):
            raise AssertionError("the Toeplitz matrix was formed")

        monkeypatch.setattr(toeplitz_module, "matrix", refuse)
        assert kappa4_I2(k) == pytest.approx(expected, rel=1e-12)


class TestHermiteOrthogonality:
    @pytest.mark.parametrize("corr", [0.0, 0.4, -0.8])
    def test_sample_covariance_matches_power_law(self, corr):
        rng = np.random.default_rng(31)
        M = 100_000
        x = rng.standard_normal(M)
        y = corr * x + math.sqrt(1.0 - corr * corr) * rng.standard_normal(M)
        for p in range(1, 5):
            hp = hermite(p, x)
            for q in range(1, 5):
                hq = hermite(q, y)
                prods = hp * hq
                expected = math.factorial(p) * corr ** p if p == q else 0.0
                se = mean_se(prods)
                assert abs(prods.mean() - expected) < 5 * se, (p, q, corr)


class TestSecondChaosSpectrum:
    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        g = random_symmetric_order2(rng, 6)
        spec = SecondChaosSpectrum.from_kernel(g)
        assert np.abs(reconstruct(spec) - g.values).max() < 1e-10

    def test_tiny_eigenvalues_kept(self):
        g = DenseKernel(np.diag([1.0, 1e-14]))
        spec = SecondChaosSpectrum.from_kernel(g)
        assert spec.eigenvalues.size == 2


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes np.linalg.eigh is called on; eigvalsh refuses."""
    calls = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kwargs):
        calls.append(mat.shape)
        return eigh(mat, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    return calls


class TestLazySpectrum:
    """A dense order-2 kernel is decomposed only when it is sampled."""

    def test_bounds_and_cumulants_never_decompose(self, eigh_calls):
        rng = np.random.default_rng(21)
        f = DenseKernel(rng.normal(size=9))
        g = random_symmetric_order2(rng, 9)
        F = ChaosSum({1: f, 2: g})
        config = BoundConfig(inputs=[{"kernels": [kernel_to_json(f),
                                                  kernel_to_json(g)]}])
        table, _ = run_bound_report(config)
        report = chaos_sum_bound(F)
        assert table.rows[0]["total"] == report.total
        assert math.isfinite(phi(f, g))
        assert phi(F.kernels[1], F.kernels[2]) == table.rows[0]["phi"]
        assert second_moment(F) == report.normalization
        assert math.isfinite(kappa3_I2(g)) and math.isfinite(kappa4_I2(g))
        assert eigh_calls == []

    def test_report_evaluates_the_contraction_norm_once(self, eigh_calls,
                                                        monkeypatch):
        # the bound's max_contraction_norm and phi's kappa_4 read one
        # ||g g^T||_F^2, kept on the spectrum
        calls = []
        evaluate = kernels_module.matrix_contraction_norm_squared

        def counted(g):
            calls.append(g.shape)
            return evaluate(g)

        monkeypatch.setattr(kernels_module, "matrix_contraction_norm_squared",
                            counted)
        rng = np.random.default_rng(512)
        f = DenseKernel(rng.normal(size=512))
        g = random_symmetric_order2(rng, 512)
        table, _ = run_bound_report(BoundConfig(inputs=[{
            "kernels": [kernel_to_json(f), kernel_to_json(g)]}]))
        row = table.rows[0]
        assert calls == [(512, 512)]
        assert eigh_calls == []
        assert row["phi"] == pytest.approx(
            math.sqrt(48.0) * row["max_contraction_norm"] + row["mixed_inner"],
            rel=1e-14)

    def test_report_peak_memory_is_g_and_a_panel(self):
        # the parent of the row panels held |g|, g^T - g and g g^T beside
        # g (3 x g); a panel takes at most an eighth of g
        rng = np.random.default_rng(1024)
        f = DenseKernel(rng.normal(size=1024))
        g = random_symmetric_order2(rng, 1024)
        config = BoundConfig(inputs=[{"kernels": [kernel_to_json(f),
                                                  kernel_to_json(g)]}])
        tracemalloc.start()
        try:
            table, _ = run_bound_report(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(table.rows[0]["phi"])
        assert peak <= 1.25 * g.values.nbytes

    def test_two_batches_decompose_once(self, eigh_calls):
        F = eigen_form_sum(np.random.default_rng(22), 16, (1, 2))
        assert eigh_calls == []
        first = sample_batch(F, 300, seed=3)
        second = sample_batch(F, 300, seed=3, threads=2)
        assert eigh_calls == [(16, 16)]
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dim", [7, 600])
    def test_batch_is_the_eigen_coordinate_formula(self, dim, threads):
        # replica r is sum_i w_i (xi_i^2 - 1) + <U^T f, xi> for (w, U) =
        # np.linalg.eigh(g) and xi its row of block normals, bit for bit
        rng = np.random.default_rng(dim)
        f = rng.normal(size=dim)
        g = random_symmetric_order2(rng, dim)
        M = 3109
        batch = sample_batch(ChaosSum({1: DenseKernel(f), 2: g}), M,
                             seed=17, threads=threads)
        w, u = np.linalg.eigh(g.values)
        uf = u.T @ f
        expected = np.concatenate([
            np.einsum("ij,ij,j->i", xi, xi, w) - w.sum()
            + np.einsum("ij,j->i", xi, uf)
            for xi in (block_normals(17, 0, block, count, dim)
                       for block, _, count in replica_blocks(M))])
        assert np.array_equal(batch, expected)
