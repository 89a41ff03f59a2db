import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import toeplitz

from chaosclt import kernels as kernels_module
from chaosclt import toeplitz as toeplitz_module
from chaosclt.bounds import chaos_sum_bound
from chaosclt.chaos import (ChaosSum, as_rank_one, kappa3_I2, kappa4_I2,
                            second_moment)
from chaosclt.errors import TOLERANCE, NumericalError, ValidationError
from chaosclt.kernels import (DENSE_ENTRY_GUARD, DenseKernel, Gram,
                              RankOneSumKernel, breuer_major_kernels,
                              contract, is_symmetric, kernel_from_json,
                              kernel_to_json, matrix_contraction_norm_squared,
                              matrix_cube_trace, rank_one_contraction_norm,
                              rank_one_mixed_inner, rank_one_norm_squared,
                              term_scale)
from chaosclt.stationary import (CovarianceFunction, HermiteEvenCoeffs,
                                 PathSampler, exact_variance_power_variation)

from oracles import densify, inner, kappa4_I2_contraction, norm, symmetrize


def basis(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def random_rank_one(rng, order, dim, terms):
    return RankOneSumKernel(order=order,
                            coeffs=rng.uniform(-1, 1, size=terms),
                            vectors=rng.uniform(-1, 1, size=(terms, dim)))


def dense_contraction_norm(k, r):
    d = densify(k)
    return norm(contract(d, d, r))


class TestDenseKernel:
    def test_shapes_validated(self):
        with pytest.raises(ValidationError):
            DenseKernel(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            DenseKernel(np.array(1.0))

    def test_entry_guard(self):
        # order 9 at dim 10 would need 1e9 entries; the guard fires before
        # any allocation on the densify path
        assert 10 ** 9 > DENSE_ENTRY_GUARD
        k = RankOneSumKernel(order=9, coeffs=np.array([1.0]),
                             vectors=np.array([basis(10, 0)]))
        with pytest.raises(ValidationError, match="guard"):
            densify(k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_entries_rejected(self, order, bad):
        values = np.eye(2)[0] if order == 1 else np.eye(2)
        values[(0,) * order] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="^kernel entries must be finite$"):
                DenseKernel(values)


class TestSymmetrize:
    def test_two_index_swap(self):
        f = DenseKernel(np.outer(basis(2, 0), basis(2, 1)))
        s = symmetrize(f).values
        expected = 0.5 * (np.outer(basis(2, 0), basis(2, 1))
                          + np.outer(basis(2, 1), basis(2, 0)))
        assert np.array_equal(s, expected)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        f = DenseKernel(rng.normal(size=(3, 3, 3)))
        once = symmetrize(f)
        twice = symmetrize(once)
        assert np.allclose(once.values, twice.values, atol=1e-15)
        assert is_symmetric(once)

    def test_order_three_enumerated(self):
        # e0 x e0 x e1: six permutations average to 1/3 on each of the three
        # distinct index arrangements
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = 1.0
        s = symmetrize(DenseKernel(t)).values
        expected = np.zeros((2, 2, 2))
        for perm in itertools.permutations((0, 0, 1)):
            expected[perm] = 1.0 / 3.0
        assert np.allclose(s, expected, atol=1e-15)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = DenseKernel(rng.normal(size=(3,) * rng.integers(2, 5)))
            assert norm(symmetrize(f)) <= norm(f) + 1e-12


class TestContract:
    def test_orthogonal_rank_ones_vanish(self):
        v = DenseKernel(np.outer(basis(2, 0), basis(2, 0)))
        w = DenseKernel(np.outer(basis(2, 1), basis(2, 1)))
        out = contract(v, w, 1)
        assert np.array_equal(out.values, np.zeros((2, 2)))

    def test_identity_matrix_product(self):
        I = DenseKernel(np.eye(2))
        assert np.array_equal(contract(I, I, 1).values, np.eye(2))

    def test_full_contraction_is_inner(self):
        I = DenseKernel(np.eye(2))
        assert contract(I, I, 2) == 2.0
        rng = np.random.default_rng(3)
        f = DenseKernel(rng.normal(size=(3, 3, 3)))
        assert contract(f, f, 3) == pytest.approx(inner(f, f), rel=1e-12)

    def test_zero_contraction_is_tensor_product(self):
        rng = np.random.default_rng(4)
        f = DenseKernel(rng.normal(size=(2, 2)))
        g = DenseKernel(rng.normal(size=(2,)))
        out = contract(f, g, 0)
        assert np.array_equal(out.values, np.multiply.outer(f.values, g.values))

    def test_index_order_f_free_first(self):
        rng = np.random.default_rng(5)
        f = DenseKernel(rng.normal(size=(3, 3)))
        g = DenseKernel(rng.normal(size=(3, 3, 3)))
        out = contract(f, g, 1).values
        expected = np.einsum("xa,xbc->abc", f.values, g.values)
        assert np.allclose(out, expected, atol=1e-14)

    def test_errors(self):
        f = DenseKernel(np.eye(2))
        g = DenseKernel(np.eye(3))
        with pytest.raises(ValidationError, match="dimension"):
            contract(f, g, 1)
        with pytest.raises(ValidationError, match="r="):
            contract(f, f, 3)


class TestInnerNorm:
    def test_orthogonal_basis_tensors(self):
        f = DenseKernel(np.outer(basis(2, 0), basis(2, 0)))
        g = DenseKernel(np.outer(basis(2, 1), basis(2, 1)))
        assert inner(f, g) == 0.0

    def test_identity_norm(self):
        assert norm(DenseKernel(np.eye(2))) == pytest.approx(math.sqrt(2.0))

    def test_symmetrize_is_self_adjoint(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            f = DenseKernel(rng.normal(size=(3, 3, 3)))
            g = DenseKernel(rng.normal(size=(3, 3, 3)))
            lhs = inner(f, symmetrize(g))
            rhs = inner(symmetrize(f), g)
            both = inner(symmetrize(f), symmetrize(g))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            assert lhs == pytest.approx(both, rel=1e-10, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            inner(DenseKernel(np.eye(2)), DenseKernel(np.zeros(2)))


class TestContractionNormIdentity:
    def test_cross_contraction_norm_equals_mixed_inner(self):
        # || f (x)_r g ||^2 = <f (x)_{p-r} f, g (x)_{q-r} g> for 1 <= r < min(p,q)
        # and symmetric f, g
        rng = np.random.default_rng(7)
        for p, q in [(2, 2), (2, 3), (3, 3), (3, 4)]:
            f = symmetrize(DenseKernel(rng.normal(size=(3,) * p)))
            g = symmetrize(DenseKernel(rng.normal(size=(3,) * q)))
            for r in range(1, min(p, q)):
                lhs = norm(contract(f, g, r)) ** 2
                ff = contract(f, f, p - r)
                gg = contract(g, g, q - r)
                rhs = inner(ff, gg)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestRankOneClosedForms:
    def test_single_unit_term(self):
        v = np.array([0.6, 0.8])
        k = RankOneSumKernel(order=2, coeffs=np.array([1.0]),
                             vectors=v[None, :])
        assert rank_one_contraction_norm(k, 1) == pytest.approx(1.0, rel=1e-12)

    def test_two_orthonormal_terms(self):
        k = RankOneSumKernel(order=2, coeffs=np.array([1.0, 1.0]),
                             vectors=np.eye(2))
        # densified: identity matrix; I (x)_1 I = I, norm sqrt(2)
        assert rank_one_contraction_norm(k, 1) == pytest.approx(
            dense_contraction_norm(k, 1), rel=1e-12)
        assert rank_one_contraction_norm(k, 1) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("order,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_random_instances_match_dense(self, order, r):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = random_rank_one(rng, order, dim=3, terms=4)
            assert rank_one_contraction_norm(k, r) == pytest.approx(
                dense_contraction_norm(k, r), abs=1e-10)

    def test_norm_squared_matches_dense(self):
        rng = np.random.default_rng(9)
        for order in (1, 2, 3):
            k = random_rank_one(rng, order, dim=4, terms=3)
            d = densify(k)
            assert rank_one_norm_squared(k) == pytest.approx(inner(d, d),
                                                             rel=1e-10)

    def test_contraction_r_out_of_range(self):
        k = random_rank_one(np.random.default_rng(0), 2, 3, 2)
        with pytest.raises(ValidationError):
            rank_one_contraction_norm(k, 0)
        with pytest.raises(ValidationError):
            rank_one_contraction_norm(k, 2)

    def test_stationary_flag_matches_general_path(self):
        # Toeplitz gram from an fGn square root
        cov = CovarianceFunction.fgn(0.7)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
        slow_kernels = []
        for k in breuer_major_kernels(cov, 12, coeffs):
            slow_kernels.append(
                RankOneSumKernel(order=k.order, coeffs=k.coeffs,
                                 vectors=k.vectors))
        fast_kernels = breuer_major_kernels(cov, 12, coeffs)
        for fast, slow in zip(fast_kernels, slow_kernels):
            for r in (1, fast.order - 1):
                assert rank_one_contraction_norm(fast, r) == pytest.approx(
                    rank_one_contraction_norm(slow, r), rel=1e-10)
        assert rank_one_mixed_inner(fast_kernels[0], fast_kernels[1]) == \
            pytest.approx(rank_one_mixed_inner(slow_kernels[0], slow_kernels[1]),
                          rel=1e-10)


class TestRankOneMixedInner:
    def test_vector_versus_its_square(self):
        v = np.array([1.0, 0.0])
        kp = RankOneSumKernel(order=1, coeffs=np.array([1.0]), vectors=v[None, :])
        kq = RankOneSumKernel(order=2, coeffs=np.array([1.0]), vectors=v[None, :])
        # dense oracle: <v (x) v, v (x)_1 v RHS> = <v x v, v x v> = 1
        dp, dq = densify(kp), densify(kq)
        oracle = inner(contract(dp, dp, 0), contract(dq, dq, 1))
        assert oracle == pytest.approx(1.0)
        assert rank_one_mixed_inner(kp, kq) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_supports_vanish(self):
        kp = RankOneSumKernel(order=1, coeffs=np.array([1.0]),
                              vectors=basis(2, 0)[None, :])
        kq = RankOneSumKernel(order=2, coeffs=np.array([1.0]),
                              vectors=basis(2, 1)[None, :])
        assert rank_one_mixed_inner(kp, kq) == 0.0

    @pytest.mark.parametrize("p,q", [(1, 2), (2, 4), (1, 3), (2, 3)])
    def test_random_instances_match_dense(self, p, q):
        rng = np.random.default_rng(10)
        for _ in range(10):
            kp = random_rank_one(rng, p, dim=3, terms=3)
            kq = random_rank_one(rng, q, dim=3, terms=3)
            dp, dq = densify(kp), densify(kq)
            oracle = inner(contract(dp, dp, 0), contract(dq, dq, q - p))
            assert rank_one_mixed_inner(kp, kq) == pytest.approx(oracle,
                                                                 abs=1e-10)

    def test_requires_strictly_larger_order(self):
        rng = np.random.default_rng(11)
        k = random_rank_one(rng, 2, 3, 2)
        with pytest.raises(ValidationError):
            rank_one_mixed_inner(k, k)


class TestBreuerMajorKernels:
    def test_single_point_unit_kernel(self):
        cov = CovarianceFunction.iid()
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (k,) = breuer_major_kernels(cov, 1, coeffs)
        assert k.order == 2
        assert k.terms == 1
        assert np.linalg.norm(k.vectors[0]) == pytest.approx(1.0)
        assert rank_one_norm_squared(k) == pytest.approx(1.0)

    def test_iid_second_order_norm_is_one(self):
        cov = CovarianceFunction.iid()
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        for n in (1, 4, 9):
            (k,) = breuer_major_kernels(cov, n, coeffs)
            assert rank_one_norm_squared(k) == pytest.approx(1.0, rel=1e-12)

    def test_isometry_reproduces_covariance_sum_variance(self):
        # both sides computed independently: Gram-matrix norms on one side,
        # covariance double sums on the other (monomial coefficients)
        from chaosclt.hermite import hermite_monomial_coeffs
        cov = CovarianceFunction.fgn(0.7)
        q, n = 4, 16
        mono = hermite_monomial_coeffs(q)
        coeffs = HermiteEvenCoeffs(d=1, m=q // 2, lambdas=mono[1:])
        kernels = breuer_major_kernels(cov, n, coeffs)
        isometry = sum(math.factorial(k.order) * rank_one_norm_squared(k)
                       for k in kernels)
        covariance_sum = n * exact_variance_power_variation(cov, q, n)
        assert isometry == pytest.approx(covariance_sum, rel=1e-10)

    def test_gram_is_standardized_covariance(self):
        from chaosclt.stationary import fgn_covariance
        cov = CovarianceFunction(
            evaluator=lambda k: 4.0 * fgn_covariance(0.7, k))
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (k,) = breuer_major_kernels(cov, 6, coeffs)
        expected = np.array([[fgn_covariance(0.7, i - j) for j in range(6)]
                             for i in range(6)])
        assert np.allclose(k.gram, expected, atol=1e-12)
        assert np.allclose(k.vectors @ k.vectors.T, expected, atol=1e-10)

    def test_rejects_non_psd_covariance(self):
        cov = CovarianceFunction(
            evaluator=lambda k: {0: 1.0, 1: 0.9, -1: 0.9}.get(k, 0.0))
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        with pytest.raises(NumericalError, match="positive semidefinite"):
            breuer_major_kernels(cov, 3, coeffs)


    def test_variance_is_read_from_the_covariance(self):
        # rho(0) = 2 and no correlation: the kernels see the correlation,
        # whose diagonal is 1, and E[F^2] is the statistic's variance 2
        cov = CovarianceFunction(evaluator=lambda k: 2.0 if k == 0 else 0.0)
        assert cov.rho0 == 2.0
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (k,) = breuer_major_kernels(cov, 4, coeffs)
        assert np.array_equal(k.gram[0], [1.0, 0.0, 0.0, 0.0])
        assert second_moment(ChaosSum({2: k})) == 2.0


class TestCovarianceQuadrupleSums:
    """The closed-form contraction quantities of the stationary kernels
    reduce to explicit covariance quadruple sums; brute-force those."""

    def test_self_contraction_norm_is_quadruple_sum(self):
        # f = (1/sqrt n) sum_i eps_i^(x 2):  ||f (x)_1 f||^2 =
        # (1/n^2) sum rho(k1-k2) rho(k3-k4) rho(k1-k3) rho(k2-k4)
        H, n = 0.7, 10
        cov = CovarianceFunction.fgn(H)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (f2,) = breuer_major_kernels(cov, n, coeffs)
        value = rank_one_contraction_norm(f2, 1) ** 2
        brute = 0.0
        for k1 in range(n):
            for k2 in range(n):
                for k3 in range(n):
                    for k4 in range(n):
                        brute += (cov(k1 - k2) * cov(k3 - k4)
                                  * cov(k1 - k3) * cov(k2 - k4))
        assert value == pytest.approx(brute / n ** 2, rel=1e-10)

    def test_mixed_inner_is_quadruple_sum(self):
        # <f_2 (x) f_2, f_4 (x)_2 f_4> = (lam2^2 lam4^2 / n^2) *
        # sum rho(k1-k3)^2 rho(k2-k4)^2 rho(k3-k4)^2
        H, n = 0.7, 8
        lam2, lam4 = 0.75, -0.4
        cov = CovarianceFunction.fgn(H)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([lam2, lam4]))
        f2, f4 = breuer_major_kernels(cov, n, coeffs)
        value = rank_one_mixed_inner(f2, f4)
        brute = 0.0
        for k1 in range(n):
            for k2 in range(n):
                for k3 in range(n):
                    for k4 in range(n):
                        brute += (cov(k1 - k3) ** 2 * cov(k2 - k4) ** 2
                                  * cov(k3 - k4) ** 2)
        expected = lam2 ** 2 * lam4 ** 2 * brute / n ** 2
        assert value == pytest.approx(expected, rel=1e-10)


class TestSerialization:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(12)
        f = DenseKernel(rng.normal(size=(3, 3)))
        back = kernel_from_json(kernel_to_json(f))
        assert isinstance(back, DenseKernel)
        assert np.array_equal(back.values, f.values)

    def test_rank_one_round_trip(self):
        rng = np.random.default_rng(13)
        k = random_rank_one(rng, 3, dim=4, terms=2)
        back = kernel_from_json(kernel_to_json(k))
        assert isinstance(back, RankOneSumKernel)
        assert back.order == 3
        assert np.array_equal(back.coeffs, k.coeffs)
        assert np.array_equal(back.vectors, k.vectors)

    def test_parse_errors_carry_location(self):
        with pytest.raises(ValidationError, match="kernel"):
            kernel_from_json({"representation": "dense"})
        with pytest.raises(ValidationError, match=r"terms\[1\]"):
            kernel_from_json({
                "representation": "rank_one_sum", "order": 2, "dim": 2,
                "terms": [{"coeff": 1.0, "vector": [1.0, 0.0]},
                          {"coeff": 1.0, "vector": [1.0]}],
            })
        with pytest.raises(ValidationError, match="unknown representation"):
            kernel_from_json({"representation": "sparse", "order": 1, "dim": 1})
        with pytest.raises(ValidationError, match="entries"):
            kernel_from_json({"representation": "dense", "order": 2, "dim": 2,
                              "values": [1.0, 2.0]})

    @pytest.mark.parametrize("data, message", [
        pytest.param({"representation": "dense", "order": 1e400, "dim": 2,
                      "values": [1.0, 2.0]}, "k: order must be an integer",
                     id="infinite-order"),
        pytest.param({"representation": "dense", "order": 100, "dim": 1,
                      "values": [1.0]}, "guard", id="dense-order-above-64"),
        pytest.param({"representation": "rank_one_sum", "order": 171, "dim": 1,
                      "terms": [{"coeff": 1.0, "vector": [1.0]}]},
                     "k: order must be >= 1 and below 171", id="order-above-170"),
        pytest.param({"representation": "dense", "order": 2, "dim": 2,
                      "values": [1, "a", 0, 1]}, "k: values must hold numbers",
                     id="string-entry"),
        pytest.param({"representation": "dense", "order": 1, "dim": 2,
                      "values": [1.0, float("nan")]}, "k: values must be finite",
                     id="nan-entry"),
        pytest.param({"representation": "rank_one_sum", "order": 2, "dim": 1,
                      "terms": [{"coeff": 1e400, "vector": [1.0]}]},
                     r"k\.terms\[0\]: coeff must be finite", id="infinite-coeff"),
        pytest.param({"representation": "rank_one_sum", "order": 2, "dim": 1,
                      "terms": [{"coeff": [1.0], "vector": [1.0]}]},
                     r"k\.terms\[0\]: coeff has shape", id="list-coeff"),
        pytest.param({"representation": "rank_one_sum", "order": 2, "dim": 2,
                      "terms": [{"coeff": 1.0, "vector": [1.0, None]}]},
                     r"k\.terms\[0\]: vector must hold numbers", id="null-entry"),
        pytest.param({"representation": "dense", "order": 2, "dim": 2,
                      "values": [[1.0, 0.0], [0.0, 1.0]]},
                     "k: values must hold numbers", id="nested-values"),
        pytest.param({"representation": "rank_one_sum", "order": 1, "dim": 1,
                      "terms": [{"coeff": 10 ** 400, "vector": [1.0]}]},
                     r"k\.terms\[0\]: coeff must be finite",
                     id="integer-beyond-float"),
    ])
    def test_malformed_numbers_are_rejected(self, data, message):
        with pytest.raises(ValidationError, match=message):
            kernel_from_json(data, where="k")


class TestToeplitzProduct:
    # 65 .. 257 put the last streamed row in a partial block, on a block
    # edge and after an odd middle row
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 129, 130, 131, 257,
                                   500])
    def test_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        alpha, beta = rng.normal(size=n), rng.normal(size=n)
        for x, y in [(alpha, beta), (alpha, alpha.copy())]:
            expected = float(np.vdot(toeplitz(x) @ toeplitz(y),
                                     toeplitz(y) @ toeplitz(x)))
            got = toeplitz_module.product_trace(x, y)
            scale = float(np.abs(x).sum() * np.abs(y).sum()) ** 2
            assert got == pytest.approx(expected, rel=0.0,
                                        abs=1e-13 * n * scale)

    # with no budget every block has the floor's 8 rows, which unpatched
    # blocks reach only from n ~ 3300 on: the last streamed row ends a
    # block (65, 130, 257) or starts one (131)
    @pytest.mark.parametrize("n", [65, 130, 131, 257])
    def test_matches_dense_product_in_floor_sized_blocks(self, n,
                                                         monkeypatch):
        monkeypatch.setattr(toeplitz_module, "_TRACE_BUDGET", 0)
        self.test_matches_dense_product(n)


class TestToeplitzContractionRoute:
    @pytest.fixture
    def trace_calls(self, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append(alpha.size)
            return product_trace(alpha, beta)

        product_trace = toeplitz_module.product_trace
        monkeypatch.setattr(toeplitz_module, "product_trace", counted)
        return calls

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_matches_dense_route(self, H, trace_calls):
        # the same kernels on explicit vectors take the dense route
        coeffs = HermiteEvenCoeffs(d=1, m=3, lambdas=np.array([1.0, 0.5, -0.3]))
        for fast in breuer_major_kernels(CovarianceFunction.fgn(H), 256, coeffs):
            dense = RankOneSumKernel(order=fast.order, coeffs=fast.coeffs,
                                     vectors=fast.vectors)
            expected = [rank_one_contraction_norm(dense, r)
                        for r in range(1, fast.order)]
            assert trace_calls == []
            for r in range(1, fast.order):
                got = rank_one_contraction_norm(fast, r)
                assert trace_calls == [256]
                del trace_calls[:]
                assert got == pytest.approx(expected[r - 1], rel=1e-10)

    def test_unequal_coefficients_take_dense_route(self, trace_calls):
        gram = Gram(row=np.array([1.0, 0.5, 0.25]))
        k = RankOneSumKernel.from_gram(2, np.array([1.0, 2.0, 1.0]), gram)
        expected = dense_contraction_norm(k, 1)
        assert rank_one_contraction_norm(k, 1) == pytest.approx(expected,
                                                                rel=1e-12)
        assert trace_calls == []


class TestContractionNormMirror:
    @pytest.mark.parametrize("n", [1, 2, 129, 256])
    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_r_and_p_minus_r_agree_bitwise(self, H, n):
        # ||f (x)_r f|| = ||f (x)_(p-r) f||: the streamed trace is symmetric
        # in its two rows to the bit, so chaos_sum_bound, which evaluates
        # only r <= p/2, moves no output on this route
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, -0.5]))
        _, f4 = breuer_major_kernels(CovarianceFunction.fgn(H), n, coeffs)
        assert f4.order == 4
        assert (rank_one_contraction_norm(f4, 1)
                == rank_one_contraction_norm(f4, 3))


class TestOrthonormalGram:
    """Closed forms on the eigen-form of g = V^T diag(a) V (V orthogonal),
    whose Gram is built by Gram.eigenvectors (exactly the identity),
    against the dense contraction calculus."""

    @staticmethod
    def kernel(dim, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = rng.normal(size=dim)
        return as_rank_one(DenseKernel((q * a) @ q.T)), a

    @pytest.mark.parametrize("order, dim", [(2, 40)])
    def test_contraction_norms_match_dense(self, order, dim):
        k, _ = self.kernel(dim, seed=order)
        assert k.orthonormal_terms
        expected = [dense_contraction_norm(k, r) for r in range(1, order)]
        got = [rank_one_contraction_norm(k, r) for r in range(1, order)]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_contraction_norm_reads_no_gram(self, monkeypatch):
        k, a = self.kernel(40, seed=5)

        def refuse(self):
            raise AssertionError("the Gram matrix was read")

        monkeypatch.setattr(RankOneSumKernel, "gram", property(refuse))
        assert rank_one_contraction_norm(k, 1) == pytest.approx(
            math.sqrt(np.sum(a ** 4)), rel=1e-14)

    def test_only_orthonormal_construction_is_known(self):
        k, _ = self.kernel(4, seed=6)
        for gram in (Gram(matrix=np.eye(4)), Gram(vectors=np.eye(4)),
                     Gram(row=np.array([1.0, 0.0, 0.0, 0.0]))):
            assert not gram.is_orthonormal
        same = RankOneSumKernel.from_gram(2, k.coeffs, Gram(matrix=k.gram))
        assert not same.orthonormal_terms
        assert rank_one_contraction_norm(same, 1) == pytest.approx(
            rank_one_contraction_norm(k, 1), rel=1e-14)


def symmetric_with_spectrum(eigenvalues, seed):
    """An exactly symmetric U diag(eigenvalues) U^T for a random
    orthogonal U."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    g = (q * np.asarray(eigenvalues, dtype=float)) @ q.T
    return (g + g.T) / 2.0


class TestEigenFormMatrixRoute:
    """The closed forms read the matrix of a dense order-2 kernel's
    eigen-form, never its eigenpairs, and agree with the dense calculus."""

    SPECTRA = {
        "dim-1": [-0.7],
        "rank-deficient": [2.0, -1.0, 0.5, 0.0, 0.0, 0.0],
        "negative-definite": [-1.0, -2.0, -0.5, -3.0, -0.25],
        "repeated": [1.5, 1.5, 1.5, -0.5, -0.5, 2.0],
    }

    @pytest.mark.parametrize("name", list(SPECTRA))
    def test_matches_dense_oracles(self, name, monkeypatch):
        spectrum = self.SPECTRA[name]
        g = DenseKernel(symmetric_with_spectrum(spectrum, seed=len(name)))
        f = DenseKernel(np.random.default_rng(1).normal(size=g.dim))
        kg, kf = as_rank_one(g), as_rank_one(f)
        gg = contract(g, g, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on a matrix route")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert rank_one_norm_squared(kg) == pytest.approx(inner(g, g),
                                                          rel=1e-12)
        assert term_scale(kg) == pytest.approx(norm(g), rel=1e-12)
        assert rank_one_contraction_norm(kg, 1) == pytest.approx(norm(gg),
                                                                 rel=1e-12)
        assert rank_one_mixed_inner(kf, kg) == pytest.approx(
            inner(contract(f, f, 0), gg), rel=1e-12)
        assert kappa3_I2(kg) == pytest.approx(8.0 * inner(gg, g), rel=1e-12)
        assert kappa4_I2(kg) == pytest.approx(kappa4_I2_contraction(g),
                                              rel=1e-12)
        assert kappa3_I2(kg) == pytest.approx(
            8.0 * sum(x ** 3 for x in spectrum), rel=1e-12)


def full_is_symmetric(g):
    """The order-2 symmetry check on whole matrices: |g^T - g| against
    TOLERANCE times the largest |entry|."""
    return bool(np.abs(g.T - g).max() <= TOLERANCE * np.abs(g).max())


@pytest.fixture(params=[None, 0, 1000], ids=["default", "one-row", "small"])
def panel_budget(request, monkeypatch):
    """kernels.PANEL_FLOATS as it ships, at 0 (one-row panels) and at a
    small value."""
    if request.param is not None:
        monkeypatch.setattr(kernels_module, "PANEL_FLOATS", request.param)
    return request.param


class TestDensePanels:
    """The order-2 symmetry check and the closed forms that multiply a
    dense g by itself run over row panels; they agree with whole-matrix
    evaluations at every panel size, across panel edges."""

    DIMS = [1, 2, 127, 128, 129, 300]

    @staticmethod
    def entries(n):
        """Off-diagonal entries (i, j), i > j: j the last row of the first
        panel and i the first row of the second, (1, 0) (inside the first
        panel when it has two rows or more) and the far corner (n - 1, 0)."""
        starts = [lo for lo, _, _ in kernels_module._row_panels(n)]
        edge = [(starts[1], starts[1] - 1)] if len(starts) > 1 else []
        return edge + [(1, 0), (n - 1, 0)] if n > 1 else []

    @pytest.mark.parametrize("dim", DIMS)
    def test_asymmetry_at_a_panel_edge_matches_full_check(self, dim,
                                                          panel_budget):
        rng = np.random.default_rng(dim)
        a = rng.uniform(-1.0, 1.0, size=(dim, dim))
        g = (a + a.T) / 2.0
        g[0, 0] = 2.0  # the largest entry, off every tested entry
        assert is_symmetric(DenseKernel(g)) and full_is_symmetric(g)
        for (i, j), factor in itertools.product(self.entries(dim),
                                                [0.999, 1.001]):
            expected = factor < 1.0
            for entry in [(i, j), (j, i)]:
                h = g.copy()
                h[entry] += factor * TOLERANCE * 2.0
                assert full_is_symmetric(h) is expected
                assert is_symmetric(DenseKernel(h)) is expected

    @pytest.mark.parametrize("dim", DIMS)
    def test_closed_forms_match_whole_products(self, dim, panel_budget):
        rng = np.random.default_rng(100 + dim)
        a = rng.normal(size=(dim, dim))
        g = (a + a.T) / 2.0
        gg = g @ g.T
        expected = np.vdot(gg, gg)
        assert matrix_contraction_norm_squared(g) == pytest.approx(
            expected, rel=1e-13)
        assert kappa4_I2(DenseKernel(g)) == pytest.approx(48.0 * expected,
                                                          rel=1e-13)
        assert matrix_cube_trace(g) == pytest.approx(np.vdot(g @ g, g),
                                                     rel=1e-13)
        assert kappa3_I2(DenseKernel(g)) == pytest.approx(
            8.0 * np.vdot(g @ g, g), rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 9, 127, 128, 300, 1024])
    def test_panels_cover_the_rows_within_the_budget(self, dim, panel_budget):
        panels = [(lo, hi) for lo, hi, _ in kernels_module._row_panels(dim)]
        assert [lo for lo, _ in panels] == [0] + [hi for _, hi in panels[:-1]]
        assert panels[-1][1] == dim
        rows = panels[0][1]
        budget = kernels_module.PANEL_FLOATS
        assert rows == 1 or (rows * dim <= budget and 8 * rows <= dim)


class TestToeplitzClosedForms:
    """rank_one_norm_squared and rank_one_mixed_inner on equal-coefficient
    kernels over one Gram built from its first row, against the dense
    route."""

    COEFFS = HermiteEvenCoeffs(d=1, m=3, lambdas=np.array([1.0, 0.5, -0.3]))

    @pytest.fixture
    def rows_read(self, monkeypatch):
        # the Toeplitz rows the closed forms were handed; the dense route
        # reads none (or only a None)
        rows = []
        read = Gram.toeplitz_row.fget

        def spy(gram):
            row = read(gram)
            if row is not None:
                rows.append(row.size)
            return row

        monkeypatch.setattr(Gram, "toeplitz_row", property(spy))
        return rows

    @staticmethod
    def explicit(kernels):
        # each kernel on its own explicit vectors: the dense route, with no
        # shared Gram
        return [RankOneSumKernel(order=k.order, coeffs=k.coeffs,
                                 vectors=k.vectors) for k in kernels]

    @pytest.mark.parametrize("n", [1, 2, 3, 256])
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_match_dense_route(self, H, n, rows_read):
        fast = breuer_major_kernels(CovarianceFunction.fgn(H), n, self.COEFFS)
        assert [k.order for k in fast] == [2, 4, 6]
        dense = self.explicit(fast)
        norms = [rank_one_norm_squared(k) for k in dense]
        mixed = {(i, j): rank_one_mixed_inner(dense[i], dense[j])
                 for i in range(3) for j in range(i + 1, 3)}
        assert rows_read == []
        for k, expected in zip(fast, norms):
            assert rank_one_norm_squared(k) == pytest.approx(expected,
                                                             rel=1e-10)
        for (i, j), expected in mixed.items():
            assert rank_one_mixed_inner(fast[i], fast[j]) == pytest.approx(
                expected, rel=1e-10)
        assert rows_read and set(rows_read) == {n}

    @staticmethod
    def gram_sum(k):
        # <k, k> = sum_ij a_i a_j G_ij**order, from the whole Gram
        return float(k.coeffs @ k.gram ** k.order @ k.coeffs)

    def test_unequal_coefficients_take_dense_route(self, rows_read):
        gram = Gram(row=np.array([1.0, 0.5, 0.25]))
        k2 = RankOneSumKernel.from_gram(2, np.array([1.0, 2.0, 1.0]), gram)
        k4 = RankOneSumKernel.from_gram(4, np.array([0.5, 0.5, 0.5]), gram)
        assert rank_one_norm_squared(k2) == pytest.approx(
            self.gram_sum(k2), rel=1e-12)
        assert rank_one_mixed_inner(k2, k4) == pytest.approx(
            inner(contract(densify(k2), densify(k2), 0),
                  contract(densify(k4), densify(k4), 2)), rel=1e-10)
        assert rows_read == []

    def test_non_toeplitz_gram_takes_dense_route(self, rows_read):
        # equal coefficients on a Gram whose first row does not determine it
        gram = Gram(matrix=np.array([[1.0, 0.5, 0.25],
                                     [0.5, 2.0, 0.5],
                                     [0.25, 0.5, 1.0]]))
        k2 = RankOneSumKernel.from_gram(2, np.full(3, 0.7), gram)
        k4 = RankOneSumKernel.from_gram(4, np.full(3, -0.4), gram)
        assert gram.toeplitz_row is None
        assert rank_one_norm_squared(k4) == pytest.approx(
            self.gram_sum(k4), rel=1e-12)
        assert rank_one_mixed_inner(k2, k4) == pytest.approx(
            inner(contract(densify(k2), densify(k2), 0),
                  contract(densify(k4), densify(k4), 2)), rel=1e-10)
        assert rows_read == []

    def test_kernels_on_different_grams_take_dense_route(self, rows_read):
        # k2's Gram is exactly the identity, but the cross Gram of the two
        # kernels is a random orthogonal matrix
        rng = np.random.default_rng(4)
        k2 = RankOneSumKernel(order=2, coeffs=np.full(3, 0.6),
                              vectors=np.eye(3))
        k4 = RankOneSumKernel(order=4, coeffs=np.full(3, 0.6),
                              vectors=np.linalg.qr(rng.normal(size=(3, 3)))[0])
        assert np.array_equal(k2.gram, np.eye(3))
        expected = inner(contract(densify(k2), densify(k2), 0),
                         contract(densify(k4), densify(k4), 2))
        assert rank_one_mixed_inner(k2, k4) == pytest.approx(expected,
                                                             rel=1e-10)
        assert rows_read == []


class TestStationaryFlagIsVerified:
    def test_flag_on_non_toeplitz_kernel_changes_nothing(self):
        # a non-Toeplitz Gram flagged stationary used to take the Toeplitz
        # route unchecked and report 19.41 instead of 12.22
        vectors = np.random.default_rng(1).normal(size=(3, 4))
        norms = []
        for flag in (True, False):
            k = kernel_from_json({
                "representation": "rank_one_sum", "order": 2, "dim": 4,
                "stationary": flag,
                "terms": [{"coeff": c, "vector": v.tolist()}
                          for c, v in zip([1.0, 2.0, -0.5], vectors)]})
            norms.append(rank_one_contraction_norm(k, 1))
        assert norms[0] == norms[1]
        assert norms[0] == pytest.approx(dense_contraction_norm(k, 1),
                                         rel=1e-12)
        assert norms[0] == pytest.approx(12.2212785, rel=1e-8)


class TestSquaredNormGuard:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_cancelling_terms_give_exact_zero(self, order):
        v = np.array([0.6, -0.8, 0.3])
        k = RankOneSumKernel(order=order, coeffs=np.array([1.0, -1.0]),
                             vectors=np.array([v, v]))
        for r in range(1, order):
            assert rank_one_contraction_norm(k, r) == 0.0

    def test_negative_beyond_tolerance_raises(self):
        # an indefinite "Gram" is no Gram of real vectors: here
        # tr((M B)^2) = -1 for M = diag(1, -1) G diag(1, -1) and B = G
        gram = Gram(matrix=np.array([[1.0, 1.0], [1.0, 0.0]]))
        k = RankOneSumKernel.from_gram(2, np.array([1.0, -1.0]), gram)
        with pytest.raises(NumericalError, match="contraction norm"):
            rank_one_contraction_norm(k, 1)

    def test_tolerance_scales_down_with_coefficients(self):
        # the same indefinite case at coefficients 1e-6 gives -1e-24, far
        # below an absolute tolerance but as wrong relative to the kernel
        gram = Gram(matrix=np.array([[1.0, 1.0], [1.0, 0.0]]))
        k = RankOneSumKernel.from_gram(2, 1e-6 * np.array([1.0, -1.0]), gram)
        with pytest.raises(NumericalError, match="contraction norm"):
            rank_one_contraction_norm(k, 1)

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
    def test_zero_kernel_at_large_coefficients_is_zero(self, c):
        # c sum_i e_i e_i^T - c sum_i u_i u_i^T = c (I - Q Q^T) = 0, with
        # rounding noise of order c^4 in the squared norm
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((6, 6)))
        k = RankOneSumKernel(order=2, coeffs=np.r_[np.full(6, c),
                                                    np.full(6, -c)],
                             vectors=np.vstack([np.eye(6), q.T]))
        assert rank_one_contraction_norm(k, 1) <= 1e-12 * c ** 2

    def test_term_scale_reads_the_gram_diagonal(self):
        rng = np.random.default_rng(3)
        k = random_rank_one(rng, 3, 4, 5)
        expected = sum(abs(a) * np.linalg.norm(v) ** 3
                       for a, v in zip(k.coeffs, k.vectors))
        assert term_scale(k) == pytest.approx(expected, rel=1e-12)
        gram_only = RankOneSumKernel.from_gram(3, k.coeffs, Gram(matrix=k.gram))
        assert term_scale(gram_only) == pytest.approx(expected, rel=1e-12)
        assert gram_only._gram._vectors is None


class TestGramKernels:
    def test_gram_only_kernel_factors_on_first_read(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(mat):
            calls.append(mat.shape)
            return eigh(mat)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        cov = CovarianceFunction.fgn(0.3)
        coeffs = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))
        f2, f4 = breuer_major_kernels(cov, 16, coeffs)
        assert calls == []
        assert f2.dim == 16 and f2.shares_gram(f4)
        assert np.allclose(f4.vectors @ f4.vectors.T, f2.gram, atol=1e-12)
        assert f2.vectors is f4.vectors
        assert calls == [(16, 16)]

    def test_shared_gram_mixed_inner_matches_explicit_vectors(self):
        cov = CovarianceFunction.fgn(0.7)
        coeffs = HermiteEvenCoeffs(d=1, m=3, lambdas=np.array([1.0, 0.5, 2.0]))
        ks = breuer_major_kernels(cov, 40, coeffs)
        explicit = [RankOneSumKernel(order=k.order, coeffs=k.coeffs,
                                     vectors=k.vectors) for k in ks]
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert rank_one_mixed_inner(ks[i], ks[j]) == pytest.approx(
                rank_one_mixed_inner(explicit[i], explicit[j]), rel=1e-10)

    def test_json_round_trip_of_gram_only_kernel(self):
        cov = CovarianceFunction.fgn(0.7)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (k,) = breuer_major_kernels(cov, 8, coeffs)
        back = kernel_from_json(kernel_to_json(k))
        assert back.dim == 8
        assert np.array_equal(back.vectors, k.vectors)
        assert rank_one_contraction_norm(back, 1) == pytest.approx(
            rank_one_contraction_norm(k, 1), rel=1e-10)

    def test_term_count_must_match_gram(self):
        with pytest.raises(ValidationError, match="term vectors"):
            RankOneSumKernel.from_gram(2, np.ones(3), Gram(matrix=np.eye(2)))


class TestRowBuiltGram:
    """A Gram built from its first row gives the numbers of the same Gram
    built from the matrix of that row, which takes the dense routes."""

    COEFFS = HermiteEvenCoeffs(d=1, m=2, lambdas=np.array([1.0, 0.5]))

    @pytest.mark.parametrize("n", [1, 2, 3, 256])
    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    def test_matches_matrix_built_gram_exactly(self, H, n):
        by_row = breuer_major_kernels(CovarianceFunction.fgn(H), n,
                                      self.COEFFS)
        row = by_row[0]._gram.toeplitz_row
        gram = Gram(matrix=toeplitz(row))
        by_matrix = [RankOneSumKernel.from_gram(k.order, k.coeffs, gram)
                     for k in by_row]
        sums = [ChaosSum({k.order: k for k in ks})
                for ks in (by_row, by_matrix)]
        fast, slow = (chaos_sum_bound(F) for F in sums)
        assert fast.terms.keys() == slow.terms.keys()
        for label, value in slow.terms.items():
            assert fast.terms[label] == pytest.approx(value, rel=1e-12)
        assert fast.normalization == pytest.approx(slow.normalization,
                                                   rel=1e-12)
        assert second_moment(sums[0]) == pytest.approx(second_moment(sums[1]),
                                                       rel=1e-12)
        for fast, slow in zip(by_row, by_matrix):
            assert term_scale(fast) == term_scale(slow)
        # only the row-built Gram knows its row, and it formed no matrix
        assert gram.toeplitz_row is None
        assert by_row[0]._gram._matrix is None
        for fast, slow in zip(by_row, by_matrix):
            assert np.array_equal(fast.vectors, slow.vectors)
            assert kernel_to_json(fast) == kernel_to_json(slow)
        assert np.array_equal(by_row[0].gram, gram.matrix)

    def test_needs_exactly_one_source(self):
        row = np.array([1.0, 0.5])
        for sources in ({}, {"row": row, "matrix": toeplitz(row)},
                        {"row": row, "vectors": np.eye(2)}):
            with pytest.raises(ValidationError, match="exactly one"):
                Gram(**sources)

    def test_diagonal_needs_no_matrix(self):
        gram = Gram(row=np.array([2.0, 0.5, 0.25]))
        assert np.array_equal(gram.diagonal, np.full(3, 2.0))
        assert gram._matrix is None
        assert gram.terms == gram.dim == 3


class TestPositiveSemidefiniteCertificate:
    def test_certificate_needs_no_eigenvalues(self, monkeypatch):
        def refuse(mat):
            raise AssertionError("eigenvalues computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        for H in (0.3, 0.7):
            (k,) = breuer_major_kernels(CovarianceFunction.fgn(H), 64, coeffs)
            assert k.gram.shape == (64, 64)

    def test_failed_certificate_falls_back_to_exact_check(self, monkeypatch):
        # the size-6 circulant embedding has eigenvalue 1 - 1.2 = -0.2, but
        # the 3 x 3 tridiagonal Toeplitz matrix itself has smallest
        # eigenvalue 1 - 1.2 cos(pi/4) = 0.151, so it is accepted
        rho = {0: 1.0, 1: 0.6, -1: 0.6}
        cov = CovarianceFunction(evaluator=lambda k: rho.get(k, 0.0))
        lags = cov.lag_array(4)
        assert toeplitz_module.circulant_eigenvalues(lags).min() == \
            pytest.approx(-0.2)
        assert np.linalg.eigvalsh(toeplitz(lags[:3]))[0] == pytest.approx(
            1.0 - 1.2 * math.cos(math.pi / 4.0))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(mat):
            calls.append(mat.shape)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        (k,) = breuer_major_kernels(cov, 3, coeffs)
        assert calls == [(3, 3)]
        assert np.array_equal(k.gram, toeplitz([1.0, 0.6, 0.0]))

    def test_sampler_and_kernels_reject_alike(self):
        # one decision in toeplitz.certify_psd: an indefinite covariance is
        # a NumericalError (CLI exit 2) on both routes, with one message
        rho = {0: 1.0, 1: 0.9, -1: 0.9}
        cov = CovarianceFunction(evaluator=lambda k: rho.get(k, 0.0))
        coeffs = HermiteEvenCoeffs(d=1, m=1, lambdas=np.array([1.0]))
        with pytest.raises(NumericalError) as sampler:
            PathSampler(cov, 3)
        with pytest.raises(NumericalError) as kernels:
            breuer_major_kernels(cov, 3, coeffs)
        message = str(sampler.value)
        assert message == str(kernels.value)
        assert "positive semidefinite" in message
        assert "eigenvalue" in message
