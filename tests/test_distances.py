import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from chaosclt.distances import EmpiricalSample, kolmogorov_distance, rate_fit
from chaosclt.errors import ValidationError


class TestKolmogorovDistance:
    def test_point_mass_at_zero(self):
        s = EmpiricalSample.from_data([0.0])
        assert kolmogorov_distance(s, 0.0, 1.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("M", [10, 100, 1000])
    def test_exact_normal_quantiles(self, M):
        # ECDF through the mid-probability quantiles: gap is exactly 0.5/M
        q = ndtri((np.arange(1, M + 1) - 0.5) / M)
        s = EmpiricalSample.from_data(q)
        assert kolmogorov_distance(s, 0.0, 1.0) == pytest.approx(0.5 / M,
                                                                 abs=1e-12)

    def test_iid_normal_draws_are_close(self):
        rng = np.random.default_rng(42)
        M = 10_000
        s = EmpiricalSample.from_data(rng.standard_normal(M))
        assert kolmogorov_distance(s, 0.0, 1.0) <= 2.0 / math.sqrt(M)

    def test_values_in_unit_interval(self):
        s = EmpiricalSample.from_data([1e9])
        d = kolmogorov_distance(s, 0.0, 1.0)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(1.0, abs=1e-12)

    @given(shift=st.floats(-3, 3), scale=st.floats(0.1, 10))
    def test_affine_invariance(self, shift, scale):
        rng = np.random.default_rng(0)
        base = rng.standard_normal(200)
        d0 = kolmogorov_distance(EmpiricalSample.from_data(base), 0.0, 1.0)
        moved = EmpiricalSample.from_data(scale * base + shift)
        d1 = kolmogorov_distance(moved, shift, scale * scale)
        assert d1 == pytest.approx(d0, abs=1e-12)

    def test_ties_use_full_jump(self):
        # five copies of 0: ECDF jumps 0 -> 1 at 0, gap 0.5 on both sides
        s = EmpiricalSample.from_data([0.0] * 5)
        assert kolmogorov_distance(s, 0.0, 1.0) == pytest.approx(0.5)

    def test_rejects_bad_variance_and_empty(self):
        s = EmpiricalSample.from_data([1.0])
        with pytest.raises(ValidationError):
            kolmogorov_distance(s, 0.0, 0.0)
        with pytest.raises(ValidationError):
            EmpiricalSample.from_data([])

    def test_left_gap_detected(self):
        # all mass far right of the reference law: gap approaches Phi(min)
        s = EmpiricalSample.from_data([5.0, 6.0])
        d = kolmogorov_distance(s, 0.0, 1.0)
        assert d == pytest.approx(float(ndtr(5.0)), abs=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 7, 16384])
    def test_matches_plain_expression_bitwise(self, M):
        # the in-place evaluation gives the bits of the textbook one and
        # leaves the sample as it was
        s = EmpiricalSample.from_data(
            np.random.default_rng(M).normal(0.3, 1.7, size=M))
        before = s.values.copy()
        cdf = ndtr((s.values - 0.2) / math.sqrt(2.5))
        hi = np.arange(1, M + 1) / M
        lo = np.arange(0, M) / M
        want = float(max((hi - cdf).max(), (cdf - lo).max()))
        assert kolmogorov_distance(s, 0.2, 2.5) == want
        assert np.array_equal(s.values, before)


class TestRateFit:
    def test_two_points(self):
        fit = rate_fit([(1, 1.0), (4, 0.5)])
        assert fit.slope == pytest.approx(-0.5)

    def test_exact_power_law(self):
        pts = [(n, 3.7 * n ** -0.2) for n in (16, 32, 64, 128, 256)]
        fit = rate_fit(pts)
        assert fit.slope == pytest.approx(-0.2, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_power_law_recovers_slope(self):
        rng = np.random.default_rng(1)
        true_slope = -0.45
        pts = [(n, math.exp(rng.normal(0, 0.01)) * n ** true_slope)
               for n in (64, 128, 256, 512, 1024, 2048)]
        fit = rate_fit(pts)
        assert abs(fit.slope - true_slope) < 0.02
        assert fit.residual < 0.02

    def test_errors(self):
        with pytest.raises(ValidationError):
            rate_fit([(1, 1.0)])
        with pytest.raises(ValidationError):
            rate_fit([(1, 1.0), (2, -0.5)])
        with pytest.raises(ValidationError):
            rate_fit([(0, 1.0), (2, 0.5)])

    def test_needs_two_distinct_n(self):
        # a repeated n is one point: a line through it is underdetermined
        with pytest.raises(ValidationError, match="distinct"):
            rate_fit([(256, 0.01), (256, 0.01)])
        fit = rate_fit([(16, 1.0), (16, 1.0), (64, 0.5)])
        assert fit.slope == pytest.approx(-0.5)


class TestEmpiricalSample:
    def test_sorts_input(self):
        s = EmpiricalSample.from_data([3.0, -1.0, 2.0])
        assert s.values.tolist() == [-1.0, 2.0, 3.0]
        assert s.size == 3

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            EmpiricalSample.from_data(np.zeros((2, 2)))

    def test_rejects_nan_and_keeps_infinities(self):
        # a NaN sorted last made the distance NaN, silently
        with pytest.raises(ValidationError, match="NaN"):
            EmpiricalSample.from_data([0.1, math.nan, 0.3])
        # Phi(-inf) = 0 and Phi(inf) = 1 exactly: both gaps are 1/3
        s = EmpiricalSample.from_data([math.inf, 0.0, -math.inf])
        assert kolmogorov_distance(s, 0.0, 1.0) == pytest.approx(1.0 / 3.0)
