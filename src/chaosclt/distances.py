"""Empirical distance to the normal law and log-log rate fitting.

Only the Kolmogorov distance is estimated: it has an exact, assumption-free
empirical form (the supremum of |ECDF - Phi| is attained at a sample point,
approached from the left or the right).  It lower-bounds the total variation
distance, so observed rate exponents transfer to total-variation bounds
without ever claiming to estimate total variation itself.

Phi is evaluated here, in numpy, by a port of Cephes ndtr, the routine
scipy.special.ndtr runs; the two agree to 1.1e-16, so no run needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_real

__all__ = ["EmpiricalSample", "RateFit", "kolmogorov_distance", "rate_fit"]


# Phi is a numpy port of Cephes ndtr (S. L. Moshier, "Methods and Programs
# for Mathematical Functions", 1989), the routine scipy.special.ndtr runs.
# With x = a / sqrt(2): Phi(a) = 0.5 + 0.5 erf(x) for |x| < 1, with erf from
# the T/U table; otherwise Phi(a) = 0.5 erfc(|x|), or 1 minus that for
# x > 0, with erfc(z) = exp(-z^2) P(z)/Q(z) for z < 8, exp(-z^2) R(z)/S(z)
# from 8, and 0 once z^2 > MAXLOG.  Every table is evaluated by Horner in
# Cephes' order, a monic leading 1 written out.  P/Q are evaluated in
# t = z/8 with coefficients P_k 8^(8-k) and Q_k 8^(8-k) (Q_0 = 1): scaling
# by a power of two is exact, so each Horner step is Cephes' step times a
# power of two and P/Q keeps its bits.  The scaling also lifts Cephes'
# P_0 = 2.46e-10 to 4.1e-3, so that small float literals stay reserved for
# the tolerance in errors.
_SQRT1_2 = 0.7071067811865476  # sqrt(1/2) rounded, Cephes' M_SQRT1_2
_MAXLOG = 7.09782712893383996732E2  # log(DBL_MAX)
# the largest z with z * z <= MAXLOG (sqrt rounds to it; a test checks)
_UNDERFLOW = math.sqrt(_MAXLOG)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (0.00413049993672942, 1183191.2742646057, 1956435.870200024,
           1593743.6745258807, 804949.3317880918, 269539.9398376844,
           59809.82573900529, 8220.415095161257, 557.5353353693994)
_ERFC_Q = (16777216.0, 27741535.842807576, 22729775.93004169,
           11630601.138596082, 3996502.0231401697, 933841.4934420978,
           143765.60692397502, 13253.304735532907, 557.5353408177277)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
# Branch cuts on sorted x, each the first value of the next branch, so one
# left-sided searchsorted finds them all: x < -UNDERFLOW is 0,
# [-UNDERFLOW, -8] uses R/S, (-8, -1] P/Q, (-1, 1) erf, [1, 8) P/Q,
# [8, UNDERFLOW] R/S, and x > UNDERFLOW is 1.
_CUTS = np.array([-_UNDERFLOW, np.nextafter(-8.0, 0.0),
                  np.nextafter(-1.0, 0.0), 1.0, 8.0,
                  np.nextafter(_UNDERFLOW, math.inf)])
# Entries per evaluated piece: 32 KiB of float64.  A call holds at most
# three such temporaries at once, under glibc's default 128 KiB mmap and
# trim thresholds, so the heap hands the same memory back call after call
# instead of mapping or trimming it and faulting it in again (8192 entries
# faulted ~100 pages per ratio_sweep op on some runs).
_CHUNK = 4096


def _horner(coeffs, t, out):
    """out <- sum_k coeffs[k] t^(K-k), in Cephes' polevl order."""
    np.multiply(t, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= t
    out += coeffs[-1]
    return out


def _erfc_branch(x, num, den, scale, upper):
    """x (one sign, |x| >= 1) <- Phi(sqrt(2) x) from erfc(|x|); the num/den
    table is evaluated at t = x * scale, with scale of x's sign."""
    t = x * scale
    acc = _horner(num, t, np.empty_like(t))
    np.multiply(x, x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x *= acc
    x /= _horner(den, t, acc)
    x *= 0.5
    if upper:
        np.subtract(1.0, x, out=x)


def _ndtr_sorted(x):
    """Overwrite the nondecreasing x = a / sqrt(2) with Phi(a)."""
    i0, i1, i2, i3, i4, i5 = np.searchsorted(x, _CUTS).tolist()
    x[:i0] = 0.0
    if i0 < i1:
        _erfc_branch(x[i0:i1], _ERFC_R, _ERFC_S, -1.0, False)
    if i1 < i2:
        _erfc_branch(x[i1:i2], _ERFC_P, _ERFC_Q, -0.125, False)
    if i2 < i3:
        mid = x[i2:i3]
        z = mid * mid
        acc = _horner(_ERF_T, z, np.empty_like(z))
        mid *= acc
        mid /= _horner(_ERF_U, z, acc)
        mid *= 0.5
        mid += 0.5
    if i3 < i4:
        _erfc_branch(x[i3:i4], _ERFC_P, _ERFC_Q, 0.125, True)
    if i4 < i5:
        _erfc_branch(x[i4:i5], _ERFC_R, _ERFC_S, 1.0, True)
    x[i5:] = 1.0


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted observations; construct via from_data to sort them.  Values
    out of order, or NaN anywhere, are rejected; +-inf is kept, as
    Phi(+-inf) is exact."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("sample must be a nonempty 1-d array")
        # any comparison with NaN is false, so this also rejects a NaN
        # anywhere (the first entry alone, in a sample of one)
        if not (np.all(v[:-1] <= v[1:]) and v[0] <= v[-1]):
            raise ValidationError(
                "sample must be in nondecreasing order, with no NaN "
                "(EmpiricalSample.from_data sorts it)")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_data(cls, values) -> "EmpiricalSample":
        return cls(values=np.sort(np.asarray(values, dtype=float)))

    @property
    def size(self) -> int:
        return self.values.size


def kolmogorov_distance(sample: EmpiricalSample, mean: float,
                        variance: float) -> float:
    """sup_z |ECDF(z) - Phi_{mean,variance}(z)|, exact for the ECDF.

    At each jump both one-sided gaps are checked: i/M - Phi(x_i) and
    Phi(x_i) - (i-1)/M.  Phi is the numpy port of Cephes ndtr above: it
    differs from scipy.special.ndtr by at most 1.1e-16 (numpy's exp versus
    the C library's), far under the 1/M estimator granularity.
    """
    mean = checked_real(mean, "mean")
    variance = checked_real(variance, "variance")
    if not variance > 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    x = sample.values
    m = x.size
    scale = math.sqrt(variance)
    above = below = -math.inf
    # piece by piece, so no temporary outgrows _CHUNK entries
    for lo in range(0, m, _CHUNK):
        hi = min(lo + _CHUNK, m)
        cdf = x[lo:hi] - mean
        cdf /= scale
        cdf *= _SQRT1_2
        _ndtr_sorted(cdf)
        levels = np.arange(lo, hi + 1, dtype=float)
        levels /= m
        gap = levels[1:] - cdf
        above = max(above, float(gap.max()))
        np.subtract(cdf, levels[:-1], out=gap)
        below = max(below, float(gap.max()))
    return max(above, below)


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log n, log d); residual is the RMS gap."""

    slope: float
    intercept: float
    residual: float


def rate_fit(points: list[tuple[int, float]]) -> RateFit:
    """Fit d ~ C * n**slope from (n, d) pairs with d > 0, at 2 or more
    distinct n."""
    ns = np.array([float(n) for n, _ in points])
    distinct = len(set(ns.tolist()))
    if distinct < 2:
        raise ValidationError(f"need at least 2 distinct n, got {distinct}")
    ds = np.array([float(d) for _, d in points])
    if (ns <= 0).any():
        raise ValidationError("grid sizes must be positive")
    if (ds <= 0).any():
        raise ValidationError("distances must be positive to fit a log-log line")
    x = np.log(ns)
    y = np.log(ds)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual=float(np.sqrt(np.mean(resid ** 2))))
