"""Empirical distance to the normal law and log-log rate fitting.

Only the Kolmogorov distance is estimated: it has an exact, assumption-free
empirical form (the supremum of |ECDF - Phi| is attained at a sample point,
approached from the left or the right).  It lower-bounds the total variation
distance, so observed rate exponents transfer to total-variation bounds
without ever claiming to estimate total variation itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["EmpiricalSample", "RateFit", "kolmogorov_distance", "rate_fit"]


@dataclass(frozen=True)
class EmpiricalSample:
    """Sorted observations; construct via from_data to guarantee order.
    NaN is rejected; +-inf is kept, as Phi(+-inf) is exact."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("sample must be a nonempty 1-d array")
        if math.isnan(v[-1]):  # np.sort puts any NaN last
            raise ValidationError("sample must not contain NaN")
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
    Phi(x_i) - (i-1)/M.  Phi comes from the complementary-error-function
    routine (absolute error well below 1e-14, far under the 1/M estimator
    granularity).
    """
    # imported here, at its only use: scipy.special takes ~0.3 s and
    # ~25 MiB to import, which every run that computes no distance would pay
    from scipy.special import ndtr

    if not variance > 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    x = sample.values
    m = x.size
    # in place: a call allocates three arrays of M entries, where the plain
    # expression allocated nine.  Freeing those nine made glibc trim the
    # heap and fault it back in, ~160 minor faults per call at M = 16384,
    # unless something else had raised its trim threshold.
    cdf = x - mean
    cdf /= math.sqrt(variance)
    ndtr(cdf, out=cdf)
    levels = np.arange(1, m + 1, dtype=float)
    levels /= m
    above = float(np.subtract(levels, cdf, out=levels).max())
    levels = np.arange(0, m, dtype=float)
    levels /= m
    below = float(np.subtract(cdf, levels, out=levels).max())
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
    distinct = np.unique(ns).size
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
