"""Evaluators for the variable part of the explicit normal-approximation
bounds: the contraction bound for a finite chaos sum, the two-term phi
functional for first-plus-second chaos, the covariance-sum bounds for
stationary even-Hermite sums and power variations, the predicted fGn rate
regimes, and the cross-sum ratio diagnostic.

These bounds hold up to universal constants the paper does not fix, so a
report gives only the variable part and downstream checks compare rates
and ratios, never absolute levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chaos
from .chaos import ChaosSum, as_rank_one, kappa4_I2
from .errors import NumericalError, ValidationError
# contract is unused here; bench/tracer.py patches bounds.contract
from .kernels import (checked_sqrt_inner, contract,  # noqa: F401
                      rank_one_contraction_norm, rank_one_mixed_inner,
                      term_scale)
from .stationary import CovarianceFunction

__all__ = [
    "BoundReport",
    "RatePrediction",
    "chaos_sum_bound",
    "phi",
    "breuer_major_bound",
    "power_variation_bound",
    "fgn_rate",
    "nz_ratio_diagnostic",
]


@dataclass
class BoundReport:
    """Decomposed bound value: labeled terms and their normalizer.

    total = sum(terms) / normalization.  For the chaos-sum bound the
    normalization is E[F^2]; for the covariance-sum bounds it is
    variance * sqrt(n) (the bracket terms are reported raw).
    """

    terms: dict[str, float]
    normalization: float

    def __post_init__(self):
        for label, value in self.terms.items():
            if value < 0.0:
                raise ValidationError(f"bound term {label!r} is negative: {value}")
        if not self.normalization > 0.0:
            raise ValidationError(
                f"normalization must be positive, got {self.normalization}")

    @property
    def total(self) -> float:
        return float(sum(self.terms.values()) / self.normalization)

    def to_json(self) -> dict:
        return {
            "terms": {k: float(v) for k, v in self.terms.items()},
            "normalization": float(self.normalization),
            "total": float(self.total),
        }


@dataclass(frozen=True)
class RatePrediction:
    """Predicted distance decay d(n) ~ n**exponent * log(n)**log_power."""

    exponent: float
    log_power: float = 0.0


def _sqrt_mixed_inner(kp, kq) -> float:
    """sqrt<kp (x) kp, kq (x)_{q-p} kq> for rank-one kernels of orders
    p < q, with the negativity guard scaled to the size of its terms."""
    scale = term_scale(kp) * term_scale(kq)
    return checked_sqrt_inner(
        rank_one_mixed_inner(kp, kq),
        f"mixed inner product (orders {kp.order}, {kq.order})", scale * scale)


def chaos_sum_bound(F: ChaosSum) -> BoundReport:
    """Variable part of the total-variation bound for F / sqrt(E[F^2]).

    max_contraction_norm: largest ||f_p (x)_r f_p|| over present orders
    p >= 2 and 1 <= r <= p-1.  Every kernel of a ChaosSum is a symmetric
    rank-one sum, for which ||f (x)_r f|| = ||f (x)_(p-r) f||, so only
    r <= p/2 is evaluated.  mixed_inner: for genuine sums (d < N), the
    largest sqrt<f_p (x) f_p, f_q (x)_{q-p} f_q> over present pairs p < q;
    zero for a single chaos.  Normalization is E[F^2], which must be > 0.
    """
    # an attribute of chaos, read at each call: bench/tracer.py patches
    # chaos.second_moment, and a name bound at import would bypass the patch
    variance = chaos.second_moment(F)
    if not math.isfinite(variance):
        raise NumericalError(f"E[F^2] is not finite in float64: {variance}")
    if not variance > 0.0:
        raise ValidationError(
            f"E[F^2] is {variance}, so F cannot be standardized")
    term1 = 0.0
    for p, kernel in F.kernels.items():
        # ||f (x)_r f|| = ||f (x)_(p-r) f|| for a symmetric f
        for r in range(1, p // 2 + 1):
            term1 = max(term1, rank_one_contraction_norm(kernel, r))

    term2 = 0.0
    if F.delta_dn:
        orders = F.orders
        for i, p in enumerate(orders):
            for q in orders[i + 1:]:
                term2 = max(term2, _sqrt_mixed_inner(F.kernels[p],
                                                     F.kernels[q]))

    return BoundReport(
        terms={"max_contraction_norm": term1, "mixed_inner": term2},
        normalization=variance,
    )


def phi(f1, f2) -> float:
    """Two-term functional for F = I_1(f1) + I_2(f2):

    sqrt kappa_4(I_2(f2)) + sqrt<f1 (x) f1, f2 (x)_1 f2>.
    """
    if f1.order != 1 or f2.order != 2:
        raise ValidationError(
            f"phi expects orders (1, 2), got ({f1.order}, {f2.order})")
    if f1.dim != f2.dim:
        raise ValidationError(f"dimension mismatch: {f1.dim} vs {f2.dim}")
    f1, f2 = as_rank_one(f1), as_rank_one(f2)
    value = math.sqrt(kappa4_I2(f2)) + _sqrt_mixed_inner(f1, f2)
    if not math.isfinite(value):
        raise NumericalError(f"phi is not finite in float64: {value}")
    return value


def breuer_major_bound(rho: CovarianceFunction, n: int, d: int, m: int,
                       variance: float) -> BoundReport:
    """Covariance-sum bound for a standardized even-Hermite partial sum
    with Hermite rank 2d.

    covariance_43: (sum_{|k|<n} |rho(k)|^(4/3))^(3/2), two-sided by the
    symmetry rho(k) = rho(-k).  rank_cross: (sum_{k<n} |rho|^(2d)) *
    (sum_{k<n} |rho|^2)^(1/2), one-sided.  Normalization is
    variance * sqrt(n) where variance is E[F_n^2] of the sqrt(n)-scaled sum.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if not 1 <= d <= m:
        raise ValidationError(f"need 1 <= d <= m, got d={d}, m={m}")
    if not variance > 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    a = np.abs(rho.lag_array(n))
    two_sided_43 = a[0] ** (4.0 / 3.0) + 2.0 * (a[1:] ** (4.0 / 3.0)).sum()
    term1 = float(two_sided_43 ** 1.5)
    term2 = float((a ** (2 * d)).sum()) * math.sqrt(float((a ** 2).sum()))
    return BoundReport(
        terms={"covariance_43": term1, "rank_cross": float(term2)},
        normalization=variance * math.sqrt(n),
    )


def power_variation_bound(rho: CovarianceFunction, n: int,
                          variance: float) -> BoundReport:
    """Covariance-sum bound for the standardized q-th power variation.

    Every even monomial has Hermite rank 2, so this is breuer_major_bound
    with d = 1 for any even q, whose second bracket (sum_{k<n} |rho|^2)^(3/2)
    is reported as covariance_sq.  q enters only through variance, which is
    E[(sqrt(n) (Q - E Q))^2] = n * Var(Q_{q,n}).
    """
    report = breuer_major_bound(rho, n, 1, 1, variance)
    report.terms["covariance_sq"] = report.terms.pop("rank_cross")
    return report


def fgn_rate(H: float) -> RatePrediction:
    """Decay exponent of the covariance-sum bound for fGn power variations,
    the same for every even power (each has Hermite rank 2).

    Three regimes in the Hurst parameter: n**(-1/2) for H < 5/8, an extra
    log^(3/2) factor exactly at H = 5/8, and n**(4H-3) for 5/8 < H < 3/4.
    Above 3/4 the statistic leaves the normal regime entirely.

    This is the rate of the upper bound, not of the Kolmogorov distance
    itself, which can decay faster: at H = 0.7 the exact distance of the
    quadratic variation decays as n**(-0.30) while the bound decays as
    n**(-0.2).
    """
    if not 0.0 < H < 0.75:
        raise ValidationError(
            f"rate prediction requires 0 < H < 3/4, got H={H}")
    if H < 0.625:
        return RatePrediction(exponent=-0.5, log_power=0.0)
    if H == 0.625:
        return RatePrediction(exponent=-0.5, log_power=1.5)
    return RatePrediction(exponent=4.0 * H - 3.0, log_power=0.0)


def nz_ratio_diagnostic(rho: CovarianceFunction, n: int, M: int) -> float:
    """Ratio LHS/RHS of the covariance cross-sum inequality

        sum_{|k_j|<=n} |rho(k . v)| prod_j |rho(k_j)|
            <= C (sum_{|k|<=n} |rho(k)|^(1+1/M))^M

    for M >= 2 and any sign vector v of M entries +-1.  A diagnostic for
    the unknown constant C, not a pass/fail check.

    The weight w(k) = |rho(k)| is even and the box |k_j| <= n is symmetric,
    so substituting k_j -> v_j k_j shows that v does not change the sum,
    and no sign vector is taken:
    LHS = sum_s |rho(s)| (w * ... * w)(s), an M-fold convolution of w.
    """
    if M < 2:
        raise ValidationError(f"M must be at least 2, got {M}")
    # |rho| at lags 0..M*n covers every sum of M lags in [-n, n]
    table = np.abs(rho.lag_array(M * n + 1))
    w = table[np.abs(np.arange(-n, n + 1))]
    conv = w
    for _ in range(M - 1):
        conv = np.convolve(conv, w)
    lhs = float(conv @ table[np.abs(np.arange(-M * n, M * n + 1))])
    rhs = float((w ** (1.0 + 1.0 / M)).sum()) ** M
    return lhs / rhs
