"""A concrete self-normalized ratio family with computable limit theory.

The numerator mixes a second-chaos term V with variance sigma1^2, an
independent first-chaos term F with variance sigma2^2, and vanishing
perturbations; the denominator recenters the same second-chaos term around
its mean rho * sqrt(lambda).  The family is built so that every term of the
Kolmogorov bound is available in closed form:

    m = ceil(lambda) equal eigenvalues sigma1 / sqrt(2m) for V, an
    orthogonal (optionally overlapping) direction for F, and dedicated
    orthogonal directions for the perturbations S and U.

Requiring sigma1 < rho * sqrt(2) keeps the denominator almost surely
positive: the infimum of V is -sigma1 * sqrt(m/2) > -rho * sqrt(lambda).

Sampling goes through sufficient statistics.  V = a (||Z[:m]||^2 - m)
depends on V's m coordinates only through the squared norm, and F, S and U
read one coordinate each (F also reads Z_0 when f_overlap > 0).  The ratio
is therefore a function of (||Z[:m]||^2, Z_0, Z_F, Z_S, Z_U), and since
||Z[:m]||^2 = Z_0^2 + W with W ~ chi-square(m - 1) independent of Z_0, a
replica costs four normals and one chi-square draw instead of m + 3
normals.  This is exact in law, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import BoundReport
from .errors import TOLERANCE, ValidationError, checked_real
from .streams import (block_chisquare, block_normals, block_threads,
                      run_blocks)

__all__ = [
    "Perturbations",
    "RatioFamily",
    "sample_ratio",
    "sample_ratio_batch",
    "ratio_bound",
]


@dataclass(frozen=True)
class Perturbations:
    """Vanishing-term configuration.

    s_norm, u_norm: L2 norms of the first-chaos perturbations S and U (each
    living on its own basis direction); mu: the deterministic offset;
    eg_epsilon: relative drift of E[G] away from rho * sqrt(lambda);
    f_overlap: fraction of F's direction rotated into V's range, breaking
    the default orthogonality.
    """

    s_norm: float = 0.0
    u_norm: float = 0.0
    mu: float = 0.0
    eg_epsilon: float = 0.0
    f_overlap: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            checked_real(getattr(self, f.name), f.name)
        if self.s_norm < 0.0 or self.u_norm < 0.0:
            raise ValidationError("perturbation norms must be nonnegative")
        if not 0.0 <= self.f_overlap < 1.0:
            raise ValidationError(
                f"f_overlap must lie in [0, 1), got {self.f_overlap}")


@dataclass(frozen=True)
class RatioFamily:
    """One member of the synthetic family at a fixed lambda.

    Basis layout (dim = m + 3): directions 0..m-1 carry V's eigenvectors,
    m carries F (minus any overlap with direction 0), m+1 carries S and
    m+2 carries U.
    """

    lam: float
    rho_const: float
    sigma1: float
    sigma2: float
    perturbations: Perturbations = field(default_factory=Perturbations)

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        # V = a (||Z[:m]||^2 - m) cancels in float64: the rounding m * eps
        # of m must stay within TOLERANCE times the spread sqrt(2m) of the
        # difference, that is m <= 2 (TOLERANCE / eps)^2
        max_m = 2.0 * (TOLERANCE / np.finfo(float).eps) ** 2
        if self.m > max_m:
            raise ValidationError(
                f"lambda must be at most {max_m:.4g}, where float64 still "
                f"resolves ||Z[:m]||^2 - m, got {self.lam}")
        if not self.rho_const > 0.0 or not self.sigma1 > 0.0:
            raise ValidationError("rho and sigma1 must be positive")
        if self.sigma2 < 0.0:
            raise ValidationError("sigma2 must be nonnegative")
        if not self.sigma1 < self.rho_const * math.sqrt(2.0):
            raise ValidationError(
                f"positivity of the denominator requires sigma1 < rho*sqrt(2); "
                f"got sigma1={self.sigma1}, rho={self.rho_const} (the second-chaos "
                f"infimum -sigma1*sqrt(m/2) must exceed -rho*sqrt(lambda))")

    @property
    def m(self) -> int:
        return int(math.ceil(self.lam))

    @property
    def dim(self) -> int:
        return self.m + 3

    @property
    def g_eigenvalue(self) -> float:
        """The m-fold eigenvalue of V's kernel."""
        return self.sigma1 / math.sqrt(2.0 * self.m)

    @property
    def mean_g(self) -> float:
        return self.rho_const * math.sqrt(self.lam) * (1.0 + self.perturbations.eg_epsilon)

    @property
    def sigma_sq(self) -> float:
        """Variance of the limiting normal: sigma1^2 + sigma2^2."""
        return self.sigma1 ** 2 + self.sigma2 ** 2

    # exact moments (closed form; criterion-level exactness matters here)

    def f_second_moment(self) -> float:
        return self.sigma2 ** 2

    def g_centered_second_moment(self) -> float:
        """E[(G - E G)^2] = 2||g||^2 + ||S||^2 / lambda = sigma1^2 + s^2/lam."""
        return self.sigma1 ** 2 + self.perturbations.s_norm ** 2 / self.lam


def _ratio_from_stats(fam: RatioFamily, sq, z0, zf, zs,
                      zu) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejected) from the sufficient statistics of each replica:
    sq = ||Z[:m]||^2 and the coordinates Z_0, Z_F, Z_S, Z_U."""
    pert = fam.perturbations
    sqrt_lam = math.sqrt(fam.lam)
    V = fam.g_eigenvalue * (sq - fam.m)
    ov = pert.f_overlap
    F = fam.sigma2 * (math.sqrt(1.0 - ov * ov) * zf + ov * z0)
    S = pert.s_norm * zs
    U = pert.u_norm * zu
    centered_g = V + S / sqrt_lam
    numerator = centered_g + F + (U + pert.mu) / sqrt_lam
    denominator = (fam.mean_g + centered_g) / (fam.rho_const * sqrt_lam)
    rejected = denominator <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(rejected, np.nan, numerator / denominator)
    return values, rejected


def sample_ratio(fam: RatioFamily, z: np.ndarray) -> tuple[float, bool]:
    """(value, rejected) at one Gaussian vector spanning the family, as in
    sample_ratio_batch: a nonpositive denominator is rejected, value NaN."""
    z = np.asarray(z, dtype=float)
    if z.shape != (fam.dim,):
        raise ValidationError(f"expected a vector of length {fam.dim}, got {z.shape}")
    m = fam.m
    values, rejected = _ratio_from_stats(fam, np.dot(z[:m], z[:m]), z[0],
                                         z[m], z[m + 1], z[m + 2])
    return float(values), bool(rejected)


def sample_ratio_batch(fam: RatioFamily, M: int, seed: int, threads: int = 1,
                       stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejected) over M replicas; deterministic in (seed, stream).

    Replica r is drawn from its sufficient statistics: row r of a (count, 4)
    block_normals draw gives Z_0, Z_F, Z_S, Z_U, and entry r of the block's
    chi-square(m - 1) draw gives W, so ||Z[:m]||^2 = Z_0^2 + W (W = 0 when
    m = 1).  Replica r depends only on (seed, stream, r): the output is the
    same for every thread count, and the first k replicas do not depend on M.

    threads is a cap (streams.block_threads), and a ratio run always uses
    the calling thread: a block of 5 variates a replica is too short to
    pay for a pool thread, whatever threads is.
    """
    if M < 1:
        raise ValidationError(f"replica count must be >= 1, got {M}")
    values = np.empty(M)
    rejected = np.empty(M, dtype=bool)

    def worker(block, start, count):
        z0, zf, zs, zu = block_normals(seed, stream, block, count, 4).T
        sq = z0 * z0
        if fam.m > 1:
            sq += block_chisquare(seed, stream, block, count, fam.m - 1)
        values[start:start + count], rejected[start:start + count] = \
            _ratio_from_stats(fam, sq, z0, zf, zs, zu)

    run_blocks(M, worker, threads=block_threads(threads, 5))
    return values, rejected


def ratio_bound(fam: RatioFamily) -> BoundReport:
    """Five-term Kolmogorov bound for the ratio against N(0, sigma^2).

    Terms: phi(V + F) from the analytic spectrum (kappa_4 of V is
    48 m a^4, the mixed inner product is a^2 <f, e_0>^2); the scaled mean
    drift lambda^(1/4) |eps|; the two exact second-moment gaps; and the
    vanishing remainder (||S|| + ||U|| + |mu|) / sqrt(lambda).
    """
    pert = fam.perturbations
    a = fam.g_eigenvalue
    kappa4 = 48.0 * fam.m * a ** 4
    mixed = a ** 2 * (fam.sigma2 * pert.f_overlap) ** 2
    phi_term = math.sqrt(kappa4) + math.sqrt(mixed)
    mean_drift = fam.lam ** 0.25 * abs(pert.eg_epsilon)
    f_gap = abs(fam.f_second_moment() - fam.sigma2 ** 2)
    g_gap = abs(fam.g_centered_second_moment() - fam.sigma1 ** 2)
    remainder = (pert.s_norm + pert.u_norm + abs(pert.mu)) / math.sqrt(fam.lam)
    return BoundReport(
        terms={
            "phi": phi_term,
            "mean_drift": mean_drift,
            "f_second_moment_gap": f_gap,
            "g_second_moment_gap": g_gap,
            "remainder": remainder,
        },
        normalization=1.0,
    )
