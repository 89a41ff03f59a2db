"""Independent oracles shared by the test modules.

Everything here deliberately avoids the library's own computation paths:
quadrature uses numpy's hermite_e module, moments use raw sample statistics,
and the dense tensor calculus below (symmetrize, inner, norm, densify, with
chaosclt.kernels.contract) works on all n**p entries, where the library
uses closed forms on rank-one sums.  The ratio family's kernels are built
here from its basis layout, which the library reads only analytically.
"""

import math
from functools import reduce
from itertools import permutations

import numpy as np
from numpy.polynomial import hermite_e

from chaosclt.errors import ValidationError
from chaosclt.kernels import DenseKernel, RankOneSumKernel, _check_entry_budget


def gauss_hermite_nodes(deg=24):
    """Nodes and normalized weights for E[f(Z)], Z standard normal."""
    x, w = hermite_e.hermegauss(deg)
    return x, w / w.sum()


def hermite_e_value(order, x):
    """Probabilists' Hermite value via numpy's hermite_e basis."""
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    return hermite_e.hermeval(x, coeffs)


def monomial_coeff_quadrature(q, k, deg=40):
    """c_{q,2k} = (1/(2k)!) E[Z**q H_{2k}(Z)] by Gauss-Hermite quadrature."""
    from math import factorial
    x, w = gauss_hermite_nodes(deg)
    return float((w * x ** q * hermite_e_value(2 * k, x)).sum()) / factorial(2 * k)


def correlated_moment_quadrature(q, corr, deg=24):
    """E[X**q Y**q] for standard normals with correlation corr, by 2-d
    Gauss-Hermite quadrature on X = x, Y = corr*x + sqrt(1-corr^2)*y."""
    x, w = gauss_hermite_nodes(deg)
    X = x[:, None]
    Y = corr * x[:, None] + np.sqrt(1.0 - corr ** 2) * x[None, :]
    W = w[:, None] * w[None, :]
    return float((W * X ** q * Y ** q).sum())


def variance_power_variation_quadrature(rho_values, q, deg=24):
    """Var((1/n) sum Z_i**q) from pairwise moments, n = len(rho_values).

    rho_values[k] = rho(k) with rho(0) the variance; the pair moments come
    from 2-d quadrature after standardizing.
    """
    rho0 = rho_values[0]
    n = len(rho_values)
    # E[Z**q] for Z ~ N(0, rho0): quadrature on one axis
    x, w = gauss_hermite_nodes(deg)
    ez_q = float((w * (np.sqrt(rho0) * x) ** q).sum())
    total = 0.0
    for i in range(n):
        for j in range(n):
            corr = rho_values[abs(i - j)] / rho0
            exy = rho0 ** q * correlated_moment_quadrature(q, corr, deg)
            total += exy - ez_q ** 2
    return total / n ** 2


def sample_variance_se(samples):
    """Standard error of the sample variance from empirical moments."""
    s = np.asarray(samples, dtype=float)
    centered = s - s.mean()
    m2 = float((centered ** 2).mean())
    m4 = float((centered ** 4).mean())
    return np.sqrt(max(m4 - m2 ** 2, 0.0) / s.size)


def mean_se(samples):
    return float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


# ---------------------------------------------------------------------------
# dense tensor calculus
# ---------------------------------------------------------------------------

def symmetrize(f):
    """Average of the DenseKernel f over all order! permutations of its
    indices."""
    p = f.order
    if p == 1:
        return f
    acc = np.zeros_like(f.values)
    count = 0
    for perm in permutations(range(p)):
        acc += np.transpose(f.values, perm)
        count += 1
    return DenseKernel(acc / count)


def inner(f, g):
    """Euclidean inner product of two DenseKernels' coefficient arrays."""
    if f.values.shape != g.values.shape:
        raise ValidationError(
            f"shape mismatch: {f.values.shape} vs {g.values.shape}")
    return float(np.vdot(f.values, g.values))


def norm(f):
    return math.sqrt(inner(f, f))


def densify(k):
    """The DenseKernel of the RankOneSumKernel k; the entry guard fires
    before anything is allocated."""
    _check_entry_budget(k.dim, k.order)
    acc = np.zeros((k.dim,) * k.order)
    for a, v in zip(k.coeffs, k.vectors):
        acc += a * reduce(np.multiply.outer, [v] * k.order)
    return DenseKernel(acc)


def reconstruct(spec):
    """The matrix of a SecondChaosSpectrum, U diag(w) U^T."""
    return (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T


# ---------------------------------------------------------------------------
# the ratio family's kernels (see chaosclt.ratio.RatioFamily's basis layout)
# ---------------------------------------------------------------------------

def f_kernel(fam):
    """F's kernel: direction m, rotated by f_overlap into direction 0."""
    ov = fam.perturbations.f_overlap
    f = np.zeros(fam.dim)
    f[fam.m] = fam.sigma2 * math.sqrt(1.0 - ov * ov)
    f[0] = fam.sigma2 * ov
    return DenseKernel(f)


def g_kernel(fam):
    """V's kernel: the m-fold eigenvalue on directions 0..m-1; it costs
    m * dim floats."""
    vectors = np.zeros((fam.m, fam.dim))
    vectors[np.arange(fam.m), np.arange(fam.m)] = 1.0
    return RankOneSumKernel(order=2,
                            coeffs=np.full(fam.m, fam.g_eigenvalue),
                            vectors=vectors)
