"""Stationary centered Gaussian sequences: covariance models, exact path
sampling, and the even-Hermite partial-sum statistics built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import toeplitz
from .errors import NumericalError, ValidationError, check_even_power
from .hermite import hermite, hermite_monomial_coeffs
from .streams import (block_generator, block_normals, block_threads,
                      row_chunks, run_blocks)

__all__ = [
    "CovarianceFunction",
    "HermiteEvenCoeffs",
    "PathSampler",
    "fgn_covariance",
    "sample_paths",
    "power_variation",
    "power_variation_mean",
    "breuer_major_statistic",
    "exact_variance_power_variation",
]


# _fgn_covariances sums the binomial series from this lag on, to this many
# terms: at |k| >= 8 the next term is below 2**-72 of the sum for every H
_SERIES_LAG = 8
_SERIES_TERMS = 12


def _check_hurst(H: float) -> None:
    if not 0.0 < H < 1.0:
        raise ValidationError(f"Hurst parameter must lie in (0, 1), got {H}")


def _fgn_covariances(H: float, lags) -> np.ndarray:
    """Covariances of fractional Gaussian noise at an array of integer lags.

    rho(k) = (|k+1|^(2H) + |k-1|^(2H) - 2|k|^(2H)) / 2, symmetric in k,
    with rho(0) = 1.  That direct formula is used below lag 8.  From lag 8
    on, where its three terms nearly cancel (relative error 5e-8 at
    k = 8192, H = 0.3), rho(k) is the binomial series
    k^(2H) sum_{j=1..12} C(2H, 2j) k^(-2j), summed by Horner in k^(-2); its
    terms share one sign, so nothing cancels, and it is within a few
    rounding errors of the exact value.
    """
    _check_hurst(H)
    a = np.abs(np.asarray(lags, dtype=float))
    h2 = 2.0 * H
    out = np.empty_like(a)
    near = a < _SERIES_LAG
    x = a[near]
    out[near] = 0.5 * ((x + 1.0) ** h2 + np.abs(x - 1.0) ** h2
                       - 2.0 * x ** h2)
    coeffs = []
    binomial = 1.0
    for i in range(1, 2 * _SERIES_TERMS + 1):
        binomial *= (h2 - (i - 1)) / i
        if i % 2 == 0:
            coeffs.append(binomial)
    x = a[~near]
    y = 1.0 / (x * x)
    series = coeffs[-1]
    for c in coeffs[-2::-1]:
        series = c + y * series
    out[~near] = x ** h2 * (y * series)
    return out


def fgn_covariance(H: float, k: int) -> float:
    """Covariance of fractional Gaussian noise at integer lag k: the one
    entry of _fgn_covariances(H, [k]), so it equals that array code bit for
    bit at every lag."""
    return float(_fgn_covariances(H, [k])[0])


@dataclass(frozen=True)
class CovarianceFunction:
    """A stationary covariance lag -> rho(lag).

    The evaluator must be even in the lag, and is the only source of the
    variance: the read-only rho0 is evaluator(0), read once when the
    object is built, and must be positive.  array_evaluator, if given,
    maps an integer array of lags to rho at each of them in one call and
    must agree with evaluator; lag_array reads it in place of one
    evaluator call per lag.
    """

    evaluator: Callable[[int], float]
    array_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho0", self(0))
        if not self.rho0 > 0.0:
            raise ValidationError(f"rho(0) must be positive, got {self.rho0}")

    def __call__(self, k: int) -> float:
        return float(self.evaluator(int(k)))

    def lag_array(self, n_lags: int) -> np.ndarray:
        """rho evaluated at lags 0..n_lags-1."""
        if self.array_evaluator is not None:
            return self.array_evaluator(np.arange(n_lags))
        return np.array([self(k) for k in range(n_lags)])

    @classmethod
    def fgn(cls, H: float) -> "CovarianceFunction":
        _check_hurst(H)
        return cls(evaluator=lambda k: fgn_covariance(H, k),
                   array_evaluator=lambda lags: _fgn_covariances(H, lags))

    @classmethod
    def iid(cls, variance: float = 1.0) -> "CovarianceFunction":
        return cls(evaluator=lambda k: variance if k == 0 else 0.0)


@dataclass(frozen=True)
class HermiteEvenCoeffs:
    """Coefficients lambda_{2k}, k = d..m, of an even-Hermite expansion g
    of the standardized variable Z / sqrt(rho(0)); rho(0) is the covariance's.

    Arbitrary coefficients are accepted.  The covariance-sum bound for the
    partial sums is stated under the normalization lambda_{2m} = rho(0)**m
    (the monomial case satisfies it after scaling); nothing here enforces
    that, callers opting out own the interpretation of the bound.
    """

    d: int
    m: int
    lambdas: np.ndarray

    def __post_init__(self):
        if not 1 <= self.d <= self.m:
            raise ValidationError(f"need 1 <= d <= m, got d={self.d}, m={self.m}")
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.shape != (self.m - self.d + 1,):
            raise ValidationError(
                f"expected {self.m - self.d + 1} coefficients, got {lam.shape}")
        object.__setattr__(self, "lambdas", lam)

    def orders(self) -> range:
        """The even orders 2d, 2d+2, ..., 2m."""
        return range(2 * self.d, 2 * self.m + 1, 2)


class PathSampler:
    """Exact sampler for a stationary Gaussian vector of length n.

    Embeds the covariance in a circulant of size m = 2n diagonalized by the
    FFT, two replicas from one complex FFT (see transform).  An indefinite
    covariance raises the NumericalError of toeplitz.certify_psd, and one
    whose embedding alone is indefinite (cos(0.37 k) at n = 300) a
    NumericalError naming the embedding's lowest eigenvalue; fGn's is
    positive semidefinite for every H (Perrin et al., IEEE SPL 2002).
    """

    # the only route, kept as a name because bench/tracer.py reads it
    mode = "circulant"

    def __init__(self, rho: CovarianceFunction, n: int):
        if n < 1:
            raise ValidationError(f"path length must be >= 1, got {n}")
        self.n, self._m = n, 2 * n
        lam = toeplitz.certify_psd(rho.lag_array(n + 1))
        if lam.min() < 0.0:
            raise NumericalError(
                "the circulant embedding of the covariance is not positive "
                f"semidefinite: eigenvalue {lam.min():.6g}")
        # sqrt(lambda_k / m) over the full spectrum, lambda_(m-k) =
        # lambda_k, each entry twice: it scales the real and imaginary
        # parts of a complex spectrum through its float view
        full = np.concatenate([lam, lam[-2:0:-1]])
        self._scale = np.repeat(np.sqrt(full / self._m), 2)

    @property
    def normals_per_replica(self) -> int:
        return 2 * self.n

    def transform(self, w: np.ndarray,
                  buffers: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
        """Apply the sampler's linear map to white-noise rows w.

        w has shape (count, normals_per_replica), count even; the output
        rows follow the target covariance exactly when the rows of w are
        iid standard normal.

        Rows 2j and 2j+1 are read together as m complex numbers
        W_k = w[2k] + i w[2k+1] of their 4n floats, and
        X = FFT(sqrt(lambda_k / m) W_k) gives output row 2j as Re X[:n] and
        row 2j+1 as Im X[:n].  E[X X^*] = 2C and E[X X^T] = 0 for the
        circulant covariance C, so the two are independent and each has
        covariance C, whose leading n x n block is the target.  A lone row
        cannot be made exact by padding its partner with zeros, so an odd
        count is rejected.  buffers may be a pair of arrays from
        _work_arrays with at least count rows, which the transform fills
        instead of allocating its own pair; the result is a view of the
        second.  w may itself be the float view of the first buffer's
        leading count / 2 spectra, which is then scaled in place
        (sample_chunks draws there).
        """
        n, m = self.n, self._m
        count = w.shape[0]
        if count % 2:
            raise ValidationError(
                f"the circulant transform takes rows in pairs, got {count}")
        if buffers is None:
            buffers = self._work_arrays(count)
        spectrum, out = buffers[0][:count // 2], buffers[1][:count]
        np.multiply(w.reshape(count // 2, 2 * m), self._scale,
                    out=spectrum.view(float))
        # in place: the FFT then allocates no work array of its own
        x = np.fft.fft(spectrum, axis=1, out=spectrum)[:, :n]
        out[0::2] = x.real
        out[1::2] = x.imag
        return out

    def _work_arrays(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Work arrays for transforms of up to rows rows, rows even: the
        complex spectra of rows / 2 pairs, and the paths."""
        return (np.empty((rows // 2, self._m), dtype=complex),
                np.empty((rows, self.n)))

    def sample_chunks(self, seed: int, stream: int, block: int, count: int):
        """Yield (lo, paths) over the rows of one block in order, where paths
        holds replicas block*BLOCK_SIZE + lo, lo+1, ... one per row.

        The rows are drawn and transformed in chunks of whole pairs of rows
        (streams.row_chunks over pairs) from the block's one generator.  An
        odd count draws the partner of the block's last row and drops its
        path, so replica r is made from rows 2j and 2j+1 of the block,
        j = (r % BLOCK_SIZE) // 2, whatever count and the chunking are.  The
        FFTs work pair by pair, so the chunks are bit-identical to
        transforming one whole-block block_normals draw of an even number
        of rows, while only one chunk is held at a time.  Each chunk is
        drawn into the spectrum work array itself (the float view of its
        complex rows holds the chunk's rows of normals in order), and the
        transforms reuse that pair of work arrays for the whole block, so a
        yielded paths is overwritten by the next chunk: use or copy it
        before asking for the next.
        """
        width = self.normals_per_replica
        generator = block_generator(seed, stream, block)
        # a pair of rows is one row of twice the width to row_chunks
        pairs = list(row_chunks(-(-count // 2), 2 * width))
        buffers = self._work_arrays(2 * pairs[0][1])
        for lo, hi in pairs:
            w = block_normals(
                seed, stream, block, 2 * (hi - lo), width, generator,
                out=buffers[0][:hi - lo].view(float).reshape(
                    2 * (hi - lo), width))
            # by keyword: bench/tracer.py reads transform's positional
            # arguments as (sampler, w)
            paths = self.transform(w, buffers=buffers)
            yield 2 * lo, paths[:count - 2 * lo]


def sample_paths(rho: CovarianceFunction, n: int, M: int, seed: int,
                 threads: int = 1, stream: int = 0) -> np.ndarray:
    """M independent exact samples of (Z_0..Z_{n-1}), one per row of the
    (M, n) result, deterministic in seed.

    Output is bit-identical for any thread count: replica r always reads a
    fixed row of block r // BLOCK_SIZE of the (seed, stream) stream
    (streams.block_generator), together with the other row of its pair
    (PathSampler.transform), so the first k rows do not depend on M either.
    """
    if M < 1:
        raise ValidationError(f"replica count must be >= 1, got {M}")
    sampler = PathSampler(rho, n)
    out = np.empty((M, n))

    def worker(block, start, count):
        for lo, paths in sampler.sample_chunks(seed, stream, block, count):
            out[start + lo:start + lo + len(paths)] = paths

    run_blocks(M, worker,
               threads=block_threads(threads, sampler.normals_per_replica))
    return out


def even_power(x: np.ndarray, q: int, out: np.ndarray | None = None
               ) -> np.ndarray:
    """x**q for even q >= 2 by repeated squaring, into out (which may be x):
    bit-equal to np.power at q = 2, within q ulps of it above, where
    np.power calls libm pow (81 against 2.2 ns an entry at q = 4, numpy
    2.4 on one core of a 2-vCPU x86-64 box)."""
    check_even_power(q)
    out = np.multiply(x, x, out=out)
    square = out.copy() if q & (q - 1) else None
    # binary powering of x**2 to q / 2, from below its leading bit
    for bit in bin(q // 2)[3:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            np.multiply(out, square, out=out)
    return out


def power_variation(path: np.ndarray, q: int) -> float:
    """Empirical q-th moment (1/n) sum_i path_i**q for even q >= 2."""
    check_even_power(q)
    path = np.asarray(path, dtype=float)
    if path.size == 0:
        raise ValidationError("path must be nonempty")
    return float(np.mean(even_power(path, q)))


def power_variation_mean(rho0: float, q: int) -> float:
    """E[Z**q] for Z ~ N(0, rho0): rho0^(q/2) (q-1)!!."""
    check_even_power(q)
    return rho0 ** (q // 2) * float(hermite_monomial_coeffs(q)[0])


def breuer_major_statistic(rho: CovarianceFunction, path: np.ndarray,
                           coeffs: HermiteEvenCoeffs) -> float:
    """(1/sqrt(n)) sum_i sum_k lambda_{2k} H_{2k}(path_i / sqrt(rho.rho0))
    for a path of the sequence with covariance rho."""
    path = np.asarray(path, dtype=float)
    if path.size == 0:
        raise ValidationError("path must be nonempty")
    x = path / math.sqrt(rho.rho0)
    total = 0.0
    for lam, order in zip(coeffs.lambdas, coeffs.orders()):
        total += float(lam) * float(hermite(order, x).sum())
    return total / math.sqrt(path.size)


def exact_variance_power_variation(rho: CovarianceFunction, q: int, n: int) -> float:
    """Var((1/n) sum Z_i**q) from the even-Hermite expansion of x**q.

    Orthogonality across Hermite orders reduces the variance to
    (rho0^q / n^2) sum_{i,j} sum_{k>=1} c_{q,2k}^2 (2k)! (rho(i-j)/rho0)^{2k};
    the double sum collapses over Toeplitz diagonals.
    """
    check_even_power(q)
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    coeffs = hermite_monomial_coeffs(q)
    corr = rho.lag_array(n) / rho.rho0
    counts = toeplitz.pair_counts(n)
    total = 0.0
    for k in range(1, q // 2 + 1):
        total += float(coeffs[k]) ** 2 * math.factorial(2 * k) * float(
            (counts * corr ** (2 * k)).sum())
    return rho.rho0 ** q * total / n ** 2
