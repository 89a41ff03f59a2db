"""Symmetric tensor kernels over R^n and their contraction calculus.

Two representations coexist:

* DenseKernel stores all n**p entries, which must be finite.  It is a
  JSON input format (chaos.ChaosSum converts dense inputs to rank-one sums
  once), so storage is deliberately naive and guarded.  The dense calculus
  that the closed forms are tested against lives with the tests
  (tests/oracles.py).
* RankOneSumKernel represents sum_i a_i v_i^(tensor p) and evaluates norms,
  self-contraction norms, and mixed inner products in closed form through
  the Gram matrix of its vectors, without ever materializing n**p entries.
  The eigen-form of a dense order-2 kernel g is a RankOneSumKernel too,
  but it holds no Gram: it holds g's SecondChaosSpectrum, and its closed
  forms read g.

The ambient Hilbert space is always R^n with the Euclidean inner product,
so every contraction below is a plain Euclidean sum.  A rank-one sum is
built either from explicit vectors or from their Gram matrix alone; the
Breuer-Major kernels of a correlated sequence are built from the first
row of its correlation matrix, which is symmetric Toeplitz, and neither
the n x n matrix nor the vectors (a square root of it) are formed unless
something reads them, such as sampling, serialization or a dense route.

When all coefficients are equal and the Gram was built from its first
row, the closed forms run on that row alone (see chaosclt.toeplitz):
contraction norms stream a trace of Toeplitz products in O(n^2) time and
O(n) memory, squared norms sum over diagonals in O(n), and mixed inner
products need one Toeplitz matrix-vector product, by FFT on the size-2n
circulant embedding in O(n log n).  The eigen-form of a dense order-2
kernel g (RankOneSumKernel.eigen_form) is bounded from g itself, since
its contraction norms do not depend on a basis: ||g||_F^2, ||g g^T||_F
and ||g f||.  Its SecondChaosSpectrum is
the one home of that form: it keeps g, ||g g^T||_F^2 and, once read, the
eigenpairs.  The symmetry check and the closed forms that multiply g by
itself run over row panels of at most PANEL_FLOATS floats, so beyond g
they take O(dim) memory.  Only reading its coefficients or vectors
(sampling, serialization, a pairing under a kernel of order >= 3)
decomposes g.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np

from . import toeplitz
from .errors import (TOLERANCE, NumericalError, ValidationError,
                     check_known_keys, checked_integer)
from .stationary import CovarianceFunction, HermiteEvenCoeffs

__all__ = [
    "DenseKernel",
    "RankOneSumKernel",
    "Gram",
    "SecondChaosSpectrum",
    "DENSE_ENTRY_GUARD",
    "PANEL_FLOATS",
    "checked_sqrt_inner",
    "term_scale",
    "contract",
    "is_symmetric",
    "matrix_contraction_norm_squared",
    "matrix_cube_trace",
    "rank_one_norm_squared",
    "rank_one_contraction_norm",
    "rank_one_mixed_inner",
    "breuer_major_kernels",
    "kernel_to_json",
    "kernel_from_json",
]

DENSE_ENTRY_GUARD = 10_000_000

# the most floats of one row panel of a dense order-2 kernel (512 KiB), as
# toeplitz._TRACE_BUDGET (see _row_panels)
PANEL_FLOATS = 1 << 16


def _check_entry_budget(dim: int, order: int) -> None:
    # numpy arrays have at most 64 axes
    if order > 64 or dim ** order > DENSE_ENTRY_GUARD:
        raise ValidationError(f"dense kernel with dim={dim}, order={order} "
                              f"is above the {DENSE_ENTRY_GUARD}-entry, "
                              f"64-axis guard")


def _all_finite(a: np.ndarray) -> bool:
    """True when a holds no NaN or infinity, read off its extremes: NaN
    propagates into min and max, and an infinity is one of them, so no
    mask of a.size bytes is made."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


class DenseKernel:
    """A real tensor of shape (dim,) * order; treated as immutable."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim < 1:
            raise ValidationError("kernel order must be >= 1")
        dim = values.shape[0]
        if dim < 1 or any(s != dim for s in values.shape):
            raise ValidationError(
                f"kernel axes must share one positive dimension, got {values.shape}")
        _check_entry_budget(dim, values.ndim)
        if not _all_finite(values):
            raise ValidationError("kernel entries must be finite")
        self.values = values

    @property
    def order(self) -> int:
        return self.values.ndim

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self):
        return f"DenseKernel(order={self.order}, dim={self.dim})"


class Gram:
    """The Gram matrix G_ij = <v_i, v_j> of a rank-one sum's term vectors.

    Built from exactly one of: the vectors V (terms x dim), G itself, or
    the first row of a symmetric Toeplitz G.  The missing sides are
    computed on first access: G as V V^T or as the Toeplitz matrix of its
    row, and V as the eigen square root of G (terms x terms, so
    dim = terms).  Kernels built on one Gram share all of them, so G is
    formed and factored at most once however many kernels use it.  A G
    given as a matrix or a row must be symmetric positive semidefinite;
    that is the caller's to certify (see breuer_major_kernels).  A G
    built from its row holds only that row until its matrix is read.
    """

    def __init__(self, matrix: np.ndarray | None = None,
                 vectors: np.ndarray | None = None,
                 row: np.ndarray | None = None):
        if sum(x is not None for x in (matrix, vectors, row)) != 1:
            raise ValidationError(
                "a Gram needs exactly one of matrix, vectors, row")
        self._matrix = matrix
        self._vectors = vectors
        self._toeplitz_row = row

    @property
    def terms(self) -> int:
        for source in (self._matrix, self._vectors, self._toeplitz_row):
            if source is not None:
                return source.shape[0]

    @property
    def dim(self) -> int:
        return self.terms if self._vectors is None else self._vectors.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if self._vectors is None:
                self._matrix = toeplitz.matrix(self._toeplitz_row)
            else:
                self._matrix = self._vectors @ self._vectors.T
        return self._matrix

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            # unguarded clip: a row-built G is certified when it is built,
            # and at large n eigh can round below a row[0]-relative floor
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            self._vectors = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        return self._vectors

    @property
    def diagonal(self) -> np.ndarray:
        """The diagonal of G; a row-built G's is its row[0] throughout,
        read without forming G."""
        if self._toeplitz_row is not None:
            return np.full(self.terms, self._toeplitz_row[0])
        return np.diagonal(self.matrix)

    @property
    def toeplitz_row(self) -> np.ndarray | None:
        """The first row G was built from, or None for a G built from a
        matrix or from vectors, whatever its values."""
        return self._toeplitz_row


class RankOneSumKernel:
    """sum_i coeffs[i] * vectors[i]^(tensor order), symmetric by construction."""

    def __init__(self, order: int, coeffs: np.ndarray, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValidationError(
                f"vectors must be (terms, dim), got {vectors.shape}")
        self._init(order, coeffs, Gram(vectors=vectors))

    @classmethod
    def from_gram(cls, order: int, coeffs: np.ndarray,
                  gram: Gram) -> "RankOneSumKernel":
        """The rank-one sum whose term vectors have Gram matrix gram; its
        vectors are a square root of gram, computed only if read."""
        kernel = cls.__new__(cls)
        kernel._init(order, coeffs, gram)
        return kernel

    @classmethod
    def eigen_form(cls, spectrum: SecondChaosSpectrum) -> "RankOneSumKernel":
        """The symmetric matrix g = spectrum.matrix as the order-2 sum
        sum_i lambda_i u_i^(tensor 2) over its orthonormal eigenvectors, so
        that its Gram is exactly the identity.  The kernel holds spectrum
        and no Gram.  Nothing is decomposed here: coeffs and vectors read
        the spectrum, which decomposes g on first read, and the closed
        forms read g itself (eigen_matrix)."""
        kernel = cls.__new__(cls)
        kernel.order = 2
        kernel._spectrum = spectrum
        return kernel

    def _init(self, order, coeffs, gram: Gram) -> None:
        if order < 1:
            raise ValidationError(f"kernel order must be >= 1, got {order}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("need at least one rank-one term")
        if gram.terms != coeffs.size:
            raise ValidationError(
                f"{gram.terms} term vectors for {coeffs.size} coefficients")
        self.order = order
        self._coeffs = coeffs
        self._gram = gram
        self._spectrum = None

    @property
    def coeffs(self) -> np.ndarray:
        if self._spectrum is not None:
            return self._spectrum.eigenvalues
        return self._coeffs

    @property
    def eigen_matrix(self) -> np.ndarray | None:
        """The matrix g of a kernel built by eigen_form, else None."""
        return None if self._spectrum is None else self._spectrum.matrix

    @property
    def terms(self) -> int:
        if self._spectrum is not None:
            return self._spectrum.matrix.shape[0]
        return self._gram.terms

    @property
    def dim(self) -> int:
        return self.terms if self._spectrum is not None else self._gram.dim

    @property
    def vectors(self) -> np.ndarray:
        if self._spectrum is not None:
            return self._spectrum.eigenvectors.T
        return self._gram.vectors

    @property
    def gram(self) -> np.ndarray:
        """The Gram matrix of the term vectors; an eigen-form's is exactly
        the identity, formed on each read."""
        if self._spectrum is not None:
            return np.eye(self.terms)
        return self._gram.matrix

    @property
    def orthonormal_terms(self) -> bool:
        """Whether the term vectors are orthonormal by construction (built
        by eigen_form), so that the Gram is exactly the identity."""
        return self._spectrum is not None

    def shares_gram(self, other: "RankOneSumKernel") -> bool:
        """Whether both kernels are built on one Gram of term vectors;
        never for an eigen-form, which holds no Gram."""
        return (self._spectrum is None and other._spectrum is None
                and self._gram is other._gram)

    def __repr__(self):
        return (f"RankOneSumKernel(order={self.order}, terms={self.terms}, "
                f"dim={self.dim})")


# ---------------------------------------------------------------------------
# dense calculus
# ---------------------------------------------------------------------------

# a test-only oracle, kept while bench/tracer.py patches bounds.contract
def contract(f: DenseKernel, g: DenseKernel, r: int) -> DenseKernel | float:
    """The r-th contraction f (x)_r g, pairing r arguments of each kernel.

    The output carries f's p - r free indices first, then g's q - r free
    indices; it is NOT symmetrized.  r = 0 is the tensor product and
    r = p = q returns the scalar <f, g>.
    """
    if f.dim != g.dim:
        raise ValidationError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if not 0 <= r <= min(f.order, g.order):
        raise ValidationError(
            f"contraction index r={r} outside 0..{min(f.order, g.order)}")
    out_order = f.order + g.order - 2 * r
    if out_order == 0:
        return float(np.tensordot(f.values, g.values, axes=f.order))
    _check_entry_budget(f.dim, out_order)
    if r == 0:
        return DenseKernel(np.multiply.outer(f.values, g.values))
    out = np.tensordot(f.values, g.values,
                       axes=(tuple(range(r)), tuple(range(r))))
    return DenseKernel(out)


def _row_panels(n: int):
    """(lo, hi, out) for the row panels g[lo:hi] of an n x n matrix g,
    where out is a (hi - lo, n - lo) work matrix for the panel's columns
    lo on, a view of one array lent to every panel in turn.  A panel has
    at least one row, and otherwise at most PANEL_FLOATS floats and an
    eighth of the rows, so the array never takes more than an eighth of
    g."""
    rows = max(min(PANEL_FLOATS // n, n // 8), 1)
    work = np.empty(rows * n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        yield lo, hi, work[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo)


def is_symmetric(f: DenseKernel) -> bool:
    """Whether no swap of two adjacent indices of f (these swaps generate
    every permutation) moves an entry by more than TOLERANCE times the
    largest entry in absolute value, a bound that scales with f.

    At order 2 each row panel g[lo:hi] is compared with the matching
    columns from column lo on: a pair (i, j) with j < lo was compared in
    j's panel.  Neither |g| nor g^T - g is formed.
    """
    values = f.values
    bound = TOLERANCE * float(max(values.max(), -values.min()))
    if f.order == 2:
        for lo, hi, out in _row_panels(f.dim):
            diff = np.subtract(values[lo:hi, lo:], values[lo:, lo:hi].T,
                               out=out)
            if max(diff.max(), -diff.min()) > bound:
                return False
        return True
    swapped = (np.swapaxes(values, i, i + 1) for i in range(f.order - 1))
    return all(np.abs(s - values).max() <= bound for s in swapped)


def _square_panels(g: np.ndarray):
    """(lo, hi, p) over the row panels of a symmetric matrix g (see
    _row_panels), with p = g[lo:hi] @ g[lo:].T = (g g)[lo:hi, lo:]: the
    panel's share of the upper block triangle of g g.  n^3 flops in all,
    as one syrk of g; no n x n array is formed."""
    for lo, hi, out in _row_panels(g.shape[0]):
        yield lo, hi, np.matmul(g[lo:hi], g[lo:].T, out=out)


def _upper_inner(p: np.ndarray, q: np.ndarray) -> float:
    """<P, Q>_F's share from one panel of the upper block triangles of two
    symmetric matrices P and Q: the panel's diagonal block counts once and
    the rest, which stands for its mirror image too, twice."""
    s = p.shape[0]
    return (np.einsum("ij,ij->", p[:, :s], q[:, :s])
            + 2.0 * np.einsum("ij,ij->", p[:, s:], q[:, s:]))


def matrix_contraction_norm_squared(g: np.ndarray) -> float:
    """||g g^T||_F^2 = ||g (x)_1 g||^2 of a symmetric matrix g, from the
    upper block triangle of g g (see _square_panels)."""
    return float(sum(_upper_inner(p, p) for _, _, p in _square_panels(g)))


def matrix_cube_trace(g: np.ndarray) -> float:
    """tr g^3 = sum (g g) o g of a symmetric matrix g, from the upper block
    triangle of g g (see _square_panels)."""
    return float(sum(_upper_inner(p, g[lo:hi, lo:])
                     for lo, hi, p in _square_panels(g)))


class SecondChaosSpectrum:
    """A validated symmetric order-2 kernel matrix and its
    eigendecomposition, eigenvectors in columns.

    The decomposition is one np.linalg.eigh of the matrix, made when
    eigenvalues or eigenvectors are first read and kept.  All eigenvalues
    are kept, including numerically tiny ones: they change nothing and
    thresholding would silently bias cumulants.  ||g g^T||_F^2 is kept
    the same way, as a scalar: the bound and kappa_4 both read it, and
    keeping g g^T itself would hold a second dim x dim array.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @classmethod
    def from_kernel(cls, g: DenseKernel) -> "SecondChaosSpectrum":
        if g.order != 2:
            raise ValidationError(
                f"expected an order-2 kernel, got order {g.order}")
        if not is_symmetric(g):
            raise ValidationError("order-2 kernel is not symmetric")
        return cls(g.values)

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.matrix)

    @cached_property
    def contraction_norm_squared(self) -> float:
        """||g (x)_1 g||^2 = ||g g^T||_F^2, in row panels."""
        return matrix_contraction_norm_squared(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigh[1]


# ---------------------------------------------------------------------------
# closed forms for rank-one sums
# ---------------------------------------------------------------------------

def checked_sqrt_inner(value: float, context: str = "mixed inner product",
                       scale: float = 1.0) -> float:
    """sqrt of a theoretically nonnegative inner product.

    Values in [-TOLERANCE * scale, 0) are floating-point noise and clamp
    to 0; anything lower indicates corrupted inputs and raises.  scale is
    the size of the terms the value is summed from (see term_scale), so
    the tolerance is relative to the inputs.  A value that is NaN or
    infinite (its terms overflowed float64) raises as well.
    """
    if not math.isfinite(value):
        raise NumericalError(f"{context} is not finite in float64: {value}")
    if value < -TOLERANCE * scale:
        raise NumericalError(
            f"{context} is negative beyond tolerance: {value:.6g}")
    return math.sqrt(max(value, 0.0))


def term_scale(k: RankOneSumKernel) -> float:
    """s(k) = sum_i |a_i| ||v_i||^p, read off the Gram diagonal; ||g||_F
    for the eigen-form of a matrix g.

    Since |G_ij| <= sqrt(G_ii G_jj), the terms summed into a squared
    contraction norm of k add up in absolute value to at most s(k)^4, and
    those of a mixed inner product of kp and kq to s(kp)^2 s(kq)^2.  Form
    those powers as products: a product that overflows is inf, where a
    float ** raises OverflowError.  ||g||_F = (sum lambda^2)^(1/2) is at
    most sum |lambda| and its fourth power is at least
    ||g (x)_1 g||^2 = sum lambda^4, so no guard scaled by it is looser.
    """
    g = k.eigen_matrix
    if g is not None:
        return float(np.linalg.norm(g))
    norms = np.abs(k._gram.diagonal) ** (k.order / 2)
    return float(np.abs(k.coeffs) @ norms)


def _equal_coeff_toeplitz_row(k: RankOneSumKernel) -> np.ndarray | None:
    """The first row of k's Gram if all of k's coefficients are equal and
    the Gram was built from that row, else None."""
    a = k.coeffs
    return k._gram.toeplitz_row if np.all(a == a[0]) else None


def rank_one_norm_squared(k: RankOneSumKernel) -> float:
    """<k, k> = sum_{i,j} a_i a_j <v_i, v_j>**order.

    When all coefficients equal c and G was built from its first row g,
    the double sum collapses over the diagonals of G to
    c^2 sum_d counts(d) g_d**order in O(n).  The eigen-form of a matrix g
    is g, and its squared norm ||g||_F^2.
    """
    g = k.eigen_matrix
    if g is not None:
        return float(np.vdot(g, g))
    row = _equal_coeff_toeplitz_row(k)
    if row is not None:
        counts = toeplitz.pair_counts(row.size)
        return float(k.coeffs[0] ** 2 * (counts @ row ** k.order))
    gp = k.gram ** k.order
    return float(k.coeffs @ gp @ k.coeffs)


def rank_one_contraction_norm(k: RankOneSumKernel, r: int) -> float:
    """|| k (x)_r k || without densification.

    Expanding both copies over their rank-one terms turns the squared norm
    into a quadruple sum of Gram powers,

        sum a_i a_j a_k a_l  G_ij^(p-r) G_kl^(p-r) G_ik^r G_jl^r,

    which is <B, M B M>_F = tr((M B)^2) = <E, E^T>_F for B = G**(p-r),
    M = diag(a) G**r diag(a) and E = M B, formed densely in O(n^3).  When
    G was built from its first row and all coefficients equal c,
    E = c^2 T(alpha) T(beta) with alpha, beta the first rows of G**r and
    G**(p-r), and E^T is c^2 T(beta) T(alpha): their inner product is
    streamed row by row in O(n^2) time and O(n) memory, and neither
    matrix is formed.  The eigen-form of a matrix g has g (x)_1 g = g g^T,
    whatever its eigenvectors; its squared norm takes n^3 flops in row
    panels (matrix_contraction_norm_squared), and the spectrum keeps it,
    so the bound and kappa_4 share one evaluation.
    """
    p = k.order
    if not 1 <= r <= p - 1:
        raise ValidationError(f"need 1 <= r <= {p - 1}, got r={r}")
    if k.eigen_matrix is not None:
        val = k._spectrum.contraction_norm_squared
    else:
        a = k.coeffs
        row = _equal_coeff_toeplitz_row(k)
        if row is not None:
            val = a[0] ** 4 * toeplitz.product_trace(row ** r, row ** (p - r))
        else:
            G = k.gram
            E = ((a[:, None] * G ** r) * a[None, :]) @ G ** (p - r)
            val = float(np.sum(E * E.T))
    s = term_scale(k)
    return checked_sqrt_inner(val, f"squared {r}-contraction norm",
                              scale=(s * s) * (s * s))


def rank_one_mixed_inner(kp: RankOneSumKernel, kq: RankOneSumKernel) -> float:
    """<kp (x) kp, kq (x)_{q-p} kq> for orders p < q.

    Equals sum_{i,j,k,l} a_i a_j b_k b_l <v_i,w_k>**p <v_j,w_l>**p
    <w_k,w_l>**(q-p), i.e. u^T Gw**(q-p) u with u_k = b_k sum_i a_i <v_i,w_k>**p.
    Kernels on one Gram G have cross Gram G itself.  When that G was built
    from its first row g and each kernel's coefficients are equal, u is
    a b times the row sums of T(g**p), read off prefix sums, and
    T(g**(q-p)) u is one FFT product on the circulant embedding (see
    toeplitz.matvec).  When kq is the eigen-form of a matrix g, q = 2 and
    kp is the vector f = sum_i a_i v_i, so the sum is
    f^T g g^T f = ||g f||^2 (g symmetric), one matrix-vector product.
    """
    p, q = kp.order, kq.order
    if q <= p:
        raise ValidationError(f"need order(kq) > order(kp), got {q} <= {p}")
    if kp.dim != kq.dim:
        raise ValidationError(f"dimension mismatch: {kp.dim} vs {kq.dim}")
    g = kq.eigen_matrix
    if g is not None:
        gf = g @ (kp.coeffs @ kp.vectors)
        return float(gf @ gf)
    if kp.shares_gram(kq):
        row = (_equal_coeff_toeplitz_row(kq)
               if np.all(kp.coeffs == kp.coeffs[0]) else None)
        if row is not None:
            alpha, beta = row ** p, row ** (q - p)
            # row i of T(alpha) sums alpha_0..alpha_i and
            # alpha_1..alpha_(n-1-i)
            prefix = np.cumsum(alpha)
            u = (kp.coeffs[0] * kq.coeffs[0]
                 * (prefix + prefix[::-1] - alpha[0]))
            return float(u @ toeplitz.matvec(beta, u))
        cross = kq.gram ** p
    else:
        cross = (kp.vectors @ kq.vectors.T) ** p
    u = (kp.coeffs @ cross) * kq.coeffs
    return float(u @ (kq.gram ** (q - p)) @ u)


# ---------------------------------------------------------------------------
# Breuer-Major kernels
# ---------------------------------------------------------------------------

def breuer_major_kernels(rho: CovarianceFunction, n: int,
                         coeffs: HermiteEvenCoeffs) -> list[RankOneSumKernel]:
    """Kernels f_{2k} = (lambda_{2k}/sqrt(n)) sum_i eps_i^(tensor 2k).

    The eps_i satisfy <eps_i, eps_j> = rho(i-j)/rho(0): the kernels share
    one Gram built from the first row rho(0..n-1)/rho(0) of that n x n
    symmetric Toeplitz correlation matrix, which the contraction routines
    read directly; the matrix is formed only if something reads it, and
    eps, a square root of it, only if eps is read.  An indefinite matrix
    raises the NumericalError of toeplitz.certify_psd, which forms it only
    if the circulant certificate fails.  F is breuer_major_statistic(rho,
    path, coeffs) in law, so E[F^2] is its variance.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    lags = rho.lag_array(n + 1) / rho.rho0
    toeplitz.certify_psd(lags)
    gram = Gram(row=lags[:n])
    scale = 1.0 / math.sqrt(n)
    return [
        RankOneSumKernel.from_gram(order, np.full(n, lam * scale), gram)
        for lam, order in zip(coeffs.lambdas, coeffs.orders())
    ]


# ---------------------------------------------------------------------------
# serialization (JSON, self-describing)
# ---------------------------------------------------------------------------

def kernel_to_json(kernel: DenseKernel | RankOneSumKernel) -> dict:
    """Self-describing dict: representation tag, order, dim, payload."""
    if isinstance(kernel, DenseKernel):
        return {
            "representation": "dense",
            "order": kernel.order,
            "dim": kernel.dim,
            "values": kernel.values.ravel().tolist(),
        }
    if isinstance(kernel, RankOneSumKernel):
        return {
            "representation": "rank_one_sum",
            "order": kernel.order,
            "dim": kernel.dim,
            "terms": [
                {"coeff": float(a), "vector": v.tolist()}
                for a, v in zip(kernel.coeffs, kernel.vectors)
            ],
        }
    raise ValidationError(f"not a kernel: {type(kernel).__name__}")


def _finite(value, where: str, shape=None) -> np.ndarray:
    """value, a number or a flat list of numbers, as a float array of the
    given shape; strings, nulls, booleans, nested lists and non-finite
    entries raise.  Entries are type-checked one by one, since numpy
    would promote [true, 0.5] to [1.0, 0.5]."""
    kinds = set(map(type, value)) if isinstance(value, list) else {type(value)}
    if not all(issubclass(kind, numbers.Real) and kind is not bool
               for kind in kinds):
        raise ValidationError(f"{where} must hold numbers only")
    try:
        array = np.asarray(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{where} must be finite") from None
    if not _all_finite(array):
        raise ValidationError(f"{where} must be finite")
    if shape is not None and array.shape != shape:
        raise ValidationError(f"{where} has shape {array.shape}, expected {shape}")
    return array


def kernel_from_json(data: dict, where: str = "kernel") -> DenseKernel | RankOneSumKernel:
    """Inverse of kernel_to_json; errors carry the offending location.
    Keys of the kernel object it does not read, such as the retired
    stationary flag, are ignored; a term holds coeff and vector only."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object, got {type(data).__name__}")
    rep = data.get("representation")
    # E[F^2] weighs order p by p!, which overflows a float above 170
    order = checked_integer(data.get("order"), f"{where}: order", 1, 171)
    dim = checked_integer(data.get("dim"), f"{where}: dim", 1)
    if rep == "dense":
        _check_entry_budget(dim, order)
        values = _finite(data.get("values", []), f"{where}: values")
        if values.size != dim ** order:
            raise ValidationError(
                f"{where}: dense payload has {values.size} entries, "
                f"expected {dim ** order}")
        return DenseKernel(values.reshape((dim,) * order))
    if rep == "rank_one_sum":
        terms = data.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ValidationError(f"{where}: rank_one_sum needs a nonempty term list")
        coeffs = []
        vectors = []
        for i, term in enumerate(terms):
            loc = f"{where}.terms[{i}]"
            if not isinstance(term, dict):
                raise ValidationError(f"{loc}: expected an object")
            check_known_keys(term, ("coeff", "vector"), loc)
            coeffs.append(_finite(term.get("coeff"), f"{loc}: coeff", ()))
            vectors.append(_finite(term.get("vector"), f"{loc}: vector", (dim,)))
        return RankOneSumKernel(order=order, coeffs=np.array(coeffs),
                                vectors=np.array(vectors))
    raise ValidationError(f"{where}: unknown representation {rep!r}")
