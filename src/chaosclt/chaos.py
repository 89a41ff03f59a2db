"""Finite chaos sums: exact sampling on explicit Gaussian vectors, exact
second moments through the isometry, and second-chaos cumulants (kappa_3
as 8 tr g^3, kappa_4 from the 1-contraction norm).

Every computation here runs on the rank-one-sum representation.  Dense
kernels are accepted at the ChaosSum boundary, at orders 1 (one term) and 2
(the eigen-form of the symmetric matrix), and canonicalized once by
as_rank_one; a dense kernel of any higher order is rejected.  The
eigen-form keeps its matrix g, and every bound and cumulant reads g: only
sampling (and serialization) decomposes it, once per kernel.

A chaos element of order p with kernel h, evaluated on a standard Gaussian
vector z, is computed from the identity "order-p element of a unit rank-one
kernel = H_p of the projection":

    I_p(v^(tensor p))(z) = ||v||**p * H_p(<v, z> / ||v||).

sample_batch skips the projection for I1 + I2 sums in eigen-form: it reads
its normals as the projections onto the orthonormal eigenvectors, which
have the same law (see _eigen_terms).
"""

from __future__ import annotations

import math
import queue
from functools import cached_property

import numpy as np

from .errors import UnsupportedRepresentationError, ValidationError
from .hermite import hermite
from .kernels import (DenseKernel, RankOneSumKernel, is_symmetric,
                      matrix_contraction_norm_squared, matrix_cube_trace,
                      rank_one_contraction_norm, rank_one_norm_squared)
from .streams import (BLOCK_SIZE, block_generator, block_normals,
                      block_threads, row_chunks, run_blocks)

__all__ = [
    "ChaosSum",
    "SecondChaosSpectrum",
    "as_rank_one",
    "sample",
    "sample_batch",
    "second_moment",
    "kappa3_I2",
    "kappa4_I2",
]

Kernel = DenseKernel | RankOneSumKernel


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


def as_rank_one(kernel: Kernel) -> RankOneSumKernel:
    """The rank-one-sum form of a kernel; rank-one sums pass through.

    A dense order-1 kernel f becomes the single term f, and a dense order-2
    kernel g its eigen-form sum_i lambda_i u_i^(tensor 2)
    (RankOneSumKernel.eigen_form on a SecondChaosSpectrum), which rejects
    an asymmetric matrix.  Nothing is decomposed here: the closed forms
    read g, and the eigenpairs are computed once, when sampling first reads
    them (see sample_batch).  Dense kernels of higher order have no cheap
    rank-one form and raise UnsupportedRepresentationError.
    """
    if isinstance(kernel, RankOneSumKernel):
        return kernel
    if kernel.order == 1:
        return RankOneSumKernel(order=1, coeffs=np.array([1.0]),
                                vectors=kernel.values[None, :])
    if kernel.order == 2:
        return RankOneSumKernel.eigen_form(
            SecondChaosSpectrum.from_kernel(kernel))
    raise UnsupportedRepresentationError(
        f"dense kernels are supported only at orders 1 and 2; "
        f"use a rank-one sum for order {kernel.order}")


class ChaosSum:
    """F = sum over orders p of the chaos element with kernel f_p.

    Kernels are indexed by order and stored in rank-one-sum form (see
    as_rank_one).  d and N are the smallest and largest present orders.
    """

    def __init__(self, kernels: dict[int, Kernel]):
        if not kernels:
            raise ValidationError("a chaos sum needs at least one kernel")
        canonical = {}
        for order, kernel in kernels.items():
            if order != kernel.order:
                raise ValidationError(
                    f"kernel at key {order} has order {kernel.order}")
            canonical[order] = as_rank_one(kernel)
        dims = {kernel.dim for kernel in canonical.values()}
        if len(dims) != 1:
            raise ValidationError(f"kernels disagree on dimension: {sorted(dims)}")
        self.kernels = dict(sorted(canonical.items()))
        self.dim = dims.pop()

    @property
    def orders(self) -> list[int]:
        return list(self.kernels)

    @property
    def d(self) -> int:
        return self.orders[0]

    @property
    def N(self) -> int:
        return self.orders[-1]

    @property
    def delta_dn(self) -> int:
        """0 for a single chaos, 1 for a genuine sum."""
        return 0 if self.d == self.N else 1


def _unit_terms(F: ChaosSum) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per order: (dim x live terms) unit directions and the weights
    coeffs * ||v||**order.  Zero vectors contribute nothing and are dropped."""
    out = []
    for order, kernel in F.kernels.items():
        norms = np.linalg.norm(kernel.vectors, axis=1)
        live = norms > 0.0
        nrm = norms[live]
        directions = np.ascontiguousarray((kernel.vectors[live] / nrm[:, None]).T)
        out.append((order, directions, kernel.coeffs[live] * nrm ** order))
    return out


def _eigen_terms(F: ChaosSum) -> list[tuple[int, None, np.ndarray]] | None:
    """F's terms in the eigen-coordinates of its order-2 kernel, or None.

    When F is I1(f) + I2(g) or I2(g), and g = sum_i lambda_i u_i^(tensor 2)
    has dim terms that are orthonormal by construction (orthonormal_terms:
    the eigen-form of a dense kernel, see as_rank_one, whose eigenpairs
    are computed here on first use), the u_i are the
    rows of an orthogonal V, and xi = V z is standard Gaussian with
    I2(g)(z) = sum_i lambda_i H_2(xi_i) and I1(f)(z) = <V f, xi>.  The
    terms are then axis-aligned (directions None) with weights lambda and
    V f.  Terms that are merely orthonormal in value take the unit-term
    route.
    """
    g = F.kernels.get(2)
    if (g is None or not set(F.orders) <= {1, 2} or g.terms != F.dim
            or not g.orthonormal_terms):
        return None
    terms = []
    if 1 in F.kernels:
        f = F.kernels[1]
        terms.append((1, None, g.vectors @ (f.coeffs @ f.vectors)))
    terms.append((2, None, g.coeffs))
    return terms


def _eval_block(terms, Z: np.ndarray) -> np.ndarray:
    """Evaluate the chaos sum given by _unit_terms or _eigen_terms on each
    row of Z (rows are independent Gaussian vectors, or their
    eigen-coordinates for axis-aligned terms)."""
    if terms[0][1] is None:
        # axis-aligned: sum_i lambda_i (z_i**2 - 1) + (V f)_i z_i, summed
        # along each row on its own; unlike a BLAS product, a row's rounding
        # does not depend on how many rows Z has
        weights = {order: w for order, _, w in terms}
        out = np.einsum("ij,ij,j->i", Z, Z, weights[2]) - weights[2].sum()
        if 1 in weights:
            out += np.einsum("ij,j->i", Z, weights[1])
        return out
    out = np.zeros(Z.shape[0])
    for order, directions, weights in terms:
        out += hermite(order, Z @ directions) @ weights
    return out


def sample(F: ChaosSum, z: np.ndarray) -> float:
    """One exact sample of F at the standard Gaussian vector z."""
    z = np.asarray(z, dtype=float)
    if z.shape != (F.dim,):
        raise ValidationError(f"expected a vector of length {F.dim}, got {z.shape}")
    return float(_eval_block(_unit_terms(F), z[None, :])[0])


def sample_batch(F: ChaosSum, M: int, seed: int, threads: int = 1,
                 stream: int = 0) -> np.ndarray:
    """M independent samples of F; deterministic in (seed, stream),
    thread-safe.

    Replica r reads its row z of the block normals (streams.block_normals,
    width F.dim).  In general it is sample(F, z).  When F is I1 + I2 or I2
    with its order-2 kernel in eigen-form (see _eigen_terms, and
    as_rank_one for dense kernels), z is read as eigen-coordinates
    instead, and the replica is sample(F, V^T z): V^T z is again standard
    Gaussian, and no dim x dim rotation is formed per block.

    Both routes draw and evaluate a block in row chunks of at most
    streams.CHUNK_NORMALS normals (at most 1 MiB), with the bits of a
    whole-block draw.  Each worker has one zero-filled work array of the
    rows of a full block's first chunk, allocated once per call on the
    calling thread and lent to a block at a time; every chunk is drawn
    into its leading rows and evaluated at its full shape.  So the BLAS
    products of the unit-term route always see the same shapes, and a
    replica's bits do not depend on M, on the thread count or on where
    its chunk falls.  The samples are exact in law; a pathwise value at a
    given Gaussian vector comes from sample only.
    """
    if M < 1:
        raise ValidationError(f"replica count must be >= 1, got {M}")
    out = np.empty(M)
    terms = _eigen_terms(F) or _unit_terms(F)
    workers = block_threads(threads, F.dim)
    # one work array per worker that run_blocks starts, allocated here
    # rather than in a pool thread, whose malloc arena likely keeps what it
    # frees; zero-filled, so rows no chunk has drawn into yet are finite
    rows = next(row_chunks(BLOCK_SIZE, F.dim))[1]
    arrays = queue.SimpleQueue()
    for _ in range(min(workers, -(-M // BLOCK_SIZE))):
        arrays.put(np.zeros((rows, F.dim)))

    def worker(block, start, count):
        generator = block_generator(seed, stream, block)
        Z = arrays.get_nowait()
        for lo, hi in row_chunks(count, F.dim):
            block_normals(seed, stream, block, hi - lo, F.dim, generator,
                          out=Z[:hi - lo])
            out[start + lo:start + hi] = _eval_block(terms, Z)[:hi - lo]
        arrays.put(Z)

    run_blocks(M, worker, threads=workers)
    return out


def second_moment(F: ChaosSum) -> float:
    """E[F**2] = sum_p p! ||f_p||**2 (isometry; orders are orthogonal)."""
    return sum(math.factorial(p) * rank_one_norm_squared(k)
               for p, k in F.kernels.items())


def _order2(g: Kernel) -> RankOneSumKernel:
    g = as_rank_one(g)
    if g.order != 2:
        raise ValidationError(f"expected an order-2 kernel, got order {g.order}")
    return g


def kappa3_I2(g: Kernel) -> float:
    """Third cumulant of the order-2 element with kernel g: 8 sum lambda^3.

    For the eigen-form of a dense matrix g (see as_rank_one) that is
    8 tr g^3 = 8 sum (g g) o g, in row panels (matrix_cube_trace), with no
    eigendecomposition.  Otherwise the nonzero spectrum of
    sum_i a_i v_i v_i^T equals the spectrum of diag(a) G, so
    sum lambda^3 is the trace of its cube in the (terms x terms) space.
    """
    g = _order2(g)
    matrix = g.eigen_matrix
    if matrix is not None:
        return 8.0 * matrix_cube_trace(matrix)
    P = g.coeffs[:, None] * g.gram
    return 8.0 * float(np.sum((P @ P) * P.T))


def kappa4_I2(g: Kernel) -> float:
    """Fourth cumulant of the order-2 element with kernel g:
    48 sum lambda^4 = 48 ||g (x)_1 g||^2, on the routes of
    rank_one_contraction_norm (a Toeplitz row, the matrix of an eigen-form,
    a general Gram)."""
    return 48.0 * rank_one_contraction_norm(_order2(g), 1) ** 2
