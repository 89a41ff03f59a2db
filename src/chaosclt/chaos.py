"""Finite chaos sums: exact sampling on explicit Gaussian vectors, exact
second moments through the isometry, and second-chaos cumulants (kappa_3
from the spectrum, kappa_4 from the 1-contraction norm).

Every computation here runs on the rank-one-sum representation.  Dense
kernels are accepted at the ChaosSum boundary, at orders 1 (one term) and 2
(the eigen-form of the symmetric matrix), and canonicalized once by
as_rank_one; a dense kernel of any higher order is rejected.

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
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRepresentationError, ValidationError
from .hermite import hermite
from .kernels import (DenseKernel, Gram, RankOneSumKernel, is_symmetric,
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


@dataclass(frozen=True)
class SecondChaosSpectrum:
    """Eigendecomposition of an order-2 kernel; eigenvectors in columns.

    All eigenvalues are kept, including numerically tiny ones: they change
    nothing and thresholding would silently bias cumulants.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_kernel(cls, g: DenseKernel) -> "SecondChaosSpectrum":
        if g.order != 2:
            raise ValidationError(
                f"expected an order-2 kernel, got order {g.order}")
        if not is_symmetric(g):
            raise ValidationError("order-2 kernel is not symmetric")
        w, u = np.linalg.eigh(g.values)
        return cls(eigenvalues=w, eigenvectors=u)


def as_rank_one(kernel: Kernel) -> RankOneSumKernel:
    """The rank-one-sum form of a kernel; rank-one sums pass through.

    A dense order-1 kernel f becomes the single term f, and a dense order-2
    kernel its eigen-form sum_i lambda_i u_i^(tensor 2), which rejects an
    asymmetric matrix; the eigenvectors u_i are orthonormal, so that form
    is built on a Gram that is exactly the identity (see sample_batch).
    Dense kernels of higher order have no cheap
    rank-one form and raise UnsupportedRepresentationError.
    """
    if isinstance(kernel, RankOneSumKernel):
        return kernel
    if kernel.order == 1:
        return RankOneSumKernel(order=1, coeffs=np.array([1.0]),
                                vectors=kernel.values[None, :])
    if kernel.order == 2:
        spec = SecondChaosSpectrum.from_kernel(kernel)
        return RankOneSumKernel.from_gram(
            2, spec.eigenvalues, Gram.orthonormal(spec.eigenvectors.T))
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


def _is_identity(G: np.ndarray) -> bool:
    """Whether the square G is exactly the identity, as
    np.array_equal(G, np.eye(len(G))) decides (NaN unequal, -0.0 equal to
    0.0), without forming that identity: a unit diagonal and no other
    nonzero entry, NaN counting as nonzero."""
    return bool(np.all(np.diagonal(G) == 1.0)
                and np.count_nonzero(G) == len(G))


def _eigen_terms(F: ChaosSum) -> list[tuple[int, None, np.ndarray]] | None:
    """F's terms in the eigen-coordinates of its order-2 kernel, or None.

    When F is I1(f) + I2(g) or I2(g), and g = sum_i lambda_i u_i^(tensor 2)
    has dim terms on a Gram that is exactly the identity, the u_i are the
    rows of an orthogonal V, and xi = V z is standard Gaussian with
    I2(g)(z) = sum_i lambda_i H_2(xi_i) and I1(f)(z) = <V f, xi>.  The
    terms are then axis-aligned (directions None) with weights lambda and
    V f.
    """
    g = F.kernels.get(2)
    if (g is None or not set(F.orders) <= {1, 2} or g.terms != F.dim
            or not (g.orthonormal_terms or _is_identity(g.gram))):
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
    Gaussian, and no dim x dim rotation is formed per block.  That route
    evaluates each row on its own, so its replicas do not depend on the
    block's row count, and it draws and evaluates a block in row chunks
    of at most streams.CHUNK_NORMALS normals (at most 1 MiB), with the bits
    of a whole-block draw.  Every other sum draws its blocks whole (F.dim
    normals per replica, 4 MiB at dim 512).  Each worker draws into one
    work array of the size of the first chunk, allocated once per call on
    the calling thread and lent to a block at a time.  The samples are
    exact in law; a pathwise value at a given Gaussian vector comes from
    sample only.
    """
    if M < 1:
        raise ValidationError(f"replica count must be >= 1, got {M}")
    out = np.empty(M)
    eigen_terms = _eigen_terms(F)
    terms = eigen_terms or _unit_terms(F)
    workers = block_threads(threads, F.dim)
    # one work array per worker that run_blocks starts, shaped for the
    # first, largest block's first chunk; allocated here rather than in a
    # pool thread, whose malloc arena likely keeps what it frees
    first = min(M, BLOCK_SIZE)
    rows = next(row_chunks(first, F.dim))[1] if eigen_terms else first
    arrays = queue.SimpleQueue()
    for _ in range(min(workers, -(-M // BLOCK_SIZE))):
        arrays.put(np.empty((rows, F.dim)))

    def worker(block, start, count):
        # the eigen route evaluates each row on its own, so row chunks of
        # the block's generator keep every bit; the BLAS products of the
        # unit-term route can round a row differently with the number of
        # rows, so it draws and evaluates the block whole
        chunks = (row_chunks(count, F.dim) if eigen_terms
                  else [(0, count)])
        generator = block_generator(seed, stream, block)
        Z = arrays.get_nowait()
        for lo, hi in chunks:
            block_normals(seed, stream, block, hi - lo, F.dim, generator,
                          out=Z[:hi - lo])
            out[start + lo:start + hi] = _eval_block(terms, Z[:hi - lo])
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

    The nonzero spectrum of sum_i a_i v_i v_i^T equals the spectrum of
    diag(a) G, so sum lambda^3 is the trace of its cube in the
    (terms x terms) space.  On an orthonormal Gram (the eigen-form of a
    dense kernel, see as_rank_one) diag(a) G = diag(a), and it is
    sum a^3, in O(terms).
    """
    g = _order2(g)
    if g.orthonormal_terms:
        return 8.0 * float(np.sum(g.coeffs ** 3))
    P = g.coeffs[:, None] * g.gram
    return 8.0 * float(np.sum((P @ P) * P.T))


def kappa4_I2(g: Kernel) -> float:
    """Fourth cumulant of the order-2 element with kernel g:
    48 sum lambda^4 = 48 ||g (x)_1 g||^2, on the routes of
    rank_one_contraction_norm (a Toeplitz row, an orthonormal Gram)."""
    return 48.0 * rank_one_contraction_norm(_order2(g), 1) ** 2
