"""Symmetric tensor kernels over R^n and their contraction calculus.

Two representations coexist:

* DenseKernel stores all n**p entries and supports the full calculus
  (symmetrize, contract, inner).  It serves as the oracle that the closed
  forms are tested against and as a JSON input format (chaos.ChaosSum
  converts dense inputs to rank-one sums once), so storage is deliberately
  naive and guarded.
* RankOneSumKernel represents sum_i a_i v_i^(tensor p) and evaluates norms,
  self-contraction norms, and mixed inner products in closed form through
  the Gram matrix of its vectors, without ever materializing n**p entries.

The ambient Hilbert space is always R^n with the Euclidean inner product;
correlated sequences enter through explicit vectors obtained from a square
root of their covariance matrix (see breuer_major_kernels), so every
contraction below is a plain Euclidean sum.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
from scipy.linalg import matmul_toeplitz, toeplitz

from .errors import ValidationError
from .stationary import EIG_CLAMP, CovarianceFunction, HermiteEvenCoeffs

__all__ = [
    "DenseKernel",
    "RankOneSumKernel",
    "DENSE_ENTRY_GUARD",
    "symmetrize",
    "contract",
    "inner",
    "norm",
    "is_symmetric",
    "rank_one_norm_squared",
    "rank_one_contraction_norm",
    "rank_one_mixed_inner",
    "breuer_major_kernels",
    "kernel_to_json",
    "kernel_from_json",
]

DENSE_ENTRY_GUARD = 10_000_000


def _check_entry_budget(dim: int, order: int, guard: int = DENSE_ENTRY_GUARD) -> None:
    if dim ** order > guard:
        raise ValidationError(
            f"dense kernel with dim={dim}, order={order} needs {dim ** order} "
            f"entries, above the {guard} entry guard")


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
        self.values = values

    @property
    def order(self) -> int:
        return self.values.ndim

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "DenseKernel":
        return cls(np.asarray(v, dtype=float))

    def __repr__(self):
        return f"DenseKernel(order={self.order}, dim={self.dim})"


class RankOneSumKernel:
    """sum_i coeffs[i] * vectors[i]^(tensor order), symmetric by construction.

    stationary=True asserts that the Gram matrix <v_i, v_j> depends only on
    i - j (a Toeplitz matrix); the closed-form contraction routines then
    multiply through FFT-based Toeplitz products instead of dense BLAS.
    The flag is trusted, not auto-detected.
    """

    def __init__(self, order: int, coeffs: np.ndarray, vectors: np.ndarray,
                 stationary: bool = False, gram: np.ndarray | None = None):
        if order < 1:
            raise ValidationError(f"kernel order must be >= 1, got {order}")
        coeffs = np.asarray(coeffs, dtype=float)
        vectors = np.asarray(vectors, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("need at least one rank-one term")
        if vectors.ndim != 2 or vectors.shape[0] != coeffs.size:
            raise ValidationError(
                f"vectors must be (terms, dim), got {vectors.shape} for "
                f"{coeffs.size} terms")
        self.order = order
        self.coeffs = coeffs
        self.vectors = vectors
        self.stationary = stationary
        self._gram = None if gram is None else np.asarray(gram, dtype=float)
        if self._gram is not None and self._gram.shape != (coeffs.size, coeffs.size):
            raise ValidationError("gram override has the wrong shape")

    @property
    def terms(self) -> int:
        return self.coeffs.size

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = self.vectors @ self.vectors.T
        return self._gram

    def densify(self) -> DenseKernel:
        _check_entry_budget(self.dim, self.order)
        acc = np.zeros((self.dim,) * self.order)
        for a, v in zip(self.coeffs, self.vectors):
            acc += a * reduce(np.multiply.outer, [v] * self.order)
        return DenseKernel(acc)

    def __repr__(self):
        return (f"RankOneSumKernel(order={self.order}, terms={self.terms}, "
                f"dim={self.dim}, stationary={self.stationary})")


# ---------------------------------------------------------------------------
# dense calculus
# ---------------------------------------------------------------------------

def symmetrize(f: DenseKernel) -> DenseKernel:
    """Average of f over all order! permutations of its indices."""
    p = f.order
    if p == 1:
        return f
    acc = np.zeros_like(f.values)
    count = 0
    for perm in itertools.permutations(range(p)):
        acc += np.transpose(f.values, perm)
        count += 1
    return DenseKernel(acc / count)


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


def inner(f: DenseKernel, g: DenseKernel) -> float:
    """Euclidean inner product of the coefficient arrays."""
    if f.values.shape != g.values.shape:
        raise ValidationError(
            f"shape mismatch: {f.values.shape} vs {g.values.shape}")
    return float(np.vdot(f.values, g.values))


def norm(f: DenseKernel) -> float:
    return math.sqrt(inner(f, f))


def is_symmetric(f: DenseKernel, tol: float = 1e-10, rng=None) -> bool:
    """Check permutation symmetry; exhaustive for order <= 4, sampled above."""
    p = f.order
    if p == 1:
        return True
    scale = max(1.0, float(np.abs(f.values).max()))
    if p <= 4:
        for perm in itertools.permutations(range(p)):
            if np.abs(np.transpose(f.values, perm) - f.values).max() > tol * scale:
                return False
        return True
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(64):
        idx = tuple(rng.integers(0, f.dim, size=p))
        perm = tuple(rng.permutation(p))
        if abs(f.values[idx] - f.values[tuple(idx[k] for k in perm)]) > tol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms for rank-one sums
# ---------------------------------------------------------------------------

def _toeplitz_matmul(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x where mat is (asserted) symmetric Toeplitz."""
    return matmul_toeplitz((mat[:, 0], mat[0, :]), x)


def rank_one_norm_squared(k: RankOneSumKernel) -> float:
    """<k, k> = sum_{i,j} a_i a_j <v_i, v_j>**order."""
    gp = k.gram ** k.order
    return float(k.coeffs @ gp @ k.coeffs)


def rank_one_contraction_norm(k: RankOneSumKernel, r: int) -> float:
    """|| k (x)_r k || without densification.

    Expanding both copies over their rank-one terms turns the squared norm
    into a quadruple sum of Gram powers,

        sum a_i a_j a_k a_l  G_ij^(p-r) G_kl^(p-r) G_ik^r G_jl^r,

    which is <B, M B M>_F for B = G**(p-r) and M = diag(a) G**r diag(a).
    The stationary flag swaps the dense products for Toeplitz multiplies.
    """
    p = k.order
    if not 1 <= r <= p - 1:
        raise ValidationError(f"need 1 <= r <= {p - 1}, got r={r}")
    a = k.coeffs
    A = k.gram ** r
    B = k.gram ** (p - r)
    if k.stationary and k.terms > 2:
        mb = a[:, None] * _toeplitz_matmul(A, a[:, None] * B)
        mbm = (a[:, None] * _toeplitz_matmul(A, a[:, None] * mb.T)).T
    else:
        M = (a[:, None] * A) * a[None, :]
        mbm = M @ B @ M
    val = float(np.sum(B * mbm))
    return math.sqrt(max(val, 0.0))


def rank_one_mixed_inner(kp: RankOneSumKernel, kq: RankOneSumKernel) -> float:
    """<kp (x) kp, kq (x)_{q-p} kq> for orders p < q.

    Equals sum_{i,j,k,l} a_i a_j b_k b_l <v_i,w_k>**p <v_j,w_l>**p
    <w_k,w_l>**(q-p), i.e. u^T Gw**(q-p) u with u_k = b_k sum_i a_i <v_i,w_k>**p.
    """
    p, q = kp.order, kq.order
    if q <= p:
        raise ValidationError(f"need order(kq) > order(kp), got {q} <= {p}")
    if kp.dim != kq.dim:
        raise ValidationError(f"dimension mismatch: {kp.dim} vs {kq.dim}")
    cross = (kp.vectors @ kq.vectors.T) ** p
    u = (kp.coeffs @ cross) * kq.coeffs
    gw = kq.gram ** (q - p)
    if kq.stationary and kq.terms > 2:
        return float(u @ _toeplitz_matmul(gw, u))
    return float(u @ gw @ u)


# ---------------------------------------------------------------------------
# Breuer-Major kernels
# ---------------------------------------------------------------------------

def breuer_major_kernels(rho: CovarianceFunction, n: int,
                         coeffs: HermiteEvenCoeffs) -> list[RankOneSumKernel]:
    """Kernels f_{2k} = (lambda_{2k}/sqrt(n)) sum_i eps_i^(tensor 2k).

    The eps_i are rows of a square root of the n x n correlation matrix of
    the standardized sequence, so <eps_i, eps_j> = rho(i-j)/rho(0); the Gram
    matrix is passed through exactly, keeping it Toeplitz for the stationary
    fast paths.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    corr = toeplitz(rho.lag_array(n) / rho.rho0)
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < -EIG_CLAMP:
        raise ValidationError(
            "covariance matrix is not positive semidefinite: eigenvalue "
            f"{eigvals.min():.6g}")
    eps = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    scale = 1.0 / math.sqrt(n)
    return [
        RankOneSumKernel(order=order, coeffs=np.full(n, lam * scale),
                         vectors=eps, stationary=True, gram=corr)
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
            "stationary": kernel.stationary,
            "terms": [
                {"coeff": float(a), "vector": v.tolist()}
                for a, v in zip(kernel.coeffs, kernel.vectors)
            ],
        }
    raise ValidationError(f"not a kernel: {type(kernel).__name__}")


def kernel_from_json(data: dict, where: str = "kernel") -> DenseKernel | RankOneSumKernel:
    """Inverse of kernel_to_json; errors carry the offending location."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object, got {type(data).__name__}")
    rep = data.get("representation")
    try:
        order = int(data["order"])
        dim = int(data["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: missing or bad order/dim ({exc})") from None
    if rep == "dense":
        values = np.asarray(data.get("values", []), dtype=float)
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
            try:
                coeffs.append(float(term["coeff"]))
                vec = np.asarray(term["vector"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"{where}.terms[{i}]: {exc}") from None
            if vec.shape != (dim,):
                raise ValidationError(
                    f"{where}.terms[{i}]: vector has shape {vec.shape}, "
                    f"expected ({dim},)")
            vectors.append(vec)
        return RankOneSumKernel(order=order, coeffs=np.array(coeffs),
                                vectors=np.array(vectors),
                                stationary=bool(data.get("stationary", False)))
    raise ValidationError(f"{where}: unknown representation {rep!r}")
