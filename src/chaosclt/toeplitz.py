"""The n x n symmetric Toeplitz matrix T(row), held by its first row.

T(row)_ij = row[|i - j|].  The stationary covariance of a path and the
Gram of the Breuer-Major kernels are both of this form; stationary and
kernels reach them through the helpers here and never build the mirrored
row or the dense matrix themselves.  Whether such a covariance is
positive semidefinite is decided here too, once for both (certify_psd).
"""

from __future__ import annotations

import numpy as np

from .errors import TOLERANCE, NumericalError


def mirrored(row: np.ndarray) -> np.ndarray:
    """(row[n-1], ..., row[1], row[0], row[1], ..., row[n-1]): row i of
    T(row) is its window of length n starting at n - 1 - i."""
    return np.concatenate([row[:0:-1], row])


def matrix(row: np.ndarray) -> np.ndarray:
    """T(row) as a C-contiguous array.

    A copy of a strided view of the mirrored row, as scipy.linalg.toeplitz
    builds it, and bit-identical to it.
    """
    windows = np.lib.stride_tricks.sliding_window_view(mirrored(row),
                                                       row.size)
    return windows[::-1].copy()


def matvec(row: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T(row) @ v: one convolution with the mirrored row, in O(n) memory."""
    return np.convolve(mirrored(row), v, "valid")


def pair_counts(n: int) -> np.ndarray:
    """Number of (i, j) pairs in [0,n)^2 with |i - j| = d, d = 0..n-1, so
    that the entries of T(row) sum to pair_counts(n) @ row."""
    counts = 2.0 * (n - np.arange(n))
    counts[0] = n
    return counts


def circulant_eigenvalues(lags: np.ndarray) -> np.ndarray:
    """Eigenvalues at frequencies 0..n of the size-2n circulant embedding of
    T(lags[:n]) (those at n+1..2n-1 repeat them).

    lags holds rho(0..n).  The circulant's first row is rho(0..n) followed
    by the mirrored lags n-1..1, so T(lags[:n]) is its leading principal
    block and, by Cauchy interlacing, has no eigenvalue below the smallest
    of these.
    """
    circ = np.concatenate([lags, lags[-2:0:-1]])
    return np.fft.rfft(circ).real


def certify_psd(lags: np.ndarray) -> np.ndarray:
    """Certify that T = T(lags[:n]) is positive semidefinite, or raise a
    NumericalError naming its eigenvalue; lags holds rho(0..n).

    Returns the eigenvalues of T's size-2n circulant embedding
    (circulant_eigenvalues).  Those in [-TOLERANCE * rho(0), 0) count as
    zeros; if none is lower, T has none either, and they are returned
    clipped at 0.  Else T's own decide, by one eigvalsh, and the embedding's
    are returned as they are: T is then positive semidefinite, but the
    embedding is not, and its negative eigenvalues say so.
    """
    floor = -TOLERANCE * lags[0]
    lam = circulant_eigenvalues(lags)
    if lam.min() < floor:
        low = np.linalg.eigvalsh(matrix(lags[:-1])).min()
        if low < floor:
            raise NumericalError("covariance is not positive semidefinite: "
                                 f"eigenvalue {low:.6g} below {floor:g}")
        return lam
    return np.clip(lam, 0.0, None)


# product_trace carries len(pairs) (rows + 1) n floats, with rows =
# _TRACE_BUDGET // (len(pairs) n) - 1 clamped to [_TRACE_MIN_ROWS,
# _TRACE_MAX_ROWS]: a budget of 2^16 floats (512 KiB) keeps the blocks in
# a core's L2 cache, which 64 rows outgrow from n ~ 500 on; below 8 rows
# the per-block calls cost more than the cache saves.
_TRACE_BUDGET = 1 << 16
_TRACE_MIN_ROWS = 8
_TRACE_MAX_ROWS = 64


def product_trace(alpha: np.ndarray, beta: np.ndarray) -> float:
    """<T(alpha) T(beta), T(beta) T(alpha)>_F in O(n^2) time, O(n) memory.

    Row i of T(beta) T(alpha) is column i of C = T(alpha) T(beta), so the
    inner product is the sum over i of the dot products of the two rows i.
    Row 0 of T(x) T(y) is (T(y) x)^T, and shifting the summation index one
    step down a diagonal gives

        row_(i+1)[j+1] = row_i[j] + x_(i+1) y_(j+1) - x_(n-1-i) y_(n-1-j),

    with row_(i+1)[0] entry i+1 of row 0 of T(y) T(x).  Both rows are
    carried forward together, a block of rows at a time: the rank-two terms
    of a block are one matrix product, then each row adds its predecessor
    shifted by one.  When alpha equals beta, T(alpha)^2 is symmetric and one
    row is carried.  The blocks take len(pairs) (rows + 1) n floats, where
    len(pairs) is the number of carried rows (1 or 2) and rows =
    _TRACE_BUDGET // (len(pairs) n) - 1, clamped to [_TRACE_MIN_ROWS,
    _TRACE_MAX_ROWS] and to at most the streamed rows after row 0: within
    the 512 KiB budget up to n ~ 3600 for two carried rows, and 9 rows of
    n a pair beyond (1.1 MiB at n = 8192).

    Only rows 0 .. ceil(n/2) - 1 are streamed.  A symmetric Toeplitz T is
    persymmetric, J T J = T for the index reversal J, so J C J = C: row
    n-1-i of C is row i reversed, and so is that of T(beta) T(alpha).  As
    <rev u, rev v> = <u, v>, rows i and n-1-i add the same dot product, and
    the trace is twice the sum over i < floor(n/2), plus the middle row's
    once when n is odd.
    """
    n = alpha.size
    half, odd = divmod(n, 2)
    streamed = half + odd
    pairs = ([(alpha, beta)] if np.array_equal(alpha, beta)
             else [(alpha, beta), (beta, alpha)])
    firsts = [matvec(y, x) for x, y in pairs]
    # the dot products of rows 0 .. half - 1, each standing for two rows
    total = float(firsts[0] @ firsts[-1]) if half else 0.0
    # rows per block; at least 1 when n <= 2 streams no row after row 0
    size = min(max(_TRACE_BUDGET // (len(pairs) * n) - 1, _TRACE_MIN_ROWS),
               _TRACE_MAX_ROWS, max(streamed - 1, 1))
    # rows[t, 0] holds the last row of the previous block
    rows = np.empty((len(pairs), size + 1, n))
    rows[:, 0] = firsts
    terms = [np.stack([y[1:], y[:0:-1]]) for _, y in pairs]
    # row i of weights is (x_i, -x_(n-i)), i = 1 .. streamed - 1
    weights = [np.stack([x[1:streamed], -x[n - 1:n - streamed:-1]], axis=1)
               for x, _ in pairs]
    # (row i, row i - 1 shifted by one) of each block, i = 1 .. size
    steps = [[(block[i, 1:], block[i - 1, :-1])
              for i in range(1, size + 1)] for block in rows]
    for start in range(1, streamed, size):
        stop = min(start + size, streamed)
        count = stop - start
        # column 0 of T(x) T(y) is row 0 of T(y) T(x)
        for weight, term, head, block, step in zip(weights, terms,
                                                   firsts[::-1], rows, steps):
            np.matmul(weight[start - 1:stop - 1], term,
                      out=block[1:count + 1, 1:])
            block[1:count + 1, 0] = head[start:stop]
            for row, previous in step[:count]:
                np.add(row, previous, out=row)
        paired = min(stop, half) - start
        total += float(np.vdot(rows[0, 1:paired + 1], rows[-1, 1:paired + 1]))
        rows[:, 0] = rows[:, count]
    # rows[:, 0] now holds row streamed - 1, the middle row when n is odd
    middle = float(rows[0, 0] @ rows[-1, 0]) if odd else 0.0
    return 2.0 * total + middle
