"""The n x n symmetric Toeplitz matrix T(row), held by its first row.

T(row)_ij = row[|i - j|].  The stationary covariance of a path and the
Gram of the Breuer-Major kernels are both of this form; stationary and
kernels reach them through the helpers here and never build the mirrored
row or the dense matrix themselves.
"""

from __future__ import annotations

import numpy as np


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


# rows carried per block by product_trace: its memory is
# 2 (_TRACE_BLOCK + 1) n floats
_TRACE_BLOCK = 64


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
    row is carried.
    """
    n = alpha.size
    pairs = ([(alpha, beta)] if np.array_equal(alpha, beta)
             else [(alpha, beta), (beta, alpha)])
    firsts = [matvec(y, x) for x, y in pairs]
    total = float(firsts[0] @ firsts[-1])
    # rows[t, 0] holds the last row of the previous block
    rows = np.empty((len(pairs), _TRACE_BLOCK + 1, n))
    rows[:, 0] = firsts
    terms = [np.stack([y[1:], y[:0:-1]]) for _, y in pairs]
    for start in range(1, n, _TRACE_BLOCK):
        stop = min(start + _TRACE_BLOCK, n)
        count = stop - start
        # column 0 of T(x) T(y) is row 0 of T(y) T(x)
        for (x, _), term, head, block in zip(pairs, terms, firsts[::-1], rows):
            weights = np.stack([x[start:stop], -x[n - start:n - stop:-1]],
                               axis=1)
            np.matmul(weights, term, out=block[1:count + 1, 1:])
            block[1:count + 1, 0] = head[start:stop]
            for i in range(1, count + 1):
                block[i, 1:] += block[i - 1, :-1]
        total += float(np.vdot(rows[0, 1:count + 1], rows[-1, 1:count + 1]))
        rows[:, 0] = rows[:, count]
    return total
