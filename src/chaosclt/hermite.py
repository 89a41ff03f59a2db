"""Probabilists' Hermite polynomials and monomial expansion coefficients.

Convention: leading coefficient 1, orthogonal under the standard normal
weight with E[H_p(Z) H_q(Z)] = delta_pq * p!.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# Factorial-bearing coefficient formulas are evaluated in float64; beyond
# this order the intermediate factorials lose integer exactness.
MAX_MONOMIAL_ORDER = 32


def hermite(q: int, x):
    """H_q(x) via the recurrence H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).

    Accepts scalars or arrays; returns the same shape in a new array, and
    leaves x unmodified.  The recurrence updates three buffers in place, so
    no step allocates.
    """
    if q < 0:
        raise ValidationError(f"Hermite order must be nonnegative, got {q}")
    x = np.asarray(x, dtype=float)
    if q == 0:
        h = np.ones_like(x)
    elif q == 1:
        h = x.copy()
    else:
        h = x.copy()
        h *= x
        h -= 1.0
        if q > 2:
            h_prev, buf = x.copy(), np.empty_like(x)
            for k in range(2, q):
                np.multiply(x, h, out=buf)
                h_prev *= k
                buf -= h_prev
                h_prev, h, buf = h, buf, h_prev
    return h if h.ndim else float(h)


def hermite_monomial_coeffs(q: int) -> np.ndarray:
    """Coefficients c[k], k = 0..q/2, of x**q = sum_k c[k] H_{2k}(x).

    c[k] = q! / (2**(q/2 - k) * (q/2 - k)! * (2k)!), so c[q/2] = 1.
    Only even q are expandable in even-order polynomials alone.
    """
    if q % 2 != 0 or q < 2:
        raise ValidationError(f"monomial order must be even and >= 2, got {q}")
    if q > MAX_MONOMIAL_ORDER:
        raise ValidationError(
            f"monomial order capped at {MAX_MONOMIAL_ORDER}, got {q}")
    half = q // 2
    qfact = math.factorial(q)
    return np.array([
        qfact / (2.0 ** (half - k) * math.factorial(half - k)
                 * math.factorial(2 * k))
        for k in range(half + 1)
    ])
