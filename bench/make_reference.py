#!/usr/bin/env python3
"""Write bench/reference.json: the deterministic outputs the benchmark's
correctness checks compare against, for every scale.

    python3 bench/make_reference.py

Bound columns, bound terms and nz ratios are recorded from one op of each
workload.  For rates_fgn it also records the exact Kolmogorov distance of
the standardized quadratic variation at each n, computed without Monte
Carlo: Q - E[Q] is a weighted sum of centered chi-square(1) variables with
the covariance eigenvalues as weights, whose CDF follows from its
characteristic function by Gil-Pelaez inversion.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scipy.integrate import quad  # noqa: E402
from scipy.linalg import eigvalsh, toeplitz  # noqa: E402
from scipy.optimize import minimize_scalar  # noqa: E402
from scipy.special import ndtr  # noqa: E402

from chaosclt.stationary import CovarianceFunction  # noqa: E402
from workloads import (HURST, RATES_GRID, REFERENCE_PATH, BmBound,  # noqa: E402
                       RatesFgn, RatioSweep)


def exact_d_kol_quadratic_variation(hurst: float, n: int) -> float:
    """sup_x |P(T <= x) - Phi(x)| for T the standardized (1/n) sum Z_i^2."""
    mu = eigvalsh(toeplitz(CovarianceFunction.fgn(hurst).lag_array(n)))
    w = mu / math.sqrt(2.0 * float(mu @ mu))

    def cdf(x):
        def integrand(t):
            log_cf = np.sum(-0.5 * np.log(1.0 - 2j * w * t) - 1j * w * t)
            return np.exp(log_cf - 1j * t * x).imag / t
        return 0.5 - quad(integrand, 0.0, np.inf, limit=400)[0] / math.pi

    def gap(x):
        return -abs(cdf(x) - ndtr(x))

    xs = np.linspace(-4.0, 5.0, 181)
    best = xs[int(np.argmin([gap(x) for x in xs]))]
    step = xs[1] - xs[0]
    res = minimize_scalar(gap, bounds=(best - step, best + step),
                          method="bounded", options={"xatol": 1e-6})
    return max(-res.fun, -gap(best))


def main() -> int:
    d_exact = [exact_d_kol_quadratic_variation(HURST, n) for n in RATES_GRID]
    reference = {}
    for scale in ("full", "smoke"):
        reference[scale] = {}
        for cls in (RatesFgn, RatioSweep, BmBound):
            workload = cls(seed=0, threads=2, scale=scale)
            reference[scale][cls.name] = cls.deterministic(workload.op(0))
        reference[scale][RatesFgn.name]["d_kol_exact"] = d_exact
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
