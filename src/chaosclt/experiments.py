"""Experiment runners behind the CLI: rate reproduction for fGn power
variations, bound reports for serialized kernels, the ratio family sweep,
and the cross-sum diagnostic.

Every runner consumes a validated config dataclass (parsed from a JSON
document, flags override fields) and produces a ResultTable whose rows are
byte-reproducible for a fixed (config, seed, version).  Timing is printed to
the console, never written into result files.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .bounds import chaos_sum_bound, fgn_rate, nz_ratio_diagnostic, phi, \
    power_variation_bound
from .chaos import ChaosSum
from .distances import EmpiricalSample, kolmogorov_distance, rate_fit
from .errors import (NumericalError, ValidationError, check_even_power,
                     check_known_keys, checked_integer, checked_real)
from .hermite import MAX_MONOMIAL_ORDER
from .kernels import RankOneSumKernel, kernel_from_json
from .ratio import Perturbations, RatioFamily, ratio_bound, \
    sample_ratio_batch
from .stationary import CovarianceFunction, PathSampler, even_power, \
    exact_variance_power_variation, power_variation_mean
from .streams import KEY_LIMIT, STREAM_PROTOCOL, block_threads, run_blocks

__all__ = [
    "ResultTable",
    "RatesConfig",
    "BoundConfig",
    "RatioConfig",
    "NzConfig",
    "run_rates",
    "run_bound_report",
    "run_ratio",
    "run_nz_diagnostics",
]


@dataclass
class ResultTable:
    """Ordered rows plus run metadata; CSV serialization is deterministic.

    The rows are the schema: the CSV header is the first row's keys, in
    their order, and every other row must have the same keys in the same
    order."""

    rows: list[dict]
    metadata: dict

    def to_csv_string(self) -> str:
        header = list(self.rows[0])
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for i, row in enumerate(self.rows):
            if list(row) != header:
                raise ValueError(f"row {i}'s keys {list(row)} differ from "
                                 f"the header {header}")
            buf.write(",".join(_csv_cell(v) for v in row.values()) + "\n")
        return buf.getvalue()


def _csv_cell(value) -> str:
    # coerce numpy scalars so cells render as plain round-trippable literals
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# The bytes that the arrays sized by one config key may take.  A config
# over it is rejected when it is built, before any array exists, so an
# oversized key exits 1 instead of ending in numpy's MemoryError.  The
# float counts passed to _check_size are tracemalloc peaks of one-thread
# runs, rounded up: a rates run holds ~10 floats per path entry (another
# worker adds ~6) and len(set(n_grid)) + 3 per replica, a diagnose-nz run
# ~9 per lag of its m * n, a ratio run ~3.3 per replica.  A bound input's
# rank-one sums are checked as they are read: the general closed forms
# hold T x T Gram arrays, ~4 floats per unit of sum T_j^2 over its kernels
# of T_j terms (one order-2 kernel; orders {2, 4} take ~2.5).
SIZE_BUDGET = 1 << 30
_FLOATS_PER_LAG = 16
_FLOATS_PER_TERM_PAIR = 6


def _check_size(what: str, floats: int) -> None:
    _require(8 * floats <= SIZE_BUDGET,
             f"{what} would size arrays of about {8 * floats:.3g} bytes, "
             f"over the size budget of {SIZE_BUDGET} bytes")


def _largest(grid: list[int], name: str) -> tuple[str, int]:
    """(located name, value) of the largest entry of a size grid."""
    i = max(range(len(grid)), key=grid.__getitem__)
    return f"{name}[{i}] = {grid[i]}", grid[i]


def _grid(values, name: str, convert, **limits) -> list:
    """A nonempty list of converted entries, each located by index."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValidationError(f"{name} must be a nonempty list, got {values!r}")
    return [convert(v, f"{name}[{i}]", **limits) for i, v in enumerate(values)]


def _config_from_dict(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be an object, got {data!r}")
    check_known_keys(data, {f.name for f in fields(cls)}, where)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

@dataclass
class RatesConfig:
    hurst: float
    n_grid: list[int]
    replicas: int
    seed: int
    q: int = 2
    threads: int = 1

    def __post_init__(self):
        self.n_grid = _grid(self.n_grid, "n_grid", checked_integer, minimum=1)
        self.replicas = checked_integer(self.replicas, "replicas", 100)
        self.seed = checked_integer(self.seed, "seed", 0, KEY_LIMIT)
        self.q = checked_integer(self.q, "q", 2, MAX_MONOMIAL_ORDER + 1)
        check_even_power(self.q, "q")
        self.threads = checked_integer(self.threads, "threads", 1)
        self.hurst = checked_real(self.hurst, "hurst")
        _require(0.0 < self.hurst < 0.75,
                 f"rate experiment requires 0 < H < 3/4, got {self.hurst}")
        _check_size(f"replicas = {self.replicas}",
                    self.replicas * (len(set(self.n_grid)) + 3))
        where, n = _largest(self.n_grid, "n_grid")
        _check_size(where, _FLOATS_PER_LAG * n)

    @classmethod
    def from_dict(cls, data: dict) -> "RatesConfig":
        return _config_from_dict(cls, data, "rates config")


def _power_variation_samples(cov: CovarianceFunction, n_grid: list[int],
                             q: int, M: int, seed: int,
                             threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Q_{q,n} over M replicas for every n in n_grid, from one path each.

    The first n entries of an exact stationary path of length max(n_grid)
    are an exact path of length n, so replica r draws one such path on
    stream 0 and reads Q_{q,n} off the prefix sums of its q-th powers.
    Returns the sorted distinct grid ends and an (M, len(ends)) table whose
    column j holds Q_{q,ends[j]}.
    """
    ends = np.array(sorted(set(n_grid)), dtype=np.intp)
    starts = np.concatenate(([0], ends[:-1]))
    sampler = PathSampler(cov, int(ends[-1]))
    out = np.empty((M, ends.size))

    def worker(block, start, count):
        for lo, paths in sampler.sample_chunks(seed, 0, block, count):
            even_power(paths, q, out=paths)
            segments = np.add.reduceat(paths, starts, axis=1)
            rows = slice(start + lo, start + lo + len(paths))
            np.cumsum(segments, axis=1, out=out[rows])

    run_blocks(M, worker,
               threads=block_threads(threads, sampler.normals_per_replica))
    out /= ends
    return ends, out


def run_rates(config: RatesConfig) -> ResultTable:
    """Estimate d_Kol of standardized power variations across the n grid,
    fit the log-log rate over the distinct n (none with fewer than two),
    and report the covariance-sum bound per n.

    Every grid point reads the same replicas (prefixes of one path of
    length max(n_grid)), so the points, and the residual of the rate fit,
    are dependent."""
    cov = CovarianceFunction.fgn(config.hurst)
    mean_q = power_variation_mean(cov.rho0, config.q)
    ends, table = _power_variation_samples(cov, config.n_grid, config.q,
                                           config.replicas, config.seed,
                                           config.threads)
    rows = []
    distances = {}  # one point per distinct n: duplicated rows are equal
    for n in config.n_grid:
        variance = exact_variance_power_variation(cov, config.q, n)
        samples = table[:, np.searchsorted(ends, n)]
        standardized = (samples - mean_q) / math.sqrt(variance)
        d = kolmogorov_distance(EmpiricalSample.from_data(standardized), 0.0, 1.0)
        report = power_variation_bound(cov, n, variance=n * variance)
        rows.append({
            "hurst": config.hurst, "q": config.q, "n": n,
            "replicas": config.replicas, "seed": config.seed, "stream": 0,
            "d_kol": d,
            # ECDF fluctuation scale at the supremum point
            "d_kol_se": 0.5 / math.sqrt(config.replicas),
            **{f"bound_{label}": v for label, v in report.terms.items()},
            "bound_total": report.total,
        })
        distances[n] = d
    fit = rate_fit(list(distances.items())) if len(distances) >= 2 else None
    prediction = fgn_rate(config.hurst)
    metadata = {
        "experiment": "rates",
        "version": __version__,
        "stream_protocol": STREAM_PROTOCOL,
        "config": asdict(config),
        "path_length": int(ends[-1]),
        "fitted_slope": None if fit is None else fit.slope,
        "fitted_intercept": None if fit is None else fit.intercept,
        "fit_residual": None if fit is None else fit.residual,
        "predicted_exponent": prediction.exponent,
        "predicted_log_power": prediction.log_power,
    }
    return ResultTable(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

@dataclass
class BoundConfig:
    inputs: list[dict]

    def __post_init__(self):
        _require(isinstance(self.inputs, list) and bool(self.inputs),
                 "inputs must be a nonempty list")

    @classmethod
    def from_dict(cls, data: dict) -> "BoundConfig":
        return _config_from_dict(cls, data, "bound config")


def run_bound_report(config: BoundConfig) -> tuple[ResultTable, list[dict]]:
    """Evaluate the chaos-sum bound (and phi when orders {1, 2} are both
    present) for each serialized kernel set.

    Returns the summary table and the full JSON-ready report documents.
    """
    rows = []
    documents = []
    for i, item in enumerate(config.inputs):
        where = f"inputs[{i}]"
        if not isinstance(item, dict) or "kernels" not in item:
            raise ValidationError(f"{where}: expected an object with a "
                                  f"'kernels' list")
        check_known_keys(item, ("label", "kernels"), where)
        label = item.get("label", f"input-{i}")
        if not isinstance(label, str):
            raise ValidationError(f"{where}.label: must be a string")
        kernel_list = item["kernels"]
        if not isinstance(kernel_list, list) or not kernel_list:
            raise ValidationError(f"{where}.kernels: expected a nonempty list")
        kernels = {}
        term_pairs = 0
        for j, kdata in enumerate(kernel_list):
            kernel = kernel_from_json(kdata, where=f"{where}.kernels[{j}]")
            if isinstance(kernel, RankOneSumKernel):
                term_pairs += kernel.terms ** 2
                _check_size(f"{where}.kernels[{j}] with {kernel.terms} terms",
                            _FLOATS_PER_TERM_PAIR * term_pairs)
            if kernel.order in kernels:
                raise ValidationError(
                    f"{where}: duplicate kernel order {kernel.order}")
            kernels[kernel.order] = kernel
        # a sum that overflows float64 raises a located NumericalError
        # below, so numpy's overflow warnings would only repeat it
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                F = ChaosSum(kernels)
                report = chaos_sum_bound(F)
                phi_value = None
                if set(F.orders) == {1, 2}:
                    phi_value = phi(F.kernels[1], F.kernels[2])
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        except NumericalError as exc:
            raise NumericalError(f"{where}: {exc}") from None
        doc = {"label": label, "orders": F.orders,
               "report": report.to_json()}
        if phi_value is not None:
            doc["phi"] = phi_value
        documents.append(doc)
        rows.append({
            "label": label,
            "orders": ";".join(str(p) for p in F.orders),
            "variance": report.normalization,
            **report.terms,
            "total": report.total,
            "phi": float("nan") if phi_value is None else phi_value,
        })
    metadata = {"experiment": "bound", "version": __version__}
    return ResultTable(rows=rows, metadata=metadata), documents


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

@dataclass
class RatioConfig:
    """Settings of run_ratio.  threads is checked and echoed, but nothing
    reads it: a ratio run always uses the calling thread, since its blocks
    are too short to pay for a pool thread (sample_ratio_batch)."""

    lambda_grid: list[float]
    replicas: int
    seed: int
    rho: float = 1.0
    sigma1: float = 1.0
    sigma2: float = 1.0
    perturbations: dict = field(default_factory=dict)
    threads: int = 1

    def __post_init__(self):
        self.lambda_grid = _grid(self.lambda_grid, "lambda_grid", checked_real)
        self.replicas = checked_integer(self.replicas, "replicas", 100)
        self.seed = checked_integer(self.seed, "seed", 0, KEY_LIMIT)
        self.threads = checked_integer(self.threads, "threads", 1)
        self.rho = checked_real(self.rho, "rho")
        self.sigma1 = checked_real(self.sigma1, "sigma1")
        self.sigma2 = checked_real(self.sigma2, "sigma2")
        _check_size(f"replicas = {self.replicas}", 4 * self.replicas)

    @classmethod
    def from_dict(cls, data: dict) -> "RatioConfig":
        return _config_from_dict(cls, data, "ratio config")


def run_ratio(config: RatioConfig) -> ResultTable:
    """Sweep the lambda grid: empirical d_Kol of the ratio against
    N(0, sigma1^2 + sigma2^2), rejection rates, and the five bound terms.
    Every lambda's family is built, and so checked, before any replica is
    drawn."""
    pert = _config_from_dict(Perturbations, config.perturbations,
                             "ratio config perturbations")
    families = []
    for idx, lam in enumerate(config.lambda_grid):
        try:
            families.append(RatioFamily(lam=lam, rho_const=config.rho,
                                        sigma1=config.sigma1,
                                        sigma2=config.sigma2,
                                        perturbations=pert))
        except ValidationError as exc:
            raise ValidationError(
                f"ratio config: lambda_grid[{idx}]: {exc}") from None
    rows = []
    distances = []
    for idx, fam in enumerate(families):
        values, rejected = sample_ratio_batch(fam, config.replicas,
                                              config.seed, stream=idx)
        kept = values[~rejected]
        if kept.size == 0:
            raise ValidationError(
                f"every replica was rejected at lambda={fam.lam}")
        d = kolmogorov_distance(EmpiricalSample.from_data(kept), 0.0,
                                fam.sigma_sq)
        report = ratio_bound(fam)
        distances.append(d)
        rows.append({
            "lam": fam.lam, "rho": config.rho, "sigma1": config.sigma1,
            "sigma2": config.sigma2, "replicas": config.replicas,
            "seed": config.seed, "stream": idx, "d_kol": d,
            "rejection_rate": float(rejected.mean()),
            **report.terms,
            "bound_total": report.total,
        })
    tol = 2.0 / math.sqrt(config.replicas)
    monotone = all(distances[i + 1] <= distances[i] + tol
                   for i in range(len(distances) - 1))
    metadata = {
        "experiment": "ratio",
        "version": __version__,
        "stream_protocol": STREAM_PROTOCOL,
        "config": asdict(config),
        "sigma_sq": families[0].sigma_sq,
        "monotone_within_tolerance": monotone,
        "monotonicity_tolerance": tol,
    }
    return ResultTable(rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# cross-sum diagnostic
# ---------------------------------------------------------------------------

@dataclass
class NzConfig:
    hurst: float
    n_grid: list[int]
    seed: int
    m: int = 2
    signs: list[int] = field(default_factory=lambda: [1, -1])

    def __post_init__(self):
        self.n_grid = _grid(self.n_grid, "n_grid", checked_integer, minimum=1)
        self.seed = checked_integer(self.seed, "seed", 0, KEY_LIMIT)
        self.m = checked_integer(self.m, "m", 2)
        self.signs = _grid(self.signs, "signs", checked_integer, minimum=-1, limit=2)
        _require(len(self.signs) == self.m and 0 not in self.signs,
                 f"signs must be {self.m} entries +-1, got {self.signs}")
        self.hurst = checked_real(self.hurst, "hurst")
        _require(0.0 < self.hurst < 1.0, "hurst must lie in (0, 1)")
        where, n = _largest(self.n_grid, "n_grid")
        _check_size(f"{where} with m = {self.m}", _FLOATS_PER_LAG * self.m * n)

    @classmethod
    def from_dict(cls, data: dict) -> "NzConfig":
        return _config_from_dict(cls, data, "diagnose-nz config")


def run_nz_diagnostics(config: NzConfig) -> ResultTable:
    """Tabulate the cross-sum ratio over the n grid.  seed and signs are
    checked and echoed, but change nothing: the diagnostic draws no random
    numbers and does not depend on the sign vector (nz_ratio_diagnostic)."""
    cov = CovarianceFunction.fgn(config.hurst)
    rows = []
    for n in config.n_grid:
        ratio = nz_ratio_diagnostic(cov, n, config.m)
        rows.append({
            "hurst": config.hurst, "m": config.m,
            "signs": ";".join(str(s) for s in config.signs),
            "n": n, "ratio": ratio,
        })
    metadata = {"experiment": "diagnose-nz", "version": __version__,
                "config": asdict(config)}
    return ResultTable(rows=rows, metadata=metadata)
