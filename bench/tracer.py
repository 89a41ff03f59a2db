"""In-memory span tracer that wraps chaosclt's public functions from outside.

Each wrapped callable is replaced where its caller looks it up (a module
attribute such as ``chaosclt.ratio.block_normals``, or a class attribute such
as ``PathSampler.transform``), so the package itself is not edited.  The
worker passed to ``run_blocks`` is wrapped too, with the ``run_blocks`` span
as its parent, so block spans nest under it even though they run on pool
threads.  Spans stay in memory; ``per_op_metrics`` reduces them and
``write`` dumps them once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

from chaosclt import bounds, chaos, distances, experiments, kernels, ratio, \
    stationary


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            record = Span(next(self._ids), parent, name, threading.get_ident(),
                          0.0)
            self.spans.append(record)
            self.counts[f"{name}.calls"] += 1
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counts[key] += amount

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _normals(args, result):
    return {"normals": result.size}


def _lags(args, result):
    return {"lags": result.size}


def _transform_bytes(args, result):
    # computed from shapes, not measured: the white-noise input and the
    # output, plus, for the circulant path, the complex half-spectrum written
    # and read once and the full-length real inverse FFT
    sampler, w = args[0], args[1]
    count, n = result.shape
    moved = w.nbytes + result.nbytes
    if sampler.mode == "circulant":
        moved += 2 * count * (n + 1) * 16 + count * 2 * n * 8
    else:
        moved += n * n * 8
    return {"bytes": moved}


# (modules holding the reference, attribute, span name, counter hook)
FUNCTIONS = [
    ((stationary, ratio, chaos), "block_normals", "streams.block_normals",
     _normals),
    ((experiments,), "run_rates", "experiments.run_rates", None),
    ((experiments,), "run_ratio", "experiments.run_ratio", None),
    ((experiments,), "run_bound_report", "experiments.run_bound_report", None),
    ((experiments,), "run_nz_diagnostics", "experiments.run_nz_diagnostics",
     None),
    ((experiments,), "exact_variance_power_variation",
     "stationary.exact_variance_power_variation", None),
    ((experiments, distances), "kolmogorov_distance",
     "distances.kolmogorov_distance", None),
    ((experiments,), "sample_ratio_batch", "ratio.sample_ratio_batch", None),
    ((experiments,), "ratio_bound", "ratio.ratio_bound", None),
    ((experiments,), "kernel_from_json", "kernels.kernel_from_json", None),
    ((kernels,), "breuer_major_kernels", "kernels.breuer_major_kernels", None),
    ((bounds, chaos), "rank_one_contraction_norm",
     "kernels.rank_one_contraction_norm", None),
    ((bounds,), "rank_one_mixed_inner", "kernels.rank_one_mixed_inner", None),
    ((chaos,), "rank_one_norm_squared", "kernels.rank_one_norm_squared", None),
    ((bounds,), "contract", "kernels.contract", None),
    ((chaos,), "sample_batch", "chaos.sample_batch", None),
    ((chaos,), "second_moment", "chaos.second_moment", None),
    ((experiments, bounds), "chaos_sum_bound", "bounds.chaos_sum_bound", None),
    ((experiments,), "phi", "bounds.phi", None),
    ((bounds,), "breuer_major_bound", "bounds.breuer_major_bound", None),
    ((experiments,), "power_variation_bound", "bounds.power_variation_bound",
     None),
    ((experiments,), "nz_ratio_diagnostic", "bounds.nz_ratio_diagnostic",
     None),
]

METHODS = [
    (stationary.PathSampler, "transform", "stationary.PathSampler.transform",
     _transform_bytes),
    (stationary.CovarianceFunction, "lag_array",
     "stationary.CovarianceFunction.lag_array", _lags),
]

CLASSMETHODS = [
    (chaos.SecondChaosSpectrum, "from_kernel",
     "chaos.SecondChaosSpectrum.from_kernel"),
    (distances.EmpiricalSample, "from_data",
     "distances.EmpiricalSample.from_data"),
]

# run_blocks is looked up in each of these modules; the worker it runs is
# named after the module that supplies it
RUN_BLOCKS_WORKERS = {
    stationary: "stationary.sample_paths_block",
    ratio: "ratio.reduce",
    chaos: "chaos.eval_block",
    experiments: "experiments.rates_reduce",
}


def _wrap(tracer: Tracer, fn, name: str, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            for key, amount in hook(args, result).items():
                tracer.count(f"{name}.{key}", amount)
        return result
    return traced


def _wrap_run_blocks(tracer: Tracer, fn, worker_name: str):
    @functools.wraps(fn)
    def run_blocks(n_replicas, worker, threads=1):
        with tracer.span("streams.run_blocks") as outer:
            outer.info["threads"] = threads

            def traced_worker(block, start, count):
                with tracer.span(worker_name, parent=outer.id):
                    worker(block, start, count)

            fn(n_replicas, traced_worker, threads=threads)
    return run_blocks


def _wrap_init(tracer: Tracer, fn):
    @functools.wraps(fn)
    def __init__(self, *args, **kwargs):
        with tracer.span("stationary.PathSampler.init"):
            fn(self, *args, **kwargs)
        tracer.count("stationary.PathSampler.dense_fallbacks",
                     int(self.mode == "dense"))
    return __init__


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced callable in, and restore the originals on exit."""
    patches = []
    for modules, attr, name, hook in FUNCTIONS:
        for module in modules:
            orig = getattr(module, attr)
            patches.append((module, attr, orig, _wrap(tracer, orig, name, hook)))
    for module, worker_name in RUN_BLOCKS_WORKERS.items():
        orig = module.run_blocks
        patches.append((module, "run_blocks", orig,
                        _wrap_run_blocks(tracer, orig, worker_name)))
    for cls, attr, name, hook in METHODS:
        orig = cls.__dict__[attr]
        patches.append((cls, attr, orig, _wrap(tracer, orig, name, hook)))
    for cls, attr, name in CLASSMETHODS:
        orig = cls.__dict__[attr]
        patches.append((cls, attr, orig,
                        classmethod(_wrap(tracer, orig.__func__, name))))
    init = stationary.PathSampler.__dict__["__init__"]
    patches.append((stationary.PathSampler, "__init__", init,
                    _wrap_init(tracer, init)))
    for owner, attr, _, new in patches:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, orig, _ in reversed(patches):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _run_blocks_stats(run: Span, workers: list[Span]) -> tuple[float, float]:
    """(summed worker busy time, idle time of pool threads after their last
    block) for one run_blocks span."""
    busy = sum(w.end - w.start for w in workers)
    threads = run.info.get("threads", 1)
    if threads <= 1:
        return busy, 0.0
    last_end: dict[int, float] = {}
    for w in workers:
        last_end[w.thread] = max(last_end.get(w.thread, w.end), w.end)
    idle = sum(run.end - end for end in last_end.values())
    idle += max(threads - len(last_end), 0) * (run.end - run.start)
    return busy, idle


def per_op_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """busy_s and self_s for every span name, the counters and the
    run_blocks tail idle time, each per traced op; plus the run_blocks
    parallelism (summed worker busy time over run_blocks wall time)."""
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append(s)
    totals: dict[str, float] = defaultdict(float)
    rb_busy = rb_wall = 0.0
    for s in tracer.spans:
        duration = s.end - s.start
        kids = children.get(s.id, [])
        totals[f"{s.name}.busy_s"] += duration
        totals[f"{s.name}.self_s"] += duration - _covered(
            [(k.start, k.end) for k in kids], s.start, s.end)
        if s.name == "streams.run_blocks":
            busy, idle = _run_blocks_stats(s, kids)
            rb_busy += busy
            rb_wall += duration
            totals["streams.run_blocks.tail_idle_s"] += idle
    totals.update(tracer.counts)
    totals["streams.run_blocks.blocks"] = sum(
        tracer.counts[f"{w}.calls"] for w in RUN_BLOCKS_WORKERS.values())
    out = {key: value / ops for key, value in totals.items()}
    out["streams.run_blocks.parallelism"] = (
        rb_busy / rb_wall if rb_wall > 0.0 else 0.0)
    return out
