#!/usr/bin/env python3
"""One workload in a process of its own: set up, then time ops.

run.py starts this script with the BLAS thread count already fixed in the
environment and ``--spawned-at`` set to its monotonic clock just before the
start, so ``setup_s`` covers interpreter start, imports, input generation,
config validation and warm-up.  The result is one JSON line on stdout.

With ``--trace 1`` the ops alternate between untraced and traced, so the
same run gives the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import chaosclt  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACE_DIR = ROOT / ".bench_out"


def measure(workload, seconds: float,
            tracer: tracing.Tracer | None = None) -> dict:
    """Run ops until ``seconds`` have passed: at least one op, and with a
    tracer every second op traced, at least one of each kind.

    An op fails when it raises or when its check reports a problem; its
    time still counts.
    """
    trace = tracer is not None
    times = {False: [], True: []}
    cpu = []
    failed = attempted = 0
    start = time.perf_counter()
    while (attempted < (2 if trace else 1)
           or time.perf_counter() - start < seconds):
        traced = trace and attempted % 2 == 1
        scope = tracing.installed(tracer) if traced else contextlib.nullcontext()
        with scope:
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workload.op(attempted)
            except Exception as exc:  # an op that raises counts as failed
                out, problems = None, [f"{type(exc).__name__}: {exc}"]
            wall, cpu_s = time.perf_counter() - w0, time.process_time() - c0
        if out is not None:
            try:
                problems = workload.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        times[traced].append(wall)
        if not traced:
            cpu.append(cpu_s)
        attempted += 1
        if problems:
            failed += 1
            print(f"{workload.name} op {attempted - 1} failed: "
                  + "; ".join(problems[:5]), file=sys.stderr)
    result = {"attempted": attempted, "failed": failed,
              "wall_s": times[False], "cpu_s": cpu}
    if trace:
        result["traced_wall_s"] = times[True]
        result["layers"] = tracing.per_op_metrics(tracer, len(times[True]))
    return result


def _openblas_versions() -> dict:
    versions = {}
    for name, module in (("numpy", np), ("scipy", scipy)):
        try:
            versions[name] = module.__config__.CONFIG[
                "Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            versions[name] = "unknown"
    return versions


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git (which an export lacks)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(threads: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_versions(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "chaosclt": chaosclt.__version__,
        "git_commit": _git_commit(),
        "threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](
        args.seed, args.threads, "smoke" if args.smoke else "full")
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    result = measure(workload, args.seconds, tracer)
    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.threads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
