#!/usr/bin/env python3
"""Benchmark of the chaosclt package: four workloads, each in its own process.

    python3 bench/run.py                      # every workload, 20 s each
    python3 bench/run.py --workload rates_fgn --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, metrics and units are read from ``BENCHMARK.json``.
Each workload is set up SETUP_RUNS times in fresh processes (``setup_s`` is
the median), then timed in one more process for ``--seconds``.  Human-
readable lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Worker threads of every experiment, as in scripts/ and the acceptance suite.
THREADS = 2
SETUP_RUNS = 5
# A workload run must end within this many seconds.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def child_env() -> dict:
    """Environment for workload processes: worker threads times BLAS
    threads must not exceed the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    blas = max(1, nproc // THREADS)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    return env


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), *args,
           "--threads", str(THREADS), "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - spawned_at, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, deadline: float) -> dict:
    env = child_env()
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    setups = [spawn(args + ["--setup-only"], env, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    result = spawn(args, env, deadline)
    result["setup_runs_s"] = setups + [result["setup_s"]]
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {"setup_s": statistics.median(result["setup_runs_s"]),
            "wall_s": statistics.median(result["wall_s"]),
            "cpu_s": statistics.median(result["cpu_s"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: dict, names: list[str]) -> dict[str, float]:
    layers = dict(result["layers"])
    layers["trace.overhead_s"] = (statistics.median(result["traced_wall_s"])
                                  - statistics.median(result["wall_s"]))
    return {name: float(layers.get(name, 0.0)) for name in names}


def report(name: str, result: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines for one workload."""
    attempted, failed = result["attempted"], result["failed"]
    q1, q2, q3 = quartiles(result["wall_s"])
    print(f"{name}: {attempted} ops, error_rate {failed / attempted:.4g} "
          f"({failed}/{attempted}); wall_s median {q2:.4f} s, quartiles "
          f"{q1:.4f}..{q3:.4f} s over {len(result['wall_s'])} untraced ops; "
          f"setup runs {['%.3f' % s for s in result['setup_runs_s']]} s")
    for metric, value in metrics.items():
        print(f"  {name}.{metric} = {value:.6g} {units[metric]}")


def main(argv=None) -> int:
    try:
        spec = load_spec()
        if not (ROOT / "src" / "chaosclt" / "__init__.py").is_file():
            raise BenchError(f"no chaosclt sources under {ROOT / 'src'}")
        names = [w["name"] for w in spec["workloads"]]
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", default="all",
                            choices=names + ["all"])
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--seconds", type=float,
                            default=float(spec["run_seconds"]))
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--smoke", action="store_true",
                            help="small sizes, for the benchmark's self-test")
        args = parser.parse_args(argv)
        if args.seed < 0 or args.seconds < 0:
            parser.error("--seed and --seconds must be nonnegative")

        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in group}
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in (names if args.workload == "all" else [args.workload]):
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke,
                                  time.monotonic() + TIME_LIMIT_S)
            metrics = (per_layer(result, list(units)) if args.trace
                       else end_to_end(result))
            print("env " + json.dumps(result["env"], sort_keys=True))
            report(name, result, metrics, units)
            combined["correct"] &= result["failed"] == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if args.workload != "all" else name + "."
            combined["metrics"].update(
                {prefix + k: {"value": v, "unit": units[k]}
                 for k, v in metrics.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
