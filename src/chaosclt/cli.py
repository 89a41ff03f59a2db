"""Command line entry point.

Subcommands: rates, bound, ratio, diagnose-nz.  Each takes a JSON config
(--config).  --seed and --threads exist on the subcommands whose config
has that field, and override it.  --out (default results) alone picks the
output directory, so result files do not depend on where they are written.
Every run writes <stem>.csv and <stem>_summary.json, and bound also writes
bound_report.json.

Exit codes: 0 success, 1 validation or usage error (an --out that cannot
be created or written included), 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from .errors import NumericalError, ValidationError
from .experiments import (BoundConfig, NzConfig, RatesConfig, RatioConfig,
                          run_bound_report, run_nz_diagnostics, run_rates,
                          run_ratio)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path} is not valid JSON: {exc.msg} at line "
            f"{exc.lineno}, column {exc.colno}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return data


# Each runner returns (table, extra files by name, one-line summary).

def _rates(config):
    table = run_rates(config)
    slope = table.metadata["fitted_slope"]
    slope_text = "n/a (one distinct n)" if slope is None else f"{slope:.4f}"
    return table, {}, (
        f"{len(table.rows)} grid points; fitted slope {slope_text} "
        f"(predicted {table.metadata['predicted_exponent']:.4f})")


def _bound(config):
    table, documents = run_bound_report(config)
    report = json.dumps(documents, indent=2, sort_keys=True) + "\n"
    return table, {"bound_report.json": report}, f"{len(documents)} report(s)"


def _ratio(config):
    table = run_ratio(config)
    return table, {}, (
        f"{len(table.rows)} lambda points; monotone within tolerance: "
        f"{table.metadata['monotone_within_tolerance']}")


def _diagnose_nz(config):
    table = run_nz_diagnostics(config)
    return table, {}, f"{len(table.rows)} rows"


# subcommand -> (config class, output stem, runner, help)
_COMMANDS = {
    "rates": (RatesConfig, "rates", _rates,
              "fGn power-variation rate experiment"),
    "bound": (BoundConfig, "bound", _bound,
              "bound report for serialized kernels"),
    "ratio": (RatioConfig, "ratio", _ratio, "ratio family sweep"),
    "diagnose-nz": (NzConfig, "nz", _diagnose_nz,
                    "covariance cross-sum diagnostic"),
}


def _run(args: argparse.Namespace) -> int:
    options = vars(args)  # after these pops: the --seed/--threads given
    command, path, out = (options.pop(k) for k in ("command", "config", "out"))
    config_cls, stem, runner, _ = _COMMANDS[command]
    config = config_cls.from_dict({**_load_config(path), **options})
    out = Path(out)
    # before the run, so an unusable --out fails fast
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create --out {out}: {exc}") from None
    t0 = time.perf_counter()
    table, files, summary = runner(config)
    elapsed = time.perf_counter() - t0
    files = {f"{stem}.csv": table.to_csv_string(),
             f"{stem}_summary.json":
                 json.dumps(table.metadata, indent=2, sort_keys=True) + "\n",
             **files}
    try:
        for name, text in files.items():
            with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write to --out {out}: {exc}") from None
    print(f"{command}: {summary}; {elapsed:.1f} s; wrote {out}/{stem}.*")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1 like other bad input."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chaosclt",
        description="Quantitative normal approximation experiments for "
                    "finite sums of Wiener chaoses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (config_cls, _, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="results",
                       help="output directory (default results)")
        for f in fields(config_cls):
            if f.name in ("seed", "threads"):
                p.add_argument(f"--{f.name}", type=int,
                               default=argparse.SUPPRESS,
                               help=f"override the config {f.name}")
    return parser


def main(argv=None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
