"""The output files of the checked-in configs, byte for byte.

Each config in configs/ runs in process through cli.main, and every file
it writes must equal its copy under configs/expected/<config stem>/.  The
bits depend on numpy's SeedSequence, its SFC64 normals and its FFT, so
configs/expected/numpy_version.txt records the numpy version the copies
were made with, and another version fails with a message that says so.

A change that moves outputs on purpose rewrites the copies, from the root
of a checkout:

    PYTHONPATH=src python tests/test_golden.py --regenerate

and records the diff and its reason.
"""

import argparse
import difflib
import shutil
from pathlib import Path

import numpy as np
import pytest

from chaosclt import cli

CONFIGS_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))
EXPECTED_DIR = CONFIGS_DIR / "expected"
VERSION_FILE = EXPECTED_DIR / "numpy_version.txt"


def run_config(path: Path, out: Path) -> None:
    # a config's file name prefix names its subcommand
    prefix = path.stem.split("_")[0]
    command = "diagnose-nz" if prefix == "nz" else prefix
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{path.name} exited with {code}")


def first_difference(want_dir: Path, got_dir: Path) -> str | None:
    """A unified diff of the first file that differs, or None."""
    for want in sorted(want_dir.iterdir()):
        got = got_dir / want.name
        if got.read_bytes() != want.read_bytes():
            return "".join(difflib.unified_diff(
                want.read_text(encoding="utf-8").splitlines(True),
                got.read_text(encoding="utf-8").splitlines(True),
                fromfile=f"configs/expected/{want_dir.name}/{want.name}",
                tofile=f"this run/{want.name}"))
    return None


def test_every_config_has_golden_files():
    stems = sorted(p.name for p in EXPECTED_DIR.iterdir() if p.is_dir())
    assert stems == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_outputs_match_golden_files(path, tmp_path):
    recorded = VERSION_FILE.read_text(encoding="utf-8").strip()
    if np.__version__ != recorded:
        pytest.fail(
            f"the golden files were written with numpy {recorded}, and this "
            f"is numpy {np.__version__}; its draws or FFT may differ. If "
            f"the outputs are right, regenerate them (see this module's "
            f"docstring) and record the numpy change")
    run_config(path, tmp_path)
    want_dir = EXPECTED_DIR / path.stem
    assert (sorted(p.name for p in tmp_path.iterdir())
            == sorted(p.name for p in want_dir.iterdir()))
    diff = first_difference(want_dir, tmp_path)
    if diff is not None:
        pytest.fail(f"{path.name} wrote different bytes:\n{diff}")


def regenerate() -> None:
    """Rewrite configs/expected from fresh runs of every config."""
    if EXPECTED_DIR.exists():
        shutil.rmtree(EXPECTED_DIR)
    for path in CONFIGS:
        run_config(path, EXPECTED_DIR / path.stem)
    VERSION_FILE.write_text(np.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Rewrite configs/expected from the configs in configs/.")
    parser.add_argument("--regenerate", action="store_true", required=True)
    parser.parse_args()
    regenerate()
