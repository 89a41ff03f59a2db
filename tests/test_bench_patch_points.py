"""The benchmark's tracer (bench/tracer.py) wraps package functions by
name; a rename in the package must fail here, not only in the benchmark."""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def patch_points(tracer):
    """Every (owner, attribute) that tracer.installed replaces."""
    points = [(module, attr) for modules, attr, _, _ in tracer.FUNCTIONS
              for module in modules]
    points += [(module, "run_blocks") for module in tracer.RUN_BLOCKS_WORKERS]
    points += [(cls, attr) for cls, attr, _, _ in tracer.METHODS]
    points += [(cls, attr) for cls, attr, _ in tracer.CLASSMETHODS]
    points.append((tracer.stationary.PathSampler, "__init__"))
    return points


def test_patch_points_exist_and_are_restored(monkeypatch):
    tracer = load_tracer(monkeypatch)
    points = patch_points(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if attr not in vars(owner)]
    assert not missing
    originals = [vars(owner)[attr] for owner, attr in points]
    with tracer.installed(tracer.Tracer()):
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(points, originals))
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(points, originals))
