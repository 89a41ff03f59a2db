import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import chaosclt
from chaosclt import toeplitz as toeplitz_module


class TestMatvec:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500])
    def test_matches_dense_product(self, n):
        rng = np.random.default_rng(n)
        row, v = rng.normal(size=n), rng.normal(size=n)
        got = toeplitz_module.matvec(row, v)
        scale = float(np.abs(row).sum() * np.abs(v).max())
        assert got.shape == (n,)
        assert np.allclose(got, toeplitz(row) @ v, rtol=0.0,
                           atol=1e-14 * n * scale)


class TestPairCounts:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_brute_force(self, n):
        expected = np.zeros(n)
        for i in range(n):
            for j in range(n):
                expected[abs(i - j)] += 1
        assert np.array_equal(toeplitz_module.pair_counts(n), expected)


def private_sibling_imports(path: Path) -> list[str]:
    """Names with a leading underscore (dunders aside) that the module at
    path imports from another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("chaosclt"):
            continue
        found += [f"{path.name}: {alias.name}" for alias in node.names
                  if alias.name.startswith("_")
                  and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    # a helper two modules need is public in one of them (for the Toeplitz
    # helpers, chaosclt.toeplitz), so there is one place to patch it
    sources = sorted(Path(chaosclt.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [name for path in sources for name in private_sibling_imports(path)]
    assert found == []
