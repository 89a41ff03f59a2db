import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import toeplitz

import chaosclt
from chaosclt import toeplitz as toeplitz_module
from chaosclt.stationary import CovarianceFunction


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


def dense_trace(x, y):
    """<T(x) T(y), T(y) T(x)>_F from the dense matrices, and the sum of
    the absolute values of its terms."""
    tx, ty = toeplitz(x), toeplitz(y)
    c, d = tx @ ty, ty @ tx
    return float(np.vdot(c, d)), float(np.vdot(np.abs(tx) @ np.abs(ty),
                                               np.abs(ty) @ np.abs(tx)))


class TestProductTrace:
    # half of n is streamed: these n put the last streamed row on either
    # side of the 64-row block edge, with and without a middle row
    @pytest.mark.parametrize("n", [127, 128, 129, 130, 131])
    def test_matches_dense_around_the_block_edge(self, n):
        rng = np.random.default_rng(n)
        alpha, beta = rng.normal(size=n), rng.normal(size=n)
        for x, y in [(alpha, beta), (alpha, alpha.copy())]:
            expected, scale = dense_trace(x, y)
            got = toeplitz_module.product_trace(x, y)
            assert abs(got - expected) <= 1e-14 * scale

    @pytest.mark.parametrize("n", [3, 6, 129])
    def test_products_are_centrosymmetric(self, n):
        # the premise of streaming half the rows: J C J = C, so row
        # n-1-i of C is row i reversed
        rng = np.random.default_rng(10 + n)
        alpha, beta = rng.normal(size=n), rng.normal(size=n)
        c = toeplitz(alpha) @ toeplitz(beta)
        assert np.allclose(c[::-1, ::-1], c, rtol=0.0,
                           atol=1e-14 * np.abs(c).max())
        assert not np.allclose(c, c.T)

    @pytest.mark.parametrize("powers", [(1, 3), (2, 2)])
    def test_fgn_rows_match_dense(self, powers):
        n = 300
        cov = CovarianceFunction.fgn(0.7)
        row = cov.lag_array(n) / cov.rho0
        alpha, beta = row ** powers[0], row ** powers[1]
        expected, _ = dense_trace(alpha, beta)
        assert toeplitz_module.product_trace(alpha, beta) == pytest.approx(
            expected, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 129, 300])
    def test_swapping_the_rows_keeps_every_bit(self, n):
        rng = np.random.default_rng(20 + n)
        alpha, beta = rng.normal(size=n), rng.normal(size=n)
        assert (toeplitz_module.product_trace(alpha, beta)
                == toeplitz_module.product_trace(beta, alpha))


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


# bench/tracer.py patches bounds.contract, which bounds itself never calls
UNUSED_IMPORTS_ALLOWED = {"bounds.py: contract"}


def unused_imports(path: Path) -> list[str]:
    """Names the module at path imports, anywhere in it, but neither reads
    nor lists in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}: {name}"
            for name in sorted(imported - read - exported)]


def test_every_import_is_used_and_every_export_exists():
    sources = [path for path in
               sorted(Path(chaosclt.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(sources) > 10
    unused = {name for path in sources for name in unused_imports(path)}
    assert unused == UNUSED_IMPORTS_ALLOWED
    missing = []
    for path in sources:
        module = importlib.import_module(f"chaosclt.{path.stem}")
        missing += [f"{path.name}: {name}"
                    for name in getattr(module, "__all__", [])
                    if not hasattr(module, name)]
    assert missing == []
