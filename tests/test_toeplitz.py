import ast
import importlib
import tracemalloc
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

    @pytest.mark.parametrize("n", [2048, 4097])
    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    def test_fgn_rows_within_a_normwise_fft_bound(self, hurst, n):
        # The FFT product errs by O(eps log2(2n)) ||row||_2 ||v||_2 in the
        # 2-norm, and the dense product by about as much; 4 times that
        # bound leaves a tenfold margin: both together read ~0.35 of it.
        row = CovarianceFunction.fgn(hurst).lag_array(n)
        v = np.random.default_rng(n).normal(size=n)
        got = toeplitz_module.matvec(row, v)
        bound = (4 * np.finfo(float).eps * np.log2(2 * n)
                 * np.linalg.norm(row) * np.linalg.norm(v))
        assert got.shape == (n,)
        assert np.linalg.norm(got - toeplitz(row) @ v) <= bound

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_sizes_are_exact(self, n):
        # On small integers every sum and product is exact, and so are the
        # size-2 and size-4 FFTs, whose twiddles are +-1 and +-i.
        rng = np.random.default_rng(n)
        for _ in range(100):
            row = rng.integers(-50, 50, size=n).astype(float)
            v = rng.integers(-50, 50, size=n).astype(float)
            assert np.array_equal(toeplitz_module.matvec(row, v),
                                  toeplitz(row) @ v)

    def test_peak_memory_is_a_few_vectors(self):
        # O(n) memory: the padded vector, the embedding and their
        # transforms peak at about 6 n floats; the dense T would be n^2.
        n = 1 << 16
        rng = np.random.default_rng(0)
        row, v = rng.normal(size=n), rng.normal(size=n)
        toeplitz_module.matvec(row, v)  # plan the FFTs of this size
        tracemalloc.start()
        try:
            toeplitz_module.matvec(row, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8


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
    # side of a 64-row block edge, with and without a middle row
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

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 129, 130, 131, 257, 300,
                                   2049])
    def test_swapping_the_rows_keeps_every_bit(self, n):
        # the premise of evaluating ||f (x)_r f|| for r <= p/2 only
        rng = np.random.default_rng(20 + n)
        alpha, beta = rng.normal(size=n), rng.normal(size=n)
        assert (toeplitz_module.product_trace(alpha, beta)
                == toeplitz_module.product_trace(beta, alpha))

    @pytest.mark.parametrize("n", [65, 130, 131, 257])
    def test_swapping_the_rows_keeps_every_bit_in_floor_sized_blocks(
            self, n, monkeypatch):
        monkeypatch.setattr(toeplitz_module, "_TRACE_BUDGET", 0)
        self.test_swapping_the_rows_keeps_every_bit(n)

    def test_carried_rows_fit_the_budget(self):
        # at n = 8192 two carried rows take 9 rows of n each (1.1 MiB),
        # where 64-row blocks took 8.1 MiB
        rng = np.random.default_rng(8192)
        alpha, beta = rng.normal(size=8192), rng.normal(size=8192)
        tracemalloc.start()
        try:
            toeplitz_module.product_trace(alpha, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


def is_private(name: str) -> bool:
    """Whether name has a leading underscore and is no dunder."""
    return name.startswith("_") and not name.endswith("__")


def private_sibling_imports(path: Path) -> list[str]:
    """Private names (see is_private) that the module at path imports from
    another module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("chaosclt"):
            continue
        found += [f"{path.name}: {alias.name}" for alias in node.names
                  if is_private(alias.name)]
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    # a helper two modules need is public in one of them (for the Toeplitz
    # helpers, chaosclt.toeplitz), so there is one place to patch it
    sources = sorted(Path(chaosclt.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [name for path in sources for name in private_sibling_imports(path)]
    assert found == []


def private_attribute_chains(path: Path) -> list[str]:
    """Reads of the form a._b._c in the module at path: a private
    attribute (see is_private) of an object held in another one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_private(node.attr)
            and isinstance(node.value, ast.Attribute)
            and is_private(node.value.attr)]


def test_no_module_chains_private_attributes():
    # a._b._c reads the internals of an object that a's class does not
    # define; the class that holds _b exposes what its readers need
    sources = sorted(Path(chaosclt.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [read for path in sources
             for read in private_attribute_chains(path)]
    assert found == []


# bench/tracer.py patches bounds.contract, which bounds itself never calls
UNUSED_IMPORTS_ALLOWED = {"bounds.py: contract"}


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module lists in its __all__."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return exported


def unused_imports(path: Path) -> list[str]:
    """Names the module at path imports, anywhere in it, but neither reads
    nor lists in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}: {name}"
            for name in sorted(imported - read - exported_names(tree))]


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


def defined_names(tree: ast.Module) -> set[str]:
    """The names a module's own top-level statements define; an import
    defines nothing."""
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {target.id for target in node.targets
                        if isinstance(target, ast.Name)}
        elif isinstance(node, ast.AnnAssign):
            defined.add(node.target.id)
    return defined


def test_every_export_has_one_home():
    # a name is exported by the module that defines it, and the package
    # imports it from there, so no name has two public homes
    package = Path(chaosclt.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert len(trees) > 10
    defined = {stem: defined_names(tree) for stem, tree in trees.items()}
    borrowed = [f"{stem}: {name}" for stem, tree in trees.items()
                for name in sorted(exported_names(tree) - defined[stem])]
    assert borrowed == []
    rerouted = [f"{alias.name} from .{node.module}"
                for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if alias.name not in defined[node.module]]
    assert rerouted == []


def small_float_literals(path: Path) -> list[str]:
    """Float literals in (0, 1e-6] in the module at path: tolerances.
    Docstrings are strings, so a number quoted in one is not counted."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float) and 0.0 < node.value <= 1e-6]


def test_only_errors_holds_a_tolerance():
    # every numerical guard reads errors.TOLERANCE against its own scale;
    # a module with a literal of its own would start a second policy
    sources = sorted(Path(chaosclt.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [literal for path in sources if path.name != "errors.py"
             for literal in small_float_literals(path)]
    assert found == []
    errors = Path(chaosclt.__file__).parent / "errors.py"
    assert len(small_float_literals(errors)) == 1
