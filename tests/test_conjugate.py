"""Fenchel conjugates: fast vs brute force, conventions, infimal convolution."""

import ast
import importlib
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    Axis,
    DimensionMismatch,
    Grid,
    GriddedFunction,
    UnsupportedShape,
    biconjugate,
    conjugate,
    conjugate_at,
    conjugate_fast,
    default_dual_grid,
    fast_conjugate_check,
    inf_convolution,
    partial_conjugate,
    product_grid,
    support_function,
)
from marginlab.conjugate import default_ydual_grid
from marginlab.errors import InvalidArgument
from marginlab.setmap import split_lattice

from helpers import (
    FIXTURES,
    broadcast_dots,
    brute_conjugate_at,
    dyadic_grid,
    dyadic_rows,
    load_fixture,
    lower_add,
    oracle_conjugate,
    oracle_inf_convolution,
    per_row_partial_conjugate,
    random_function,
    random_problem,
    random_values,
)

# The package re-exports the function `conjugate`, which hides the module.
conjugate_module = importlib.import_module("marginlab.conjugate")

INF = math.inf


class TestConjugateConventions:
    def test_plus_inf_nodes_are_excluded(self):
        g = Grid.from_bounds([(0.0, 2.0, 3)])
        f = GriddedFunction(g, [0.0, INF, 1.0])
        # at s = 3 the excluded middle node would otherwise win
        assert conjugate_at(f, np.array([[3.0]]))[0] == 5.0

    def test_everything_infinite_gives_sup_empty(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [INF, INF, INF])
        vals = conjugate_at(f, np.array([[0.0], [2.0]]))
        assert (vals == -INF).all()

    def test_minus_inf_anywhere_gives_plus_inf(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, -INF, 1.0])
        vals = conjugate_at(f, np.array([[0.0], [1.0]]))
        assert (vals == INF).all()

    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_function(rng, dyadic_grid(rng, dim=int(rng.integers(1, 3))))
            duals = default_dual_grid(f, 5)
            got = conjugate(f, duals).values
            want = [oracle_conjugate(f, s) for s in duals.nodes]
            np.testing.assert_array_equal(got, want)


def python_dots(A, B):
    """<a, b> per row pair by plain Python floats: +0.0 plus each
    coordinate's product in coordinate order."""
    out = np.empty((A.shape[0], B.shape[0]))
    for i, a in enumerate(A.tolist()):
        for j, b in enumerate(B.tolist()):
            total = 0.0
            for x, y in zip(a, b):
                total += x * y
            out[i, j] = total
    return out


class TestDots:
    def test_equals_the_python_sum_on_non_dyadic_data(self):
        rng = np.random.default_rng(127)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            A = rng.standard_normal((int(rng.integers(1, 12)), d)) * 10.0 ** int(rng.integers(-3, 4))
            B = rng.standard_normal((int(rng.integers(1, 12)), d))
            table = python_dots(A, B)
            assert_bitwise(conjugate_module.dots(A[:, None], B), table)
            assert_bitwise(conjugate_module.dots(A, B[0]), table[:, 0])
            # Paired rows take the bits of their table entries.
            i, j = rng.integers(0, A.shape[0], 30), rng.integers(0, B.shape[0], 30)
            assert_bitwise(conjugate_module.dots(A[i], B[j]), table[i, j])

    def test_equals_matmul_on_dyadic_data_with_signed_zeros(self):
        # Every product and partial sum is exact here, so only the start of
        # the sum can tell the two apart: from +0.0 a -0.0 product gives 0.0,
        # as BLAS does.
        rng = np.random.default_rng(129)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 3.0, -0.75, 2.0**-10])
        zeros = 0
        for _ in range(3000):
            d = int(rng.integers(1, 5))
            A = rng.choice(pool, size=(int(rng.integers(1, 40)), d))
            B = rng.choice(pool, size=(int(rng.integers(1, 40)), d))
            want = A @ B.T
            zeros += bool((want == 0.0).any())
            assert_bitwise(conjugate_module.dots(A[:, None], B), want)
        assert zeros > 1000

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from(["table", "row", "paired"]),
        st.sampled_from([None, 1, 3, 50, "long"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_broadcast_route_bitwise(self, seed, width, form, cap):
        """Against `broadcast_dots`, the route that broadcast both operands
        to full views: `A[:, None]` against `B`, `A` against one row `b`,
        and equal row counts, at widths 1-4, on entries that mix signed
        zeros, infinities and non-dyadic values.  The first axis spans
        several blocks, at a lowered `_BLOCK_CAP` or ("long") at the real
        one."""
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -3.5, 2.0**-10, 1e300, INF, -INF])

        def rows(n):
            A = rng.standard_normal((n, width)) * 10.0 ** int(rng.integers(-3, 4))
            pick = rng.random((n, width)) < 0.5
            A[pick] = rng.choice(pool, size=int(pick.sum()))
            return A

        nb = int(rng.integers(1, 12))
        na = conjugate_module._BLOCK_CAP // nb + 3 if cap == "long" else int(rng.integers(0, 12))
        A, B = {
            "table": lambda: (rows(na)[:, None], rows(nb)),
            "row": lambda: (rows(na * nb), rows(1)[0]),
            "paired": lambda: (rows(na), rows(na)),
        }[form]()
        blocked = cap if isinstance(cap, int) else conjugate_module._BLOCK_CAP
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", blocked), np.errstate(all="ignore"):
            assert_bitwise(conjugate_module.dots(A, B), broadcast_dots(A, B))

    def test_rows_of_different_lengths_raise(self):
        # A row of one coordinate is not stretched into a wider one.
        for A, B in [
            (np.ones((3, 1)), np.ones((3, 3))),
            (np.ones((3, 3)), np.ones(1)),
            (np.ones((2, 1))[:, None], np.ones((4, 2))),
            (np.ones(2), np.ones(3)),
            (2.0, np.ones(3)),
        ]:
            with pytest.raises(DimensionMismatch):
                conjugate_module.dots(A, B)

    def test_two_rows_give_one_value(self):
        got = conjugate_module.dots(np.array([1.0, -2.0, 0.5]), np.array([3.0, 0.25, -0.0]))
        assert got.shape == () and got == 2.5
        # the +0.0 start: one -0.0 product sums to 0.0
        assert_bitwise(conjugate_module.dots([-1.0], [0.0]), np.zeros(()))


def matrix_products(source):
    """(enclosing function, line) of each `@` and each matmul/dot/einsum/
    inner/vdot/tensordot call in source, a text or a parsed tree; the
    function is None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((func, node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"matmul", "dot", "einsum", "inner", "vdot", "tensordot"}
        ):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source) if isinstance(source, str) else source, None)
    return sorted(found, key=lambda hit: hit[1])


PACKAGE = {
    "marginlab" if path.stem == "__init__" else f"marginlab.{path.stem}": path
    for path in sorted(Path(conjugate_module.__file__).parent.glob("*.py"))
}

# Integer products: the facet tests of the 3-D raster hull, exact on int64.
INTEGER_PRODUCTS = {"marginlab.nearconvex": {"try_facet", "_hull3"}}

# The checks that claim bitwise agreement with the conjugate kernels are
# also scanned on their own, so no module exemption can ever reach them.
# subdiff.py is parsed once, and each check is picked from it by name.
BITWISE_CHECKS = ["conj_subdiff_check", "marginal_subdiff_check", "restricted_conjugate_check"]
SUBDIFF_FUNCTIONS = {
    node.name: node
    for node in ast.parse(PACKAGE["marginlab.subdiff"].read_text(encoding="utf-8")).body
    if isinstance(node, ast.FunctionDef)
}


class TestOneBlockRule:
    """Every float dot product of the package goes through `conjugate.dots`:
    a BLAS product could round a row differently in another block, or
    under another BLAS build or CPU kernel.  The integer products of the
    3-D raster hull are the only others."""

    def test_guard_sees_every_form(self):
        source = (
            "a @ b\na @= b\nnp.matmul(a, b)\nnp.dot(a, b)\na.dot(b)\n"
            "np.einsum('ij,kj', a, b)\nnumpy.inner(a, b)\nnp.vdot(a, b)\n"
            "np.tensordot(a, b, 1)\nnp.multiply.outer(a, b)\n"
            "def f():\n    def g():\n        return a @ b\n    return a @ b\n"
        )
        assert matrix_products(source) == [
            *((None, line) for line in range(1, 10)), ("g", 13), ("f", 14)
        ]

    @pytest.mark.parametrize("target", sorted(PACKAGE) + BITWISE_CHECKS)
    def test_no_matrix_product(self, target):
        if target in PACKAGE:
            allowed = INTEGER_PRODUCTS.get(target, set())
            source = PACKAGE[target].read_text(encoding="utf-8")
        else:
            allowed = set()
            source = SUBDIFF_FUNCTIONS[target]
        assert [hit for hit in matrix_products(source) if hit[0] not in allowed] == []

    def test_only_the_integer_hull_products_are_exempt(self):
        assert len(PACKAGE) > 10  # the scan sees the package
        for module, names in INTEGER_PRODUCTS.items():
            source = PACKAGE[module].read_text(encoding="utf-8")
            assert {func for func, _ in matrix_products(source)} == names


def definition_max_dots_minus(Q, P, v):
    """max over p of <q, p> - v(p) on one whole score matrix."""
    return (python_dots(Q, P) - v[None, :]).max(axis=1)


class TestMaxDotsMinus:
    @pytest.mark.parametrize("cap", [1, 3, 50, None])
    def test_chunks_match_one_score_matrix_bitwise(self, monkeypatch, cap):
        # cap 1 scores one entry per block; cap 3 and 50 cut short row
        # blocks, or column blocks when one row exceeds the cap, with
        # ragged last ones; None keeps the default.
        if cap is not None:
            monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        rng = np.random.default_rng(131)
        for trial in range(24):
            d = 1 + trial % 4
            Q = rng.standard_normal((int(rng.integers(1, 60)), d)) * 3.0
            P = rng.standard_normal((int(rng.integers(1, 40)), d))
            v = rng.standard_normal(P.shape[0])
            got = conjugate_module.max_dots_minus(Q, P, v)
            assert_bitwise(got, definition_max_dots_minus(Q, P, v))

    @pytest.mark.parametrize("cap", [1, 5, 64, 301])
    def test_score_buffer_honours_the_cap(self, monkeypatch, cap):
        monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        dots, sizes = conjugate_module.dots, []

        def spy(A, B):
            sizes.append(A.shape[0] * B.shape[0])
            return dots(A, B)

        monkeypatch.setattr(conjugate_module, "dots", spy)
        rng = np.random.default_rng(137)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            Q = rng.standard_normal((int(rng.integers(1, 80)), d))
            P = rng.standard_normal((int(rng.integers(1, 80)), d))
            v = rng.standard_normal(P.shape[0])
            sizes.clear()
            got = conjugate_module.max_dots_minus(Q, P, v)
            assert_bitwise(got, definition_max_dots_minus(Q, P, v))
            assert max(sizes) <= cap
            assert sum(sizes) == Q.shape[0] * P.shape[0]

    def test_no_points_gives_minus_inf(self):
        kernel = conjugate_module.max_dots_minus
        got = kernel(np.ones((3, 2)), np.zeros((0, 2)), np.zeros(0))
        assert got.tolist() == [-INF] * 3


def kernel_route_case(rng, dim, case):
    """(f, dual rows, point set) for the kernel-route property: dyadic data
    with +inf nodes, or non-dyadic data, a -inf node, an empty domain, or
    signed zeros in the values, dual rows and points."""
    if case == "non-dyadic":
        axes = []
        for _ in range(dim):
            lo = float(rng.uniform(-2.0, 1.0))
            axes.append(Axis(lo, lo + float(rng.uniform(0.3, 3.0)), int(rng.integers(2, 5))))
        grid = Grid(tuple(axes))
        vals = 7.3 * rng.standard_normal(grid.size)
        vals[rng.random(grid.size) < 0.2] = INF
        duals = 3.1 * rng.standard_normal((int(rng.integers(0, 12)), dim))
    else:
        grid = dyadic_grid(rng, dim, max_count=5 if dim < 3 else 3)
        vals = random_values(rng, grid.size)
        duals = dyadic_rows(rng, int(rng.integers(0, 12)), dim)
    if case == "-inf":
        vals[int(rng.integers(0, grid.size))] = -INF
    elif case == "empty":
        vals[:] = INF
    elif case == "-0.0":
        vals[rng.random(grid.size) < 0.5] = -0.0
        duals = np.vstack([duals, np.full((1, dim), -0.0), np.zeros((1, dim))])
        duals[rng.random(duals.shape) < 0.3] = -0.0
    points = grid.nodes[vals < INF] * (1.0 if case != "-0.0" else -0.0)
    return GriddedFunction(grid, vals), duals, points


class TestKernelRoutes:
    """`conjugate_at` and `support_function` run `conjugate_blocks` on a y
    axis with no coordinates.  They equal the brute-force routes over
    `max_dots_minus` bit for bit on any data, with the -inf and
    empty-domain conventions, at any block size."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.sampled_from(["dyadic", "non-dyadic", "-inf", "empty", "-0.0"]),
        st.sampled_from([1, 3, 50, None]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_the_brute_routes_bitwise(self, seed, dim, case, cap):
        rng = np.random.default_rng(seed)
        f, duals, points = kernel_route_case(rng, dim, case)
        dual_grid = dyadic_grid(rng, dim, max_count=4)
        want = brute_conjugate_at(f, duals)
        support = conjugate_module.max_dots_minus(
            dual_grid.nodes, points, np.zeros(points.shape[0])
        )
        blocked = conjugate_module._BLOCK_CAP if cap is None else cap
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", blocked):
            assert_bitwise(conjugate_at(f, duals), want)
            assert_bitwise(support_function(points, dual_grid).values, support)


def callers(source, name):
    """Enclosing function of each call of `name` in source, by bare name
    or as an attribute; None at module level."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


class TestOneConjugateKernel:
    """Every conjugate the package computes runs `conjugate_blocks`; the
    brute-force `max_dots_minus` is reached only by `map_conjugate_at`,
    the graph support's brute-force route."""

    def test_guard_sees_every_call(self):
        source = "max_dots_minus(a)\ndef f():\n    return m.max_dots_minus(a)\n"
        assert callers(source, "max_dots_minus") == [None, "f"]

    def test_only_map_conjugate_at_calls_max_dots_minus(self):
        found = [
            (module, func)
            for module, path in PACKAGE.items()
            for func in callers(path.read_text(encoding="utf-8"), "max_dots_minus")
        ]
        assert found == [("marginlab.setmap", "map_conjugate_at")]


def lattice_brute(phi, xstars, ystars):
    """partial_conjugate's table from the brute-force conjugate on the
    stacked lattice rows."""
    k, ky = xstars.shape[0], ystars.shape[0]
    lattice = np.hstack([np.repeat(xstars, ky, axis=0), np.tile(ystars, (k, 1))])
    return brute_conjugate_at(phi, lattice).reshape(k, ky)


def split(phi, xgrid, ygrid):
    """partial_conjugate's (values, X, Y) for phi on xgrid x ygrid."""
    return phi.values.reshape(xgrid.size, ygrid.size), xgrid.nodes, ygrid.nodes


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPartialConjugate:
    @pytest.mark.parametrize("xdim, ydim", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_brute_lattice_bitwise_on_dyadic_data(self, xdim, ydim):
        rng = np.random.default_rng(211 + 10 * xdim + ydim)
        empty_rows = 0
        for trial in range(25):
            phi, F = random_problem(
                rng, max_count=5, p_inf=(0.15, 0.7)[trial % 2], xdim=xdim, ydim=ydim
            )
            V, X, Y = split(phi, F.xgrid, F.ygrid)
            empty_rows += bool((V == INF).all(axis=1).any())
            # Repeated x* rows, as the x1* rows of a split lattice repeat.
            base = dyadic_rows(rng, int(rng.integers(1, 6)), xdim)
            xstars = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 15)))]
            ystars = dyadic_rows(rng, int(rng.integers(1, 8)), ydim)
            got = partial_conjugate(V, X, Y, xstars, ystars)
            assert_bitwise(got, lattice_brute(phi, xstars, ystars))
        assert empty_rows  # some x rows had no finite value

    def test_close_to_brute_on_non_dyadic_data(self):
        rng = np.random.default_rng(223)
        for _ in range(60):
            xdim, ydim = (int(v) for v in rng.integers(1, 3, size=2))
            xgrid = Grid(tuple(Axis(-1.3, 0.7, int(rng.integers(2, 6))) for _ in range(xdim)))
            ygrid = Grid(tuple(Axis(0.1, 2.3, int(rng.integers(2, 6))) for _ in range(ydim)))
            pg = product_grid(xgrid, ygrid)
            vals = rng.standard_normal(pg.size) * 10.0 ** float(rng.integers(-3, 4))
            vals[rng.random(pg.size) < 0.2] = INF
            phi = GriddedFunction(pg, vals)
            xstars = rng.standard_normal((int(rng.integers(1, 12)), xdim)) * 3.0
            ystars = rng.standard_normal((int(rng.integers(1, 12)), ydim)) * 3.0
            got = partial_conjugate(*split(phi, xgrid, ygrid), xstars, ystars)
            want = lattice_brute(phi, xstars, ystars)
            if not np.isfinite(want).all():
                assert_bitwise(got, want)  # every node +inf: -inf everywhere
                continue
            assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()

    X = Grid.from_bounds([(-1.0, 1.0, 3)])
    Y = Grid.from_bounds([(0.0, 1.0, 2)])
    XSTARS = np.array([[1.0], [-0.5], [2.0]])
    YSTARS = np.array([[0.5], [-1.0]])

    def table(self, values):
        phi = GriddedFunction(product_grid(self.X, self.Y), np.asarray(values).reshape(-1))
        got = partial_conjugate(*split(phi, self.X, self.Y), self.XSTARS, self.YSTARS)
        assert_bitwise(got, lattice_brute(phi, self.XSTARS, self.YSTARS))
        return got

    def test_minus_inf_anywhere_gives_plus_inf(self):
        got = self.table([[0.0, INF], [INF, INF], [1.0, -INF]])
        assert (got == INF).all()

    def test_no_finite_value_gives_minus_inf(self):
        got = self.table(np.full((3, 2), INF))
        assert (got == -INF).all()

    def test_rows_without_finite_values_are_skipped(self):
        got = self.table([[INF, INF], [0.5, INF], [INF, INF]])
        # Only the node (0, 0) counts: f*(s, t) = -0.5.
        assert (got == -0.5).all()

    def test_repeated_rows_and_signed_zeros_are_kept_apart(self):
        phi = GriddedFunction(
            product_grid(self.X, self.Y), np.array([0.0, 1.0, -2.0, INF, 0.25, 3.0])
        )
        xstars = np.array([[0.0], [-0.0], [1.0], [0.0], [1.0], [-0.0]])
        got = partial_conjugate(*split(phi, self.X, self.Y), xstars, self.YSTARS)
        assert_bitwise(got, lattice_brute(phi, xstars, self.YSTARS))
        for i, row in enumerate(xstars):
            alone = partial_conjugate(*split(phi, self.X, self.Y), row[None, :], self.YSTARS)
            assert_bitwise(got[i : i + 1], alone)
        rows, inverse = conjugate_module.unique_rows(xstars)
        assert rows.shape[0] == 3
        assert inverse[0] == inverse[3] != inverse[1] == inverse[5]

    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_unique_rows_matches_numpy_unique_bitwise(self, cols):
        rng = np.random.default_rng(233 + cols)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-40, INF, -INF])
        cases = [
            rng.choice(pool, size=(int(rng.integers(1, 30)), cols)) for _ in range(50)
        ]
        cases += [np.full((1, cols), -0.0), np.full((7, cols), 0.5)]
        for rows in cases:
            want, want_inverse = np.unique(
                rows.view(np.uint64), axis=0, return_inverse=True
            )
            got, inverse = conjugate_module.unique_rows(rows)
            np.testing.assert_array_equal(got.view(np.uint64), want)
            np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
            np.testing.assert_array_equal(got[inverse].view(np.uint64), rows.view(np.uint64))

    def test_node_rows_may_be_lists(self):
        # X given as a list once ended in a bare AttributeError (X.shape)
        phi = GriddedFunction(product_grid(self.X, self.Y), np.arange(6.0) / 4)
        values, X, Y = split(phi, self.X, self.Y)
        got = partial_conjugate(values.tolist(), X.tolist(), Y.tolist(), self.XSTARS, self.YSTARS)
        assert_bitwise(got, partial_conjugate(values, X, Y, self.XSTARS, self.YSTARS))

    def test_small_cap_chunks_both_maxima(self, monkeypatch):
        rng = np.random.default_rng(229)
        phi, F = random_problem(rng, max_count=6, xdim=2, ydim=2)
        xstars, ystars = dyadic_rows(rng, 40, 2), dyadic_rows(rng, 9, 2)
        want = partial_conjugate(*split(phi, F.xgrid, F.ygrid), xstars, ystars)
        monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", 7)
        got = partial_conjugate(*split(phi, F.xgrid, F.ygrid), xstars, ystars)
        assert_bitwise(got, want)
        assert_bitwise(got, lattice_brute(phi, xstars, ystars))


def fiber_case(rng, case, xdim, ydim):
    """A values table and its x and y rows for the fiber property: rows
    drawn from a few distinct ones, all distinct rows in no sorted order,
    one row, all-+inf rows and +inf entries, rows that differ only in the
    sign of a zero, or permutations of one row (which a plain sum of
    their bits cannot tell apart)."""
    nx, ny = int(rng.integers(1, 14)), int(rng.integers(1, 6))
    pool = np.array([0.0, -0.0, 1.0, -1.5, 0.1, 2.0**-10, 3.0, INF])

    def rows(n):
        out = rng.standard_normal((n, ny)) * 10.0 ** int(rng.integers(-3, 4))
        pick = rng.random((n, ny)) < 0.4
        out[pick] = rng.choice(pool, size=int(pick.sum()))
        return out

    if case == "one row":
        nx = 1
    if case == "repeated":
        values = rows(3)[rng.integers(0, 3, size=nx)]
    elif case == "signed zeros":
        values = np.where(rng.random((nx, ny)) < 0.5, 0.0, -0.0)
        values[:, 0] = rng.choice([0.0, -0.0, 1.0], size=nx)
    elif case == "permuted":
        base = rows(1)[0]
        values = np.array([rng.permutation(base) for _ in range(nx)])
    else:
        values = rows(nx)
    if case == "+inf rows":
        values[rng.random(nx) < 0.4] = INF
    X = dyadic_rows(rng, nx, xdim)
    if rng.random() < 0.5:
        X = X + 0.1 * rng.standard_normal((nx, xdim))
    Y = dyadic_rows(rng, ny, ydim)
    xstars = rng.standard_normal((int(rng.integers(1, 9)), xdim)) * 3.0
    ystars = rng.standard_normal((int(rng.integers(1, 9)), ydim)) * 3.0
    return values, X, Y, xstars, ystars


class TestFibers:
    """The kernel conjugates each fiber of bit-identical x rows once; it
    equals the per-row kernel it replaced, `per_row_partial_conjugate`,
    bit for bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["repeated", "distinct", "one row", "+inf rows", "signed zeros", "permuted"]),
        st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
        st.sampled_from([1, 3, 7, 50, None]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_row_kernel_bitwise(self, seed, case, dims, cap, collide):
        """Also at a lowered `_BLOCK_CAP`, and with `_MIX` = 0 (`collide`),
        so that every row hashes to 0 and the row check alone splits the
        rows apart."""
        rng = np.random.default_rng(seed)
        values, X, Y, xstars, ystars = fiber_case(rng, case, *dims)
        want = per_row_partial_conjugate(values, X, Y, xstars, ystars)
        blocked = conjugate_module._BLOCK_CAP if cap is None else cap
        mix = 0 if collide else conjugate_module._MIX
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", blocked), \
                mock.patch.object(conjugate_module, "_MIX", mix), np.errstate(all="ignore"):
            assert_bitwise(partial_conjugate(values, X, Y, xstars, ystars), want)

    @pytest.mark.parametrize("collide", [False, True])
    def test_runs_hold_bit_identical_rows(self, collide, monkeypatch):
        if collide:
            monkeypatch.setattr(conjugate_module, "_MIX", 0)
        rows = np.array([[1.0, 2.0], [2.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
        at, starts = conjugate_module._fibers(rows.__getitem__, np.arange(6), 2)
        runs = [sorted(at[a:b].tolist()) for a, b in zip(starts, [*starts[1:], 6])]
        # With one hash for all, only the first row's copies stay in its run.
        want = [[0, 4], [1], [2], [3], [5]] if collide else [[0, 4], [1], [2, 5], [3]]
        assert sorted(runs) == want
        at, starts = conjugate_module._fibers(rows.__getitem__, np.array([0, 1, 2]), 2)
        assert sorted(at.tolist()) == [0, 1, 2] and starts.tolist() == [0, 1, 2]

    def test_hash_keeps_infinite_and_dyadic_rows_apart(self):
        """Rows of 0 and +inf entries, and the narrow dyadic rows of a
        split lattice, hash apart: 300 patterns of 50 entries repeated ten
        times make 300 fibers, 5,000 distinct ones are each read once for
        the hash and never compared, and separable_quadratic's 6,561 x*
        split-lattice rows make one fiber per distinct step.  A linear hash
        with multipliers in arithmetic progression kept only 12 bits of
        +inf and gave these 858 fibers, 4,047 collisions and 3,792 runs."""
        rng = np.random.default_rng(0)
        patterns = np.where(rng.random((300, 50)) < 0.5, 0.0, INF)
        assert conjugate_module.unique_rows(patterns)[0].shape[0] == 300
        rows = patterns[np.repeat(np.arange(300), 10)]
        _, starts = conjugate_module._fibers(rows.__getitem__, np.arange(3000), 50)
        assert starts.size == 300

        distinct = np.where(rng.random((5000, 50)) < 0.5, 0.0, INF)
        assert conjugate_module.unique_rows(distinct)[0].shape[0] == 5000
        read = []

        def rows_read(at):
            read.append(at.size)
            return distinct[at]

        _, starts = conjugate_module._fibers(rows_read, np.arange(5000), 50)
        assert starts.size == 5000 and sum(read) == 5000

        duals = load_fixture("separable_quadratic").xduals
        lattice = split_lattice(duals.nodes, duals)
        _, starts = conjugate_module._fibers(lattice.__getitem__, np.arange(6561), 2)
        assert starts.size == conjugate_module.unique_rows(lattice)[0].shape[0] == 289

    def test_a_full_map_takes_one_inner_max(self, monkeypatch):
        """The graph support of a `full` map reads one row of the graph
        indicator for its inner max: every x row has the same fiber.  The
        rows that grouping the x rows (`_fibers`) reads are not counted."""
        setmap = importlib.import_module("marginlab.setmap")
        read, grouping = [], []
        fibers = conjugate_module._fibers

        def counted_fibers(*args):
            grouping.append(True)
            try:
                return fibers(*args)
            finally:
                grouping.pop()

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def where(self, cond, *args):
                if not grouping:
                    read.append(cond.shape[0])
                return np.where(cond, *args)

        X = Grid.from_bounds([(-1.0, 1.0, 9), (-1.0, 1.0, 5)])
        Y = Grid.from_bounds([(0.0, 2.0, 7)])
        F = setmap.full_map(X, Y)
        xstars, ystars = dyadic_rows(np.random.default_rng(5), 11, 2), np.array([[1.0], [-0.5]])
        want = setmap.graph_support(F, xstars, ystars)
        monkeypatch.setattr(setmap, "np", Numpy())
        monkeypatch.setattr(conjugate_module, "_fibers", counted_fibers)
        assert_bitwise(setmap.graph_support(F, xstars, ystars), want)
        assert sum(read) == 1


class TestDefaultDualGrids:
    @staticmethod
    def bits(grid):
        return [(a.lo.hex(), a.hi.hex(), a.count) for a in grid.axes]

    def test_ydual_grid_is_the_y_part_of_the_whole_box(self):
        """The y* box takes slopes on the y axes alone, bit for bit the y
        axes of the box over all of phi's axes."""
        cases = []
        for path in sorted(FIXTURES.glob("*.spec")):
            spec = load_fixture(path.stem)
            cases.append((spec.build()[0], spec.xgrid.dim))
        rng = np.random.default_rng(29)
        for _ in range(40):
            xdim, ydim = (int(d) for d in rng.integers(1, 3, size=2))
            phi, _ = random_problem(rng, max_count=5, xdim=xdim, ydim=ydim)
            cases.append((phi, xdim))
        for phi, m in cases:
            for count in (None, 4, 9):
                whole = Grid(default_dual_grid(phi, count).axes[m:])
                assert self.bits(default_ydual_grid(phi, m, count)) == self.bits(whole)

    def test_ydual_grid_takes_no_slope_on_an_x_axis(self):
        grid = product_grid(Grid.from_bounds([(-1.0, 1.0, 5)]), Grid.from_bounds([(0.0, 1.0, 3)]))
        x, y = grid.nodes.T
        phi = GriddedFunction(grid, 1e308 * x + y**2)
        assert self.bits(default_ydual_grid(phi, 1)) == [((-2.0).hex(), (2.0).hex(), 3)]
        with pytest.raises(InvalidArgument, match="x axis 1: a secant slope of 1e"):
            default_dual_grid(phi)


class TestFastAgainstBrute:
    def test_one_dimensional_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 200))
            g = Grid.from_bounds([(-2.0, 2.0, n)])
            f = GriddedFunction(g, random_values(rng, n, p_inf=0.25))
            if not (f.values < INF).any():
                continue
            duals = default_dual_grid(f, 31)
            fast = conjugate_fast(f, duals).values
            brute = conjugate(f, duals).values
            assert np.abs(fast - brute).max() <= 1e-12

    def test_separable_two_dimensional(self):
        g = Grid.from_bounds([(-1.0, 1.0, 9), (-1.0, 1.0, 9)])
        vals = (g.nodes**2).sum(axis=1) + np.abs(g.nodes).sum(axis=1)
        f = GriddedFunction(g, vals)
        duals = default_dual_grid(f, 7)
        fast = conjugate_fast(f, duals).values
        brute = conjugate(f, duals).values
        np.testing.assert_allclose(fast, brute, atol=1e-12)

    def test_non_separable_multi_d_is_refused(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
        f = GriddedFunction(g, np.abs(g.nodes[:, 0] - g.nodes[:, 1]))
        duals = default_dual_grid(f, 5)
        with pytest.raises(UnsupportedShape) as refused:
            conjugate_fast(f, duals)
        # the check reports the refusal as an INFO row with its reason
        rep = fast_conjugate_check(f, conjugate(f, duals))
        assert (rep.fast, rep.max_deviation) == (None, None)
        assert [(v.name, v.status, v.detail) for v in rep.verdicts] == [
            ("fast_matches_bruteforce", "INFO", str(refused.value))
        ]

    def test_improper_inputs_agree(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [0.0, -INF, 1.0, INF])
        duals = default_dual_grid(f)
        np.testing.assert_array_equal(
            conjugate_fast(f, duals).values, conjugate(f, duals).values
        )


class TestFenchelYoung:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inequality_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        f = random_function(rng, dyadic_grid(rng))
        duals = default_dual_grid(f, 7)
        fstar = conjugate(f, duals).values
        X = f.grid.nodes
        for si, s in enumerate(duals.nodes):
            lhs = np.array(
                [lower_add(f.values[i], fstar[si]) for i in range(f.grid.size)]
            )
            pairing = X @ s
            finite = np.isfinite(lhs)
            assert (lhs[finite] >= pairing[finite] - 1e-9).all()
            assert (lhs[~finite] == INF).all() or not (~finite).any()


class TestBiconjugate:
    def test_minorant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_function(rng, dyadic_grid(rng))
            fss = biconjugate(f, default_dual_grid(f, 9))
            assert (fss.values <= f.values + 1e-9).all()

    def test_recovers_convex_data_with_dyadic_slopes(self):
        g = Grid.from_bounds([(-2.0, 2.0, 9)])
        f = GriddedFunction(g, np.abs(g.nodes[:, 0]))
        fss = biconjugate(f, default_dual_grid(f))
        np.testing.assert_allclose(fss.values, f.values, atol=1e-12)


class TestDefaultDualGrid:
    def test_covers_max_secant_slope_with_power_of_two(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, 1.5, 4.5])  # steepest secant 6
        d = default_dual_grid(f)
        (ax,) = d.axes
        assert ax.hi == 8.0 and ax.lo == -8.0
        assert math.log2(ax.hi) == int(math.log2(ax.hi))

    def test_origin_is_a_node(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_function(rng, dyadic_grid(rng, dim=2))
            d = default_dual_grid(f)
            d.index_of([0.0] * d.dim)

    def test_flat_data_still_covers_unit_slope(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [2.0, 2.0, 2.0, 2.0])
        (ax,) = default_dual_grid(f).axes
        assert ax.hi >= 1.0


class TestSupportFunction:
    def test_matches_max_dot(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]])
        duals = Grid.from_bounds([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
        sf = support_function(pts, duals)
        np.testing.assert_allclose(sf.values, (duals.nodes @ pts.T).max(axis=1))

    def test_empty_set_gives_minus_inf(self):
        duals = Grid.from_bounds([(-1.0, 1.0, 3)])
        sf = support_function(np.zeros((0, 1)), duals)
        assert (sf.values == -INF).all()


class TestInfConvolution:
    def test_matches_split_oracle(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        out = Grid.from_bounds([(-2.0, 2.0, 9)])
        rng = np.random.default_rng(13)
        g1 = random_function(rng, g, p_inf=0.2)
        g2 = random_function(rng, g, p_inf=0.2)
        got = inf_convolution(g1, g2, out)
        for flat in range(out.size):
            want = oracle_inf_convolution(g1, g2, out.coords(flat))
            assert got.values[flat] == want

    def test_unreachable_out_node_stays_infinite(self):
        # No split of g's nodes {0, 0.5, 1} sums to the out node 3: the
        # infimum over no split is +inf.
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        out = Grid.from_bounds([(0.0, 3.0, 4)])
        g1 = GriddedFunction(g, [0.0, 1.0, 2.0])
        h = inf_convolution(g1, g1, out)
        np.testing.assert_array_equal(h.values, [0.0, 2.0, 4.0, INF])

