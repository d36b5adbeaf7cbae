"""Lower addition, grids, gridded functions, expression evaluation."""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    Axis,
    Grid,
    GriddedFunction,
    DimensionMismatch,
    ExprSyntaxError,
    GridMismatch,
    NonFiniteExpression,
    NotANode,
    UnknownVariable,
    eval_on_grid,
    ext_add_arrays,
    ext_sum,
    product_grid,
    render_value,
)
import marginlab
import marginlab.errors
from marginlab.core import NODE_TOL, as_point, as_rows, default_names, product_names, sorted_distinct
from marginlab.errors import InvalidArgument

from helpers import fixture_names, load_fixture, lower_add, mesh_columns, mesh_eval_on_grid

INF = math.inf
conjugate_module = importlib.import_module("marginlab.conjugate")
SRC = Path(__file__).resolve().parent.parent / "src" / "marginlab"

ext_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([INF, -INF]),
)


class TestExtendedReals:
    def test_lower_addition_table(self):
        a = np.array([INF, -INF, INF, -INF, INF, -INF, 1.5])
        b = np.array([-INF, INF, INF, -INF, 3.0, 3.0, 2.5])
        want = [INF, INF, INF, -INF, INF, -INF, 4.0]
        assert ext_add_arrays(a, b).tolist() == want

    @given(ext_floats, ext_floats)
    def test_array_addition_matches_scalar(self, a, b):
        out = ext_add_arrays(np.array([a]), np.array([b]))
        assert not np.isnan(out).any()
        assert out[0] == lower_add(a, b)

    @given(ext_floats, ext_floats)
    def test_addition_commutes(self, a, b):
        assert ext_add_arrays(a, b) == ext_add_arrays(b, a)

    def test_render_value(self):
        assert render_value(INF) == "+inf"
        assert render_value(-INF) == "-inf"
        assert render_value(1.5) == 1.5


class TestSortedDistinct:
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-40, INF, -INF]),
        st.floats(allow_nan=False),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(values, max_size=80), st.integers(0, 3))
    def test_matches_numpy_unique_bitwise(self, items, cols):
        # cols 0 is a 1-D array, else rows of `cols` columns; in both,
        # 0.0 and -0.0 compare equal and only one of them is kept
        a = np.array(items, dtype=np.float64)
        if cols:
            a = a[: a.size // cols * cols].reshape(-1, cols)
        want = np.unique(a, axis=0 if cols else None)
        got = sorted_distinct(a)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def dataclasses_without_post_init(source):
    """Names of the classes decorated with `dataclass` in any form that
    define no `__post_init__`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(ast.unparse(d).split(".")[-1] == "dataclass" for d in decorators):
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if "__post_init__" not in methods:
                names.append(node.name)
    return names


class TestRecordClasses:
    """A class that only holds fields is a NamedTuple, as `Verdict` is: a
    frozen dataclass takes several times as long to create at import,
    since the dataclass machinery compiles source for each of its methods.
    Only a class that validates or normalises its fields stays a dataclass."""

    RECORDS = """
        ConjugateRepresentationReport DualityReport EpigraphReport
        EpsSubdifferentialReport FastConjugateReport ImageReport Interval
        LagrangianIdentityReport LagrangianTable LipschitzReport MarginalResult
        NearConvexityReport ProbeLevel ProblemSpec RasterCheckReport RestrictedConjugateReport
        SemicontinuityReport SlaterReport StructureReport SumRuleReport TheoremReport
    """.split()

    def test_guard_sees_every_form(self):
        source = (
            "@dataclass\nclass A:\n    x: int\n"
            "@dataclass(frozen=True)\nclass B:\n    x: int\n"
            "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n"
            "@dataclass(frozen=True)\nclass D:\n    def __post_init__(self):\n        pass\n"
        )
        assert dataclasses_without_post_init(source) == ["A", "B", "C"]

    def test_dataclass_only_where_post_init_checks(self):
        plain = [
            (path.stem, name)
            for path in sorted(SRC.glob("*.py"))
            for name in dataclasses_without_post_init(path.read_text(encoding="utf-8"))
        ]
        assert len(list(SRC.glob("*.py"))) > 10  # the scan sees the package
        assert plain == []

    def test_records_are_named_tuples(self):
        classes = {name: getattr(marginlab, name) for name in self.RECORDS}
        assert [n for n, c in classes.items() if not (issubclass(c, tuple) and c._fields)] == []

    def test_record_fields_stay_read_only(self):
        iv = marginlab.Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.lo = 2.0
        assert iv._replace(hi=2.0) == (0.0, 2.0) and iv == (0.0, 1.0)


def raised_names(source):
    """The name each `raise` statement raises (the class or function it
    calls, without a module prefix), None for a bare re-raise."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(None if exc is None else ast.unparse(exc).split(".")[-1])
    return names


def referring_functions(source, name):
    """For each reference to `name` (bare or as an attribute), the innermost
    function that holds it, '<module>' outside any function."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if getattr(node, "attr", None) == name or getattr(node, "id", None) == name:
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return owners


class TestInputValidator:
    """`core.as_rows` is the one check of the public point and row arguments:
    every other exception the package raises is a `marginlab.errors` class,
    and no module coerces point stacks by hand."""

    # Named exceptions to the raise rule, each one Python or the package needs.
    NOT_ERRORS_CLASSES = {
        ("__init__", "AttributeError"),  # a PEP 562 module __getattr__ must raise it
        ("spec", "_at_line"),  # returns the ExpressionError it is given, located
    }

    def test_raise_guard_sees_every_form(self):
        source = (
            "raise A\nraise B('x')\nraise m.C('x') from None\n"
            "try:\n    pass\nexcept E:\n    raise\n"
        )
        assert raised_names(source) == ["A", "B", "C", None]

    def test_every_raise_names_an_errors_class(self):
        errors = {
            name for name, value in vars(marginlab.errors).items()
            if isinstance(value, type) and issubclass(value, marginlab.MarginlabError)
        }
        stray = [
            (path.stem, name)
            for path in sorted(SRC.glob("*.py"))
            for name in raised_names(path.read_text(encoding="utf-8"))
            if name not in errors | {"UsageError", None}
            and (path.stem, name) not in self.NOT_ERRORS_CLASSES
        ]
        assert len(list(SRC.glob("*.py"))) > 10  # the scan sees the package
        assert stray == []

    def test_every_leaf_errors_class_is_raised(self):
        # A class no other class derives from exists to be raised; base
        # classes exist to be caught.
        classes = [
            value for value in vars(marginlab.errors).values()
            if isinstance(value, type) and issubclass(value, marginlab.MarginlabError)
        ]
        leaves = {c.__name__ for c in classes if not any(c in d.__bases__ for d in classes)}
        raised = {
            name for path in sorted(SRC.glob("*.py"))
            for name in raised_names(path.read_text(encoding="utf-8"))
        }
        assert len(leaves) > 10  # the scan sees the errors module
        assert sorted(leaves - raised) == []

    def test_reference_guard_sees_every_form(self):
        source = (
            "import numpy as np\nx = np.atleast_2d(1)\n"
            "def f():\n    def g():\n        return atleast_2d\n    return np.atleast_2d(2)\n"
        )
        assert referring_functions(source, "atleast_2d") == ["<module>", "g", "f"]

    def test_atleast_2d_only_in_the_validator(self):
        sites = [
            (path.stem, owner)
            for path in sorted(SRC.glob("*.py"))
            for owner in referring_functions(path.read_text(encoding="utf-8"), "atleast_2d")
        ]
        assert sites == [("core", "as_rows")]

    def test_float_rows_are_not_copied(self):
        a = np.arange(6.0).reshape(3, 2)
        assert as_rows(a, 2, "rows") is a
        assert np.shares_memory(as_rows(a[0], 2, "row"), a)
        assert as_rows([[1, 2]], None, "rows").dtype == np.float64

    def test_one_row_and_zero_rows(self):
        assert as_rows([1.0, 2.0], 2, "row").shape == (1, 2)
        assert as_rows(np.zeros((0, 3)), 3, "rows").shape == (0, 3)
        np.testing.assert_array_equal(as_point([[1.0, 2.0]], 2, "x0"), [1.0, 2.0])
        with pytest.raises(InvalidArgument, match="x0: 0 rows, expected one point"):
            as_point(np.zeros((0, 2)), 2, "x0")

    @pytest.mark.parametrize(
        "a, error, message",
        [
            ([[1.0, 2.0, 3.0]], DimensionMismatch, "rows: 3 coordinates per row, expected 2"),
            (np.zeros((1, 1, 2)), InvalidArgument, "rows: 3 axes"),
            ([[1.0, math.nan]], InvalidArgument, r"rows: a non-finite entry \(NaN\)"),
            ([[1.0, -INF]], InvalidArgument, r"rows: a non-finite entry \(an infinity\)"),
            ("abc", InvalidArgument, "rows: entries are not numbers"),
            (np.array([[None, 1.0]], dtype=object), InvalidArgument, "NaN"),
            ([[1.0], [2.0, 3.0]], InvalidArgument, "rows: entries are not numbers"),
        ],
    )
    def test_malformed_rows_rejected(self, a, error, message):
        with pytest.raises(error, match=message):
            as_rows(a, 2, "rows")


class TestGrids:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis(0.0, INF, 3)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 1e308)])
    def test_axis_with_overflowing_offsets_rejected(self, lo, hi):
        # hi - lo overflows in the first case, 2 * (hi - lo) in the second
        with pytest.raises(ValueError, match="too wide"):
            Axis(lo, hi, 3)
        assert np.isfinite(Axis(lo / 4, hi / 4, 3).coords()).all()

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None, np.float64(3.0)])
    def test_axis_count_must_be_an_integer(self, count):
        # a count of 2.5 used to pass and put coords() past hi
        with pytest.raises(InvalidArgument, match="count must be an integer"):
            Axis(0.0, 1.0, count)

    @pytest.mark.parametrize("lo, hi", [("a", 1.0), (0.0, None), (0.0, [1.0]), (0j, 1.0)])
    def test_axis_endpoints_must_be_real_numbers(self, lo, hi):
        # ("a", 1.0) used to end in a bare TypeError
        with pytest.raises(InvalidArgument, match="endpoints must be real numbers"):
            Axis(lo, hi, 3)

    def test_axis_keeps_numeric_fields_as_given(self):
        ax = Axis(np.float64(-1.0), 2, np.int64(4))
        assert (type(ax.lo), type(ax.hi), type(ax.count)) == (np.float64, int, np.int64)
        np.testing.assert_array_equal(ax.coords(), [-1.0, 0.0, 1.0, 2.0])

    def test_axis_coords_hit_endpoints(self):
        ax = Axis(-1.0, 2.0, 7)
        c = ax.coords()
        assert c[0] == -1.0 and c[-1] == 2.0
        assert ax.step == pytest.approx(0.5)

    def test_nodes_row_major(self):
        g = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 2.0, 3)])
        assert g.shape == (2, 3)
        assert g.size == 6
        np.testing.assert_allclose(
            g.nodes,
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        )

    def test_index_roundtrip(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 2.0, 5)])
        for flat in range(g.size):
            assert g.index_of(g.coords(flat)) == flat
            assert g.flat(g.multi(flat)) == flat

    def test_index_of_rejects_off_node_points(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        with pytest.raises(NotANode):
            g.index_of([0.3])
        with pytest.raises(NotANode):
            g.index_of([1.5])
        with pytest.raises(DimensionMismatch):
            g.index_of([0.0, 0.0])

    @pytest.mark.parametrize("bad", [INF, -INF, math.nan])
    def test_index_of_rejects_non_finite_points(self, bad):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 2.0, 5)])
        with pytest.raises(NotANode, match="non-finite"):
            g.index_of([0.0, bad])

    def test_refine_keeps_old_nodes(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 4.0, 3)])
        fine = g.refine(4)
        assert fine.shape == (17, 9)
        for flat in range(g.size):
            fine.index_of(g.coords(flat))

    def test_refine_rejects_bad_factor(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(ValueError):
            g.refine(0)

    def test_product_grid(self):
        a = Grid.from_bounds([(0.0, 1.0, 3)])
        b = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)])
        p = product_grid(a, b)
        assert p.dim == 3
        assert p.size == 12


class TestGriddedFunction:
    def test_nan_rejected(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        with pytest.raises(ValueError):
            GriddedFunction(g, [0.0, float("nan"), 1.0])

    def test_size_mismatch(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        with pytest.raises(GridMismatch):
            GriddedFunction(g, [0.0, 1.0])

    def test_masks_and_properness(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [1.0, INF, -INF, 0.0])
        np.testing.assert_array_equal(f.dom_mask, [True, False, True, True])
        np.testing.assert_array_equal(f.finite_mask, [True, False, False, True])

    def test_values_read_only(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        f = GriddedFunction(g, [0.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_ext_sum_uses_lower_addition(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [INF, -INF, 1.0])
        h = GriddedFunction(g, [-INF, -INF, 2.0])
        s = ext_sum(f, h)
        assert s.values[0] == INF
        assert s.values[1] == -INF
        assert s.values[2] == 3.0
        other = Grid.from_bounds([(0.0, 2.0, 3)])
        with pytest.raises(GridMismatch):
            ext_sum(f, GriddedFunction(other, [0.0, 0.0, 0.0]))


class TestExpressions:
    def test_eval_simple(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        f = eval_on_grid("x^2", g)
        np.testing.assert_allclose(f.values, [1.0, 0.25, 0.0, 0.25, 1.0])

    def test_alias_and_numbered_names(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        np.testing.assert_array_equal(
            eval_on_grid("abs(x)", g).values, eval_on_grid("abs(x1)", g).values
        )

    def test_builtins(self):
        g = Grid.from_bounds([(-2.0, 2.0, 5)])
        np.testing.assert_allclose(
            eval_on_grid("min(x, 0) + max(x, 1)", g).values,
            [-1.0, 0.0, 1.0, 1.0, 2.0],
        )

    def test_domain_constraints_map_to_plus_inf(self):
        g = Grid.from_bounds([(-2.0, 2.0, 5)])
        f = eval_on_grid("x", g, domain=["abs(x) - 1"])
        np.testing.assert_array_equal(f.values, [INF, -1.0, 0.0, 1.0, INF])

    def test_division_blowup_raises(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        with pytest.raises(NonFiniteExpression):
            eval_on_grid("1 / x", g)
        f = eval_on_grid("1 / x", g, domain=["0.5 - abs(x)"])
        assert f.values[1] == INF
        assert f.values[0] == -1.0

    def test_unknown_variable(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(UnknownVariable):
            eval_on_grid("x + z", g)

    def test_syntax_error_carries_position(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(ExprSyntaxError):
            eval_on_grid("x + * 2", g)

    def test_two_dimensional_names(self):
        g = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)])
        f = eval_on_grid("x1 + 2 * x2", g)
        np.testing.assert_allclose(f.values, [0.0, 2.0, 1.0, 3.0])


class TestBlockedEvaluation:
    """Every fixture builds as it did on the table of all its nodes: phi by
    `eval_on_grid`, and the constraint maps, in blocks of nodes at the
    real `_BLOCK_CAP` and at one of 64 entries."""

    @pytest.mark.parametrize("cap", [None, 64])
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_equals_the_mesh_route(self, name, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        spec = load_fixture(name)
        for refine in (1, 3) if spec.phi_kind == "expr" else (1,):
            phi, F = spec.build(refine)
            xg, yg = F.xgrid, F.ygrid
            if spec.phi_kind == "expr":
                names = product_names(xg.dim, yg.dim)
                want = mesh_eval_on_grid(spec.phi_expr, phi.grid, *names, spec.phi_where)
                np.testing.assert_array_equal(phi.values.view(np.uint64), want.values.view(np.uint64))
            if spec.f_kind == "constraints":
                cols = mesh_columns(spec.f_exprs, product_grid(xg, yg), *product_names(xg.dim, yg.dim))
                with np.errstate(invalid="ignore"):
                    mask = np.logical_and.reduce([c <= NODE_TOL for c in cols])
                np.testing.assert_array_equal(F.graph, mask.reshape(F.graph.shape))
            if spec.f_kind == "ineq":
                gvals = np.stack(mesh_columns(spec.f_exprs, yg, *default_names(yg, "y")))
                want = (gvals.T[None, :, :] <= xg.nodes[:, None, :] + NODE_TOL).all(axis=2)
                np.testing.assert_array_equal(F.graph, want)
