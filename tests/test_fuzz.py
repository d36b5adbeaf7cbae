"""Fuzzed input: every text ends in a result or a located MarginlabError,
and every point or row array in a result or a MarginlabError.

`parse_spec` (then `build(1)`), `expr.parse` and `load_raster` get arbitrary
text and text assembled from their own keywords, so that both the first
line of defence and the later checks see input.  A failure other than a
`MarginlabError` is a parser bug, and so is an expression error from a
spec that names no spec line.  A location an error names must fall
inside its input: a 1-based line of the text, or the line just past its
end where an error reports missing input, and a column of that line, or
one past its end.  Expression columns are 0-based offsets into the text,
with its length meaning the end of the input.

The library's point and row arguments get arrays of the right shape and
of a wrong one: another width, more axes, no rows, NaN or an infinity,
object entries and strings.  Each public name that takes them must return
a result or raise a `MarginlabError`; any other exception, or a numpy
RuntimeWarning, which the suite turns into an error, is a bug.
"""

import importlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marginlab import (
    DimensionMismatch,
    Grid,
    HPolyhedron,
    MarginlabError,
    conjugate_at,
    eps_normal_cone,
    eps_subdifferential,
    eval_on_grid,
    full_map,
    graph_support,
    load_raster,
    map_conjugate_at,
    map_from_points,
    max_dots_minus,
    parse_spec,
    partial_conjugate,
    sampled_inf_convolution,
    support_function,
)
from marginlab.core import product_names
from marginlab.errors import ExpressionError, ExprSyntaxError, InvalidArgument
from marginlab.expr import parse

from helpers import mesh_eval_on_grid

conjugate_module = importlib.import_module("marginlab.conjugate")

FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_LOCATION = re.compile(r"line (\d+)(?:, column (\d+)|: column (\d+))?: ")


def assert_located(err: MarginlabError, text: str) -> None:
    """The line and column `err` names, if any, lie inside `text`."""
    if isinstance(err, ExprSyntaxError):  # offsets into an expression
        assert 0 <= err.col <= len(text), (err, text)
    found = _LOCATION.match(str(err))
    if found is None:
        return
    line = int(found[1])
    lines = text.splitlines()
    assert 1 <= line <= len(lines) + 1, (err, text)
    col = found[2] or found[3]
    if col is not None:
        width = len(lines[line - 1]) if line <= len(lines) else 0
        assert 1 <= int(col) <= width + 1, (err, text)


# --- expressions ---------------------------------------------------------------

EXPR_TOKENS = st.sampled_from(
    ["x", "y", "x1", "_a", "abs", "min", "max", "(", ")", ",", "+", "-", "*",
     "/", "^", "1", "0.5", "1e3", "1e", "1.2.3", ".", "e5", " ", "\t", "#", "?"]
)
EXPRESSIONS = st.one_of(st.text(max_size=30), st.lists(EXPR_TOKENS, max_size=15).map("".join))


@FUZZ
@given(EXPRESSIONS)
def test_expression_parser_ends_in_a_tree_or_a_located_error(text):
    try:
        parse(text)
    except MarginlabError as e:
        assert_located(e, text)


# --- problem specs ---------------------------------------------------------------

NUMBERS = st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.5", "3", "nan", "inf", "-inf",
                           "1e308", "-1e308", "1e-300", "2.5", "x", ""])
COUNTS = st.sampled_from(["1", "2", "3", "0", "-1", "2.5", "1e3", "three"])
SECTIONS = ["xgrid", "ygrid", "phi", "F", "xduals", "yduals", "lambdas", "lagrangian",
            "raster", "raster2", "metadata", "tasks", "bogus", ""]
KEYS = ["name", "axis", "expr", "table", "where", "ineq", "constraints", "point", "full",
        "f", "g", "file", "convex", "qc1", "qc14", "slater", "verify-all", "marginal", "junk"]
SPEC_EXPRESSIONS = st.one_of(
    st.sampled_from(["x + y", "x^2 + y^2", "y - x", "abs(x) - y", "1/x", "0^-1", "x - y + 1",
                     "max(x, y)", "min(x1, y1)", "z", "x^", "(x", "y - 2"]),
    EXPRESSIONS,
)


@st.composite
def spec_lines(draw):
    """One spec line: a section header, a keyword with arguments, or noise."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return f"[{draw(st.sampled_from(SECTIONS))}]"
    if kind == 1:
        key = draw(st.sampled_from(KEYS))
        args = draw(st.lists(st.one_of(NUMBERS, COUNTS, SPEC_EXPRESSIONS), max_size=4))
        return " ".join([key, *args])
    if kind == 2:
        return draw(st.sampled_from(["", "  ", "# note", "true", "false", "  axis 0 1 2"]))
    return draw(st.text(max_size=20))


AXES = (
    st.sampled_from(["-1 1 3", "0 1 2", "-1 1 2", "0 2 3"]),
    st.tuples(NUMBERS, NUMBERS, COUNTS).map(" ".join),
)
PHI = (
    st.sampled_from(["expr x + y", "expr x^2 + y^2", "expr abs(x) - y", "table 0 1 2 3"]),
    st.tuples(st.sampled_from(["expr", "table", "where"]), SPEC_EXPRESSIONS).map(" ".join),
)
MAPS = (
    st.sampled_from(["full", "ineq y - x", "constraints x - y", "point 0 1", "point -1 1"]),
    st.one_of(
        SPEC_EXPRESSIONS.map(lambda e: f"ineq {e}"),
        SPEC_EXPRESSIONS.map(lambda e: f"constraints {e}"),
        st.lists(NUMBERS, max_size=3).map(lambda v: " ".join(["point", *v])),
    ),
)


@st.composite
def near_specs(draw):
    """A spec with every required section, each line drawn from valid content
    seven times in eight, and maybe one drawn line inserted anywhere: about
    half of them get through parsing to build."""

    def mostly(choices):
        valid, other = choices
        return draw(valid if draw(st.integers(0, 7)) else other)

    lines = [
        "[xgrid]", f"axis {mostly(AXES)}", "[ygrid]", f"axis {mostly(AXES)}",
        "[phi]", mostly(PHI), "[F]", mostly(MAPS),
    ]
    for line in draw(st.lists(spec_lines(), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines)


SPECS = st.one_of(
    st.text(max_size=200),
    st.lists(spec_lines(), max_size=12).map("\n".join),
    near_specs(),
)


@FUZZ
@given(SPECS)
def test_spec_parser_ends_in_a_problem_or_a_located_error(text):
    try:
        parse_spec(text).build(1)
    except MarginlabError as e:
        assert_located(e, text)
        if isinstance(e, ExpressionError):
            assert _LOCATION.match(str(e)), (e, text)


# --- blocked evaluation -----------------------------------------------------------

EVAL_GRIDS = (
    (Grid.from_bounds([(-1.0, 1.0, 7), (0.0, 2.0, 5)]), *product_names(1, 1)),
    (Grid.from_bounds([(-1.0, 1.0, 3), (-0.5, 1.0, 4), (0.0, 1.0, 3)]), *product_names(2, 1)),
    (Grid.from_bounds([(-2.0, 2.0, 9)]), None, None),  # the default names x1 and x
)


def _evaluated(call):
    """The values' bits, or the error the call raised."""
    try:
        f = call()
    except MarginlabError as e:
        return type(e).__name__, str(e)
    return f.values.tobytes()


@FUZZ
@given(
    SPEC_EXPRESSIONS,
    st.lists(SPEC_EXPRESSIONS, max_size=2),
    st.integers(0, len(EVAL_GRIDS) - 1),
    st.sampled_from([None, 1, 2, 7, 64]),
)
def test_blocked_evaluation_equals_the_mesh_route(text, domain, which, cap):
    """`eval_on_grid` evaluates in blocks of nodes, at a lowered
    `_BLOCK_CAP` down to one node per block or at the real one.  Its
    values, or the error it raises, are those of
    `mesh_eval_on_grid`, which evaluated on the whole node table."""
    grid, names, aliases = EVAL_GRIDS[which]
    want = _evaluated(lambda: mesh_eval_on_grid(text, grid, names, aliases, domain))
    with mock.patch.object(conjugate_module, "_BLOCK_CAP", cap or conjugate_module._BLOCK_CAP):
        assert _evaluated(lambda: eval_on_grid(text, grid, names, aliases, domain)) == want


# --- rasters ----------------------------------------------------------------------

RASTER_HEADERS = st.one_of(
    st.tuples(
        st.sampled_from(["raster", "rastr", ""]),
        st.sampled_from(["1", "2", "3", "0", "4", "x"]),
        st.lists(st.sampled_from(["1", "2", "3", "0", "-1", "1.5", "-1.0", "1.0", "nan"]),
                 max_size=10),
    ).map(lambda h: " ".join([h[0], h[1], *h[2]])),
    st.text(max_size=20),
)
RASTER_ROWS = st.one_of(
    st.text(alphabet="01", max_size=4), st.sampled_from(["", "  ", "012", "1 0"]),
    st.text(max_size=4),
)

RASTERS = st.one_of(
    st.text(max_size=60),
    st.tuples(RASTER_HEADERS, st.lists(RASTER_ROWS, max_size=8)).map(
        lambda r: "\n".join([r[0], *r[1]])
    ),
)


@FUZZ
@given(RASTERS)
def test_raster_loader_ends_in_a_set_or_a_located_error(text):
    try:
        load_raster(text)
    except MarginlabError as e:
        assert_located(e, text)


# --- point and row arrays -------------------------------------------------------

LINE = Grid.from_bounds([(-1.0, 1.0, 3)])
PLANE = Grid.from_bounds([(-1.0, 1.0, 3), (-1.0, 1.0, 3)])  # LINE x LINE
FULL = full_map(LINE, LINE)
SQUARES = eval_on_grid("x1^2 + x2^2", PLANE)
QUADRANT = HPolyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
NODES, TABLE = LINE.nodes, np.zeros((3, 3))  # LINE's nodes, a table on LINE x LINE

# (width, call) per public point or row argument: the call puts the array
# in that argument and fills the others with well-formed values.
ARGUMENTS = {
    "conjugate_at points": (2, lambda a: conjugate_at(SQUARES, a)),
    "max_dots_minus queries": (1, lambda a: max_dots_minus(a, NODES, np.zeros(3))),
    "max_dots_minus points": (1, lambda a: max_dots_minus([[1.0]], a, [0.0])),
    "max_dots_minus values": (3, lambda a: max_dots_minus([[1.0]], NODES, a)),
    "partial_conjugate x*": (1, lambda a: partial_conjugate(TABLE, NODES, NODES, a, [[0.5]])),
    "partial_conjugate y*": (1, lambda a: partial_conjugate(TABLE, NODES, NODES, [[0.5]], a)),
    "partial_conjugate X": (1, lambda a: partial_conjugate(TABLE, a, NODES, [[0.5]], [[0.5]])),
    "partial_conjugate Y": (1, lambda a: partial_conjugate(TABLE, NODES, a, [[0.5]], [[0.5]])),
    "partial_conjugate values": (
        3, lambda a: partial_conjugate(a, NODES, NODES, [[0.5]], [[0.5]])
    ),
    "support_function points": (2, lambda a: support_function(a, PLANE)),
    "map_from_points points": (2, lambda a: map_from_points(a, LINE, LINE)),
    "map_conjugate_at points": (2, lambda a: map_conjugate_at(FULL, a)),
    "graph_support x*": (1, lambda a: graph_support(FULL, a, [[0.5]])),
    "graph_support y*": (1, lambda a: graph_support(FULL, [[0.5]], a)),
    "HPolyhedron normals": (2, lambda a: HPolyhedron(a, [1.0])),
    "HPolyhedron offsets": (1, lambda a: HPolyhedron([[1.0, 0.0]], a)),
    "HPolyhedron.contains points": (2, lambda a: QUADRANT.contains(a)),
    "eps_normal_cone points": (2, lambda a: eps_normal_cone(a, [0.0, 0.0], 0.5)),
    "eps_normal_cone x0": (2, lambda a: eps_normal_cone(PLANE.nodes, a, 0.5)),
    "eps_subdifferential x0": (2, lambda a: eps_subdifferential(SQUARES, a, 0.5)),
    "sampled_inf_convolution at": (
        1, lambda a: sampled_inf_convolution(SQUARES, FULL, a, LINE, LINE)
    ),
    "Grid.index_of point": (2, lambda a: PLANE.index_of(a)),
}

ARRAYS = settings(FUZZ, max_examples=100)
ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.0, 2.0, math.nan, math.inf, -math.inf])


@st.composite
def point_arrays(draw, width):
    """A stack of rows, mostly `width` wide, in one of the forms a caller
    may pass: an array, one row, more axes, a list, objects, text."""
    rows = draw(st.integers(0, 3))
    cols = draw(st.sampled_from([width, width, width, width - 1, width + 1, 0]))
    entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    a = np.array(entries, dtype=np.float64).reshape(rows, cols)
    form = draw(st.sampled_from(
        ["rows", "row", "deeper", "list", "objects", "none", "text", "word", "scalar", "ragged"]
    ))
    if form == "row":
        return a[0] if rows else a.reshape(-1)
    if form == "deeper":
        return a[None]
    if form == "list":
        return a.tolist()
    if form == "objects":
        return a.astype(object)
    if form == "none":
        return np.array([[None] * cols] * rows, dtype=object)
    if form == "text":
        return a.astype(str)
    if form == "word":
        return draw(st.sampled_from(["abc", "1, 2", ""]))
    if form == "scalar":
        return draw(ENTRIES)
    if form == "ragged":
        return [[0.0] * width, [0.0] * (width + 1)]
    return a


@ARRAYS
@given(st.data())
@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_point_arguments_end_in_a_result_or_a_marginlab_error(name, data):
    width, call = ARGUMENTS[name]
    a = data.draw(point_arrays(width))
    try:
        call(a)
    except MarginlabError:
        pass


@pytest.mark.parametrize(
    "call, error",
    [
        # each of these once returned a number
        (lambda: conjugate_at(SQUARES, [[math.nan, 0.0]]), InvalidArgument),
        (lambda: map_conjugate_at(FULL, [[math.inf, 0.0]]), InvalidArgument),
        (lambda: max_dots_minus([[0.0, 1.0]], NODES, np.zeros(3)), DimensionMismatch),
        (lambda: partial_conjugate(TABLE, NODES, NODES, [[0.0, 0.0, 0.0]], [[0.0]]),
         DimensionMismatch),
        (lambda: sampled_inf_convolution(SQUARES, FULL, [[0.0, 5.0, 7.0]], LINE, LINE),
         DimensionMismatch),
        (lambda: QUADRANT.contains([[math.nan, 0.0]]), InvalidArgument),
        (lambda: HPolyhedron([[[1.0, 0.0]]], [1.0]), InvalidArgument),
        # each of these once ended in a bare ValueError
        (lambda: conjugate_at(SQUARES, "abc"), InvalidArgument),
        (lambda: partial_conjugate(np.zeros((2, 3)), NODES, NODES, [[0.0]], [[0.0]]),
         DimensionMismatch),
    ],
    ids=[
        "conjugate_at-nan", "map_conjugate_at-inf", "max_dots_minus-width",
        "partial_conjugate-width", "sampled_inf_convolution-width", "contains-nan",
        "HPolyhedron-3d-normals", "conjugate_at-string", "partial_conjugate-values-shape",
    ],
)
def test_malformed_arrays_once_answered_now_raise(call, error):
    with pytest.raises(error):
        call()
