"""Fuzzed parser input: every text ends in a result or a located MarginlabError.

`parse_spec` (then `build(1)`), `expr.parse` and `load_raster` get arbitrary
text and text assembled from their own keywords, so that both the first
line of defence and the later checks see input.  A failure other than a
`MarginlabError` is a parser bug, and so is an expression error from a
spec that names no spec line.  A location an error names must fall
inside its input: a 1-based line of the text, or the line just past its
end where an error reports missing input, and a column of that line, or
one past its end.  Expression columns are 0-based offsets into the text,
with its length meaning the end of the input.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from marginlab import MarginlabError, load_raster, parse_spec
from marginlab.errors import ExpressionError, ExprSyntaxError
from marginlab.expr import parse

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
