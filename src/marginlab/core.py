"""Extended-real values, rectangular grids, and grid-sampled functions.

Values live in [-inf, +inf] with the lower-addition conventions used for
inf-type formulas: a + (+inf) = +inf and a + (-inf) = -inf for finite a,
and (+inf) + (-inf) := +inf.  sup over an empty set is -inf, inf over an
empty set is +inf.  NaN is never a legal payload.

Grids are uniform per axis: node i on an axis is lo + i*(hi-lo)/(count-1),
nodes are enumerated row-major (C order), and refinement by an integer
factor keeps the original nodes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import expr as _expr
from .errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidArgument,
    NonFiniteExpression,
    NotANode,
)

INF = math.inf
NODE_TOL = 1e-9
TOL = 1e-9  # slack of every verdict comparison in the checks
ROUNDING_TOL = 1e-12  # slack where two float routes to one value may round apart


# --- verdicts ----------------------------------------------------------------


class Verdict(NamedTuple):
    """One verdict row of a check.  `ok` is True (PASS) or False (FAIL) on a
    row that binds the exit code, None (INFO) on a finding that does not."""

    name: str
    ok: bool | None
    detail: str = ""

    @property
    def status(self) -> str:
        return "INFO" if self.ok is None else "PASS" if self.ok else "FAIL"

    @classmethod
    def skipped(cls, name: str, reason: str) -> Verdict:
        """The INFO row of a check that cannot run on the instance."""
        return cls(name, None, f"{reason}; skipped")


def hypothesis_verdict(
    name: str, holds: bool, declared: bool, flag: str, claim: str, detail: str
) -> Verdict:
    """The row of a claim that binds only when the instance declares `flag`;
    undeclared it is INFO, and its detail says the claim was not asserted."""
    if declared:
        return Verdict(name, bool(holds), detail)
    return Verdict(name, None, f"{detail}; {claim} not asserted ({flag} false)")


# --- extended reals ---------------------------------------------------------


def ext_add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast lower addition over float arrays that may hold +-inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out = a + b
    pos = (a == INF) | (b == INF)
    neg = ((a == -INF) | (b == -INF)) & ~pos
    out = np.where(pos, INF, out)
    out = np.where(neg, -INF, out)
    return out


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max |a - b| over two arrays; equal infinities count as zero."""
    with np.errstate(invalid="ignore"):
        diff = np.where(a == b, 0.0, np.abs(a - b))
    diff = np.where(np.isnan(diff), INF, diff)
    return float(diff.max()) if diff.size else 0.0


def finite_max(a) -> float:
    """Largest finite |a|, 0.0 when there is none."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    return float(a[np.isfinite(a)].max(initial=0.0))


def render_value(v: float) -> "float | str":
    """JSON-friendly rendering: infinities become '+inf' / '-inf' strings."""
    if v == INF:
        return "+inf"
    if v == -INF:
        return "-inf"
    return float(v)


def as_rows(a, width: int | None, what: str, finite: bool = True) -> np.ndarray:
    """`a` as float64 rows, the one check of every public point or row
    argument: a 1-D input is one row, zero rows are allowed, float64 is not
    copied.  A width other than `width` (None takes any) raises
    DimensionMismatch; over two axes, entries that are no numbers and, if
    `finite`, NaN or an infinity raise InvalidArgument."""
    try:
        rows = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidArgument(f"{what}: entries are not numbers ({e})") from None
    if rows.ndim > 2:
        raise InvalidArgument(f"{what}: {rows.ndim} axes, expected a stack of rows")
    rows = np.atleast_2d(rows)
    if width is not None and rows.shape[1] != width:
        raise DimensionMismatch(f"{what}: {rows.shape[1]} coordinates per row, expected {width}")
    if finite and not np.isfinite(rows).all():
        bad = "NaN" if np.isnan(rows).any() else "an infinity"
        raise InvalidArgument(f"{what}: a non-finite entry ({bad})")
    return rows


def as_point(a, width: int | None, what: str, finite: bool = True) -> np.ndarray:
    """One point: `as_rows` of exactly one row, returned 1-D."""
    rows = as_rows(a, width, what, finite)
    if rows.shape[0] != 1:
        raise InvalidArgument(f"{what}: {rows.shape[0]} rows, expected one point")
    return rows[0]


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The bits of `np.unique(a)` for a NaN-free 1-D array, and of
    `np.unique(a, axis=0)` for a 2-D one, without numpy 2's masked-array
    test, whose first use imports all of `numpy.ma`.

    It takes numpy's own route: one default sort (of the rows viewed as
    records), then the first of each run of equal entries, so of values
    that compare equal (0.0 and -0.0) it keeps the one numpy keeps.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        ranked = np.sort(a)
    else:
        fields = [(f"f{k}", a.dtype) for k in range(a.shape[1])]
        ranked = np.sort(np.ascontiguousarray(a).view(fields).reshape(-1))
    keep = np.ones(ranked.shape[0], dtype=bool)
    keep[1:] = ranked[1:] != ranked[:-1]
    out = ranked[keep]
    return out if a.ndim == 1 else out.view(a.dtype).reshape(-1, a.shape[1])


# --- convex hulls -------------------------------------------------------------


def lower_chain(x, y) -> list[int]:
    """Indices of the lower convex chain (Andrew's monotone chain) of the
    points (x[i], y[i]), sorted by x and ties by y; reversed points give the
    upper chain.  The turn test is multiplied out, so exact on integers, and
    a point on the segment between its neighbours is dropped."""
    x, y = np.asarray(x).tolist(), np.asarray(y).tolist()
    chain: list[int] = []
    for i, (xi, yi) in enumerate(zip(x, y)):
        while len(chain) >= 2:
            a, m = chain[-2], chain[-1]
            # m stays only if the slope increases from a -> m to m -> i
            if (y[m] - y[a]) * (xi - x[m]) < (yi - y[m]) * (x[m] - x[a]):
                break
            chain.pop()
        chain.append(i)
    return chain


# --- grids ------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """A closed interval [lo, hi] sampled at `count` uniform nodes."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (isinstance(self.lo, numbers.Real) and isinstance(self.hi, numbers.Real)):
            raise InvalidArgument(
                f"axis endpoints must be real numbers, got {self.lo!r} and {self.hi!r}"
            )
        if not isinstance(self.count, numbers.Integral):
            raise InvalidArgument(f"axis node count must be an integer, got {self.count!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidArgument("axis endpoints must be finite")
        if self.hi <= self.lo:
            raise InvalidArgument(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise InvalidArgument("axis needs at least 2 nodes")
        if not math.isfinite((self.hi - self.lo) * (self.count - 1)):
            raise InvalidArgument(
                f"axis [{self.lo}, {self.hi}] with {self.count} nodes is too wide:"
                " its node offsets overflow"
            )

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)

    def coords(self) -> np.ndarray:
        i = np.arange(self.count, dtype=np.float64)
        return self.lo + (i * (self.hi - self.lo)) / (self.count - 1)


@dataclass(frozen=True)
class Grid:
    """Product of uniform axes; nodes are enumerated row-major."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise InvalidArgument("grid needs at least one axis")
        object.__setattr__(self, "axes", tuple(self.axes))

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[float, float, int]]) -> "Grid":
        return cls(tuple(Axis(lo, hi, int(c)) for lo, hi, c in bounds))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.count for a in self.axes)

    @property
    def size(self) -> int:
        return math.prod(a.count for a in self.axes)

    @cached_property
    def axis_coords(self) -> tuple[np.ndarray, ...]:
        return tuple(a.coords() for a in self.axes)

    def mesh(self) -> np.ndarray:
        """All node coordinates, shape (size, dim), row-major order; a new
        array on each call, which the grid does not keep."""
        mesh = np.meshgrid(*self.axis_coords, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(self.size, self.dim)

    @cached_property
    def nodes(self) -> np.ndarray:
        """`mesh()`, read-only and kept for the grid's lifetime."""
        out = self.mesh()
        out.setflags(write=False)
        return out

    def coords(self, flat: int) -> np.ndarray:
        """Coordinates of one node, without building the node table."""
        return np.array([c[k] for c, k in zip(self.axis_coords, self.multi(flat))])

    def multi(self, flat: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.unravel_index(flat, self.shape))

    def flat(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(int(k) for k in multi), self.shape))

    def index_of(self, point: Sequence[float]) -> int:
        """Flat index of the node matching `point` within NODE_TOL per axis."""
        p = as_point(point, self.dim, "point", finite=False)
        if not np.isfinite(p).all():
            raise NotANode(f"{p.tolist()} is not a grid node (non-finite coordinate)")
        multi = []
        for k, (ax, coords) in enumerate(zip(self.axes, self.axis_coords)):
            i = int(round((p[k] - ax.lo) / ax.step))
            if i < 0 or i >= ax.count or abs(coords[i] - p[k]) > NODE_TOL:
                raise NotANode(f"{p.tolist()} is not a grid node (axis {k})")
            multi.append(i)
        return self.flat(multi)

    def resolve(self, x) -> int:
        """Flat index of `x`: an integer index in [0, size) or a node point."""
        if isinstance(x, (int, np.integer)):
            if not 0 <= x < self.size:
                raise NotANode(f"node index {int(x)} is outside [0, {self.size})")
            return int(x)
        return self.index_of(x)

    def refine(self, factor: int) -> "Grid":
        """Same box, (count-1)*factor + 1 nodes per axis; keeps old nodes."""
        if factor < 1 or int(factor) != factor:
            raise InvalidArgument("refinement factor must be a positive integer")
        return Grid(
            tuple(Axis(a.lo, a.hi, (a.count - 1) * int(factor) + 1) for a in self.axes)
        )


def product_grid(a: Grid, b: Grid) -> Grid:
    return Grid(a.axes + b.axes)


# --- gridded functions -------------------------------------------------------


@dataclass(frozen=True)
class GriddedFunction:
    """Extended-real values attached to the nodes of a grid.

    `values` is a flat float64 array (row-major node order); +-inf encode
    the extended values and NaN is rejected.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if v.shape[0] != self.grid.size:
            raise GridMismatch(
                f"{v.shape[0]} values for a grid of {self.grid.size} nodes"
            )
        if np.isnan(v).any():
            raise InvalidArgument("NaN is not a legal gridded value")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dom_mask(self) -> np.ndarray:
        """Nodes where the value is < +inf (the effective domain)."""
        return self.values < INF

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def ext_sum(f: GriddedFunction, g: GriddedFunction) -> GriddedFunction:
    """Pointwise lower-addition sum of two functions on one grid."""
    if f.grid != g.grid:
        raise GridMismatch("functions live on different grids")
    return GriddedFunction(f.grid, ext_add_arrays(f.values, g.values))


# --- expressions on grids -----------------------------------------------------


def axis_names(prefix: str, dim: int) -> tuple[str, ...]:
    """Canonical variable names: x1..xd (or y1..yd)."""
    return tuple(f"{prefix}{k + 1}" for k in range(dim))


def eval_blocks(
    texts: Sequence[str],
    grid: Grid,
    names: Sequence[str],
    aliases: Mapping[str, str] | None = None,
):
    """Each expression text over the grid nodes, in blocks of consecutive
    flat nodes: yields (slice of flat nodes, one float array per text).

    Every text is parsed once, in order, before the first block.  A block
    holds at most `conjugate._BLOCK_CAP // dim` nodes; its coordinate table
    is built from `np.unravel_index` and the axis coordinates and laid out
    as rows of the grid's node table, so each variable is a column of it,
    with the strides a column of `Grid.mesh()` has.  Expressions act entry
    by entry, so no value depends on the block that holds its node.
    """
    from .conjugate import score_slices  # conjugate imports this module

    if len(names) != grid.dim:
        raise DimensionMismatch(
            f"{len(names)} variable names for a {grid.dim}-dimensional grid"
        )
    aliases = dict(aliases or {})
    trees = [_expr.parse_and_check(text, [*names, *aliases]) for text in texts]
    for sl in score_slices(grid.size, grid.dim):
        cols = np.empty((sl.stop - sl.start, grid.dim))
        at = np.unravel_index(np.arange(sl.start, sl.stop), grid.shape)
        for k, (coords, i) in enumerate(zip(grid.axis_coords, at)):
            cols[:, k] = coords[i]
        env = {name: cols[:, k] for k, name in enumerate(names)}
        env.update({alias: env[target] for alias, target in aliases.items()})
        yield sl, [
            np.broadcast_to(np.asarray(_expr.evaluate(tree, env), dtype=np.float64), cols.shape[:1])
            for tree in trees
        ]


def default_names(grid: Grid, prefix: str = "x") -> tuple[tuple[str, ...], dict[str, str]]:
    names = axis_names(prefix, grid.dim)
    aliases = {prefix: names[0]} if grid.dim == 1 else {}
    return names, aliases


def product_names(m: int, n: int) -> tuple[tuple[str, ...], dict[str, str]]:
    """Variable names for a phi grid: x-axes then y-axes, 1-D aliases."""
    names = axis_names("x", m) + axis_names("y", n)
    aliases: dict[str, str] = {}
    if m == 1:
        aliases["x"] = "x1"
    if n == 1:
        aliases["y"] = "y1"
    return names, aliases


def eval_on_grid(
    text: str,
    grid: Grid,
    names: Sequence[str] | None = None,
    aliases: Mapping[str, str] | None = None,
    domain: Sequence[str] = (),
) -> GriddedFunction:
    """Evaluate expression text at every grid node.

    `domain` is an optional list of constraint expressions c(vars) <= 0
    (tolerance 1e-9); nodes violating any constraint are declared
    infeasible and map to +inf without the main expression being checked
    there.  A NaN/inf result on a feasible node raises NonFiniteExpression
    with the node coordinates, at the first such node in flat order.

    The expressions run in `eval_blocks` blocks of nodes, so the only
    table of the whole grid is the values.  An expression acts entry by
    entry, on columns with the node table's layout, so the block size
    moves no bit: each value, signed zeros included, is the one an
    evaluation on every node at once gives.
    """
    if names is None:
        names, defaults = default_names(grid)
        aliases = {**defaults, **(aliases or {})}
    raw = np.empty(grid.size)
    for sl, (*cvals, vals) in eval_blocks([*domain, text], grid, names, aliases):
        feasible = np.ones(sl.stop - sl.start, dtype=bool)
        for c in cvals:
            with np.errstate(invalid="ignore"):
                feasible &= c <= NODE_TOL
        block = raw[sl]
        block[:] = vals
        bad = feasible & ~np.isfinite(block)
        if bad.any():
            node = sl.start + int(np.flatnonzero(bad)[0])
            raise NonFiniteExpression(
                f"{text!r} is not finite at node {grid.coords(node).tolist()}"
            )
        block[~feasible] = INF
    return GriddedFunction(grid, raw)
