"""Problem-spec files: the text format that describes one problem.

A spec is a small line-oriented text format (documented in
docs/formats.md): bracketed sections declare grids, the objective phi, the
constraint map F and optional extras (dual grids, a Lagrangian pair,
rasters, hypothesis metadata, tasks).  `parse_spec` validates the text
into a frozen `ProblemSpec`; `ProblemSpec.build` instantiates (phi, F),
optionally on factor-refined grids.  Unknown keys and sections are hard
errors; every rejection is a `SpecError`, and syntax errors carry their
line and column on the raw line.  An `ExpressionError`, from parsing or
from a non-finite phi in `build`, names the line of its expression, as
does the `InvalidArgument` for a phi too large for the checks' sums.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .conjugate import score_slices
from .core import (
    Axis,
    Grid,
    GriddedFunction,
    default_names,
    eval_on_grid,
    finite_max,
    product_grid,
    product_names,
)
from .errors import (
    ExpressionError,
    InvalidArgument,
    MissingSection,
    NonFiniteExpression,
    NotANode,
    SpecSyntaxError,
    UnknownKey,
    UnsupportedShape,
)
from .expr import parse_and_check
from .setmap import (
    SetValuedMap,
    full_map,
    map_from_constraints,
    map_from_inequalities,
    map_from_points,
)

COMMANDS = (
    "marginal",
    "conjugate",
    "subdiff",
    "duality",
    "lagrangian",
    "nearconvex",
    "verify-all",
)

_GRID_SECTIONS = ("xgrid", "ygrid", "xduals", "yduals", "lambdas")
_SECTIONS = _GRID_SECTIONS + (
    "phi",
    "F",
    "lagrangian",
    "raster",
    "raster2",
    "metadata",
    "tasks",
)
_META_KEYS = ("convex", "qc1", "qc14", "slater")
# The checks add up to two of phi's magnitudes in one sum (the range of
# mu's levels in `_level_probe`, mu + mu* in the Fenchel-Young check, the
# phi* and phi terms of `subdiff._margin`); twice that leaves room for
# the dot products those sums add.
_PHI_SUMS = 4


class ProblemSpec(NamedTuple):
    """Parsed problem description: grids, phi source, F source, extras."""

    name: str
    xgrid: Grid
    ygrid: Grid
    phi_kind: str  # "expr" | "table"
    phi_expr: str | None
    phi_where: tuple[str, ...]
    phi_table: tuple[float, ...] | None
    f_kind: str  # "ineq" | "constraints" | "points" | "full"
    f_exprs: tuple[str, ...]
    f_points: tuple[tuple[float, ...], ...]
    xduals: Grid | None
    yduals: Grid | None
    lambdas: Grid | None
    lagrangian: tuple[str, tuple[str, ...]] | None
    rasters: tuple[str, ...]
    metadata: Mapping[str, bool]
    tasks: tuple[str, ...]
    base_dir: Path
    phi_line: int = 0

    def build(self, factor: int = 1) -> tuple[GriddedFunction, SetValuedMap]:
        """Instantiate (phi, F), optionally on factor-refined grids."""
        if factor < 1:
            raise InvalidArgument("refinement factor must be >= 1")
        xg = self.xgrid.refine(factor) if factor > 1 else self.xgrid
        yg = self.ygrid.refine(factor) if factor > 1 else self.ygrid
        pg = product_grid(xg, yg)
        if self.phi_kind == "expr":
            names, aliases = product_names(xg.dim, yg.dim)
            try:
                phi = eval_on_grid(self.phi_expr, pg, names, aliases, domain=self.phi_where)
            except NonFiniteExpression as e:
                raise _at_line(e, self.phi_line) from None
        else:
            if factor > 1:
                raise UnsupportedShape("a phi value table cannot be grid-refined")
            phi = GriddedFunction(pg, np.asarray(self.phi_table))
        if self.xduals is not None or self.yduals is not None:
            # With both boxes left out, the run refuses it once they exist.
            self.refuse_overflow(phi)
        if self.f_kind == "full":
            F = full_map(xg, yg)
        elif self.f_kind == "ineq":
            F = map_from_inequalities(self.f_exprs, xg, yg)
        elif self.f_kind == "constraints":
            F = map_from_constraints(self.f_exprs, xg, yg)
        else:
            F = map_from_points(self.f_points, xg, yg)
        return phi, F

    def refuse_overflow(self, phi: GriddedFunction) -> None:
        """Refuse a phi whose largest finite magnitude overflows the checks' sums."""
        top = max((finite_max(phi.values[sl]) for sl in score_slices(phi.grid.size, 2)),
                  default=0.0)
        if not math.isfinite(_PHI_SUMS * top):
            raise InvalidArgument(
                f"line {self.phi_line}: phi reaches {top:.3g} in magnitude; the checks"
                f" add up to {_PHI_SUMS} such terms, and that sum overflows"
            )


class _SpecBuilder:
    """Mutable accumulator the line parser fills in; validated at the end."""

    def __init__(self, base_dir: Path, default_name: str):
        self.base_dir = base_dir
        self.name = default_name
        self.name_line: int | None = None
        self.axes: dict[str, list[Axis]] = {}
        self.section_line: dict[str, int] = {}
        self.phi_kind: str | None = None
        self.phi_expr: str | None = None
        self.phi_where: list[str] = []
        self.phi_table: list[float] = []
        self.phi_line = 0
        self.f_kind: str | None = None
        self.f_exprs: list[str] = []
        self.f_points: list[tuple[float, ...]] = []
        self.f_point_lines: list[int] = []
        self.f_line = 0
        self.lag_f: str | None = None
        self.lag_g: list[str] = []
        self.rasters: dict[str, str] = {}
        self.metadata: dict[str, bool] = {k: False for k in _META_KEYS}
        self.meta_seen: set[str] = set()
        self.tasks: list[str] = []
        # (names the text may use: "xy" or "y", text, line) per expression
        self.exprs: list[tuple[str, str, int]] = []


def _at_line(err: ExpressionError, ln: int) -> ExpressionError:
    """`err` with its message prefixed by the spec line it comes from."""
    err.args = (f"line {ln}: {err}",)
    return err


def _floats(tokens: Sequence[str], cols: Sequence[int], ln: int) -> list[float]:
    out = []
    for tok, col in zip(tokens, cols):
        try:
            out.append(float(tok))
        except ValueError:
            raise SpecSyntaxError(f"expected a number, got {tok!r}", ln, col) from None
    return out


def _parse_axis(rest: list[str], cols: list[int], ln: int) -> Axis:
    if len(rest) != 3:
        raise SpecSyntaxError("'axis' takes exactly: lo hi count", ln, 1)
    lo, hi = _floats(rest[:2], cols, ln)
    try:
        count = int(rest[2])
    except ValueError:
        raise SpecSyntaxError(
            f"axis count must be an integer, got {rest[2]!r}", ln, cols[2]
        ) from None
    try:
        return Axis(lo, hi, count)
    except ValueError as e:
        raise SpecSyntaxError(str(e), ln, 1) from None


def _required(tail: str, message: str, ln: int) -> str:
    if not tail:
        raise SpecSyntaxError(message, ln, 1)
    return tail


def _set_phi_kind(b: _SpecBuilder, kind: str, ln: int) -> None:
    if b.phi_kind is not None and b.phi_kind != kind:
        raise MissingSection(
            f"line {ln}: phi already has a '{b.phi_kind}' source; "
            f"'{kind}' conflicts (exactly one phi source)"
        )
    b.phi_kind = kind
    if not b.phi_line:
        b.phi_line = ln


def _set_f_kind(b: _SpecBuilder, kind: str, ln: int) -> None:
    if b.f_kind is not None and b.f_kind != kind:
        raise MissingSection(
            f"line {ln}: F already has a '{b.f_kind}' source; "
            f"'{kind}' conflicts (exactly one F source)"
        )
    if b.f_kind == "full" and kind == "full":
        raise MissingSection(f"line {ln}: duplicate 'full' in [F]")
    b.f_kind = kind
    if not b.f_line:
        b.f_line = ln


def _parse_line(b: _SpecBuilder, section: str | None, line: str, ln: int) -> None:
    """One line, comment cut off; columns count from 1 on the raw line."""
    tokens = list(re.finditer(r"\S+", line))
    key, rest = tokens[0].group(), [t.group() for t in tokens[1:]]
    cols = [t.start() + 1 for t in tokens[1:]]  # column of each of rest
    tail = line.split(None, 1)[1].strip() if rest else ""

    if section is None:
        if key == "name":
            if b.name_line is not None:
                raise SpecSyntaxError("duplicate 'name'", ln, 1)
            if len(rest) != 1:
                raise SpecSyntaxError("'name' takes one token", ln, 1)
            b.name = rest[0]
            b.name_line = ln
            return
        raise UnknownKey(f"line {ln}: key {key!r} before any [section]")

    if section in _GRID_SECTIONS:
        if key != "axis":
            raise UnknownKey(f"line {ln}: unknown key {key!r} in [{section}]")
        b.axes.setdefault(section, []).append(_parse_axis(rest, cols, ln))
        return

    if section == "phi":
        if key == "expr":
            _set_phi_kind(b, "expr", ln)
            if b.phi_expr is not None:
                raise MissingSection(f"line {ln}: duplicate 'expr' in [phi]")
            b.phi_expr = _required(tail, "'expr' needs expression text", ln)
            b.exprs.append(("xy", b.phi_expr, ln))
        elif key == "table":
            _set_phi_kind(b, "table", ln)
            b.phi_table.extend(_floats(rest, cols, ln))
        elif key == "where":
            b.phi_where.append(_required(tail, "'where' needs constraint text", ln))
            b.exprs.append(("xy", tail, ln))
        else:
            raise UnknownKey(f"line {ln}: unknown key {key!r} in [phi]")
        return

    if section == "F":
        if key in ("ineq", "constraints"):
            _set_f_kind(b, key, ln)
            b.f_exprs.append(_required(tail, f"'{key}' needs expression text", ln))
            b.exprs.append(("y" if key == "ineq" else "xy", tail, ln))
        elif key == "point":
            _set_f_kind(b, "points", ln)
            row = _floats(rest, cols, ln)
            for tok, v, col in zip(rest, row, cols):
                if not math.isfinite(v):
                    raise SpecSyntaxError(
                        f"graph point coordinates must be finite, got {tok!r}", ln, col
                    )
            b.f_points.append(tuple(row))
            b.f_point_lines.append(ln)
        elif key == "full":
            if rest:
                raise SpecSyntaxError("'full' takes no arguments", ln, 1)
            _set_f_kind(b, "full", ln)
        else:
            raise UnknownKey(f"line {ln}: unknown key {key!r} in [F]")
        return

    if section == "lagrangian":
        if key == "f":
            if b.lag_f is not None:
                raise SpecSyntaxError("duplicate 'f' in [lagrangian]", ln, 1)
            b.lag_f = _required(tail, "'f' needs expression text", ln)
            b.exprs.append(("y", tail, ln))
        elif key == "g":
            b.lag_g.append(_required(tail, "'g' needs expression text", ln))
            b.exprs.append(("y", tail, ln))
        else:
            raise UnknownKey(f"line {ln}: unknown key {key!r} in [lagrangian]")
        return

    if section in ("raster", "raster2"):
        if key != "file":
            raise UnknownKey(f"line {ln}: unknown key {key!r} in [{section}]")
        if section in b.rasters:
            raise SpecSyntaxError(f"duplicate 'file' in [{section}]", ln, 1)
        b.rasters[section] = _required(tail, "'file' needs a path", ln)
        return

    if section == "metadata":
        if key not in _META_KEYS:
            raise UnknownKey(f"line {ln}: unknown metadata key {key!r}")
        if key in b.meta_seen:
            raise SpecSyntaxError(f"duplicate metadata key {key!r}", ln, 1)
        if len(rest) != 1 or rest[0] not in ("true", "false"):
            raise SpecSyntaxError(
                f"metadata {key!r} must be 'true' or 'false'", ln, 1
            )
        b.meta_seen.add(key)
        b.metadata[key] = rest[0] == "true"
        return

    if section == "tasks":
        if rest:
            raise SpecSyntaxError("one task name per line", ln, 1)
        if key not in COMMANDS:
            raise UnknownKey(f"line {ln}: unknown task {key!r}")
        b.tasks.append(key)
        return

    raise UnknownKey(f"line {ln}: unknown section [{section}]")


def _finalize(b: _SpecBuilder) -> ProblemSpec:
    for required in ("xgrid", "ygrid"):
        if required not in b.section_line:
            raise MissingSection(f"required section [{required}] is missing")
    grids: dict[str, Grid | None] = {}
    for sec in _GRID_SECTIONS:
        if sec in b.section_line:
            axes = b.axes.get(sec, [])
            if not axes:
                raise MissingSection(f"section [{sec}] declares no axis")
            grids[sec] = Grid(tuple(axes))
        else:
            grids[sec] = None
    xgrid, ygrid = grids["xgrid"], grids["ygrid"]

    if b.phi_kind is None:
        raise MissingSection("section [phi] with an 'expr' or 'table' is missing")
    if b.phi_kind == "table":
        if b.phi_where:
            raise MissingSection("'where' requires an 'expr' phi, not a table")
        want = xgrid.size * ygrid.size
        if len(b.phi_table) != want:
            raise SpecSyntaxError(
                f"phi table has {len(b.phi_table)} values for "
                f"{want} product-grid nodes",
                b.phi_line,
            )
    if b.f_kind is None:
        raise MissingSection(
            "section [F] with 'ineq', 'constraints', 'point' or 'full' is missing"
        )
    if b.f_kind == "ineq" and len(b.f_exprs) != xgrid.dim:
        raise SpecSyntaxError(
            f"F needs exactly {xgrid.dim} 'ineq' lines (one per x axis), "
            f"got {len(b.f_exprs)}",
            b.f_line,
        )
    if b.f_kind == "points":
        want = xgrid.dim + ygrid.dim
        for row, ln in zip(b.f_points, b.f_point_lines):
            if len(row) != want:
                raise SpecSyntaxError(
                    f"graph point has {len(row)} coordinates, expected {want}", ln
                )
            for part, grid, coords in (
                ("x", xgrid, row[: xgrid.dim]),
                ("y", ygrid, row[xgrid.dim :]),
            ):
                try:
                    grid.index_of(coords)
                except NotANode:
                    raise SpecSyntaxError(
                        f"graph point {list(row)}: {part} = {list(coords)}"
                        f" is not a node of [{part}grid]",
                        ln,
                    ) from None

    for dual, primal in (("xduals", "xgrid"), ("yduals", "ygrid")):
        if grids[dual] is not None and grids[dual].dim != grids[primal].dim:
            raise MissingSection(
                f"[{dual}] is {grids[dual].dim}-dimensional "
                f"but [{primal}] is {grids[primal].dim}-dimensional"
            )

    lagrangian = None
    if "lagrangian" in b.section_line:
        if b.lag_f is None or not b.lag_g:
            raise MissingSection("[lagrangian] needs one 'f' and at least one 'g'")
        lagrangian = (b.lag_f, tuple(b.lag_g))
        if grids["lambdas"] is not None and grids["lambdas"].dim != len(b.lag_g):
            raise MissingSection(
                f"[lambdas] is {grids['lambdas'].dim}-dimensional but "
                f"[lagrangian] has {len(b.lag_g)} constraints"
            )

    rasters = tuple(
        b.rasters[sec] for sec in ("raster", "raster2") if sec in b.rasters
    )
    if "raster2" in b.rasters and "raster" not in b.rasters:
        raise MissingSection("[raster2] requires a [raster] section")

    for task in b.tasks:
        if task == "lagrangian" and (lagrangian is None or grids["lambdas"] is None):
            raise MissingSection(
                "task 'lagrangian' needs [lagrangian] and [lambdas] sections"
            )
        if task == "nearconvex" and not rasters:
            raise MissingSection("task 'nearconvex' needs a [raster] section")

    xy, xy_aliases = product_names(xgrid.dim, ygrid.dim)
    y, y_aliases = default_names(ygrid, "y")
    allowed = {"xy": [*xy, *xy_aliases], "y": [*y, *y_aliases]}
    for scope, text, ln in b.exprs:
        try:
            parse_and_check(text, allowed[scope])
        except ExpressionError as e:
            raise _at_line(e, ln) from None

    return ProblemSpec(
        name=b.name,
        xgrid=xgrid,
        ygrid=ygrid,
        phi_kind=b.phi_kind,
        phi_expr=b.phi_expr,
        phi_where=tuple(b.phi_where),
        phi_table=tuple(b.phi_table) if b.phi_kind == "table" else None,
        f_kind=b.f_kind,
        f_exprs=tuple(b.f_exprs),
        f_points=tuple(b.f_points),
        xduals=grids["xduals"],
        yduals=grids["yduals"],
        lambdas=grids["lambdas"],
        lagrangian=lagrangian,
        rasters=rasters,
        metadata=dict(b.metadata),
        tasks=tuple(b.tasks),
        base_dir=b.base_dir,
        phi_line=b.phi_line,
    )


def parse_spec(
    text: str,
    base_dir: Path | str = ".",
    default_name: str = "problem",
) -> ProblemSpec:
    """Parse problem-spec text; unknown keys and sections are hard errors."""
    b = _SpecBuilder(Path(base_dir), default_name)
    section: str | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise SpecSyntaxError(
                    "malformed section header", ln, raw.find("[") + 1
                )
            sec = stripped[1:-1].strip()
            if sec not in _SECTIONS:
                raise UnknownKey(f"line {ln}: unknown section [{sec}]")
            if sec in b.section_line:
                raise MissingSection(
                    f"line {ln}: duplicate section [{sec}] "
                    f"(first at line {b.section_line[sec]})"
                )
            b.section_line[sec] = ln
            section = sec
            continue
        _parse_line(b, section, line, ln)
    return _finalize(b)
