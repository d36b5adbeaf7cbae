"""Seeded problem-spec generators and the independent marginal oracle.

Every generated problem is a spec text plus the numbers it was written
from.  The oracle recomputes mu(x) = min over feasible y nodes of phi(x, y)
from those numbers with plain numpy, never through marginlab, so a wrong
`marginal` report cannot agree with it by sharing code.

The same (seed, tag) always gives the same problems: each generator draws
from its own `random.Random` seeded with a string, which Python hashes
deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-9  # feasibility tolerance of the spec format (docs/formats.md)

# Metadata is left false everywhere: only verdicts that hold without a
# declared hypothesis bind, so every binding verdict must PASS.
_METADATA = "[metadata]\nconvex false\nqc1 false\nqc14 false\nslater false\n"


@dataclass
class Problem:
    """One generated spec and what is needed to check the program on it."""

    name: str
    commands: tuple[str, ...]
    axes: dict  # grid section -> tuple of (lo, hi, count)
    phi_kind: str
    phi_expr: str | None = None
    phi_where: tuple[str, ...] = ()
    phi_table: tuple[float, ...] | None = None
    f_kind: str = "full"
    f_exprs: tuple[str, ...] = ()
    f_points: tuple[tuple[float, ...], ...] = ()
    lagrangian: tuple[str, tuple[str, ...]] | None = None
    rasters: dict = field(default_factory=dict)  # file name -> raster text
    # numpy twins of the expressions above, for the oracle
    phi_fn: object = None
    where_fns: tuple = ()
    f_fns: tuple = ()

    @property
    def text(self) -> str:
        """The spec file text."""
        return _spec_text(self)

    def nodes(self, section: str) -> list[np.ndarray]:
        return [np.linspace(lo, hi, n) for lo, hi, n in self.axes[section]]

    def mu_oracle(self) -> np.ndarray:
        """Brute-force mu over the x nodes, row-major; +inf where infeasible."""
        xs, ys = self.nodes("xgrid"), self.nodes("ygrid")
        m = len(xs)
        mesh = np.meshgrid(*xs, *ys, indexing="ij")
        X, Y = mesh[:m], mesh[m:]
        shape = mesh[0].shape
        if self.phi_kind == "table":
            phi = np.asarray(self.phi_table, dtype=np.float64).reshape(shape)
        else:
            phi = np.broadcast_to(self.phi_fn(*X, *Y), shape).astype(np.float64)
            for w in self.where_fns:
                phi = np.where(w(*X, *Y) <= FEAS_TOL, phi, np.inf)
        feasible = np.ones(shape, dtype=bool)
        if self.f_kind in ("constraints", "ineq"):
            for c in self.f_fns:
                feasible &= c(*X, *Y) <= FEAS_TOL
        elif self.f_kind == "points":
            feasible[:] = False
            for row in self.f_points:
                idx = tuple(
                    int(np.argmin(np.abs(axis - v)))
                    for axis, v in zip(xs + ys, row)
                )
                feasible[idx] = True
        nx = int(np.prod([len(a) for a in xs]))
        vals = np.where(feasible, phi, np.inf).reshape(nx, -1)
        return vals.min(axis=1)


def _num(v: float) -> str:
    return repr(float(v))


def _grid_text(axes: dict) -> str:
    out = []
    for sec, rows in axes.items():
        out.append(f"[{sec}]")
        out += [f"axis {_num(lo)} {_num(hi)} {n}" for lo, hi, n in rows]
        out.append("")
    return "\n".join(out)


def _spec_text(p: Problem) -> str:
    parts = [f"name {p.name}", "", _grid_text(p.axes), "[phi]"]
    if p.phi_kind == "table":
        vals = [_num(v) if np.isfinite(v) else "inf" for v in p.phi_table]
        for i in range(0, len(vals), 9):
            parts.append("table " + " ".join(vals[i : i + 9]))
    else:
        parts.append(f"expr {p.phi_expr}")
        parts += [f"where {w}" for w in p.phi_where]
    parts += ["", "[F]"]
    if p.f_kind == "full":
        parts.append("full")
    elif p.f_kind == "points":
        parts += ["point " + " ".join(_num(c) for c in row) for row in p.f_points]
    else:
        key = "constraints" if p.f_kind == "constraints" else "ineq"
        parts += [f"{key} {e}" for e in p.f_exprs]
    parts.append("")
    if p.lagrangian is not None:
        f, gs = p.lagrangian
        parts += ["[lagrangian]", f"f {f}"] + [f"g {g}" for g in gs] + [""]
    for sec, fname in zip(("raster", "raster2"), p.rasters):
        parts += [f"[{sec}]", f"file {fname}", ""]
    parts.append(_METADATA)
    return "\n".join(parts)


_COMMON_1D = ("marginal", "conjugate", "subdiff", "duality", "verify-all")


def _axes_1d() -> dict:
    return {
        "xgrid": ((-1.0, 1.0, 9),),
        "ygrid": ((-1.0, 1.0, 9),),
        "xduals": ((-4.0, 4.0, 17),),
    }


def _full_expr(rng: random.Random, name: str) -> Problem:
    """expr phi over the full map; also carries the two generated rasters."""
    a, b = rng.choice((0.5, 1.0, 2.0)), rng.choice((0.25, 0.5, 1.0))
    c = rng.choice((0.0, 0.5, 1.0))
    return Problem(
        name=name,
        commands=_COMMON_1D + ("nearconvex",),
        axes=_axes_1d(),
        phi_kind="expr",
        phi_expr=f"{_num(a)} * (y - {_num(b)} * x)^2 + {_num(c)} * abs(x)",
        phi_fn=lambda x, y: a * (y - b * x) ** 2 + c * np.abs(x),
        f_kind="full",
        rasters={
            f"{name}_a.raster": raster_text(rng, corner=True),
            f"{name}_b.raster": raster_text(rng, corner=False),
        },
    )


def _where_constraints(rng: random.Random, name: str) -> Problem:
    """expr phi with a `where` domain over an xy-constraint map."""
    a, b = rng.choice((0.5, 1.0, 2.0)), rng.choice((-0.5, 0.0, 0.5))
    d = rng.choice((0.25, 0.5, 0.75))
    s = rng.choice((0.5, 1.0))
    return Problem(
        name=name,
        commands=_COMMON_1D,
        axes=_axes_1d(),
        phi_kind="expr",
        phi_expr=f"{_num(a)} * abs(y - {_num(b)}) + x^2",
        phi_where=(f"y - {_num(d)}",),
        phi_fn=lambda x, y: a * np.abs(y - b) + x**2,
        where_fns=(lambda x, y: y - d,),
        f_kind="constraints",
        f_exprs=(f"{_num(s)} * x - y",),
        f_fns=(lambda x, y: s * x - y,),
    )


def _table_points(rng: random.Random, name: str) -> Problem:
    """phi value table over an explicit graph-point map."""
    xs = ys = np.linspace(-1, 1, 9)
    table = tuple(rng.choice(range(0, 17)) / 4 for _ in range(81))
    points = []
    for x in xs:
        for j in sorted(rng.sample(range(9), rng.choice((1, 2, 3)))):
            points.append((float(x), float(ys[j])))
    return Problem(
        name=name,
        commands=_COMMON_1D,
        axes=_axes_1d(),
        phi_kind="table",
        phi_table=table,
        f_kind="points",
        f_points=tuple(points),
    )


def _ineq_lagrangian(rng: random.Random, name: str) -> Problem:
    """Lagrange perturbation map with its classical program."""
    c = rng.choice((0.5, 1.0, 1.5))
    b = rng.choice((0.5, 1.0))
    f, g = f"(y - {_num(c)})^2", f"{_num(b)} - y"
    return Problem(
        name=name,
        commands=_COMMON_1D + ("lagrangian",),
        axes={
            "xgrid": ((-1.0, 1.0, 9),),
            "ygrid": ((0.0, 2.0, 9),),
            "xduals": ((-5.0, 5.0, 41),),
            "yduals": ((-6.0, 6.0, 49),),
            "lambdas": ((-1.0, 4.0, 6),),
        },
        phi_kind="expr",
        phi_expr=f,
        phi_fn=lambda x, y: (y - c) ** 2 + 0 * x,
        f_kind="ineq",
        f_exprs=(g,),
        f_fns=(lambda x, y: b - y - x,),
        lagrangian=(f, (g,)),
    )


def raster_text(rng: random.Random, corner: bool) -> str:
    """A box raster on a 7x7 grid over [-1, 1]^2.

    With `corner` the box reaches the bottom-right window corner and that
    corner node is left out, as in fixtures/open_box_corner.raster: a notch
    on the window boundary keeps the set int-nearly convex at every
    refinement, so `refinement_stable` must PASS.
    """
    r0, c0 = rng.choice((0, 1, 2)), rng.choice((0, 1, 2))
    if corner:
        r1 = c1 = 6
    else:
        r1, c1 = r0 + rng.choice((3, 4)), c0 + rng.choice((3, 4))
    mask = np.zeros((7, 7), dtype=int)
    mask[r0 : r1 + 1, c0 : c1 + 1] = 1
    if corner:
        mask[6, 6] = 0
    rows = ["".join(str(v) for v in row) for row in mask]
    return "raster 2 7 7 -1.0 1.0 -1.0 1.0\n" + "\n".join(rows) + "\n"


def cli_problems(seed: int, tag: str) -> list[Problem]:
    """The small 1-D specs of one cli-small pass: every [phi] and [F] kind,
    a [lagrangian] section and generated rasters."""
    makers = (_full_expr, _where_constraints, _table_points, _ineq_lagrangian)
    return [
        make(random.Random(f"{seed}:{tag}:{i}"), f"gen_{tag}_{i}")
        for i, make in enumerate(makers)
    ]


def coupled_2d(seed: int, tag: str) -> Problem:
    """2-D parameter and decision: phi couples x and y, F is not full.

    The x and y grids match fixtures/separable_quadratic.spec; the dual
    grids keep its spacing on 7 nodes per axis instead of 9, which makes
    verify-all about five times cheaper, so that a run of this workload
    stays near one minute.  The seed picks the objective's coefficients and
    one of four mirror images of the constraint map.  The grids are
    symmetric, so every image has the same 330 graph points: the kernel's
    work, which scales with them, does not change with the seed.
    """
    rng = random.Random(f"{seed}:{tag}:2d")
    a, b = rng.choice((0.5, 1.0)), rng.choice((0.5, 1.0))
    c = rng.choice((0.25, 0.5))
    k = rng.choice((1, 2))  # y1 + y2 is bounded by x1 or by x2 ...
    sign = rng.choice((1.0, -1.0))  # ... from above or from below
    axis = (-1.0, 1.0, 5)
    dual = (-1.5, 1.5, 7)
    return Problem(
        name=f"coupled_{tag}",
        commands=("marginal", "verify-all"),
        axes={
            "xgrid": (axis, axis),
            "ygrid": (axis, axis),
            "xduals": (dual, dual),
            "yduals": (dual, dual),
        },
        phi_kind="expr",
        phi_expr=(
            f"(y1 - {_num(a)} * x1)^2 + (y2 - {_num(b)} * x2 + {_num(c)} * y1)^2"
            f" + x1^2 + x2^2"
        ),
        phi_fn=lambda x1, x2, y1, y2: (
            (y1 - a * x1) ** 2 + (y2 - b * x2 + c * y1) ** 2 + x1**2 + x2**2
        ),
        f_kind="constraints",
        f_exprs=(f"{_num(sign)} * (y1 + y2 - x{k}) - 0.5", "abs(y1 - y2) - 1.0"),
        f_fns=(
            lambda x1, x2, y1, y2: sign * (y1 + y2 - (x1, x2)[k - 1]) - 0.5,
            lambda x1, x2, y1, y2: np.abs(y1 - y2) - 1.0,
        ),
    )


def round_trip_errors(p: Problem, parse_spec) -> list[str]:
    """Differences between a generated problem and its parsed spec text."""
    spec = parse_spec(p.text, base_dir=".", default_name="unused")
    errs = []

    def want(label, got, expected):
        if got != expected:
            errs.append(f"{p.name}: {label} parsed as {got!r}, generated {expected!r}")

    want("name", spec.name, p.name)
    for sec, rows in p.axes.items():
        grid = getattr(spec, sec)
        got = None if grid is None else tuple((a.lo, a.hi, a.count) for a in grid.axes)
        want(sec, got, tuple(rows))
    want("phi kind", spec.phi_kind, p.phi_kind)
    want("phi expr", spec.phi_expr, p.phi_expr)
    want("phi where", spec.phi_where, p.phi_where)
    want("phi table", spec.phi_table, p.phi_table)
    want("F kind", spec.f_kind, p.f_kind)
    want("F exprs", spec.f_exprs, p.f_exprs)
    want("F points", spec.f_points, p.f_points)
    want("lagrangian", spec.lagrangian, p.lagrangian)
    want("rasters", spec.rasters, tuple(p.rasters))
    want("metadata", dict(spec.metadata), {k: False for k in ("convex", "qc1", "qc14", "slater")})
    return errs
