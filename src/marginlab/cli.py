"""Command-line front end: dispatch, one lazy context per run, reports.

`marginlab <command> --spec f --out d` parses a problem spec (the format
lives in marginlab.spec and docs/formats.md), runs one verification
command and writes `report.json` plus a plot-ready `report.csv` into the
output directory.

Every command reads one per-run context, `_Run`: the spec and the parsed
flags, and one `tables.Tables` store for (phi, F) and its dual grids.  The
store builds mu, mu*, phi* and the graph supports the checks share once
each, and the handlers pass it to every check that reads them, so one
verify-all computes the marginal of (phi, F) once.  Every verdict row is a
`core.Verdict` that the library check computing its facts returns, status
and detail included; the handlers build report fields and CSV tables, and
verify-all joins the core, conjugacy, subdiff and duality layers' rows
under their prefixes.  Reports are deterministic: fixed field order, no
timestamps, infinities rendered as "+inf"/"-inf", so repeated runs are
byte-identical.

Exit codes: 0 all binding verdicts pass, 2 a verification verdict failed,
1 usage or IO error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

# numpy's bundled OpenBLAS starts one worker thread per core when it loads,
# and each worker spins for about 0.1 s of CPU waiting for work.  A command
# gives it none (every float dot product goes through conjugate.dots, not
# BLAS), so a CLI process loads numpy with one thread.
# The lazy package namespace leaves numpy unloaded until this module imports
# it; a value the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .conjugate import (
    biconjugate_minorant_check,
    conjugate,
    fast_conjugate_check,
    fenchel_young_check,
)
from .core import INF, Axis, Grid, Verdict, as_point, axis_names, render_value
from .duality import (
    DualityReport,
    LagrangianIdentityReport,
    SlaterReport,
    conjugate_representation_check,
    lagrangian_identity_check,
    slater_strong_duality_check,
    strong_duality_check,
)
from .errors import MarginlabError, MissingSection, NotANode, NotFiniteAtPoint, ZeroNotOnGrid
from .marginal import marginal_structure_check
from .nearconvex import closure, hull_raster, interior, load_raster, raster_check
from .polyhedra import feasible_point, is_empty
from .spec import COMMANDS, ProblemSpec, parse_spec
from .subdiff import (
    conj_subdiff_check,
    eps_subdifferential_check,
    marginal_subdiff_check,
    restricted_conjugate_check,
    sum_rule_check,
)
from .tables import Tables

SCHEMA = "marginlab.csv.v1"  # report.csv
JSON_SCHEMA = "marginlab.json.v2"  # report.json


class UsageError(Exception):
    """Bad command line; rendered on stderr and mapped to exit code 1."""


# --- report plumbing -----------------------------------------------------------

# What a command returns: the report.json fields between the header and the
# verdicts, the verdict rows, and the report.csv lines below its schema line.
Outcome = tuple[dict, Sequence[Verdict], list[str]]


def _cell(v: float) -> str:
    r = render_value(float(v))
    return r if isinstance(r, str) else repr(r)


def _cells(values) -> list[str]:
    return [_cell(v) for v in values]


def _bcell(flag: bool) -> str:
    return "true" if flag else "false"


def _rendered(values) -> list:
    return [render_value(float(v)) for v in values]


def _listed(values) -> list | None:
    return None if values is None else [float(v) for v in values]


def _grid_json(grid: Grid) -> list[dict]:
    return [
        {"lo": ax.lo, "hi": ax.hi, "count": ax.count} for ax in grid.axes
    ]


def _duality_json(rep: DualityReport) -> dict:
    """The values and one pass flag per row; the INFO row
    subdifferential_nonempty passes when there is a witness."""
    return {
        "vp": render_value(rep.vp),
        "vd1": render_value(rep.vd1),
        "vd2": render_value(rep.vd2),
        "gap": render_value(rep.gap),
        "witness": _listed(rep.witness),
        "verdicts": [
            {"name": n, "pass": rep.witness is not None if ok is None else ok}
            for n, ok, _ in rep.verdicts
        ],
    }


def _node_table(
    grid: Grid, var: str, columns: Mapping[str, Sequence[str]]
) -> list[str]:
    """CSV header plus one row per grid node: index, coordinates, columns."""
    rows = [",".join(["index", *axis_names(var, grid.dim), *columns])]
    nodes = grid.nodes
    for i in range(grid.size):
        cells = [str(i), *_cells(nodes[i])]
        rows.append(",".join(cells + [col[i] for col in columns.values()]))
    return rows


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_reports(
    outdir: Path, command: str, problem: str, outcome: Outcome
) -> None:
    """report.json and report.csv, each headed by its schema and the command."""
    fields, verdicts, table = outcome
    report = {
        "schema": JSON_SCHEMA,
        "command": command,
        "problem": problem,
        **fields,
        "verdicts": [
            {"name": v.name, "status": v.status, "detail": v.detail} for v in verdicts
        ],
    }
    outdir.mkdir(parents=True, exist_ok=True)
    _write_atomic(outdir / "report.json", json.dumps(report, indent=2) + "\n")
    lines = [f"{SCHEMA},{command}", *table]
    _write_atomic(outdir / "report.csv", "\n".join(lines) + "\n")


def _print_summary(
    command: str, name: str, verdicts: Sequence[Verdict], outdir: Path
) -> None:
    print(f"marginlab {command} :: {name}")
    width = max((len(v.name) for v in verdicts), default=0)
    for v in verdicts:
        print(f"  {v.status:<4}  {v.name:<{width}}  {v.detail}".rstrip())
    print(f"  reports: {outdir / 'report.json'}  {outdir / 'report.csv'}")


# --- the per-run context ----------------------------------------------------------


def _parse_dual_range(text: str, dim: int) -> Grid:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--dual-range expects lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return Grid(tuple(Axis(lo, hi, count) for _ in range(dim)))
    except ValueError as e:
        raise UsageError(f"bad --dual-range {text!r}: {e}") from None


def _parse_x0(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    try:
        return as_point(text.split(","), dim, "--x0")
    except MarginlabError as e:
        raise UsageError(str(e)) from None


class _Run:
    """One command's spec and flags, the store of its problem's tables, and
    the Lagrangian reports that two commands read.

    --dual-range and --x0 are parsed here, before any command runs, so every
    command refuses a malformed one.  `tables` holds (phi, F) on the grids
    refined by --refine and the dual grids --dual-range (else [xduals]) and
    [yduals], or the store's default for a grid left out.  Every handler
    reads the tables there, directly or through the checks it passes the
    store to, so no run builds one of them twice.  Commands that never read
    (phi, F) (lagrangian, nearconvex) never build it, so a table phi stays
    usable under --refine and a phi too large for the checks is not refused.
    """

    def __init__(self, spec: ProblemSpec, args: argparse.Namespace):
        dim = spec.xgrid.dim
        self.x0 = _parse_x0(args.x0, dim)
        if args.dual_range is not None:
            spec = spec._replace(xduals=_parse_dual_range(args.dual_range, dim))
        self.spec = spec
        self.args = args

    @cached_property
    def tables(self) -> Tables:
        return Tables(*self.spec.build(self.args.refine), self.spec.xduals, self.spec.yduals)

    @cached_property
    def lagrangian(self) -> tuple[LagrangianIdentityReport, SlaterReport]:
        """Dual-function identity and Slater reports of the [lagrangian] pair;
        the Slater row binds when the instance declares Slater and convex."""
        f_expr, g_exprs = self.spec.lagrangian
        ygrid, meta = self.spec.ygrid, self.spec.metadata
        return (
            lagrangian_identity_check(f_expr, g_exprs, ygrid, self.spec.lambdas),
            slater_strong_duality_check(f_expr, g_exprs, ygrid, meta["slater"] and meta["convex"]),
        )


# --- commands ------------------------------------------------------------------


def _prefixed(prefix: str, verdicts: Sequence[Verdict]) -> list[Verdict]:
    return [v._replace(name=prefix + v.name) for v in verdicts]


def _cmd_marginal(run: _Run) -> Outcome:
    res = run.tables.marginal
    structure = marginal_structure_check(run.tables, run.spec.metadata["convex"])
    fields = {
        "xgrid": _grid_json(res.mu.grid),
        "mu": _rendered(res.mu.values),
        "status": list(res.status),
        "argmin_counts": [len(a) for a in res.argmin],
        "mu_convex": structure.mu_convex,
        "domain_witness": structure.domain_witness,
    }
    columns = {
        "mu": _cells(res.mu.values),
        "status": res.status,
        "argmin_count": [str(len(a)) for a in res.argmin],
    }
    return fields, structure.verdicts, _node_table(res.mu.grid, "x", columns)


def _cmd_conjugate(run: _Run) -> Outcome:
    mu, duals, mustar = run.tables.mu, run.tables.xduals, run.tables.mustar
    fast = fast_conjugate_check(mu, mustar)
    bic = conjugate(mustar, mu.grid)  # biconjugate(mu, duals), from the kept mu*
    verdicts = [
        *fast.verdicts, biconjugate_minorant_check(mu, bic), fenchel_young_check(mu, mustar)
    ]
    fields = {
        "duals": _grid_json(duals),
        "mu_star": _rendered(mustar.values),
        "biconjugate": _rendered(bic.values),
        "fast_max_deviation": None if fast.fast is None else render_value(fast.max_deviation),
    }
    fast_cells = [""] * duals.size if fast.fast is None else _cells(fast.fast.values)
    table = _node_table(duals, "s", {"mu_star": _cells(mustar.values), "mu_star_fast": fast_cells})
    return fields, verdicts, table


def _cmd_subdiff(run: _Run) -> Outcome:
    mu, eps, x0 = run.tables.mu, run.args.eps, run.x0
    xi = mu.grid.index_of(x0)
    duals = run.tables.xduals
    rep = eps_subdifferential_check(mu, run.tables.mustar, xi, eps)
    P = rep.polyhedron
    fields: dict = {
        "x0": [float(v) for v in x0],
        "eps": float(eps),
        "halfspaces": int(P.normals.shape[0]),
    }
    if mu.grid.dim <= 3:
        empty, certificate = is_empty(P)
        point = feasible_point(P)
        fields["empty"] = bool(empty)
        fields["certificate_size"] = None if certificate is None else len(certificate)
        fields["witness"] = _listed(point)
    if mu.grid.dim == 1:
        iv = P.interval()
        fields["interval"] = {"lo": render_value(iv.lo), "hi": render_value(iv.hi)}
    fields["members"] = int(rep.member.sum())

    table = _node_table(
        duals,
        "s",
        {
            "member": [_bcell(m) for m in rep.member],
            "member_conjugate_route": [_bcell(m) for m in rep.member_conjugate_route],
        },
    )
    return fields, rep.verdicts, table


def _cmd_duality(run: _Run) -> Outcome:
    tables = run.tables
    rep = strong_duality_check(tables)
    columns = {"dual_objective": [_cell(-v) for v in tables.mustar.values]}
    for key in ("vp", "vd1", "vd2", "gap"):
        columns[key] = [_cell(getattr(rep, key))] * tables.xduals.size
    table = _node_table(tables.xduals, "s", columns)
    return {"duality": _duality_json(rep)}, rep.verdicts, table


# The lagrangian command's names for the rows verify-all prefixes "duality.".
_LAGRANGIAN_NAMES = {
    "lagrange_dual_identity": "dual_equals_neg_conjugate",
    "lagrange_negative_probe": "negative_probe_divergence",
}


def _cmd_lagrangian(run: _Run) -> Outcome:
    spec = run.spec
    if spec.lagrangian is None:
        raise MissingSection("the lagrangian command needs a [lagrangian] section")
    if spec.lambdas is None:
        raise MissingSection("the lagrangian command needs a [lambdas] section")
    idrep, srep = run.lagrangian
    verdicts = [
        v._replace(name=_LAGRANGIAN_NAMES.get(v.name, v.name))
        for v in idrep.verdicts + srep.verdicts
    ]
    fields = {
        "adapted_xgrid": _grid_json(idrep.xgrid),
        "slater": {
            "verified": srep.verified,
            "slater_node": _listed(srep.slater_node),
            "vp": render_value(srep.vp),
            "vd": render_value(srep.vd),
            "gap": render_value(srep.gap),
        },
        "rows": [
            {
                "lambda": list(lam),
                "dual_value": render_value(lhat),
                "neg_conjugate": render_value(-INF if mustar == INF else -mustar),
                "branch": branch,
                "ok": ok,
            }
            for lam, lhat, mustar, branch, ok in idrep.rows
        ],
    }
    table = _node_table(
        spec.lambdas,
        "l",
        {
            "dual_value": [_cell(r[1]) for r in idrep.rows],
            "conjugate_at_neg_lambda": [_cell(r[2]) for r in idrep.rows],
            "branch": [r[3] for r in idrep.rows],
            "ok": [_bcell(r[4]) for r in idrep.rows],
            "expected_infinite": [_bcell(r[3] == "divergent") for r in idrep.rows],
        },
    )
    return fields, verdicts, table


def _near_convexity_json(rep) -> dict:
    keys = ("verdict", "closure_convex", "interior_nonempty", "interior_inside")
    return {k: getattr(rep, k) for k in keys}


def _cmd_nearconvex(run: _Run) -> Outcome:
    spec = run.spec
    if not spec.rasters:
        raise MissingSection("the nearconvex command needs a [raster] section")
    S, *others = [
        load_raster((spec.base_dir / f).read_text(encoding="utf-8"))
        for f in spec.rasters
    ]
    rep = raster_check(S, others[0] if others else None)
    inter = rep.intersection
    inter_json = {"skipped": rep.skipped} if rep.skipped else inter and _near_convexity_json(inter)
    fields = {
        "grid": _grid_json(S.grid),
        **_near_convexity_json(rep.nearly_convex),
        "witness": _listed(rep.nearly_convex.witness),
        "witness_kind": rep.nearly_convex.witness_kind,
        "refined_verdict": rep.refined.verdict,
        "intersection": inter_json,
    }
    cl = closure(S)
    sets = {
        "member": S,
        "closure": cl,
        "hull": hull_raster(S),
        "interior_of_closure": interior(cl),
    }
    columns = {k: [_bcell(b) for b in r.mask.reshape(-1)] for k, r in sets.items()}
    return fields, rep.verdicts, _node_table(S.grid, "x", columns)


def _cmd_verify_all(run: _Run) -> Outcome:
    """The core, conjugacy, subdiff and duality layers' rows, each under its
    layer's prefix; a layer that needs x = 0 as a finite node of mu, or as
    an x node, reports one INFO row when it is not."""
    tables, meta = run.tables, run.spec.metadata
    mu, mustar, xduals = tables.mu, tables.mustar, tables.xduals
    verdicts = _prefixed("core.", marginal_structure_check(tables, meta["convex"]).verdicts)
    conjugacy = [
        *fast_conjugate_check(mu, mustar).verdicts,
        fenchel_young_check(mu, mustar),
        *restricted_conjugate_check(tables).verdicts,
        *conjugate_representation_check(tables, meta["qc1"]).verdicts,
    ]
    subdiff: list[Verdict] = []
    zero = np.zeros(mu.grid.dim)
    try:
        for eps, tag in ((0.0, "0p0"), (0.5, "0p5")):
            rep = marginal_subdiff_check(tables, zero, eps, meta["qc14"])
            subdiff += [v._replace(name=f"{v.name}_eps{tag}") for v in rep.verdicts]
        subdiff += sum_rule_check(mu, mu, zero, 0.5, duals=xduals).verdicts
    except (NotANode, NotFiniteAtPoint):
        subdiff = [Verdict.skipped("marginal_formula_upper", "mu not finite at 0 or 0 off-grid")]
    x0star = xduals.coords(int(np.argmin(mustar.values)))
    subdiff += conj_subdiff_check(tables, x0star, 0.0, meta["qc14"]).verdicts
    verdicts += _prefixed("conjugacy.", conjugacy) + _prefixed("subdiff.", subdiff)
    try:
        rep = strong_duality_check(tables)
        verdicts += _prefixed("duality.", rep.verdicts)
        duality = _duality_json(rep)
    except ZeroNotOnGrid:
        verdicts.append(Verdict.skipped("duality.weak_duality_chain", "0 is not an x node"))
        duality = None
    if run.spec.lagrangian is not None and run.spec.lambdas is not None:
        idrep, srep = run.lagrangian
        verdicts += _prefixed("duality.", idrep.verdicts + srep.verdicts)
    table = ["check,status,detail"] + [
        f"{v.name},{v.status},{v.detail.replace(',', ';')}" for v in verdicts
    ]
    return {"refine": int(run.args.refine), "duality": duality}, verdicts, table


_HANDLERS: dict[str, Callable[[_Run], Outcome]] = {
    "marginal": _cmd_marginal,
    "conjugate": _cmd_conjugate,
    "subdiff": _cmd_subdiff,
    "duality": _cmd_duality,
    "lagrangian": _cmd_lagrangian,
    "nearconvex": _cmd_nearconvex,
    "verify-all": _cmd_verify_all,
}


# --- entry point ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="marginlab",
        description="Verify marginal-function, conjugacy and duality "
        "identities of a gridded parametric minimization problem.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--spec", required=True, help="problem spec file")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument(
        "--refine", type=int, default=1, help="grid refinement factor (default 1)"
    )
    p.add_argument(
        "--eps", type=float, default=0.0, help="epsilon for subdiff (default 0)"
    )
    p.add_argument("--x0", default=None, help='base point, e.g. "0.5,-1"')
    p.add_argument(
        "--dual-range",
        dest="dual_range",
        default=None,
        help="override dual grid, lo:hi:count per axis",
    )
    return p


def _join_dashed_values(argv: Sequence[str]) -> list[str]:
    """Fold `--flag value` into `--flag=value` for flags whose values may
    start with a dash (negative bounds), which argparse would otherwise
    read as option names."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in ("--dual-range", "--x0"):
            val = next(it, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dashed_values(argv))
        if not 0 <= args.eps < INF:
            raise UsageError(f"--eps expects a finite number >= 0, got {args.eps}")
        spec_path = Path(args.spec)
        text = spec_path.read_text(encoding="utf-8")
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1

    try:
        spec = parse_spec(
            text,
            base_dir=spec_path.resolve().parent,
            default_name=spec_path.stem,
        )
        outcome = _HANDLERS[args.command](_Run(spec, args))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except MarginlabError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1

    outdir = Path(args.out)
    try:
        _write_reports(outdir, args.command, spec.name, outcome)
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1

    verdicts = outcome[1]
    _print_summary(args.command, spec.name, verdicts, outdir)
    return 2 if any(ok is False for _, ok, _ in verdicts) else 0


def process_main() -> int:
    """`main()` as the whole work of a process, for `python -m marginlab.cli`
    and the `marginlab` script, on a frozen heap.

    `gc.freeze()` takes the tens of thousands of objects that importing
    numpy and marginlab leaves out of the collector's reach, so no
    collection of the process, the one at exit included, walks them.  It
    runs before the command, not after, so the command's garbage cycles
    are still freed at exit for the interpreter's teardown to reuse.
    `main` leaves the collector alone: one process may call it many times.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
