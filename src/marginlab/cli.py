"""Command-line front end: dispatch, one lazy context per run, reports.

`marginlab <command> --spec f --out d` parses a problem spec (the format
lives in marginlab.spec and docs/formats.md), runs one verification
command and writes `report.json` plus a plot-ready `report.csv` into the
output directory.

Every command reads one per-run context, `_Run`: the spec and flags, the
dual grids, and one `tables.Tables` store for (phi, F).  The store builds
mu, mu*, phi* and the graph supports the checks share once each, and the
handlers pass it to every check that reads them, so one verify-all
computes the marginal of (phi, F) once.  Each check's verdict rows come
from one builder that takes its row names as arguments; verify-all
concatenates the core, conjugacy, subdiff and duality layers, and the
single-topic commands reuse the same builders.  Reports are
deterministic: fixed field order, no timestamps, infinities rendered as
"+inf"/"-inf", so repeated runs are byte-identical.

Exit codes: 0 all binding verdicts pass, 2 a verification verdict failed,
1 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .conjugate import (
    conjugate,
    conjugate_fast,
    default_dual_grid,
    default_ydual_grid,
)
from .core import (
    INF,
    Axis,
    Grid,
    GriddedFunction,
    axis_names,
    max_deviation,
    render_value,
)
from .duality import (
    DualityReport,
    LagrangianIdentityReport,
    SlaterReport,
    conjugate_representation_check,
    lagrangian_identity_check,
    slater_strong_duality_check,
    strong_duality_check,
)
from .errors import (
    HypothesisNotMet,
    MarginlabError,
    MissingSection,
    NotANode,
    UnsupportedShape,
    ZeroNotOnGrid,
)
from .marginal import convexity_check, domain_identity_check, epigraph_projection_check
from .nearconvex import (
    closure,
    hull_raster,
    interior,
    intersection_preservation_check,
    is_int_nearly_convex,
    load_raster,
    refine_raster,
)
from .setmap import SetValuedMap
from .spec import COMMANDS, ProblemSpec, parse_spec
from .subdiff import (
    conj_subdiff_check,
    eps_subdifferential,
    feasible_point,
    is_empty,
    marginal_subdiff_check,
    restricted_conjugate_check,
    sum_rule_check,
)
from .tables import Tables

SCHEMA = "marginlab.csv.v1"


class UsageError(Exception):
    """Bad command line; rendered on stderr and mapped to exit code 1."""


# --- report plumbing -----------------------------------------------------------

# A verdict is (name, outcome, detail); outcome None marks an informational
# row that never binds the exit code.
Verdict = tuple[str, "bool | None", str]

# What a command returns: the report.json fields between the header and the
# verdicts, the verdict rows, and the report.csv lines below its schema line.
Outcome = tuple[dict, list[Verdict], list[str]]


def _status(ok: "bool | None") -> str:
    if ok is None:
        return "INFO"
    return "PASS" if ok else "FAIL"


def _cell(v: float) -> str:
    r = render_value(float(v))
    return r if isinstance(r, str) else repr(r)


def _cells(values) -> list[str]:
    return [_cell(v) for v in values]


def _bcell(flag: bool) -> str:
    return "true" if flag else "false"


def _rendered(values) -> list:
    return [render_value(float(v)) for v in values]


def _grid_json(grid: Grid) -> list[dict]:
    return [
        {"lo": ax.lo, "hi": ax.hi, "count": ax.count} for ax in grid.axes
    ]


def _node_table(
    grid: Grid, var: str, columns: Mapping[str, Sequence[str]]
) -> list[str]:
    """CSV header plus one row per grid node: index, coordinates, columns."""
    rows = [",".join(["index", *axis_names(var, grid.dim), *columns])]
    for i in range(grid.size):
        cells = [str(i), *_cells(grid.coords(i))]
        rows.append(",".join(cells + [col[i] for col in columns.values()]))
    return rows


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_reports(
    outdir: Path, command: str, problem: str, outcome: Outcome
) -> None:
    """report.json and report.csv, each headed by the schema and command."""
    fields, verdicts, table = outcome
    report = {
        "schema": SCHEMA,
        "command": command,
        "problem": problem,
        **fields,
        "verdicts": [
            {"name": n, "status": _status(ok), "detail": d}
            for n, ok, d in verdicts
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
    width = max((len(n) for n, _, _ in verdicts), default=0)
    for n, ok, detail in verdicts:
        row = f"  {_status(ok):<4}  {n:<{width}}"
        if detail:
            row += f"  {detail}"
        print(row.rstrip())
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
        vals = np.array([float(t) for t in text.split(",")], dtype=np.float64)
    except ValueError:
        raise UsageError(
            f"--x0 expects comma-separated numbers, got {text!r}"
        ) from None
    if vals.shape[0] != dim:
        raise UsageError(
            f"--x0 has {vals.shape[0]} coordinates for a {dim}-dimensional grid"
        )
    if not np.isfinite(vals).all():
        raise UsageError(f"--x0 needs finite coordinates, got {text!r}")
    return vals


class _Run:
    """One command's spec and flags, the store of its problem's tables, and
    the reports that more than one of its rows read.

    `tables` holds (phi, F) on the grids refined by --refine and builds
    each shared table on first use: mu, mu* on the x-duals, phi* and the
    graph support on the dual lattice.  Every handler reads them there,
    directly or through the checks it passes the store to, so no run
    builds one of them twice.  Commands that never read (phi, F)
    (lagrangian, nearconvex) never build it, so a table phi stays usable
    under --refine.
    """

    def __init__(self, spec: ProblemSpec, args: argparse.Namespace):
        self.spec = spec
        self.args = args

    @cached_property
    def tables(self) -> Tables:
        return Tables(*self.spec.build(self.args.refine))

    @property
    def problem(self) -> tuple[GriddedFunction, SetValuedMap]:
        return self.tables.phi, self.tables.F

    @property
    def mu(self) -> GriddedFunction:
        return self.tables.mu

    @cached_property
    def xduals(self) -> Grid:
        """--dual-range, else the spec's [xduals], else mu's default box."""
        if self.args.dual_range:
            return _parse_dual_range(self.args.dual_range, self.mu.grid.dim)
        if self.spec.xduals is not None:
            return self.spec.xduals
        return default_dual_grid(self.mu)

    @cached_property
    def yduals(self) -> Grid:
        """The spec's [yduals], else the y part of phi's default box."""
        if self.spec.yduals is not None:
            return self.spec.yduals
        phi, F = self.problem
        return default_ydual_grid(phi, F.xgrid.dim)

    @property
    def mustar(self) -> GriddedFunction:
        """mu* on the x-duals, by brute force."""
        return self.tables.mustar(self.xduals)

    @cached_property
    def mustar_fast(self) -> GriddedFunction | UnsupportedShape:
        """mu* on the x-duals by conjugate_fast, or why that does not apply."""
        try:
            return conjugate_fast(self.mu, self.xduals)
        except UnsupportedShape as e:
            return e

    @cached_property
    def domain(self) -> tuple[bool, int | None]:
        return domain_identity_check(self.tables)

    @cached_property
    def convexity(self) -> tuple[bool, tuple[int, int, int] | None]:
        return convexity_check(self.mu)

    @cached_property
    def duality(self) -> DualityReport:
        return strong_duality_check(self.tables, self.xduals, self.yduals)

    @cached_property
    def lagrangian(self) -> tuple[LagrangianIdentityReport, SlaterReport]:
        """Dual-function identity and Slater reports of the [lagrangian] pair."""
        f_expr, g_exprs = self.spec.lagrangian
        ygrid = self.spec.ygrid
        return (
            lagrangian_identity_check(f_expr, g_exprs, ygrid, self.spec.lambdas),
            slater_strong_duality_check(f_expr, g_exprs, ygrid),
        )


# --- verdict rows: one builder per check ----------------------------------------


def _level_probe(mu: GriddedFunction) -> np.ndarray:
    """Deterministic level values bracketing the finite range of mu."""
    fin = mu.values[np.isfinite(mu.values)]
    if fin.size == 0:
        return np.array([0.0])
    lo, hi = float(fin.min()), float(fin.max())
    return np.linspace(lo - 0.5, hi + 0.5, 9)


def _core_rows(run: _Run, prefix: str) -> list[Verdict]:
    """Domain identity, strict-epigraph projection and convexity of mu."""
    phi, F = run.problem
    epi = epigraph_projection_check(phi, F, _level_probe(run.mu))
    declared = run.spec.metadata["convex"]
    return [
        (prefix + "domain_identity", run.domain[0], ""),
        (prefix + "epigraph_projection", epi.ok, f"{epi.checked} level-node checks"),
        (
            prefix + "mu_convex",
            bool(run.convexity[0]) if declared else None,
            "declared convex" if declared else "informational",
        ),
    ]


def _fast_row(run: _Run, name: str) -> Verdict:
    brute, fast = run.mustar, run.mustar_fast
    if isinstance(fast, UnsupportedShape):
        return (name, None, str(fast))
    dev = max_deviation(brute.values, fast.values)
    return (name, dev <= 1e-12, f"max deviation {dev:.3g}")


def _fenchel_young_row(run: _Run, name: str) -> Verdict:
    """mu(x) + mu*(s) >= <s, x> over all finite nodes, tolerance 1e-9."""
    mu, mustar = run.mu, run.mustar
    finx = np.isfinite(mu.values)
    fins = np.isfinite(mustar.values)
    if not finx.any() or not fins.any():
        return (name, True, "")
    pair = run.xduals.nodes[fins] @ mu.grid.nodes[finx].T
    total = mustar.values[fins][:, None] + mu.values[finx][None, :]
    return (name, bool(np.all(total >= pair - 1e-9)), "")


def _conjugacy_rows(run: _Run) -> list[Verdict]:
    rows = [
        _fast_row(run, "conjugacy.fast_matches_bruteforce"),
        _fenchel_young_row(run, "conjugacy.fenchel_young"),
    ]
    rc = restricted_conjugate_check(run.tables, run.xduals)
    qc1 = run.spec.metadata["qc1"]
    crep = conjugate_representation_check(run.tables, run.xduals, run.yduals, qc1)
    residual = f"max residual {render_value(crep.max_residual)}"
    return rows + [
        ("conjugacy.restricted_conjugate_exact", rc.ok, f"{rc.n_duals} dual nodes"),
        ("conjugacy.representation_lower_bound", crep.lower_bound_ok, ""),
        ("conjugacy.representation_monotone", crep.monotone_ok, "under split refinement"),
        (
            "conjugacy.representation_equality",
            crep.max_residual <= 1e-9 if qc1 else None,
            residual + ("" if qc1 else "; equality not asserted (qc1 false)"),
        ),
    ]


def _subdiff_rows(run: _Run) -> list[Verdict]:
    mu, xduals, yduals = run.mu, run.xduals, run.yduals
    qc14 = run.spec.metadata["qc14"]
    rows: list[Verdict] = []
    zero = np.zeros(mu.grid.dim)
    try:
        finite_at_zero = np.isfinite(mu.values[mu.grid.index_of(zero)])
    except NotANode:
        finite_at_zero = False
    if finite_at_zero:
        for eps, tag in ((0.0, "0p0"), (0.5, "0p5")):
            rep = marginal_subdiff_check(run.tables, zero, eps, xduals, yduals, qc14)
            rows += [
                (
                    f"subdiff.marginal_formula_upper_eps{tag}",
                    rep.easy_ok and rep.eta_monotone_ok,
                    f"{rep.n_samples} duals",
                ),
                (
                    f"subdiff.marginal_formula_agreement_eps{tag}",
                    rep.agreement == 1.0 if qc14 else None,
                    f"agreement {rep.agreement:.4f}"
                    + ("" if qc14 else "; equality not asserted (qc14 false)"),
                ),
            ]
        sr = sum_rule_check(mu, mu, zero, 0.5, duals=xduals)
        rows.append(
            ("subdiff.sum_rule_easy_inclusion", sr.easy_ok, f"agreement {sr.agreement:.4f}")
        )
    else:
        rows.append(
            (
                "subdiff.marginal_formula_upper",
                None,
                "mu not finite at 0 or 0 off-grid; skipped",
            )
        )
    si = int(np.argmin(run.mustar.values))
    rep2 = conj_subdiff_check(run.tables, xduals, xduals.coords(si), 0.0, yduals, qc14)
    contains_lhs = not any(l and not r for l, r in zip(rep2.lhs_mask, rep2.rhs_mask))
    return rows + [
        (
            "subdiff.conjugate_formula_upper",
            rep2.easy_ok and rep2.eta_monotone_ok,
            f"at dual node {si}",
        ),
        (
            "subdiff.conjugate_formula_containment",
            contains_lhs if qc14 else None,
            f"agreement {rep2.agreement:.4f}; closure realized as one-cell dilation"
            + ("" if qc14 else "; containment not asserted (qc14 false)"),
        ),
    ]


def _duality_rows(run: _Run, prefix: str) -> list[Verdict]:
    """Strong-duality rows; subdifferential emptiness is a finding about the
    instance, not a failure, so it never binds the exit code."""
    out: list[Verdict] = []
    for name, ok in run.duality.verdicts:
        if name == "subdifferential_nonempty":
            detail = "certificate available" if ok else "no certificate"
            out.append((prefix + name, None, detail))
        else:
            out.append((prefix + name, ok, ""))
    return out


def _lagrangian_rows(run: _Run, names: tuple[str, str, str]) -> list[Verdict]:
    """Dual-function identity, divergence probe and Slater strong duality."""
    idrep, srep = run.lagrangian
    rows: list[Verdict] = []
    for name, branch, side in ((names[0], "identity", ">="), (names[1], "divergent", "<")):
        oks = [r[4] for r in idrep.rows if r[3] == branch]
        rows.append((name, all(oks) if oks else None, f"{len(oks)} lambda nodes {side} 0"))
    binding = run.spec.metadata["slater"] and run.spec.metadata["convex"]
    return rows + [(names[2], srep.verdict if binding else None, srep.note)]


# --- commands ------------------------------------------------------------------


def _cmd_marginal(run: _Run) -> Outcome:
    res = run.tables.marginal
    verdicts = _core_rows(run, "")
    fields = {
        "xgrid": _grid_json(res.mu.grid),
        "mu": _rendered(res.mu.values),
        "status": list(res.status),
        "argmin_counts": [len(a) for a in res.argmin],
        "mu_convex": bool(run.convexity[0]),
        "domain_witness": run.domain[1],
    }
    table = _node_table(
        res.mu.grid,
        "x",
        {
            "mu": _cells(res.mu.values),
            "status": res.status,
            "argmin_count": [str(len(a)) for a in res.argmin],
        },
    )
    return fields, verdicts, table


def _cmd_conjugate(run: _Run) -> Outcome:
    mu, duals = run.mu, run.xduals
    mustar, fast = run.mustar, run.mustar_fast
    fast_row = _fast_row(run, "fast_matches_bruteforce")
    bic = conjugate(mustar, mu.grid)  # biconjugate(mu, duals), from the kept mu*
    verdicts = [
        fast_row,
        ("biconjugate_minorant", bool(np.all(bic.values <= mu.values + 1e-9)), ""),
        _fenchel_young_row(run, "fenchel_young"),
    ]
    applies = not isinstance(fast, UnsupportedShape)
    fields = {
        "duals": _grid_json(duals),
        "mu_star": _rendered(mustar.values),
        "biconjugate": _rendered(bic.values),
        "fast_max_deviation": (
            render_value(max_deviation(mustar.values, fast.values))
            if applies
            else None
        ),
    }
    table = _node_table(
        duals,
        "s",
        {
            "mu_star": _cells(mustar.values),
            "mu_star_fast": _cells(fast.values) if applies else [""] * duals.size,
        },
    )
    return fields, verdicts, table


def _cmd_subdiff(run: _Run) -> Outcome:
    mu, eps = run.mu, run.args.eps
    x0 = _parse_x0(run.args.x0, mu.grid.dim)
    xi = mu.grid.index_of(x0)
    P = eps_subdifferential(mu, xi, eps)
    duals = run.xduals
    member = P.contains(duals.nodes)
    # The Fenchel-Young route: s is an eps-subgradient at x0 exactly when
    # mu*(s) + mu(x0) <= <s, x0> + eps.
    f0 = float(mu.values[xi])
    if np.isfinite(f0):
        pair = duals.nodes @ mu.grid.coords(xi)
        with np.errstate(invalid="ignore"):
            member_fy = run.mustar.values + f0 <= pair + eps + 1e-9
    else:
        member_fy = np.zeros(duals.size, dtype=bool)
    wider = eps_subdifferential(mu, xi, eps + 0.5).contains(duals.nodes)
    verdicts: list[Verdict] = [
        (
            "conjugate_route_agreement",
            bool(np.array_equal(member, member_fy)),
            f"{duals.size} dual nodes",
        ),
        ("nesting_in_eps", bool(np.all(wider[member])), "eps vs eps+0.5"),
    ]

    fields: dict = {
        "x0": [float(v) for v in x0],
        "eps": float(eps),
        "halfspaces": int(P.normals.shape[0]),
    }
    if mu.grid.dim <= 3:
        empty, certificate = is_empty(P)
        point = feasible_point(P)
        fields["empty"] = bool(empty)
        fields["certificate_size"] = (
            len(certificate) if certificate is not None else None
        )
        fields["witness"] = [float(v) for v in point] if point is not None else None
    if mu.grid.dim == 1:
        iv = P.interval()
        fields["interval"] = {"lo": render_value(iv.lo), "hi": render_value(iv.hi)}
    fields["members"] = int(member.sum())

    table = _node_table(
        duals,
        "s",
        {
            "member": [_bcell(m) for m in member],
            "member_conjugate_route": [_bcell(m) for m in member_fy],
        },
    )
    return fields, verdicts, table


def _cmd_duality(run: _Run) -> Outcome:
    rep = run.duality
    verdicts = _duality_rows(run, "")
    columns = {"dual_objective": [_cell(-v) for v in run.mustar.values]}
    for key in ("vp", "vd1", "vd2", "gap"):
        columns[key] = [_cell(getattr(rep, key))] * run.xduals.size
    table = _node_table(run.xduals, "s", columns)
    return {"duality": rep.json_dict()}, verdicts, table


def _cmd_lagrangian(run: _Run) -> Outcome:
    spec = run.spec
    if spec.lagrangian is None:
        raise MissingSection("the lagrangian command needs a [lagrangian] section")
    if spec.lambdas is None:
        raise MissingSection("the lagrangian command needs a [lambdas] section")
    verdicts = _lagrangian_rows(
        run,
        ("dual_equals_neg_conjugate", "negative_probe_divergence", "slater_strong_duality"),
    )
    idrep, srep = run.lagrangian
    fields = {
        "adapted_xgrid": _grid_json(idrep.xgrid),
        "slater": {
            "verified": srep.verified,
            "slater_node": (
                list(srep.slater_node) if srep.slater_node is not None else None
            ),
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
    rep = is_int_nearly_convex(S)
    rep_refined = is_int_nearly_convex(refine_raster(S, 2))
    verdicts: list[Verdict] = [
        (
            "int_nearly_convex",
            None,
            f"verdict {_bcell(rep.verdict)}"
            + (f"; witness kind {rep.witness_kind}" if rep.witness_kind else ""),
        ),
        ("refinement_stable", rep.verdict == rep_refined.verdict, "x2"),
    ]

    inter_json = None
    if others:
        try:
            irep = intersection_preservation_check(S, others[0])
            verdicts.append(("intersection_preserved", irep.verdict, ""))
            inter_json = _near_convexity_json(irep)
        except HypothesisNotMet as e:
            verdicts.append(("intersection_preserved", None, str(e)))
            inter_json = {"skipped": str(e)}

    fields = {
        "grid": _grid_json(S.grid),
        **_near_convexity_json(rep),
        "witness": list(rep.witness) if rep.witness is not None else None,
        "witness_kind": rep.witness_kind,
        "refined_verdict": rep_refined.verdict,
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
    return fields, verdicts, _node_table(S.grid, "x", columns)


def _cmd_verify_all(run: _Run) -> Outcome:
    verdicts = _core_rows(run, "core.") + _conjugacy_rows(run) + _subdiff_rows(run)
    try:
        verdicts += _duality_rows(run, "duality.")
        duality = run.duality.json_dict()
    except ZeroNotOnGrid:
        verdicts.append(
            ("duality.weak_duality_chain", None, "0 is not an x node; skipped")
        )
        duality = None
    if run.spec.lagrangian is not None and run.spec.lambdas is not None:
        verdicts += _lagrangian_rows(
            run,
            (
                "duality.lagrange_dual_identity",
                "duality.lagrange_negative_probe",
                "duality.slater_strong_duality",
            ),
        )
    table = ["check,status,detail"] + [
        f"{n},{_status(ok)},{detail.replace(',', ';')}" for n, ok, detail in verdicts
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


if __name__ == "__main__":
    sys.exit(main())
