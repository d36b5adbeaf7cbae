"""Primal value, two dual values, duality-gap certificates, Lagrangian duality.

The primal value is the marginal function at the unperturbed parameter
x = 0.  The first dual value maximizes -mu* over dual nodes; the second
evaluates the sampled infimal convolution of phi* and the graph support
function at (x*, 0), so it is a lower bound whose split lattice can be
refined.  Both tables come from `conjugate.partial_conjugate`'s kernel,
and the add-and-min over the lattice folds the graph support one block of
lattice steps at a time.  Strong
duality is certified through the subdifferential of mu at 0: a subgradient
there forces equality of the primal and first dual values, and the witness
doubles as the optimal dual point.

The Lagrangian section specializes x to inequality perturbations
g(y) <= x: on a graph-adapted x-grid the dual function identity
mu*(-lambda) = -Lhat(lambda) holds node-exactly for lambda >= 0, and the
divergence of mu*(-lambda) for sign-violating lambda is detected by a
one-step grid extension.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .conjugate import conjugate_at, dots, score_slices, unique_rows
from .core import (
    INF,
    ROUNDING_TOL,
    TOL,
    Axis,
    Grid,
    GriddedFunction,
    Verdict,
    as_rows,
    default_names,
    eval_on_grid,
    hypothesis_verdict,
    render_value,
    sorted_distinct,
)
from .errors import GridNotAdapted, InvalidArgument, MarginlabError, NotANode, ZeroNotOnGrid
from .polyhedra import feasible_point, linprog
from .setmap import SetValuedMap, graph_support_blocks, map_from_inequalities, split_lattice
from .subdiff import eps_subdifferential
from .tables import Tables, inf_convolution_min, phi_conjugate

MAX_ADAPTED_COUNT = 100_000  # x-nodes per axis of a graph-adapted grid


def _zero_index(grid: Grid) -> int:
    try:
        return grid.index_of(np.zeros(grid.dim))
    except NotANode as exc:
        raise ZeroNotOnGrid("the parameter origin is not a grid node") from exc


def primal_value(tables: Tables) -> float:
    """mu(0): the unperturbed optimal value (may be +-inf)."""
    zi = _zero_index(tables.F.xgrid)
    return float(tables.mu.values[zi])


def dual_value_1(tables: Tables) -> float:
    """max over the x* nodes of -mu*(x*), i.e. the biconjugate of mu at 0."""
    _zero_index(tables.F.xgrid)
    return float(np.max(-tables.mustar.values))


def sampled_inf_convolution(
    phi: GriddedFunction,
    F: SetValuedMap,
    at: np.ndarray,
    x1duals: Grid,
    yduals: Grid,
) -> np.ndarray:
    """(phi* box F*)(x*, 0) sampled over a finite split lattice.

    Per evaluation point x*, minimizes phi*(x1*, y*) + F*(x* - x1*, -y*)
    over the x1duals and yduals nodes with lower addition; the result can
    only decrease when the split lattice is refined (nodes are kept).
    F* is taken on the distinct steps x* - x1* only, and no table of it is
    built: `tables.inf_convolution_min` folds each block of steps that
    `setmap.graph_support_blocks` yields, within `conjugate._BLOCK_CAP`
    entries, into the per-(x*, x1*) minima.  Every sum is the one a whole
    F* table gives, and a minimum is exact with no -0.0 in either table,
    so the blocks move no bit.
    """
    at = as_rows(at, F.xgrid.dim, "evaluation points")
    phistar = phi_conjugate(phi, F, x1duals, yduals)
    steps, inverse = unique_rows(split_lattice(at, x1duals))
    return inf_convolution_min(
        phistar, F, inverse, graph_support_blocks(F, steps, -yduals.nodes)
    )


def dual_value_2(tables: Tables) -> float:
    """max over the x* nodes of -(phi* box F*)(x*, 0), splits sampled there."""
    return float(np.max(-tables.inf_convolution))


class ConjugateRepresentationReport(NamedTuple):
    lower_bound_ok: bool
    monotone_ok: bool
    max_residual: float
    residuals: tuple[float, ...]
    refined_residuals: tuple[float, ...]
    verdicts: tuple[Verdict, ...]


def _refined(grid: Grid, name: str) -> Grid:
    """The dual grid refined by 2, or a refusal naming its box."""
    try:
        return grid.refine(2)
    except InvalidArgument:
        box = " x ".join(f"[{a.lo:.6g}, {a.hi:.6g}]" for a in grid.axes)
        raise InvalidArgument(f"the {name}* box {box} refined by 2 for the representation"
                              f" check overflows; give a narrower {name}* box") from None


def conjugate_representation_check(
    tables: Tables, hypothesis: bool = False
) -> ConjugateRepresentationReport:
    """mu* against the sampled infimal convolution at every x* node.

    mu*(x*) <= sampled value holds unconditionally (any feasible split
    upper-bounds the true infimum, which upper-bounds mu*); residuals are
    recomputed once with both split lattices refined by 2 and must not
    increase.  Its rows are the lower bound, the monotonicity and the
    equality (max residual <= TOL), which binds only when the instance
    asserts the interiority hypothesis (qc1).  The dual grids, mu* and the
    sampled value on their lattice come from the store; the refined lattice
    is read here alone, so `sampled_inf_convolution` folds it block by
    block and keeps none of it.
    """
    xduals, yduals = tables.xduals, tables.yduals
    mustar = tables.mustar.values
    sic0 = tables.inf_convolution
    sic1 = sampled_inf_convolution(
        tables.phi, tables.F, xduals.nodes, _refined(xduals, "x"), _refined(yduals, "y")
    )
    lower_ok = bool(np.all(mustar <= sic0 + TOL)) and bool(np.all(mustar <= sic1 + TOL))

    def residual(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf - inf where lhs == rhs
            out = np.where(lhs == rhs, 0.0, rhs - lhs)
        return np.where(np.isnan(out), INF, out)

    r0 = residual(mustar, sic0)
    r1 = residual(mustar, sic1)
    monotone = bool(np.all(r1 <= r0 + ROUNDING_TOL))
    max_res = float(np.max(r1)) if r1.size else 0.0
    return ConjugateRepresentationReport(
        lower_ok,
        monotone,
        max_res,
        tuple(float(v) for v in r0),
        tuple(float(v) for v in r1),
        (
            Verdict("representation_lower_bound", lower_ok),
            Verdict("representation_monotone", monotone, "under split refinement"),
            hypothesis_verdict("representation_equality", max_res <= TOL, hypothesis, "qc1",
                               "equality", f"max residual {render_value(max_res)}"),
        ),
    )


# --- strong duality -------------------------------------------------------------


class DualityReport(NamedTuple):
    vp: float
    vd1: float
    vd2: float
    gap: float
    witness: tuple[float, ...] | None
    verdicts: tuple[Verdict, ...]


def _gap(vp: float, vd1: float) -> float:
    if vp == vd1:
        return 0.0
    return vp - vd1


def strong_duality_check(tables: Tables) -> DualityReport:
    """Certify or refute strong duality through the subdifferential at 0.

    Any s in the subdifferential of mu at 0 pins mu*(s) = -mu(0), so the
    first dual value meets the primal value exactly; the dual sample is
    augmented with the witness point to make that certificate visible even
    when no dual node lands inside the subdifferential.  An empty
    subdifferential yields a nonnegative reported gap instead; that
    emptiness is a finding about the instance, not a failure, so its row
    is INFO.  mu, mu* and the sampled value come from the store.
    """
    zi = _zero_index(tables.F.xgrid)
    mu = tables.mu
    vp = primal_value(tables)
    vd1 = dual_value_1(tables)
    vd2 = dual_value_2(tables)

    sub = eps_subdifferential(mu, zi, 0.0)
    point = feasible_point(sub)
    witness = None
    if point is not None:
        vd1 = max(vd1, float(-conjugate_at(mu, point.reshape(1, -1))[0]))
        witness = tuple(float(v) for v in point)

    gap = _gap(vp, vd1)
    chain_ok = vd2 <= vd1 + ROUNDING_TOL and vd1 <= vp + ROUNDING_TOL
    strong_ok = point is None or abs(gap) <= TOL
    gap_ok = gap >= -ROUNDING_TOL
    witness_sound = True
    if witness is not None and np.isfinite(vp):
        s = np.asarray(witness)
        fin = np.isfinite(mu.values)
        lhs = dots(mu.grid.nodes[fin], s)
        witness_sound = bool(np.all(lhs <= mu.values[fin] - vp + TOL))
    verdicts = (
        Verdict("weak_duality_chain", bool(chain_ok)),
        Verdict("gap_nonnegative", bool(gap_ok)),
        Verdict("subdifferential_nonempty", None,
                "certificate available" if point is not None else "no certificate"),
        Verdict("strong_duality_certified", bool(strong_ok)),
        Verdict("witness_sound", bool(witness_sound)),
    )
    return DualityReport(vp, vd1, vd2, gap, witness, verdicts)


# --- Lagrangian specialization ----------------------------------------------------


class LagrangianTable(NamedTuple):
    lambdas: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    minimizers: tuple[int, ...]
    expected_infinite: tuple[bool, ...]


def _eval_objective(f_expr: str, g_exprs: tuple[str, ...], ygrid: Grid):
    names, aliases = default_names(ygrid, "y")
    fv = eval_on_grid(f_expr, ygrid, names, aliases).values
    gv = np.stack(
        [eval_on_grid(g, ygrid, names, aliases).values for g in g_exprs], axis=0
    )
    return fv, gv


def lagrangian_dual(
    f_expr: str,
    g_exprs: tuple[str, ...] | list[str],
    ygrid: Grid,
    lambda_grid: Grid,
) -> LagrangianTable:
    """Lhat(lambda) = exact min over y nodes of f(y) + lambda . g(y).

    Rows with a negative lambda component are marked: there the dual
    function convention says mu*(-lambda) = +inf, which a finite grid can
    only exhibit as divergence under extension.
    """
    fv, gv = _eval_objective(f_expr, tuple(g_exprs), ygrid)
    if lambda_grid.dim != gv.shape[0]:
        raise InvalidArgument("lambda grid dimension must match the number of constraints")
    lam = lambda_grid.nodes
    L = fv[None, :] + dots(lam[:, None], gv.T)
    mins = L.argmin(axis=1)
    vals = L[np.arange(lam.shape[0]), mins]
    neg = (lam < 0).any(axis=1)
    return LagrangianTable(
        tuple(tuple(float(v) for v in row) for row in lam),
        tuple(float(v) for v in vals),
        tuple(int(i) for i in mins),
        tuple(bool(b) for b in neg),
    )


def _float_gcd(values: np.ndarray, tol: float) -> float:
    """Approximate positive gcd of a set of positive gaps (Euclid on floats);
    remainders up to `tol` count as zero."""
    g = 0.0
    for raw in values:
        v = abs(float(raw))
        while v > tol:
            g, v = v, g % v
    return g


def graph_adapted_xgrid(g_exprs: tuple[str, ...] | list[str], ygrid: Grid) -> Grid:
    """Uniform x-grid whose axes contain every constraint value g_i(y-node).

    The axis step is the (approximate) gcd of the value gaps, so the
    supremum defining mu*(-lambda) is attained on-grid.  Its tolerances are
    TOL times max(1, largest |value|) of the constraint: float gaps carry
    rounding error relative to the values' size, so an absolute cutoff
    would read that error as a tiny common step.  Values that do not embed
    in a reasonable uniform axis raise GridNotAdapted.
    """
    _, gv = _eval_objective("0", tuple(g_exprs), ygrid)
    axes = []
    for i in range(gv.shape[0]):
        vals = sorted_distinct(gv[i])
        lo, hi = float(vals[0]), float(vals[-1])
        if vals.size == 1:
            axes.append(Axis(lo, lo + 1.0, 2))
            continue
        tol = TOL * max(1.0, abs(lo), abs(hi))
        step = _float_gcd(np.diff(vals), tol)
        if step <= tol:
            raise GridNotAdapted(
                f"constraint {i} produces values with no usable common step"
            )
        count = int(round((hi - lo) / step)) + 1
        if count > MAX_ADAPTED_COUNT:
            raise GridNotAdapted(
                f"constraint {i} needs {count} x-nodes to stay graph-adapted"
            )
        axis = Axis(lo, hi, count)
        coords = axis.coords()
        j = np.clip(np.round((vals - lo) / axis.step).astype(int), 0, count - 1)
        if np.abs(coords[j] - vals).max() > tol:
            raise GridNotAdapted(f"constraint {i} values miss the adapted lattice")
        axes.append(axis)
    return Grid(tuple(axes))


def _conjugate_at_neg(
    f_expr: str, g_exprs: tuple[str, ...], ygrid: Grid, xgrid: Grid, lam: np.ndarray
) -> np.ndarray:
    """mu*(-lambda) per lambda row, for the perturbation problem on xgrid:
    the objective does not depend on x, so mu(x) is the least f over F(x)."""
    fv, _ = _eval_objective(f_expr, g_exprs, ygrid)
    F = map_from_inequalities(list(g_exprs), xgrid, ygrid)
    mu = np.where(F.graph, fv, INF).min(axis=1)
    return conjugate_at(GriddedFunction(xgrid, mu), -lam)


class LagrangianIdentityReport(NamedTuple):
    rows: tuple[tuple[tuple[float, ...], float, float, str, bool], ...]
    xgrid: Grid
    verdicts: tuple[Verdict, ...]


def lagrangian_identity_check(
    f_expr: str,
    g_exprs: tuple[str, ...] | list[str],
    ygrid: Grid,
    lambda_grid: Grid,
) -> LagrangianIdentityReport:
    """mu*(-lambda) = -Lhat(lambda) on the graph-adapted grid, per lambda node.

    Nonnegative lambda rows must match within tolerance.  Rows with a
    negative component follow the '+inf' convention branch: the check
    extends every x-axis by one upper node and flags the row when
    mu*(-lambda) strictly grows, the finite signature of divergence.  One
    verdict row per branch, INFO when no lambda node falls in it.
    """
    g_exprs = tuple(g_exprs)
    table = lagrangian_dual(f_expr, g_exprs, ygrid, lambda_grid)
    xgrid = graph_adapted_xgrid(g_exprs, ygrid)
    lam = np.asarray([list(row) for row in table.lambdas])
    mustar = _conjugate_at_neg(f_expr, g_exprs, ygrid, xgrid, lam)

    mustar_ext = None
    if any(table.expected_infinite):
        ext_axes = tuple(
            Axis(ax.lo, ax.hi + ax.step, ax.count + 1) for ax in xgrid.axes
        )
        mustar_ext = _conjugate_at_neg(f_expr, g_exprs, ygrid, Grid(ext_axes), lam)

    rows = []
    for i, lrow in enumerate(table.lambdas):
        if table.expected_infinite[i]:
            grew = bool(mustar_ext[i] > mustar[i] + ROUNDING_TOL)
            rows.append((lrow, table.values[i], float(mustar[i]), "divergent", grew))
        else:
            match = bool(abs(mustar[i] + table.values[i]) <= TOL)
            rows.append((lrow, table.values[i], float(mustar[i]), "identity", match))
    verdicts = []
    for name, branch, side in (("lagrange_dual_identity", "identity", ">="),
                               ("lagrange_negative_probe", "divergent", "<")):
        oks = [r[4] for r in rows if r[3] == branch]
        detail = f"{len(oks)} lambda nodes {side} 0"
        verdicts.append(Verdict(name, all(oks) if oks else None, detail))
    return LagrangianIdentityReport(tuple(rows), xgrid, tuple(verdicts))


def _one_constraint_dual_value(fv: np.ndarray, g: np.ndarray) -> float:
    """max over lambda >= 0 of min_j f_j + lambda g_j, exactly; g < 0 somewhere.

    Its LP dual is min sum w f over w >= 0, sum w = 1, sum w g <= 0, and by
    Caratheodory an optimum sits on at most two nodes: one node with
    g <= 0, or the mix of g_i < 0 < g_j that makes sum w g = 0, of value
    (f_i g_j - f_j g_i) / (g_j - g_i).  Pairs are scanned in `score_slices`
    blocks of about `conjugate._BLOCK_CAP` entries; each pair's value is
    computed alone, so the block size moves no bit.
    """
    vd = float(fv[g <= 0].min())
    fn, gn = fv[g < 0], g[g < 0]
    fp, gp = fv[g > 0, None], g[g > 0, None]
    for sl in score_slices(fp.shape[0], fn.size):
        vd = min(vd, float(((fn * gp[sl] - fp[sl] * gn) / (gp[sl] - gn)).min()))
    return vd


class SlaterReport(NamedTuple):
    verified: bool
    slater_node: tuple[float, ...] | None
    vp: float
    vd: float
    gap: float
    verdicts: tuple[Verdict, ...]


def slater_strong_duality_check(
    f_expr: str,
    g_exprs: tuple[str, ...] | list[str],
    ygrid: Grid,
    hypothesis: bool = False,
) -> SlaterReport:
    """Slater point on the grid, then V_p = V_d for the Lagrangian pair.

    V_p minimizes f over nodes with g <= 0; V_d maximizes the Lagrangian
    dual over continuous lambda >= 0.  With one constraint V_d is exact
    (`_one_constraint_dual_value`, no LP); with several it comes from one
    LP.  Without a strictly feasible node the equality is left unverified,
    not failed.  The row binds only when the instance declares the
    hypothesis (Slater and convex).
    """
    g_exprs = tuple(g_exprs)
    fv, gv = _eval_objective(f_expr, g_exprs, ygrid)
    strict = (gv < -TOL).all(axis=0)
    if not strict.any():
        why = "no strictly feasible node; Slater unverified"
        row = Verdict("slater_strong_duality", None, why)
        return SlaterReport(False, None, float("nan"), float("nan"), float("nan"), (row,))
    node = int(np.flatnonzero(strict)[0])
    feas = (gv <= TOL).all(axis=0)
    vp = float(fv[feas].min()) if feas.any() else INF

    k = gv.shape[0]
    if k == 1:
        vd = _one_constraint_dual_value(fv, gv[0])
    else:
        A = np.hstack([np.ones((fv.size, 1)), -gv.T])
        c = np.zeros(k + 1)
        c[0] = -1.0
        res = linprog(
            c=c,
            A_ub=A,
            b_ub=fv,
            bounds=[(None, None)] + [(0, None)] * k,
            method="highs",
        )
        # never unbounded: the strictly feasible node bounds the objective
        if res.status != 0:
            raise MarginlabError(f"LP solver failed on the Lagrangian dual: {res.message}")
        vd = float(res.x[0])
    gap = _gap(vp, vd)
    row = Verdict("slater_strong_duality", bool(abs(gap) <= TOL) if hypothesis else None,
                  "Slater node found; equality asserted")
    return SlaterReport(True, tuple(float(v) for v in ygrid.coords(node)), vp, vd, gap, (row,))
