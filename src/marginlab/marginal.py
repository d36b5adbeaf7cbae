"""Optimal value (marginal) functions mu(x) = inf {phi(x,y) : y in F(x)}.

Infima are exact minima over the finite y-grid, so mu(x) is +inf exactly
when F(x) meets no finite phi(x, .) node, -inf exactly when some feasible
phi value is -inf, and attained otherwise.  Alongside the construction the
module carries the structural checks that relate mu to phi and F: domain
identity, strict-epigraph projection, midpoint convexity, semicontinuity
probes under refinement, and the global Lipschitz bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol, Sequence

import numpy as np

from .conjugate import score_slices
from .core import INF, TOL, GriddedFunction, Verdict, ext_add_arrays, product_grid
from .errors import GridMismatch, NotFiniteAtPoint
from .setmap import SetValuedMap

if TYPE_CHECKING:
    from .tables import Tables

ATTAINED = "attained"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

PROBE_LEVELS = 3  # dyadic refinements 1, 2, 4 scanned by semicontinuity_probe
_GAP_TOL = 1e-6


class MarginalResult(NamedTuple):
    """mu on the x-grid plus per-node minimizer lists and status labels."""

    mu: GriddedFunction
    argmin: tuple[tuple[int, ...], ...]
    status: tuple[str, ...]


def _check_product(phi: GriddedFunction, F: SetValuedMap) -> None:
    if phi.grid != product_grid(F.xgrid, F.ygrid):
        raise GridMismatch("phi must live on the product of F's x and y grids")


def masked_minima(
    phi: GriddedFunction, F: SetValuedMap
) -> tuple[np.ndarray, np.ndarray]:
    """phi with +inf off gph F, one row per x node, and each row's minimum.

    The minima are mu's values: +inf on rows that meet no finite feasible
    phi value, -inf where some feasible phi value is -inf.
    """
    _check_product(phi, F)
    V = phi.values.reshape(F.xgrid.size, F.ygrid.size)
    masked = np.where(F.graph, V, INF)
    return masked, masked.min(axis=1)


def marginal(phi: GriddedFunction, F: SetValuedMap) -> MarginalResult:
    """Minimize phi(x, .) over F(x) at every x node."""
    masked, mu = masked_minima(phi, F)
    rows, cols = np.nonzero((masked == mu[:, None]) & np.isfinite(mu)[:, None])
    ends = np.searchsorted(rows, np.arange(1, F.xgrid.size + 1)).tolist()
    cols = cols.tolist()
    argmin = tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))
    status = np.where(mu == INF, INFEASIBLE, np.where(mu == -INF, UNBOUNDED, ATTAINED))
    return MarginalResult(
        GriddedFunction(F.xgrid, mu),
        argmin,
        tuple(status.tolist()),
    )


def eta_solutions(
    phi: GriddedFunction, F: SetValuedMap, x, eta: float
) -> np.ndarray:
    """Near-optimal set S_eta(x) = {y in F(x) : phi(x,y) < mu(x) + eta}.

    The inequality is strict; x must have finite mu.  Nonempty for every
    eta > 0 because the minimum is attained on the grid.
    """
    _check_product(phi, F)
    xi = F.xgrid.resolve(x)
    V = phi.values.reshape(F.xgrid.size, F.ygrid.size)
    masked = np.where(F.graph[xi], V[xi], INF)
    mu_x = masked.min()
    if not np.isfinite(mu_x):
        raise NotFiniteAtPoint(f"mu is not finite at x node {xi}")
    return np.flatnonzero(masked < mu_x + eta)


def domain_identity_check(tables: Tables) -> tuple[bool, int | None]:
    """dom mu == projection of (dom phi intersect gph F) onto x, exactly.

    An x row meets dom phi on the graph exactly when its graph-row minimum
    (the store's `graph_minima`) is below +inf.  Returns (ok, witness flat
    x index of the first discrepancy).
    """
    lhs = tables.mu.dom_mask
    rhs = tables.graph_minima < INF
    if bool((lhs == rhs).all()):
        return True, None
    return False, int(np.flatnonzero(lhs != rhs)[0])


class EpigraphReport(NamedTuple):
    ok: bool
    checked: int
    violations: tuple[tuple[float, int, str], ...]  # (lambda, x index, kind)


def epigraph_projection_check(tables: Tables, lambdas: Sequence[float]) -> EpigraphReport:
    """Strict-epigraph identity and epigraph chain at sampled levels.

    For each level lam and x node: mu(x) < lam iff some y in F(x) has
    phi(x,y) < lam (exact); and the non-strict chain
    (exists y in F(x): phi <= lam)  implies  mu(x) <= lam, while
    mu(x) < lam implies the former.  mu comes from the store, and so does
    the graph-row minimum m(x): some y in F(x) has phi(x,y) < lam exactly
    when m(x) < lam, and phi(x,y) <= lam exactly when m(x) <= lam, except
    at lam = +inf on a row with no cells, whose m(x) is +inf too; there the
    projection is dom F.
    """
    mu, m = tables.mu.values, tables.graph_minima
    violations: list[tuple[float, int, str]] = []
    checked = 0
    for lam in lambdas:
        strict_proj = m < lam
        loose_proj = m <= lam
        if lam == INF:
            loose_proj &= tables.F.dom_mask
        strict_epi = mu < lam
        loose_epi = mu <= lam
        checked += strict_epi.shape[0]
        for i in np.flatnonzero(strict_epi != strict_proj):
            violations.append((float(lam), int(i), "strict-identity"))
        for i in np.flatnonzero(strict_epi & ~loose_proj):
            violations.append((float(lam), int(i), "chain-lower"))
        for i in np.flatnonzero(loose_proj & ~loose_epi):
            violations.append((float(lam), int(i), "chain-upper"))
    return EpigraphReport(not violations, checked, tuple(violations))


def convexity_check(f: GriddedFunction) -> tuple[bool, tuple[int, int, int] | None]:
    """Midpoint convexity over every node pair whose midpoint is a node.

    f(mid) <= (f(x) + f(u)) / 2 within TOL under the lower-addition
    conventions; returns (ok, witness (i, j, mid) flat indices) with the
    first failing pair i < j in (i, j) order.  The midpoint of nodes i and
    j is a node exactly when their multi-indices agree in parity on every
    axis, and then its flat index is (i + j) / 2, since the flat index is
    linear in the multi-index.  The pairs are scored in `score_slices`
    blocks of i rows, at 3 entries per (i, j): the parity and order masks
    and their conjunction, and at most two indices of a nonzero pair.
    """
    n = f.grid.size
    flat = np.arange(n)
    parity = sum((k % 2) << a for a, k in enumerate(np.unravel_index(flat, f.grid.shape)))
    v = f.values
    for sl in score_slices(n, 3 * n):
        i, j = np.nonzero((parity[sl, None] == parity) & (flat[sl, None] < flat))
        i += sl.start
        mid = (i + j) // 2
        bad = np.flatnonzero(~(v[mid] <= ext_add_arrays(0.5 * v[i], 0.5 * v[j]) + TOL))
        if bad.size:
            k = bad[0]
            return False, (int(i[k]), int(j[k]), int(mid[k]))
    return True, None


def _level_probe(mu: GriddedFunction) -> np.ndarray:
    """Nine levels from 0.5 below to 0.5 above the finite range of mu."""
    fin = mu.values[np.isfinite(mu.values)]
    return np.linspace(fin.min() - 0.5, fin.max() + 0.5, 9) if fin.size else np.zeros(1)


class StructureReport(NamedTuple):
    domain_witness: int | None
    epigraph: EpigraphReport
    mu_convex: bool
    convexity_witness: tuple[int, int, int] | None
    verdicts: tuple[Verdict, ...]


def marginal_structure_check(tables: Tables, convex: bool = False) -> StructureReport:
    """Domain identity, strict-epigraph projection at nine levels bracketing
    mu's finite range, and midpoint convexity of mu, whose row binds only
    when the instance declares mu convex."""
    domain_ok, domain_witness = domain_identity_check(tables)
    epi = epigraph_projection_check(tables, _level_probe(tables.mu))
    mu_convex, convexity_witness = convexity_check(tables.mu)
    verdicts = (
        Verdict("domain_identity", domain_ok),
        Verdict("epigraph_projection", epi.ok, f"{epi.checked} level-node checks"),
        Verdict("mu_convex", bool(mu_convex) if convex else None,
                "declared convex" if convex else "informational"),
    )
    return StructureReport(domain_witness, epi, bool(mu_convex), convexity_witness, verdicts)


class RebuildableProblem(Protocol):
    """Anything that can re-instantiate (phi, F) at a refinement factor."""

    def build(self, factor: int) -> tuple[GriddedFunction, SetValuedMap]: ...


class ProbeLevel(NamedTuple):
    factor: int
    cell: float
    nbhd_min: float
    nbhd_max: float


class SemicontinuityReport(NamedTuple):
    mu_at_x0: float
    levels: tuple[ProbeLevel, ...]
    lsc_consistent: bool
    usc_consistent: bool


def _gaps_consistent(gaps: Sequence[float]) -> bool:
    monotone = all(g2 <= g1 + _GAP_TOL for g1, g2 in zip(gaps, gaps[1:]))
    settled = gaps[-1] <= _GAP_TOL or gaps[-1] <= 0.5 * gaps[0] + _GAP_TOL
    return monotone and settled


def semicontinuity_probe(
    problem: RebuildableProblem, x0: Sequence[float]
) -> SemicontinuityReport:
    """Neighborhood min/max of mu around x0 across dyadic refinements.

    At level k < PROBE_LEVELS the problem is rebuilt at factor 2**k and mu
    is scanned over the one-cell node neighborhood of x0 (which persists on
    refined grids).  With gap_min = mu(x0) - min and gap_max = max - mu(x0),
    a side is consistent when its gaps shrink monotonically (1e-6 slack)
    and either end below 1e-6 or at most half the initial gap.
    """
    stats: list[ProbeLevel] = []
    mu_x0 = None
    for k in range(PROBE_LEVELS):
        factor = 2**k
        phi, F = problem.build(factor)
        res = marginal(phi, F)
        xi = F.xgrid.index_of(x0)
        if k == 0:
            mu_x0 = float(res.mu.values[xi])
            if not np.isfinite(mu_x0):
                raise NotFiniteAtPoint(f"mu is not finite at x0 = {list(x0)}")
        multi = np.array(F.xgrid.multi(xi))
        offsets = np.stack(
            np.meshgrid(*([np.array([-1, 0, 1])] * F.xgrid.dim), indexing="ij"),
            axis=-1,
        ).reshape(-1, F.xgrid.dim)
        nbrs = multi + offsets
        inside = ((nbrs >= 0) & (nbrs < np.array(F.xgrid.shape))).all(axis=1)
        flat = np.ravel_multi_index(nbrs[inside].T, F.xgrid.shape)
        vals = res.mu.values[flat]
        stats.append(
            ProbeLevel(
                factor,
                max(a.step for a in F.xgrid.axes),
                float(vals.min()),
                float(vals.max()),
            )
        )
    assert mu_x0 is not None
    gaps_min = [mu_x0 - s.nbhd_min for s in stats]
    gaps_max = [s.nbhd_max - mu_x0 for s in stats]
    return SemicontinuityReport(
        mu_x0,
        tuple(stats),
        _gaps_consistent(gaps_min),
        _gaps_consistent(gaps_max),
    )


class LipschitzReport(NamedTuple):
    l_hat: float
    bound: float
    ok: bool
    witness: tuple[int, int] | None = None


def lipschitz_probe(
    mu: GriddedFunction, ell_phi: float, ell_F: float
) -> LipschitzReport:
    """Check the global estimate L_hat <= ell_F * ell_phi + ell_phi.

    L_hat is the max sum-norm difference quotient of mu over finite node
    pairs; the bound is the product/sum of the supplied moduli of phi and
    F.  Tolerance TOL.
    """
    finite = np.flatnonzero(mu.finite_mask)
    X = mu.grid.nodes
    l_hat = 0.0
    witness = None
    for a in range(finite.size):
        i = finite[a]
        js = finite[a + 1 :]
        if js.size == 0:
            continue
        num = np.abs(mu.values[js] - mu.values[i])
        den = np.abs(X[js] - X[i]).sum(axis=1)
        q = num / den
        k = int(q.argmax())
        if q[k] > l_hat:
            l_hat = float(q[k])
            witness = (int(i), int(js[k]))
    bound = ell_F * ell_phi + ell_phi
    return LipschitzReport(l_hat, bound, l_hat <= bound + TOL, witness)
