"""Epsilon-subdifferentials, normal cones, coderivatives, and their calculus.

On a finite grid the eps-subdifferential of f at a node x0 is the
H-polyhedron with one halfspace <x - x0, s> <= f(x) - f(x0) + eps per node
x != x0 with finite f(x); +inf nodes impose nothing and any -inf node
forces the canonical empty polyhedron.  Membership is a tolerance-1e-9
halfspace scan; emptiness in dimension <= 3 is an LP feasibility question
whose infeasibility certificates (<= d+1 constraints, by Helly) come from
the Farkas dual.  In dimension 1 emptiness, feasible points and Minkowski
membership are exact interval arithmetic.  In dimension 2 Minkowski
membership is exact too: each polygon is built once by half-plane
intersection and the sum is read off support functions (`_polygon`).
Emptiness and feasible points for d >= 2 and Minkowski membership for
d = 3 solve LPs, and scipy is imported on the first LP a run solves
(`linprog` below).

The theorem verifiers at the bottom check the upper subdifferential
formula for marginal functions and the formula for subgradients of the
conjugate.  Both keep two independent routes: the left side is a halfspace
polyhedron of the gridded mu (or mu*), the right side is scanned through
exact conjugate tables via the finite-grid Fenchel-Young identity.  The
marginal check scores each near-optimal y0 once for all eta levels and
builds a coderivative score only where the phi score passes the loosest
split.  The conjugate check enumerates candidates from the summed score:
at a graph cell (x, y) and lattice pair (x1*, y*) the phi score m1 and the
coderivative score cod add up to (phi* + sigma_gph)(x1*, y*) +
phi(x, y) - <x, x0*>, a table entry plus a per-cell offset, and both are
nonnegative.  Every split has e1 + e2 = eps + eta, so only the pairs whose
table entry lies under the largest eps + eta + 2 TOL (plus a rounding
margin) minus the cell's offset can pass; one sorted table and one binary
search per cell list them.  `_split_bound` then tests all of a level's
splits with one comparison per score.  The unpruned route stays in the
tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .conjugate import (
    conjugate,
    conjugate_at,
    default_dual_grid,
    default_ydual_grid,
    partial_conjugate,
    score_slices,
)
from .core import (
    INF,
    Grid,
    GriddedFunction,
    ext_sum,
    max_deviation,
)
from .errors import (
    GridMismatch,
    NotFiniteAtPoint,
    NotOnGraph,
    PointNotInSet,
    UnsupportedDimension,
)
from .marginal import marginal
from .nearconvex import box_dilate
from .setmap import SetValuedMap, graph_support, split_lattice

TOL = 1e-9
SUM_RULE_SPLITS = 5  # eps1 + eps2 = eps splits sampled by sum_rule_check


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Importing scipy.optimize costs more than most runs compute, and only
    emptiness and feasible points of d >= 2 polyhedra, d = 3 Minkowski
    membership and multi-constraint Lagrangian duals need an LP.
    Every LP in the package goes through this one binding.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


# --- polyhedra ---------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A 1-D solution interval; empty when lo exceeds hi beyond tolerance."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi + TOL

    def contains(self, s: float) -> bool:
        return self.lo - TOL <= s <= self.hi + TOL


@dataclass(frozen=True)
class HPolyhedron:
    """{s : <a_i, s> <= b_i for all i}; redundant halfspaces are kept."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.normals, dtype=np.float64))
        b = np.asarray(self.offsets, dtype=np.float64).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError("normals and offsets disagree in length")
        A = A.copy()
        b = b.copy()
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "normals", A)
        object.__setattr__(self, "offsets", b)

    @classmethod
    def empty(cls, dim: int) -> "HPolyhedron":
        """Canonical empty polyhedron: 0 . s <= -1."""
        return cls(np.zeros((1, dim)), np.array([-1.0]))

    @classmethod
    def whole_space(cls, dim: int) -> "HPolyhedron":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_halfspaces(self) -> int:
        return self.normals.shape[0]

    def contains(self, points) -> np.ndarray | bool:
        """Membership within tolerance 1e-9, vectorized over point rows."""
        pts = np.asarray(points, dtype=np.float64)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        ok = (pts @ self.normals.T <= self.offsets + TOL).all(axis=1)
        return bool(ok[0]) if single else ok

    def interval(self) -> Interval:
        """Exact solution interval; dimension 1 only."""
        if self.dim != 1:
            raise UnsupportedDimension("interval form needs a 1-D polyhedron")
        a = self.normals[:, 0]
        b = self.offsets
        zero = a == 0.0
        if (b[zero] < -TOL).any():
            return Interval(INF, -INF)
        pos = a > 0.0
        neg = a < 0.0
        hi = float((b[pos] / a[pos]).min()) if pos.any() else INF
        lo = float((b[neg] / a[neg]).max()) if neg.any() else -INF
        return Interval(lo, hi)


def _farkas(A: np.ndarray, b: np.ndarray) -> tuple[bool, list[int] | None]:
    """Feasibility of A s <= b via the normalized Farkas alternative.

    Returns (feasible, support): when infeasible, `support` indexes a
    nonnegative combination lam with lam^T A = 0 and lam^T b < 0, taken
    from a basic LP solution so it has at most d+1 entries.
    """
    if A.shape[0] == 0:
        return True, None
    A_eq = np.vstack([A.T, np.ones((1, A.shape[0]))])
    b_eq = np.concatenate([np.zeros(A.shape[1]), [1.0]])
    res = linprog(
        c=b,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * A.shape[0],
        method="highs-ds",
    )
    if res.status == 2:
        return True, None
    if res.status != 0:
        raise RuntimeError(f"LP solver failed on the Farkas system: {res.message}")
    if res.fun < -TOL:
        return False, [int(i) for i in np.flatnonzero(res.x > TOL)]
    return True, None


def _reduce_certificate(A: np.ndarray, b: np.ndarray, support: list[int]) -> list[int]:
    """Greedy irreducibility: drop constraints while staying infeasible.

    Helly's theorem makes every irreducible infeasible halfspace system in
    R^d have at most d+1 members, so this terminates at the contract size.
    """
    idx = list(support)
    shrinking = True
    while shrinking and len(idx) > A.shape[1] + 1:
        shrinking = False
        for i in list(idx):
            trial = [j for j in idx if j != i]
            feasible, sub = _farkas(A[trial], b[trial])
            if not feasible:
                idx = [trial[k] for k in sub] if sub and len(sub) < len(trial) else trial
                shrinking = True
                break
    return idx


# --- polygons ------------------------------------------------------------------

_PARALLEL = 1e-12  # unit normals this close in angle (radians) are one direction


def _polygon(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """{s : A s <= b} in the plane as (points, unit rays); None when empty.

    Half-plane intersection in O(n log n) through envelopes: the rows
    bounding s_2 from above give the concave envelope g = min of lines, the
    rows bounding it from below the convex envelope l = max of lines, and
    the rows with no s_2 component bound s_1 to [xl, xr].  The set is the
    part of that strip where l <= g; g - l is concave, so it is one interval
    in s_1, found from the values at the breakpoints and the slopes of the
    two tails.  The points are the corners on each envelope over that
    interval plus one more point on each envelope, so that a set without
    corners (a half-plane, a strip) still has one; the rays generate the
    recession cone.  The support function is then +inf at a with
    <a, r> > 0 for some ray r, and the largest <a, v> over the points
    otherwise.  Normals within _PARALLEL of one direction count as one,
    keeping only the tightest, so no corner is computed from two nearly
    parallel lines.
    """
    zero = ~A.any(axis=1)
    if (b[zero] < 0.0).any():
        return None
    norms = np.hypot(A[~zero, 0], A[~zero, 1])
    U = A[~zero] / norms[:, None]
    c = b[~zero] / norms
    theta = np.arctan2(U[:, 1], U[:, 0])
    order = np.lexsort((c, theta))
    U, c, theta = U[order], c[order], theta[order]
    run = np.cumsum(np.diff(theta, prepend=theta[:1]) > _PARALLEL)
    first = np.lexsort((c, run))
    keep = first[np.diff(run[first], prepend=-1) > 0]
    U, c = U[keep], c[keep]

    flat = np.abs(U[:, 1]) <= _PARALLEL  # rows that bound s_1 alone
    left, right = flat & (U[:, 0] < 0.0), flat & (U[:, 0] > 0.0)
    xl = float(max(c[left] / U[left, 0], default=-INF))
    xr = float(min(c[right] / U[right, 0], default=INF))
    if xl > xr:
        return None
    envelopes = []  # (sign, slopes, intercepts, breakpoints): sign * s_2 <= sign * E(s_1)
    for sign, rows in ((1.0, U[:, 1] > _PARALLEL), (-1.0, U[:, 1] < -_PARALLEL)):
        if rows.any():
            slopes, intercepts = -U[rows, 0] / U[rows, 1], c[rows] / U[rows, 1]
            p, q, bx = _min_envelope(sign * slopes, sign * intercepts)
            envelopes.append((sign, sign * p, sign * q, bx))

    lo, hi = xl, xr
    if len(envelopes) == 2:
        (_, pg, qg, bg), (_, pl, ql, bl) = envelopes
        knots = np.concatenate([bg, bl, [xl, xr, min(max(0.0, xl), xr)]])
        knots = np.unique(knots[np.isfinite(knots) & (knots >= xl) & (knots <= xr)])
        d = _evaluate(pg, qg, bg, knots) - _evaluate(pl, ql, bl, knots)
        s_lo, s_hi = pg[0] - pl[0], pg[-1] - pl[-1]  # slopes of g - l on the tails
        up = np.flatnonzero(d >= 0.0)
        if up.size:
            i, j = up[0], up[-1]
            if i > 0:
                lo = _crossing(knots[i - 1], d[i - 1], knots[i], d[i])
            elif s_lo > 0.0:
                lo = max(xl, knots[0] - d[0] / s_lo)
            if j < knots.size - 1:
                hi = _crossing(knots[j], d[j], knots[j + 1], d[j + 1])
            elif s_hi < 0.0:
                hi = min(xr, knots[-1] - d[-1] / s_hi)
        elif xl == -INF and s_lo < 0.0:
            hi = knots[0] - d[0] / s_lo
        elif xr == INF and s_hi > 0.0:
            lo = knots[-1] - d[-1] / s_hi
        else:
            return None

    xs = np.array([x for x in (lo, hi, min(max(0.0, lo), hi)) if np.isfinite(x)])
    points, rays = [], []
    for sign, p, q, bx in envelopes:
        x = np.concatenate([xs, bx[(bx > lo) & (bx < hi)]])
        points.append(np.stack([x, _evaluate(p, q, bx, x)], axis=1))
        if lo == -INF:
            rays.append([-1.0, -p[0]])
        if hi == INF:
            rays.append([1.0, p[-1]])
    if not envelopes:
        points.append(np.stack([xs, np.zeros_like(xs)], axis=1))
        rays += [[-1.0, 0.0]] if lo == -INF else []
        rays += [[1.0, 0.0]] if hi == INF else []
    signs = {e[0] for e in envelopes}
    rays += [[0.0, sign] for sign in (1.0, -1.0) if sign not in signs]  # unbounded in s_2
    R = np.array(rays).reshape(-1, 2)
    return np.vstack(points), R / np.hypot(R[:, 0], R[:, 1])[:, None]


def _min_envelope(p: np.ndarray, q: np.ndarray):
    """Lines of x -> min_i p_i x + q_i from left to right, and their breakpoints."""
    hull: list[int] = []
    for i in np.lexsort((q, -p)):  # steepest first; the lowest of equal slopes
        if hull and p[hull[-1]] == p[i]:
            continue
        while len(hull) >= 2:
            a, m = hull[-2], hull[-1]
            # m never attains the min if i overtakes a no later than m does
            if (q[i] - q[a]) * (p[a] - p[m]) > (q[m] - q[a]) * (p[a] - p[i]):
                break
            hull.pop()
        hull.append(i)
    h = np.array(hull)
    return p[h], q[h], (q[h[1:]] - q[h[:-1]]) / (p[h[:-1]] - p[h[1:]])


def _evaluate(p, q, bx, x):
    """The envelope with slopes p, intercepts q and breakpoints bx at x."""
    k = np.searchsorted(bx, x)
    return p[k] * x + q[k]


def _crossing(x0, d0, x1, d1):
    """Zero of the segment from (x0, d0) to (x1, d1), whose ends differ in sign."""
    return x0 + (x1 - x0) * (d0 / (d0 - d1))


def _support(V: np.ndarray, R: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Support function of conv(V) + cone(R) at each normal row."""
    h = (normals @ V.T).max(axis=1)
    if R.shape[0]:
        lens = np.hypot(normals[:, 0], normals[:, 1])
        h[(normals @ R.T > _PARALLEL * lens[:, None]).any(axis=1)] = INF
    return h


def is_empty(P: HPolyhedron) -> tuple[bool, tuple[int, ...] | None]:
    """Emptiness with a certificate of <= d+1 constraints; d <= 3 only."""
    if P.dim > 3:
        raise UnsupportedDimension("emptiness queries are limited to d <= 3")
    if P.dim == 1:
        iv = P.interval()
        if not iv.empty:
            return False, None
        a = P.normals[:, 0]
        b = P.offsets
        zero_bad = np.flatnonzero((a == 0.0) & (b < -TOL))
        if zero_bad.size:
            return True, (int(zero_bad[0]),)
        i_lo = int(np.flatnonzero(a < 0)[np.argmax(b[a < 0] / a[a < 0])])
        i_hi = int(np.flatnonzero(a > 0)[np.argmin(b[a > 0] / a[a > 0])])
        return True, (i_lo, i_hi)
    feasible, support = _farkas(P.normals, P.offsets)
    if feasible:
        return False, None
    cert = _reduce_certificate(P.normals, P.offsets, support or [])
    return True, tuple(sorted(cert))


def feasible_point(P: HPolyhedron) -> np.ndarray | None:
    """A deterministic point of P, or None when P is empty.

    1-D uses the exact interval (midpoint; finite endpoint of a half-line;
    origin for the whole line).  Higher dimensions take the Chebyshev-like
    center of the box-clipped polyhedron from one LP solve.
    """
    if P.dim == 1:
        iv = P.interval()
        if iv.empty:
            return None
        if np.isfinite(iv.lo) and np.isfinite(iv.hi):
            return np.array([(iv.lo + iv.hi) / 2.0])
        if np.isfinite(iv.lo):
            return np.array([iv.lo])
        if np.isfinite(iv.hi):
            return np.array([iv.hi])
        return np.array([0.0])
    norms = np.linalg.norm(P.normals, axis=1)
    A = np.hstack([P.normals, norms[:, None]])
    c = np.zeros(P.dim + 1)
    c[-1] = -1.0
    res = linprog(
        c=c,
        A_ub=A,
        b_ub=P.offsets,
        bounds=[(-1e6, 1e6)] * P.dim + [(0, 1)],
        method="highs-ds",
    )
    if res.status != 0:
        return None
    return res.x[: P.dim].copy()


# --- the eps-calculus objects --------------------------------------------------


def _check_eps(eps: float) -> None:
    if not 0 <= eps < INF:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")


def eps_subdifferential(f: GriddedFunction, x0, eps: float) -> HPolyhedron:
    """Polyhedral eps-subdifferential of a gridded f at the node x0.

    x0 outside the finite domain yields the canonical empty polyhedron, as
    does any -inf node anywhere in f.
    """
    _check_eps(eps)
    xi = f.grid.resolve(x0)
    f0 = f.values[xi]
    if not np.isfinite(f0) or (f.values == -INF).any():
        return HPolyhedron.empty(f.grid.dim)
    sel = f.dom_mask.copy()
    sel[xi] = False
    A = f.grid.nodes[sel] - f.grid.coords(xi)
    b = f.values[sel] - f0 + eps
    return HPolyhedron(A.reshape(-1, f.grid.dim), b)


def eps_normal_cone(points, x0, eps: float) -> HPolyhedron:
    """eps-normal cone to a finite point set at a member point x0."""
    _check_eps(eps)
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if P.shape[1] != x0.shape[0]:
        raise PointNotInSet("x0 and the point set disagree in dimension")
    if not (np.abs(P - x0).max(axis=1) <= TOL).any():
        raise PointNotInSet(f"{x0.tolist()} is not a member of the point set")
    return HPolyhedron(P - x0, np.full(P.shape[0], float(eps)))


def eps_coderivative(F: SetValuedMap, x0y0, ystar, eps: float) -> HPolyhedron:
    """eps-coderivative D*_eps F(x0, y0)(y*) as a polyhedron in x*-space.

    x* is a member iff (x*, -y*) lies in the eps-normal cone to the graph
    at (x0, y0); the halfspaces are <x - x0, x*> <= eps + <y*, y - y0> over
    all graph nodes (x, y).
    """
    _check_eps(eps)
    x0, y0 = x0y0
    xi = F.xgrid.resolve(x0)
    yi = F.ygrid.resolve(y0)
    if not F.contains(xi, yi):
        raise NotOnGraph(f"(x node {xi}, y node {yi}) is not on the graph")
    gx, gy = F.graph_cells
    ystar = np.asarray(ystar, dtype=np.float64).reshape(-1)
    A = F.xgrid.nodes[gx] - F.xgrid.coords(xi)
    b = eps + (F.ygrid.nodes[gy] - F.ygrid.coords(yi)) @ ystar
    return HPolyhedron(A, b)


# --- sum rule -------------------------------------------------------------------


def _split_pairs(total: float, count: int) -> list[tuple[float, float]]:
    if total <= 0.0:
        return [(0.0, 0.0)]
    t = np.linspace(0.0, total, count)
    return [(float(a), float(total - a)) for a in t]


def _split_bound(m1: np.ndarray, splits) -> np.ndarray:
    """Per score m1, the largest e2 + TOL over the splits with m1 <= e1 + TOL.

    NaN where no split admits m1 (NaN and +inf scores among them), so that
    `cod <= _split_bound(m1, splits)` holds exactly when some split (e1, e2)
    passes both m1 <= e1 + TOL and cod <= e2 + TOL: the same comparisons on
    the same floats, one split per score instead of all of them.
    """
    e1 = np.array([a + TOL for a, _ in splits])
    order = np.argsort(e1)
    e2 = np.array([b + TOL for _, b in splits])[order]
    best = np.append(np.maximum.accumulate(e2[::-1])[::-1], np.nan)
    return best[np.searchsorted(e1[order], m1, side="left")]


def _finite_max(a) -> float:
    """Largest finite |a|, 0.0 when there is none."""
    a = np.abs(np.asarray(a, dtype=np.float64))
    return float(a[np.isfinite(a)].max(initial=0.0))


def _minkowski_contains(P: HPolyhedron, Q: HPolyhedron, points: np.ndarray) -> np.ndarray:
    """Membership of each point in P_TOL + Q_TOL, the sum of the loosened sets.

    P_TOL = {A s <= b + TOL} is the system the Farkas LP sees.  1-D adds the
    two exact intervals.  2-D builds both polygons once and, since the edge
    normals of a sum of polygons lie among those of its terms, tests every
    point at once against <a, s> <= h_P(a) + h_Q(a) over the normals a of
    P and Q.  Above dimension 2 it solves one LP per point.
    """
    if P.dim == 1:
        ip, iq = P.interval(), Q.interval()
        if ip.empty or iq.empty:
            return np.zeros(points.shape[0], dtype=bool)
        lo, hi = ip.lo + iq.lo, ip.hi + iq.hi
        s = points[:, 0]
        return (s >= lo - TOL) & (s <= hi + TOL)
    if P.dim == 2:
        gp = _polygon(P.normals, P.offsets + TOL)
        gq = _polygon(Q.normals, Q.offsets + TOL)
        if gp is None or gq is None:
            return np.zeros(points.shape[0], dtype=bool)
        A = np.vstack([P.normals, Q.normals])
        h = _support(*gp, A) + _support(*gq, A)
        return (points @ A.T <= h).all(axis=1)
    out = np.zeros(points.shape[0], dtype=bool)
    A = np.vstack([P.normals, -Q.normals])
    for k, s in enumerate(points):
        b = np.concatenate([P.offsets, Q.offsets - Q.normals @ s])
        out[k] = _farkas(A, b + TOL)[0]
    return out


@dataclass(frozen=True)
class SumRuleReport:
    easy_ok: bool
    agreement: float
    n_samples: int
    disagreements: tuple[tuple[float, ...], ...]
    splits: tuple[tuple[float, float], ...]


def sum_rule_check(
    g1: GriddedFunction,
    g2: GriddedFunction,
    x0,
    eps: float,
    duals: Grid | None = None,
) -> SumRuleReport:
    """Exact sum rule for eps-subdifferentials, scanned at sampled duals.

    The union of Minkowski sums over the sampled eps-splits must sit inside
    the subdifferential of the sum (checked unconditionally); the reverse
    inclusion is reported as an agreement rate, exact for convex data when
    the relevant split is on the lattice.
    """
    if g1.grid != g2.grid:
        raise GridMismatch("sum rule needs both functions on one grid")
    xi = g1.grid.resolve(x0)
    total = ext_sum(g1, g2)
    lhs = eps_subdifferential(total, xi, eps)
    if duals is None:
        duals = default_dual_grid(total, 41 if total.grid.dim == 1 else 9)
    S = duals.nodes
    lhs_mask = lhs.contains(S)
    splits = _split_pairs(eps, SUM_RULE_SPLITS)
    rhs_mask = np.zeros(S.shape[0], dtype=bool)
    for e1, e2 in splits:
        P = eps_subdifferential(g1, xi, e1)
        Q = eps_subdifferential(g2, xi, e2)
        todo = ~rhs_mask
        rhs_mask[todo] = _minkowski_contains(P, Q, S[todo])
    easy_ok = not bool((rhs_mask & ~lhs_mask).any())
    agreement = float((lhs_mask == rhs_mask).mean())
    bad = S[lhs_mask != rhs_mask]
    return SumRuleReport(
        easy_ok,
        agreement,
        S.shape[0],
        tuple(tuple(float(c) for c in row) for row in bad[:16]),
        tuple(splits),
    )


# --- marginal subdifferential formula -------------------------------------------


DEFAULT_ETAS = (1.0, 0.1, 0.01)  # the eta levels both theorem checks intersect over
THEOREM_SPLITS = 9  # eps1 + eps2 = eps + eta splits sampled per eta level


@dataclass(frozen=True)
class TheoremReport:
    """Sampled two-route comparison of a set identity.

    `easy_ok` is the unconditional inclusion (right side inside the
    eta-inflated left side); `agreement` compares both routes at the
    sampled points against the nominal eps; `conditional` records whether
    the instance asserted the qualification the equality needs.
    """

    ok: bool
    easy_ok: bool
    agreement: float
    n_samples: int
    lhs_mask: tuple[bool, ...]
    rhs_mask: tuple[bool, ...]
    disagreements: tuple[int, ...]
    eta_monotone_ok: bool
    conditional: bool
    note: str


_UNASSERTED = "qualification not asserted; only the unconditional inclusion is binding"


def _theorem_report(
    f: GriddedFunction,
    node: int,
    eps: float,
    sample: np.ndarray,
    lhs_mask: np.ndarray,
    levels: Sequence[tuple[float, np.ndarray, np.ndarray]],
    sharp: Callable[[np.ndarray, np.ndarray], bool],
    qc14: bool,
    note: str,
) -> TheoremReport:
    """Fold the per-eta right sides of a two-route check into its report.

    Each level is (eta, found, closed): the sampled points the right route
    finds at that eta, and the same set after any closure.  The right side
    is the intersection of the closed sets.  Unconditionally every found
    point must lie in the (eps+eta)-subdifferential of f at `node`, and the
    closed sets must shrink with eta; `sharp(lhs, rhs)` is the direction
    asserted under the qualification, and `note` says what it asserts.
    """
    rhs_mask = np.ones(sample.shape[0], dtype=bool)
    easy_ok = eta_monotone_ok = True
    prev = None
    for eta, found, closed in levels:
        if found.any():
            inflated = eps_subdifferential(f, node, eps + eta).contains(sample)
            if bool((found & ~inflated).any()):
                easy_ok = False
        if prev is not None and bool((closed & ~prev).any()):
            eta_monotone_ok = False
        prev = closed
        rhs_mask &= closed
    return TheoremReport(
        easy_ok and eta_monotone_ok and (sharp(lhs_mask, rhs_mask) or not qc14),
        easy_ok,
        float((lhs_mask == rhs_mask).mean()),
        int(sample.shape[0]),
        tuple(bool(v) for v in lhs_mask),
        tuple(bool(v) for v in rhs_mask),
        tuple(int(i) for i in np.flatnonzero(lhs_mask != rhs_mask)),
        eta_monotone_ok,
        qc14,
        note if qc14 else _UNASSERTED,
    )


def marginal_subdiff_check(
    phi: GriddedFunction,
    F: SetValuedMap,
    x0,
    eps: float,
    duals: Grid | None = None,
    yduals: Grid | None = None,
    qc14: bool = False,
) -> TheoremReport:
    """Upper estimate of the eps-subdifferential of a marginal function.

    Left route: the halfspace polyhedron of the gridded mu at x0.  Right
    route: intersection over eta of, for every near-optimal y0, the union
    over sampled splits eps1 + eps2 = eps + eta of
    x1* + D*_eps2 F(x0,y0)(y1*) over lattice points (x1*, y1*) in the
    eps1-subdifferential of phi at (x0, y0); memberships are evaluated
    through exact conjugate tables (finite-grid Fenchel-Young), one pass
    over the y0 near-optimal at the largest eta.

    Unconditional direction: every sampled dual in the eta-level right set
    lies in the (eps+eta)-subdifferential of mu.  Two-sided agreement at
    the nominal eps is asserted only when the instance claims the
    qualification (qc14).
    """
    mu = marginal(phi, F).mu
    xi = F.xgrid.resolve(x0)
    mu0 = mu.values[xi]
    if not np.isfinite(mu0):
        raise NotFiniteAtPoint(f"mu is not finite at x node {xi}")
    x0c = F.xgrid.coords(xi)
    m, n = F.xgrid.dim, F.ygrid.dim
    if duals is None:
        duals = default_dual_grid(mu, 41 if m == 1 else 9)
    if yduals is None:
        yduals = default_ydual_grid(phi, m, 41 if n == 1 else 9)
    S = duals.nodes
    Ks = S.shape[0]
    lhs_mask = eps_subdifferential(mu, xi, eps).contains(S)

    Y1 = yduals.nodes
    Kx, Ky = Ks, Y1.shape[0]
    T = split_lattice(S, duals)
    phistar = partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1), F.xgrid.nodes, F.ygrid.nodes, S, Y1
    )
    fsupport = graph_support(F, T, -Y1).reshape(Ks, Kx * Ky)
    TX0 = (T @ x0c).reshape(Ks, Kx)

    phi_row = phi.values.reshape(F.xgrid.size, F.ygrid.size)[xi]
    feas_row = F.graph[xi]
    dots1 = S @ x0c

    # Each near-optimal y0 is scored once for every eta level admitting it,
    # and the coderivative scores only on the (x1*, y*) columns whose
    # phi score passes the loosest split of any level.
    splits = [_split_pairs(eps + eta, THEOREM_SPLITS) for eta in DEFAULT_ETAS]
    e1_top = max(e1 for level in splits for e1, _ in level) + TOL
    near = np.array([feas_row & (phi_row < mu0 + eta) for eta in DEFAULT_ETAS])
    masks = np.ones((len(DEFAULT_ETAS), Ks), dtype=bool)
    for yi in np.flatnonzero(near.any(axis=0)):
        dots2 = Y1 @ F.ygrid.coords(int(yi))
        m1_base = (phistar + phi_row[yi] - dots1[:, None] - dots2[None, :]).reshape(-1)
        cols = np.flatnonzero(m1_base <= e1_top)
        j, k = np.divmod(cols, Ky)
        cod = fsupport[:, cols] - TX0[:, j] + dots2[k]
        for level in np.flatnonzero(near[:, yi]):
            masks[level] &= (cod <= _split_bound(m1_base[cols], splits[level])).any(axis=1)
    levels = [(eta, mask, mask) for eta, mask in zip(DEFAULT_ETAS, masks)]
    return _theorem_report(
        mu,
        xi,
        eps,
        S,
        lhs_mask,
        levels,
        lambda lhs, rhs: bool(np.array_equal(lhs, rhs)),
        qc14,
        "two-sided agreement asserted under the declared qualification",
    )


# --- restricted conjugate identity ----------------------------------------------


@dataclass(frozen=True)
class RestrictedConjugateReport:
    ok: bool
    max_abs_diff: float
    n_duals: int
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]


def restricted_conjugate_check(
    phi: GriddedFunction, F: SetValuedMap, duals: Grid
) -> RestrictedConjugateReport:
    """mu*(x*) equals the conjugate of phi + indicator(gph F) at (x*, 0).

    Both sides are finite maxima over the same point set, so equality is
    exact (bitwise), not merely within tolerance.
    """
    mu = marginal(phi, F).mu
    lhs = conjugate_at(mu, duals.nodes)
    tilde = GriddedFunction(
        phi.grid,
        np.where(F.graph.reshape(-1), phi.values, INF),
        provenance="phi + indicator(gph F)",
    )
    pts = np.hstack([duals.nodes, np.zeros((duals.size, F.ygrid.dim))])
    rhs = conjugate_at(tilde, pts)
    return RestrictedConjugateReport(
        bool(np.array_equal(lhs, rhs)),
        max_deviation(lhs, rhs),
        duals.size,
        tuple(float(v) for v in lhs),
        tuple(float(v) for v in rhs),
    )


# --- subgradients of the conjugate ----------------------------------------------


def conj_subdiff_check(
    phi: GriddedFunction,
    F: SetValuedMap,
    duals: Grid,
    x0star,
    eps: float,
    yduals: Grid | None = None,
    qc14: bool = False,
) -> TheoremReport:
    """Primal-space description of the eps-subdifferential of mu*.

    Left route: halfspace polyhedron of the gridded mu* at the dual node
    x0star, membership scanned over the primal x nodes.  Right route: for
    each eta, the x nodes admitting y in F(x), a sampled split
    eps1 + eps2 = eps + eta, and a lattice pair (x1*, y1*) in the
    eps1-subdifferential of phi at (x, y) with
    x0star - x1* in D*_eps2 F(x,y)(y1*), scored once per graph cell for
    all eta levels; the closure is realized as one raster-cell dilation
    before intersecting over eta.

    With t = x0star - x1*, the two scores of a graph cell (x, y) are

        m1  = phi*(x1*, y1*) + phi(x, y) - <x, x1*> - <y, y1*>
        cod = sigma_gph(t, -y1*) - <x, t> + <y, y1*>,

    and their sum G[x1*, y1*] + h[x, y], with G = phi* + sigma_gph on the
    lattice and h = phi(x, y) - <x, x0star>, no longer couples cell and
    pair.  m1 >= 0 because phi* takes its max over every grid node, (x, y)
    among them; cod >= 0 because a support function is at least its value
    at the graph point (x, y).  A split passes only if m1 <= e1 + TOL and
    cod <= e2 + TOL with e1 + e2 = eps + eta, so a cell's candidates are
    the pairs with G under the largest eps + eta + 2 TOL minus h: a prefix
    of G sorted once.  The floats meet the identity only up to a few
    roundings, so the cutoff carries a margin of a few ulps of the largest
    finite terms; a looser margin only admits more candidates.  Both scores
    are then built at the candidates alone, with the same expressions and
    per-slice dot tables as on the whole lattice, so every comparison sees
    the same floats.

    Unconditionally, every pre-dilation eta-level member must lie in the
    (eps+eta)-subdifferential of mu*; two-sided agreement at the nominal
    eps is asserted only under the declared qualification.
    """
    mu = marginal(phi, F).mu
    mustar = conjugate(mu, duals)
    si = duals.resolve(x0star)
    if not np.isfinite(mustar.values[si]):
        return TheoremReport(
            True, True, 1.0, 0, (), (), (), True, qc14,
            "x0star is outside the finite domain of mu*; both sides empty",
        )
    s0 = duals.coords(si)
    m, n = F.xgrid.dim, F.ygrid.dim
    if yduals is None:
        yduals = default_ydual_grid(phi, m, 41 if n == 1 else 9)

    sample = F.xgrid.nodes
    lhs_poly = eps_subdifferential(mustar, si, eps)
    lhs_mask = lhs_poly.contains(sample)

    Y1 = yduals.nodes
    Kx, Ky = duals.size, Y1.shape[0]
    X1 = duals.nodes
    T = split_lattice(s0[None, :], duals)
    phistar = partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1), F.xgrid.nodes, F.ygrid.nodes, X1, Y1
    )
    fsupport = graph_support(F, T, -Y1)

    gx, gy = F.graph_cells
    Xg = F.xgrid.nodes[gx]
    Yg = F.ygrid.nodes[gy]
    phig = phi.values.reshape(F.xgrid.size, F.ygrid.size)[gx, gy]

    splits = [_split_pairs(eps + eta, THEOREM_SPLITS) for eta in DEFAULT_ETAS]
    cutoff = max(eps + eta for eta in DEFAULT_ETAS) + 2 * TOL
    # The floats fall short of the identity by a few roundings: T = fl(s0 -
    # x1*) is inexact, the dot products round, and so do the sums building
    # m1, cod, G, h, the split bounds e + TOL and the search key.  With u
    # the unit roundoff and M the sum of the largest finite magnitudes of
    # the terms, a passing triple has fl(G) <= cutoff - fl(h) +
    # (13 + m) u M, and the margin below is more than twice that.  Infinite
    # values stay out of M: +inf phi only removes a cell (h = +inf) and
    # +inf phi* only a pair.  A looser margin admits more candidates and
    # changes no verdict.
    xnorm = _finite_max(np.abs(Xg).sum(axis=1))
    scale = (
        _finite_max(phistar) + _finite_max(fsupport) + _finite_max(phig) + cutoff
        + xnorm * (_finite_max(X1) + _finite_max(T) + _finite_max(s0))
        + 2.0 * _finite_max(np.abs(Yg).sum(axis=1)) * _finite_max(Y1)
    )
    key = cutoff + (m + 16) * np.finfo(np.float64).eps * scale - (phig - Xg @ s0)
    G = (phistar + fsupport).reshape(-1)
    order = np.argsort(G)
    G = G[order]
    pair_j, pair_k = np.divmod(order, Ky)

    cell_ok = np.zeros((len(DEFAULT_ETAS), gx.shape[0]), dtype=bool)
    for sl in score_slices(gx.shape[0], Kx * Ky):
        counts = np.searchsorted(G, key[sl], side="right")
        if not counts.any():
            continue
        # Candidate (cell, pair) triples: cell c takes the first counts[c]
        # pairs in G order.
        c = np.repeat(np.arange(counts.size), counts)
        at = np.arange(c.size) - np.repeat(np.cumsum(counts) - counts, counts)
        j, k = pair_j[at], pair_k[at]
        ydots = (Yg[sl] @ Y1.T)[c, k]
        m1 = (phistar[j, k] + phig[sl][c]) - ((Xg[sl] @ X1.T)[c, j] + ydots)
        cod = fsupport[j, k] - ((Xg[sl] @ T.T)[c, j] - ydots)
        for ok, level in zip(cell_ok, splits):
            ok[c[cod <= _split_bound(m1, level)] + sl.start] = True

    levels = []
    for eta, ok in zip(DEFAULT_ETAS, cell_ok):
        raw = np.zeros(F.xgrid.size, dtype=bool)
        np.logical_or.at(raw, gx, ok)
        levels.append((eta, raw, box_dilate(raw.reshape(F.xgrid.shape)).reshape(-1)))
    # The one-cell dilation realizing "cl" can only enlarge the right side,
    # so the sharp direction asserted under the qualification is containment
    # of the left side, not raw equality of the node masks.
    return _theorem_report(
        mustar,
        si,
        eps,
        sample,
        lhs_mask,
        levels,
        lambda lhs, rhs: not bool((lhs & ~rhs).any()),
        qc14,
        "left side contained in the closed right side as asserted; raw"
        " agreement is resolution-dependent through the closure dilation",
    )
