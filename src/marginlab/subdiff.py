"""Epsilon-subdifferentials, normal cones, and their calculus.

On a finite grid the eps-subdifferential of f at a node x0 is the
H-polyhedron with one halfspace <x - x0, s> <= f(x) - f(x0) + eps per node
x != x0 with finite f(x); +inf nodes impose nothing and any -inf node
forces the canonical empty polyhedron.  Membership is a tolerance-1e-9
halfspace scan.  Emptiness is decided on the loosened system
{A s <= b + TOL} and certified by an infeasible subset of <= d+1
constraints (Helly).  In dimension 1 emptiness, feasible points and
Minkowski membership are exact interval arithmetic.  In dimension 2 they
are exact polygon arithmetic: each polygon is built once by half-plane
intersection (`_polygon`), a feasible point is the mean of its points
moved along its rays, a certificate is found with `_polygon` as the
emptiness oracle, and a Minkowski sum is read off support functions.
Dimension 3 solves LPs (the Farkas dual for emptiness and its
certificates), and scipy is imported on the first LP a run solves
(`linprog` below).  The sum rule builds none of these polyhedra: it takes
each function's halfspace table once (`_halfspaces`) and shifts its
offsets by each split's eps, in every dimension.

The theorem verifiers at the bottom check the upper subdifferential
formula for marginal functions and the formula for subgradients of the
conjugate.  Both keep two independent routes: the left side is a halfspace
polyhedron of the gridded mu (or mu*), the right side is scanned through
exact conjugate tables via the finite-grid Fenchel-Young identity.  Both
score triples of a cell and a lattice pair (x1*, y*) the same way: the phi
score m1 and the coderivative score cod are nonnegative and add up to a
key plus a per-cell offset.  The marginal check's cells are the
near-optimal y0, its keys one per (x*, x1*, y*); the conjugate check's
cells are the graph cells, its keys the table (phi* + sigma_gph)(x1*, y*).
Every split has e1 + e2 = eps + eta, so only the keys under the largest
eps + eta + 2 TOL (plus the rounding margin `_margin`) minus the cell's
offset can pass; `_candidates` sorts the keys under the largest such
threshold and lists each cell's prefix, and only those triples are
scored, in slices sized by their candidate counts.  `_split_bound` then
tests all of a level's splits with one comparison per score.  The
unpruned route stays in the tests as the oracle.  Every dot product these
checks and the restricted conjugate identity take is `conjugate.dots` of
its two rows, the same bits in any slice, so the pruned checks agree with
the unpruned route and the identity holds bitwise on any data, dyadic or
not.  The conjugate tables the checks read (mu*, phi*, the graph support
on the dual lattice) come from the `tables.Tables` store that each check
takes first, so the command line shares one store per run across all of
them.  The eps-coderivative enters both checks only as the score cod:
x* lies in D*_eps F(x, y)(y*) exactly when
sigma_gph(x*, -y*) - <x*, x> + <y, y*> <= eps, read off the graph support
table, and the tests keep its halfspace form as the oracle of that score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .conjugate import count_slices, default_dual_grid, dots, score_slices
from .core import (
    INF,
    TOL,
    Grid,
    GriddedFunction,
    Verdict,
    as_point,
    as_rows,
    ext_sum,
    finite_max,
    hypothesis_verdict,
    lower_chain,
    max_deviation,
    sorted_distinct,
)
from .errors import (
    GridMismatch,
    InvalidArgument,
    MarginlabError,
    NotFiniteAtPoint,
    PointNotInSet,
    UnsupportedDimension,
)
from .nearconvex import box_dilate
from .setmap import graph_cell_blocks
from .tables import Tables

SUM_RULE_SPLITS = 5  # eps1 + eps2 = eps splits sampled by sum_rule_check


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Importing scipy.optimize costs more than most runs compute, and only
    emptiness, feasible points and Minkowski membership of d = 3 polyhedra
    and multi-constraint Lagrangian duals need an LP; dimensions 1 and 2
    solve none.  Every LP in the package goes through this one binding.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


# --- polyhedra ---------------------------------------------------------------


class Interval(NamedTuple):
    """A 1-D solution interval; empty when lo exceeds hi beyond tolerance."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi + TOL


@dataclass(frozen=True)
class HPolyhedron:
    """{s : <a_i, s> <= b_i for all i}; redundant halfspaces are kept."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        A = as_rows(self.normals, None, "normals")
        b = as_rows(self.offsets, None, "offsets").reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise InvalidArgument("normals and offsets disagree in length")
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

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_halfspaces(self) -> int:
        return self.normals.shape[0]

    def contains(self, points) -> np.ndarray | bool:
        """Membership within tolerance 1e-9, vectorized over point rows."""
        pts = as_rows(points, self.dim, "points")
        ok = (dots(pts[:, None], self.normals) <= self.offsets + TOL).all(axis=1)
        return bool(ok[0]) if np.ndim(points) == 1 else ok

    def interval(self) -> Interval:
        """Exact solution interval; dimension 1 only."""
        if self.dim != 1:
            raise UnsupportedDimension("interval form needs a 1-D polyhedron")
        return _interval(self.normals[:, 0], self.offsets)


def _interval(a: np.ndarray, b: np.ndarray) -> Interval:
    """{s : a_i s <= b_i for all i} in one dimension, exactly."""
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
    from the basic solution of the dual simplex: at most d+1 rows, whose
    columns (a_i, 1) are independent, so no proper subset is infeasible.
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
        raise MarginlabError(f"LP solver failed on the Farkas system: {res.message}")
    if res.fun < -TOL:
        return False, [int(i) for i in np.flatnonzero(res.x > TOL)]
    return True, None


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
    parallel lines; tails of g and l within _PARALLEL in angle count as
    parallel, so two opposite rows whose slopes round apart never meet.
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
        knots = sorted_distinct(knots[np.isfinite(knots) & (knots >= xl) & (knots <= xr)])
        d = _evaluate(pg, qg, bg, knots) - _evaluate(pl, ql, bl, knots)
        # slopes of g - l on the tails, 0 where the two lines are parallel
        s_lo, s_hi = (0.0 if abs(np.arctan(pu) - np.arctan(pd)) <= _PARALLEL else pu - pd
                      for pu, pd in ((pg[0], pl[0]), (pg[-1], pl[-1])))
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
    """Lines of x -> min_i p_i x + q_i from left to right, and their breakpoints:
    the lowest line of each slope whose point (-p_i, q_i) is on the lower chain."""
    order = np.lexsort((q, -p))  # steepest first; the lowest of equal slopes first
    lines = order[np.diff(p[order], prepend=np.nan) != 0.0]
    h = lines[lower_chain(-p[lines], q[lines])]
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
    h = dots(normals[:, None], V).max(axis=1)
    if R.shape[0]:
        lens = np.hypot(normals[:, 0], normals[:, 1])
        h[(dots(normals[:, None], R) > _PARALLEL * lens[:, None]).any(axis=1)] = INF
    return h


def _plane_witness(V: np.ndarray, R: np.ndarray) -> np.ndarray:
    """A point in the relative interior of conv(V) + cone(R) in the plane.

    The mean of the distinct points plus the sum of the unit rays: every
    generator gets a positive weight, so the point is relatively interior,
    and a box centred at the origin gets the origin back exactly.
    """
    return sorted_distinct(V).mean(axis=0) + R.sum(axis=0)


def _plane_certificate(A: np.ndarray, b: np.ndarray) -> list[int]:
    """An irreducible infeasible subset of the empty planar system A s <= b.

    Additive search with `_polygon` as the emptiness oracle.  The shortest
    prefix of the candidate rows that is empty together with the rows kept
    so far ends in a row that no infeasible subset of that prefix can do
    without; it is kept, and the search repeats on the rows before it until
    the kept rows alone are empty.  Every kept row is needed, so the subset
    is irreducible, and by Helly's theorem it has at most 3 rows; each round
    is a binary search of O(log n) polygons.
    """
    kept: list[int] = []
    rows = list(range(A.shape[0]))
    while not kept or _polygon(A[kept], b[kept]) is not None:
        lo, hi = 1, len(rows)  # kept + rows[:hi] is empty
        while lo < hi:
            mid = (lo + hi) // 2
            trial = kept + rows[:mid]
            if _polygon(A[trial], b[trial]) is None:
                hi = mid
            else:
                lo = mid + 1
        kept.append(rows[hi - 1])
        rows = rows[: hi - 1]
    return kept


def is_empty(P: HPolyhedron) -> tuple[bool, tuple[int, ...] | None]:
    """Emptiness with a certificate of <= d+1 constraints; d <= 3 only.

    1-D reads the exact interval.  2-D builds the polygon of the loosened
    system {A s <= b + TOL}, the system the Farkas alternative decides, and
    searches the certificate with the same oracle.  3-D solves the Farkas
    LP and takes the support of the basic Farkas solution.
    """
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
    if P.dim == 2:
        A, b = P.normals, P.offsets + TOL
        if _polygon(A, b) is not None:
            return False, None
        return True, tuple(sorted(_plane_certificate(A, b)))
    feasible, support = _farkas(P.normals, P.offsets)
    if feasible:
        return False, None
    return True, tuple(sorted(support))


def feasible_point(P: HPolyhedron) -> np.ndarray | None:
    """A deterministic point of P, or None when P is empty.

    1-D uses the exact interval (midpoint; finite endpoint of a half-line;
    origin for the whole line).  2-D takes `_plane_witness` of the polygon
    of P, a relative-interior point, so strictly inside P whenever P has an
    interior; when rounding leaves that polygon empty it takes the polygon
    of the loosened system {A s <= b + TOL} instead, so the point lies
    within TOL of P, and it returns None exactly when `is_empty` says so.
    Higher dimensions take a Chebyshev-like center from one LP: the largest
    radius r in [0, 1] with A s + |a_i| r <= b, s free (the bound on r
    bounds the LP).  When that LP finds no point it is solved once more on
    the loosened system {A s <= b + TOL}, as in 2-D.
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
    if P.dim == 2:
        for slack in (0.0, TOL):
            polygon = _polygon(P.normals, P.offsets + slack)
            if polygon is not None:
                return _plane_witness(*polygon)
        return None
    norms = np.linalg.norm(P.normals, axis=1)
    A = np.hstack([P.normals, norms[:, None]])
    c = np.zeros(P.dim + 1)
    c[-1] = -1.0
    for slack in (0.0, TOL):
        res = linprog(
            c=c,
            A_ub=A,
            b_ub=P.offsets + slack,
            bounds=[(None, None)] * P.dim + [(0, 1)],
            method="highs-ds",
        )
        if res.status == 0:
            return res.x[: P.dim].copy()
    return None


# --- the eps-calculus objects --------------------------------------------------


def _check_eps(eps: float) -> None:
    if not 0 <= eps < INF:
        raise InvalidArgument(f"eps must be finite and nonnegative, got {eps}")


def eps_subdifferential(f: GriddedFunction, x0, eps: float) -> HPolyhedron:
    """Polyhedral eps-subdifferential of a gridded f at the node x0.

    x0 outside the finite domain yields the canonical empty polyhedron, as
    does any -inf node anywhere in f.
    """
    _check_eps(eps)
    h = _halfspaces(f, f.grid.resolve(x0))
    return HPolyhedron.empty(f.grid.dim) if h is None else HPolyhedron(h[0], h[1] + eps)


def _halfspaces(f: GriddedFunction, xi: int) -> tuple[np.ndarray, np.ndarray] | None:
    """What `eps_subdifferential(f, xi, eps)` shares at every eps: the
    normals x - x0 and the offsets f(x) - f(x0), to which eps is added,
    over the domain nodes x != x0; None when it is the canonical empty
    polyhedron at every eps."""
    f0 = f.values[xi]
    if not np.isfinite(f0) or (f.values == -INF).any():
        return None
    sel = f.dom_mask.copy()
    sel[xi] = False
    return f.grid.nodes[sel] - f.grid.coords(xi), f.values[sel] - f0


def _eps_members(f: GriddedFunction, xi: int, sample: np.ndarray, epsilons) -> np.ndarray:
    """`eps_subdifferential(f, xi, eps).contains(sample)` for each eps, one
    row each: the same floats and comparisons, from one table of
    <s, x - x0> and one row of offsets for every eps."""
    sample = as_rows(sample, f.grid.dim, "points")
    h = _halfspaces(f, xi)
    if h is None:  # 0 . s <= -1 holds for no s
        return np.zeros((len(epsilons), sample.shape[0]), dtype=bool)
    D = dots(sample[:, None], h[0])
    return np.array([(D <= (h[1] + eps) + TOL).all(axis=1) for eps in epsilons])


def eps_normal_cone(points, x0, eps: float) -> HPolyhedron:
    """eps-normal cone to a finite point set at a member point x0."""
    _check_eps(eps)
    P = as_rows(points, None, "points")
    x0 = as_point(x0, P.shape[1], "x0")
    if not (np.abs(P - x0).max(axis=1, initial=0.0) <= TOL).any():
        raise PointNotInSet(f"{x0.tolist()} is not a member of the point set")
    return HPolyhedron(P - x0, np.full(P.shape[0], float(eps)))


class EpsSubdifferentialReport(NamedTuple):
    """An eps-subdifferential and its members by both routes."""

    polyhedron: HPolyhedron
    member: np.ndarray
    member_conjugate_route: np.ndarray
    verdicts: tuple[Verdict, ...]


def eps_subdifferential_check(
    f: GriddedFunction, fstar: GriddedFunction, x0, eps: float
) -> EpsSubdifferentialReport:
    """Members of the eps-subdifferential of f at x0 among the nodes of the
    conjugate table fstar, by the polyhedron and by Fenchel-Young: s is one
    exactly when f*(s) + f(x0) <= <s, x0> + eps (within TOL).  The rows: the
    routes agree at every node, and members stay members at eps + 0.5."""
    xi = f.grid.resolve(x0)
    nodes = fstar.grid.nodes
    P = eps_subdifferential(f, xi, eps)
    member, wider = _eps_members(f, xi, nodes, [eps, eps + 0.5])
    f0 = float(f.values[xi])
    if np.isfinite(f0):
        with np.errstate(invalid="ignore"):
            member_fy = fstar.values + f0 <= dots(nodes, f.grid.coords(xi)) + eps + TOL
    else:
        member_fy = np.zeros(nodes.shape[0], dtype=bool)
    agree = bool(np.array_equal(member, member_fy))
    return EpsSubdifferentialReport(P, member, member_fy, (
        Verdict("conjugate_route_agreement", agree, f"{nodes.shape[0]} dual nodes"),
        Verdict("nesting_in_eps", bool(np.all(wider[member])), "eps vs eps+0.5"),
    ))


# --- sum rule -------------------------------------------------------------------


def _split_pairs(total: float, count: int) -> list[tuple[float, float]]:
    if total <= 0.0:
        return [(0.0, 0.0)]
    t = np.linspace(0.0, total, count)
    return [(float(a), float(total - a)) for a in t]


def _split_bound(splits) -> Callable[[np.ndarray], np.ndarray]:
    """The split test of one level: per score m1, the largest e2 + TOL over
    the splits with m1 <= e1 + TOL.

    The returned function gives NaN where no split admits m1 (NaN and +inf
    scores among them), so that `cod <= _split_bound(splits)(m1)` holds
    exactly when some split (e1, e2) passes both m1 <= e1 + TOL and
    cod <= e2 + TOL: the same comparisons on the same floats, one split per
    score instead of all of them.  Its tables, the sorted e1 + TOL and the
    suffix maxima of e2 + TOL, are built here once per level.
    """
    e1 = np.array([a + TOL for a, _ in splits])
    order = np.argsort(e1)
    keys = e1[order]
    e2 = np.array([b + TOL for _, b in splits])[order]
    best = np.append(np.maximum.accumulate(e2[::-1])[::-1], np.nan)
    return lambda m1: best[np.searchsorted(keys, m1, side="left")]


def _minkowski_contains(A1, b1, A2, b2, points: np.ndarray) -> np.ndarray:
    """Membership of each point in P_TOL + Q_TOL, the sum of the loosened
    sets P = {A1 s <= b1} and Q = {A2 s <= b2}, of dimension 2 or more.

    P_TOL = {A1 s <= b1 + TOL} is the system the Farkas LP sees.  2-D builds
    both polygons once and, since the edge normals of a sum of polygons lie
    among those of its terms, tests every point at once against
    <a, s> <= h_P(a) + h_Q(a) over the normals a of P and Q.  Above
    dimension 2 it solves one LP per point.  In dimension 1
    `sum_rule_check` adds the two exact intervals itself.
    """
    if A1.shape[1] == 2:
        gp = _polygon(A1, b1 + TOL)
        gq = _polygon(A2, b2 + TOL)
        if gp is None or gq is None:
            return np.zeros(points.shape[0], dtype=bool)
        A = np.vstack([A1, A2])
        h = _support(*gp, A) + _support(*gq, A)
        return (dots(points[:, None], A) <= h).all(axis=1)
    out = np.zeros(points.shape[0], dtype=bool)
    A = np.vstack([A1, -A2])
    for k, s in enumerate(points):
        b = np.concatenate([b1, b2 - dots(A2, s)])
        out[k] = _farkas(A, b + TOL)[0]
    return out


class SumRuleReport(NamedTuple):
    easy_ok: bool
    agreement: float
    n_samples: int
    disagreements: tuple[tuple[float, ...], ...]
    splits: tuple[tuple[float, float], ...]
    verdicts: tuple[Verdict, ...]


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
    the relevant split is on the lattice.  The row is the unconditional
    inclusion.  Each function's halfspace table is taken once, and a split
    adds its eps to the offsets instead of building two polyhedra.
    """
    if g1.grid != g2.grid:
        raise GridMismatch("sum rule needs both functions on one grid")
    xi = g1.grid.resolve(x0)
    total = ext_sum(g1, g2)
    _check_eps(eps)
    if duals is None:
        duals = default_dual_grid(total, 41 if total.grid.dim == 1 else 9)
    S = duals.nodes
    (lhs_mask,) = _eps_members(total, xi, S, [eps])
    splits = _split_pairs(eps, SUM_RULE_SPLITS)
    rhs_mask = np.zeros(S.shape[0], dtype=bool)
    h1, h2 = _halfspaces(g1, xi), _halfspaces(g2, xi)
    empty = h1 is None or h2 is None  # then every split's sum is empty
    for e1, e2 in () if empty else splits:
        b1, b2 = h1[1] + e1, h2[1] + e2
        if total.grid.dim == 1:  # the sum of two exact intervals
            ip, iq = _interval(h1[0][:, 0], b1), _interval(h2[0][:, 0], b2)
            if not (ip.empty or iq.empty):
                rhs_mask |= (S[:, 0] >= ip.lo + iq.lo - TOL) & (S[:, 0] <= ip.hi + iq.hi + TOL)
        else:
            todo = ~rhs_mask
            rhs_mask[todo] = _minkowski_contains(h1[0], b1, h2[0], b2, S[todo])
    easy_ok = not bool((rhs_mask & ~lhs_mask).any())
    agreement = float((lhs_mask == rhs_mask).mean())
    bad = S[lhs_mask != rhs_mask]
    return SumRuleReport(
        easy_ok,
        agreement,
        S.shape[0],
        tuple(tuple(float(c) for c in row) for row in bad[:16]),
        tuple(splits),
        (Verdict("sum_rule_easy_inclusion", easy_ok, f"agreement {agreement:.4f}"),),
    )


# --- marginal subdifferential formula -------------------------------------------


DEFAULT_ETAS = (1.0, 0.1, 0.01)  # the eta levels both theorem checks intersect over
THEOREM_SPLITS = 9  # eps1 + eps2 = eps + eta splits sampled per eta level


class TheoremReport(NamedTuple):
    """Sampled two-route comparison of a set identity.

    `easy_ok` is the unconditional inclusion (right side inside the
    eta-inflated left side); `agreement` compares both routes at the
    sampled points against the nominal eps.  `verdicts` holds the rows of
    the unconditional direction and of the sharp one, binding under qc14.
    """

    easy_ok: bool
    agreement: float
    n_samples: int
    lhs_mask: tuple[bool, ...]
    rhs_mask: tuple[bool, ...]
    disagreements: tuple[int, ...]
    eta_monotone_ok: bool
    verdicts: tuple[Verdict, ...]


def _theorem_report(
    f: GriddedFunction,
    node: int,
    eps: float,
    sample: np.ndarray,
    levels: Sequence[tuple[float, np.ndarray, np.ndarray]],
    sharp: Callable[[np.ndarray, np.ndarray], bool],
    qc14: bool,
    upper: tuple[str, str],
    claim: tuple[str, str, str],
) -> TheoremReport:
    """Fold the per-eta right sides of a two-route check into its report.

    The left side is the sample's members of the eps-subdifferential of f
    at `node`.  Each level is (eta, found, closed): the sampled points the
    right route finds at that eta, and the same set after any closure.  The
    right side is the intersection of the closed sets.  Unconditionally
    every found point must lie in the (eps+eta)-subdifferential of f at
    `node`, and the closed sets must shrink with eta, as the row `upper` =
    (name, detail) asserts.  The left side and every (eps+eta) level come
    from one `_eps_members` table.  `sharp(lhs, rhs)` is the direction
    asserted under the qualification; `claim` = (name, what it asserts,
    note to the agreement) makes its row.
    """
    epsilons = [eps] + [eps + eta for eta, _, _ in levels]
    lhs_mask, *inflated = _eps_members(f, node, sample, epsilons)
    rhs_mask = np.ones(sample.shape[0], dtype=bool)
    easy_ok = eta_monotone_ok = True
    prev = None
    for (_, found, closed), wider in zip(levels, inflated):
        if bool((found & ~wider).any()):
            easy_ok = False
        if prev is not None and bool((closed & ~prev).any()):
            eta_monotone_ok = False
        prev = closed
        rhs_mask &= closed
    agreement = float((lhs_mask == rhs_mask).mean()) if sample.shape[0] else 1.0
    name, what, note = claim
    return TheoremReport(
        easy_ok,
        agreement,
        int(sample.shape[0]),
        tuple(bool(v) for v in lhs_mask),
        tuple(bool(v) for v in rhs_mask),
        tuple(int(i) for i in np.flatnonzero(lhs_mask != rhs_mask)),
        eta_monotone_ok,
        (
            Verdict(upper[0], easy_ok and eta_monotone_ok, upper[1]),
            hypothesis_verdict(name, sharp(lhs_mask, rhs_mask), qc14, "qc14", what,
                               f"agreement {agreement:.4f}{note}"),
        ),
    )


def _margin(eps: float, terms, X, xstars, Y, ystars) -> float:
    """The cutoff, the largest eps + eta + 2 TOL, plus room for rounding.

    m1 + cod is exactly a key plus an offset, and both scores are
    nonnegative, so a triple whose key lies over the cutoff minus its
    offset passes no split.  The floats meet that identity only up to a
    few roundings: the dot products, the conjugate check's step
    fl(x0* - x1*), and the sums building m1, cod, the key, the offset, the
    bounds e + TOL and the threshold.  `terms` are the added tables; `X`
    and `Y` are the x and y rows dotted with the rows of `xstars` and
    `ystars`, and each y dot product enters both scores.  With u the unit
    roundoff, m the x dimension and M the sum of the largest finite
    magnitudes, a passing triple has fl(key) <= cutoff - fl(offset) +
    (13 + m) u M, and the margin is more than twice that.  Infinite values
    stay out of M, since they only remove a cell or a key; a looser margin
    only admits more candidates and changes no verdict.
    """
    cutoff = max(eps + eta for eta in DEFAULT_ETAS) + 2 * TOL
    xnorm = finite_max(np.abs(X).sum(axis=1))
    ynorm = finite_max(np.abs(Y).sum(axis=1))
    scale = (
        sum(finite_max(t) for t in terms) + cutoff
        + xnorm * sum(finite_max(t) for t in xstars) + 2.0 * ynorm * finite_max(ystars)
    )
    return cutoff + (X.shape[1] + 16) * np.finfo(np.float64).eps * scale


def _candidates(keys: np.ndarray, thresholds: np.ndarray, width: int):
    """(cell, key) index pairs with keys[key] <= thresholds[cell], in
    `count_slices` blocks of `width` entries per pair.

    Only the keys under the largest threshold are sorted, and each cell
    takes their prefix up to its threshold, found by one binary search;
    NaN keys admit no cell.  A cell's keys come in sorted order.
    """
    under = np.flatnonzero(keys <= thresholds.max(initial=-INF))
    order = under[np.argsort(keys[under])]
    counts = np.searchsorted(keys[order], thresholds, side="right")
    cells = np.flatnonzero(counts)
    counts = counts[cells]
    for sl in count_slices(width * counts):
        n = counts[sl]
        c = np.repeat(cells[sl], n)
        yield c, order[np.arange(c.size) - np.repeat(np.cumsum(n) - n, n)]


def marginal_subdiff_check(tables: Tables, x0, eps: float, qc14: bool = False) -> TheoremReport:
    """Upper estimate of the eps-subdifferential of a marginal function.

    Left route: the halfspace polyhedron of the gridded mu at x0.  Right
    route: intersection over eta of, for every near-optimal y0, the union
    over sampled splits eps1 + eps2 = eps + eta of
    x1* + D*_eps2 F(x0,y0)(y1*) over lattice points (x1*, y1*) in the
    eps1-subdifferential of phi at (x0, y0); memberships are evaluated
    through exact conjugate tables (finite-grid Fenchel-Young), one pass
    over the y0 near-optimal at the largest eta.

    The scores of a triple (x*, x1*, y*) at y0, with t = x* - x1*, are
    m1 = phi*(x1*, y*) + phi(x0, y0) - <x0, x1*> - <y0, y*> and
    cod = sigma_gph(t, -y*) - <x0, t> + <y0, y*>: the conjugate check's
    split, a key per triple plus the offset phi(x0, y0), with the
    near-optimal y0 as the cells.  A y0's hits at a level are kept per x*,
    and a level intersects the hits of the y0 it admits.

    Unconditional direction: every sampled dual in the eta-level right set
    lies in the (eps+eta)-subdifferential of mu.  Two-sided agreement at
    the nominal eps is asserted only when the instance claims the
    qualification (qc14).

    The dual grids, mu and phi* come from the store, and so does the split
    lattice of the x* grid, kept on its distinct steps with their graph
    support; <step, x0> is taken once per distinct step, and its bits
    depend on the step alone.  The keys are built in blocks of x* rows,
    each gathering its support rows through the inverse index, so no table
    of all the steps is built; a block only gathers, adds and compares, so
    its size moves no bit.
    """
    phi, F, mu = tables.phi, tables.F, tables.mu
    xi = F.xgrid.resolve(x0)
    mu0 = mu.values[xi]
    if not np.isfinite(mu0):
        raise NotFiniteAtPoint(f"mu is not finite at x node {xi}")
    x0c = F.xgrid.coords(xi)
    S = tables.xduals.nodes
    Ks = S.shape[0]
    _check_eps(eps)

    Y, Y1 = F.ygrid.nodes, tables.yduals.nodes
    phistar = tables.phistar
    steps, support, inverse = tables.lattice_support
    inverse = inverse.reshape(Ks, Ks)
    TX0 = dots(steps, x0c)[inverse]
    dots1 = dots(S, x0c)

    phi_row = phi.values.reshape(F.xgrid.size, F.ygrid.size)[xi]
    near = np.array([F.graph[xi] & (phi_row < mu0 + eta) for eta in DEFAULT_ETAS])
    ys = np.flatnonzero(near.any(axis=0))
    offsets = phi_row[ys]
    bounds = [_split_bound(_split_pairs(eps + eta, THEOREM_SPLITS)) for eta in DEFAULT_ETAS]
    margin = _margin(eps, (phistar, support, offsets), x0c[None], (S, steps), Y[ys], Y1)

    # A block of x* rows holds its keys and their sort temporaries within
    # one cap together (8 entries per key); its candidates are scored in
    # slices of about ten arrays of one entry per triple, plus the y rows
    # of their dot products.
    masks = np.ones((len(DEFAULT_ETAS), Ks), dtype=bool)
    for rows in score_slices(Ks, 8 * Ks * Y1.shape[0]):
        at_step, tx0 = inverse[rows], TX0[rows]
        keys = support[at_step]
        keys += phistar
        keys -= (tx0 + dots1)[:, :, None]
        hits = np.zeros((len(DEFAULT_ETAS), keys.shape[0], ys.size), dtype=bool)
        for y, at in _candidates(keys.reshape(-1), margin - offsets, 10 + 3 * Y.shape[1]):
            i, j, k = np.unravel_index(at, keys.shape)
            ydots = dots(Y[ys[y]], Y1[k])
            m1 = ((phistar[j, k] + offsets[y]) - dots1[j]) - ydots
            cod = (support[at_step[i, j], k] - tx0[i, j]) + ydots
            for hit, bound in zip(hits, bounds):
                passed = cod <= bound(m1)
                hit[i[passed], y[passed]] = True
        masks[:, rows] = (hits | ~near[:, None, ys]).all(axis=2)
    levels = [(eta, mask, mask) for eta, mask in zip(DEFAULT_ETAS, masks)]
    return _theorem_report(
        mu,
        xi,
        eps,
        S,
        levels,
        lambda lhs, rhs: bool(np.array_equal(lhs, rhs)),
        qc14,
        ("marginal_formula_upper", f"{Ks} duals"),
        ("marginal_formula_agreement", "equality", ""),
    )


# --- restricted conjugate identity ----------------------------------------------


class RestrictedConjugateReport(NamedTuple):
    ok: bool
    max_abs_diff: float
    n_duals: int
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    verdicts: tuple[Verdict, ...]


def restricted_conjugate_check(tables: Tables) -> RestrictedConjugateReport:
    """mu*(x*) equals the conjugate of phi + indicator(gph F) at (x*, 0).

    The right side is the maximum over graph cells (x, y) of
    D[x*, x] - phi(x, y), with D the table of <x*, x>.  Rounding a
    difference is monotone, so the max over y of fl(D - phi(x, y)) is
    fl(D - m(x)), with m(x) the store's graph-row minimum, and the right
    side is the max over x of fl(D - m(x)), taken in `score_slices` blocks
    of x* rows, so neither D nor a table of every cell is built whole.  It
    keeps `conjugate_at`'s conventions by extended arithmetic: a -inf cell
    scores +inf, a +inf cell -inf, and a row with no cells (m = +inf)
    leaves -inf.  D never holds -0.0 (`dots` starts from +0.0), so the
    sign of a zero minimum moves no bit either.  The entries of D are
    bitwise the dot products inside mu*, and mu(x) is m(x), so equality
    is exact (bitwise) on any data.  The x* grid, mu* on it and the
    minima come from the store.
    """
    duals, X = tables.xduals, tables.F.xgrid.nodes
    lhs = tables.mustar.values
    m = tables.graph_minima
    rhs = np.empty(duals.size)
    for sl in score_slices(duals.size, 2 * X.shape[0]):  # D and dots' products, or D - m
        (dots(duals.nodes[sl, None], X) - m).max(axis=1, out=rhs[sl])
    ok = bool(np.array_equal(lhs, rhs))
    return RestrictedConjugateReport(
        ok,
        max_deviation(lhs, rhs),
        duals.size,
        tuple(float(v) for v in lhs),
        tuple(float(v) for v in rhs),
        (Verdict("restricted_conjugate_exact", ok, f"{duals.size} dual nodes"),),
    )


# --- subgradients of the conjugate ----------------------------------------------


def conj_subdiff_check(tables: Tables, x0star, eps: float, qc14: bool = False) -> TheoremReport:
    """Primal-space description of the eps-subdifferential of mu*.

    Left route: halfspace polyhedron of the gridded mu* at the x* node
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
    at the graph point (x, y).  So `_candidates` lists a cell's pairs as
    the prefix of G sorted once under `_margin` minus h, and both scores
    are then built at the candidates alone, with the same expressions as on
    the whole lattice.  Every dot product is `dots` of its two rows, taken
    per candidate, with the bits of the unpruned route's table entry, so
    each comparison sees the floats of the unpruned route on any data.

    Unconditionally, every pre-dilation eta-level member must lie in the
    (eps+eta)-subdifferential of mu*; two-sided agreement at the nominal
    eps is asserted only under the declared qualification.

    The dual grids, mu*, phi* and the split lattice come from the store;
    the steps s0 - x1* and their graph support are the node's lattice rows
    (`coords` gives the node's own bits, and a row depends on its step alone).
    """
    phi, F, duals = tables.phi, tables.F, tables.xduals
    mustar = tables.mustar
    si = duals.resolve(x0star)
    m = F.xgrid.dim
    named = (
        ("conjugate_formula_upper", f"at dual node {si}"),
        ("conjugate_formula_containment", "containment",
         "; closure realized as one-cell dilation"),
    )
    if not np.isfinite(mustar.values[si]):
        # x0star is outside the finite domain of mu*: both sides are empty.
        empty = np.zeros((0, m))
        return _theorem_report(mustar, si, eps, empty, [], _contains, qc14, *named)
    s0 = duals.coords(si)
    _check_eps(eps)

    Y1 = tables.yduals.nodes
    Ky = Y1.shape[0]
    X1 = duals.nodes
    steps, support, inverse = tables.lattice_support
    at = inverse[si * X1.shape[0] : (si + 1) * X1.shape[0]]  # the rows s0 - x1*
    T, fsupport = steps[at], support[at]
    phistar = tables.phistar

    X, Y = F.xgrid.nodes, F.ygrid.nodes
    V = phi.values.reshape(F.xgrid.size, F.ygrid.size)

    bounds = [_split_bound(_split_pairs(eps + eta, THEOREM_SPLITS)) for eta in DEFAULT_ETAS]
    # The largest phi value on the graph is taken over blocks of x rows, so
    # no table of every cell is built, and a maximum is exact.
    phinorm = max(
        (finite_max(V[sl][F.graph[sl]]) for sl in score_slices(F.xgrid.size, F.ygrid.size)),
        default=0.0,
    )
    margin = _margin(eps, (phistar, fsupport, phinorm), X[F.dom_mask], (X1, T, s0),
                     Y[F.graph.any(axis=0)], Y1)
    xdots = dots(X, s0)
    G = (phistar + fsupport).reshape(-1)
    order = np.argsort(G)  # sorted once, so each block's sort in `_candidates` is cheap
    G = G[order]
    pair_j, pair_k = np.divmod(order, Ky)

    # The cells come in blocks of about ten arrays of one entry per cell
    # within the cap, and their candidates in slices of about ten arrays
    # of one entry per triple, plus the x and y rows of its dot products.
    found = np.zeros((len(DEFAULT_ETAS), F.xgrid.size), dtype=bool)
    for gx, gy in graph_cell_blocks(F, 10):
        phig = V[gx, gy]
        for c, at in _candidates(G, margin - (phig - xdots[gx]), 10 + 3 * m + 2 * Y.shape[1]):
            j, k = pair_j[at], pair_k[at]
            Xs, Ys = X[gx[c]], Y[gy[c]]
            ydots = dots(Ys, Y1[k])
            m1 = (phistar[j, k] + phig[c]) - (dots(Xs, X1[j]) + ydots)
            cod = fsupport[j, k] - (dots(Xs, T[j]) - ydots)
            for level_found, bound in zip(found, bounds):
                level_found[gx[c[cod <= bound(m1)]]] = True

    levels = [
        (eta, raw, box_dilate(raw.reshape(F.xgrid.shape)).reshape(-1))
        for eta, raw in zip(DEFAULT_ETAS, found)
    ]
    return _theorem_report(mustar, si, eps, X, levels, _contains, qc14, *named)


def _contains(lhs: np.ndarray, rhs: np.ndarray) -> bool:
    """The sharp direction of the conjugate check: the one-cell dilation
    realizing "cl" can only enlarge the right side, so it is containment of
    the left side, not raw equality of the node masks."""
    return not bool((lhs & ~rhs).any())
