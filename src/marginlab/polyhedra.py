"""Polyhedral geometry: H-polyhedra, their emptiness and feasible points.

An H-polyhedron is {s : A s <= b}.  Membership is a tolerance-1e-9
halfspace scan.  Emptiness is decided on the loosened system
{A s <= b + TOL} and certified by an infeasible subset of <= d+1
constraints (Helly).  In dimension 1 emptiness and feasible points are
exact interval arithmetic.  In dimension 2 they are exact polygon
arithmetic: each polygon is built once by half-plane intersection
(`_polygon`), a feasible point is the mean of its points moved along its
rays, a certificate is found with `_polygon` as the emptiness oracle, and
`_support` reads a support function off the points and rays.  Dimension 3
solves LPs (the Farkas dual for emptiness and its certificates), and scipy
is imported on the first LP a run solves (`linprog` below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conjugate import dots
from .core import INF, TOL, as_rows, lower_chain, sorted_distinct
from .errors import InvalidArgument, MarginlabError, UnsupportedDimension


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Importing scipy.optimize costs more than most runs compute, and only
    emptiness, feasible points and Minkowski membership of d = 3 polyhedra
    and multi-constraint Lagrangian duals need an LP; dimensions 1 and 2
    solve none.  Every LP in the package goes through this one binding.
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


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
