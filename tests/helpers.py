"""Shared generators and independent brute-force oracles for the test suite.

The oracles here are deliberately written as plain Python loops over
definitions, without reusing any vectorized code path from the package,
so that equality between the two is evidence and not tautology.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from marginlab import (
    Axis,
    Grid,
    GriddedFunction,
    SetValuedMap,
    conjugate,
    graph_support,
    marginal,
    parse_spec,
    partial_conjugate,
    product_grid,
    subdiff,
)
from marginlab import expr
from marginlab.conjugate import dots, max_dots_minus, score_slices, unique_rows
from marginlab.core import (
    NODE_TOL,
    TOL,
    Verdict,
    default_names,
    ext_add_arrays,
    hypothesis_verdict,
    max_deviation,
)
from marginlab.errors import NonFiniteExpression
from marginlab.marginal import EpigraphReport
from marginlab.nearconvex import box_dilate
from marginlab.setmap import graph_cell_blocks, split_lattice
from marginlab.subdiff import RestrictedConjugateReport

INF = math.inf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Value quantum: random data live on a dyadic lattice so exact-identity
# checks are meaningful at zero tolerance.
QUANTUM = 2.0**-10


def lower_add(a, b):
    """a + b in the extended reals under lower addition: +inf beats -inf."""
    if a == INF or b == INF:
        return INF
    if a == -INF or b == -INF:
        return -INF
    return a + b


def load_fixture(name):
    """Parsed problem spec for fixtures/<name>.spec."""
    path = FIXTURES / f"{name}.spec"
    return parse_spec(path.read_text(), base_dir=str(FIXTURES), default_name=name)


def fixture_names():
    return sorted(p.stem for p in FIXTURES.glob("*.spec"))


def golden_mismatches(outdir, fixture, case):
    """Report files in `outdir` whose bytes differ from golden/<fixture>/<case>."""
    ref = GOLDEN / fixture / case
    return [
        f"{fixture}/{case}/{fname}"
        for fname in ("report.json", "report.csv")
        if (Path(outdir) / fname).read_bytes() != (ref / fname).read_bytes()
    ]


def dyadic_axis(rng, max_count=9, min_count=2):
    """Axis with a power-of-two step and integer-multiple endpoints."""
    step = 2.0 ** -int(rng.integers(0, 3))
    count = int(rng.integers(min_count, max_count + 1))
    lo = int(rng.integers(-4, 5)) * step
    return Axis(lo, lo + step * (count - 1), count)


def dyadic_grid(rng, dim=1, max_count=9):
    return Grid(tuple(dyadic_axis(rng, max_count) for _ in range(dim)))


def dyadic_rows(rng, k, dim, lo=-64, hi=64):
    """k random dual rows with dyadic coordinates (multiples of 1/16)."""
    return rng.integers(lo, hi + 1, size=(k, dim)).astype(np.float64) / 16.0


def random_values(rng, n, p_inf=0.2, lo=-4096, hi=4096):
    """Dyadic-rational values with a sprinkling of +inf nodes."""
    vals = rng.integers(lo, hi + 1, size=n).astype(np.float64) * QUANTUM
    vals[rng.random(n) < p_inf] = INF
    return vals


def random_function(rng, grid=None, p_inf=0.2, proper=True):
    if grid is None:
        grid = dyadic_grid(rng)
    vals = random_values(rng, grid.size, p_inf)
    if proper and not (vals < INF).any():
        vals[int(rng.integers(0, grid.size))] = 0.0
    return GriddedFunction(grid, vals)


def random_problem(rng, max_count=7, p_inf=0.15, p_drop=0.25, xdim=1, ydim=1):
    """Random instance (phi, F), 1-D/1-D by default, with some infeasible x rows."""
    xgrid = dyadic_grid(rng, dim=xdim, max_count=max_count)
    ygrid = dyadic_grid(rng, dim=ydim, max_count=max_count)
    phi = random_function(rng, product_grid(xgrid, ygrid), p_inf)
    graph = rng.random((xgrid.size, ygrid.size)) >= p_drop
    if not graph.any():
        graph[0, 0] = True
    return phi, SetValuedMap(xgrid, ygrid, graph)


def non_dyadic_problem(rng, dim, scale):
    """Random (phi, F) on axes with non-dyadic ends, phi ~ scale * N(0, 1),
    about a third of the nodes +inf and some graph cells dropped; the first
    node is finite and on the graph, so mu is finite somewhere."""

    def grid():
        axes = []
        for _ in range(dim):
            lo = float(rng.uniform(-2.0, 1.0))
            axes.append(Axis(lo, lo + float(rng.uniform(0.3, 3.0)),
                             int(rng.integers(2, 8 if dim == 1 else 4))))
        return Grid(tuple(axes))

    xgrid, ygrid = grid(), grid()
    vals = scale * rng.normal(size=xgrid.size * ygrid.size)
    vals[rng.random(vals.size) < 0.3] = INF
    graph = rng.random((xgrid.size, ygrid.size)) >= 0.4
    graph[0, 0] = True
    vals[0] = min(vals[0], scale)
    return GriddedFunction(product_grid(xgrid, ygrid), vals), SetValuedMap(xgrid, ygrid, graph)


# --- oracles -------------------------------------------------------------------


def oracle_conjugate(f, s):
    """f*(s) by direct loop over nodes, honoring the infinity conventions."""
    if any(v == -INF for v in f.values):
        return INF
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    best = -INF
    for i in range(f.grid.size):
        v = f.values[i]
        if v == INF:
            continue
        cand = float(np.dot(s, f.grid.coords(i))) - v
        if cand > best:
            best = cand
    return best


def brute_conjugate_at(f, points):
    """The conjugate of f at each dual point by brute force, the oracle of
    `conjugate_at`'s kernel route: the -inf and empty-domain conventions by
    hand, then one `max_dots_minus` score per dual point and domain node."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if (f.values == -INF).any():
        return np.full(points.shape[0], INF)
    dom = f.dom_mask
    if not dom.any():
        return np.full(points.shape[0], -INF)
    return max_dots_minus(points, f.grid.nodes[dom], f.values[dom])


def per_row_partial_conjugate(values, X, Y, xstars, ystars):
    """`partial_conjugate` as it was before fibers, the oracle of its kernel:
    the inner max over y once per domain x row, then the outer max over
    every domain x row, in `score_slices` blocks."""
    values, X, Y, xstars, ystars = (
        np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (values, X, Y, xstars, ystars)
    )
    table = np.full((xstars.shape[0], ystars.shape[0]), -INF)
    keep = np.flatnonzero((values < INF).any(axis=1))
    if keep.size == 0:
        return table
    ydots = dots(ystars[:, None], Y)
    R = np.empty((keep.size, ystars.shape[0]))
    for sl in score_slices(keep.size, ydots.size):
        (ydots[None, :, :] - values[keep[sl]][:, None, :]).max(axis=2, out=R[sl])
    tx = dots(xstars[:, None], X[keep])
    for sl in score_slices(xstars.shape[0], R.size):
        (tx[sl, :, None] + R).max(axis=1, out=table[sl])
    return table


def oracle_marginal(phi, F):
    """Per-x minimum, minimizer set, and status, by plain loops."""
    values, argmins, statuses = [], [], []
    for xi in range(F.xgrid.size):
        cand = {}
        for yi in range(F.ygrid.size):
            if F.graph[xi, yi]:
                cand[yi] = phi.values[xi * F.ygrid.size + yi]
        if not cand or min(cand.values()) == INF:
            values.append(INF)
            argmins.append(())
            statuses.append("infeasible")
            continue
        m = min(cand.values())
        if m == -INF:
            values.append(-INF)
            argmins.append(())
            statuses.append("unbounded")
        else:
            values.append(m)
            argmins.append(tuple(sorted(y for y, v in cand.items() if v == m)))
            statuses.append("attained")
    return values, argmins, statuses


def oracle_subgradient_member(f, xi, s, eps, tol=1e-9):
    """s in the eps-subdifferential at node xi, straight from the inequality."""
    if any(v == -INF for v in f.values):
        return False
    f0 = f.values[xi]
    if f0 == INF:
        return False
    x0 = f.grid.coords(xi)
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    for i in range(f.grid.size):
        v = f.values[i]
        if v == INF:
            continue
        if v < f0 + float(np.dot(s, f.grid.coords(i) - x0)) - eps - tol:
            return False
    return True


def eps_coderivative(F, x0y0, ystar, eps):
    """eps-coderivative D*_eps F(x0, y0)(y*) as a polyhedron in x*-space.

    x* is a member iff (x*, -y*) lies in the eps-normal cone to the graph
    at the graph cell (x0, y0); the halfspaces are
    <x - x0, x*> <= eps + <y*, y - y0> over all graph nodes (x, y).  The
    oracle of the coderivative score the theorem checks read off the graph
    support function.
    """
    x0, y0 = x0y0
    xi, yi = F.xgrid.resolve(x0), F.ygrid.resolve(y0)
    assert F.graph[xi, yi], "(x0, y0) must be a graph cell"
    gx, gy = F.graph_cells
    A = F.xgrid.nodes[gx] - F.xgrid.coords(xi)
    b = eps + dots(F.ygrid.nodes[gy] - F.ygrid.coords(yi), np.asarray(ystar, dtype=np.float64))
    return subdiff.HPolyhedron(A, b)


def oracle_hull_member(points, q, tol=1e-9):
    """q in conv(points) via one feasibility LP (independent of the package)."""
    from scipy.optimize import linprog

    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    n = P.shape[0]
    A_eq = np.vstack([P.T, np.ones((1, n))])
    b_eq = np.concatenate([q, [1.0]])
    res = linprog(
        c=np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n, method="highs"
    )
    return res.status == 0 and res.success


def oracle_inf_convolution(g1, g2, target, tol=1e-9):
    """(g1 box g2)(target) over exact node splits, by plain loops."""
    best = INF
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    for i in range(g1.grid.size):
        for j in range(g2.grid.size):
            if np.abs(g1.grid.coords(i) + g2.grid.coords(j) - t).max() > tol:
                continue
            a, b = g1.values[i], g2.values[j]
            v = INF if (a == INF or b == INF) else a + b
            best = min(best, v)
    return best


# --- LP oracles for polyhedra -----------------------------------------------------
#
# The HiGHS route that `subdiff.is_empty` and `subdiff.feasible_point` took in
# the plane before the polygon route replaced it.  It calls scipy directly,
# so a defect in the package's own `linprog` binding cannot reach it.


def lp_farkas(A, b, tol=1e-9):
    """Feasibility of A s <= b + tol through the normalized Farkas alternative.

    One LP: min lam^T b over lam >= 0 with lam^T A = 0 and sum lam = 1.  The
    system is infeasible exactly when that minimum lies below -tol, and then
    the support of the basic solution lam (at most d+1 rows) certifies it.
    Returns (feasible, support or None).
    """
    from scipy.optimize import linprog

    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if A.shape[0] == 0:
        return True, None
    res = linprog(
        c=b,
        A_eq=np.vstack([A.T, np.ones((1, A.shape[0]))]),
        b_eq=np.concatenate([np.zeros(A.shape[1]), [1.0]]),
        bounds=[(0, None)] * A.shape[0],
        method="highs-ds",
    )
    if res.status == 2:
        return True, None
    assert res.status == 0, res.message
    if res.fun < -tol:
        return False, [int(i) for i in np.flatnonzero(res.x > tol)]
    return True, None


def lp_chebyshev_point(P):
    """The Chebyshev-like centre of P clipped to the box [-1e6, 1e6]^d.

    One LP: the largest radius r in [0, 1] with A s + |a_i| r <= b, so a
    point strictly inside P when P has an interior.  Returns (point, r), or
    (None, None) when the LP finds no point.
    """
    from scipy.optimize import linprog

    norms = np.linalg.norm(P.normals, axis=1)
    c = np.zeros(P.dim + 1)
    c[-1] = -1.0
    res = linprog(
        c=c,
        A_ub=np.hstack([P.normals, norms[:, None]]),
        b_ub=P.offsets,
        bounds=[(-1e6, 1e6)] * P.dim + [(0, 1)],
        method="highs-ds",
    )
    if res.status != 0:
        return None, None
    return res.x[: P.dim].copy(), float(res.x[-1])


# --- the routes the fast paths replaced --------------------------------------------
#
# Each fast path of the package stays only beside the route it replaced,
# kept here verbatim as its oracle: the properties compare the two bitwise.


def broadcast_dots(A, B):
    """`conjugate.dots` as it was: the operands broadcast to full views
    first, then the same +0.0-started coordinate-order sums in
    `score_slices` blocks.  Two bare rows raise IndexError here."""
    A, B = np.broadcast_arrays(np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64))
    out = np.zeros(A.shape[:-1])
    for sl in score_slices(out.shape[0], out[:1].size):
        block = out[sl]
        for k in range(A.shape[-1]):
            block += A[sl, ..., k] * B[sl, ..., k]
    return out


def mesh_columns(texts, grid, names, aliases=None):
    """`core.eval_blocks` as it was, in one block: each expression over
    one table of every node's coordinates (`Grid.mesh()`), whose columns
    are the variables."""
    cols = grid.mesh()
    env = {name: cols[:, k] for k, name in enumerate(names)}
    for alias, target in (aliases or {}).items():
        env[alias] = env[target]
    return [
        np.broadcast_to(
            np.asarray(expr.evaluate(expr.parse_and_check(text, list(env)), env), dtype=np.float64),
            (grid.size,),
        )
        for text in texts
    ]


def mesh_eval_on_grid(text, grid, names=None, aliases=None, domain=()):
    """`core.eval_on_grid` as it was: the constraints, then the expression,
    each evaluated on the whole node table at once."""
    if names is None:
        names, defaults = default_names(grid)
        aliases = {**defaults, **(aliases or {})}
    feasible = np.ones(grid.size, dtype=bool)
    for ctext in domain:
        [cvals] = mesh_columns([ctext], grid, names, aliases)
        with np.errstate(invalid="ignore"):
            feasible &= cvals <= NODE_TOL
    raw = mesh_columns([text], grid, names, aliases)[0].copy()
    bad = feasible & ~np.isfinite(raw)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise NonFiniteExpression(f"{text!r} is not finite at node {grid.coords(node).tolist()}")
    raw[~feasible] = INF
    return GriddedFunction(grid, raw)


def lattice_support(F, at, x1duals, yduals):
    """The graph support at (x* - x1*, -y*) as one table over the distinct
    split-lattice steps, and the inverse index from every step to its row."""
    steps, inverse = unique_rows(split_lattice(at, x1duals))
    return graph_support(F, steps, -yduals.nodes), inverse


def one_table_inf_convolution_min(phistar, fstar, inverse):
    """`tables.inf_convolution_min` as it was: per evaluation point, the
    min over (x1*, y*) of phi* + F* gathered from the whole F* table, in
    `score_slices` blocks of points; +inf phi* wins, and any other
    infinity in either table gives -inf."""
    k1, ky = phistar.shape
    out = np.empty(inverse.shape[0] // k1)
    if np.isinf(phistar).any() or np.isinf(fstar).any():
        out.fill(INF if (phistar == INF).any() else -INF)
        return out
    inverse = inverse.reshape(out.shape[0], k1)
    for sl in score_slices(out.shape[0], k1 * ky):
        block = np.take(fstar, inverse[sl], axis=0)
        block += phistar
        block.min(axis=(1, 2), out=out[sl])
    return out


def full_table_inf_convolution(phi, F, at, x1duals, yduals):
    """`duality.sampled_inf_convolution` as it was: phi* and the whole F*
    table on the distinct lattice steps, then one add-and-min."""
    phistar = partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1), F.xgrid.nodes, F.ygrid.nodes,
        x1duals.nodes, yduals.nodes,
    )
    return one_table_inf_convolution_min(phistar, *lattice_support(F, at, x1duals, yduals))


def per_node_convexity_check(f):
    """`marginal.convexity_check` as it was: one pass per node i over the
    nodes j > i whose midpoint with i is a node."""
    shape = np.array(f.grid.shape)
    n = f.grid.size
    M = np.stack(
        np.meshgrid(*(np.arange(c) for c in shape), indexing="ij"), axis=-1
    ).reshape(n, f.grid.dim)
    v = f.values
    for i in range(n):
        both = (M[i] + M) % 2 == 0
        cand = np.flatnonzero(both.all(axis=1))
        cand = cand[cand > i]
        if cand.size == 0:
            continue
        mids = (M[i] + M[cand]) // 2
        mid_flat = np.ravel_multi_index(mids.T, tuple(shape))
        rhs = ext_add_arrays(0.5 * v[i], 0.5 * v[cand])
        bad = ~(v[mid_flat] <= rhs + TOL)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            return False, (i, int(cand[k]), int(mid_flat[k]))
    return True, None


def per_eps_members(f, xi, sample, epsilons):
    """One eps-subdifferential polyhedron per eps, and its membership scan."""
    return np.array([subdiff.eps_subdifferential(f, xi, e).contains(sample) for e in epsilons])


def per_eps_intervals(f, xi, epsilons):
    """One eps-subdifferential polyhedron per eps, and its exact interval."""
    return [subdiff.eps_subdifferential(f, xi, e).interval() for e in epsilons]


def interval_sum_contains(P, Q, points):
    """`subdiff._minkowski_contains` in dimension 1 as it was: the sum of
    the two exact intervals of P and Q, loosened by TOL."""
    ip, iq = P.interval(), Q.interval()
    if ip.empty or iq.empty:
        return np.zeros(points.shape[0], dtype=bool)
    lo, hi = ip.lo + iq.lo, ip.hi + iq.hi
    s = points[:, 0]
    return (s >= lo - TOL) & (s <= hi + TOL)


def theorem_report_oracle(f, node, eps, sample, lhs_mask, levels, sharp, qc14, upper, claim):
    """`subdiff._theorem_report` as it was: the left side is given, and each
    eta level that finds a point builds its own (eps+eta)-subdifferential."""
    rhs_mask = np.ones(sample.shape[0], dtype=bool)
    easy_ok = eta_monotone_ok = True
    prev = None
    for eta, found, closed in levels:
        if found.any():
            inflated = subdiff.eps_subdifferential(f, node, eps + eta).contains(sample)
            if bool((found & ~inflated).any()):
                easy_ok = False
        if prev is not None and bool((closed & ~prev).any()):
            eta_monotone_ok = False
        prev = closed
        rhs_mask &= closed
    agreement = float((lhs_mask == rhs_mask).mean()) if sample.shape[0] else 1.0
    name, what, note = claim
    return subdiff.TheoremReport(
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


# --- reference scoring of the theorem checks -------------------------------------
#
# The scoring route both theorem checks used before it was pruned: every eta
# level rescores every near-optimal y0 (or graph cell) on the whole (x1*, y*)
# lattice, and every split (e1, e2) is tested on the scores under the
# largest e1 and e2.  The conjugate tables are the package's own; the left
# side is scanned on its own polyhedron, and the report is folded by
# `theorem_report_oracle`, so a report that differs in any field convicts
# the pruned scoring or the shared halfspace table.


def split_hits(m1_base, cod_base, splits):
    """First-axis indices of the broadcast scores with m1 <= e1 and cod <= e2."""
    tol = subdiff.TOL
    near = np.nonzero(
        (m1_base <= max(e1 for e1, _ in splits) + tol)
        & (cod_base <= max(e2 for _, e2 in splits) + tol)
    )
    m1, cod = (a[near] for a in np.broadcast_arrays(m1_base, cod_base))
    hit = np.zeros(m1.shape, dtype=bool)
    for e1, e2 in splits:
        hit |= (m1 <= e1 + tol) & (cod <= e2 + tol)
    return near[0][hit]


def reference_marginal_subdiff_check(phi, F, duals, yduals, x0, eps, qc14=False):
    mu = marginal(phi, F).mu
    xi = F.xgrid.resolve(x0)
    mu0 = mu.values[xi]
    x0c = F.xgrid.coords(xi)
    S = duals.nodes
    Ks = S.shape[0]
    lhs_mask = subdiff.eps_subdifferential(mu, xi, eps).contains(S)
    Y1 = yduals.nodes
    Kx, Ky = Ks, Y1.shape[0]
    T = split_lattice(S, duals)
    phistar = partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1), F.xgrid.nodes, F.ygrid.nodes, S, Y1
    )
    fsupport = graph_support(F, T, -Y1).reshape(Ks, Kx, Ky)
    TX0 = dots(T, x0c).reshape(Ks, Kx)
    phi_row = phi.values.reshape(F.xgrid.size, F.ygrid.size)[xi]
    feas_row = F.graph[xi]
    dots1 = dots(S, x0c)
    levels = []
    for eta in subdiff.DEFAULT_ETAS:
        y_near = np.flatnonzero(feas_row & (phi_row < mu0 + eta))
        eta_mask = np.ones(Ks, dtype=bool)
        for yi in y_near:
            dots2 = dots(Y1, F.ygrid.coords(int(yi)))
            m1_base = phistar + phi_row[yi] - dots1[:, None] - dots2[None, :]
            cod_base = fsupport - TX0[:, :, None] + dots2[None, None, :]
            splits = subdiff._split_pairs(eps + eta, subdiff.THEOREM_SPLITS)
            found = np.zeros(Ks, dtype=bool)
            found[split_hits(m1_base, cod_base, splits)] = True
            eta_mask &= found
        levels.append((eta, eta_mask, eta_mask))
    return theorem_report_oracle(
        mu, xi, eps, S, lhs_mask, levels,
        lambda lhs, rhs: bool(np.array_equal(lhs, rhs)),
        qc14,
        ("marginal_formula_upper", f"{Ks} duals"),
        ("marginal_formula_agreement", "equality", ""),
    )


def reference_conj_subdiff_check(phi, F, duals, yduals, x0star, eps, qc14=False):
    mu = marginal(phi, F).mu
    mustar = conjugate(mu, duals)
    si = duals.resolve(x0star)
    m = F.xgrid.dim
    named = (
        ("conjugate_formula_upper", f"at dual node {si}"),
        ("conjugate_formula_containment", "containment",
         "; closure realized as one-cell dilation"),
    )
    contains = lambda lhs, rhs: not bool((lhs & ~rhs).any())  # noqa: E731
    if not np.isfinite(mustar.values[si]):
        empty = np.zeros((0, m))
        return theorem_report_oracle(
            mustar, si, eps, empty, np.zeros(0, dtype=bool), [], contains, qc14, *named
        )
    s0 = duals.coords(si)
    sample = F.xgrid.nodes
    lhs_mask = subdiff.eps_subdifferential(mustar, si, eps).contains(sample)
    Y1 = yduals.nodes
    X1 = duals.nodes
    T = split_lattice(s0[None, :], duals)
    phistar = partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1), F.xgrid.nodes, F.ygrid.nodes, X1, Y1
    )
    fsupport = graph_support(F, T, -Y1)
    gx, gy = F.graph_cells
    Xg, Yg = F.xgrid.nodes[gx], F.ygrid.nodes[gy]
    phig = phi.values.reshape(F.xgrid.size, F.ygrid.size)[gx, gy]
    ydots = dots(Yg[:, None], Y1)[:, None, :]
    m1_base = phistar + phig[:, None, None] - (dots(Xg[:, None], X1)[:, :, None] + ydots)
    cod_base = fsupport - (dots(Xg[:, None], T)[:, :, None] - ydots)
    levels = []
    for eta in subdiff.DEFAULT_ETAS:
        splits = subdiff._split_pairs(eps + eta, subdiff.THEOREM_SPLITS)
        raw = np.zeros(F.xgrid.size, dtype=bool)
        raw[gx[split_hits(m1_base, cod_base, splits)]] = True
        levels.append((eta, raw, box_dilate(raw.reshape(F.xgrid.shape)).reshape(-1)))
    return theorem_report_oracle(
        mustar, si, eps, sample, lhs_mask, levels, contains, qc14, *named
    )


# --- the checks that read the graph-row minima, on phi's (x, y) table -----------
#
# The routes the domain, epigraph and restricted conjugate checks took
# before they read the store's `graph_minima`: each walks phi and the graph
# mask itself, and reads only mu and mu* from the store.


def graph_walk_domain_identity_check(tables):
    phi, F = tables.phi, tables.F
    lhs = tables.mu.dom_mask
    finite_phi = (phi.values < INF).reshape(F.xgrid.size, F.ygrid.size)
    rhs = (finite_phi & F.graph).any(axis=1)
    if bool((lhs == rhs).all()):
        return True, None
    return False, int(np.flatnonzero(lhs != rhs)[0])


def graph_walk_epigraph_projection_check(tables, lambdas):
    phi, F, mu = tables.phi, tables.F, tables.mu.values
    V = phi.values.reshape(F.xgrid.size, F.ygrid.size)
    violations = []
    checked = 0
    for lam in lambdas:
        strict_proj = (F.graph & (V < lam)).any(axis=1)
        loose_proj = (F.graph & (V <= lam)).any(axis=1)
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


def graph_walk_restricted_conjugate_check(tables):
    """The max over graph cells of <x*, x> - phi(x, y), on the whole table
    of <x*, x> and `graph_cell_blocks` of the cells."""
    phi, F, duals = tables.phi, tables.F, tables.xduals
    lhs = tables.mustar.values
    V = phi.values.reshape(F.xgrid.size, F.ygrid.size)
    D = dots(duals.nodes[:, None], F.xgrid.nodes)
    rhs = np.full(duals.size, -INF)
    for gx, gy in graph_cell_blocks(F, duals.size):
        np.maximum(rhs, (D[:, gx] - V[gx, gy]).max(axis=1), out=rhs)
    ok = bool(np.array_equal(lhs, rhs))
    return RestrictedConjugateReport(
        ok,
        max_deviation(lhs, rhs),
        duals.size,
        tuple(float(v) for v in lhs),
        tuple(float(v) for v in rhs),
        (Verdict("restricted_conjugate_exact", ok, f"{duals.size} dual nodes"),),
    )
