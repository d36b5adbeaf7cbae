"""Shared generators and independent brute-force oracles for the test suite.

The oracles here are deliberately written as plain Python loops over
definitions, without reusing any vectorized code path from the package,
so that equality between the two is evidence and not tautology.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from marginlab import Axis, Grid, GriddedFunction, SetValuedMap, parse_spec

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
    from marginlab import product_grid

    phi = random_function(rng, product_grid(xgrid, ygrid), p_inf)
    graph = rng.random((xgrid.size, ygrid.size)) >= p_drop
    if not graph.any():
        graph[0, 0] = True
    return phi, SetValuedMap(xgrid, ygrid, graph)


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
