"""Fenchel conjugates, support functions, and infimal convolution on grids.

The conjugate of a gridded f at a dual node s is the exact finite maximum
of <s, x> - f(x) over nodes with f(x) < +inf; sup over an empty domain is
-inf, and any node with f(x) = -inf makes the conjugate identically +inf.
`conjugate_at` takes that maximum by brute force in `max_dots_minus`, one
score per dual point and node.  On product tables of dual rows (x*, y*), `partial_conjugate`
factors it one axis block at a time,

    f*(x*, y*) = max over x of <x*, x> + max over y of (<y*, y> - f(x, y)),

conjugating every y row once and every distinct x* row once; both routes
take the same finite maximum, so they agree bitwise whenever the dot
products are exact (dyadic data).  A linear-time transform (lower convex
hull + monotone merge) reproduces the brute-force values on sorted 1-D
data and separable multi-D data.

The kernels here and their callers block their temporaries under one of
two caps.  A max-plus block only adds, subtracts, takes max or min and
gathers, so its size moves no bit; `score_slices` cuts those blocks to
`_MAXPLUS_CAP` entries, about a cache's worth (`partial_conjugate`, the
inf-convolution in `tables`, the pair scan of the one-constraint dual
value, the coderivative scores of `subdiff.marginal_subdiff_check`).  A
block whose rows reach a matrix product can move the last bit of a dot
product over two or more coordinates, because BLAS rounds a row
differently depending on how the rows are sliced; `max_dots_minus` and
`count_slices` (the scored slices of `subdiff.conj_subdiff_check`) keep
`_BLAS_CAP` entries, so their blocking, and their bits, stay as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INF,
    NODE_TOL,
    ROUNDING_TOL,
    TOL,
    Axis,
    Grid,
    GriddedFunction,
    Verdict,
    ext_add_arrays,
    max_deviation,
)
from .errors import DimensionMismatch, GridMismatch, UnsupportedShape

_CHUNK = 4096
_MAXPLUS_CAP = 65_536  # entries per max-plus temporary (512 KB)
_BLAS_CAP = 1_000_000  # entries per block whose rows reach a matrix product


def _blocks(total: int, size: int):
    """(lo, hi) blocks of at most `size` (>= 2) items covering range(total).

    A one-item last block is pulled back to overlap its neighbour, so no
    block is one item thin unless `total` is 1.
    """
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        yield max(0, min(lo, hi - 2)), hi


def score_slices(total: int, width: int):
    """Consecutive slices of range(total), each holding as many items as
    fit in `_MAXPLUS_CAP` entries at `width` entries per item (at least one).

    For max-plus loops only, whose block size moves no bit; a block whose
    rows reach a matrix product is cut by `_BLAS_CAP` instead.
    """
    step = max(1, _MAXPLUS_CAP // max(1, width))
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


def count_slices(entries: np.ndarray):
    """Consecutive slices of range(len(entries)) whose entries add up to at
    most `_BLAS_CAP`; an item over the cap is a slice of its own.  The
    slices cut dot-product tables, so the cap is the BLAS one."""
    ends = np.cumsum(entries)
    lo = 0
    while lo < ends.size:
        before = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + _BLAS_CAP, side="right")))
        yield slice(lo, hi)
        lo = hi


def max_dots_minus(queries: np.ndarray, points: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """max over rows p of <q, p> - v(p), per query row q.

    All inputs finite; empty `points` yields -inf per query.  Work is
    chunked over queries, and over points when two query rows exceed
    `_BLAS_CAP`, so the score buffer holds at most max(_BLAS_CAP, 4)
    entries.  The blocks are gemm blocks, so the cap is the BLAS one.
    numpy sends a one-row or one-column product to gemv, which can round
    differently from gemm, so no block is that thin unless the whole
    product is.  On dyadic data the chunked maximum equals that of one
    score matrix bitwise; with two or more coordinates BLAS can round a
    row differently under another blocking.  Every chunk reuses one score
    buffer: a new multi-megabyte temporary per chunk often comes back from
    the allocator as fresh pages, and faulting those in costs about as much
    as the arithmetic.
    """
    queries = np.asarray(queries, dtype=np.float64)
    k, n = queries.shape[0], points.shape[0]
    if n == 0:
        return np.full(k, -INF)
    rows = min(_CHUNK, _BLAS_CAP // n)
    cols = n if rows >= 2 else max(2, _BLAS_CAP // 2)
    rows = max(2, rows)
    out = np.full(k, -INF)
    scores = np.empty((min(rows, k), min(cols, n)))
    best = np.empty(min(rows, k))
    for lo, hi in _blocks(k, rows):
        for clo, chi in _blocks(n, cols):
            block = scores[: hi - lo, : chi - clo]
            np.matmul(queries[lo:hi], points[clo:chi].T, out=block)
            block -= vals[clo:chi]
            block.max(axis=1, out=best[: hi - lo])
            np.maximum(out[lo:hi], best[: hi - lo], out=out[lo:hi])
    return out


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows and the inverse index, by bit pattern (0.0 != -0.0).

    Rows come out in the order of `np.unique(bits, axis=0)`, lexicographic
    in the uint64 bit columns, from one lexsort of those columns.
    """
    bits = np.ascontiguousarray(rows, dtype=np.float64).view(np.uint64)
    order = np.lexsort(bits.T[::-1])
    ranked = bits[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first].view(np.float64), inverse


def partial_conjugate(
    values: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    xstars: np.ndarray,
    ystars: np.ndarray,
) -> np.ndarray:
    """f* on the product of x* rows and y* rows; values[i, j] = f(X[i], Y[j]).

    Entry [a, b] is the finite maximum `conjugate_at` takes at the stacked
    point (xstars[a], ystars[b]), with its conventions: -inf anywhere gives
    +inf (its inner max is +inf), no finite value gives -inf.  The inner
    max over y runs once per x node with a finite value, the outer max over
    x once per distinct x* row.  Both dot-product tables are taken whole and
    only the max-plus steps are chunked, in `score_slices` blocks of
    `_MAXPLUS_CAP` entries, so the chunk size changes no bit.
    """
    xstars = np.atleast_2d(np.asarray(xstars, dtype=np.float64))
    ystars = np.atleast_2d(np.asarray(ystars, dtype=np.float64))
    dom = (values < INF).any(axis=1)
    if not dom.any():
        return np.full((xstars.shape[0], ystars.shape[0]), -INF)
    V, Xd = values[dom], X[dom]
    nd, ky = Xd.shape[0], ystars.shape[0]

    dots = ystars @ Y.T
    R = np.empty((nd, ky))
    for sl in score_slices(nd, dots.size):
        (dots[None, :, :] - V[sl, None, :]).max(axis=2, out=R[sl])

    T, inverse = unique_rows(xstars)
    tx = T @ Xd.T
    table = np.empty((T.shape[0], ky))
    for sl in score_slices(T.shape[0], nd * ky):
        (tx[sl, :, None] + R).max(axis=1, out=table[sl])
    return table[inverse]


def _validate_dual(f: GriddedFunction, duals: Grid) -> None:
    if duals.dim != f.grid.dim:
        raise DimensionMismatch(
            f"dual grid is {duals.dim}-dimensional, primal is {f.grid.dim}-dimensional"
        )


def conjugate_at(f: GriddedFunction, points: np.ndarray) -> np.ndarray:
    """Exact conjugate values of f at arbitrary dual points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != f.grid.dim:
        raise DimensionMismatch("dual points and grid dimension disagree")
    if (f.values == -INF).any():
        return np.full(points.shape[0], INF)
    dom = f.dom_mask
    if not dom.any():
        return np.full(points.shape[0], -INF)
    return max_dots_minus(points, f.grid.nodes[dom], f.values[dom])


def conjugate(f: GriddedFunction, duals: Grid) -> GriddedFunction:
    """Brute-force Fenchel conjugate sampled at every dual node."""
    _validate_dual(f, duals)
    vals = conjugate_at(f, duals.nodes)
    return GriddedFunction(duals, vals, provenance="conjugate")


def _lower_hull(x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of the graph points (x ascending)."""
    hx: list[float] = []
    hv: list[float] = []
    for xi, vi in zip(x, v):
        # pop while the incoming slope does not increase (multiplied-out form)
        while len(hx) >= 2 and (hv[-1] - hv[-2]) * (xi - hx[-1]) >= (vi - hv[-1]) * (
            hx[-1] - hx[-2]
        ):
            hx.pop()
            hv.pop()
        hx.append(float(xi))
        hv.append(float(vi))
    return np.asarray(hx), np.asarray(hv)


def _fast_1d(x: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    finite = v < INF
    hx, hv = _lower_hull(x[finite], v[finite])
    if hx.shape[0] == 1:
        return s * hx[0] - hv[0]
    slopes = (hv[1:] - hv[:-1]) / (hx[1:] - hx[:-1])
    j = np.searchsorted(slopes, s, side="right")
    return s * hx[j] - hv[j]


def _separable_parts(f: GriddedFunction) -> list[np.ndarray] | None:
    """Per-axis line samples g_k if f(x) = sum_k g_k(x_k) - (d-1) f(base).

    The base node is the first finite node; returns None if the
    decomposition does not reproduce f (relative tolerance 1e-12,
    infinities must match exactly).
    """
    shape = f.grid.shape
    V = f.reshaped()
    finite = np.isfinite(V)
    if not finite.any():
        return None
    base = np.unravel_index(int(np.argmax(finite.reshape(-1))), shape)
    fbase = V[base]
    parts = []
    for k in range(f.grid.dim):
        sel = list(base)
        sel[k] = slice(None)
        parts.append(np.asarray(V[tuple(sel)], dtype=np.float64))
    total = np.zeros(shape)
    for k, g in enumerate(parts):
        sh = [1] * f.grid.dim
        sh[k] = shape[k]
        total = ext_add_arrays(total, g.reshape(sh))
    total = ext_add_arrays(total, np.full(shape, -(f.grid.dim - 1) * fbase))
    both_inf = (total == INF) & (V == INF)
    scale = np.maximum(1.0, np.abs(V, where=np.isfinite(V), out=np.ones(shape)))
    close = np.isfinite(total) & np.isfinite(V) & (np.abs(total - V) <= 1e-12 * scale)
    if not (both_inf | close).all():
        return None
    return parts + [np.float64(fbase)]


def conjugate_fast(f: GriddedFunction, duals: Grid) -> GriddedFunction:
    """Linear-time Legendre transform; matches `conjugate` within 1e-12.

    1-D data always works.  Multi-D data must be separable (a sum of
    per-axis terms, detected against the data itself); otherwise
    UnsupportedShape is raised.
    """
    _validate_dual(f, duals)
    if (f.values == -INF).any():
        return GriddedFunction(duals, np.full(duals.size, INF), provenance="conjugate_fast")
    if not f.dom_mask.any():
        return GriddedFunction(duals, np.full(duals.size, -INF), provenance="conjugate_fast")
    if f.grid.dim == 1:
        vals = _fast_1d(f.grid.axis_coords[0], f.values, duals.axis_coords[0])
        return GriddedFunction(duals, vals, provenance="conjugate_fast")
    parts = _separable_parts(f)
    if parts is None:
        raise UnsupportedShape(
            "multi-dimensional input is not separable; conjugate_fast handles "
            "1-D or separable data only"
        )
    *gs, fbase = parts
    total = np.zeros(duals.shape)
    for k, g in enumerate(gs):
        part = _fast_1d(f.grid.axis_coords[k], g, duals.axis_coords[k])
        sh = [1] * duals.dim
        sh[k] = duals.shape[k]
        total = ext_add_arrays(total, part.reshape(sh))
    total = ext_add_arrays(total, np.full(duals.shape, (f.grid.dim - 1) * float(fbase)))
    return GriddedFunction(duals, total.reshape(-1), provenance="conjugate_fast")


def biconjugate(f: GriddedFunction, duals: Grid) -> GriddedFunction:
    """Conjugate of the conjugate, sampled back on the primal grid."""
    fstar = conjugate(f, duals)
    back = conjugate(fstar, f.grid)
    return GriddedFunction(f.grid, back.values, provenance="biconjugate")


# --- checks of a conjugate table ----------------------------------------------


@dataclass(frozen=True)
class FastConjugateReport:
    """`conjugate_fast` against a brute-force conjugate table: the fast
    table and its largest deviation, both None where it does not apply."""

    fast: GriddedFunction | None
    max_deviation: float | None
    verdicts: tuple[Verdict, ...]


def fast_conjugate_check(f: GriddedFunction, fstar: GriddedFunction) -> FastConjugateReport:
    """`conjugate_fast` of f on the grid of fstar, the brute-force conjugate:
    they agree within ROUNDING_TOL, the rounding by which the two routes differ.
    The row is INFO, with the reason, where the fast route does not apply."""
    name = "fast_matches_bruteforce"
    try:
        fast = conjugate_fast(f, fstar.grid)
    except UnsupportedShape as e:
        return FastConjugateReport(None, None, (Verdict(name, None, str(e)),))
    dev = max_deviation(fstar.values, fast.values)
    row = Verdict(name, dev <= ROUNDING_TOL, f"max deviation {dev:.3g}")
    return FastConjugateReport(fast, dev, (row,))


def fenchel_young_check(f: GriddedFunction, fstar: GriddedFunction) -> Verdict:
    """f(x) + f*(s) >= <s, x> over every pair of finite nodes, within TOL."""
    finx, fins = f.finite_mask, fstar.finite_mask
    if not finx.any() or not fins.any():
        return Verdict("fenchel_young", True)
    pair = fstar.grid.nodes[fins] @ f.grid.nodes[finx].T
    total = fstar.values[fins][:, None] + f.values[finx][None, :]
    return Verdict("fenchel_young", bool(np.all(total >= pair - TOL)))


def biconjugate_minorant_check(f: GriddedFunction, fstarstar: GriddedFunction) -> Verdict:
    """The biconjugate table lies below f at every node, within TOL."""
    return Verdict("biconjugate_minorant", bool(np.all(fstarstar.values <= f.values + TOL)))


def support_function(points: np.ndarray, duals: Grid) -> GriddedFunction:
    """Support function of a finite point set at every dual node."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.size == 0:
        return GriddedFunction(duals, np.full(duals.size, -INF), provenance="support")
    if points.shape[1] != duals.dim:
        raise DimensionMismatch("points and dual grid dimension disagree")
    vals = max_dots_minus(duals.nodes, points, np.zeros(points.shape[0]))
    return GriddedFunction(duals, vals, provenance="support")


def inf_convolution(
    g1: GriddedFunction, g2: GriddedFunction, out: Grid
) -> GriddedFunction:
    """Exact infimal convolution onto `out` grid nodes.

    A split (x1, x2) is admissible for an out node x when x1 + x2 matches x
    within NODE_TOL per coordinate; nodes with no admissible split fall back to
    the nearest pairwise sum (reported in provenance) when one exists
    within the out box, else stay +inf.
    """
    if g1.grid != g2.grid:
        raise GridMismatch("inf_convolution inputs must share one grid")
    X = g1.grid.nodes
    n = g1.grid.size
    acc = np.full(out.size, INF)
    lo = np.array([a.lo for a in out.axes])
    step = np.array([a.step for a in out.axes])
    counts = np.array(out.shape)
    for i in range(n):
        sums = X[i] + X
        idx = np.rint((sums - lo) / step).astype(np.int64)
        inside = ((idx >= 0) & (idx < counts)).all(axis=1)
        if not inside.any():
            continue
        recon = lo + idx[inside] * step
        ok = np.abs(recon - sums[inside]).max(axis=1) <= NODE_TOL
        if not ok.any():
            continue
        flat = np.ravel_multi_index(idx[inside][ok].T, out.shape)
        vals = ext_add_arrays(g1.values[i], g2.values[inside][ok])
        np.minimum.at(acc, flat, vals)
    missing = np.flatnonzero(acc == INF)
    relaxed = 0
    if missing.size:
        lo1 = np.array([a.lo for a in g1.grid.axes])
        step1 = np.array([a.step for a in g1.grid.axes])
        counts1 = np.array(g1.grid.shape)
        for m in missing:
            t = out.coords(int(m))
            best = (INF, None)
            for i in range(n):
                r = t - X[i]
                j_multi = np.clip(np.rint((r - lo1) / step1).astype(np.int64), 0, counts1 - 1)
                dist = float(np.abs(lo1 + j_multi * step1 - r).max())
                if dist < best[0] - ROUNDING_TOL:
                    best = (dist, (i, int(np.ravel_multi_index(j_multi, g1.grid.shape))))
            if best[1] is not None:
                i, j = best[1]
                acc[m] = ext_add_arrays(g1.values[i], g2.values[j])
                relaxed += 1
    prov = "inf_convolution"
    if relaxed:
        prov += f" ({relaxed} out node(s) relaxed to nearest pairwise sum)"
    return GriddedFunction(out, acc, provenance=prov)


def default_dual_grid(f: GriddedFunction, count: int | None = None) -> Grid:
    """Symmetric dual box covering the max finite secant slope per axis.

    The bound is rounded up to the next power of two (at least 1) so that
    dyadic data keeps exact dual nodes; counts default to the primal count,
    bumped to odd so the origin is a node.
    """
    V = f.reshaped()
    axes = []
    for k, ax in enumerate(f.grid.axes):
        with np.errstate(invalid="ignore"):
            d = np.diff(V, axis=k)
        lead = np.isfinite(np.moveaxis(V, k, 0)[:-1])
        trail = np.isfinite(np.moveaxis(V, k, 0)[1:])
        both = np.moveaxis(lead & trail, 0, k)
        slopes = np.abs(d[both]) / ax.step if both.any() else np.array([1.0])
        m = max(float(slopes.max()), 1.0)
        bound = 2.0 ** math.ceil(math.log2(m)) if m > 1.0 else 1.0
        if bound < m:
            bound *= 2.0
        c = count if count is not None else ax.count
        if c % 2 == 0:
            c += 1
        axes.append(Axis(-bound, bound, max(3, c)))
    return Grid(tuple(axes))


def default_ydual_grid(
    phi: GriddedFunction, m: int, count: int | None = None
) -> Grid:
    """The y-dual part of phi's default box: its axes after the first m."""
    return Grid(default_dual_grid(phi, count).axes[m:])
