"""Fenchel conjugates, support functions, and infimal convolution on grids.

The conjugate of a gridded f at a dual node s is the exact finite maximum
of <s, x> - f(x) over nodes with f(x) < +inf; sup over an empty domain is
-inf, and any node with f(x) = -inf makes the conjugate identically +inf.
Every conjugate here comes from one kernel, `conjugate_blocks`, behind
`partial_conjugate`; on product tables of dual rows (x*, y*) it factors
the maximum one axis block at a time,

    f*(x*, y*) = max over x of <x*, x> + max over y of (<y*, y> - f(x, y)),

conjugating each fiber of bit-identical x rows once and every x* row
once.  `conjugate_at` and `support_function` run it on a y axis with no
coordinates (`_NO_Y`), where `dots` gives +0.0: the inner max is -f(x)
exactly, so a score fl(<s, x> + (-f(x))) is the score fl(<s, x> - f(x))
of the brute-force `max_dots_minus`, which `setmap.map_conjugate_at`
keeps.  A linear-time
transform (lower convex hull + monotone merge) reproduces the brute-force
values on sorted 1-D data and separable multi-D data.

Every float dot product here, and everywhere else in the package, comes
from `dots`: a sum from +0.0 over the per-coordinate products in
coordinate order, so an entry's bits depend on its two rows alone and not
on the table or block it is computed in.  It pads its operands with
leading axes of length 1 instead of broadcasting copies of them, and
refuses rows of different lengths.  The kernels and their callers
cut their temporaries into blocks so that the temporaries one loop holds
at once stay within `_BLOCK_CAP` entries together, about a cache's worth
(`score_slices`, `count_slices`); a block only takes dot products, adds,
subtracts, takes max or min and gathers, so its size moves no bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    as_point,
    as_rows,
    ext_add_arrays,
    lower_chain,
    max_deviation,
)
from .errors import DimensionMismatch, GridMismatch, InvalidArgument, UnsupportedShape

_BLOCK_CAP = 65_536  # entries per blocked temporary (512 KB)
_NO_Y = np.zeros((1, 0))  # one y node with no coordinates: f(x, y) = f(x)
_MIX = 0x1E3779B97F4A7C15  # odd, so every hash multiplier is odd


def score_slices(total: int, width: int):
    """Consecutive slices of range(total), each holding as many items as
    fit in `_BLOCK_CAP` entries at `width` entries per item (at least one)."""
    step = max(1, _BLOCK_CAP // max(1, width))
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


def dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis of A and B, their other axes broadcast:
    `dots(A[:, None], B)` is the table of every row of A against every row
    of B, `dots(A, b)` one value per row of A, `dots(A, B)` on equal row
    counts one value per pair of rows in order, and `dots(a, b)` of two
    rows a 0-d value.  Rows of different lengths raise DimensionMismatch;
    a row of one coordinate is never stretched.

    Each value starts from +0.0 and adds the per-coordinate products in
    coordinate order, so it depends only on its two rows: the same bits in
    any table, block or pairing that holds them.  Where every product and
    partial sum is exact (dyadic data) the table equals `A @ B.T` bit for
    bit, signed zeros included, because the +0.0 start turns a -0.0
    product into 0.0.  The operands get leading axes of length 1, not
    broadcast copies, and the result is built in `score_slices` blocks
    along its first axis, so a product temporary stays within the cap.
    """
    A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    if min(A.ndim, B.ndim) == 0 or A.shape[-1] != B.shape[-1]:
        raise DimensionMismatch(f"dot product of rows of shapes {A.shape[-1:]} and {B.shape[-1:]}")
    lead = np.broadcast_shapes(A.shape[:-1], B.shape[:-1])
    out = np.zeros(lead or (1,))
    A, B = (M.reshape((1,) * (out.ndim + 1 - M.ndim) + M.shape) for M in (A, B))
    for sl in score_slices(out.shape[0], out[:1].size):
        a, b = (M[sl] if M.shape[0] > 1 else M for M in (A, B))
        block = out[sl]
        for k in range(A.shape[-1]):
            block += a[..., k] * b[..., k]
    return out.reshape(lead)


def count_slices(entries: np.ndarray):
    """Consecutive slices of range(len(entries)) whose entries add up to at
    most `_BLOCK_CAP`; an item over the cap is a slice of its own."""
    ends = np.cumsum(entries)
    lo = 0
    while lo < ends.size:
        before = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + _BLOCK_CAP, side="right")))
        yield slice(lo, hi)
        lo = hi


def max_dots_minus(queries: np.ndarray, points: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """max over rows p of <q, p> - v(p), per query row q, by brute force.

    Every entry must be finite; empty `points` yields -inf per query.  The scores
    are taken in blocks of at most `_BLOCK_CAP` entries, over points as
    well when one query row exceeds the cap; each score is `dots` of its
    two rows, so the blocked maximum equals that of one score matrix
    bitwise.  `conjugate_at` takes these scores in the kernel, on a y axis
    with no coordinates; only `setmap.map_conjugate_at` calls this.
    """
    points = as_rows(points, None, "points")
    queries = as_rows(queries, points.shape[1], "queries")
    vals = as_point(vals, points.shape[0], "point values")
    n = points.shape[0]
    out = np.full(queries.shape[0], -INF)
    for lo in range(0, n, _BLOCK_CAP):
        P, v = points[lo : lo + _BLOCK_CAP], vals[lo : lo + _BLOCK_CAP]
        for sl in score_slices(queries.shape[0], P.shape[0]):
            np.maximum(out[sl], (dots(queries[sl, None], P) - v).max(axis=1), out=out[sl])
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


def _fibers(rows, keep: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(at, starts): the rows `keep` ordered so that rows with bit-identical
    `rows(at)` rows (`width` entries) are consecutive, and where each run
    starts.  Rows are hashed in `score_slices` blocks: the wrapped sum of
    each word w ^ (w >> 32), a bijection that keeps a float's sign and
    exponent from being shifted out of the product, times an odd,
    pseudo-random multiplier per column (`_MIX` = 0: every row collides).
    A row whose hash only collides with its run's first row is split off
    into a run of its own.  No table of the rows is built.
    """
    n = keep.size

    def bits(at):
        return rows(keep[at]).view(np.uint64)

    mult = np.arange(1, width + 1, dtype=np.uint64) * _MIX
    mult ^= mult >> 32
    mult = (mult | 1) * _MIX
    h = np.empty(n, dtype=np.uint64)
    for sl in score_slices(n, 2 * width):
        words = bits(sl)  # rows(at) copies, as indexing by an array does
        words ^= words >> 32
        words *= mult
        words.sum(axis=1, out=h[sl])
    order = np.argsort(h, kind="stable")
    h = h[order]
    start = np.ones(n, dtype=bool)
    start[1:] = h[1:] != h[:-1]
    joins = np.flatnonzero(~start)
    head = np.flatnonzero(start)[np.cumsum(start)[joins] - 1]  # each joining row's run head
    split = np.zeros(n, dtype=bool)
    for sl in score_slices(joins.size, 3 * width):
        split[joins[sl]] = (bits(order[joins[sl]]) != bits(order[head[sl]])).any(axis=1)
    order = np.concatenate([order[~split], order[split]])
    start = np.concatenate([start[~split], np.ones(np.count_nonzero(split), dtype=bool)])
    return keep[order], np.flatnonzero(start)


def conjugate_blocks(rows, dom: np.ndarray, X, Y, xstars, ystars):
    """f* on the product of x* rows and y* rows, as consecutive blocks
    (slice of x* rows, their table rows) of `partial_conjugate`'s table.

    `dom` marks the x nodes where f has a value below +inf, and `rows(at)`
    returns f's values on the x nodes of the index array `at`, one column
    per y node, so no table of f is built.  The inner max over y runs once
    per fiber of bit-identical rows (`_fibers`), when this is called; each
    block of x* rows then takes the max of its dot products over each
    fiber's nodes, and the outer max over fibers of that max plus the
    fiber's inner max.  fl(t + r) is non-decreasing in t, and neither term
    is -0.0, so max over a fiber of fl(t + r) = fl(max t + r) bit for bit.
    The fibers are cut into blocks (`count_slices`) and the x* rows into
    blocks, so that one step's dot products (with `dots`' product
    temporary), fiber maxima, 3-D sum, its max and the table rows fit in
    the cap together; a fiber over the cap is a block of its own.  Each
    step folds its max into the table rows with `np.maximum`, which is
    exact, so no block size moves a bit.  The table rows are a view of
    one buffer that the next block overwrites.
    """
    k, ky = xstars.shape[0], ystars.shape[0]
    if not dom.any():
        return ((sl, np.full((sl.stop - sl.start, ky), -INF)) for sl in score_slices(k, ky))
    at, starts = _fibers(rows, np.flatnonzero(dom), Y.shape[0])
    ydots = dots(ystars[:, None], Y)
    R = np.empty((starts.size, ky))
    for sl in score_slices(starts.size, ydots.size + Y.shape[0]):
        (ydots[None, :, :] - rows(at[starts[sl]])[:, None, :]).max(axis=2, out=R[sl])
    Xg, bounds = X[at], np.append(starts, at.size)
    entries = 2 * np.diff(bounds) + 1 + ky  # per fiber and x* row
    fibers = list(count_slices(entries))
    width = max(int(entries[fs].sum()) for fs in fibers) + 2 * ky
    parts = [(Xg[bounds[fs.start] : bounds[fs.stop]], starts[fs] - bounds[fs.start], R[fs])
             for fs in fibers]

    def blocks():
        buf = np.empty((next(score_slices(k, width), slice(0)).stop, ky))
        for sl in score_slices(k, width):
            table = buf[: sl.stop - sl.start]
            table.fill(-INF)
            for Xf, sf, Rf in parts:
                tx = np.maximum.reduceat(dots(xstars[sl, None], Xf), sf, axis=1)
                np.maximum(table, (tx[:, :, None] + Rf).max(axis=1), out=table)
            yield sl, table

    return blocks()


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
    max over y runs once per fiber of bit-identical domain rows, the outer
    max over x once per x* row (callers pass distinct ones), and `values`
    is not copied.  Both dot-product
    tables come from `dots`, and both maxima run in blocks, so the block
    size changes no bit: the table is the assembly of the
    blocks of `conjugate_blocks`.  No entry is -0.0: `dots` starts from
    +0.0, a difference ydots - f is -0.0 only if ydots is, and a sum
    tx + R only if both terms are.  On a y axis with no coordinates ydots
    is +0.0, so the inner max is -f exactly: that is `conjugate_at`.
    """
    X, Y = as_rows(X, None, "x nodes"), as_rows(Y, None, "y nodes")
    values = as_rows(values, Y.shape[0], "values (one column per y node)", finite=False)
    if values.shape[0] != X.shape[0]:
        raise DimensionMismatch(f"values: {values.shape[0]} rows, expected one per x node")
    xstars = as_rows(xstars, X.shape[1], "x* rows")
    ystars = as_rows(ystars, Y.shape[1], "y* rows")
    dom = (values < INF).any(axis=1)
    table = np.empty((xstars.shape[0], ystars.shape[0]))
    for sl, rows in conjugate_blocks(values.__getitem__, dom, X, Y, xstars, ystars):
        table[sl] = rows
    return table


def conjugate_at(f: GriddedFunction, points: np.ndarray) -> np.ndarray:
    """Exact conjugate values of f at arbitrary dual points, bitwise the
    brute-force max of <s, x> - f(x): `partial_conjugate` with no y axis."""
    points = as_rows(points, f.grid.dim, "dual points")
    return partial_conjugate(f.values[:, None], f.grid.nodes, _NO_Y, points, _NO_Y)[:, 0]


def conjugate(f: GriddedFunction, duals: Grid) -> GriddedFunction:
    """Exact Fenchel conjugate sampled at every dual node (`conjugate_at`)."""
    vals = conjugate_at(f, duals.nodes)
    return GriddedFunction(duals, vals)


def _fast_1d(x: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    finite = v < INF
    x, v = x[finite], v[finite]
    hull = lower_chain(x, v)
    hx, hv = x[hull], v[hull]
    if hx.shape[0] == 1:
        return s * hx[0] - hv[0]
    slopes = (hv[1:] - hv[:-1]) / (hx[1:] - hx[:-1])
    j = np.searchsorted(slopes, s, side="right")
    return s * hx[j] - hv[j]


def _separable_parts(f: GriddedFunction) -> list[np.ndarray] | None:
    """Per-axis line samples g_k if f(x) = sum_k g_k(x_k) - (d-1) f(base).

    The base node is the first finite node, which `conjugate_fast` ensures
    exists; returns None if the decomposition does not reproduce f
    (relative tolerance 1e-12, infinities must match exactly).
    """
    shape = f.grid.shape
    V = f.reshaped()
    finite = np.isfinite(V)
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
    if duals.dim != f.grid.dim:
        raise DimensionMismatch(f"dual nodes: {duals.dim} coordinates, expected {f.grid.dim}")
    if (f.values == -INF).any():
        return GriddedFunction(duals, np.full(duals.size, INF))
    if not f.dom_mask.any():
        return GriddedFunction(duals, np.full(duals.size, -INF))
    if f.grid.dim == 1:
        vals = _fast_1d(f.grid.axis_coords[0], f.values, duals.axis_coords[0])
        return GriddedFunction(duals, vals)
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
    return GriddedFunction(duals, total.reshape(-1))


def biconjugate(f: GriddedFunction, duals: Grid) -> GriddedFunction:
    """Conjugate of the conjugate, sampled back on the primal grid."""
    fstar = conjugate(f, duals)
    back = conjugate(fstar, f.grid)
    return GriddedFunction(f.grid, back.values)


# --- checks of a conjugate table ----------------------------------------------


class FastConjugateReport(NamedTuple):
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
    pair = dots(fstar.grid.nodes[fins][:, None], f.grid.nodes[finx])
    total = fstar.values[fins][:, None] + f.values[finx][None, :]
    return Verdict("fenchel_young", bool(np.all(total >= pair - TOL)))


def biconjugate_minorant_check(f: GriddedFunction, fstarstar: GriddedFunction) -> Verdict:
    """The biconjugate table lies below f at every node, within TOL."""
    return Verdict("biconjugate_minorant", bool(np.all(fstarstar.values <= f.values + TOL)))


def support_function(points: np.ndarray, duals: Grid) -> GriddedFunction:
    """Support function of a finite point set at every dual node: the
    conjugate of its indicator, by the kernel of `conjugate_at`."""
    points = as_rows(points, duals.dim, "points")
    zeros = np.zeros((points.shape[0], 1))
    vals = partial_conjugate(zeros, points, _NO_Y, duals.nodes, _NO_Y)[:, 0]
    return GriddedFunction(duals, vals)


def inf_convolution(
    g1: GriddedFunction, g2: GriddedFunction, out: Grid
) -> GriddedFunction:
    """Exact infimal convolution onto `out` grid nodes.

    A split (x1, x2) is admissible for an out node x when x1 + x2 matches x
    within NODE_TOL per coordinate; nodes with no admissible split stay +inf,
    the infimum over the empty set.
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
    return GriddedFunction(out, acc)


def _dual_axes(f: GriddedFunction, ks, count: int | None, name: str) -> tuple[Axis, ...]:
    """The axes of `default_dual_grid` for the axes ks of f's grid, the
    j-th of them named `name` j in the refusal of a slope whose box is
    not finite."""
    V = f.reshaped()
    axes = []
    for j, k in enumerate(ks, 1):
        ax = f.grid.axes[k]
        with np.errstate(invalid="ignore"):
            d = np.diff(V, axis=k)
        lead = np.isfinite(np.moveaxis(V, k, 0)[:-1])
        trail = np.isfinite(np.moveaxis(V, k, 0)[1:])
        both = np.moveaxis(lead & trail, 0, k)
        slopes = np.abs(d[both]) / ax.step if both.any() else np.array([1.0])
        m = max(float(slopes.max()), 1.0)
        bound = INF  # past the largest float, as 2.0 ** 1024 would be
        if m <= 2.0**1023:
            bound = 2.0 ** math.ceil(math.log2(m)) if m > 1.0 else 1.0
            if bound < m:
                bound *= 2.0
        c = count if count is not None else ax.count
        if c % 2 == 0:
            c += 1
        c = max(3, c)
        if not math.isfinite(2.0 * bound * (c - 1)):  # the node offsets of Axis(-bound, bound, c)
            raise InvalidArgument(
                f"{name} {j}: a secant slope of {m:.3g} leaves no finite default dual box"
                f" of {c} nodes; give the dual grid"
            )
        axes.append(Axis(-bound, bound, c))
    return tuple(axes)


def default_dual_grid(f: GriddedFunction, count: int | None = None) -> Grid:
    """Symmetric dual box covering the max finite secant slope per axis.

    The bound is rounded up to the next power of two (at least 1) so that
    dyadic data keeps exact dual nodes; counts default to the primal count,
    bumped to odd so the origin is a node.  A slope whose box overflows
    raises InvalidArgument naming its axis.
    """
    return Grid(_dual_axes(f, range(f.grid.dim), count, "x axis"))


def default_ydual_grid(
    phi: GriddedFunction, m: int, count: int | None = None
) -> Grid:
    """The y-dual part of phi's default box: its axes after the first m,
    the only ones whose slopes are taken."""
    return Grid(_dual_axes(phi, range(m, phi.grid.dim), count, "y axis"))
