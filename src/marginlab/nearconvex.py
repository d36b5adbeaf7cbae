"""Raster sets, one-cell topology, and int-near-convexity checks.

A RasterSet is a boolean mask over grid nodes.  Topology is approximated
by box morphology: closure = one-cell dilation clipped to the window,
interior = one-cell erosion where window-border nodes are never interior
(their full neighborhood must lie in the raster).  Convexity is decided
exactly: a mask is convex-flagged iff it equals the rasterization of the
integer convex hull of its true node indices (no floating-point hulls;
degenerate point sets are reduced to their affine rank first).

A set is int-nearly convex iff its closure is convex-flagged, the
interior of the closure is nonempty, and that interior lies inside the
set.  Intersection and linear-image preservation checks build on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .conjugate import dots
from .core import Axis, Grid, Verdict, lower_chain, sorted_distinct
from .errors import (
    DimensionMismatch,
    GridMismatch,
    HypothesisNotMet,
    InvalidArgument,
    MarginlabError,
    NotNodePreserving,
    RasterError,
    UnsupportedDimension,
)

_COORD_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RasterSet:
    """Boolean membership per grid node, stored in grid shape."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise GridMismatch(
                f"mask shape {m.shape} does not match grid shape {self.grid.shape}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    def true_indices(self) -> np.ndarray:
        """Integer index vectors of true nodes, row-major order."""
        return np.argwhere(self.mask).astype(np.int64)

    def flat(self) -> np.ndarray:
        return self.mask.reshape(-1)

    def same_mask(self, other: "RasterSet") -> bool:
        return self.grid == other.grid and bool(np.array_equal(self.mask, other.mask))


def _along(ax: int, ndim: int, sl: slice) -> tuple[slice, ...]:
    return tuple(sl if a == ax else slice(None) for a in range(ndim))


def box_dilate(mask: np.ndarray) -> np.ndarray:
    """Dilation by the 3^d box, clipped to the window (nothing outside it).

    The box is the product of one 3-cell segment per axis, so the dilation
    is one shift-OR pass per axis.
    """
    out = np.array(mask, dtype=bool)
    for ax in range(out.ndim):
        lo = _along(ax, out.ndim, slice(None, -1))
        hi = _along(ax, out.ndim, slice(1, None))
        grown = out.copy()
        grown[lo] |= out[hi]
        grown[hi] |= out[lo]
        out = grown
    return out


def box_erode(mask: np.ndarray) -> np.ndarray:
    """Erosion by the 3^d box; nodes on the window border are never kept.

    A node survives iff its whole box lies in the mask, i.e. it is not in
    the dilation of the complement; the window's outside counts as absent.
    """
    out = ~box_dilate(~np.asarray(mask, dtype=bool))
    for ax in range(out.ndim):
        out[_along(ax, out.ndim, slice(None, 1))] = False
        out[_along(ax, out.ndim, slice(-1, None))] = False
    return out


def closure(S: RasterSet) -> RasterSet:
    """One-cell box dilation, clipped to the grid window."""
    return RasterSet(S.grid, box_dilate(S.mask))


def interior(S: RasterSet) -> RasterSet:
    """One-cell box erosion; border nodes are never interior."""
    return RasterSet(S.grid, box_erode(S.mask))


# --- exact integer hulls ---------------------------------------------------------


def _echelon_int(D: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon of integer rows; returns (rows, pivot cols)."""
    ech: list[list[int]] = []
    piv: list[int] = []
    width = D.shape[1]
    for raw in D:
        r = [int(v) for v in raw]
        for e, pc in zip(ech, piv):
            if r[pc] != 0:
                f1, f2 = e[pc], r[pc]
                r = [a * f1 - b * f2 for a, b in zip(r, e)]
        nz = [abs(v) for v in r if v != 0]
        if not nz:
            continue
        g = 0
        for v in nz:
            g = math.gcd(g, v)
        r = [v // g for v in r]
        j = next(i for i, v in enumerate(r) if v != 0)
        if r[j] < 0:
            r = [-v for v in r]
        ech.append(r)
        piv.append(j)
        if len(piv) == width:
            break
    return ech, piv


def _in_rowspan(ech: list[list[int]], piv: list[int], V: np.ndarray) -> np.ndarray:
    """Which integer rows of V lie in the rational row span of the echelon."""
    W = V.astype(np.int64).copy()
    for e, pc in zip(ech, piv):
        coef = W[:, pc].copy()
        W = W * int(e[pc]) - np.outer(coef, np.asarray(e, dtype=np.int64))
    return (W == 0).all(axis=1)


def _hull1(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    lo, hi = int(pts.min()), int(pts.max())
    q = queries[:, 0]
    return (q >= lo) & (q <= hi)


def _hull2_vertices(pts: np.ndarray) -> list[tuple[int, int]]:
    """Monotone chain over integer pairs; counterclockwise, no collinear."""
    P = sorted({(int(a), int(b)) for a, b in pts})
    if len(P) <= 2:
        return P
    x, y = zip(*P)
    lower = lower_chain(x, y)
    upper = lower_chain(x[::-1], y[::-1])
    return [P[i] for i in lower[:-1]] + [P[-1 - i] for i in upper[:-1]]


def _hull2(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    hull = _hull2_vertices(pts)
    ok = np.ones(queries.shape[0], dtype=bool)
    n = len(hull)
    for i in range(n):
        a = np.asarray(hull[i], dtype=np.int64)
        b = np.asarray(hull[(i + 1) % n], dtype=np.int64)
        e = b - a
        rel = queries - a
        ok &= e[0] * rel[:, 1] - e[1] * rel[:, 0] >= 0
    return ok


def _facets3(pts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Supporting facet planes (integer normal, anchor) of a rank-3 point set.

    Candidate triangles come from Qhull; each is re-verified with integer
    arithmetic (all points weakly on one side) before use, so the final
    membership test is exact.  If every candidate fails verification, all
    triples of hull vertices are scanned instead.
    """
    from scipy.spatial import ConvexHull, QhullError

    def try_facet(ia: int, ib: int, ic: int):
        a, b, c = pts[ia], pts[ib], pts[ic]
        n = np.cross(b - a, c - a)
        if not n.any():
            return None
        dots = (pts - a) @ n
        if (dots <= 0).all():
            return n, a
        if (dots >= 0).all():
            return -n, a
        return None

    candidates: list[tuple[int, int, int]] = []
    vertices = np.arange(pts.shape[0])
    try:
        qh = ConvexHull(pts.astype(np.float64))
        candidates = [tuple(int(v) for v in s) for s in qh.simplices]
        vertices = qh.vertices
    except QhullError:  # a degenerate input for Qhull: scan every triple
        pass
    facets = [f for f in (try_facet(*tri) for tri in candidates) if f is not None]
    if not facets:
        for tri in combinations([int(v) for v in vertices], 3):
            f = try_facet(*tri)
            if f is not None:
                facets.append(f)
    if not facets:
        raise MarginlabError("failed to enumerate hull facets of a rank-3 point set")
    return facets


def _hull3(pts: np.ndarray, queries: np.ndarray) -> np.ndarray:
    ok = np.ones(queries.shape[0], dtype=bool)
    for n, a in _facets3(pts):
        ok &= (queries - a) @ n <= 0
    return ok


def hull_mask(points_idx: np.ndarray, queries_idx: np.ndarray) -> np.ndarray:
    """Exact membership of integer queries in conv(points), any rank, d <= 3.

    Rank-deficient point sets are handled by restricting to the affine
    span (integer row-span test) and projecting onto the echelon pivot
    coordinates, an injective map on that span.
    """
    pts = np.asarray(points_idx, dtype=np.int64)
    qs = np.asarray(queries_idx, dtype=np.int64)
    if pts.size == 0:
        return np.zeros(len(queries_idx), dtype=bool)
    pts = pts.reshape(len(points_idx), -1)
    qs = qs.reshape(len(queries_idx), -1)
    d = pts.shape[1]
    if d > 3:
        raise UnsupportedDimension("integer hulls are limited to d <= 3")
    p0 = pts[0]
    ech, piv = _echelon_int(pts - p0)
    rank = len(piv)
    if rank == 0:
        return (qs == p0).all(axis=1)
    in_span = _in_rowspan(ech, piv, qs - p0)
    sub_p = pts[:, piv]
    sub_q = qs[:, piv]
    if rank == 1:
        inside = _hull1(sub_p, sub_q)
    elif rank == 2:
        inside = _hull2(sub_p, sub_q)
    else:
        inside = _hull3(sub_p, sub_q)
    return in_span & inside


def hull_raster(S: RasterSet) -> RasterSet:
    """Rasterization of the integer hull of the true nodes of S."""
    all_idx = np.argwhere(np.ones(S.grid.shape, dtype=bool)).astype(np.int64)
    inside = hull_mask(S.true_indices(), all_idx)
    return RasterSet(S.grid, inside.reshape(S.grid.shape))


# --- near convexity ---------------------------------------------------------------


class NearConvexityReport(NamedTuple):
    verdict: bool
    closure_convex: bool
    interior_nonempty: bool
    interior_inside: bool
    witness: tuple[float, ...] | None
    witness_kind: str | None


def is_int_nearly_convex(S: RasterSet) -> NearConvexityReport:
    """Closure convex, interior of the closure nonempty and inside S.

    The witness on failure is a concrete violating node: a hull node
    missing from the closure, or an interior-of-closure node missing
    from S.
    """
    cl = closure(S)
    hull = hull_raster(cl)
    closure_convex = hull.same_mask(cl)
    witness = None
    kind = None
    if not closure_convex:
        gap = hull.mask & ~cl.mask
        i = int(np.flatnonzero(gap.reshape(-1))[0])
        witness = tuple(float(c) for c in S.grid.coords(i))
        kind = "hull node missing from closure"
    inner = interior(cl)
    interior_nonempty = bool(inner.mask.any())
    missing = inner.mask & ~S.mask
    interior_inside = not bool(missing.any())
    if closure_convex and not interior_inside:
        i = int(np.flatnonzero(missing.reshape(-1))[0])
        witness = tuple(float(c) for c in S.grid.coords(i))
        kind = "interior node missing from the set"
    return NearConvexityReport(
        closure_convex and interior_nonempty and interior_inside,
        closure_convex,
        interior_nonempty,
        interior_inside,
        witness,
        kind,
    )


def intersection_preservation_check(S1: RasterSet, S2: RasterSet) -> NearConvexityReport:
    """Int-near-convexity of S1 & S2 when the interiors meet.

    Disjoint interiors (or inputs that are not themselves int-nearly
    convex) mean the hypothesis fails, so the check is skipped by raising
    HypothesisNotMet rather than reported as a failure.
    """
    if S1.grid != S2.grid:
        raise GridMismatch("intersection needs a shared grid")
    if not is_int_nearly_convex(S1).verdict or not is_int_nearly_convex(S2).verdict:
        raise HypothesisNotMet("both inputs must be int-nearly convex")
    if not bool((interior(S1).mask & interior(S2).mask).any()):
        raise HypothesisNotMet("the interiors of the inputs do not meet")
    return is_int_nearly_convex(RasterSet(S1.grid, S1.mask & S2.mask))


class RasterCheckReport(NamedTuple):
    """Int-near-convexity of a raster, of its refinement by 2 and of its
    intersection with a second raster, or why that was `skipped`."""

    nearly_convex: NearConvexityReport
    refined: NearConvexityReport
    intersection: NearConvexityReport | None
    skipped: str | None
    verdicts: tuple[Verdict, ...]


def raster_check(S: RasterSet, other: RasterSet | None) -> RasterCheckReport:
    """Near convexity of S (INFO: a finding about S), the same verdict after
    refinement by 2, and near convexity of S & other when the intersection
    check's hypothesis holds (INFO when it does not)."""
    rep = is_int_nearly_convex(S)
    refined = is_int_nearly_convex(refine_raster(S, 2))
    kind = f"; witness kind {rep.witness_kind}" if rep.witness_kind else ""
    verdicts = [
        Verdict("int_nearly_convex", None, f"verdict {str(rep.verdict).lower()}{kind}"),
        Verdict("refinement_stable", rep.verdict == refined.verdict, "x2"),
    ]
    inter = skipped = None
    if other is not None:
        try:
            inter = intersection_preservation_check(S, other)
        except HypothesisNotMet as e:
            skipped = str(e)
        ok = None if inter is None else inter.verdict
        verdicts.append(Verdict("intersection_preserved", ok, skipped or ""))
    return RasterCheckReport(rep, refined, inter, skipped, tuple(verdicts))


# --- linear images ---------------------------------------------------------------


def projection_map(dim: int, axes: tuple[int, ...]) -> np.ndarray:
    """Integer matrix selecting the given axes (0-based)."""
    T = np.zeros((len(axes), dim), dtype=np.int64)
    for row, ax in enumerate(axes):
        T[row, ax] = 1
    return T


def _image_axis(values: np.ndarray, row: int) -> Axis:
    vals = sorted_distinct(values)
    lo, hi = float(vals[0]), float(vals[-1])
    if vals.size == 1:
        raise NotNodePreserving(f"map row {row} sends every node to one value")
    step = float(np.diff(vals).min())
    ratio = (vals - lo) / step
    if np.abs(ratio - np.round(ratio)).max() > 1e-6:
        raise NotNodePreserving("image values do not form a uniform axis")
    count = int(round((hi - lo) / step)) + 1
    axis = Axis(lo, hi, count)
    coords = axis.coords()
    pos = np.searchsorted(coords, vals)
    pos = np.clip(pos, 0, count - 1)
    near = np.minimum(np.abs(coords[pos] - vals), np.abs(coords[np.maximum(pos - 1, 0)] - vals))
    if near.max() > _COORD_TOL:
        raise NotNodePreserving("image values do not land on the reconstructed axis")
    return axis


def _map_raster(S: RasterSet, T: np.ndarray) -> tuple[Grid, np.ndarray, np.ndarray]:
    """Image grid, image mask of S, and the node index map under T."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] == 0 or T.shape[1] != S.grid.dim:
        raise DimensionMismatch(
            f"the linear map must be a matrix of at least one row and {S.grid.dim}"
            f" columns, got shape {T.shape}"
        )
    if not np.array_equal(T, np.round(T)):
        raise NotNodePreserving("the linear map must have integer coefficients")
    T = T.astype(np.int64)
    img_all = dots(S.grid.nodes[:, None], T)
    axes = tuple(_image_axis(img_all[:, j], j) for j in range(T.shape[0]))
    tgrid = Grid(axes)
    idx = np.empty((S.grid.size, T.shape[0]), dtype=np.int64)
    for j, axis in enumerate(axes):
        k = np.round((img_all[:, j] - axis.lo) / axis.step).astype(np.int64)
        if np.abs(axis.lo + k * axis.step - img_all[:, j]).max() > 1e-6 * max(1.0, axis.step):
            raise NotNodePreserving("a node image misses the target lattice")
        idx[:, j] = k
    flat = np.ravel_multi_index(idx.T, tgrid.shape)
    mask = np.zeros(tgrid.size, dtype=bool)
    mask[flat[S.flat()]] = True
    return tgrid, mask.reshape(tgrid.shape), flat


class ImageReport(NamedTuple):
    verdict: bool
    image_nearly_convex: bool
    interior_match: bool
    image_grid: Grid
    image: "RasterSet"


def image_preservation_check(S: RasterSet, T: np.ndarray) -> ImageReport:
    """Int-near-convexity of T(S) and interior(T(S)) = T(interior(S)).

    The interior comparison is up to one raster cell each way, matching
    the one-cell topology.
    """
    if not is_int_nearly_convex(S).verdict:
        raise HypothesisNotMet("the input set must be int-nearly convex")
    tgrid, img_mask, flat = _map_raster(S, T)
    image = RasterSet(tgrid, img_mask)
    img_rep = is_int_nearly_convex(image)

    int_img = interior(image).mask
    pushed = np.zeros(tgrid.size, dtype=bool)
    pushed[flat[interior(S).flat()]] = True
    pushed = pushed.reshape(tgrid.shape)
    a_in_b = not bool((int_img & ~box_dilate(pushed)).any())
    b_in_a = not bool((pushed & ~box_dilate(int_img)).any())
    interior_match = a_in_b and b_in_a
    return ImageReport(
        img_rep.verdict and interior_match,
        img_rep.verdict,
        interior_match,
        tgrid,
        image,
    )


# --- refinement and the text format ----------------------------------------------


def refine_raster(S: RasterSet, factor: int = 2) -> RasterSet:
    """Resample onto the factor-refined grid.

    A refined node is true when it coincides with a true original node or
    lies in a closed grid cell whose corners are all true, so filled
    regions stay filled and gaps stay open.
    """
    if factor < 1:
        raise InvalidArgument("factor must be >= 1")
    if factor == 1:
        return S
    fine_grid = S.grid.refine(factor)
    d = S.grid.dim
    fine = np.zeros(fine_grid.shape, dtype=bool)
    fine[tuple(slice(None, None, factor) for _ in range(d))] = S.mask

    cells = S.mask
    for ax in range(d):
        lo, hi = _along(ax, d, slice(None, -1)), _along(ax, d, slice(1, None))
        cells = cells[lo] & cells[hi]
    if cells.size:
        up = cells
        for ax in range(d):
            up = np.repeat(up, factor, axis=ax)
        for corner in np.ndindex(*(2,) * d):
            sl = tuple(slice(c, c + up.shape[a]) for a, c in enumerate(corner))
            fine[sl] |= up
    return RasterSet(fine_grid, fine)


def dump_raster(S: RasterSet) -> str:
    """Plain-text form: header then 0/1 rows (blank line between 3-D slabs)."""
    head = ["raster", str(S.grid.dim)]
    head += [str(ax.count) for ax in S.grid.axes]
    for ax in S.grid.axes:
        head += [repr(float(ax.lo)), repr(float(ax.hi))]
    lines = [" ".join(head)]
    m = S.mask.astype(np.uint8)
    if S.grid.dim == 1:
        lines.append("".join(str(v) for v in m))
    elif S.grid.dim == 2:
        for row in m:
            lines.append("".join(str(v) for v in row))
    else:
        for si, slab in enumerate(m):
            if si:
                lines.append("")
            for row in slab:
                lines.append("".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _raster_header(line: str) -> Grid:
    head = line.split()
    if not head or head[0] != "raster":
        raise RasterError("raster text must start with a 'raster' header", 1)
    try:
        d = int(head[1])
    except (IndexError, ValueError):
        raise RasterError("raster header needs a dimension after 'raster'", 1) from None
    if d not in (1, 2, 3):
        raise RasterError(f"raster dimension must be 1, 2 or 3, got {d}", 1)
    if len(head) != 2 + 3 * d:
        raise RasterError(f"raster header needs {d} count(s) then lo/hi per axis", 1)
    try:
        counts = [int(v) for v in head[2 : 2 + d]]
        bounds = [float(v) for v in head[2 + d :]]
        return Grid(
            tuple(Axis(bounds[2 * i], bounds[2 * i + 1], counts[i]) for i in range(d))
        )
    except ValueError as e:
        raise RasterError(f"bad raster header: {e}", 1) from None


def load_raster(text: str) -> RasterSet:
    """Inverse of dump_raster; tolerant of trailing whitespace.

    Malformed text raises RasterError naming its 1-based line: a bad
    header, a character other than 0/1, a row of the wrong width, or a
    wrong number of rows or slabs.
    """
    raw = [ln.rstrip() for ln in text.splitlines()]
    grid = _raster_header(raw[0] if raw else "")
    shape = grid.shape
    # Row blocks: the single row (1-D), all rows (2-D), or one per slab (3-D),
    # each with the line number it starts on.
    blocks: list[tuple[int, list[list[bool]]]] = []
    new_block = True
    for lineno, ln in enumerate(raw[1:], start=2):
        if not ln:
            new_block = new_block or len(shape) == 3
            continue
        bad = next((c for c, ch in enumerate(ln) if ch not in "01"), None)
        if bad is not None:
            raise RasterError(f"column {bad + 1}: {ln[bad]!r} is not 0 or 1", lineno)
        if len(ln) != shape[-1]:
            raise RasterError(f"row has {len(ln)} cells, expected {shape[-1]}", lineno)
        if new_block:
            blocks.append((lineno, []))
            new_block = False
        blocks[-1][1].append([ch == "1" for ch in ln])
    if not blocks:
        raise RasterError("raster body is missing", len(raw) + 1)
    rows_per_block = 1 if len(shape) == 1 else shape[-2]
    what = "slab" if len(shape) == 3 else "raster body"
    for start, rows in blocks:
        if len(rows) != rows_per_block:
            raise RasterError(
                f"{what} has {len(rows)} row(s), expected {rows_per_block}", start
            )
    n_blocks = shape[0] if len(shape) == 3 else 1
    if len(blocks) != n_blocks:
        raise RasterError(
            f"raster body has {len(blocks)} slab(s), expected {n_blocks}",
            blocks[-1][0],
        )
    data = np.asarray([rows for _, rows in blocks], dtype=bool).reshape(shape)
    return RasterSet(grid, data)
