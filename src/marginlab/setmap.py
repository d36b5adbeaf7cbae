"""Set-valued maps F: X => Y as boolean graph masks on grid products.

The graph lives on xgrid x ygrid as a (xsize, ysize) boolean array; the
conjugate of F is the support function of the graph point set evaluated at
stacked duals (x*, y*).  Constructors cover the Lagrange form g_i(y) <= x_i,
explicit xy-constraint lists c_k(x, y) <= 0, explicit graph point lists,
and the full graph.

The checks read the conjugate of F through `graph_support`, on product
tables of queries (t, s).  It is `conjugate.partial_conjugate` of the
graph indicator (0 on gph F, +inf off it),

    sigma_gph(t, s) = max over x in dom F of <t, x> + sigma_F(x)(s),

building the row supports sigma_F(x)(s) = max over y in F(x) of <s, y>
once and evaluating each t row once.  `map_conjugate_at` takes the same
finite maximum by brute force in `conjugate.max_dots_minus`, so the two
agree bitwise whenever the dot products are exact (dyadic data).  The
pair are the oracles of `graph_support` in the tests, and the benchmark's
tracer wraps both; no check calls them.

Besides the graph mask, nothing here builds a table of every (x, y) node
or graph cell: expressions, the indicator and the walks over the cells
all run in blocks within `conjugate._BLOCK_CAP`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    INF,
    NODE_TOL,
    Grid,
    as_rows,
    default_names,
    eval_blocks,
    product_grid,
    product_names,
)
from .conjugate import conjugate_blocks, count_slices, max_dots_minus, score_slices
from .errors import DimensionMismatch


@dataclass(frozen=True)
class SetValuedMap:
    """Graph mask of F on xgrid x ygrid; row x, column y, both flat order."""

    xgrid: Grid
    ygrid: Grid
    graph: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.graph, dtype=bool)
        if g.shape != (self.xgrid.size, self.ygrid.size):
            raise DimensionMismatch(
                f"graph shape {g.shape} does not match "
                f"({self.xgrid.size}, {self.ygrid.size})"
            )
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "graph", g)

    @property
    def dom_mask(self) -> np.ndarray:
        return self.graph.any(axis=1)

    @property
    def graph_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(x indices, y indices) of every true graph cell, built on each
        read; the checks walk `graph_cell_blocks` instead."""
        xi, yi = np.nonzero(self.graph)
        return xi, yi


def graph_cell_blocks(F: SetValuedMap, width: int):
    """(x indices, y indices) of the graph cells in row-major order, in
    blocks of at most `_BLOCK_CAP // width` cells (at least one), so that
    `width` entries per cell, the two indices among them, stay within the
    cap.  The blocks are cut from runs of whole x rows of at most that many
    cells (`count_slices` on `width` times the row counts), or from one row
    over the cap."""
    for rows in count_slices(width * np.count_nonzero(F.graph, axis=1)):
        xi, yi = np.nonzero(F.graph[rows])
        xi += rows.start
        for sl in score_slices(xi.size, width):
            yield xi[sl], yi[sl]


def full_map(xgrid: Grid, ygrid: Grid) -> SetValuedMap:
    """F(x) = Y for every x."""
    return SetValuedMap(xgrid, ygrid, np.ones((xgrid.size, ygrid.size), dtype=bool))


def map_from_inequalities(
    g_exprs: Sequence[str], xgrid: Grid, ygrid: Grid
) -> SetValuedMap:
    """Lagrange constraint map F(x) = {y : g_i(y) <= x_i, i = 1..m}.

    One expression per x axis; feasibility tolerance 1e-9.
    """
    if len(g_exprs) != xgrid.dim:
        raise DimensionMismatch(
            f"{len(g_exprs)} inequalities for a {xgrid.dim}-dimensional x-grid"
        )
    gvals = np.empty((ygrid.size, xgrid.dim))
    for sl, cols in eval_blocks(g_exprs, ygrid, *default_names(ygrid, "y")):
        gvals[sl] = np.stack(cols, axis=1)
    X = xgrid.nodes
    graph = np.empty((xgrid.size, ygrid.size), dtype=bool)
    for sl in score_slices(xgrid.size, gvals.size):
        (gvals[None, :, :] <= X[sl, None, :] + NODE_TOL).all(axis=2, out=graph[sl])
    return SetValuedMap(xgrid, ygrid, graph)


def map_from_constraints(
    c_exprs: Sequence[str], xgrid: Grid, ygrid: Grid
) -> SetValuedMap:
    """Graph {(x, y) : c_k(x, y) <= 0 for all k}, tolerance 1e-9; the
    constraints are evaluated in `eval_blocks` blocks of (x, y) nodes."""
    pg = product_grid(xgrid, ygrid)
    mask = np.ones(pg.size, dtype=bool)
    for sl, vals in eval_blocks(c_exprs, pg, *product_names(xgrid.dim, ygrid.dim)):
        with np.errstate(invalid="ignore"):
            for v in vals:
                mask[sl] &= v <= NODE_TOL
    return SetValuedMap(xgrid, ygrid, mask.reshape(xgrid.size, ygrid.size))


def map_from_points(
    points: Sequence[Sequence[float]], xgrid: Grid, ygrid: Grid
) -> SetValuedMap:
    """Graph from explicit (x..., y...) coordinate rows (must hit nodes)."""
    graph = np.zeros((xgrid.size, ygrid.size), dtype=bool)
    m = xgrid.dim
    for row in as_rows(points, m + ygrid.dim, "graph points"):
        xi = xgrid.index_of(row[:m])
        yi = ygrid.index_of(row[m:])
        graph[xi, yi] = True
    return SetValuedMap(xgrid, ygrid, graph)


def map_conjugate_at(F: SetValuedMap, points: np.ndarray) -> np.ndarray:
    """Support function of the graph at arbitrary stacked (x*, y*) points."""
    xi, yi = F.graph_cells
    pts = np.hstack([F.xgrid.nodes[xi], F.ygrid.nodes[yi]])
    return max_dots_minus(points, pts, np.zeros(pts.shape[0]))


def graph_support_blocks(F: SetValuedMap, xstars, ystars):
    """`graph_support` as the blocks (slice of x* rows, their table rows)
    of `conjugate.conjugate_blocks` on the graph indicator (0 on gph F,
    +inf off it), built one block of x rows at a time: a `full` map has
    one fiber."""
    X, Y = F.xgrid.nodes, F.ygrid.nodes
    xstars = as_rows(xstars, X.shape[1], "x* rows")
    ystars = as_rows(ystars, Y.shape[1], "y* rows")
    return conjugate_blocks(
        lambda at: np.where(F.graph[at], 0.0, INF), F.dom_mask, X, Y, xstars, ystars
    )


def graph_support(F: SetValuedMap, xstars: np.ndarray, ystars: np.ndarray) -> np.ndarray:
    """Graph support function on the product of x* rows and y* rows.

    Entry [i, j] is sigma_gph(xstars[i], ystars[j]), the same finite
    maximum `map_conjugate_at` takes at the stacked point; an empty graph
    gives -inf everywhere.  The table is the assembly of the blocks of
    `graph_support_blocks`.
    """
    xstars = as_rows(xstars, F.xgrid.dim, "x* rows")
    ystars = as_rows(ystars, F.ygrid.dim, "y* rows")
    table = np.empty((xstars.shape[0], ystars.shape[0]))
    for sl, rows in graph_support_blocks(F, xstars, ystars):
        table[sl] = rows
    return table


def split_lattice(at: np.ndarray, x1duals: Grid) -> np.ndarray:
    """Steps x* - x1* of the split lattice behind (phi* box F*)(x*, 0).

    One row per point x* of `at` and node x1* of x1duals, points outermost.
    On the lattice of (x1*, y*) rows over x1duals x yduals the graph support
    at (x* - x1*, -y*) is `graph_support(F, steps, -yduals.nodes)`.
    """
    X1 = x1duals.nodes
    return (at[:, None, :] - X1[None, :, :]).reshape(-1, X1.shape[1])


def lipschitz_estimate_map(F: SetValuedMap) -> float:
    """Smallest Lipschitz modulus of F over all node pairs (sum norms).

    ell = max over x != u in dom F of excess(F(u), F(x)) / ||x - u||_1 where
    excess is the one-sided Hausdorff distance in the y sum norm.  Returns
    +inf when dom F is not the whole x-grid (the definition quantifies over
    every pair of x nodes).
    """
    dom = F.dom_mask
    if not dom.all():
        return INF
    nx = F.xgrid.size
    Y = F.ygrid.nodes
    D = np.abs(Y[:, None, :] - Y[None, :, :]).sum(axis=2)
    X = F.xgrid.nodes
    members = [np.flatnonzero(F.graph[i]) for i in range(nx)]
    ell = 0.0
    for u in range(nx):
        for x in range(nx):
            if x == u:
                continue
            excess = float(D[np.ix_(members[u], members[x])].min(axis=1).max())
            dist = float(np.abs(X[x] - X[u]).sum())
            ell = max(ell, excess / dist)
    return ell
