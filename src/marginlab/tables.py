"""One lazily filled store of the tables that the checks of a problem share.

A `Tables` belongs to one problem (phi, F) and one pair of dual grids, the
x* grid `xduals` and the y* grid `yduals`, and builds each of these on
first use, then keeps it:

- the marginal: mu with its minimizer lists and status labels;
- the graph-row minima: the minimum of phi over the graph cells of each
  x row, +inf on a row with none, walked over `graph_cell_blocks` apart
  from the marginal's masked table, so that the domain, epigraph and
  restricted conjugate checks that read it keep a route of their own;
- mu* on the x* grid (`conjugate`);
- phi* on the product of the x* grid and the y* grid (`partial_conjugate`);
- the split lattice of the x* grid: the steps x* - x1* over every pair of
  its nodes, kept as the distinct steps with the graph support at
  (step, -y*) on them and the inverse index back to every pair;
- the sampled infimal convolution (phi* box F*)(x*, 0) at the x* nodes,
  split on that same grid.

A grid left out takes the default box: `default_dual_grid(mu)` for x*
and `default_ydual_grid(phi, m)` for y*, both at the primal counts.

The graph support on all lattice rows is the support on the distinct
steps at the inverse index, since each row's maximum depends on that row
alone.  The store is the lattice's one owner: the inf-convolution and both
theorem checks read it here, the conjugate check one node's slice of the
inverse index.  A table that one check alone reads is not kept: the
twice-refined lattice of `conjugate_representation_check` is never built
whole, because `sampled_inf_convolution` folds its graph support into
`inf_convolution_min` one block of steps at a time; the fold gathers each
slice's F* and phi* rows by indexing and keeps no buffer between slices.

Every check that reads these tables takes the store as its first argument
and reads its grids there.  The command line builds one per run and
passes it to every check, so one `verify-all` computes the marginal of
(phi, F) once.  Kept arrays are read-only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .conjugate import (
    conjugate,
    default_dual_grid,
    default_ydual_grid,
    partial_conjugate,
    score_slices,
    unique_rows,
)
from .core import INF, Grid, GriddedFunction
from .marginal import MarginalResult, marginal
from .setmap import SetValuedMap, graph_cell_blocks, graph_support, split_lattice


def phi_conjugate(
    phi: GriddedFunction, F: SetValuedMap, x1duals: Grid, yduals: Grid
) -> np.ndarray:
    """phi* on the product of the x1duals nodes and the yduals nodes."""
    return partial_conjugate(
        phi.values.reshape(F.xgrid.size, -1),
        F.xgrid.nodes,
        F.ygrid.nodes,
        x1duals.nodes,
        yduals.nodes,
    )


def inf_convolution_min(
    phistar: np.ndarray, F: SetValuedMap, inverse: np.ndarray, blocks
) -> np.ndarray:
    """Per evaluation point, min over the (x1*, y*) lattice of phi* + F*.

    Each point has phistar.shape[0] consecutive pairs (point, x1*), and
    `inverse` gives each pair's split-lattice step.  `blocks` yields
    (slice of steps, F* rows of those steps) in step order; each is folded
    into the per-pair minima over y* of the pairs whose step it holds,
    which form one run of the pairs sorted by step.  Their F* and phi*
    rows are gathered by indexing, a slice of pairs at a time, at most a
    quarter of the cap each, and dropped before the next slice, so the
    fold and a block's rows share one cap.  Lower addition:
    phi* is all +inf, all -inf or finite, F* all -inf exactly when the
    graph is empty and finite otherwise, and +inf wins; then no block is
    read.  A minimum is exact and neither table holds -0.0 (see
    `partial_conjugate`), nor does a sum of their entries, so neither the
    blocks nor the order of the fold move a bit.
    """
    k1, ky = phistar.shape
    out = np.empty(inverse.shape[0] // k1)
    if np.isinf(phistar).any() or not F.graph.any():
        out.fill(INF if (phistar == INF).any() else -INF)
        return out
    order = np.argsort(inverse, kind="stable")
    steps = inverse[order]
    pair_min = np.empty(inverse.shape[0])
    for rows, fstar in blocks:
        lo, hi = np.searchsorted(steps, (rows.start, rows.stop))
        for sl in score_slices(hi - lo, 4 * (ky + 1)):
            run = slice(lo + sl.start, lo + sl.stop)
            pairs = fstar[steps[run] - rows.start]
            pairs += phistar[order[run] % k1]
            pair_min[order[run]] = pairs.min(axis=1)
            del pairs  # before the next slice gathers, or the next block is made
    return pair_min.reshape(out.shape[0], k1).min(axis=1, out=out)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class Tables:
    """The shared tables of one problem (phi, F) on one pair of dual grids,
    each built once on demand.

    Build one with `Tables(phi, F, xduals, yduals)` and pass it to every
    check of that problem: `domain_identity_check`,
    `epigraph_projection_check`, `marginal_structure_check`,
    `restricted_conjugate_check`, `conjugate_representation_check`,
    `marginal_subdiff_check`, `conj_subdiff_check`, `strong_duality_check`,
    `primal_value`, `dual_value_1` and `dual_value_2`.  Whichever check asks
    first builds a table, and the later ones read the same read-only array,
    so a check returns the same bits on a fresh store and on one that other
    checks have filled.  `marginal` is the `MarginalResult` of (phi, F),
    `mu` its gridded mu and `graph_minima` the minimum of phi over each x
    row's graph cells; nothing is computed before it is read.
    """

    def __init__(
        self,
        phi: GriddedFunction,
        F: SetValuedMap,
        xduals: Grid | None = None,
        yduals: Grid | None = None,
    ):
        self.phi = phi
        self.F = F
        # A given grid shadows the default that its cached property builds.
        if xduals is not None:
            self.xduals = xduals
        if yduals is not None:
            self.yduals = yduals

    @cached_property
    def marginal(self) -> MarginalResult:
        return marginal(self.phi, self.F)

    @property
    def mu(self) -> GriddedFunction:
        return self.marginal.mu

    @cached_property
    def graph_minima(self) -> np.ndarray:
        """min of phi over the graph cells of each x row, +inf on a row with
        none.  The cells come in `graph_cell_blocks` of four entries per
        cell, so the walk holds one cap: a block's two indices and its phi
        values, and those indices again while the walk takes the next
        block's two.  A minimum is exact, so no block moves a bit."""
        F = self.F
        V = self.phi.values.reshape(F.xgrid.size, F.ygrid.size)
        table = np.full(F.xgrid.size, INF)
        for gx, gy in graph_cell_blocks(F, 4):
            np.minimum.at(table, gx, V[gx, gy])
        _read_only(table)
        return table

    @cached_property
    def xduals(self) -> Grid:
        """The x* grid; by default the box covering mu's slopes."""
        return default_dual_grid(self.mu)

    @cached_property
    def yduals(self) -> Grid:
        """The y* grid; by default the y part of phi's box."""
        return default_ydual_grid(self.phi, self.F.xgrid.dim)

    @cached_property
    def mustar(self) -> GriddedFunction:
        """mu* on the x* nodes (`conjugate`)."""
        return conjugate(self.mu, self.xduals)

    @cached_property
    def phistar(self) -> np.ndarray:
        """phi* on the x* x y* lattice, shape (xduals.size, yduals.size)."""
        table = phi_conjugate(self.phi, self.F, self.xduals, self.yduals)
        _read_only(table)
        return table

    @cached_property
    def lattice_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(steps, support, inverse): the distinct steps x* - x1* of the
        split lattice of the x* grid at its nodes, points outermost, the
        graph support at (step, -y*) on them, and the inverse index from
        every lattice row to its step."""
        duals = self.xduals
        steps, inverse = unique_rows(split_lattice(duals.nodes, duals))
        table = (steps, graph_support(self.F, steps, -self.yduals.nodes), inverse)
        _read_only(*table)
        return table

    @cached_property
    def inf_convolution(self) -> np.ndarray:
        """(phi* box F*)(x*, 0) at every x* node, splits x1* on the x* grid."""
        _, support, inverse = self.lattice_support
        blocks = [(slice(0, support.shape[0]), support)]
        table = inf_convolution_min(self.phistar, self.F, inverse, blocks)
        _read_only(table)
        return table
