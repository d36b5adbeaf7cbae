"""Allocation peaks of the checks whose temporaries are blocked, and the
tables a run keeps.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
what its temporaries and results take on top of what the process already
holds.  Each check runs on a store that the run's shared tables already
fill, as in `verify-all`, so the peak is the check's own.
"""

import importlib
import tracemalloc

import numpy as np
import pytest

from marginlab import (
    ProblemSpec,
    Tables,
    conj_subdiff_check,
    conjugate_representation_check,
    default_dual_grid,
    marginal,
    marginal_structure_check,
    marginal_subdiff_check,
    partial_conjugate,
    restricted_conjugate_check,
    sampled_inf_convolution,
)
from marginlab.cli import main
from marginlab.conjugate import default_ydual_grid

from helpers import (
    FIXTURES,
    dyadic_grid,
    dyadic_rows,
    full_table_inf_convolution,
    load_fixture,
    random_problem,
    reference_marginal_subdiff_check,
)

MB = 2**20


def filled_store(refine, fixture="separable_quadratic", minima=True):
    spec = load_fixture(fixture)
    tables = Tables(*spec.build(refine), spec.xduals, spec.yduals)
    tables.mustar, tables.phistar, tables.lattice_support, tables.inf_convolution
    if minima:
        tables.graph_minima
    return tables


@pytest.fixture(scope="module")
def filled():
    return filled_store(1)


def traced_peak(call) -> int:
    """Bytes allocated at the peak of `call()`, above those live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# The traced peaks below were 1.01, 2.10, 0.89 and 0.74 MB when the bounds
# were set; each bound leaves room for noise only.  Before every loop kept
# its temporaries within one cap together they were 2.36, 2.99, 1.87 and
# 1.43 MB.  Since the marginal check scores only the candidates under its
# cutoff, its two peaks read 0.44 MB.


def test_marginal_check_holds_no_table_of_every_step(filled):
    # 81 x 6,561 support entries are 4.25 MB each time they are gathered.
    peak = traced_peak(lambda: marginal_subdiff_check(filled, np.zeros(2), 0.5))
    assert peak <= 1.15 * MB


def test_representation_check_blocks_its_refined_lattice(filled):
    # The graph support on the 1,089 distinct steps of the refined lattice
    # at 289 y* is 2.4 MB as one table; the fold reads it in blocks.
    peak = traced_peak(lambda: conjugate_representation_check(filled))
    assert peak <= 2.35 * MB


def test_marginal_check_where_the_1d_ladder_peaks():
    # abs_full at --refine 2, where the 1-D ladder reached its peak: the
    # dense coderivative slices took 0.89 MB here, and each once took its
    # index, support and x0 gathers as three fresh arrays of the cap.
    tables = filled_store(2, "abs_full")
    peak = traced_peak(lambda: marginal_subdiff_check(tables, np.zeros(1), 0.5))
    assert peak <= 1.0 * MB


def test_marginal_check_blocks_its_keys_by_x_star_rows():
    # lagrangian_quadratic at --refine 1: 41 x* rows of 41 x 49 keys.  The
    # dense scoring of every near-optimal y0 took 0.36 MB here; blocks of
    # 8 entries per key leave about 0.16 MB.
    tables = filled_store(1, "lagrangian_quadratic")
    peak = traced_peak(lambda: marginal_subdiff_check(tables, np.zeros(1), 0.5))
    assert peak <= 0.2 * MB


def test_conjugate_check_scores_graph_cells_in_blocks():
    # 83,521 graph cells at --refine 4 against 81 x 81 lattice pairs: the
    # sorted pair table and its index take 0.2 MB, and the cells and their
    # candidates come in blocks within the cap.  The peak read 1.86 MB.
    tables = filled_store(4)
    x0star = tables.xduals.coords(int(np.argmin(tables.mustar.values)))
    peak = traced_peak(lambda: conj_subdiff_check(tables, x0star, 0.0))
    assert peak <= 2.0 * MB


def test_representation_check_folds_within_one_cap():
    # lagrangian_quadratic: the kernel's block and the fold's two gathers
    # of the refined lattice, once a cap each.
    tables = filled_store(1, "lagrangian_quadratic")
    peak = traced_peak(lambda: conjugate_representation_check(tables))
    assert peak <= 0.9 * MB


@pytest.mark.parametrize("cap", [1, 3, 7, 50])
def test_reused_buffers_hold_no_stale_entries(cap, monkeypatch):
    """The kernel's table rows are the one buffer left: it is sized to the
    largest block of a call, so most blocks fill only part of it.  The
    fold's gathers and the key blocks of `marginal_subdiff_check` are
    fresh arrays, which can still reuse memory a larger call left behind.
    Calls of falling sizes in one process then also find such memory.
    Each must equal its whole-table reference bitwise."""
    monkeypatch.setattr(importlib.import_module("marginlab.conjugate"), "_BLOCK_CAP", cap)
    rng = np.random.default_rng(cap)
    for max_count, dim in [(7, 1), (4, 2), (5, 1), (3, 2)]:
        phi, F = random_problem(rng, max_count=max_count, xdim=dim, ydim=dim)
        mu = marginal(phi, F).mu
        duals = default_dual_grid(mu, 9 if dim == 1 else 3)
        yduals = default_ydual_grid(phi, dim, 9 if dim == 1 else 3)
        for xi in np.flatnonzero(np.isfinite(mu.values))[:2]:
            args = (int(xi), 0.5, False)
            assert marginal_subdiff_check(Tables(phi, F, duals, yduals), *args) == (
                reference_marginal_subdiff_check(phi, F, duals, yduals, *args)
            )
        x1duals, ydual = dyadic_grid(rng, dim, max_count=4), dyadic_grid(rng, dim, max_count=4)
        at = np.vstack([x1duals.nodes, dyadic_rows(rng, 3, dim)])
        got = sampled_inf_convolution(phi, F, at, x1duals, ydual)
        want = full_table_inf_convolution(phi, F, at, x1duals, ydual)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_build_evaluates_phi_in_blocks():
    # 83,521 (x, y) nodes at --refine 4: phi's values are 0.64 MB, and the
    # table of their coordinates was 2.5 MB more.
    spec = load_fixture("separable_quadratic")
    peak = traced_peak(lambda: spec.build(4))
    assert peak <= 4 * MB


def test_restricted_check_scores_graph_cells_in_blocks():
    # 83,521 (x, y) nodes at --refine 4: a copy of their coordinates is
    # 2.5 MB, the graph cells and their phi values 2 MB; a run of 65,536
    # cells holds 1 MB of cell indices.  The check now reads the graph-row
    # minima and scores blocks of x* rows against the 289 x nodes: 0.48 MB.
    tables = filled_store(4)
    peak = traced_peak(lambda: restricted_conjugate_check(tables))
    assert peak <= 2.5 * MB


# At --refine 8 (1,089 x nodes, 1,185,921 graph cells) the traced peaks
# below read 0.53 and 1.02 MB when the bounds were set.  Before the three
# checks read the minima, the structure check took 2.27 MB on this store:
# the domain check's and each level's boolean tables of every (x, y) node.


def test_graph_minima_walk_the_cells_within_one_cap():
    # A block's indices, still held while the walk takes the next block's,
    # and its phi values: four entries per cell, 512 KB.
    tables = filled_store(8, minima=False)
    peak = traced_peak(lambda: tables.graph_minima)
    assert peak <= 0.56 * MB


def test_structure_check_holds_no_table_of_every_cell():
    # mu's midpoint-convexity blocks are now the largest part.
    tables = filled_store(8)
    peak = traced_peak(lambda: marginal_structure_check(tables))
    assert peak <= 1.1 * MB


def test_partial_conjugate_copies_no_full_domain():
    # 20,000 x 50 finite values are 7.6 MB; with every row in the domain the
    # kernel reads them in place.  An all-+inf row leaves the domain without
    # moving a value, and forces the masked copies.
    rng = np.random.default_rng(0)
    values = rng.standard_normal((20_000, 50))
    X, Y = rng.standard_normal((20_000, 2)), rng.standard_normal((50, 1))
    xstars, ystars = rng.standard_normal((3, 2)), rng.standard_normal((4, 1))
    peak = traced_peak(lambda: partial_conjugate(values, X, Y, xstars, ystars))
    assert peak <= values.nbytes / 4
    masked = partial_conjugate(
        np.vstack([values, np.full((1, 50), np.inf)]), np.vstack([X, [[9.0, 9.0]]]),
        Y, xstars, ystars,
    )
    np.testing.assert_array_equal(partial_conjugate(values, X, Y, xstars, ystars), masked)


def test_verify_all_keeps_no_table_of_phi_nodes(monkeypatch, tmp_path):
    # phi's product grid at --refine 8 has 1,185,921 nodes: 36.2 MB of
    # coordinates if evaluating phi or a check kept its node table.
    built = []
    build = ProblemSpec.build

    def spy(self, factor=1):
        built.append(build(self, factor))
        return built[-1]

    monkeypatch.setattr(ProblemSpec, "build", spy)
    spec = FIXTURES / "separable_quadratic.spec"
    assert main(["verify-all", "--spec", str(spec), "--refine", "8", "--out", str(tmp_path)]) == 0
    [(phi, F)] = built
    assert phi.grid.size == 1_185_921
    assert "nodes" not in phi.grid.__dict__
