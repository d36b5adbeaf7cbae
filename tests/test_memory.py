"""Allocation peaks of the checks whose temporaries are blocked, and the
tables a run keeps.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
what its temporaries and results take on top of what the process already
holds.  Each check runs on a store that the run's shared tables already
fill, as in `verify-all`, so the peak is the check's own.
"""

import tracemalloc

import numpy as np
import pytest

from marginlab import (
    ProblemSpec,
    Tables,
    conjugate_representation_check,
    marginal_subdiff_check,
    partial_conjugate,
    restricted_conjugate_check,
)
from marginlab.cli import main

from helpers import FIXTURES, load_fixture

MB = 2**20


def filled_store(refine):
    spec = load_fixture("separable_quadratic")
    tables = Tables(*spec.build(refine), spec.xduals, spec.yduals)
    tables.mustar, tables.phistar, tables.lattice_support, tables.inf_convolution
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


def test_marginal_check_holds_no_table_of_every_step(filled):
    # 81 x 6,561 support entries are 4.25 MB each time they are gathered.
    peak = traced_peak(lambda: marginal_subdiff_check(filled, np.zeros(2), 0.5))
    assert peak <= 3 * MB


def test_representation_check_blocks_its_refined_lattice(filled):
    # The graph support on the 1,089 distinct steps of the refined lattice
    # at 289 y* is 2.4 MB as one table; the fold reads it in blocks.
    peak = traced_peak(lambda: conjugate_representation_check(filled))
    assert peak <= 3.5 * MB


def test_build_evaluates_phi_in_blocks():
    # 83,521 (x, y) nodes at --refine 4: phi's values are 0.64 MB, and the
    # table of their coordinates was 2.5 MB more.
    spec = load_fixture("separable_quadratic")
    peak = traced_peak(lambda: spec.build(4))
    assert peak <= 4 * MB


def test_restricted_check_scores_graph_cells_in_blocks():
    # 83,521 (x, y) nodes at --refine 4: a copy of their coordinates is
    # 2.5 MB, the graph cells and their phi values 2 MB; a run of 65,536
    # cells holds 1 MB of cell indices.
    tables = filled_store(4)
    peak = traced_peak(lambda: restricted_conjugate_check(tables))
    assert peak <= 2.5 * MB


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
