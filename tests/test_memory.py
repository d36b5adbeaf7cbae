"""Allocation peaks of the checks whose temporaries are blocked.

numpy reports its buffers to tracemalloc, so the traced peak of a call is
what its temporaries and results take on top of what the process already
holds.  Each check runs on a store that the run's shared tables already
fill, as in `verify-all`, so the peak is the check's own.
"""

import tracemalloc

import numpy as np
import pytest

from marginlab import (
    Tables,
    conjugate_representation_check,
    marginal_subdiff_check,
    restricted_conjugate_check,
)

from helpers import load_fixture

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
    peak = traced_peak(lambda: conjugate_representation_check(filled))
    assert peak <= 7 * MB


def test_restricted_check_scores_graph_cells_in_blocks():
    # 83,521 (x, y) nodes at --refine 4: a copy of their coordinates is
    # 2.5 MB, the graph cells and their phi values 2 MB.
    tables = filled_store(4)
    peak = traced_peak(lambda: restricted_conjugate_check(tables))
    assert peak <= 5 * MB
