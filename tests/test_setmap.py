"""Set-valued maps on grids: constructors, graph support function, moduli."""

import importlib
import math

import numpy as np
import pytest

from marginlab import (
    DimensionMismatch,
    Grid,
    NotANode,
    SetValuedMap,
    full_map,
    graph_support,
    lipschitz_estimate_map,
    map_conjugate_at,
    map_from_constraints,
    map_from_inequalities,
    map_from_points,
    product_grid,
)

from marginlab.setmap import graph_cell_blocks

from helpers import brute_graph_support, brute_max_dots_minus, dyadic_rows, random_problem

INF = math.inf
conjugate_module = importlib.import_module("marginlab.conjugate")

X = Grid.from_bounds([(-1.0, 1.0, 5)])
Y = Grid.from_bounds([(0.0, 2.0, 5)])


class TestConstructors:
    def test_full_map(self):
        F = full_map(X, Y)
        assert F.graph.all()
        assert F.dom_mask.all()

    def test_graph_shape_enforced(self):
        with pytest.raises(DimensionMismatch):
            SetValuedMap(X, Y, np.ones((3, 3), dtype=bool))

    def test_inequalities_match_direct_predicate(self):
        F = map_from_inequalities(["1 - y"], X, Y)
        for xi in range(X.size):
            for yi in range(Y.size):
                want = 1.0 - Y.coords(yi)[0] <= X.coords(xi)[0] + 1e-9
                assert F.graph[xi, yi] == want

    def test_inequalities_count_must_match_x_dim(self):
        with pytest.raises(DimensionMismatch):
            map_from_inequalities(["1 - y", "y - 1"], X, Y)

    def test_constraints_joint_predicate(self):
        F = map_from_constraints(["x - y"], X, Y)
        for xi in range(X.size):
            for yi in range(Y.size):
                want = X.coords(xi)[0] - Y.coords(yi)[0] <= 1e-9
                assert F.graph[xi, yi] == want

    def test_points_land_on_nodes(self):
        F = map_from_points([[0.0, 1.0], [0.5, 0.5]], X, Y)
        assert F.graph.sum() == 2
        assert F.graph[X.index_of([0.0]), Y.index_of([1.0])]
        with pytest.raises(NotANode):
            map_from_points([[0.3, 1.0]], X, Y)
        with pytest.raises(DimensionMismatch):
            map_from_points([[0.0, 1.0, 2.0]], X, Y)

    def test_values_at(self):
        F = map_from_points([[0.0, 1.0], [0.0, 2.0]], X, Y)
        np.testing.assert_array_equal(
            np.flatnonzero(F.graph[X.index_of([0.0])]), [Y.index_of([1.0]), Y.index_of([2.0])]
        )
        assert not F.graph[0].any()
        np.testing.assert_array_equal(F.dom_mask, [False, False, True, False, False])


class TestGraphSupport:
    def test_matches_support_function_of_graph_points(self):
        F = map_from_constraints(["abs(x) - y"], X, Y)
        xd = Grid.from_bounds([(-2.0, 2.0, 5)])
        yd = Grid.from_bounds([(-2.0, 2.0, 5)])
        gx, gy = F.graph_cells
        points = np.hstack([X.nodes[gx], Y.nodes[gy]])
        got = graph_support(F, xd.nodes, yd.nodes).reshape(-1)
        want = brute_max_dots_minus(product_grid(xd, yd).nodes, points, np.zeros(points.shape[0]))
        np.testing.assert_array_equal(got, want)

    def test_empty_graph_gives_minus_inf(self):
        F = SetValuedMap(X, Y, np.zeros((X.size, Y.size), dtype=bool))
        vals = map_conjugate_at(F, np.array([[0.0, 0.0], [1.0, -1.0]]))
        assert (vals == -INF).all()

    def test_dual_point_arity(self):
        F = full_map(X, Y)
        with pytest.raises(DimensionMismatch):
            map_conjugate_at(F, np.array([[0.0]]))


class TestFactoredGraphSupport:
    @pytest.mark.parametrize("xdim, ydim", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_brute_oracle_bitwise_on_dyadic_data(self, xdim, ydim):
        rng = np.random.default_rng(97 + 10 * xdim + ydim)
        partial = 0
        for trial in range(25):
            p_drop = (0.25, 0.6, 0.95, 1.0)[trial % 4]  # 1.0: empty graph
            _, F = random_problem(
                rng, max_count=5, p_drop=p_drop, xdim=xdim, ydim=ydim
            )
            if p_drop == 1.0:
                F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
            # Repeated x* rows, as the steps x* - x1* of a split lattice repeat.
            base = dyadic_rows(rng, int(rng.integers(1, 6)), xdim)
            xstars = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 15)))]
            ystars = dyadic_rows(rng, int(rng.integers(1, 8)), ydim)
            partial += F.dom_mask.any() and not F.dom_mask.all()
            got = graph_support(F, xstars, ystars)
            want = brute_graph_support(F, xstars, ystars)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert partial  # some maps had empty F(x) rows next to non-empty ones

    def test_empty_graph_gives_minus_inf(self):
        F = SetValuedMap(X, Y, np.zeros((X.size, Y.size), dtype=bool))
        got = graph_support(F, np.array([[0.0], [1.0]]), np.array([[0.5], [-1.0], [2.0]]))
        assert got.shape == (2, 3)
        assert (got == -INF).all()

    def test_empty_rows_are_skipped(self):
        F = map_from_points([[0.0, 1.0], [0.5, 0.5], [0.5, 2.0]], X, Y)
        got = graph_support(F, np.array([[2.0], [-2.0], [2.0]]), np.array([[1.0], [-1.0]]))
        np.testing.assert_array_equal(got, [[3.0, 0.5], [1.0, -1.0], [3.0, 0.5]])

    def test_row_arity(self):
        F = full_map(X, Y)
        with pytest.raises(DimensionMismatch):
            graph_support(F, np.array([[0.0, 1.0]]), np.array([[0.0]]))
        with pytest.raises(DimensionMismatch):
            graph_support(F, np.array([[0.0]]), np.array([[0.0, 1.0]]))


class TestGraphCellBlocks:
    @pytest.mark.parametrize("cap", [1, 3, 10, 64, None])
    def test_blocks_cover_the_cells_in_order_within_the_cap(self, cap, monkeypatch):
        # Rows of up to 7 cells at widths 1-9: whole runs of rows, and rows
        # split into blocks of their own when they are over the cap.
        if cap is not None:
            monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        rng = np.random.default_rng(cap or 0)
        for trial in range(30):
            _, F = random_problem(rng, max_count=7, p_drop=(0.0, 0.5, 0.9)[trial % 3])
            if trial % 5 == 0:
                F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
            width = int(rng.integers(1, 10))
            blocks = list(graph_cell_blocks(F, width))
            gx, gy = F.graph_cells
            assert all(b[0].size for b in blocks)
            np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks] + [gx[:0]]), gx)
            np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks] + [gy[:0]]), gy)
            limit = max(1, conjugate_module._BLOCK_CAP // width)
            assert all(b[0].size <= limit for b in blocks)


class TestLipschitzEstimate:
    def test_translation_map_has_unit_modulus(self):
        g = Grid.from_bounds([(0.0, 1.0, 5)])
        graph = g.nodes[:, None, 0] <= g.nodes[None, :, 0] + 1e-9
        F = SetValuedMap(g, g, graph)  # F(x) = {y >= x}
        assert lipschitz_estimate_map(F) == pytest.approx(1.0)

    def test_constant_map_has_zero_modulus(self):
        F = full_map(X, Y)
        assert lipschitz_estimate_map(F) == 0.0

    def test_partial_domain_is_infinite(self):
        F = map_from_points([[0.0, 1.0]], X, Y)
        assert lipschitz_estimate_map(F) == INF
