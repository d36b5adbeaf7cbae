"""Lower addition, grids, gridded functions, expression evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    Axis,
    Grid,
    GriddedFunction,
    DimensionMismatch,
    ExprSyntaxError,
    GridMismatch,
    NonFiniteExpression,
    NotANode,
    UnknownVariable,
    eval_on_grid,
    ext_add_arrays,
    ext_sum,
    product_grid,
    render_value,
)

from helpers import lower_add

INF = math.inf

ext_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from([INF, -INF]),
)


class TestExtendedReals:
    def test_lower_addition_table(self):
        a = np.array([INF, -INF, INF, -INF, INF, -INF, 1.5])
        b = np.array([-INF, INF, INF, -INF, 3.0, 3.0, 2.5])
        want = [INF, INF, INF, -INF, INF, -INF, 4.0]
        assert ext_add_arrays(a, b).tolist() == want

    @given(ext_floats, ext_floats)
    def test_array_addition_matches_scalar(self, a, b):
        out = ext_add_arrays(np.array([a]), np.array([b]))
        assert not np.isnan(out).any()
        assert out[0] == lower_add(a, b)

    @given(ext_floats, ext_floats)
    def test_addition_commutes(self, a, b):
        assert ext_add_arrays(a, b) == ext_add_arrays(b, a)

    def test_render_value(self):
        assert render_value(INF) == "+inf"
        assert render_value(-INF) == "-inf"
        assert render_value(1.5) == 1.5


class TestGrids:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis(1.0, 1.0, 2)
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis(0.0, INF, 3)

    @pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, 1e308)])
    def test_axis_with_overflowing_offsets_rejected(self, lo, hi):
        # hi - lo overflows in the first case, 2 * (hi - lo) in the second
        with pytest.raises(ValueError, match="too wide"):
            Axis(lo, hi, 3)
        assert np.isfinite(Axis(lo / 4, hi / 4, 3).coords()).all()

    def test_axis_coords_hit_endpoints(self):
        ax = Axis(-1.0, 2.0, 7)
        c = ax.coords()
        assert c[0] == -1.0 and c[-1] == 2.0
        assert ax.step == pytest.approx(0.5)

    def test_nodes_row_major(self):
        g = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 2.0, 3)])
        assert g.shape == (2, 3)
        assert g.size == 6
        np.testing.assert_allclose(
            g.nodes,
            [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]],
        )

    def test_index_roundtrip(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 2.0, 5)])
        for flat in range(g.size):
            assert g.index_of(g.coords(flat)) == flat
            assert g.flat(g.multi(flat)) == flat

    def test_index_of_rejects_off_node_points(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        with pytest.raises(NotANode):
            g.index_of([0.3])
        with pytest.raises(NotANode):
            g.index_of([1.5])
        with pytest.raises(DimensionMismatch):
            g.index_of([0.0, 0.0])

    @pytest.mark.parametrize("bad", [INF, -INF, math.nan])
    def test_index_of_rejects_non_finite_points(self, bad):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 2.0, 5)])
        with pytest.raises(NotANode, match="non-finite"):
            g.index_of([0.0, bad])

    def test_refine_keeps_old_nodes(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (0.0, 4.0, 3)])
        fine = g.refine(4)
        assert fine.shape == (17, 9)
        for flat in range(g.size):
            fine.index_of(g.coords(flat))

    def test_refine_rejects_bad_factor(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(ValueError):
            g.refine(0)

    def test_boundary_mask(self):
        g = Grid.from_bounds([(0.0, 2.0, 3), (0.0, 2.0, 3)])
        mask = g.boundary_mask().reshape(3, 3)
        assert not mask[1, 1]
        assert mask.sum() == 8

    def test_product_grid(self):
        a = Grid.from_bounds([(0.0, 1.0, 3)])
        b = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)])
        p = product_grid(a, b)
        assert p.dim == 3
        assert p.size == 12


class TestGriddedFunction:
    def test_nan_rejected(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        with pytest.raises(ValueError):
            GriddedFunction(g, [0.0, float("nan"), 1.0])

    def test_size_mismatch(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        with pytest.raises(GridMismatch):
            GriddedFunction(g, [0.0, 1.0])

    def test_masks_and_properness(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [1.0, INF, -INF, 0.0])
        np.testing.assert_array_equal(f.dom_mask, [True, False, True, True])
        np.testing.assert_array_equal(f.finite_mask, [True, False, False, True])
        assert not f.is_proper
        assert GriddedFunction(g, [1.0, INF, 2.0, 0.0]).is_proper
        assert not GriddedFunction(g, [INF] * 4).is_proper

    def test_values_read_only(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        f = GriddedFunction(g, [0.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_ext_sum_uses_lower_addition(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [INF, -INF, 1.0])
        h = GriddedFunction(g, [-INF, -INF, 2.0])
        s = ext_sum(f, h)
        assert s.values[0] == INF
        assert s.values[1] == -INF
        assert s.values[2] == 3.0
        other = Grid.from_bounds([(0.0, 2.0, 3)])
        with pytest.raises(GridMismatch):
            ext_sum(f, GriddedFunction(other, [0.0, 0.0, 0.0]))


class TestExpressions:
    def test_eval_simple(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        f = eval_on_grid("x^2", g)
        np.testing.assert_allclose(f.values, [1.0, 0.25, 0.0, 0.25, 1.0])

    def test_alias_and_numbered_names(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        np.testing.assert_array_equal(
            eval_on_grid("abs(x)", g).values, eval_on_grid("abs(x1)", g).values
        )

    def test_builtins(self):
        g = Grid.from_bounds([(-2.0, 2.0, 5)])
        np.testing.assert_allclose(
            eval_on_grid("min(x, 0) + max(x, 1)", g).values,
            [-1.0, 0.0, 1.0, 1.0, 2.0],
        )

    def test_domain_constraints_map_to_plus_inf(self):
        g = Grid.from_bounds([(-2.0, 2.0, 5)])
        f = eval_on_grid("x", g, domain=["abs(x) - 1"])
        np.testing.assert_array_equal(f.values, [INF, -1.0, 0.0, 1.0, INF])

    def test_division_blowup_raises(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        with pytest.raises(NonFiniteExpression):
            eval_on_grid("1 / x", g)
        f = eval_on_grid("1 / x", g, domain=["0.5 - abs(x)"])
        assert f.values[1] == INF
        assert f.values[0] == -1.0

    def test_unknown_variable(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(UnknownVariable):
            eval_on_grid("x + z", g)

    def test_syntax_error_carries_position(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(ExprSyntaxError):
            eval_on_grid("x + * 2", g)

    def test_two_dimensional_names(self):
        g = Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)])
        f = eval_on_grid("x1 + 2 * x2", g)
        np.testing.assert_allclose(f.values, [0.0, 2.0, 1.0, 3.0])
