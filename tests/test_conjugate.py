"""Fenchel conjugates: fast vs brute force, conventions, infimal convolution."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    Axis,
    Grid,
    GriddedFunction,
    UnsupportedShape,
    biconjugate,
    conjugate,
    conjugate_at,
    conjugate_fast,
    default_dual_grid,
    ext_add,
    inf_convolution,
    support_function,
)

from helpers import (
    dyadic_grid,
    oracle_conjugate,
    oracle_inf_convolution,
    random_function,
    random_values,
)

# The package re-exports the function `conjugate`, which hides the module.
conjugate_module = importlib.import_module("marginlab.conjugate")

INF = math.inf


class TestConjugateConventions:
    def test_plus_inf_nodes_are_excluded(self):
        g = Grid.from_bounds([(0.0, 2.0, 3)])
        f = GriddedFunction(g, [0.0, INF, 1.0])
        # at s = 3 the excluded middle node would otherwise win
        assert conjugate_at(f, np.array([[3.0]]))[0] == 5.0

    def test_everything_infinite_gives_sup_empty(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [INF, INF, INF])
        vals = conjugate_at(f, np.array([[0.0], [2.0]]))
        assert (vals == -INF).all()

    def test_minus_inf_anywhere_gives_plus_inf(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, -INF, 1.0])
        vals = conjugate_at(f, np.array([[0.0], [1.0]]))
        assert (vals == INF).all()

    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            f = random_function(rng, dyadic_grid(rng, dim=int(rng.integers(1, 3))))
            duals = default_dual_grid(f, 5)
            got = conjugate(f, duals).values
            want = [oracle_conjugate(f, s) for s in duals.nodes]
            np.testing.assert_array_equal(got, want)


class TestMaxDotsMinus:
    @pytest.mark.parametrize("cap", [1, 50, 1_000_000])
    def test_chunks_match_one_score_matrix_bitwise(self, monkeypatch, cap):
        # cap 1 and 50 force 64-row chunks with a ragged last one.
        monkeypatch.setattr(conjugate_module, "_SCORE_CAP", cap)
        rng = np.random.default_rng(131)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            Q = rng.standard_normal((int(rng.integers(1, 300)), d))
            P = rng.standard_normal((int(rng.integers(1, 40)), d))
            v = rng.standard_normal(P.shape[0])
            got = conjugate_module.max_dots_minus(Q, P, v)
            want = (Q @ P.T - v[None, :]).max(axis=1)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_no_points_gives_minus_inf(self):
        kernel = conjugate_module.max_dots_minus
        got = kernel(np.ones((3, 2)), np.zeros((0, 2)), np.zeros(0))
        assert got.tolist() == [-INF] * 3


class TestFastAgainstBrute:
    def test_one_dimensional_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 200))
            g = Grid.from_bounds([(-2.0, 2.0, n)])
            f = GriddedFunction(g, random_values(rng, n, p_inf=0.25))
            if not (f.values < INF).any():
                continue
            duals = default_dual_grid(f, 31)
            fast = conjugate_fast(f, duals).values
            brute = conjugate(f, duals).values
            assert np.abs(fast - brute).max() <= 1e-12

    def test_separable_two_dimensional(self):
        g = Grid.from_bounds([(-1.0, 1.0, 9), (-1.0, 1.0, 9)])
        vals = (g.nodes**2).sum(axis=1) + np.abs(g.nodes).sum(axis=1)
        f = GriddedFunction(g, vals)
        duals = default_dual_grid(f, 7)
        fast = conjugate_fast(f, duals).values
        brute = conjugate(f, duals).values
        np.testing.assert_allclose(fast, brute, atol=1e-12)

    def test_non_separable_multi_d_is_refused(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
        f = GriddedFunction(g, np.abs(g.nodes[:, 0] - g.nodes[:, 1]))
        duals = default_dual_grid(f, 5)
        with pytest.raises(UnsupportedShape):
            conjugate_fast(f, duals)

    def test_improper_inputs_agree(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [0.0, -INF, 1.0, INF])
        duals = default_dual_grid(f)
        np.testing.assert_array_equal(
            conjugate_fast(f, duals).values, conjugate(f, duals).values
        )


class TestFenchelYoung:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_inequality_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        f = random_function(rng, dyadic_grid(rng))
        duals = default_dual_grid(f, 7)
        fstar = conjugate(f, duals).values
        X = f.grid.nodes
        for si, s in enumerate(duals.nodes):
            lhs = np.array(
                [float(ext_add(f.values[i], fstar[si])) for i in range(f.grid.size)]
            )
            pairing = X @ s
            finite = np.isfinite(lhs)
            assert (lhs[finite] >= pairing[finite] - 1e-9).all()
            assert (lhs[~finite] == INF).all() or not (~finite).any()


class TestBiconjugate:
    def test_minorant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = random_function(rng, dyadic_grid(rng))
            fss = biconjugate(f, default_dual_grid(f, 9))
            assert (fss.values <= f.values + 1e-9).all()

    def test_recovers_convex_data_with_dyadic_slopes(self):
        g = Grid.from_bounds([(-2.0, 2.0, 9)])
        f = GriddedFunction(g, np.abs(g.nodes[:, 0]))
        fss = biconjugate(f, default_dual_grid(f))
        np.testing.assert_allclose(fss.values, f.values, atol=1e-12)


class TestDefaultDualGrid:
    def test_covers_max_secant_slope_with_power_of_two(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, 1.5, 4.5])  # steepest secant 6
        d = default_dual_grid(f)
        (ax,) = d.axes
        assert ax.hi == 8.0 and ax.lo == -8.0
        assert math.log2(ax.hi) == int(math.log2(ax.hi))

    def test_origin_is_a_node(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_function(rng, dyadic_grid(rng, dim=2))
            d = default_dual_grid(f)
            d.index_of([0.0] * d.dim)

    def test_flat_data_still_covers_unit_slope(self):
        g = Grid.from_bounds([(0.0, 1.0, 4)])
        f = GriddedFunction(g, [2.0, 2.0, 2.0, 2.0])
        (ax,) = default_dual_grid(f).axes
        assert ax.hi >= 1.0


class TestSupportFunction:
    def test_matches_max_dot(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [-1.0, 2.0]])
        duals = Grid.from_bounds([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
        sf = support_function(pts, duals)
        np.testing.assert_allclose(sf.values, (duals.nodes @ pts.T).max(axis=1))

    def test_empty_set_gives_minus_inf(self):
        duals = Grid.from_bounds([(-1.0, 1.0, 3)])
        sf = support_function(np.zeros((0, 1)), duals)
        assert (sf.values == -INF).all()


class TestInfConvolution:
    def test_matches_split_oracle(self):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        out = Grid.from_bounds([(-2.0, 2.0, 9)])
        rng = np.random.default_rng(13)
        g1 = random_function(rng, g, p_inf=0.2)
        g2 = random_function(rng, g, p_inf=0.2)
        got = inf_convolution(g1, g2, out)
        for flat in range(out.size):
            want = oracle_inf_convolution(g1, g2, out.coords(flat))
            assert got.values[flat] == want

    def test_unreachable_out_node_relaxes_to_nearest_sum(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        out = Grid.from_bounds([(0.0, 3.0, 4)])
        g1 = GriddedFunction(g, [0.0, 1.0, 2.0])
        h = inf_convolution(g1, g1, out)
        assert "relaxed" in (h.provenance or "")
        assert np.isfinite(h.values[3])

