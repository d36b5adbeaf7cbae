"""Marginal functions: oracle equality, exact identities, probes."""

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    ATTAINED,
    INFEASIBLE,
    UNBOUNDED,
    Grid,
    GridMismatch,
    GriddedFunction,
    NotFiniteAtPoint,
    SetValuedMap,
    Tables,
    conjugate_at,
    convexity_check,
    domain_identity_check,
    epigraph_projection_check,
    eta_solutions,
    eval_on_grid,
    full_map,
    graph_adapted_xgrid,
    lipschitz_estimate_map,
    lipschitz_probe,
    map_from_constraints,
    map_from_inequalities,
    marginal,
    product_grid,
    semicontinuity_probe,
)
from marginlab import duality
from marginlab.marginal import masked_minima

from helpers import (
    dyadic_grid,
    load_fixture,
    oracle_marginal,
    per_node_convexity_check,
    random_problem,
)

INF = math.inf

# The package re-exports the function `marginal`, which hides the module;
# `conjugate` likewise.
conjugate_module = importlib.import_module("marginlab.conjugate")


def phi_modulus(phi):
    """Max sum-norm difference quotient of phi over finite node pairs."""
    finite = np.flatnonzero(phi.finite_mask)
    X = phi.grid.nodes
    best = 0.0
    for a in range(finite.size - 1):
        i = finite[a]
        js = finite[a + 1 :]
        num = np.abs(phi.values[js] - phi.values[i])
        den = np.abs(X[js] - X[i]).sum(axis=1)
        best = max(best, float((num / den).max()))
    return best


class TestMarginalOracle:
    def test_matches_loop_oracle_on_100_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            phi, F = random_problem(rng)
            res = marginal(phi, F)
            values, argmins, statuses = oracle_marginal(phi, F)
            np.testing.assert_array_equal(res.mu.values, values)
            assert res.argmin == tuple(argmins)
            assert res.status == tuple(statuses)

    def test_statuses(self):
        X = Grid.from_bounds([(0.0, 2.0, 3)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        graph = np.array([[True, True], [False, False], [True, True]])
        F = SetValuedMap(X, Y, graph)
        phi = GriddedFunction(
            Grid.from_bounds([(0.0, 2.0, 3), (0.0, 1.0, 2)]),
            [1.0, 2.0, 0.0, 0.0, -INF, 5.0],
        )
        res = marginal(phi, F)
        assert res.status == (ATTAINED, INFEASIBLE, UNBOUNDED)
        assert res.mu.values[0] == 1.0
        assert res.mu.values[1] == INF
        assert res.mu.values[2] == -INF
        assert res.argmin[0] == (0,)
        assert res.argmin[1] == ()

    def test_feasible_but_everywhere_infinite_counts_as_infeasible(self):
        X = Grid.from_bounds([(0.0, 1.0, 2)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(
            Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)]), [INF, INF, 0.0, 0.0]
        )
        res = marginal(phi, full_map(X, Y))
        assert res.status == (INFEASIBLE, ATTAINED)

    def test_grid_mismatch(self):
        X = Grid.from_bounds([(0.0, 1.0, 2)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(Grid.from_bounds([(0.0, 1.0, 4)]), [0.0] * 4)
        with pytest.raises(GridMismatch):
            marginal(phi, full_map(X, Y))


class TestMaskedMinima:
    """`marginal`, the row minima it shares with the epigraph check and the
    Lagrangian conjugate, bit for bit against the per-node loop oracle."""

    @staticmethod
    def problems(rng, count):
        # Each instance gets an empty graph row, a feasible row where phi is
        # all +inf, and a row with a feasible -inf, where rows allow.
        for _ in range(count):
            phi, F = random_problem(rng, xdim=int(rng.integers(1, 3)))
            vals, graph = phi.values.copy(), F.graph.copy()
            rows = rng.permutation(F.xgrid.size)[:3]
            ny = F.ygrid.size
            if rows.size > 0:
                graph[rows[0]] = False
            if rows.size > 1:
                graph[rows[1], 0] = True
                vals[rows[1] * ny : (rows[1] + 1) * ny] = INF
            if rows.size > 2:
                cell = int(rng.integers(0, ny))
                graph[rows[2], cell] = True
                vals[rows[2] * ny + cell] = -INF
            yield GriddedFunction(phi.grid, vals), SetValuedMap(F.xgrid, F.ygrid, graph)

    def test_marginal_and_row_minima_equal_the_loop_oracle(self):
        rng = np.random.default_rng(41)
        labels = set()
        for phi, F in self.problems(rng, 150):
            values, argmins, statuses = oracle_marginal(phi, F)
            want = np.array(values, dtype=np.float64).view(np.uint64)
            res = marginal(phi, F)
            np.testing.assert_array_equal(res.mu.values.view(np.uint64), want)
            np.testing.assert_array_equal(masked_minima(phi, F)[1].view(np.uint64), want)
            assert res.argmin == tuple(argmins)
            assert res.status == tuple(statuses)
            assert all(type(j) is int for row in res.argmin for j in row)
            assert all(type(s) is str for s in res.status)
            assert epigraph_projection_check(Tables(phi, F), [-1.0, 0.0, 1.0]).ok
            labels.update(res.status)
        assert labels == {ATTAINED, INFEASIBLE, UNBOUNDED}

    def test_lagrangian_conjugate_reads_the_oracle_mu(self):
        # mu*(-lambda) on x-grids reaching below every constraint value, so
        # some rows are empty, and on the graph-adapted grid.
        ygrid = Grid.from_bounds([(-2.0, 2.0, 9)])
        lam = Grid.from_bounds([(-1.0, 3.0, 9)]).nodes
        for f_expr, g_expr in (("y^2", "1 - y"), ("abs(y) - y", "y^2 - 1")):
            for xgrid in (
                Grid.from_bounds([(-3.0, 3.0, 13)]),
                graph_adapted_xgrid([g_expr], ygrid),
            ):
                F = map_from_inequalities([g_expr], xgrid, ygrid)
                fv, _ = duality._eval_objective(f_expr, (g_expr,), ygrid)
                phi = GriddedFunction(product_grid(xgrid, ygrid), np.tile(fv, xgrid.size))
                mu = GriddedFunction(xgrid, np.array(oracle_marginal(phi, F)[0]))
                got = duality._conjugate_at_neg(f_expr, (g_expr,), ygrid, xgrid, lam)
                want = conjugate_at(mu, -lam)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestExactIdentities:
    def test_domain_identity_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            phi, F = random_problem(rng)
            ok, witness = domain_identity_check(Tables(phi, F))
            assert ok and witness is None

    def test_epigraph_projection_on_random_instances(self):
        rng = np.random.default_rng(37)
        levels = [-2.0, -0.5, 0.0, 0.5, 2.0, 100.0]
        for _ in range(60):
            phi, F = random_problem(rng)
            rep = epigraph_projection_check(Tables(phi, F), levels)
            assert rep.ok, rep.violations
            assert rep.checked == len(levels) * F.xgrid.size


class TestEtaSolutions:
    def test_strict_threshold(self):
        spec = load_fixture("quadratic_halfline")
        phi, F = spec.build()
        ys = eta_solutions(phi, F, [0.0], 0.0626)
        got = {tuple(F.ygrid.coords(int(j))) for j in ys}
        assert got == {(0.0,), (0.25,)}
        assert eta_solutions(phi, F, [0.0], 0.0625).size == 1

    def test_infeasible_x_raises(self):
        X = Grid.from_bounds([(0.0, 1.0, 2)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(
            Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)]), [INF, INF, 0.0, 0.0]
        )
        with pytest.raises(NotFiniteAtPoint):
            eta_solutions(phi, full_map(X, Y), [0.0], 1.0)


class TestConvexityCheck:
    def test_convex_data_passes(self):
        g = Grid.from_bounds([(-1.0, 1.0, 9)])
        f = eval_on_grid("x^2", g)
        ok, witness = convexity_check(f)
        assert ok and witness is None

    def test_midpoint_violation_is_witnessed(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, 1.0, 0.0])
        ok, witness = convexity_check(f)
        assert not ok
        assert witness == (0, 2, 1)

    def test_plus_inf_endpoints_never_bind(self):
        g = Grid.from_bounds([(-1.0, 1.0, 3)])
        f = GriddedFunction(g, [INF, 100.0, INF])
        ok, _ = convexity_check(f)
        assert ok

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.sampled_from([None, 1, 5, 40]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_node_route(self, seed, dim, cap):
        """Against `per_node_convexity_check`, the loop over nodes it
        replaced: the verdict and the witness, the first failing pair in
        (i, j) order, in 1-D and 2-D, on a convex bowl with a few nodes
        raised or lowered and some +inf and -inf nodes, with the node
        pairs cut into blocks at a lowered `_BLOCK_CAP` or the real one."""
        rng = np.random.default_rng(seed)
        grid = dyadic_grid(rng, dim=dim, max_count=9 if dim == 1 else 5)
        values = (grid.nodes**2).sum(axis=1)
        values += (rng.random(grid.size) < 0.3) * rng.integers(-64, 65, grid.size) / 16.0
        values[rng.random(grid.size) < 0.3 * rng.random()] = INF
        values[rng.random(grid.size) < 0.1 * rng.random()] = -INF
        f = GriddedFunction(grid, values)
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", cap or conjugate_module._BLOCK_CAP):
            assert convexity_check(f) == per_node_convexity_check(f)


class TestSemicontinuityProbe:
    def test_jump_is_lsc_but_not_usc(self):
        spec = load_fixture("f_not_lsc")
        rep = semicontinuity_probe(spec, [0.0])
        assert rep.mu_at_x0 == -1.0
        assert len(rep.levels) == 3
        assert rep.lsc_consistent
        assert not rep.usc_consistent

    def test_continuous_instance_is_consistent_both_ways(self):
        spec = load_fixture("quadratic_halfline")
        rep = semicontinuity_probe(spec, [0.0])
        assert rep.lsc_consistent and rep.usc_consistent

    def test_refinement_shrinks_cells(self):
        spec = load_fixture("quadratic_halfline")
        rep = semicontinuity_probe(spec, [0.0])
        cells = [lv.cell for lv in rep.levels]
        assert cells[0] > cells[1] > cells[2]


class TestLipschitzBound:
    @pytest.mark.parametrize("name", ["abs_diff_window", "quadratic_halfline"])
    def test_estimate_below_product_bound(self, name):
        spec = load_fixture(name)
        phi, F = spec.build()
        mu = marginal(phi, F).mu
        ell_phi = phi_modulus(phi)
        ell_map = lipschitz_estimate_map(F)
        rep = lipschitz_probe(mu, ell_phi, ell_map)
        assert rep.ok
        assert rep.l_hat <= rep.bound + 1e-9
        assert rep.bound == ell_map * ell_phi + ell_phi
        assert rep.witness is not None

    def test_exact_quotient_on_known_instance(self):
        spec = load_fixture("abs_diff_window")
        phi, F = spec.build()
        mu = marginal(phi, F).mu
        rep = lipschitz_probe(mu, 1.0, 0.0)
        assert rep.l_hat == pytest.approx(1.0)
        assert rep.bound == 1.0

    def test_violation_is_reported(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, 5.0, 10.0])
        rep = lipschitz_probe(f, 1.0, 1.0)
        assert not rep.ok
        assert rep.l_hat == pytest.approx(10.0)
