"""Weak/strong duality, infimal-convolution representation, Lagrangian identity."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from marginlab import (
    Axis,
    Grid,
    GriddedFunction,
    GridNotAdapted,
    SetValuedMap,
    Tables,
    ZeroNotOnGrid,
    conjugate_representation_check,
    dual_value_1,
    dual_value_2,
    eps_subdifferential,
    eval_on_grid,
    full_map,
    graph_adapted_xgrid,
    is_empty,
    lagrangian_dual,
    lagrangian_identity_check,
    primal_value,
    product_grid,
    sampled_inf_convolution,
    slater_strong_duality_check,
    strong_duality_check,
)
from marginlab import duality
from marginlab.cli import _duality_json

from helpers import (
    QUANTUM,
    brute_inf_convolution,
    dyadic_grid,
    dyadic_rows,
    load_fixture,
    random_function,
    random_problem,
)

INF = math.inf


def zero_centered_problem(rng, max_count=6):
    """Random instance whose x-grid contains the origin."""
    step = 2.0 ** -int(rng.integers(0, 3))
    count = int(rng.integers(2, max_count + 1))
    k = int(rng.integers(0, count))
    xgrid = Grid((Axis(-k * step, (count - 1 - k) * step, count),))
    ygrid = Grid((Axis(0.0, 2.0, int(rng.integers(2, max_count + 1))),))
    phi = random_function(rng, product_grid(xgrid, ygrid), p_inf=0.15)
    graph = rng.random((xgrid.size, ygrid.size)) >= 0.2
    if not graph.any():
        graph[0, 0] = True
    return phi, SetValuedMap(xgrid, ygrid, graph)


class TestWeakDualityChain:
    def test_ordered_on_100_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            phi, F = zero_centered_problem(rng)
            duals = Grid.from_bounds([(-4.0, 4.0, 9)])
            yduals = Grid.from_bounds([(-4.0, 4.0, 9)])
            tables = Tables(phi, F, duals, yduals)
            vp = primal_value(tables)
            vd1 = dual_value_1(tables)
            vd2 = dual_value_2(tables)
            assert vd2 <= vd1 + 1e-12
            assert vd1 <= vp + 1e-12

    def test_zero_must_be_a_node(self):
        X = Grid.from_bounds([(1.0, 2.0, 3)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(product_grid(X, Y), np.zeros(6))
        with pytest.raises(ZeroNotOnGrid):
            primal_value(Tables(phi, full_map(X, Y)))


class TestSampledInfConvolution:
    @pytest.mark.parametrize("xdim, ydim", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_brute_split_lattice_on_dyadic_data(self, xdim, ydim):
        rng = np.random.default_rng(131 + 10 * xdim + ydim)
        for trial in range(6):
            phi, F = random_problem(
                rng, max_count=4, p_drop=(0.25, 0.8, 1.0)[trial % 3], xdim=xdim, ydim=ydim
            )
            if trial % 3 == 2:
                F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
            x1duals = dyadic_grid(rng, xdim, max_count=4)
            yduals = dyadic_grid(rng, ydim, max_count=4)
            at = np.vstack([x1duals.nodes, dyadic_rows(rng, 3, xdim)])
            got = sampled_inf_convolution(phi, F, at, x1duals, yduals)
            want = brute_inf_convolution(phi, F, at, x1duals, yduals)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("cap", [1, 40, 200])
    def test_small_cap_chunks_the_evaluation_points(self, monkeypatch, cap):
        # Lattices of 8-20 (x1*, y*) pairs: 1, 2-5 or 10-25 points per block.
        monkeypatch.setattr(importlib.import_module("marginlab.conjugate"), "_BLOCK_CAP", cap)
        rng = np.random.default_rng(137 + cap)
        for _ in range(4):
            phi, F = random_problem(rng, max_count=4, xdim=2, ydim=1)
            x1duals = Grid.from_bounds([(-1.0, 1.0, 2), (-0.5, 0.5, 2)])
            yduals = Grid.from_bounds([(-2.0, 2.0, int(rng.choice([2, 3, 5])))])
            at = np.vstack([x1duals.nodes, dyadic_rows(rng, 33, 2)])
            got = sampled_inf_convolution(phi, F, at, x1duals, yduals)
            want = brute_inf_convolution(phi, F, at, x1duals, yduals)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("kind", ["minus_inf", "all_plus_inf"])
    @pytest.mark.parametrize("empty_graph", [False, True])
    def test_infinite_tables(self, kind, empty_graph):
        rng = np.random.default_rng(149)
        phi, F = random_problem(rng, max_count=4, p_drop=0.3)
        vals = phi.values.copy()
        if kind == "minus_inf":
            vals[int(rng.integers(0, vals.size))] = -INF
        else:
            vals[:] = INF
        phi = GriddedFunction(phi.grid, vals)
        if empty_graph:
            F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
        x1duals = Grid.from_bounds([(-1.0, 1.0, 3)])
        yduals = Grid.from_bounds([(-1.0, 1.0, 3)])
        at = np.vstack([x1duals.nodes, dyadic_rows(rng, 3, 1)])
        got = sampled_inf_convolution(phi, F, at, x1duals, yduals)
        want = brute_inf_convolution(phi, F, at, x1duals, yduals)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_memory_stays_bounded_on_the_refined_lattice(self):
        # The x2-refined split lattice of conjugate_representation_check on
        # separable_quadratic has 81 x 289 x 289 (x*, x1*, y*) triples: one
        # float table of them is 54 MB, and the unchunked sum took 171 MB.
        spec = load_fixture("separable_quadratic")
        phi, F = spec.build()
        x1duals, yduals = spec.xduals.refine(2), spec.yduals.refine(2)
        tracemalloc.start()
        try:
            sampled_inf_convolution(phi, F, spec.xduals.nodes, x1duals, yduals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestStrongDuality:
    def test_certified_with_midpoint_witness(self):
        spec = load_fixture("lagrangian_quadratic")
        rep = strong_duality_check(Tables(*spec.build(), spec.xduals, spec.yduals))
        assert rep.vp == 1.0
        assert rep.witness == (-2.0,)
        assert abs(rep.gap) <= 1e-9
        rows = {name: ok for name, ok, _ in rep.verdicts}
        assert rows["strong_duality_certified"] is True
        assert rows["witness_sound"] is True

    def test_nonconvex_gap_of_one_with_empty_subdifferential(self):
        spec = load_fixture("diagonal_nonconvex")
        tables = Tables(*spec.build(), spec.xduals)
        rep = strong_duality_check(tables)
        assert abs(rep.gap - 1.0) <= 1e-9
        assert rep.witness is None
        empty, cert = is_empty(
            eps_subdifferential(tables.mu, tables.F.xgrid.index_of([0.0]), 0.0)
        )
        assert empty and cert is not None
        rows = {name: (ok, detail) for name, ok, detail in rep.verdicts}
        # emptiness is a finding, not a failure: an INFO row, and no pass
        assert rows["subdifferential_nonempty"] == (None, "no certificate")
        passes = {v["name"]: v["pass"] for v in _duality_json(rep)["verdicts"]}
        assert passes["subdifferential_nonempty"] is False
        assert rows["weak_duality_chain"] == (True, "")
        assert rows["gap_nonnegative"] == (True, "")

    def test_json_and_csv_render_infinities(self):
        spec = load_fixture("diagonal_nonconvex")
        rep = strong_duality_check(Tables(*spec.build(), spec.xduals))
        d = _duality_json(rep)
        assert set(d) == {"vp", "vd1", "vd2", "gap", "witness", "verdicts"}


class TestConjugateRepresentation:
    def test_exact_on_lagrangian_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        rep = conjugate_representation_check(
            Tables(*spec.build(), spec.xduals, spec.yduals), hypothesis=spec.metadata["qc1"]
        )
        # all three rows bind under the hypothesis, and all pass
        assert [ok for _, ok, _ in rep.verdicts] == [True, True, True]
        assert rep.lower_bound_ok
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize(
        "name", ["abs_full", "quadratic_halfline", "abs_diff_window"]
    )
    def test_residual_monotone_under_split_refinement(self, name):
        spec = load_fixture(name)
        xd = spec.xduals
        yd = spec.yduals if spec.yduals is not None else xd
        rep = conjugate_representation_check(Tables(*spec.build(), xd, yd))
        assert rep.lower_bound_ok
        assert rep.monotone_ok
        for r0, r1 in zip(rep.residuals, rep.refined_residuals):
            assert r1 <= r0 + 1e-9


class TestLagrangian:
    def test_dual_function_table(self):
        ygrid = Grid.from_bounds([(0.0, 2.0, 9)])
        lambdas = Grid.from_bounds([(-1.0, 4.0, 6)])
        table = lagrangian_dual("y^2", ["1 - y"], ygrid, lambdas)
        for row, value, yi, neg in zip(
            table.lambdas, table.values, table.minimizers, table.expected_infinite
        ):
            lam = row[0]
            yvals = ygrid.nodes[:, 0]
            want = float((yvals**2 + lam * (1.0 - yvals)).min())
            assert value == pytest.approx(want, abs=1e-12)
            assert neg == (lam < 0)

    def test_identity_and_divergence_branches(self):
        ygrid = Grid.from_bounds([(0.0, 2.0, 9)])
        lambdas = Grid.from_bounds([(-1.0, 4.0, 6)])
        rep = lagrangian_identity_check("y^2", ["1 - y"], ygrid, lambdas)
        assert list(rep.verdicts) == [
            ("lagrange_dual_identity", True, "5 lambda nodes >= 0"),
            ("lagrange_negative_probe", True, "1 lambda nodes < 0"),
        ]
        kinds = {}
        for lam, lhat, mustar, kind, ok in rep.rows:
            assert ok
            kinds.setdefault(kind, 0)
            kinds[kind] += 1
            if kind == "identity":
                assert abs(mustar + lhat) <= 1e-9
        assert kinds == {"identity": 5, "divergent": 1}

    def test_adapted_grid_contains_constraint_values(self):
        ygrid = Grid.from_bounds([(0.0, 2.0, 9)])
        xg = graph_adapted_xgrid(["1 - y"], ygrid)
        for y in ygrid.nodes[:, 0]:
            xg.index_of([1.0 - y])

    @pytest.mark.parametrize("power", range(-6, 13))
    def test_adapted_grid_scales_with_the_values(self, power):
        # The gaps of c * (1 - y) carry rounding error relative to c; an
        # absolute cutoff read it as a tiny common step from c = 1e7 on.
        c = 10.0**power
        ygrid = Grid.from_bounds([(0.0, 2.0, 7)])
        expr = f"{c!r} * (1 - y)"
        xg = graph_adapted_xgrid([expr], ygrid)
        assert xg.shape == (7,)
        values = c * (1.0 - ygrid.nodes[:, 0])
        miss = np.abs(xg.nodes[:, 0][:, None] - values[None, :]).min(axis=0)
        assert miss.max() <= 1e-9 * max(1.0, c)
        lambdas = Grid.from_bounds([(-1.0, 4.0, 6)])
        rep = lagrangian_identity_check("y^2", [expr], ygrid, lambdas)
        assert [ok for _, ok, _ in rep.verdicts] == [True, True]

    def test_incommensurable_values_are_refused(self):
        ygrid = Grid.from_bounds([(0.0, 1.0, 3)])
        expr = "max(y - 0.5, 0) * 1.4142135623730951 + min(y, 0.5)"
        with pytest.raises(GridNotAdapted):
            graph_adapted_xgrid([expr], ygrid)


def lp_lagrangian_dual(fv, gv):
    """max t over t free, lambda >= 0 with t - lambda . g_j <= f_j: one LP."""
    from scipy.optimize import linprog

    k = gv.shape[0]
    res = linprog(
        c=[-1.0] + [0.0] * k,
        A_ub=np.hstack([np.ones((fv.size, 1)), -gv.T]),
        b_ub=fv,
        bounds=[(None, None)] + [(0, None)] * k,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.x[0])


def lp_mixing_value(fv, gv):
    """min sum w f over w >= 0, sum w = 1, sum w g_i <= 0: the convexified
    primal over the nodes, the LP dual of the Lagrangian dual, solved as its
    own LP."""
    from scipy.optimize import linprog

    res = linprog(
        c=fv,
        A_ub=gv,
        b_ub=np.zeros(gv.shape[0]),
        A_eq=np.ones((1, fv.size)),
        b_eq=[1.0],
        bounds=[(0, None)] * fv.size,
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def close_to(value, ref, rel=1e-12):
    return abs(value - ref) <= rel * max(1.0, abs(ref))


class TestSlater:
    Y = Grid.from_bounds([(0.0, 2.0, 9)])

    @pytest.mark.parametrize(
        "f_expr, g_expr, optimum",
        [
            ("(y - 1.5)^2", "1 - y", "node"),  # lambda = 0, g < 0 there
            ("y^2", "1 - y", "node"),  # the node with g = 0
            ("y^2", "0.9 - y", "mix"),  # g changes sign between 0.75 and 1
            ("y^2", "y - 5", "node"),  # every node feasible
        ],
    )
    def test_one_constraint_value_matches_the_lp(self, f_expr, g_expr, optimum):
        rep = slater_strong_duality_check(f_expr, [g_expr], self.Y, hypothesis=True)
        fv = eval_on_grid(f_expr, self.Y, ["y"]).values
        gv = eval_on_grid(g_expr, self.Y, ["y"]).values
        vd = lp_lagrangian_dual(fv, gv[None, :])
        assert close_to(rep.vd, vd)
        assert rep.verdicts[0].ok == (abs(rep.vp - vd) <= 1e-9)
        assert (rep.vd in fv[gv <= 0]) == (optimum == "node")

    def test_one_constraint_value_on_random_programs(self, monkeypatch):
        # A tiny block size makes every pair scan run over several blocks.
        monkeypatch.setattr(importlib.import_module("marginlab.conjugate"), "_BLOCK_CAP", 3)
        rng = np.random.default_rng(113)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            fv = rng.integers(-4096, 4097, size=n) * QUANTUM
            gv = rng.integers(-4096, 4097, size=n) * QUANTUM
            gv[rng.integers(0, n)] = -float(rng.integers(1, 4097)) * QUANTUM
            vd = duality._one_constraint_dual_value(fv, gv)
            assert close_to(vd, lp_lagrangian_dual(fv, gv[None, :]))

    @pytest.mark.parametrize(
        "f_expr, g_exprs, bounds",
        [
            ("y^2", ["0.9 - y", "y - 1.7"], [(0.0, 2.0, 9)]),  # the mix of 0.75 and 1 beats vp
            ("y1^2 + y2^2", ["1 - y1 - y2", "y1 - y2 - 0.5"], [(-1.0, 2.0, 7)] * 2),
            ("abs(y1 - 1) + y2", ["y2 - y1", "-y2 - 0.25", "y1 - 1.5"], [(0.0, 2.0, 5)] * 2),
        ],
    )
    def test_several_constraints_match_the_primal_mixing_lp(self, f_expr, g_exprs, bounds):
        ygrid = Grid.from_bounds(bounds)
        names = ["y"] if ygrid.dim == 1 else ["y1", "y2"]
        fv = eval_on_grid(f_expr, ygrid, names).values
        gv = np.stack([eval_on_grid(g, ygrid, names).values for g in g_exprs])
        rep = slater_strong_duality_check(f_expr, g_exprs, ygrid, hypothesis=True)
        vd = lp_mixing_value(fv, gv)
        assert rep.verified
        assert close_to(rep.vd, vd, rel=1e-9)
        assert rep.vp == fv[(gv <= 1e-9).all(axis=0)].min()
        assert rep.verdicts[0].ok == (abs(rep.vp - vd) <= 1e-9)

    def test_verified_on_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        f_expr, g_exprs = spec.lagrangian
        declared = spec.metadata["slater"] and spec.metadata["convex"]
        rep = slater_strong_duality_check(f_expr, g_exprs, spec.ygrid, declared)
        assert rep.verified
        assert rep.slater_node is not None
        assert rep.verdicts[0].ok is True
        assert abs(rep.gap) <= 1e-9
        # undeclared, the same equality is reported without binding
        rep = slater_strong_duality_check(f_expr, g_exprs, spec.ygrid)
        assert rep.verdicts[0].ok is None

    def test_no_strict_node_leaves_verdict_open(self):
        ygrid = Grid.from_bounds([(0.0, 2.0, 5)])
        rep = slater_strong_duality_check("y^2", ["abs(y)"], ygrid, hypothesis=True)
        assert not rep.verified
        assert rep.slater_node is None
        assert rep.verdicts[0].ok is None
        assert "unverified" in rep.verdicts[0].detail
