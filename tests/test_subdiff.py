"""Epsilon-subdifferential calculus: polyhedra, LP queries, set formulas."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from marginlab import (
    DEFAULT_ETAS,
    Axis,
    Grid,
    GridMismatch,
    GriddedFunction,
    HPolyhedron,
    Interval,
    NotANode,
    NotFiniteAtPoint,
    NotOnGraph,
    PointNotInSet,
    SetValuedMap,
    UnsupportedDimension,
    conj_subdiff_check,
    conjugate_at,
    default_dual_grid,
    eps_coderivative,
    eps_normal_cone,
    eps_subdifferential,
    eta_solutions,
    ext_sum,
    eval_on_grid,
    feasible_point,
    full_map,
    graph_support,
    is_empty,
    marginal,
    marginal_subdiff_check,
    partial_conjugate,
    product_grid,
    restricted_conjugate_check,
    sum_rule_check,
)
from marginlab import subdiff
from marginlab.conjugate import default_ydual_grid
from marginlab.setmap import split_lattice

from helpers import (
    dyadic_grid,
    load_fixture,
    oracle_subgradient_member,
    random_function,
    random_problem,
    random_values,
    reference_conj_subdiff_check,
    reference_marginal_subdiff_check,
)

INF = math.inf


def lp_is_feasible(A, b):
    """Independent feasibility oracle: one phase-1 LP through scipy."""
    A = np.atleast_2d(A)
    res = linprog(
        c=np.zeros(A.shape[1]),
        A_ub=A,
        b_ub=np.asarray(b, dtype=np.float64) + 1e-9,
        bounds=[(None, None)] * A.shape[1],
        method="highs",
    )
    return res.status == 0


class TestHPolyhedron:
    def test_whole_space_and_canonical_empty(self):
        W = HPolyhedron.whole_space(2)
        assert W.contains([100.0, -3.0])
        E = HPolyhedron.empty(2)
        assert not E.contains([0.0, 0.0])
        np.testing.assert_array_equal(E.normals, [[0.0, 0.0]])
        np.testing.assert_array_equal(E.offsets, [-1.0])

    def test_contains_vectorized(self):
        P = HPolyhedron([[1.0], [-1.0]], [1.0, 0.0])  # 0 <= s <= 1
        out = P.contains(np.array([[-0.5], [0.5], [2.0]]))
        np.testing.assert_array_equal(out, [False, True, False])

    def test_interval_forms(self):
        assert HPolyhedron([[2.0], [-1.0]], [4.0, 1.0]).interval() == Interval(-1.0, 2.0)
        iv = HPolyhedron([[1.0]], [3.0]).interval()
        assert iv.lo == -INF and iv.hi == 3.0
        assert HPolyhedron.whole_space(1).interval() == Interval(-INF, INF)
        assert HPolyhedron([[1.0], [-1.0]], [0.0, -1.0]).interval().empty

    def test_zero_rows_decide_emptiness(self):
        assert HPolyhedron([[0.0]], [-0.5]).interval().empty
        assert not HPolyhedron([[0.0]], [0.5]).interval().empty

    def test_interval_needs_one_dimension(self):
        with pytest.raises(UnsupportedDimension):
            HPolyhedron.whole_space(2).interval()


class TestEmptinessAndFeasiblePoint:
    def test_random_systems_agree_with_lp_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 8))
            A = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
            b = rng.integers(-4, 5, size=k).astype(np.float64) / 2.0
            P = HPolyhedron(A, b)
            empty, cert = is_empty(P)
            assert empty != lp_is_feasible(A, b)
            p = feasible_point(P)
            if empty:
                assert p is None
                assert cert is not None and len(cert) <= d + 1
                assert not lp_is_feasible(A[list(cert)], b[list(cert)])
            else:
                assert p is not None
                assert P.contains(p)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            is_empty(HPolyhedron.whole_space(4))

    def test_feasible_point_prefers_interior(self):
        P = HPolyhedron([[1.0], [-1.0]], [2.0, 0.0])  # [0, 2]
        assert feasible_point(P)[0] == pytest.approx(1.0)
        half = HPolyhedron([[-1.0]], [-3.0])  # [3, inf)
        assert feasible_point(half)[0] == pytest.approx(3.0)
        assert feasible_point(HPolyhedron.whole_space(1))[0] == 0.0


class TestEpsSubdifferential:
    def test_membership_matches_inequality_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            f = random_function(rng, dyadic_grid(rng, max_count=6))
            duals = default_dual_grid(f, 7)
            eps = float(rng.choice([0.0, 0.25, 1.0]))
            for xi in range(f.grid.size):
                P = eps_subdifferential(f, xi, eps)
                got = P.contains(duals.nodes)
                want = [
                    oracle_subgradient_member(f, xi, s, eps) for s in duals.nodes
                ]
                np.testing.assert_array_equal(got, want)

    def test_nesting_in_eps(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            f = random_function(rng)
            duals = default_dual_grid(f, 9)
            xi = int(rng.integers(0, f.grid.size))
            inner = eps_subdifferential(f, xi, 0.25).contains(duals.nodes)
            outer = eps_subdifferential(f, xi, 1.0).contains(duals.nodes)
            assert not (inner & ~outer).any()

    def test_infinite_point_gives_canonical_empty(self):
        g = Grid.from_bounds([(0.0, 1.0, 3)])
        f = GriddedFunction(g, [0.0, INF, 1.0])
        P = eps_subdifferential(f, 1, 0.0)
        assert is_empty(P)[0]
        h = GriddedFunction(g, [0.0, -INF, 1.0])
        assert is_empty(eps_subdifferential(h, 0, 0.0))[0]

    def test_negative_eps_rejected(self):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        f = GriddedFunction(g, [0.0, 0.0])
        with pytest.raises(ValueError):
            eps_subdifferential(f, 0, -0.1)

    @pytest.mark.parametrize("eps", [INF, math.nan])
    def test_non_finite_eps_rejected(self, eps):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        F = full_map(g, g)
        with pytest.raises(ValueError, match="finite"):
            eps_subdifferential(GriddedFunction(g, [0.0, 0.0]), 0, eps)
        with pytest.raises(ValueError, match="finite"):
            eps_normal_cone(g.nodes, [0.0], eps)
        with pytest.raises(ValueError, match="finite"):
            eps_coderivative(F, ([0.0], [0.0]), [0.0], eps)

    def test_fenchel_young_membership_equivalence(self):
        # s is an eps-subgradient at x0 exactly when
        # f*(s) + f(x0) <= <s, x0> + eps; both routes must agree everywhere.
        rng = np.random.default_rng(53)
        for _ in range(100):
            f = random_function(rng, dyadic_grid(rng, max_count=6))
            duals = default_dual_grid(f, 9)
            fstar = conjugate_at(f, duals.nodes)
            eps = float(rng.choice([0.0, 0.5]))
            for xi in np.flatnonzero(f.finite_mask):
                halfspace = eps_subdifferential(f, int(xi), eps).contains(duals.nodes)
                pairing = duals.nodes @ f.grid.coords(int(xi))
                young = fstar + f.values[xi] <= pairing + eps + 1e-9
                np.testing.assert_array_equal(halfspace, young)


class TestNormalConeAndCoderivative:
    def test_normal_cone_matches_definition(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x0 = [1.0, 1.0]
        N = eps_normal_cone(pts, x0, 0.5)
        probe = np.array([[1.0, 1.0], [0.0, 0.0], [-1.0, 2.0], [0.5, 0.0]])
        want = ((pts - np.array(x0)) @ probe.T <= 0.5 + 1e-9).all(axis=0)
        np.testing.assert_array_equal(N.contains(probe), want)

    def test_normal_cone_needs_membership(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.raises(PointNotInSet):
            eps_normal_cone(pts, [0.5], 0.0)

    def test_coderivative_matches_definition(self):
        X = Grid.from_bounds([(-1.0, 1.0, 3)])
        Y = Grid.from_bounds([(-1.0, 1.0, 3)])
        F = full_map(X, Y)
        xi, yi = X.index_of([0.0]), Y.index_of([0.0])
        ystar = [0.5]
        D = eps_coderivative(F, ([0.0], [0.0]), ystar, 0.25)
        gx, gy = F.graph_cells
        A = X.nodes[gx] - X.coords(xi)
        rhs = 0.25 + (Y.nodes[gy] - Y.coords(yi)) @ np.array(ystar)
        for s in np.linspace(-2, 2, 9):
            want = bool((A[:, 0] * s <= rhs + 1e-9).all())
            assert D.contains([s]) == want

    def test_coderivative_needs_graph_point(self):
        X = Grid.from_bounds([(-1.0, 1.0, 3)])
        Y = Grid.from_bounds([(-1.0, 1.0, 3)])
        F = SetValuedMap(X, Y, np.eye(3, dtype=bool))
        with pytest.raises(NotOnGraph):
            eps_coderivative(F, ([0.0], [1.0]), [0.0], 0.0)


class TestSumRule:
    def test_easy_inclusion_on_random_instances(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            grid = dyadic_grid(rng, max_count=6)
            g1 = random_function(rng, grid, p_inf=0.15)
            g2 = random_function(rng, grid, p_inf=0.15)
            xi = int(rng.integers(0, grid.size))
            rep = sum_rule_check(g1, g2, xi, float(rng.choice([0.0, 0.5, 1.0])))
            assert rep.easy_ok, rep.disagreements

    def test_exact_at_eps_zero_for_convex_pair(self):
        g = Grid.from_bounds([(-1.0, 1.0, 9)])
        g1 = eval_on_grid("x^2", g)
        g2 = eval_on_grid("abs(x)", g)
        rep = sum_rule_check(g1, g2, g.index_of([0.0]), 0.0)
        assert rep.easy_ok
        assert rep.agreement == 1.0
        assert rep.splits == ((0.0, 0.0),)

    @staticmethod
    def split_masks(g1, g2, xi, duals):
        """Both sides of the sum rule at eps 0.5 split by split, and how many
        duals each split left uncovered: the LPs a per-dual route solves."""
        S = duals.nodes
        lhs_mask = eps_subdifferential(ext_sum(g1, g2), xi, 0.5).contains(S)
        rhs_mask = np.zeros(S.shape[0], dtype=bool)
        uncovered = 0
        for e1, e2 in subdiff._split_pairs(0.5, subdiff.SUM_RULE_SPLITS):
            P = eps_subdifferential(g1, xi, e1)
            Q = eps_subdifferential(g2, xi, e2)
            uncovered += int((~rhs_mask).sum())
            rhs_mask |= subdiff._minkowski_contains(P, Q, S)
        return lhs_mask, rhs_mask, uncovered

    @staticmethod
    def counted_sum_rule(monkeypatch, g1, g2, xi, duals):
        """sum_rule_check at eps 0.5 with its `_farkas` and `linprog` calls counted."""
        farkas_calls, lp_calls = [], []
        farkas, lp = subdiff._farkas, subdiff.linprog
        monkeypatch.setattr(
            subdiff, "_farkas", lambda A, b: farkas_calls.append(1) or farkas(A, b)
        )
        monkeypatch.setattr(
            subdiff, "linprog", lambda *a, **k: lp_calls.append(1) or lp(*a, **k)
        )
        rep = sum_rule_check(g1, g2, xi, 0.5, duals=duals)
        monkeypatch.undo()
        return rep, len(farkas_calls), len(lp_calls)

    @staticmethod
    def assert_report_matches(rep, S, lhs_mask, rhs_mask):
        assert rep.easy_ok == (not (rhs_mask & ~lhs_mask).any())
        assert rep.agreement == float((lhs_mask == rhs_mask).mean())
        bad = S[lhs_mask != rhs_mask][:16]
        assert rep.disagreements == tuple(tuple(float(c) for c in r) for r in bad)

    def random_cases(self, rng, dim, count, max_count, dual_count):
        cases = []
        for _ in range(count):
            grid = dyadic_grid(rng, dim=dim, max_count=max_count)
            g1 = random_function(rng, grid, p_inf=0.1)
            g2 = random_function(rng, grid, p_inf=0.1)
            xi = int(rng.integers(0, grid.size))
            cases.append((g1, g2, xi, default_dual_grid(ext_sum(g1, g2), dual_count)))
        return cases

    def test_splits_skip_duals_already_in_the_sum(self, monkeypatch):
        """Above dimension 2 each split solves one LP per dual no earlier
        split covered."""
        cases = self.random_cases(np.random.default_rng(67), 3, 3, 3, 2)
        lp_counts = []
        for g1, g2, xi, duals in cases:
            lhs_mask, rhs_mask, uncovered = self.split_masks(g1, g2, xi, duals)
            rep, farkas_calls, _ = self.counted_sum_rule(monkeypatch, g1, g2, xi, duals)
            assert farkas_calls == uncovered
            self.assert_report_matches(rep, duals.nodes, lhs_mask, rhs_mask)
            lp_counts.append(farkas_calls)
        splits = subdiff.SUM_RULE_SPLITS
        assert 0 < sum(lp_counts) < splits * sum(duals.size for *_, duals in cases)

    def test_two_dimensional_sum_rule_solves_no_lp(self, monkeypatch):
        spec = load_fixture("separable_quadratic")
        mu = marginal(*spec.build()).mu
        cases = [(mu, mu, mu.grid.index_of([0.0, 0.0]), spec.xduals)]
        cases += self.random_cases(np.random.default_rng(67), 2, 3, 4, 4)
        for g1, g2, xi, duals in cases:
            lhs_mask, rhs_mask, _ = self.split_masks(g1, g2, xi, duals)
            rep, farkas_calls, lp_calls = self.counted_sum_rule(monkeypatch, g1, g2, xi, duals)
            assert (farkas_calls, lp_calls) == (0, 0)
            self.assert_report_matches(rep, duals.nodes, lhs_mask, rhs_mask)

    def test_grid_mismatch(self):
        a = Grid.from_bounds([(0.0, 1.0, 3)])
        b = Grid.from_bounds([(0.0, 2.0, 3)])
        with pytest.raises(GridMismatch):
            sum_rule_check(
                GriddedFunction(a, [0.0] * 3), GriddedFunction(b, [0.0] * 3), 0, 0.0
            )


def farkas_minkowski(P, Q, S):
    """Per-point reference for P_TOL + Q_TOL: one Farkas LP on the system
    p in P_TOL, s - p in Q_TOL for each point s."""
    A = np.vstack([P.normals, -Q.normals])
    b = [np.concatenate([P.offsets, Q.offsets - Q.normals @ s]) + subdiff.TOL for s in S]
    return np.array([subdiff._farkas(A, bs)[0] for bs in b], dtype=bool)


def lp_support(A, b, a):
    """max <a, s> over A s <= b by one LP: +inf if unbounded, None if empty."""
    res = linprog(-a, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs")
    if res.status == 2:
        return None
    return INF if res.status == 3 else -res.fun


class TestPolygon:
    """The 2-D half-plane intersection behind the exact Minkowski route."""

    def support(self, A, b, normals):
        poly = subdiff._polygon(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
        if poly is None:
            return None
        return subdiff._support(*poly, np.asarray(normals, dtype=float))

    AXES = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0], [1.0, -2.0]]

    @pytest.mark.parametrize(
        "A, b, h",
        [
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 0, 2, 0], [1, 0, 2, 0, 3, 1]),  # box
            ([[1, 1]], [1], [INF, INF, INF, INF, 1, INF]),  # half-plane
            ([[1, 0], [0, 1]], [1, 2], [1, INF, 2, INF, 3, INF]),  # quadrant
            ([[0, 1], [0, -1]], [1, 1], [INF, INF, 1, 1, INF, INF]),  # strip
            ([[1, 0], [-1, 0]], [2, -2], [2, -2, INF, INF, INF, INF]),  # line x = 2
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 0, 0], [1, -1, 0, 0, 1, 1]),  # point
            ([[1, 0], [-1, 0], [0, 1]], [1, 0, 0], [1, 0, 0, INF, 1, INF]),  # half-strip
            (np.zeros((0, 2)), [], [INF] * 6),  # whole plane
            ([[0, 0]], [0.0], [INF] * 6),  # a zero row that holds
        ],
        ids=["box", "half-plane", "quadrant", "strip", "line", "point", "half-strip",
             "whole-plane", "zero-row"],
    )
    def test_support_of_hand_built_sets(self, A, b, h):
        assert self.support(np.reshape(A, (-1, 2)), b, self.AXES).tolist() == h

    @pytest.mark.parametrize(
        "A, b",
        [
            ([[0, 0]], [-1.0]),
            ([[1, 0], [-1, 0]], [0, -1]),
            ([[1, 1], [-1, 0], [0, -1]], [-1, 0, 0]),
        ],
        ids=["zero-row", "parallel", "triangle"],
    )
    def test_empty_sets(self, A, b):
        assert self.support(A, b, self.AXES) is None

    def test_random_systems_agree_with_lp_support(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            k = int(rng.integers(1, 8))
            A = rng.integers(-3, 4, size=(k, 2)).astype(np.float64)
            if rng.random() < 0.4:  # normals in a half-plane: unbounded sets
                A[:, 0] = np.abs(A[:, 0])
            b = rng.integers(-4, 5, size=k).astype(np.float64) / 2.0
            normals = np.vstack([A, rng.integers(-3, 4, size=(4, 2))])
            normals = normals[normals.any(axis=1)].astype(np.float64)
            h = self.support(A, b, normals)
            # Slack on either side absorbs the LP solver's own tolerance on
            # sets that are a single point or segment.
            if h is None:
                assert lp_support(A, b - 1e-6, normals[0]) is None
                continue
            assert lp_support(A, b + 1e-6, normals[0]) is not None
            for a, value in zip(normals, h):
                ref = lp_support(A, b, a)
                assert ref == value if value == INF else abs(ref - value) <= 1e-6


class TestExactMinkowski2D:
    """The exact 2-D route of `_minkowski_contains` against the per-point
    Farkas LP it replaced, which stays here as the oracle."""

    def cases(self):
        rng = np.random.default_rng(97)
        out = []
        for k in range(9):
            grid = dyadic_grid(rng, dim=2, max_count=4)
            if k % 3 == 0:  # x0 on the boundary of the grid: unbounded polygons
                xi = grid.flat([int(rng.integers(0, grid.shape[0])), 0])
            else:
                xi = int(rng.integers(0, grid.size))
            v1 = random_values(rng, grid.size)
            v2 = random_values(rng, grid.size)
            v1[xi], v2[xi] = random_values(rng, 2, p_inf=0.0)
            if k == 4:  # a -inf node: the canonical empty polyhedron
                v2[(xi + 1) % grid.size] = -INF
            if k in (5, 6):  # x0 the only finite node: the whole plane
                v1[np.arange(grid.size) != xi] = INF
            if k == 6:
                v2[np.arange(grid.size) != xi] = INF
            eps = float(rng.choice([0.0, 0.5, 1.0]))
            out.append((f"case{k}", grid, v1, v2, xi, eps))
        return out

    def test_each_term_is_loosened_by_tol(self):
        axes = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        box = HPolyhedron(axes, [1.0, 0.0, 1.0, 0.0])
        origin = HPolyhedron(axes, np.zeros(4))
        # P_TOL + Q_TOL reaches 1 + 2 TOL and -2 TOL along each axis
        S = np.array([[1 + 1.5e-9, 0.5], [0.5, 1 + 1.5e-9], [1 + 3e-9, 0.5], [-3e-9, 0.5]])
        exact = subdiff._minkowski_contains(box, origin, S)
        assert exact.tolist() == [True, True, False, False]

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_matches_per_point_farkas(self, scale):
        moved = []
        kinds = set()
        for name, grid, v1, v2, xi, eps in self.cases():
            total = ext_sum(GriddedFunction(grid, v1), GriddedFunction(grid, v2))
            S = default_dual_grid(total, 4).nodes * scale
            h1 = GriddedFunction(grid, v1 * scale)
            h2 = GriddedFunction(grid, v2 * scale)
            for e1, e2 in subdiff._split_pairs(eps * scale, 2):
                P = eps_subdifferential(h1, xi, e1)
                Q = eps_subdifferential(h2, xi, e2)
                exact = subdiff._minkowski_contains(P, Q, S)
                ref = farkas_minkowski(P, Q, S)
                kinds.add((bool(exact.all()), bool(exact.any())))
                moved += [
                    f"{name} x{scale} split ({e1}, {e2}) dual {s.tolist()}: "
                    f"exact {bool(x)}, LP {bool(r)}"
                    for s, x, r in zip(S, exact, ref)
                    if x != r
                ]
        assert not moved, "\n".join(moved)
        assert kinds >= {(True, True), (False, True), (False, False)}


class TestMarginalFormula:
    def test_easy_direction_on_random_instances(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 60:
            phi, F = random_problem(rng, max_count=5)
            mu = marginal(phi, F).mu
            xi = int(rng.integers(0, F.xgrid.size))
            if not np.isfinite(mu.values[xi]):
                continue
            rep = marginal_subdiff_check(
                phi, F, xi, float(rng.choice([0.0, 0.5])), duals=default_dual_grid(mu, 9),
            )
            assert rep.easy_ok
            assert rep.eta_monotone_ok
            done += 1

    def test_two_sided_on_qualified_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        phi, F = spec.build()
        for eps in (0.0, 0.5):
            rep = marginal_subdiff_check(
                phi, F, [0.0], eps, duals=spec.xduals, yduals=spec.yduals, qc14=True
            )
            assert rep.ok
            assert rep.agreement == 1.0
            assert rep.conditional

    def test_infeasible_x0_raises(self):
        X = Grid.from_bounds([(0.0, 1.0, 2)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(
            Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)]), [INF, INF, 0.0, 0.0]
        )
        with pytest.raises(NotFiniteAtPoint):
            marginal_subdiff_check(phi, full_map(X, Y), 0, 0.0)

    def test_unqualified_instance_reports_without_binding(self):
        spec = load_fixture("diagonal_nonconvex")
        phi, F = spec.build()
        rep = marginal_subdiff_check(
            phi, F, [0.0], 0.0, duals=spec.xduals, qc14=False
        )
        assert rep.easy_ok
        assert not rep.conditional
        assert rep.ok  # only the unconditional direction binds


class TestConjugateFormula:
    def test_containment_on_qualified_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        phi, F = spec.build()
        rep = conj_subdiff_check(
            phi, F, spec.xduals, [-2.25], 0.0, yduals=spec.yduals, qc14=True
        )
        assert rep.ok
        assert rep.easy_ok
        lhs = np.array(rep.lhs_mask)
        rhs = np.array(rep.rhs_mask)
        assert not (lhs & ~rhs).any()

    def test_easy_direction_on_full_map_fixture(self):
        spec = load_fixture("abs_full")
        phi, F = spec.build()
        rep = conj_subdiff_check(
            phi, F, spec.xduals, [0.5], 0.25, yduals=spec.yduals, qc14=True
        )
        assert rep.easy_ok and rep.ok


class TestPrunedScoring:
    """Both theorem checks against the unpruned scoring in helpers: every
    report field and every eta level's found and closed sets equal, on 1-D
    and 2-D problems with partial and empty graph rows, at eps 0 and 0.5 and
    with qc14 on and off.  The conjugate check also on non-dyadic values
    from 1e-6 to 1e12, on graph cells where phi is +inf, and on summed
    scores at its candidate cutoff."""

    @pytest.fixture
    def agree(self, monkeypatch):
        fold, levels = subdiff._theorem_report, []

        def spy(*args):
            levels.append([(eta, a.tolist(), b.tolist()) for eta, a, b in args[5]])
            return fold(*args)

        monkeypatch.setattr(subdiff, "_theorem_report", spy)

        def check(route, reference, *args):
            levels.clear()
            got = route(*args)
            assert got == reference(*args)
            if levels:  # both folded their levels; none did for an empty x0star
                ours, theirs = levels
                assert ours == theirs
            return got

        check.levels = levels  # (eta, found, closed) lists: ours, then the reference's
        return check

    @pytest.mark.parametrize("dim", [1, 2])
    def test_reports_equal_the_reference(self, dim, agree):
        rng = np.random.default_rng(241 + dim)
        count = 41 if dim == 1 else 5
        split = 0  # reports whose right side holds some samples but not all
        for trial in range(60):
            phi, F = random_problem(
                rng, max_count=7 if dim == 1 else 4, p_drop=(0.25, 0.6)[trial % 2],
                xdim=dim, ydim=dim,
            )
            graph = F.graph.copy()
            graph[int(rng.integers(0, F.xgrid.size))] = False  # one empty row
            if not graph.any():
                continue
            F = SetValuedMap(F.xgrid, F.ygrid, graph)
            mu = marginal(phi, F).mu
            duals = default_dual_grid(mu, count)
            yduals = default_ydual_grid(phi, dim, count)
            eps, qc14 = (0.0, 0.5)[trial % 2], trial % 4 >= 2
            finite = np.flatnonzero(np.isfinite(mu.values))
            if finite.size:
                x0 = int(rng.choice(finite))
                got = agree(
                    marginal_subdiff_check, reference_marginal_subdiff_check,
                    phi, F, x0, eps, duals, yduals, qc14,
                )
                split += 0 < sum(got.rhs_mask) < got.n_samples
            mustar = conjugate_at(mu, duals.nodes)
            si = int(np.argmin(mustar)) if trial % 3 else int(rng.integers(0, duals.size))
            got = agree(
                conj_subdiff_check, reference_conj_subdiff_check,
                phi, F, duals, duals.coords(si), eps, yduals, qc14,
            )
            split += 0 < sum(got.rhs_mask) < got.n_samples
        assert split >= 30

    @pytest.mark.parametrize("k", [-6, 0, 6, 12])
    def test_non_dyadic_values_at_every_scale(self, k, agree):
        # Inexact dot products and sums: the conjugate check's candidate
        # cutoff must keep every triple the unpruned scoring passes.
        rng = np.random.default_rng(503 + k)
        split = 0
        for trial in range(40):
            dim = 1 if trial % 4 else 2
            phi, F = _non_dyadic_problem(rng, dim, 10.0**k)
            mu = marginal(phi, F).mu
            count = 41 if dim == 1 else 5
            duals = default_dual_grid(mu, count)
            yduals = default_ydual_grid(phi, dim, count)
            mustar = conjugate_at(mu, duals.nodes)
            si = int(np.argmin(mustar)) if trial % 2 else int(rng.integers(0, duals.size))
            eps = (0.0, 0.5, 0.3 * 10.0**k)[trial % 3]
            got = agree(
                conj_subdiff_check, reference_conj_subdiff_check,
                phi, F, duals, duals.coords(si), eps, yduals, trial % 4 >= 2,
            )
            split += 0 < sum(got.rhs_mask) < got.n_samples
        assert split >= 10

    def test_infinite_phi_on_graph_cells(self, agree):
        rng = np.random.default_rng(409)
        inf_cells = 0
        for trial in range(40):
            phi, F = random_problem(rng, p_inf=0.5, p_drop=0.1, xdim=1 + trial % 2,
                                    ydim=1 + trial % 2, max_count=7 - 3 * (trial % 2))
            mu = marginal(phi, F).mu
            if not np.isfinite(mu.values).any():
                continue
            gx, gy = F.graph_cells
            inf_cells += int(np.isinf(phi.values.reshape(F.graph.shape)[gx, gy]).sum())
            duals = default_dual_grid(mu, 9)
            mustar = conjugate_at(mu, duals.nodes)
            agree(
                conj_subdiff_check, reference_conj_subdiff_check,
                phi, F, duals, duals.coords(int(np.argmin(mustar))), (0.0, 0.5)[trial % 2],
            )
        assert inf_cells >= 500

    @pytest.mark.parametrize("past", [False, True])
    def test_summed_score_at_the_cutoff(self, past, agree):
        # On x nodes {0, 1} with y = 0 the only graph row and phi = 0 there,
        # the cell (0, 0) has m1 = x1* and cod = x0* - x1* (for x1* in
        # [0, x0*]).  With x0* the largest eps + eta + 2 TOL and x1* half of
        # it, both scores sit exactly on the bound e + TOL of the split
        # (0.5, 0.5) at eta = 1, so the summed score is exactly the cutoff,
        # and the cell is found.  One step up, x0* = nextafter(cutoff), both
        # scores sit one step past that bound, and no split admits the cell.
        cutoff = max(DEFAULT_ETAS) + 2 * subdiff.TOL
        top = np.nextafter(cutoff, INF) if past else cutoff
        assert top / 2 + top / 2 == top and (top / 2 == 0.5 + subdiff.TOL) != past
        xgrid, ygrid = Grid((Axis(0.0, 1.0, 2),)), Grid((Axis(0.0, 1.0, 2),))
        phi = GriddedFunction(product_grid(xgrid, ygrid), [0.0, INF, 0.0, INF])
        F = SetValuedMap(xgrid, ygrid, np.array([[True, False], [True, False]]))
        duals = Grid((Axis(0.0, top, 3),))
        yduals = Grid((Axis(-1.0, 1.0, 3),))
        agree(conj_subdiff_check, reference_conj_subdiff_check, phi, F, duals, top, 0.0, yduals)
        eta, found, _ = agree.levels[0][0]
        assert eta == max(DEFAULT_ETAS) and found[0] == (not past)

    def test_rounded_scores_at_the_cutoff(self, agree):
        # The same map shifted to x nodes {d, d + 1}, phi = p on both graph
        # cells: at x1* = x0*/2 both scores of the cell (d, 0) equal x0*/2 up
        # to rounding, so they sit on the split bound while the rounded
        # table entry G and cell offset h can add up to a few ulps over the
        # cutoff.  Only the rounding margin keeps those triples.
        rng = np.random.default_rng(5)
        cutoff = max(DEFAULT_ETAS) + 2 * subdiff.TOL
        duals, yduals = Grid((Axis(0.0, cutoff, 3),)), Grid((Axis(-1.0, 1.0, 3),))
        steps = split_lattice(np.array([[cutoff]]), duals)
        over = 0
        for _ in range(300):
            d, p = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
            xgrid, ygrid = Grid((Axis(d, d + 1.0, 2),)), Grid((Axis(0.0, 1.0, 2),))
            phi = GriddedFunction(product_grid(xgrid, ygrid), [p, INF, p, INF])
            F = SetValuedMap(xgrid, ygrid, np.array([[True, False], [True, False]]))
            agree(conj_subdiff_check, reference_conj_subdiff_check,
                  phi, F, duals, cutoff, 0.0, yduals)
            G = partial_conjugate(
                phi.values.reshape(2, 2), xgrid.nodes, ygrid.nodes, duals.nodes, yduals.nodes
            ) + graph_support(F, steps, -yduals.nodes)
            over += agree.levels[0][0][1][0] and G[1, 1] > cutoff - (p - d * cutoff)
        assert over >= 1  # some triple needed the margin


def _non_dyadic_problem(rng, dim, scale):
    """Random (phi, F) on axes with non-dyadic ends, phi ~ scale * N(0, 1),
    about a third of the nodes +inf and some graph cells dropped; the first
    node is finite and on the graph, so mu is finite somewhere."""

    def grid():
        axes = []
        for _ in range(dim):
            lo = float(rng.uniform(-2.0, 1.0))
            axes.append(Axis(lo, lo + float(rng.uniform(0.3, 3.0)),
                             int(rng.integers(2, 8 if dim == 1 else 4))))
        return Grid(tuple(axes))

    xgrid, ygrid = grid(), grid()
    vals = scale * rng.normal(size=xgrid.size * ygrid.size)
    vals[rng.random(vals.size) < 0.3] = INF
    graph = rng.random((xgrid.size, ygrid.size)) >= 0.4
    graph[0, 0] = True
    vals[0] = min(vals[0], scale)
    return GriddedFunction(product_grid(xgrid, ygrid), vals), SetValuedMap(xgrid, ygrid, graph)


class TestSplitHits:
    def test_matches_every_split_test(self):
        # Scores on and next to the bounds e + TOL, where taking one split
        # per score in place of all of them could drop or add a hit.
        rng = np.random.default_rng(67)
        tol = subdiff.TOL
        for _ in range(200):
            total = float(rng.choice([0.0, 0.5, 1.01]))
            splits = subdiff._split_pairs(total, int(rng.integers(1, 10)))
            edges = np.array(splits).reshape(-1) + tol
            pool = np.concatenate(
                [edges, np.nextafter(edges, INF), [-1.0, 0.0, 2.0, -INF, INF, np.nan]]
            )
            m1, cod = rng.choice(pool, size=(2, int(rng.integers(1, 40))))
            want = [
                any(a <= e1 + tol and b <= e2 + tol for e1, e2 in splits)
                for a, b in zip(m1, cod)
            ]
            assert (cod <= subdiff._split_bound(m1, splits)).tolist() == want


class TestRestrictedConjugate:
    def test_bitwise_equality_on_random_instances(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            phi, F = random_problem(rng, max_count=5)
            duals = dyadic_grid(rng, dim=F.xgrid.dim, max_count=5)
            rep = restricted_conjugate_check(phi, F, duals)
            assert rep.ok
            assert rep.max_abs_diff == 0.0

    def test_reported_tables_match(self):
        spec = load_fixture("quadratic_halfline")
        phi, F = spec.build()
        rep = restricted_conjugate_check(phi, F, spec.xduals)
        assert rep.lhs == rep.rhs
        assert rep.n_duals == spec.xduals.size


class TestNodeIndices:
    """Integer node indices outside [0, size) are refused, never wrapped."""

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize(
        "check",
        [
            "eps_subdifferential",
            "eps_coderivative",
            "sum_rule_check",
            "marginal_subdiff_check",
            "conj_subdiff_check",
            "eta_solutions",
        ],
    )
    def test_out_of_range_index_is_not_a_node(self, check, bad):
        g = Grid.from_bounds([(-1.0, 1.0, 5)])
        f = GriddedFunction(g, g.nodes[:, 0] ** 2)
        phi = eval_on_grid("x1^2 + x2^2", product_grid(g, g))
        F = full_map(g, g)
        calls = {
            "eps_subdifferential": lambda: eps_subdifferential(f, bad, 0.0),
            "eps_coderivative": lambda: eps_coderivative(F, (bad, 0), [0.0], 0.0),
            "sum_rule_check": lambda: sum_rule_check(f, f, bad, 0.0),
            "marginal_subdiff_check": lambda: marginal_subdiff_check(phi, F, bad, 0.0),
            "conj_subdiff_check": lambda: conj_subdiff_check(phi, F, g, bad, 0.0),
            "eta_solutions": lambda: eta_solutions(phi, F, bad, 1.0),
        }
        with pytest.raises(NotANode, match=r"outside \[0, 5\)"):
            calls[check]()
