"""Epsilon-subdifferential calculus: polyhedra, LP queries, set formulas."""

import importlib
import importlib.util
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    PointNotInSet,
    SetValuedMap,
    Tables,
    UnsupportedDimension,
    conj_subdiff_check,
    conjugate_at,
    default_dual_grid,
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
from marginlab import polyhedra, subdiff
from marginlab.cli import main
from marginlab.conjugate import default_ydual_grid, dots
from marginlab.errors import InvalidArgument, MarginlabError
from marginlab.setmap import split_lattice

import helpers
from helpers import (
    FIXTURES,
    dyadic_grid,
    dyadic_rows,
    eps_coderivative,
    interval_sum_contains,
    load_fixture,
    lp_chebyshev_point,
    lp_farkas,
    non_dyadic_problem,
    oracle_subgradient_member,
    per_eps_intervals,
    per_eps_members,
    random_function,
    random_problem,
    random_values,
    reference_conj_subdiff_check,
    reference_marginal_subdiff_check,
    theorem_report_oracle,
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
        W = HPolyhedron(np.zeros((0, 2)), np.zeros(0))
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
        assert HPolyhedron(np.zeros((0, 1)), np.zeros(0)).interval() == Interval(-INF, INF)
        assert HPolyhedron([[1.0], [-1.0]], [0.0, -1.0]).interval().empty

    def test_zero_rows_decide_emptiness(self):
        assert HPolyhedron([[0.0]], [-0.5]).interval().empty
        assert not HPolyhedron([[0.0]], [0.5]).interval().empty

    def test_interval_needs_one_dimension(self):
        with pytest.raises(UnsupportedDimension):
            HPolyhedron(np.zeros((0, 2)), np.zeros(0)).interval()

    @pytest.mark.parametrize(
        "normals, offsets, message",
        [
            ([[1.0, 0.0]], [math.nan], "NaN"),
            ([[math.nan, 0.0]], [1.0], "NaN"),
            ([[1.0, 0.0], [0.0, 1.0]], [1.0], "disagree in length"),
        ],
    )
    def test_malformed_halfspaces_rejected(self, normals, offsets, message):
        # a NaN offset used to read as no constraint: [[1, 0]] s <= nan was
        # called nonempty, with the feasible point (-1, 0)
        with pytest.raises(InvalidArgument, match=message) as raised:
            HPolyhedron(normals, offsets)
        assert isinstance(raised.value, MarginlabError) and isinstance(raised.value, ValueError)


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
                for i in cert:  # irreducible
                    rest = [j for j in cert if j != i]
                    assert lp_is_feasible(A[rest], b[rest])
            else:
                assert p is not None
                assert P.contains(p)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            is_empty(HPolyhedron(np.zeros((0, 4)), np.zeros(0)))

    def test_feasible_point_prefers_interior(self):
        P = HPolyhedron([[1.0], [-1.0]], [2.0, 0.0])  # [0, 2]
        assert feasible_point(P)[0] == pytest.approx(1.0)
        half = HPolyhedron([[-1.0]], [-3.0])  # [3, inf)
        assert feasible_point(half)[0] == pytest.approx(3.0)
        assert feasible_point(HPolyhedron(np.zeros((0, 1)), np.zeros(0)))[0] == 0.0


@st.composite
def planar_systems(draw):
    """A k x 2 system with small integer normals and half-integer offsets,
    some with a row repeated at a multiple (parallel or opposite, so strips
    and empty strips); half of them rescaled row by row and moved by a
    shift, so that their data are not dyadic and degenerate sets meet
    rounding."""
    k = draw(st.integers(1, 8))
    rows = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=k,
                         max_size=k))
    A = np.array(rows, dtype=np.float64)
    b = np.array(draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))) / 2.0
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        f = draw(st.sampled_from([-3.0, -1.0, -0.390625, 0.5, 2.0]))
        A = np.vstack([A, f * A[i]])
        b = np.append(b, abs(f) * draw(st.integers(-4, 4)) / 2.0)
        k += 1
    if draw(st.booleans()):
        scale = np.array(draw(st.lists(st.floats(0.3, 3.0), min_size=k, max_size=k)))
        shift = np.array(draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))))
        A, b = A * scale[:, None], (b + A @ shift) * scale
    return A, b


def assert_planar_route_agrees(P):
    """is_empty and feasible_point of a 2-D P against the LP route: the same
    emptiness, a witness in P (strictly inside it when the Chebyshev radius
    says P has an interior), and a certificate of at most 3 rows that the
    Farkas LP finds infeasible and that loses that with any row dropped."""
    A, b = P.normals, P.offsets
    empty, cert = is_empty(P)
    point = feasible_point(P)
    lp_point, radius = lp_chebyshev_point(P)
    assert empty == (not lp_farkas(A, b)[0]) == (lp_point is None)
    assert (point is None) == empty
    if empty:
        assert 1 <= len(cert) <= 3
        assert not lp_farkas(A[list(cert)], b[list(cert)])[0]
        for i in cert:
            rest = [j for j in cert if j != i]
            assert lp_farkas(A[rest], b[rest])[0]
        return
    assert cert is None
    assert P.contains(point)
    if radius > 1e-6:
        bounding = A.any(axis=1)
        assert (A[bounding] @ point < b[bounding]).all()


class TestPlanarRoute:
    """Emptiness, certificates and feasible points in the plane come from
    `_polygon` on the loosened system; the HiGHS route stays as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(planar_systems())
    def test_random_systems_agree_with_the_lp_route(self, system):
        assert_planar_route_agrees(HPolyhedron(*system))

    TILT = 1e-13  # an angle within polyhedra._PARALLEL

    @pytest.mark.parametrize(
        "A, b, witness",
        [
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 2, -2], [1.0, 2.0]),  # point
            ([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 2, 0], [1.0, 0.0]),  # segment
            ([[1, 1]], [1], [0.0, 0.0]),  # half-plane
            ([[0, 1], [0, -1]], [1, 0], [0.0, 0.5]),  # strip
            (np.zeros((0, 2)), [], [0.0, 0.0]),  # whole plane
            ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0.125] * 4, [0.0, 0.0]),  # box
            ([[1, 0], [math.cos(TILT), math.sin(TILT)], [-1, 0]], [1, 1, 0],
             [0.5, 0.0]),  # two normals within _PARALLEL
            ([[0, 0]], [-1.0], None),  # HPolyhedron.empty(2)
            ([[1, 0], [-1, 0], [-1, TILT]], [0, -1, -0.5], None),  # within _PARALLEL
            ([[1, 1], [-1, 0], [0, -1]], [-1, 0, 0], None),  # triangle
        ],
        ids=["point", "segment", "half-plane", "strip", "whole-plane", "box",
             "parallel", "canonical-empty", "parallel-empty", "triangle-empty"],
    )
    def test_hand_built_sets(self, A, b, witness):
        P = HPolyhedron(np.reshape(A, (-1, 2)), b)
        assert_planar_route_agrees(P)
        point = feasible_point(P)
        assert (point is None) if witness is None else (point.tolist() == witness)

    def test_certificates_of_hand_built_empty_sets(self):
        assert is_empty(HPolyhedron.empty(2)) == (True, (0,))
        tilted = HPolyhedron([[1, 0], [-1, 0], [-1, self.TILT]], [0, -1, -0.5])
        assert is_empty(tilted) == (True, (0, 1))  # the tighter of the parallel rows
        zero_last = HPolyhedron([[1, 0], [0, 1], [0, 0]], [0, 0, -1])
        assert is_empty(zero_last) == (True, (2,))

    def test_a_point_lost_to_rounding_is_found_in_the_loosened_system(self):
        # Three lines through (0.1, 0.1) whose offsets rounded apart: the
        # polygon of P itself is empty, that of {A s <= b + TOL} is not.
        A = np.array([[3.0, 1.0], [-1.0, -2.0], [-2.0, 1.0]])
        P = HPolyhedron(A, A @ [0.1, 0.1])
        assert polyhedra._polygon(P.normals, P.offsets) is None
        assert_planar_route_agrees(P)
        assert np.abs(feasible_point(P) - 0.1).max() <= 1e-9

    def test_sets_beyond_the_lp_box_get_a_point(self):
        # The LP route clipped P to [-1e6, 1e6]^d and found no point of these
        # nonempty sets; the polygon route has no box, and the 3-D LP leaves
        # s free.
        far = HPolyhedron([[-1.0, 0.0]], [-2e6])  # s1 >= 2e6
        thin = HPolyhedron([[1.0, 0.0], [-1.0, 1e-10]], [0.0, -0.5])  # s2 <= -5e9
        far3 = HPolyhedron([[-1.0, 0.0, 0.0]], [-2e6])
        for P in (far, thin, far3):
            assert not is_empty(P)[0]
            assert lp_chebyshev_point(P) == (None, None)
            assert P.contains(feasible_point(P))


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
        with pytest.raises(InvalidArgument):
            eps_subdifferential(f, 0, -0.1)

    @pytest.mark.parametrize("eps", [INF, math.nan])
    def test_non_finite_eps_rejected(self, eps):
        g = Grid.from_bounds([(0.0, 1.0, 2)])
        with pytest.raises(InvalidArgument, match="finite"):
            eps_subdifferential(GriddedFunction(g, [0.0, 0.0]), 0, eps)
        with pytest.raises(InvalidArgument, match="finite"):
            eps_normal_cone(g.nodes, [0.0], eps)

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


class TestSharedHalfspaceTable:
    """`_eps_members`, `_theorem_report` and the sum rule's exact intervals
    (`_interval` on `_halfspaces`) answer every eps from one table of
    normals; `per_eps_members`, `per_eps_intervals`,
    `interval_sum_contains` and `theorem_report_oracle` in helpers build one
    polyhedron per eps instead, as the package did before.  Both give the
    same bits: on random functions, on functions with a -inf node, at x0
    off the domain, and on a domain of one node, with dyadic and
    non-dyadic sample rows and eps levels."""

    KINDS = ["random", "-inf node", "x0 off domain", "one-node domain"]

    @staticmethod
    def case(seed, dim, kind):
        rng = np.random.default_rng(seed)
        grid = dyadic_grid(rng, dim=dim, max_count=7 if dim == 1 else 4)
        values = random_values(rng, grid.size, p_inf=0.3)
        xi = int(rng.integers(0, grid.size))
        if kind == "-inf node":
            values[int(rng.integers(0, grid.size))] = -INF
        elif kind == "x0 off domain":
            values[xi] = INF
        elif kind == "one-node domain":
            values[:] = INF
            values[xi] = 0.5
        sample = np.vstack([
            dyadic_rows(rng, int(rng.integers(0, 9)), dim),
            rng.standard_normal((int(rng.integers(0, 5)), dim)) * 4.0,
        ])
        epsilons = [float(e) for e in rng.choice([0.0, 0.01, 0.1, 0.25, 0.5, 1.0, 1.5], 4)]
        return GriddedFunction(grid, values), xi, sample, epsilons

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(KINDS))
    @settings(max_examples=200, deadline=None)
    def test_members_and_intervals_match_one_polyhedron_per_eps(self, seed, dim, kind):
        f, xi, S, epsilons = self.case(seed, dim, kind)
        got = subdiff._eps_members(f, xi, S, epsilons)
        want = per_eps_members(f, xi, S, epsilons)
        assert got.shape == want.shape == (len(epsilons), S.shape[0])
        np.testing.assert_array_equal(got, want)
        if dim == 1:
            h = subdiff._halfspaces(f, xi)
            got = [
                Interval(INF, -INF) if h is None else polyhedra._interval(h[0][:, 0], h[1] + e)
                for e in epsilons
            ]
            bits = lambda ivs: [(iv.lo.hex(), iv.hi.hex()) for iv in ivs]  # noqa: E731
            assert bits(got) == bits(per_eps_intervals(f, xi, epsilons))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(KINDS))
    @settings(max_examples=200, deadline=None)
    def test_report_matches_the_fold_with_one_polyhedron_per_level(self, seed, dim, kind):
        f, xi, S, epsilons = self.case(seed, dim, kind)
        rng = np.random.default_rng(seed ^ 0x5EED)
        eps, levels = epsilons[0], []
        for eta in DEFAULT_ETAS[: int(rng.integers(0, 4))]:
            found = rng.random(S.shape[0]) < 0.5
            if rng.random() < 0.5:  # found inside the (eps+eta)-level, so easy_ok can hold
                found &= per_eps_members(f, xi, S, [eps + eta])[0]
            levels.append((eta, found, found | (rng.random(S.shape[0]) < 0.2)))
        named = (("upper", "detail"), ("claim", "equality", ""))
        sharp = lambda lhs, rhs: bool(np.array_equal(lhs, rhs))  # noqa: E731
        lhs = per_eps_members(f, xi, S, [eps])[0]
        assert subdiff._theorem_report(f, xi, eps, S, levels, sharp, dim == 2, *named) == (
            theorem_report_oracle(f, xi, eps, S, lhs, levels, sharp, dim == 2, *named)
        )

    @given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
    @settings(max_examples=100, deadline=None)
    def test_one_dimensional_sum_rule_matches_one_polyhedron_per_split(self, seed, kind):
        g1, xi, _, _ = self.case(seed, 1, kind)
        rng = np.random.default_rng(seed ^ 0x5EED)
        g2 = random_function(rng, g1.grid, p_inf=0.2)
        eps = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
        duals = dyadic_grid(rng, max_count=17)
        S = duals.nodes
        rep = sum_rule_check(g1, g2, xi, eps, duals=duals)
        lhs = per_eps_members(ext_sum(g1, g2), xi, S, [eps])[0]
        rhs = np.zeros(S.shape[0], dtype=bool)
        for e1, e2 in subdiff._split_pairs(eps, subdiff.SUM_RULE_SPLITS):
            P, Q = eps_subdifferential(g1, xi, e1), eps_subdifferential(g2, xi, e2)
            rhs |= interval_sum_contains(P, Q, S)
        TestSumRule.assert_report_matches(rep, S, lhs, rhs)

    @pytest.mark.parametrize("check", ["marginal", "conjugate", "sum rule"])
    def test_theorem_checks_refuse_a_negative_eps(self, check):
        spec = load_fixture("abs_full")
        tables = Tables(*spec.build(), spec.xduals, spec.yduals)
        calls = {
            "marginal": lambda: marginal_subdiff_check(tables, [0.0], -0.5),
            "conjugate": lambda: conj_subdiff_check(tables, [0.5], -0.5),
            "sum rule": lambda: sum_rule_check(tables.mu, tables.mu, [0.0], -0.5),
        }
        with pytest.raises(InvalidArgument, match="nonnegative"):
            calls[check]()

    def test_verify_all_builds_one_polyhedron_and_scans_none(self, monkeypatch, tmp_path):
        """Polyhedron builds and membership scans in one `verify-all` at
        --refine 1 on every fixture and on verify-2d's coupled 2-D problem
        at two benchmark seeds, as upper bounds.

        With one polyhedron per eps abs_full made 24 builds and 13 scans:
        both theorem checks' left sides and eta levels, and every split of
        the sum rule.  With the shared tables but the sum rule's left side
        still on its own polyhedron it made 2 and 1.  The 2-D sum rule then
        still built two polyhedra per split, 11 builds in all on
        separable_quadratic and the coupled problem.  Now every run makes
        1 and 0: the one build is the 0-subdifferential behind the duality
        witness.
        """
        specs = sorted(FIXTURES.glob("*.spec"))
        for seed in (4242, 7):
            generated = benchmark_specs().coupled_2d(seed, "p0")
            specs.append(tmp_path / f"{generated.name}_{seed}.spec")
            specs[-1].write_text(generated.text)
        counts = {"built": 0, "scanned": 0}
        build, scan = HPolyhedron.__post_init__, HPolyhedron.contains

        def counted_build(P):
            counts["built"] += 1
            build(P)

        def counted_scan(P, points):
            counts["scanned"] += 1
            return scan(P, points)

        monkeypatch.setattr(HPolyhedron, "__post_init__", counted_build)
        monkeypatch.setattr(HPolyhedron, "contains", counted_scan)
        runs = {}
        for spec in specs:
            counts.update(built=0, scanned=0)
            out = str(tmp_path / spec.stem)
            assert main(["verify-all", "--spec", str(spec), "--out", out, "--refine", "1"]) == 0
            runs[spec.stem] = dict(counts)
        assert len(runs) == 10
        assert all(c["built"] <= 1 and c["scanned"] <= 0 for c in runs.values()), runs


def benchmark_specs():
    """The benchmark's seeded spec generators (perfbench/specs.py)."""
    name = "perfbench_specs"
    if name not in sys.modules:
        found = importlib.util.spec_from_file_location(
            name, FIXTURES.parent / "perfbench" / "specs.py"
        )
        sys.modules[name] = importlib.util.module_from_spec(found)
        found.loader.exec_module(sys.modules[name])
    return sys.modules[name]


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

    @pytest.mark.parametrize("eps", [0.0, 0.25])
    @pytest.mark.parametrize("xdim, ydim", [(1, 1), (1, 2), (2, 1)])
    def test_coderivative_score_is_the_definition(self, xdim, ydim, eps):
        # The coderivative score of both theorem checks, read off one graph
        # support table: x* is in D*_eps F(x, y)(y*) exactly when
        # sigma_gph(x*, -y*) - <x*, x> + <y, y*> <= eps.  Dyadic data make
        # every term exact, so both sides make the same comparisons.
        rng = np.random.default_rng(71 + 10 * xdim + ydim)
        for _ in range(6):
            _, F = random_problem(rng, max_count=4, xdim=xdim, ydim=ydim)
            xs = dyadic_rows(rng, int(rng.integers(1, 9)), xdim)
            ys = dyadic_rows(rng, int(rng.integers(1, 5)), ydim)
            table = graph_support(F, xs, -ys)
            gx, gy = F.graph_cells
            for x, y in zip(F.xgrid.nodes[gx], F.ygrid.nodes[gy]):
                for k, ystar in enumerate(ys):
                    score = table[:, k] - dots(xs, x) + dots(y, ystar)
                    member = eps_coderivative(F, (x, y), ystar, eps).contains(xs)
                    np.testing.assert_array_equal(score <= eps + subdiff.TOL, member)


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
        duals each split left uncovered: the LPs a per-dual route solves.
        A split with an empty term (the canonical empty polyhedron) covers
        no dual and solves none."""
        S = duals.nodes
        lhs_mask = eps_subdifferential(ext_sum(g1, g2), xi, 0.5).contains(S)
        rhs_mask = np.zeros(S.shape[0], dtype=bool)
        uncovered = 0
        if subdiff._halfspaces(g1, xi) is None or subdiff._halfspaces(g2, xi) is None:
            return lhs_mask, rhs_mask, uncovered
        for e1, e2 in subdiff._split_pairs(0.5, subdiff.SUM_RULE_SPLITS):
            P = eps_subdifferential(g1, xi, e1)
            Q = eps_subdifferential(g2, xi, e2)
            uncovered += int((~rhs_mask).sum())
            rhs_mask |= minkowski_contains(P, Q, S)
        return lhs_mask, rhs_mask, uncovered

    @staticmethod
    def counted_sum_rule(monkeypatch, g1, g2, xi, duals):
        """sum_rule_check at eps 0.5 with its `_farkas` and `linprog` calls counted."""
        farkas_calls, lp_calls = [], []
        farkas, lp = subdiff._farkas, polyhedra.linprog
        monkeypatch.setattr(
            subdiff, "_farkas", lambda A, b: farkas_calls.append(1) or farkas(A, b)
        )
        monkeypatch.setattr(
            polyhedra, "linprog", lambda *a, **k: lp_calls.append(1) or lp(*a, **k)
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


def minkowski_contains(P, Q, S):
    """`subdiff._minkowski_contains` on the tables of two polyhedra."""
    return subdiff._minkowski_contains(P.normals, P.offsets, Q.normals, Q.offsets, S)


def farkas_minkowski(P, Q, S):
    """Per-point reference for P_TOL + Q_TOL: one Farkas LP on the system
    p in P_TOL, s - p in Q_TOL for each point s."""
    A = np.vstack([P.normals, -Q.normals])
    b = [np.concatenate([P.offsets, Q.offsets - Q.normals @ s]) + subdiff.TOL for s in S]
    return np.array([polyhedra._farkas(A, bs)[0] for bs in b], dtype=bool)


def lp_support(A, b, a):
    """max <a, s> over A s <= b by one LP: +inf if unbounded, None if empty."""
    res = linprog(-a, A_ub=A, b_ub=b, bounds=[(None, None)] * 2, method="highs")
    if res.status == 2:
        return None
    return INF if res.status == 3 else -res.fun


@st.composite
def line_sets(draw, dyadic):
    """Slopes p and intercepts q of 1 to 12 lines, repeated slopes likely.

    Dyadic lines have slopes in quarters of [-2, 2] and intercepts in
    quarters of [-4, 4], so at multiples of 1/512 in [-33, 33], which hold
    every breakpoint, each p x + q is exact.  Other lines have tenths or
    six-decimal values in [-3, 3]."""
    k = draw(st.integers(1, 12))
    if dyadic:
        p = draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))
        q = draw(st.lists(st.integers(-16, 16), min_size=k, max_size=k))
        return np.array(p) / 4.0, np.array(q) / 4.0
    value = st.one_of(st.integers(-30, 30).map(lambda n: n / 10.0),
                      st.floats(-3.0, 3.0).map(lambda v: round(v, 6)))
    p = draw(st.lists(value, min_size=k, max_size=k))
    q = draw(st.lists(value, min_size=k, max_size=k))
    return np.array(p), np.array(q)


def brute_envelope(p, q, x):
    """min over every line of p x + q, at each x."""
    return (p * x[:, None] + q).min(axis=1)


class TestMinEnvelope:
    """The lower envelope behind `_polygon`, against the minimum over all lines."""

    @settings(max_examples=200, deadline=None)
    @given(line_sets(dyadic=True))
    def test_dyadic_lines_agree_exactly(self, lines):
        p, q = lines
        P, Q, bx = polyhedra._min_envelope(p, q)
        assert (np.diff(P) < 0.0).all()
        x = np.arange(-33 * 512, 33 * 512 + 1) / 512.0  # breakpoints are 1/256 apart at least
        np.testing.assert_array_equal(polyhedra._evaluate(P, Q, bx, x), brute_envelope(p, q, x))
        exact = [(Fraction(a), Fraction(b)) for a, b in zip(p, q)]
        for j, b in enumerate(bx):
            t = (Fraction(Q[j + 1]) - Fraction(Q[j])) / (Fraction(P[j]) - Fraction(P[j + 1]))
            assert b == float(t)
            low = min(a * t + c for a, c in exact)
            assert Fraction(P[j]) * t + Fraction(Q[j]) == low
            assert Fraction(P[j + 1]) * t + Fraction(Q[j + 1]) == low

    @settings(max_examples=200, deadline=None)
    @given(line_sets(dyadic=False))
    def test_lines_agree_at_and_between_breakpoints(self, lines):
        p, q = lines
        P, Q, bx = polyhedra._min_envelope(p, q)
        ends = np.concatenate([bx[:1] - 1.0, bx, bx[-1:] + 1.0]) if bx.size else np.zeros(1)
        x = np.concatenate([ends, (ends[:-1] + ends[1:]) / 2.0, np.linspace(-50.0, 50.0, 1001)])
        scale = 1.0 + np.abs(x) * np.abs(p).max() + np.abs(q).max()
        got = polyhedra._evaluate(P, Q, bx, x)
        assert (np.abs(got - brute_envelope(p, q, x)) <= 1e-12 * scale).all()


class TestPolygon:
    """The 2-D half-plane intersection behind the exact Minkowski route."""

    def support(self, A, b, normals):
        poly = polyhedra._polygon(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
        if poly is None:
            return None
        return polyhedra._support(*poly, np.asarray(normals, dtype=float))

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
            # s2 <= -3 s1 and s2 >= 0.5 - 3 s1, whose slopes round apart
            ([[3, 1], [-1.171875, -0.390625]], [0, -0.1953125]),
        ],
        ids=["zero-row", "parallel", "triangle", "opposite-rounded"],
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
        exact = minkowski_contains(box, origin, S)
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
                exact = minkowski_contains(P, Q, S)
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
            tables = Tables(phi, F, default_dual_grid(mu, 9), default_ydual_grid(phi, 1, 41))
            rep = marginal_subdiff_check(tables, xi, float(rng.choice([0.0, 0.5])))
            assert rep.easy_ok
            assert rep.eta_monotone_ok
            done += 1

    def test_two_sided_on_qualified_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        tables = Tables(*spec.build(), spec.xduals, spec.yduals)
        for eps in (0.0, 0.5):
            rep = marginal_subdiff_check(tables, [0.0], eps, qc14=True)
            # both rows bind under qc14, and both pass
            assert [ok for _, ok, _ in rep.verdicts] == [True, True]
            assert rep.agreement == 1.0

    def test_infeasible_x0_raises(self):
        X = Grid.from_bounds([(0.0, 1.0, 2)])
        Y = Grid.from_bounds([(0.0, 1.0, 2)])
        phi = GriddedFunction(
            Grid.from_bounds([(0.0, 1.0, 2), (0.0, 1.0, 2)]), [INF, INF, 0.0, 0.0]
        )
        with pytest.raises(NotFiniteAtPoint):
            marginal_subdiff_check(Tables(phi, full_map(X, Y)), 0, 0.0)

    def test_unqualified_instance_reports_without_binding(self):
        spec = load_fixture("diagonal_nonconvex")
        phi, F = spec.build()
        tables = Tables(phi, F, spec.xduals, default_ydual_grid(phi, 1, 41))
        rep = marginal_subdiff_check(tables, [0.0], 0.0, qc14=False)
        assert rep.easy_ok
        upper, agreement = rep.verdicts  # only the unconditional direction binds
        assert upper.ok is True
        assert agreement.ok is None
        assert agreement.detail.endswith("; equality not asserted (qc14 false)")


class TestConjugateFormula:
    def test_containment_on_qualified_fixture(self):
        spec = load_fixture("lagrangian_quadratic")
        tables = Tables(*spec.build(), spec.xduals, spec.yduals)
        rep = conj_subdiff_check(tables, [-2.25], 0.0, qc14=True)
        assert [ok for _, ok, _ in rep.verdicts] == [True, True]
        assert rep.easy_ok
        lhs = np.array(rep.lhs_mask)
        rhs = np.array(rep.rhs_mask)
        assert not (lhs & ~rhs).any()

    def test_easy_direction_on_full_map_fixture(self):
        spec = load_fixture("abs_full")
        tables = Tables(*spec.build(), spec.xduals, spec.yduals)
        rep = conj_subdiff_check(tables, [0.5], 0.25, qc14=True)
        assert rep.easy_ok
        assert [ok for _, ok, _ in rep.verdicts] == [True, True]


def cutoff_map(d, p):
    """x nodes {d, d + 1} and y nodes {0, 1}; y = 0 is the only graph row,
    and phi is p on it and +inf off it."""
    xgrid, ygrid = Grid((Axis(d, d + 1.0, 2),)), Grid((Axis(0.0, 1.0, 2),))
    phi = GriddedFunction(product_grid(xgrid, ygrid), [p, INF, p, INF])
    return phi, SetValuedMap(xgrid, ygrid, np.array([[True, False], [True, False]]))


class TestPrunedScoring:
    """Both theorem checks against the unpruned scoring in helpers: every
    report field and every eta level's found and closed sets equal, on 1-D
    and 2-D problems with partial and empty graph rows, at eps 0 and 0.5 and
    with qc14 on and off.  Both also on non-dyadic values from 1e-6 to 1e12
    and on summed and rounded scores at their candidate cutoff, and the
    conjugate check on graph cells where phi is +inf."""

    @pytest.fixture
    def agree(self, monkeypatch):
        levels = []

        def spy(fold, at):  # `at`: the position of the levels argument
            def call(*args):
                levels.append([(eta, a.tolist(), b.tolist()) for eta, a, b in args[at]])
                return fold(*args)
            return call

        monkeypatch.setattr(subdiff, "_theorem_report", spy(subdiff._theorem_report, 4))
        monkeypatch.setattr(helpers, "theorem_report_oracle", spy(helpers.theorem_report_oracle, 5))

        def check(route, reference, phi, F, duals, yduals, *args):
            levels.clear()
            got = route(Tables(phi, F, duals, yduals), *args)
            assert got == reference(phi, F, duals, yduals, *args)
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
                    phi, F, duals, yduals, x0, eps, qc14,
                )
                split += 0 < sum(got.rhs_mask) < got.n_samples
            mustar = conjugate_at(mu, duals.nodes)
            si = int(np.argmin(mustar)) if trial % 3 else int(rng.integers(0, duals.size))
            got = agree(
                conj_subdiff_check, reference_conj_subdiff_check,
                phi, F, duals, yduals, duals.coords(si), eps, qc14,
            )
            split += 0 < sum(got.rhs_mask) < got.n_samples
        assert split >= 30

    @pytest.mark.parametrize("k", [-6, 0, 6, 12])
    def test_non_dyadic_values_at_every_scale(self, k, agree):
        # Inexact dot products and sums: the candidate cutoff of both checks
        # must keep every triple the unpruned scoring passes.
        rng = np.random.default_rng(503 + k)
        split = {"marginal": 0, "conjugate": 0}
        for trial in range(40):
            dim = 1 if trial % 4 else 2
            phi, F = non_dyadic_problem(rng, dim, 10.0**k)
            mu = marginal(phi, F).mu
            count = 41 if dim == 1 else 5
            duals = default_dual_grid(mu, count)
            yduals = default_ydual_grid(phi, dim, count)
            mustar = conjugate_at(mu, duals.nodes)
            si = int(np.argmin(mustar)) if trial % 2 else int(rng.integers(0, duals.size))
            eps = (0.0, 0.5, 0.3 * 10.0**k)[trial % 3]
            got = agree(
                conj_subdiff_check, reference_conj_subdiff_check,
                phi, F, duals, yduals, duals.coords(si), eps, trial % 4 >= 2,
            )
            split["conjugate"] += 0 < sum(got.rhs_mask) < got.n_samples
            x0 = int(rng.choice(np.flatnonzero(np.isfinite(mu.values))))
            got = agree(
                marginal_subdiff_check, reference_marginal_subdiff_check,
                phi, F, duals, yduals, x0, eps, trial % 4 >= 2,
            )
            split["marginal"] += 0 < sum(got.rhs_mask) < got.n_samples
        assert min(split.values()) >= 10

    @pytest.mark.parametrize("cap", [1, 3, 7, 50, 2000, None])
    def test_marginal_check_at_any_block_size(self, cap, agree, monkeypatch):
        # The marginal check builds its keys in blocks of x* rows and scores
        # their candidates in slices; every block size, the default (None)
        # among them, must give the reference's report bitwise, also on
        # inexact dot products over two and three coordinates.
        conjugate_module = importlib.import_module("marginlab.conjugate")
        if cap is not None:
            monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        blocks = []  # (row blocks, x* rows) per call

        def spy(total, width):
            slices = list(conjugate_module.score_slices(total, width))
            blocks.append((len(slices), total))
            return slices

        monkeypatch.setattr(subdiff, "score_slices", spy)
        rng = np.random.default_rng(331 + (cap or 0))
        for trial in range(30):
            dim = 1 + trial % 3
            if trial % 4 >= 2 or dim == 3:
                phi, F = non_dyadic_problem(rng, dim, 10.0 ** int(rng.integers(-3, 4)))
            else:
                phi, F = random_problem(rng, max_count=7 if dim == 1 else 4, xdim=dim, ydim=dim)
            mu = marginal(phi, F).mu
            finite = np.flatnonzero(np.isfinite(mu.values))
            if not finite.size:
                continue
            count = 9 if dim == 1 else 3
            duals = default_dual_grid(mu, count)
            yduals = default_ydual_grid(phi, dim, count)
            agree(
                marginal_subdiff_check, reference_marginal_subdiff_check, phi, F, duals,
                yduals, int(rng.choice(finite)), (0.0, 0.5)[trial % 2], trial % 4 == 1,
            )
        if cap is None:  # only a 3-D x* row (27 x 27 keys) leaves fewer rows than 9 per block
            assert sorted({n for n, _ in blocks}) == [1, 3]
        else:  # a lowered cap splits the x* rows of every call over several blocks
            assert all(1 < n <= rows for n, rows in blocks)

    SKIP_CASES = ["plain", "+inf phi* rows", "-inf phi* rows", "empty graph rows", "empty graph",
                  "near-optimal y0 at several offsets"]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
        st.sampled_from(SKIP_CASES),
        st.sampled_from([None, 1, 3, 7, 50]),
    )
    @settings(max_examples=200, deadline=None)
    def test_marginal_check_skips_only_pairs_without_candidates(self, seed, dim, case, cap):
        """The marginal check builds keys only for the (x*, x1*) pairs whose
        floor is not over the largest threshold.  Its report is the
        reference's on phi* rows planted at +inf or -inf (the reference
        reads the same planted table), on empty graph rows and with the
        blocks cut at a lowered `_BLOCK_CAP` or at the real one; with no
        graph cell at all, mu is finite nowhere and the check raises."""
        rng = np.random.default_rng(seed)
        phi, F = random_problem(rng, max_count=7 if dim == 1 else 4, xdim=dim, ydim=dim)
        if case.startswith("near-optimal"):  # phi within 1 of its row minimum, in eighths
            values = phi.values.reshape(F.graph.shape)
            values = np.where(values < INF, values.min(axis=1, keepdims=True), INF)
            values += rng.integers(0, 8, size=values.shape) / 8.0
            phi = GriddedFunction(phi.grid, values.reshape(-1))
        rows = rng.random(F.xgrid.size) < 0.5
        if case == "empty graph rows":
            F = SetValuedMap(F.xgrid, F.ygrid, F.graph & ~rows[:, None])
        elif case == "empty graph":
            F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
        mu = marginal(phi, F).mu
        if np.isfinite(mu.values).any():  # boxes around the slopes, so that points are found
            duals = default_dual_grid(mu, 41 if dim == 1 else 5)
            yduals = default_ydual_grid(phi, dim, 41 if dim == 1 else 5)
        else:
            duals, yduals = dyadic_grid(rng, dim, max_count=5), dyadic_grid(rng, dim, max_count=5)
        tables = Tables(phi, F, duals, yduals)
        planted = tables.phistar.copy()
        if case.endswith("phi* rows"):
            planted[rng.random(duals.size) < 0.5] = INF if case.startswith("+") else -INF
        tables.phistar = planted
        finite = np.flatnonzero(np.isfinite(tables.mu.values))
        if not finite.size:
            with pytest.raises(NotFiniteAtPoint):
                marginal_subdiff_check(tables, 0, 0.0)
            return
        x0, eps, qc14 = int(rng.choice(finite)), (0.0, 0.5)[seed % 2], seed % 4 >= 2
        conjugate_module = importlib.import_module("marginlab.conjugate")
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", cap or conjugate_module._BLOCK_CAP):
            got = marginal_subdiff_check(tables, x0, eps, qc14)
        with mock.patch.object(helpers, "partial_conjugate", lambda *args: planted):
            want = reference_marginal_subdiff_check(phi, F, duals, yduals, x0, eps, qc14)
        assert got == want

    def test_marginal_check_builds_keys_of_live_pairs_only(self, monkeypatch):
        # separable_quadratic at --refine 1: two calls, 81 x 81 pairs of
        # 81 keys each, and few pairs have a key under the cutoff.
        candidates, keys = subdiff._candidates, []
        monkeypatch.setattr(
            subdiff, "_candidates", lambda k, *a: keys.append(k.size) or candidates(k, *a)
        )
        spec = load_fixture("separable_quadratic")
        tables = Tables(*spec.build(1), spec.xduals, spec.yduals)
        for eps in (0.0, 0.5):
            marginal_subdiff_check(tables, np.zeros(2), eps)
        assert tables.xduals.size ** 2 * tables.yduals.size * 2 == 1_062_882
        assert 0 < sum(keys) <= 100_000

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
            dim = F.xgrid.dim
            duals = default_dual_grid(mu, 9)
            yduals = default_ydual_grid(phi, dim, 41 if dim == 1 else 9)
            mustar = conjugate_at(mu, duals.nodes)
            agree(
                conj_subdiff_check, reference_conj_subdiff_check, phi, F, duals, yduals,
                duals.coords(int(np.argmin(mustar))), (0.0, 0.5)[trial % 2],
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
        phi, F = cutoff_map(0.0, 0.0)
        duals = Grid((Axis(0.0, top, 3),))
        yduals = Grid((Axis(-1.0, 1.0, 3),))
        agree(conj_subdiff_check, reference_conj_subdiff_check, phi, F, duals, yduals, top, 0.0)
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
            phi, F = cutoff_map(d, p)
            agree(conj_subdiff_check, reference_conj_subdiff_check,
                  phi, F, duals, yduals, cutoff, 0.0)
            G = partial_conjugate(
                phi.values.reshape(2, 2), F.xgrid.nodes, F.ygrid.nodes, duals.nodes, yduals.nodes
            ) + graph_support(F, steps, -yduals.nodes)
            over += agree.levels[0][0][1][0] and G[1, 1] > cutoff - (p - d * cutoff)
        assert over >= 1  # some triple needed the margin

    @pytest.mark.parametrize("past", [False, True])
    def test_marginal_summed_score_at_the_cutoff(self, past, agree):
        # The map of `test_summed_score_at_the_cutoff` at x0 = 0 and its one
        # near-optimal y0 = 0: a triple (x*, x1*, y*) with x1* in [0, x*]
        # has m1 = x1* and cod = x* - x1*.  At x* the largest
        # eps + eta + 2 TOL and x1* half of it both scores sit exactly on
        # the bound of the split (0.5, 0.5) at eta = 1, so the summed score
        # is exactly the cutoff and x* is found; one step up it is not.
        cutoff = max(DEFAULT_ETAS) + 2 * subdiff.TOL
        top = np.nextafter(cutoff, INF) if past else cutoff
        assert top / 2 + top / 2 == top and (top / 2 == 0.5 + subdiff.TOL) != past
        phi, F = cutoff_map(0.0, 0.0)
        duals = Grid((Axis(0.0, top, 3),))
        yduals = Grid((Axis(-1.0, 1.0, 3),))
        agree(marginal_subdiff_check, reference_marginal_subdiff_check,
              phi, F, duals, yduals, 0, 0.0)
        eta, found, _ = agree.levels[0][0]
        assert eta == max(DEFAULT_ETAS) and found[2] == (not past)

    def test_marginal_rounded_scores_at_the_cutoff(self, agree):
        # The map of `test_rounded_scores_at_the_cutoff` at x0 = d and
        # y0 = 0: at x* = cutoff and x1* = x*/2 both scores equal x*/2 up to
        # rounding, so they sit on the split bound while the rounded key
        # (phi* + sigma_gph) - (<x0, x* - x1*> + <x0, x1*>) and the offset p
        # can add up to a few ulps over the cutoff.  Only the rounding margin
        # keeps those triples.
        rng = np.random.default_rng(7)
        cutoff = max(DEFAULT_ETAS) + 2 * subdiff.TOL
        duals, yduals = Grid((Axis(0.0, cutoff, 3),)), Grid((Axis(-1.0, 1.0, 3),))
        half = duals.coords(1)
        assert cutoff - half == half
        over = 0
        for _ in range(300):
            d, p = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
            phi, F = cutoff_map(d, p)
            agree(marginal_subdiff_check, reference_marginal_subdiff_check,
                  phi, F, duals, yduals, 0, 0.0)
            phistar = partial_conjugate(
                phi.values.reshape(2, 2), F.xgrid.nodes, F.ygrid.nodes, duals.nodes, yduals.nodes
            )
            support = graph_support(F, half[None], -yduals.nodes)
            x0 = F.xgrid.coords(0)
            key = (support[0, 1] + phistar[1, 1]) - (dots(half, x0) + dots(half, x0))
            over += agree.levels[0][0][1][2] and key > cutoff - p
        assert over >= 1  # some triple needed the margin


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
            assert (cod <= subdiff._split_bound(splits)(m1)).tolist() == want


class TestRestrictedConjugate:
    def test_bitwise_equality_on_random_instances(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            phi, F = random_problem(rng, max_count=5)
            duals = dyadic_grid(rng, dim=F.xgrid.dim, max_count=5)
            rep = restricted_conjugate_check(Tables(phi, F, duals))
            assert rep.ok
            assert rep.max_abs_diff == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equality_on_non_dyadic_data(self, dim):
        # A 7-node non-dyadic x* box per axis.  While dot products went
        # through BLAS, 3-D seeds such as 1076 and 1122 broke the identity
        # by a last bit.
        for seed in range(1000, 1600):
            phi, F = non_dyadic_problem(np.random.default_rng(seed), dim, 1.0)
            duals = default_dual_grid(marginal(phi, F).mu, 7)
            rep = restricted_conjugate_check(Tables(phi, F, duals))
            assert rep.ok, seed
            assert rep.max_abs_diff == 0.0

    def test_reported_tables_match(self):
        spec = load_fixture("quadratic_halfline")
        rep = restricted_conjugate_check(Tables(*spec.build(), spec.xduals))
        assert rep.lhs == rep.rhs
        assert rep.n_duals == spec.xduals.size


class TestNodeIndices:
    """Integer node indices outside [0, size) are refused, never wrapped."""

    @pytest.mark.parametrize("bad", [-1, 5])
    @pytest.mark.parametrize(
        "check",
        [
            "eps_subdifferential",
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
            "sum_rule_check": lambda: sum_rule_check(f, f, bad, 0.0),
            "marginal_subdiff_check": lambda: marginal_subdiff_check(Tables(phi, F), bad, 0.0),
            "conj_subdiff_check": lambda: conj_subdiff_check(Tables(phi, F, g), bad, 0.0),
            "eta_solutions": lambda: eta_solutions(phi, F, bad, 1.0),
        }
        with pytest.raises(NotANode, match=r"outside \[0, 5\)"):
            calls[check]()
