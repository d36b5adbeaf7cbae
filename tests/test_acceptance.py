"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Each test prints `ACCEPTANCE <id> PASS|FAIL <summary>` before asserting, so a
plain pytest run (-s to stream) documents the full scorecard even when a
criterion fails.
"""

import math
import time

import numpy as np

from marginlab import (
    Grid,
    GriddedFunction,
    Tables,
    conjugate,
    conjugate_at,
    conjugate_fast,
    conjugate_representation_check,
    default_dual_grid,
    domain_identity_check,
    dual_value_1,
    dual_value_2,
    epigraph_projection_check,
    eps_subdifferential,
    image_preservation_check,
    intersection_preservation_check,
    is_empty,
    is_int_nearly_convex,
    lagrangian_identity_check,
    lipschitz_estimate_map,
    lipschitz_probe,
    load_raster,
    marginal,
    marginal_subdiff_check,
    primal_value,
    projection_map,
    refine_raster,
    restricted_conjugate_check,
    semicontinuity_probe,
    strong_duality_check,
)
from marginlab.cli import main
from marginlab.conjugate import default_ydual_grid

from helpers import (
    FIXTURES,
    dyadic_grid,
    fixture_names,
    golden_mismatches,
    load_fixture,
    random_function,
    random_problem,
    random_values,
)
from test_duality import zero_centered_problem
from test_marginal import phi_modulus

INF = math.inf


def emit(ident, ok, summary):
    print(f"ACCEPTANCE {ident} {'PASS' if ok else 'FAIL'} {summary}", flush=True)
    assert ok, f"{ident}: {summary}"


def finite_origin_node(mu, grid):
    try:
        zi = grid.index_of(np.zeros(grid.dim))
        if np.isfinite(mu.values[zi]):
            return zi
    except Exception:
        pass
    finite = np.flatnonzero(mu.finite_mask)
    return int(finite[0]) if finite.size else None


def test_01_conjugate_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 1001))
        g = Grid.from_bounds([(-2.0, 2.0, n)])
        f = GriddedFunction(g, random_values(rng, n, p_inf=0.2))
        if not (f.values < INF).any():
            f = GriddedFunction(g, np.zeros(n))
        duals = default_dual_grid(f, 31)
        fast = conjugate_fast(f, duals).values
        brute = conjugate(f, duals).values
        dev = float(np.max(np.where(fast == brute, 0.0, np.abs(fast - brute))))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    emit(
        "01",
        worst <= 1e-12 and elapsed < 5.0,
        f"fast vs brute on 200 random 1-D instances: max deviation {worst:.3g}, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_02_fenchel_young_and_nesting_invariants():
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(100):
        f = random_function(rng, dyadic_grid(rng, max_count=6))
        duals = default_dual_grid(f, 9)
        fstar = conjugate(f, duals).values
        X = f.grid.nodes
        for si, s in enumerate(duals.nodes):
            with np.errstate(invalid="ignore"):
                lhs = f.values + fstar[si]
            lhs = np.where(np.isnan(lhs), INF, lhs)
            violations += int((lhs < X @ s - 1e-9).sum())
        for xi in range(f.grid.size):
            small = eps_subdifferential(f, xi, 0.25).contains(duals.nodes)
            large = eps_subdifferential(f, xi, 1.0).contains(duals.nodes)
            violations += int((small & ~large).sum())
    emit(
        "02",
        violations == 0,
        f"Fenchel-Young and eps-nesting over 100 instances x full scans: "
        f"{violations} violations",
    )


def _exact_identity_bundle(phi, F, duals, yduals, x0):
    """(description, ok) pairs for the zero-tolerance identity block.  With
    no y-dual grid, the marginal formula samples y* on 41 nodes in 1-D and 9
    per axis above, and the representation on the x-dual grid."""
    tables = Tables(phi, F, duals, yduals if yduals is not None else duals)
    mu = tables.mu
    out = []
    out.append(("domain identity", domain_identity_check(tables)[0]))
    levels = [float(v) for v in np.quantile(mu.values[mu.finite_mask], [0.25, 0.75])]
    out.append(
        ("strict epigraph projection", epigraph_projection_check(tables, levels).ok)
    )
    rc = restricted_conjugate_check(tables)
    out.append(("restricted conjugate, bitwise", rc.ok and rc.max_abs_diff == 0.0))
    if x0 is not None:
        eps = 0.5
        member = eps_subdifferential(mu, x0, eps).contains(duals.nodes)
        pair = duals.nodes @ mu.grid.coords(x0)
        young = conjugate_at(mu, duals.nodes) + mu.values[x0] <= pair + eps + 1e-9
        out.append(("subgradient conjugate route", bool(np.all(member == young))))
        if yduals is None:
            count = 41 if F.ygrid.dim == 1 else 9
            theorem = Tables(phi, F, duals, default_ydual_grid(phi, F.xgrid.dim, count))
        else:
            theorem = tables
        rep = marginal_subdiff_check(theorem, x0, eps)
        out.append(("marginal formula, easy direction", rep.easy_ok))
    rep2 = conjugate_representation_check(tables)
    out.append(("representation lower bound", rep2.lower_bound_ok))
    return out


def test_03_exact_finite_identities_zero_tolerance():
    failures = []
    for name in fixture_names():
        spec = load_fixture(name)
        phi, F = spec.build()
        mu = marginal(phi, F).mu
        duals = spec.xduals if spec.xduals is not None else default_dual_grid(mu, 9)
        x0 = finite_origin_node(mu, F.xgrid)
        for what, ok in _exact_identity_bundle(phi, F, duals, spec.yduals, x0):
            if not ok:
                failures.append(f"{name}: {what}")
    rng = np.random.default_rng(107)
    done = 0
    while done < 100:
        phi, F = random_problem(rng, max_count=5)
        mu = marginal(phi, F).mu
        if not mu.finite_mask.any():
            continue
        duals = default_dual_grid(mu, 9)
        x0 = finite_origin_node(mu, F.xgrid)
        for what, ok in _exact_identity_bundle(phi, F, duals, None, x0):
            if not ok:
                failures.append(f"random[{done}]: {what}")
        done += 1
    emit(
        "03",
        not failures,
        "exact identities (domain, epigraph, restricted conjugate, easy "
        "directions) on 8 fixtures + 100 random instances"
        + ("" if not failures else f"; first failure {failures[0]}"),
    )


def test_04_representation_equality_and_monotonicity():
    t0 = time.perf_counter()
    spec = load_fixture("lagrangian_quadratic")
    rep = conjugate_representation_check(
        Tables(*spec.build(), spec.xduals, spec.yduals), hypothesis=True
    )
    binding_rows_pass = [ok for _, ok, _ in rep.verdicts] == [True, True, True]
    exact = binding_rows_pass and rep.max_residual == 0.0 and all(
        r == 0.0 for r in rep.residuals
    )
    monotone = True
    for name in ("abs_full", "quadratic_halfline", "abs_diff_window"):
        other = load_fixture(name)
        yd = other.yduals if other.yduals is not None else other.xduals
        r2 = conjugate_representation_check(Tables(*other.build(), other.xduals, yd))
        monotone &= r2.monotone_ok and r2.lower_bound_ok
    elapsed = time.perf_counter() - t0
    emit(
        "04",
        exact and monotone and elapsed < 10.0,
        f"inf-convolution representation: residual {rep.max_residual} on the "
        f"Lagrangian fixture, split-refinement monotone on 3 convex fixtures, "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_05_marginal_subdifferential_two_sided():
    t0 = time.perf_counter()
    spec = load_fixture("lagrangian_quadratic")
    tables = Tables(*spec.build(), spec.xduals, spec.yduals)
    witness_idx = spec.xduals.index_of([-2.0])
    ok = True
    details = []
    for eps in (0.0, 0.5):
        rep = marginal_subdiff_check(tables, [0.0], eps, qc14=True)
        ok &= [v.ok for v in rep.verdicts] == [True, True]
        ok &= rep.agreement == 1.0 and rep.n_samples == 41
        ok &= bool(rep.lhs_mask[witness_idx]) and bool(rep.rhs_mask[witness_idx])
        details.append(f"eps={eps}: agreement {rep.agreement:.4f}")
    elapsed = time.perf_counter() - t0
    emit(
        "05",
        ok and elapsed < 10.0,
        f"two-route agreement at 41 duals incl. witness -2 ({'; '.join(details)}), "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_06_lagrangian_dual_identity():
    spec = load_fixture("lagrangian_quadratic")
    f_expr, g_exprs = spec.lagrangian
    rep = lagrangian_identity_check(f_expr, g_exprs, spec.ygrid, spec.lambdas)
    identity_ok = all(
        abs(mustar + lhat) <= 1e-9
        for _, lhat, mustar, kind, _ in rep.rows
        if kind == "identity"
    )
    divergent_rows = [row for row in rep.rows if row[3] == "divergent"]
    divergent_ok = bool(divergent_rows) and all(row[4] for row in divergent_rows)
    emit(
        "06",
        [v.ok for v in rep.verdicts] == [True, True] and identity_ok and divergent_ok,
        f"mu*(-lambda) = -Lhat(lambda) within 1e-9 on "
        f"{len(rep.rows) - len(divergent_rows)} nodes; "
        f"{len(divergent_rows)} negative probe(s) divergent",
    )


def test_07_duality_chain_and_gaps():
    rng = np.random.default_rng(109)
    chain_bad = 0
    duals = Grid.from_bounds([(-4.0, 4.0, 9)])
    for _ in range(100):
        tables = Tables(*zero_centered_problem(rng), duals, duals)
        vp = primal_value(tables)
        vd1 = dual_value_1(tables)
        vd2 = dual_value_2(tables)
        if not (vd2 <= vd1 <= vp):
            chain_bad += 1
    spec = load_fixture("lagrangian_quadratic")
    strong = strong_duality_check(Tables(*spec.build(), spec.xduals, spec.yduals))
    slater_ok = strong.witness == (-2.0,) and abs(strong.gap) <= 1e-9
    diag = load_fixture("diagonal_nonconvex")
    diag_tables = Tables(*diag.build(), diag.xduals)
    weak = strong_duality_check(diag_tables)
    mu_d = diag_tables.mu
    sub_empty = is_empty(
        eps_subdifferential(mu_d, mu_d.grid.index_of([0.0]), 0.0)
    )[0]
    diag_ok = abs(weak.gap - 1.0) <= 1e-9 and weak.witness is None and sub_empty
    emit(
        "07",
        chain_bad == 0 and slater_ok and diag_ok,
        f"dual chain exact on 100 instances ({chain_bad} violations); Slater "
        f"fixture witness {strong.witness} gap {strong.gap:.2e}; nonconvex gap "
        f"{weak.gap} with empty subdifferential",
    )


def test_08_near_convexity_suite():
    expected = {
        "open_box_corner": True,
        "two_segments": False,
        "punctured_box": False,
    }
    reports = {
        name: is_int_nearly_convex(
            load_raster((FIXTURES / f"{name}.raster").read_text())
        )
        for name in expected
    }
    verdicts_ok = all(reports[n].verdict == v for n, v in expected.items())
    witness_ok = reports["punctured_box"].witness == (0.0, 0.0)
    left = load_raster((FIXTURES / "box_left.raster").read_text())
    right = load_raster((FIXTURES / "box_right.raster").read_text())
    inter_ok = intersection_preservation_check(left, right).verdict
    proj_ok = image_preservation_check(left, projection_map(2, (0,))).verdict
    stable = all(
        is_int_nearly_convex(
            refine_raster(
                load_raster((FIXTURES / f"{name}.raster").read_text()), 2
            )
        ).verdict
        == v
        for name, v in expected.items()
    )
    emit(
        "08",
        verdicts_ok and witness_ok and inter_ok and proj_ok and stable,
        "verdicts (true, false, false-with-center-witness); intersection and "
        "projection preserved; stable under raster refinement x2",
    )


def test_09_semicontinuity_probe():
    jump = semicontinuity_probe(load_fixture("f_not_lsc"), [0.0])
    cont = semicontinuity_probe(load_fixture("quadratic_halfline"), [0.0])
    ok = (
        jump.lsc_consistent
        and not jump.usc_consistent
        and len(jump.levels) == 3
        and cont.lsc_consistent
        and cont.usc_consistent
    )
    emit(
        "09",
        ok,
        "discontinuous fixture lsc-consistent and not usc-consistent at 0 over "
        "3 refinement levels; continuous fixture consistent both ways",
    )


def test_10_lipschitz_bound():
    details = []
    ok = True
    for name in ("abs_diff_window", "quadratic_halfline"):
        spec = load_fixture(name)
        phi, F = spec.build()
        mu = marginal(phi, F).mu
        ell_phi = phi_modulus(phi)
        ell_map = lipschitz_estimate_map(F)
        rep = lipschitz_probe(mu, ell_phi, ell_map)
        ok &= rep.ok
        details.append(f"{name}: L_hat {rep.l_hat:.4g} <= bound {rep.bound:.4g}")
    emit("10", ok, "; ".join(details))


def test_11_cli_determinism_and_suite_runtime(tmp_path):
    names = fixture_names()
    t0 = time.perf_counter()
    codes = {}
    for name in names:
        out = tmp_path / name
        codes[name] = main(
            ["verify-all", "--spec", str(FIXTURES / f"{name}.spec"), "--out", str(out)]
        )
    elapsed = time.perf_counter() - t0
    drifted = [
        f
        for name in names
        for f in golden_mismatches(tmp_path / name, name, "verify-all")
    ]
    clean = all(rc == 0 for rc in codes.values())
    emit(
        "11",
        clean and not drifted and elapsed < 60.0,
        f"verify-all on {len(names)} fixtures: exit codes clean, reports "
        f"byte-identical to the goldens"
        + (f" except {drifted}" if drifted else "")
        + f", first pass {elapsed:.1f}s (budget 60s)",
    )
