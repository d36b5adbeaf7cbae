"""Weak and strong duality for gridded parametric problems.

The primal value is V_p = mu(0).  Two dual values bracket it from below:
V_d1 = sup_s -mu*(s) uses the conjugate of the marginal function, and
V_d2 replaces mu* by the sampled inf-convolution representation, giving
V_d2 <= V_d1 <= V_p node-exactly.  Strong duality (zero gap with a dual
witness) is certified by a subgradient of mu at 0; a nonconvex instance
shows a genuine gap and an empty subdifferential.
"""

from pathlib import Path

from marginlab import (
    Tables,
    conjugate_representation_check,
    eps_subdifferential,
    is_empty,
    lagrangian_dual,
    lagrangian_identity_check,
    parse_spec,
    render_value,
    slater_strong_duality_check,
    strong_duality_check,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load(name):
    path = FIXTURES / f"{name}.spec"
    return parse_spec(path.read_text(), base_dir=FIXTURES, default_name=name)


def main():
    # 1. The Lagrangian quadratic fixture: minimize y^2 subject to
    # 1 - y <= x.  Slater's condition holds, the gap closes, and the
    # dual witness s = -2 is a subgradient of mu at 0.
    spec = load("lagrangian_quadratic")
    tables = Tables(*spec.build(), spec.xduals, spec.yduals)
    rep = strong_duality_check(tables)
    print("Lagrangian quadratic fixture:")
    print(f"  V_p = {rep.vp}, V_d1 = {rep.vd1}, V_d2 = {rep.vd2}")
    print(f"  gap = {rep.gap}, dual witness = {rep.witness}")
    for name, ok, detail in rep.verdicts:
        status = "INFO" if ok is None else "PASS" if ok else "FAIL"
        print(f"  {status}  {name}  {detail}".rstrip())
    assert abs(rep.gap) <= 1e-9 and rep.witness == (-2.0,)

    # 2. A nonconvex diagonal instance: mu(x) = -x^2 has V_p = 0 but
    # V_d1 = -1, a unit gap, and no subgradient at the origin.
    diag = load("diagonal_nonconvex")
    diag_tables = Tables(*diag.build(), diag.xduals)
    mu_d = diag_tables.mu
    weak = strong_duality_check(diag_tables)
    empty, _ = is_empty(eps_subdifferential(mu_d, mu_d.grid.index_of([0.0]), 0.0))
    print(f"\nnonconvex diagonal fixture: gap = {weak.gap}, "
          f"witness = {weak.witness}, subdifferential empty = {empty}")
    assert abs(weak.gap - 1.0) <= 1e-9 and empty

    # 3. The classical Lagrangian dual function L(lambda) =
    # min_y f(y) + lambda g(y) matches -mu*(-lambda) at nonnegative
    # multiplier nodes when the x-grid is adapted to the graph of g.
    f_expr, g_exprs = spec.lagrangian
    table = lagrangian_dual(f_expr, g_exprs, spec.ygrid, spec.lambdas)
    idrep = lagrangian_identity_check(f_expr, g_exprs, spec.ygrid, spec.lambdas)
    print(f"\nLagrangian dual of f = {f_expr}, g = {g_exprs[0]} "
          f"(identity verdict {all(ok for _, ok, _ in idrep.verdicts)}):")
    print("  lambda   L(lambda)   mu*(-lambda)   kind")
    for (lam, lhat, mustar, kind, _), exp_inf in zip(
        idrep.rows, table.expected_infinite
    ):
        shown = "divergent" if exp_inf else render_value(mustar)
        print(f"  {lam[0]:+6.2f}  {render_value(lhat):>9}   {shown:>11}   {kind}")

    # 4. Slater's condition, checked constructively: some node satisfies
    # g(y) < 0 strictly, and then the gap must vanish.
    sl = slater_strong_duality_check(f_expr, g_exprs, spec.ygrid, hypothesis=True)
    print(f"\nSlater check: strictly feasible node {sl.slater_node}, "
          f"gap {sl.gap}, verdict {sl.verdicts[0].ok}")
    assert sl.verified and sl.verdicts[0].ok

    # 5. The representation mu*(x*) = min over splits of
    # phi*(x1*, y*) + sigma_gphF(x* - x1*, -y*) is exact on this convex
    # fixture: the sampled inf-convolution residual is zero everywhere.
    cr = conjugate_representation_check(tables, hypothesis=True)
    print(f"\nconjugate representation: lower bound {cr.lower_bound_ok}, "
          f"max residual {cr.max_residual}, "
          f"verdict {all(ok for _, ok, _ in cr.verdicts)}")
    assert all(ok for _, ok, _ in cr.verdicts) and cr.max_residual == 0.0


if __name__ == "__main__":
    main()
