"""Approximate subdifferentials as polyhedra, and the marginal formula.

On a finite grid the eps-subdifferential of f at a node x0 is cut out by
one halfspace per finite node,

    <x - x0, s> <= f(x) - f(x0) + eps,

so it is an H-polyhedron in the dual space.  Membership is equivalent to
the Fenchel-Young condition f*(s) + f(x0) <= <s, x0> + eps, and for a
marginal function mu the two-route check compares the polyhedron against
a formula assembled from subdifferentials of phi and coderivatives of F.
"""

from pathlib import Path

import numpy as np

from marginlab import (
    Grid,
    Tables,
    conjugate_at,
    eps_normal_cone,
    eps_subdifferential,
    eval_on_grid,
    feasible_point,
    is_empty,
    marginal_subdiff_check,
    parse_spec,
    sum_rule_check,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load(name):
    path = FIXTURES / f"{name}.spec"
    return parse_spec(path.read_text(), base_dir=FIXTURES, default_name=name)


def main():
    grid = Grid.from_bounds([(-2.0, 2.0, 17)])
    f = eval_on_grid("abs(x)", grid)
    x0 = grid.index_of([0.0])

    # 1. For f = |x| at 0 the eps-subdifferential is an interval that
    # widens with eps; eps = 0 recovers the classical [-1, 1].
    print("eps-subdifferential of |x| at 0:")
    for eps in (0.0, 0.5, 1.0):
        P = eps_subdifferential(f, x0, eps)
        iv = P.interval()
        print(f"  eps = {eps}: {P.n_halfspaces} halfspaces -> "
              f"interval [{iv.lo}, {iv.hi}]")

    # 2. Membership is exactly the Fenchel-Young inequality
    # f*(s) + f(x0) <= <s, x0> + eps, checked here on a dual sweep.
    duals = Grid.from_bounds([(-3.0, 3.0, 25)])
    P = eps_subdifferential(f, x0, 0.5)
    member = P.contains(duals.nodes)
    young = (conjugate_at(f, duals.nodes) + f.values[x0]
             <= duals.nodes @ grid.coords(x0) + 0.5 + 1e-9)
    assert np.array_equal(member, young)
    print(f"\nFenchel-Young route agrees at all {duals.size} dual nodes "
          f"({int(member.sum())} members)")

    # 3. Emptiness with a certificate: a concave function has no
    # subgradient at an interior node, and the solver names a small
    # subset of halfspaces that already contradict each other.
    g = eval_on_grid("0 - x^2", grid)
    empty, cert = is_empty(eps_subdifferential(g, x0, 0.0))
    print(f"\nsubdifferential of -x^2 at 0 empty: {empty}, "
          f"certificate rows {cert}")
    assert empty
    pt = feasible_point(eps_subdifferential(f, x0, 0.0))
    print(f"feasible point of the |x| interval: {pt.tolist()}")

    # 4. eps-normal cones to a finite set: at the corner (1, 1) of a
    # square the 0-normal cone contains the outward diagonal.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cone = eps_normal_cone(square, [1.0, 1.0], 0.0)
    print(f"\nnormal cone at the corner of a square: "
          f"contains (1,1): {bool(cone.contains([1.0, 1.0]))}, "
          f"contains (-1,0): {bool(cone.contains([-1.0, 0.0]))}")

    # 5. Sum rule: the eps-subdifferential of a sum is covered by the
    # union over eps-splits of Minkowski sums; for convex pieces at
    # eps = 0 the single split (0, 0) is exact.
    h1 = eval_on_grid("x^2", grid)
    h2 = eval_on_grid("abs(x)", grid)
    rep = sum_rule_check(h1, h2, x0, 0.0)
    print(f"\nsum rule for x^2 + |x| at 0: agreement {rep.agreement}, "
          f"splits {rep.splits}")
    assert rep.agreement == 1.0

    # 6. Marginal functions: the upper estimate holds unconditionally,
    # and under the qualification hypothesis the sampled formula matches
    # the polyhedron at every dual node, including the witness s = -2.
    spec = load("lagrangian_quadratic")
    tables = Tables(*spec.build(), spec.xduals, spec.yduals)
    for eps in (0.0, 0.5):
        rep = marginal_subdiff_check(tables, [0.0], eps, qc14=True)
        print(f"\nmarginal formula on the Lagrangian fixture, eps = {eps}:")
        print(f"  easy inclusion: {rep.easy_ok}, two-route agreement "
              f"{rep.agreement:.4f} over {rep.n_samples} duals")
        wit = spec.xduals.index_of([-2.0])
        print(f"  witness s = -2 in both routes: "
              f"{bool(rep.lhs_mask[wit] and rep.rhs_mask[wit])}")
        assert all(ok for _, ok, _ in rep.verdicts) and rep.agreement == 1.0


if __name__ == "__main__":
    main()
