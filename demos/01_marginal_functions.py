"""Marginal value functions of parametric problems on finite grids.

A parametric problem pairs an objective phi(x, y) with a set-valued
constraint map F assigning feasible y-nodes to each parameter node x.
The marginal (optimal value) function is

    mu(x) = min { phi(x, y) : y in F(x) },

with mu(x) = +inf where F(x) is empty and mu(x) = -inf where the values
are unbounded below.  This script builds a small problem from a spec
text, inspects mu node by node, and probes continuity properties.
"""

import numpy as np

from marginlab import (
    ATTAINED,
    INFEASIBLE,
    eta_solutions,
    lipschitz_estimate_map,
    lipschitz_probe,
    marginal,
    parse_spec,
    render_value,
    semicontinuity_probe,
)

SPEC = """
name window_tracking

[xgrid]
axis -2 2 9

[ygrid]
axis -2 2 9

[phi]
expr (x - y)^2 + abs(y) / 2

[F]
constraints x - 1 - y      # y >= x - 1
constraints y - x - 1      # y <= x + 1
"""


def main():
    spec = parse_spec(SPEC)
    phi, F = spec.build()
    print(f"problem {spec.name!r}: phi on {phi.grid.shape}, "
          f"parameter grid {F.xgrid.shape}")

    # 1. The marginal function, how many minimizers back each value, and
    # the per-node status label.
    result = marginal(phi, F)
    mu = result.mu
    print("\n  x      mu(x)    status     minimizers")
    for i, x in enumerate(F.xgrid.nodes):
        print(f"  {x[0]:+5.1f}  {render_value(mu.values[i]):>7}  "
              f"{result.status[i]:<9}  {len(result.argmin[i])}")
    assert all(s == ATTAINED for s in result.status)

    # 2. Near-optimal solution sets S_eta(x) = {y : phi(x, y) < mu(x) + eta}.
    # The inequality is strict, so S_eta grows with eta and S_0 is empty.
    x0 = [0.0]
    for eta in (0.1, 0.8):
        ys = eta_solutions(phi, F, x0, eta)
        coords = [tuple(map(float, F.ygrid.coords(int(i)))) for i in ys]
        print(f"\neta = {eta}: near-optimal y at x = 0 -> {coords}")

    # 3. Semicontinuity probe: rebuild the problem on dyadically refined
    # grids and watch the neighborhood envelope tighten around mu(x0).
    probe = semicontinuity_probe(spec, x0)
    print(f"\nsemicontinuity at x = 0 (mu = {probe.mu_at_x0}):")
    for lv in probe.levels:
        print(f"  refine x{lv.factor}: cell {lv.cell:<7} "
              f"lower gap {probe.mu_at_x0 - lv.nbhd_min:.3g}   "
              f"upper gap {lv.nbhd_max - probe.mu_at_x0:.3g}")
    print(f"  lsc-consistent: {probe.lsc_consistent}, "
          f"usc-consistent: {probe.usc_consistent}")

    # 4. Lipschitz bound: with phi ell-Lipschitz in (x, y) and F
    # ell_1-Lipschitz as a map, mu is (ell_1 * ell + ell)-Lipschitz.
    diffs = phi.grid.nodes[:, None, :] - phi.grid.nodes[None, :, :]
    dist = np.abs(diffs).sum(axis=2)
    quot = np.abs(phi.values[:, None] - phi.values[None, :])
    quot = quot / np.where(dist == 0, 1.0, dist)
    ell = float(quot.max())
    rep = lipschitz_probe(mu, ell, lipschitz_estimate_map(F))
    print(f"\nLipschitz: observed L = {rep.l_hat:.3f} vs bound {rep.bound:.3f} "
          f"-> {'ok' if rep.ok else 'violated'}")
    assert rep.ok

    # 5. Statuses are not always 'attained': contradictory constraints
    # empty every F(x), and mu becomes identically +inf.
    spec2 = parse_spec(SPEC.replace("constraints x - 1 - y", "constraints y - x + 1")
                           .replace("constraints y - x - 1", "constraints x + 1 - y"))
    result2 = marginal(*spec2.build())
    print("\nwith contradictory constraints y <= x - 1 and y >= x + 1:")
    print(f"  statuses seen: {sorted(set(result2.status))}, "
          f"mu(0) = {render_value(result2.mu.values[4])}")
    assert set(result2.status) == {INFEASIBLE}


if __name__ == "__main__":
    main()
