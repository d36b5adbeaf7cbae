"""Every binding verdict row can fail: one planted defect per row.

The golden reports pin the bytes of passing runs only, so they cannot show
that a row still reports FAIL when the fact it checks is false.  Here each
binding row of `verify-all` on the 1-D fixtures at --refine 1, and of the
`conjugate`, `subdiff` and `nearconvex` commands, gets one plausible defect
planted through a name: a check, a `Tables` member, a kernel, or the
membership scan `subdiff._eps_members` that the subdifferential checks
share across their eps levels.  The row must read FAIL on the named fixture with the defect and PASS
without it.  `duality.witness_sound` is planted on separable_quadratic as
well, since a 2-D witness comes from the polygon route and a 1-D one from
the interval.  Defects are planted in every marginlab module that binds the
name, so they reach a call however the caller imported it.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from marginlab import RasterSet, Tables, is_int_nearly_convex
from marginlab.cli import main

from helpers import FIXTURES


def plant(monkeypatch, owner, name, make):
    """Replace `owner.name` by `make(original)` wherever marginlab binds it."""
    original = getattr(owner, name)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, make(original))
        return
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "marginlab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def moved(table, by):
    """A gridded function's values or an array, moved by `by`."""
    if hasattr(table, "values"):
        return dataclasses.replace(table, values=table.values + by)
    return table + by


def shifted(by):
    """A function-valued defect: the original's values moved by `by`."""

    def make(original):
        return lambda *args, **kwargs: moved(original(*args, **kwargs), by)

    return make


def member(change):
    """A `Tables` member (property or cached property) whose table goes
    through `change`; the defective member recomputes it on every read."""

    def make(original):
        read = original.fget if isinstance(original, property) else original.func
        return property(lambda self: change(read(self)))

    return make


def member_shifted(by):
    """A `Tables` member whose table is moved by `by`."""
    return member(lambda table: moved(table, by))


def one_ulp_up(table):
    """The first finite value of a gridded function one ulp higher."""
    values = table.values.copy()
    k = int(np.flatnonzero(np.isfinite(values))[0])
    values[k] = np.nextafter(values[k], np.inf)
    return dataclasses.replace(table, values=values)


def sign_flipped_eps_members(original):
    """eps subtracted from the offsets instead of added, in the membership
    scan that the subdifferential checks share across their eps levels."""
    return lambda f, xi, sample, epsilons: original(f, xi, sample, [-e for e in epsilons])


def dropped_second_term(original):
    """ext_sum that returns its first argument."""
    return lambda f, g: f


def bad_lower_addition(original):
    return lambda a, b: original(a, b) - 1.0


def dual_values_shifted(original):
    def wrong(*args, **kwargs):
        table = original(*args, **kwargs)
        return table._replace(values=tuple(v + 1.0 for v in table.values))

    return wrong


def capped(original):
    """conjugate_at with its values capped at 0: divergence goes unseen."""
    return lambda f, points: np.minimum(original(f, points), 0.0)


def moved_witness(original):
    def wrong(P):
        point = original(P)
        return None if point is None else point + 5.0

    return wrong


def strided_refinement(original):
    """refine_raster that keeps only the old nodes of the refined grid."""

    def wrong(S, factor):
        fine = original(S, factor)
        keep = np.ones(fine.grid.shape, dtype=bool)
        for axis in range(fine.grid.dim):
            index = [None] * fine.grid.dim
            index[axis] = slice(None)
            keep &= (np.arange(fine.grid.shape[axis]) % factor == 0)[tuple(index)]
        return RasterSet(fine.grid, fine.mask & keep)

    return wrong


def shifted_constraint(original):
    """The Lagrangian constraint evaluated 0.1 too high."""

    def wrong(text, *args, **kwargs):
        out = original(text, *args, **kwargs)
        if text == "1 - y":
            return dataclasses.replace(out, values=out.values + 0.1)
        return out

    return wrong


def raised_minima(original):
    """Row minima a quarter too high, as a misplaced offset would make them."""

    def wrong(phi, F):
        masked, mu = original(phi, F)
        return masked, mu + 0.25

    return wrong


def symmetric_difference(original):
    """The intersection check run on S1 ^ S2 where it means S1 & S2."""

    def wrong(S1, S2):
        original(S1, S2)  # the hypotheses are tested as before
        return is_int_nearly_convex(RasterSet(S1.grid, S1.mask ^ S2.mask))

    return wrong


# (command, fixture, row, (owner module or class, name, defect))
CASES = [
    ("verify-all", "abs_full", "core.domain_identity",
     ("Tables", "mu", member_shifted(np.array([np.inf] + [0.0] * 8)))),
    ("verify-all", "abs_full", "core.epigraph_projection",
     ("marginlab.marginal", "masked_minima", raised_minima)),
    ("verify-all", "abs_full", "core.mu_convex",
     ("marginlab.core", "ext_add_arrays", bad_lower_addition)),
    ("verify-all", "abs_full", "conjugacy.fast_matches_bruteforce",
     ("marginlab.conjugate", "conjugate_fast", shifted(1e-6))),
    ("verify-all", "abs_full", "conjugacy.fenchel_young",
     ("Tables", "mustar", member_shifted(-1.0))),
    ("verify-all", "abs_full", "conjugacy.restricted_conjugate_exact",
     ("Tables", "mustar", member(one_ulp_up))),
    ("verify-all", "abs_full", "conjugacy.representation_lower_bound",
     ("Tables", "inf_convolution", member_shifted(-1.0))),
    ("verify-all", "abs_full", "conjugacy.representation_monotone",
     ("marginlab.duality", "sampled_inf_convolution", shifted(1.0))),
    ("verify-all", "abs_full", "conjugacy.representation_equality",
     ("marginlab.duality", "sampled_inf_convolution", shifted(1.0))),
    ("verify-all", "abs_full", "subdiff.marginal_formula_upper_eps0p0",
     ("Tables", "phistar", member_shifted(-5.0))),
    ("verify-all", "abs_full", "subdiff.marginal_formula_upper_eps0p5",
     ("Tables", "phistar", member_shifted(-5.0))),
    ("verify-all", "abs_full", "subdiff.marginal_formula_agreement_eps0p0",
     ("Tables", "phistar", member_shifted(5.0))),
    ("verify-all", "abs_full", "subdiff.marginal_formula_agreement_eps0p5",
     ("Tables", "phistar", member_shifted(5.0))),
    ("verify-all", "abs_full", "subdiff.sum_rule_easy_inclusion",
     ("marginlab.core", "ext_sum", dropped_second_term)),
    ("verify-all", "abs_full", "subdiff.conjugate_formula_upper",
     ("Tables", "phistar", member_shifted(-5.0))),
    ("verify-all", "abs_full", "subdiff.conjugate_formula_containment",
     ("Tables", "phistar", member_shifted(5.0))),
    ("verify-all", "abs_full", "duality.weak_duality_chain",
     ("Tables", "inf_convolution", member_shifted(-10.0))),
    ("verify-all", "abs_full", "duality.gap_nonnegative",
     ("Tables", "mustar", member_shifted(-10.0))),
    ("verify-all", "abs_full", "duality.strong_duality_certified",
     ("marginlab.conjugate", "conjugate_at", shifted(1.0))),
    ("verify-all", "abs_full", "duality.witness_sound",
     ("marginlab.subdiff", "feasible_point", moved_witness)),
    ("verify-all", "separable_quadratic", "duality.witness_sound",
     ("marginlab.subdiff", "feasible_point", moved_witness)),
    ("verify-all", "lagrangian_quadratic", "duality.lagrange_dual_identity",
     ("marginlab.duality", "lagrangian_dual", dual_values_shifted)),
    ("verify-all", "lagrangian_quadratic", "duality.lagrange_negative_probe",
     ("marginlab.conjugate", "conjugate_at", capped)),
    ("verify-all", "lagrangian_quadratic", "duality.slater_strong_duality",
     ("marginlab.core", "eval_on_grid", shifted_constraint)),
    ("conjugate", "abs_full", "fast_matches_bruteforce",
     ("marginlab.conjugate", "conjugate_fast", shifted(1e-6))),
    ("conjugate", "abs_full", "biconjugate_minorant",
     ("Tables", "mustar", member_shifted(-1.0))),
    ("conjugate", "abs_full", "fenchel_young",
     ("Tables", "mustar", member_shifted(-1.0))),
    ("subdiff", "abs_full", "conjugate_route_agreement",
     ("Tables", "mustar", member_shifted(-1.0))),
    ("subdiff", "abs_full", "nesting_in_eps",
     ("marginlab.subdiff", "_eps_members", sign_flipped_eps_members)),
    ("nearconvex", "nearconvex_suite", "refinement_stable",
     ("marginlab.nearconvex", "refine_raster", strided_refinement)),
    ("nearconvex", "nearconvex_suite", "intersection_preserved",
     ("marginlab.nearconvex", "intersection_preservation_check", symmetric_difference)),
]


def statuses(command, fixture, out, code):
    argv = [command, "--spec", str(FIXTURES / f"{fixture}.spec"), "--out", str(out)]
    assert main(argv) == code
    report = json.loads((out / "report.json").read_text())
    return {v["name"]: v["status"] for v in report["verdicts"]}


IDS: list[str] = []
for command, fixture, row, _ in CASES:  # a row planted twice also names its fixture
    IDS.append(f"{command}-{row}" + (f"-{fixture}" if f"{command}-{row}" in IDS else ""))


@pytest.mark.parametrize("command,fixture,row,defect", CASES, ids=IDS)
def test_planted_defect_fails_its_row(command, fixture, row, defect, monkeypatch, tmp_path, capsys):
    assert statuses(command, fixture, tmp_path / "sound", 0)[row] == "PASS"
    owner, name, make = defect
    plant(monkeypatch, Tables if owner == "Tables" else sys.modules[owner], name, make)
    assert statuses(command, fixture, tmp_path / "planted", 2)[row] == "FAIL"
