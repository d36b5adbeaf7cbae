"""The run-scoped table store: built once, shared bitwise, sliced by counts.

A `Tables` store keeps the dual grids of one problem and the tables that
several of its checks read.  These tests show that one verify-all builds
each of them once, that every check returns the same on a fresh store as
on one store shared with the other checks in either order, with given or
default grids, that the graph support kept on the distinct lattice steps
is the support on all of them, that the checks reading the graph-row
minima equal the routes that walked phi's table, and that the conjugate
check's count-sized slices change no report.
"""

import ast
import contextlib
import importlib
import io
import math
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab import (
    GriddedFunction,
    MarginlabError,
    SetValuedMap,
    Tables,
    conj_subdiff_check,
    conjugate_at,
    conjugate_representation_check,
    default_dual_grid,
    domain_identity_check,
    dual_value_1,
    dual_value_2,
    epigraph_projection_check,
    graph_support,
    marginal,
    marginal_subdiff_check,
    restricted_conjugate_check,
    primal_value,
    sampled_inf_convolution,
    strong_duality_check,
)
from marginlab.cli import main
from marginlab.conjugate import count_slices, default_ydual_grid
from marginlab.setmap import split_lattice

from helpers import (
    FIXTURES,
    dyadic_grid,
    dyadic_rows,
    fixture_names,
    full_table_inf_convolution,
    graph_walk_domain_identity_check,
    graph_walk_epigraph_projection_check,
    graph_walk_restricted_conjugate_check,
    lattice_support,
    non_dyadic_problem,
    random_problem,
    reference_conj_subdiff_check,
)

conjugate_module = importlib.import_module("marginlab.conjugate")


def _key(value):
    """A hashable stand-in for an argument, by content; a row getter stands
    for the array it reads, or else for its function."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if callable(value):
        owner = getattr(value, "__self__", None)
        return _key(owner) if isinstance(owner, np.ndarray) else value.__qualname__
    if isinstance(value, GriddedFunction):
        return (value.grid, _key(value.values))
    if isinstance(value, SetValuedMap):
        return (value.xgrid, value.ygrid, _key(value.graph))
    return value


def _count_calls(monkeypatch, module: str, name: str) -> Counter:
    """Count calls of marginlab.<module>.<name> by the content of their
    arguments, through every marginlab module that binds the function."""
    orig = getattr(importlib.import_module(f"marginlab.{module}"), name)
    calls: Counter = Counter()

    def spy(*args, **kwargs):
        calls[tuple(_key(a) for a in args) + tuple(sorted(kwargs))] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "marginlab" or mod_name.startswith("marginlab."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


class TestBuildOnce:
    @pytest.mark.parametrize(
        "fixture", ["separable_quadratic", "abs_full", "quadratic_halfline"]
    )
    def test_verify_all_builds_each_table_once(self, fixture, monkeypatch, tmp_path):
        counted = {
            name: _count_calls(monkeypatch, module, name)
            for module, name in (
                ("marginal", "marginal"),
                ("marginal", "masked_minima"),
                ("conjugate", "conjugate_blocks"),
                ("conjugate", "conjugate_at"),
            )
        }
        argv = ["verify-all", "--spec", str(FIXTURES / f"{fixture}.spec"),
                "--out", str(tmp_path), "--refine", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert sum(counted["marginal"].values()) == 1
        assert sum(counted["masked_minima"].values()) == 1  # the epigraph check reads mu
        for name, calls in counted.items():
            assert calls and max(calls.values()) == 1, name
        # mu* and the witness conjugate, phi* and the graph support on the
        # dual lattice, phi* and the graph support on the refined lattice:
        # the one conjugate kernel behind `conjugate_at`,
        # `partial_conjugate` and `graph_support`.
        assert len(counted["conjugate_blocks"]) == 6

    def test_the_dual_lattice_support_is_built_once(self, monkeypatch, tmp_path):
        """verify-all builds the graph support on the x* split lattice once,
        in the store; the conjugate check reads its rows there and runs no
        conjugate kernel of its own."""
        support = _count_calls(monkeypatch, "setmap", "graph_support")
        argv = ["verify-all", "--spec", str(FIXTURES / "separable_quadratic.spec"),
                "--out", str(tmp_path), "--refine", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert sum(support.values()) == 1
        rng = np.random.default_rng(3)
        for dims in ((1, 1), (2, 1)):
            phi, F = random_problem(rng, max_count=5, p_inf=0.0, xdim=dims[0], ydim=dims[1])
            tables = Tables(phi, F)
            tables.mustar, tables.phistar, tables.lattice_support
            kernel = _count_calls(monkeypatch, "conjugate", "conjugate_blocks")
            for si in range(tables.xduals.size):
                conj_subdiff_check(tables, tables.xduals.coords(si), 0.0)
            assert not kernel


def _bits(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _outcome(fn):
    """The result's bits, or the error a check raised."""
    try:
        return "returned", _bits(fn())
    except MarginlabError as e:
        return "raised", f"{type(e).__name__}: {e}"


def _store_checks(x0, s0, eps, flag):
    """Every check that reads a store, as a function of the store."""
    return {
        "domain": lambda t: domain_identity_check(t),
        "epigraph": lambda t: epigraph_projection_check(t, [-1.0, 0.0, 1.0]),
        "restricted": lambda t: restricted_conjugate_check(t),
        "representation": lambda t: conjugate_representation_check(t, flag),
        "strong_duality": lambda t: strong_duality_check(t),
        "primal_value": lambda t: primal_value(t),
        "dual_value_1": lambda t: dual_value_1(t),
        "dual_value_2": lambda t: dual_value_2(t),
        "inf_convolution": lambda t: t.inf_convolution,
        "graph_minima": lambda t: t.graph_minima,
        "marginal_subdiff": lambda t: marginal_subdiff_check(t, x0, eps, flag),
        "conj_subdiff": lambda t: conj_subdiff_check(t, s0, eps, flag),
    }


class TestWrappers:
    """Each check returns the same on a fresh store as on one store shared
    with every other check, whichever check fills the shared store first,
    both on given dual grids and on the store's default ones."""

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_standalone_equals_shared_store_in_both_orders(self, dims):
        xdim, ydim = dims
        rng = np.random.default_rng(11 + 10 * xdim + ydim)
        count = 9 if xdim == 1 else 3
        errors = 0
        for trial in range(12):
            phi, F = random_problem(
                rng, max_count=6 if xdim + ydim <= 3 else 4, xdim=xdim, ydim=ydim,
                p_drop=(0.25, 0.6)[trial % 2],
            )
            mu = marginal(phi, F).mu
            given = (default_dual_grid(mu, count), default_ydual_grid(phi, xdim, count))
            default = (default_dual_grid(mu), default_ydual_grid(phi, xdim))
            assert (Tables(phi, F).xduals, Tables(phi, F).yduals) == default
            finite = np.flatnonzero(np.isfinite(mu.values))
            x0 = int(rng.choice(finite)) if finite.size and trial % 4 else 0
            eps, flag = (0.0, 0.5)[trial % 2], trial % 3 == 0
            for grids, store in ((given, lambda: Tables(phi, F, *given)),
                                 (default, lambda: Tables(phi, F))):
                duals, yduals = grids
                s0 = duals.coords(int(rng.integers(0, duals.size)))
                checks = _store_checks(x0, s0, eps, flag)
                want = {name: _outcome(lambda: check(store())) for name, check in checks.items()}
                assert want["inf_convolution"] == _outcome(
                    lambda: sampled_inf_convolution(phi, F, duals.nodes, duals, yduals)
                )
                errors += sum(how == "raised" for how, _ in want.values())
                for names in (list(checks), list(checks)[::-1]):
                    tables = store()
                    got = {name: _outcome(lambda: checks[name](tables)) for name in names}
                    assert got == want
        assert errors  # some instances refuse a check, and both forms agree on that

    def test_store_keeps_only_shared_tables(self):
        rng = np.random.default_rng(5)
        phi, F = random_problem(rng, max_count=6, p_inf=0.0)
        mu = marginal(phi, F).mu
        duals, yduals = default_dual_grid(mu, 9), default_ydual_grid(phi, 1, 9)
        tables = Tables(phi, F, duals, yduals)
        conjugate_representation_check(tables, False)
        conj_subdiff_check(tables, duals.coords(4), 0.0, False)
        # The refined lattice is not kept; the lattice at one node is read
        # from the kept one.
        assert set(vars(tables)) == {
            "phi", "F", "xduals", "yduals", "marginal",
            "mustar", "phistar", "lattice_support", "inf_convolution",
        }
        assert (tables.xduals, tables.yduals) == (duals, yduals)
        kept = (tables.phistar, *tables.lattice_support, tables.inf_convolution)
        assert not any(a.flags.writeable for a in kept)


class TestGraphMinima:
    """The domain, epigraph and restricted conjugate checks read phi only
    through the store's graph-row minima, built once per run.  Each returns
    what its graph-walking route in tests/helpers.py returns, bit for bit:
    the status, the witness, every violation and every rhs value."""

    CASES = ["plain", "signed zeros and infinities", "empty rows", "empty graph",
             "planted mu", "inexact"]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (2, 1), (1, 2)]),
        st.sampled_from(CASES),
        st.sampled_from([None, 1, 3, 7, 50]),
    )
    @settings(max_examples=300, deadline=None)
    def test_checks_equal_their_graph_walks(self, seed, dims, case, cap):
        """On `random_problem` instances with -inf, +inf, 0.0 and -0.0 cells,
        with empty graph rows or no graph cell at all, with a mu planted
        beside the store's minima (finite on empty rows too), and on
        inexact data, at levels that include +-inf, +-0.0 and NaN, with the
        cells walked at a lowered `_BLOCK_CAP` or at the real one."""
        rng = np.random.default_rng(seed)
        xdim, ydim = dims
        if case == "inexact":
            phi, F = non_dyadic_problem(rng, xdim, 10.0 ** int(rng.integers(-3, 4)))
        else:
            phi, F = random_problem(rng, max_count=6 if dims == (1, 1) else 4,
                                    p_inf=0.2, xdim=xdim, ydim=ydim)
        values = phi.values.copy()
        if case == "signed zeros and infinities":
            pick = rng.integers(0, 6, size=values.size)
            for k, special in enumerate((-math.inf, math.inf, 0.0, -0.0)):
                values[pick == k] = special
        phi = GriddedFunction(phi.grid, values)
        if case == "empty rows":
            rows = rng.random(F.xgrid.size) < 0.5
            F = SetValuedMap(F.xgrid, F.ygrid, F.graph & ~rows[:, None])
        elif case == "empty graph":
            F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
        duals = dyadic_grid(rng, F.xgrid.dim, max_count=5)
        tables = Tables(phi, F, duals, dyadic_grid(rng, F.ygrid.dim, max_count=3))
        if case == "planted mu":
            planted = rng.choice([-math.inf, math.inf, 0.0, -0.0, -1.0, 2.5], F.xgrid.size)
            mu = GriddedFunction(F.xgrid, np.where(rng.random(F.xgrid.size) < 0.5,
                                                   tables.mu.values, planted))
            tables.marginal = tables.marginal._replace(mu=mu)
        levels = [-math.inf, math.inf, math.nan, 0.0, -0.0,
                  *rng.choice(np.append(values, [-1.0, 0.5, 3.0]), 4)]
        lambdas = [levels[i] for i in rng.permutation(len(levels))[: int(rng.integers(1, 10))]]
        oracles = (
            graph_walk_domain_identity_check(tables),
            graph_walk_epigraph_projection_check(tables, lambdas),
            graph_walk_restricted_conjugate_check(tables),
        )
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", cap or conjugate_module._BLOCK_CAP):
            fresh = Tables(phi, F, tables.xduals, tables.yduals)
            fresh.marginal = tables.marginal
            got = (
                domain_identity_check(fresh),
                epigraph_projection_check(fresh, lambdas),
                restricted_conjugate_check(fresh),
            )
        # repr tells -0.0 from 0.0 and spells every other float exactly.
        assert [repr(r) for r in got] == [repr(r) for r in oracles]
        masked = np.where(F.graph, values.reshape(F.graph.shape), math.inf)
        np.testing.assert_array_equal(fresh.graph_minima, masked.min(axis=1))
        assert not fresh.graph_minima.flags.writeable

    @pytest.mark.parametrize("fixture", fixture_names())
    def test_verify_all_walks_the_graph_for_its_minima_once(self, fixture, monkeypatch, tmp_path):
        """One verify-all builds the minima once, and only the minima and
        the conjugate check walk the graph cells."""
        walk, callers = importlib.import_module("marginlab.setmap").graph_cell_blocks, Counter()

        def spy(F, width):
            callers[sys._getframe(1).f_code.co_name] += 1
            return walk(F, width)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "marginlab" or mod_name.startswith("marginlab."):
                for attr, value in list(vars(mod).items()):
                    if value is walk:
                        monkeypatch.setattr(mod, attr, spy)
        argv = ["verify-all", "--spec", str(FIXTURES / f"{fixture}.spec"),
                "--out", str(tmp_path), "--refine", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 2)
        assert callers["graph_minima"] == 1
        assert set(callers) <= {"graph_minima", "conj_subdiff_check"}

    CHECKS = {"marginal": ("domain_identity_check", "epigraph_projection_check"),
              "subdiff": ("restricted_conjugate_check",)}

    @pytest.mark.parametrize("module,name", [(m, n) for m, ns in CHECKS.items() for n in ns])
    def test_checks_read_neither_phi_nor_the_graph_mask(self, module, name):
        """The three checks name neither phi (`phi` or `tables.phi`) nor
        `F.graph`; each reads phi's values through the store's minima."""
        path = importlib.import_module(f"marginlab.{module}").__file__
        tree = ast.parse(open(path, encoding="utf-8").read())
        [func] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
        for node in ast.walk(func):
            assert not (isinstance(node, ast.Name) and node.id == "phi"), node.lineno
            assert not (isinstance(node, ast.Attribute) and node.attr in ("phi", "graph")), node.lineno


class TestSupportIdentity:
    """The graph support on all split-lattice rows is the support on the
    distinct rows taken at the inverse index, bit for bit."""

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_all_rows_equal_distinct_rows_at_the_inverse(self, dims):
        xdim, ydim = dims
        rng = np.random.default_rng(23 + 10 * xdim + ydim)
        for trial in range(16):
            if trial % 2 and xdim == ydim:  # inexact steps and dot products
                phi, F = non_dyadic_problem(rng, xdim, 1.0)
                duals = default_dual_grid(marginal(phi, F).mu, 5)
            else:
                phi, F = random_problem(rng, max_count=5, xdim=xdim, ydim=ydim)
                duals = dyadic_grid(rng, xdim, max_count=5)
            yduals = default_ydual_grid(phi, xdim, 5)
            lattice = split_lattice(duals.nodes, duals)
            full = graph_support(F, lattice, -yduals.nodes)
            steps, table, inverse = Tables(phi, F, duals, yduals).lattice_support
            assert table.shape[0] < full.shape[0]
            np.testing.assert_array_equal(full.view(np.uint64), table[inverse].view(np.uint64))
            np.testing.assert_array_equal(lattice.view(np.uint64), steps[inverse].view(np.uint64))


class TestFold:
    """`inf_convolution_min` folds F* one block of lattice steps at a time.
    The sampled value, and the value the store keeps, equal the route that
    gathered every point's pairs from one whole F* table, bit for bit."""

    CASES = ["plain", "empty graph", "empty graph rows", "+inf phi rows", "one point"]

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(1, 1), (2, 1), (1, 2)]),
        st.sampled_from(CASES),
        st.sampled_from([None, 1, 7, 60, 500]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_full_table_route(self, seed, dims, case, cap):
        """On `random_problem` maps with an empty graph, with empty graph
        rows, with x rows where phi is +inf or at one evaluation point,
        with the kernel's blocks and the fold's runs cut at a lowered
        `_BLOCK_CAP` (several blocks of steps) or at the real one."""
        rng = np.random.default_rng(seed)
        xdim, ydim = dims
        phi, F = random_problem(rng, max_count=6 if dims == (1, 1) else 4, xdim=xdim, ydim=ydim)
        rows = rng.random(F.xgrid.size) < 0.5
        if case == "empty graph":
            F = SetValuedMap(F.xgrid, F.ygrid, np.zeros_like(F.graph))
        elif case == "empty graph rows":
            F = SetValuedMap(F.xgrid, F.ygrid, F.graph & ~rows[:, None])
        elif case == "+inf phi rows":
            values = phi.values.reshape(F.xgrid.size, -1).copy()
            values[rows] = math.inf
            phi = GriddedFunction(phi.grid, values.reshape(-1))
        x1duals = dyadic_grid(rng, xdim, max_count=4)
        yduals = dyadic_grid(rng, ydim, max_count=4)
        if case == "one point":
            at = dyadic_rows(rng, 1, xdim)
        else:
            at = np.vstack([x1duals.nodes, dyadic_rows(rng, 3, xdim)])
        want = full_table_inf_convolution(phi, F, at, x1duals, yduals)
        kept = full_table_inf_convolution(phi, F, x1duals.nodes, x1duals, yduals)
        with mock.patch.object(conjugate_module, "_BLOCK_CAP", cap or conjugate_module._BLOCK_CAP):
            got = sampled_inf_convolution(phi, F, at, x1duals, yduals)
            store = Tables(phi, F, x1duals, yduals).inf_convolution
        for table, oracle in ((got, want), (store, kept)):
            assert table.shape == oracle.shape
            np.testing.assert_array_equal(table.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.parametrize("cap", [7, 60])
    def test_a_lowered_cap_folds_several_blocks(self, cap, monkeypatch):
        """The lowered caps of the property cut the distinct steps into
        several consecutive blocks, which cover each step once."""
        monkeypatch.setattr(conjugate_module, "_BLOCK_CAP", cap)
        duality = importlib.import_module("marginlab.duality")
        fold, seen = duality.inf_convolution_min, []

        def spy(phistar, F, inverse, blocks):
            def recorded():
                for rows, fstar in blocks:
                    seen.append(rows)
                    yield rows, fstar

            return fold(phistar, F, inverse, recorded())

        monkeypatch.setattr(duality, "inf_convolution_min", spy)
        rng = np.random.default_rng(cap)
        phi, F = random_problem(rng, max_count=4, xdim=2, ydim=1)
        x1duals = dyadic_grid(rng, 2, max_count=4)
        yduals = dyadic_grid(rng, 1, max_count=4)
        sampled_inf_convolution(phi, F, x1duals.nodes, x1duals, yduals)
        steps = lattice_support(F, x1duals.nodes, x1duals, yduals)[0]
        assert len(seen) > 1
        assert [sl.start for sl in seen] == [0] + [sl.stop for sl in seen[:-1]]
        assert seen[-1].stop == steps.shape[0]


class TestCountSlices:
    @pytest.mark.parametrize("cap", [1, 3, 7, 50])
    def test_slices_cover_the_items_within_the_cap(self, cap, monkeypatch):
        monkeypatch.setattr(importlib.import_module("marginlab.conjugate"), "_BLOCK_CAP", cap)
        rng = np.random.default_rng(cap)
        for _ in range(50):
            entries = rng.integers(1, 2 * cap + 2, size=int(rng.integers(0, 40)))
            slices = list(count_slices(entries))
            covered = [i for sl in slices for i in range(sl.start, sl.stop)]
            assert covered == list(range(entries.size))
            for sl in slices:
                assert entries[sl].sum() <= cap or sl.stop - sl.start == 1

    @pytest.mark.parametrize("cap", [1, 3, 7, 50, None])
    def test_conjugate_check_equals_the_reference(self, cap, monkeypatch):
        # The reference scores every cell at once; the check scores
        # candidate cells in slices sized by their counts under the cap
        # (None keeps the default), also on inexact dot products over two
        # and three coordinates.
        if cap is not None:
            monkeypatch.setattr(importlib.import_module("marginlab.conjugate"), "_BLOCK_CAP", cap)
        rng = np.random.default_rng(100 + (cap or 0))
        for trial in range(18):
            dim = 1 + trial % 3
            if trial % 4 >= 2 or dim == 3:
                phi, F = non_dyadic_problem(rng, dim, 10.0 ** int(rng.integers(-3, 4)))
            else:
                phi, F = random_problem(rng, max_count=7 if dim == 1 else 4, xdim=dim, ydim=dim)
            mu = marginal(phi, F).mu
            duals = default_dual_grid(mu, 9 if dim == 1 else 3)
            yduals = default_ydual_grid(phi, dim, 9 if dim == 1 else 3)
            mustar = conjugate_at(mu, duals.nodes)
            si = int(np.argmin(mustar)) if trial % 3 else int(rng.integers(0, duals.size))
            args = (duals.coords(si), (0.0, 0.5)[trial % 2], trial % 2 == 0)
            assert conj_subdiff_check(Tables(phi, F, duals, yduals), *args) == (
                reference_conj_subdiff_check(phi, F, duals, yduals, *args)
            )
