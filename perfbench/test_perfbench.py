"""Checks of the benchmark's own pieces: generators, oracle, span arithmetic.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import specs  # noqa: E402
from run import layer_metrics, self_time_sum  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = pytest.importorskip("marginlab.cli")
from marginlab.marginal import marginal  # noqa: E402

SEEDS = range(12)


def _all_problems(seed: int, tag: str = "p0") -> list[specs.Problem]:
    return specs.cli_problems(seed, tag) + [specs.coupled_2d(seed, tag)]


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_specs_round_trip(seed):
    for p in _all_problems(seed):
        assert specs.round_trip_errors(p, cli.parse_spec) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_are_deterministic(seed):
    a, b = _all_problems(seed), _all_problems(seed)
    assert [(p.text, p.rasters) for p in a] == [(p.text, p.rasters) for p in b]
    # another pass of the same run gets other inputs (81 random table values)
    assert a[2].phi_table != _all_problems(seed, "p1")[2].phi_table


def test_problems_cover_every_phi_and_f_kind():
    probs = specs.cli_problems(0, "p0")
    assert {p.phi_kind for p in probs} == {"expr", "table"}
    assert any(p.phi_where for p in probs)
    assert {p.f_kind for p in probs} == {"full", "constraints", "ineq", "points"}
    assert any(p.lagrangian for p in probs) and any(p.rasters for p in probs)


@pytest.mark.parametrize("seed", SEEDS)
def test_oracle_agrees_with_marginal(seed, tmp_path):
    for p in _all_problems(seed):
        spec = cli.parse_spec(p.text, base_dir=tmp_path, default_name=p.name)
        mu = marginal(*spec.build(1)).mu.values
        np.testing.assert_allclose(mu, p.mu_oracle(), rtol=1e-9, atol=1e-12)


def test_oracle_detects_a_wrong_mu():
    p = specs.coupled_2d(0, "p0")
    spec = cli.parse_spec(p.text, base_dir=".", default_name=p.name)
    mu = marginal(*spec.build(1)).mu.values.copy()
    mu[3] += 1e-6
    assert not np.allclose(mu, p.mu_oracle(), rtol=1e-9, atol=1e-12)


def test_self_times_partition_the_root_spans():
    spans = [
        ("p0", None, "bench.process", 0.0, 10.0),
        ("0:0", "p0", "cli.import", 0.5, 2.0),
        ("0:1", "p0", "cli.main", 2.0, 9.0),
        ("0:2", "0:1", "marginal.marginal", 3.0, 4.0),
        ("0:3", "0:1", "conjugate.conjugate_at", 4.0, 8.0),
        ("0:4", "0:3", "conjugate.max_dots_minus", 4.5, 7.5),
    ]
    m = layer_metrics(spans, {})
    assert m["bench.process.self_s"][0] == pytest.approx(10.0 - 1.5 - 7.0)
    assert m["cli.main.self_s"][0] == pytest.approx(7.0 - 1.0 - 4.0)
    assert m["conjugate.conjugate_at.self_s"][0] == pytest.approx(1.0)
    total_self = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(self_time_sum(spans)) == pytest.approx(10.0)


def test_batch_import_is_not_part_of_the_timed_calls():
    spans = [
        (-1, None, "cli.import", 0.0, 1.0),
        (0, None, "cli.main", 1.0, 3.0),
        (1, 0, "marginal.marginal", 1.5, 2.0),
    ]
    assert self_time_sum(spans) == pytest.approx(2.0)


def test_tracer_nests_spans_and_counts():
    t = Tracer()
    inner = t.wrap("inner", lambda: 1)
    outer = t.wrap("outer", lambda: inner() + 1, after=lambda a, k, r: t.counts.update(n=r))
    assert outer() == 2
    by_name = {name: (sid, parent) for sid, parent, name, _, _ in t.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] is None
    assert by_name["trace.bookkeeping"][1] is None  # counting stays outside the span
    assert t.counts["n"] == 2
