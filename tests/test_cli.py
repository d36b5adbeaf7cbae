"""Spec parsing and the command-line pipeline: exit codes, reports, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from marginlab import (
    MissingSection,
    SpecSyntaxError,
    UnknownKey,
    UnsupportedShape,
    parse_spec,
)
from marginlab import cli
from marginlab.cli import main

from helpers import FIXTURES

INF = math.inf

MINIMAL = """\
name tiny

[xgrid]
axis -1 1 5

[ygrid]
axis 0 1 3

[phi]
expr x^2 + y

[F]
full
"""

NONCONVEX_BUT_DECLARED = """\
name liar

[xgrid]
axis -1 1 3

[ygrid]
axis -1 1 3

[xduals]
axis -2 2 5

[phi]
expr 0 - x^2 + y

[F]
full

[metadata]
convex true
"""


def write_spec(tmp_path, text, name="case.spec"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseSpec:
    def test_minimal_roundtrip(self):
        spec = parse_spec(MINIMAL)
        assert spec.name == "tiny"
        assert spec.xgrid.shape == (5,)
        assert spec.ygrid.shape == (3,)
        assert spec.phi_kind == "expr"
        assert spec.f_kind == "full"
        phi, F = spec.build()
        assert phi.grid.size == 15
        assert F.graph.all()

    def test_default_name_used_when_absent(self):
        text = MINIMAL.replace("name tiny\n\n", "")
        assert parse_spec(text, default_name="fallback").name == "fallback"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "\n# trailing\n"
        assert parse_spec(text).name == "tiny"

    def test_syntax_error_carries_position(self):
        bad = MINIMAL.replace("axis -1 1 5", "axis -1 one 5")
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(bad)
        assert exc.value.line == 4
        assert "line 4" in str(exc.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(UnknownKey):
            parse_spec(MINIMAL + "\n[frobnicate]\naxis 0 1 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKey):
            parse_spec(MINIMAL.replace("expr x^2 + y", "formula x^2 + y"))

    def test_missing_phi_section(self):
        text = MINIMAL.replace("[phi]\nexpr x^2 + y\n\n", "")
        with pytest.raises(MissingSection):
            parse_spec(text)

    def test_conflicting_phi_sources(self):
        text = MINIMAL.replace("expr x^2 + y", "expr x^2 + y\ntable " + "0 " * 15)
        with pytest.raises(MissingSection):
            parse_spec(text)

    def test_dual_grid_dimension_checked(self):
        text = MINIMAL + "\n[xduals]\naxis -1 1 3\naxis -1 1 3\n"
        with pytest.raises(MissingSection):
            parse_spec(text)

    def test_metadata_flags(self):
        text = MINIMAL + "\n[metadata]\nconvex true\nqc14 false\n"
        spec = parse_spec(text)
        assert spec.metadata["convex"] is True
        assert spec.metadata["qc14"] is False
        with pytest.raises(SpecSyntaxError):
            parse_spec(MINIMAL + "\n[metadata]\nconvex maybe\n")

    def test_table_phi_refuses_refinement(self):
        text = MINIMAL.replace("expr x^2 + y", "table " + " ".join(["1"] * 15))
        spec = parse_spec(text)
        phi, _ = spec.build()
        assert (phi.values == 1.0).all()
        with pytest.raises(UnsupportedShape):
            spec.build(2)

    @pytest.mark.parametrize(
        "point, col",
        [("nan 0", 7), ("inf 0", 7), ("0 -inf", 9)],
        ids=["nan", "inf", "y-inf"],
    )
    def test_non_finite_graph_point_names_line_and_column(self, point, col):
        text = MINIMAL.replace("full", f"point 0 0\npoint {point}")
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (14, col)
        assert "must be finite" in str(exc.value)

    def test_off_grid_graph_point_names_its_own_line(self):
        text = MINIMAL.replace("full", "point 0 0\npoint 0.3 0\npoint 0.5 1")
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert exc.value.line == 14
        assert "x = [0.3] is not a node of [xgrid]" in str(exc.value)
        text = MINIMAL.replace("full", "point 0 0\npoint 0.5 0.25")
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert exc.value.line == 14
        assert "y = [0.25] is not a node of [ygrid]" in str(exc.value)

    def test_graph_point_arity_names_its_own_line(self):
        text = MINIMAL.replace("full", "point 0 0\npoint 0 0 1")
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(text)
        assert exc.value.line == 14
        assert "has 3 coordinates, expected 2" in str(exc.value)

    def test_inf_tokens_in_tables(self):
        text = MINIMAL.replace(
            "expr x^2 + y", "table " + " ".join(["+inf"] + ["0"] * 14)
        )
        phi, _ = parse_spec(text).build()
        assert phi.values[0] == INF


class TestExitCodes:
    def test_marginal_runs_clean(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MINIMAL)
        rc = main(["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_binding_failure_exits_two(self, tmp_path, capsys):
        spec = write_spec(tmp_path, NONCONVEX_BUT_DECLARED)
        rc = main(["verify-all", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_usage_error_exits_one(self, tmp_path, capsys):
        assert main([]) == 1
        assert main(["marginal"]) == 1
        assert main(["explode", "--spec", "x", "--out", "y"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        rc = main(
            ["marginal", "--spec", str(tmp_path / "nope.spec"), "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "io error" in capsys.readouterr().err

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "name broken\n[phi]\nexpr x\n")
        rc = main(["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: MissingSection" in capsys.readouterr().err

    def test_overflowing_axis_span_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MINIMAL.replace("axis -1 1 5", "axis -1e308 1e308 3"))
        rc = main(["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SpecSyntaxError: line 4, column 1: axis")
        assert "overflow" in err and "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", ["marginal", "subdiff", "duality", "conjugate", "verify-all"]
    )
    def test_out_of_memory_exits_one(self, tmp_path, capsys, command):
        # 4.8M nodes per axis: the phi table would take 168 TiB, more than a
        # 47-bit address space holds, so the allocation fails on any host.
        spec, out = FIXTURES / "abs_full.spec", tmp_path / "out"
        argv = [command, "--spec", str(spec), "--out", str(out), "--refine", "600000"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and "TiB" in err
        assert not (tmp_path / "out").exists()

    def test_malformed_raster_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.raster").write_text("raster 1 3 0.0 1.0\n")
        spec = write_spec(tmp_path, MINIMAL + "\n[raster]\nfile bad.raster\n")
        rc = main(["nearconvex", "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: RasterError: line 2: raster body is missing" in err

    def test_x0_off_grid_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MINIMAL)
        rc = main(
            [
                "subdiff",
                "--spec",
                str(spec),
                "--out",
                str(tmp_path / "out"),
                "--x0",
                "0.3",
            ]
        )
        assert rc == 1
        assert "error: NotANode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, spec_tail",
        [
            (["--x0", "inf"], ""),
            (["--x0", "nan"], ""),
            (["--eps", "nan"], ""),
            (["--eps", "inf"], ""),
            (["--eps", "-0.5"], ""),
            ([], "\n[F]\npoint inf 0\n"),
        ],
        ids=["x0-inf", "x0-nan", "eps-nan", "eps-inf", "eps-negative", "point-inf"],
    )
    def test_non_finite_inputs_exit_one(self, tmp_path, capsys, flags, spec_tail):
        text = MINIMAL.replace("\n[F]\nfull\n", spec_tail) if spec_tail else MINIMAL
        spec = write_spec(tmp_path, text)
        argv = ["subdiff", "--spec", str(spec), "--out", str(tmp_path / "out")]
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage error:" if flags else "error: SpecSyntaxError: line 13")
        assert not (tmp_path / "out").exists()

    def test_info_verdicts_do_not_bind(self, tmp_path):
        rc = main(
            [
                "duality",
                "--spec",
                str(FIXTURES / "diagonal_nonconvex.spec"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0


class TestReports:
    def test_json_shape_and_infinity_rendering(self, tmp_path):
        spec = write_spec(
            tmp_path,
            MINIMAL.replace("full", "constraints y - x"),
        )
        out = tmp_path / "out"
        rc = main(["marginal", "--spec", str(spec), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == cli.SCHEMA
        assert report["command"] == "marginal"
        assert "+inf" in report["mu"]
        assert "infeasible" in report["status"]

    def test_csv_schema_row(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["marginal", "--spec", str(spec), "--out", str(out)])
        first = (out / "report.csv").read_text().splitlines()[0]
        assert first == f"{cli.SCHEMA},marginal"

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["conjugate", "--spec", str(spec), "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()

    def test_refine_flag_changes_grid(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["marginal", "--spec", str(spec), "--out", str(out1)])
        main(["marginal", "--spec", str(spec), "--refine", "2", "--out", str(out2)])
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert len(r2["mu"]) == 2 * len(r1["mu"]) - 1

    def test_dual_range_flag(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = main(
            [
                "conjugate",
                "--spec",
                str(spec),
                "--out",
                str(out),
                "--dual-range",
                "-2:2:5",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["duals"][0]["count"] == 5

    def test_eps_flag_reaches_subdiff(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        out = tmp_path / "out"
        rc = main(
            [
                "subdiff",
                "--spec",
                str(spec),
                "--out",
                str(out),
                "--x0",
                "-0.5",
                "--eps",
                "0.5",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eps"] == 0.5
        assert report["x0"] == [-0.5]


class TestVerifyAllOrdering:
    def test_layers_run_in_fixed_order(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "verify-all",
                "--spec",
                str(FIXTURES / "abs_full.spec"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        names = [r.split(",")[0] for r in rows[2:] if r]
        prefixes = []
        for n in names:
            p = n.split(".")[0]
            if not prefixes or prefixes[-1] != p:
                prefixes.append(p)
        assert prefixes == ["core", "conjugacy", "subdiff", "duality"]

    def test_nearconvex_command_on_raster_fixture(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "nearconvex",
                "--spec",
                str(FIXTURES / "nearconvex_suite.spec"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "nearconvex"

    def test_lagrangian_command(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "lagrangian",
                "--spec",
                str(FIXTURES / "lagrangian_quadratic.spec"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == f"{cli.SCHEMA},lagrangian"


class TestLayering:
    """The library stands without its command line: spec parsing lives in
    marginlab.spec, and only `python -m marginlab.cli` loads the CLI.
    scipy loads only where a run solves an LP."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def python(self, *args):
        path = os.pathsep.join(filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env
        )

    def test_library_import_leaves_the_cli_unloaded(self):
        done = self.python("-c", "import sys, marginlab; print('marginlab.cli' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_cli_binds_the_library_parser(self):
        import marginlab
        import marginlab.cli

        assert marginlab.cli.parse_spec is marginlab.parse_spec
        assert marginlab.cli.ProblemSpec is marginlab.ProblemSpec

    RUN_AND_REPORT_SCIPY = """\
import sys, tempfile
from marginlab.cli import main
with tempfile.TemporaryDirectory() as out:
    for command, fixture in {runs!r}:
        rc = main([command, "--spec", fixture, "--out", out])
        assert rc in (0, 2), (command, fixture, rc)
print("scipy" in sys.modules)
"""

    def scipy_loaded_after(self, *runs):
        runs = [(command, str(FIXTURES / f"{name}.spec")) for command, name in runs]
        done = self.python("-c", self.RUN_AND_REPORT_SCIPY.format(runs=runs))
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.splitlines()[-1]  # after the commands' own output
        assert loaded in ("True", "False")
        return loaded == "True"

    def test_one_dimensional_runs_leave_scipy_unloaded(self):
        assert not self.scipy_loaded_after(
            ("verify-all", "lagrangian_quadratic"),
            ("lagrangian", "lagrangian_quadratic"),
            ("nearconvex", "nearconvex_suite"),
        )

    def test_two_dimensional_polyhedra_load_scipy_for_their_lps(self):
        assert self.scipy_loaded_after(("verify-all", "separable_quadratic"))

    SUM_RULE_SCIPY = """\
import sys
from pathlib import Path
from marginlab import marginal, parse_spec, sum_rule_check
path = Path({path!r})
spec = parse_spec(path.read_text(), base_dir=str(path.parent), default_name=path.stem)
mu = marginal(*spec.build()).mu
rep = sum_rule_check(mu, mu, mu.grid.index_of([0.0, 0.0]), 0.5, duals=spec.xduals)
assert mu.grid.dim == 2 and rep.n_samples == spec.xduals.size
print("scipy" in sys.modules)
"""

    def test_two_dimensional_sum_rule_leaves_scipy_unloaded(self):
        path = FIXTURES / "separable_quadratic.spec"
        done = self.python("-c", self.SUM_RULE_SCIPY.format(path=str(path)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_duality_solves_lps_through_the_subdiff_binding(self):
        import marginlab.duality
        import marginlab.subdiff

        assert marginlab.duality.linprog is marginlab.subdiff.linprog

    def test_module_entry_point_has_no_runpy_warning(self):
        done = self.python("-m", "marginlab.cli")
        assert done.returncode == 1
        assert "usage error" in done.stderr
        assert "found in sys.modules" not in done.stderr
