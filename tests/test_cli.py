"""Spec parsing and the command-line pipeline: exit codes, reports, determinism."""

import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from marginlab import (
    ExprSyntaxError,
    MissingSection,
    NonFiniteExpression,
    RasterError,
    SpecSyntaxError,
    UnknownKey,
    UnknownVariable,
    UnsupportedShape,
    load_raster,
    parse_spec,
)
from marginlab import cli
from marginlab.cli import main
from marginlab.errors import InvalidArgument

from helpers import FIXTURES

INF = math.inf


def read_names(source, strings=False):
    """The names a source reads: bare names and attributes in load context
    (definitions and assignments do not count), and with `strings` also
    each part of a string constant spelled as a dotted identifier, as the
    benchmark's tracer names the functions it wraps."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                names.update(node.value.split("."))
    return names - {None}


def unreached_public_names(root, public):
    """The public names that no library module but the namespace, no demo
    and nothing under perfbench/ reads; what only the tests read is not
    reached."""
    library = [p for p in sorted((root / "src" / "marginlab").glob("*.py")) if p.stem != "__init__"]
    reached = set()
    for path in library + sorted((root / "demos").glob("*.py")):
        reached |= read_names(path.read_text(encoding="utf-8"))
    for path in sorted((root / "perfbench").glob("*.py")):
        reached |= read_names(path.read_text(encoding="utf-8"), strings=True)
    return [name for name in public if name not in reached]


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

    @pytest.mark.parametrize(
        "line, col",
        [("    axis 0 1 x", 14), ("axis 0 s 3", 8), ("  axis 0  1 s", 13)],
        ids=["indented-count", "bound", "two-spaces"],
    )
    def test_error_column_is_the_offending_token_on_the_raw_line(self, line, col):
        with pytest.raises(SpecSyntaxError) as exc:
            parse_spec(MINIMAL.replace("axis -1 1 5", line))
        assert (exc.value.line, exc.value.col) == (4, col)

    @pytest.mark.parametrize(
        "old, new, error, line",
        [
            ("expr x^2 + y", "expr x^", ExprSyntaxError, 10),
            ("expr x^2 + y", "expr zz + 1", UnknownVariable, 10),
            ("expr x^2 + y", "expr x\nwhere q - 1", UnknownVariable, 11),
            ("full", "ineq x - y", UnknownVariable, 13),
            ("full", "constraints (x", ExprSyntaxError, 13),
            ("full", "full\n\n[lagrangian]\nf y^2\ng x", UnknownVariable, 17),
        ],
        ids=["syntax", "phi-name", "where", "ineq-x", "constraints", "lagrangian"],
    )
    def test_expression_errors_name_their_line(self, old, new, error, line):
        with pytest.raises(error, match=rf"^line {line}: "):
            parse_spec(MINIMAL.replace(old, new))

    def test_non_finite_phi_names_its_line(self):
        spec = parse_spec(MINIMAL.replace("expr x^2 + y", "expr 1 / x"))
        with pytest.raises(NonFiniteExpression, match=r"^line 10: '1 / x' is not finite"):
            spec.build()

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

    def test_build_refuses_a_phi_past_the_checks_sums(self):
        spec = parse_spec(MINIMAL.replace("expr x^2 + y", "expr 1e308 * x + y^2"))
        assert spec.xduals is spec.yduals is None
        with pytest.raises(InvalidArgument) as exc:
            spec.build()
        assert str(exc.value) == (
            "line 10: phi reaches 1e+308 in magnitude;"
            " the checks add up to 4 such terms, and that sum overflows"
        )

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

    @pytest.mark.parametrize(
        "axis, where, skipped",
        [
            ("axis 0.5 2 4", "", {"subdiff.marginal_formula_upper", "duality.weak_duality_chain"}),
            ("axis -1 1 5", "where 0.25 - x^2\n", {"subdiff.marginal_formula_upper"}),
        ],
        ids=["zero-off-grid", "mu-infinite-at-zero"],
    )
    def test_layers_that_need_zero_report_skipped(self, tmp_path, capsys, axis, where, skipped):
        text = MINIMAL.replace("axis -1 1 5", axis).replace("[F]", where + "\n[F]")
        spec, out = write_spec(tmp_path, text), tmp_path / "out"
        assert main(["verify-all", "--spec", str(spec), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["verdicts"]
        info = {r["name"] for r in rows if r["detail"].endswith("; skipped")}
        assert info == skipped
        assert all(r["status"] == "INFO" for r in rows if r["name"] in skipped)

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

    @pytest.mark.parametrize(
        "phi, grid, axis",
        [
            ("1e308 * x + y", ("axis -1 1 5", "axis -1e-9 1e-9 5"), "x axis 1"),
            ("x^2 + 1e308 * y", ("axis 0 1 3", "axis 0 1e-9 3"), "y axis 1"),
        ],
        ids=["x-slope", "y-slope"],
    )
    def test_default_dual_box_past_the_largest_float_exits_one(
        self, tmp_path, capsys, phi, grid, axis
    ):
        # On a step of 1e-9, |phi| stays at or below 1e299, which the build
        # accepts; a secant slope of 1e308 still needs a dual bound of
        # 2^1024, past the largest float: mu's along x, or phi's along y.
        text = MINIMAL.replace("expr x^2 + y", f"expr {phi}").replace(*grid)
        spec = write_spec(tmp_path, text)
        assert main(["verify-all", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: InvalidArgument: {axis}: a secant slope of 1e+308")
        assert "give the dual grid" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", ["section", "flag"])
    def test_phi_past_the_checks_sums_exits_one(self, tmp_path, capsys, given):
        # With the x* grid given, in [xduals] or by --dual-range, no default
        # box refuses the slope of 1e308; phi's 1e308 would overflow the
        # checks' sums of phi values (the level range, mu + mu*, the
        # margin), so the build refuses it.
        text = MINIMAL.replace("expr x^2 + y", "expr 1e308 * x + y^2")
        argv = ["verify-all", "--out", str(tmp_path / "out")]
        if given == "section":
            text, line = text.replace("[phi]", "[xduals]\naxis -2 2 5\n\n[phi]"), 13
        else:
            argv, line = argv + ["--dual-range", "-2:2:5"], 10
        spec = write_spec(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--spec", str(spec)]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err == (
            f"error: InvalidArgument: line {line}: phi reaches 1e+308 in magnitude;"
            " the checks add up to 4 such terms, and that sum overflows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_phi_past_the_checks_sums_on_the_default_boxes_exits_one(self, tmp_path, capsys):
        # The slopes of 1e308 + x are small, so both default boxes exist;
        # mu + mu in the sum rule would overflow, so the build refuses phi.
        spec = write_spec(tmp_path, MINIMAL.replace("expr x^2 + y", "expr 1e308 + x + y^2"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify-all", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert not caught
        assert capsys.readouterr().err == (
            "error: InvalidArgument: line 10: phi reaches 1e+308 in magnitude;"
            " the checks add up to 4 such terms, and that sum overflows\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("phi", ["1e308 * x + y^2", "1e308 * x + y", "x^2 + 1e308 * y"])
    @pytest.mark.parametrize("command", ["marginal", "conjugate", "subdiff", "duality", "verify-all"])
    def test_phi_past_the_checks_sums_exits_one_for_every_command_that_builds_it(
        self, tmp_path, capsys, command, phi
    ):
        # No dual grid is given: the build refuses phi's 1e308 before any
        # command reads a level range, a default box or a slope.
        spec = write_spec(tmp_path, MINIMAL.replace("expr x^2 + y", f"expr {phi}"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert not caught
        assert capsys.readouterr().err == (
            "error: InvalidArgument: line 10: phi reaches 1e+308 in magnitude;"
            " the checks add up to 4 such terms, and that sum overflows\n"
        )
        assert not (tmp_path / "out").exists()

    def test_commands_that_never_build_phi_run_on_a_huge_phi(self, tmp_path, capsys):
        raster = FIXTURES / "box_left.raster"
        text = MINIMAL.replace("expr x^2 + y", "expr 1e308 * x + y^2") + (
            f"{LAGRANGIAN}\n[lambdas]\naxis 0 1 3\n\n[raster]\nfile {raster}\n"
        )
        spec = write_spec(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for command in ("lagrangian", "nearconvex"):
                assert main([command, "--spec", str(spec), "--out", str(tmp_path / command)]) == 0
        assert not caught
        assert "error" not in capsys.readouterr().err
        assert main(["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert "phi reaches 1e+308 in magnitude" in capsys.readouterr().err

    def test_refined_dual_box_past_the_largest_float_exits_one(self, tmp_path, capsys):
        # The default x* box of 1e307 * x fits at 5 nodes, but the
        # representation check refines it to 9, whose node offsets overflow;
        # the commands that never refine it still run.
        spec = write_spec(tmp_path, MINIMAL.replace("expr x^2 + y", "expr 1e307 * x + y^2"))
        for command in ("marginal", "conjugate", "subdiff", "duality"):
            assert main([command, "--spec", str(spec), "--out", str(tmp_path / command)]) == 0
        capsys.readouterr()
        assert main(["verify-all", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: InvalidArgument: the x* box [-1.12356e+307, 1.12356e+307] refined by 2"
            " for the representation check overflows; give a narrower x* box\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", ["section", "flag"])
    def test_given_dual_box_refined_past_the_largest_float_exits_one(
        self, tmp_path, capsys, given
    ):
        # A given x* box fits at 5 nodes and overflows refined to 9; the
        # refusal reads the same whichever way the box came.
        text = (FIXTURES / "abs_full.spec").read_text()
        argv = ["verify-all", "--out", str(tmp_path / "out")]
        if given == "section":
            text = text.replace("axis -2 2 17", "axis -2e307 2e307 5")
        else:
            argv += ["--dual-range", "-2e307:2e307:5"]
        spec = write_spec(tmp_path, text)
        assert main(argv + ["--spec", str(spec)]) == 1
        assert capsys.readouterr().err == (
            "error: InvalidArgument: the x* box [-2e+307, 2e+307] refined by 2"
            " for the representation check overflows; give a narrower x* box\n"
        )
        assert not (tmp_path / "out").exists()

    # (phi source, F source) of three problems with no finite mu value.
    DEGENERATE = {
        "empty-graph": ("expr y", "constraints 5 - y"),
        "phi-inf": ("expr y\nwhere 1", "full"),
        "one-neginf-phi": ("table -inf{ones}", "full"),
    }

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("case", DEGENERATE)
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_degenerate_problems_run_clean(self, tmp_path, capsys, command, case, dim):
        # Every command either runs or exits 1 with an error line; none
        # warns, as inf - inf or inf * 0 in a check would.
        phi, F = self.DEGENERATE[case]
        text, nodes = MINIMAL, 15
        if dim == 2:
            text, nodes = MINIMAL.replace("axis -1 1 5", "axis -1 1 3\naxis -1 1 3"), 27
        phi = phi.format(ones=" 1" * (nodes - 1))
        spec = write_spec(tmp_path, text.replace("expr x^2 + y", phi).replace("full", F))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command, "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert not caught
        err = capsys.readouterr().err
        assert (rc, err) == (0, "") or rc == 1 and err.startswith("error: ")

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

    # A fixture each command runs on, so only the flag can fail the run.
    RUNS_ON = {"lagrangian": "lagrangian_quadratic", "nearconvex": "nearconvex_suite"}

    @pytest.mark.parametrize(
        "flags",
        [["--dual-range", "garbage"], ["--dual-range", "-1:1:x"], ["--x0", "zz"], ["--x0", "0,0"]],
        ids=["dual-range-shape", "dual-range-count", "x0-text", "x0-dimension"],
    )
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_malformed_flag_exits_one_for_every_command(self, tmp_path, capsys, command, flags):
        spec = FIXTURES / f"{self.RUNS_ON.get(command, 'abs_full')}.spec"
        argv = [command, "--spec", str(spec), "--out"]
        assert main(argv + [str(tmp_path / "sound")]) in (0, 2)
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "flagged"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flags[0] in err
        assert not (tmp_path / "flagged").exists()

    def test_flag_is_reported_before_a_build_error(self, tmp_path, capsys):
        # A table phi cannot be refined: the spec parses, but building fails.
        spec = write_spec(tmp_path, MINIMAL.replace("expr x^2 + y", "table" + " 0" * 15))
        argv = ["marginal", "--spec", str(spec), "--out", str(tmp_path / "out"), "--refine", "2"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: UnsupportedShape")
        assert main(argv + ["--dual-range", "garbage"]) == 1
        assert capsys.readouterr().err.startswith("usage error: --dual-range")

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


def _spec_case(find, replace, tail=""):
    return MINIMAL.replace(find, replace) + tail


LAGRANGIAN = "\n[lagrangian]\nf y\ng y\n"


class TestRejections:
    """Every rejection path of the spec parser, `ProblemSpec.build` and the
    raster reader that no other test reaches: each input raises its
    `MarginlabError` subclass, and through `main` exits 1 with that class
    named and no traceback."""

    SPECS = {
        "duplicate name": (_spec_case("name tiny\n", "name tiny\nname again\n"),
                           SpecSyntaxError, "duplicate 'name'"),
        "duplicate expr": (_spec_case("expr x^2 + y", "expr x^2 + y\nexpr x"),
                           MissingSection, "duplicate 'expr'"),
        "duplicate full": (_spec_case("full\n", "full\nfull\n"),
                           MissingSection, "duplicate 'full'"),
        "duplicate f": (_spec_case("", "", "\n[lagrangian]\nf y\nf y\ng y\n"),
                        SpecSyntaxError, "duplicate 'f'"),
        "duplicate file": (_spec_case("", "", "\n[raster]\nfile a.raster\nfile b.raster\n"),
                           SpecSyntaxError, "duplicate 'file'"),
        "duplicate metadata key": (_spec_case("", "", "\n[metadata]\nqc1 true\nqc1 false\n"),
                                   SpecSyntaxError, "duplicate metadata key 'qc1'"),
        "conflicting F sources": (_spec_case("full\n", "full\nineq y\n"),
                                  MissingSection, "F already has a 'full' source"),
        "full with arguments": (_spec_case("full\n", "full now\n"),
                                SpecSyntaxError, "'full' takes no arguments"),
        "unknown metadata key": (_spec_case("", "", "\n[metadata]\nconcave true\n"),
                                 UnknownKey, "unknown metadata key 'concave'"),
        "task with extra tokens": (_spec_case("", "", "\n[tasks]\nmarginal conjugate\n"),
                                   SpecSyntaxError, "one task name per line"),
        "where with a table": (_spec_case("expr x^2 + y", "table" + " 0" * 15 + "\nwhere x"),
                               MissingSection, "'where' requires an 'expr' phi"),
        "table of the wrong size": (_spec_case("expr x^2 + y", "table 0 0 0"),
                                    SpecSyntaxError, "phi table has 3 values for 15"),
        "no F source": (_spec_case("full\n", ""), MissingSection, "section [F] with"),
        "wrong ineq count": (_spec_case("full\n", "ineq y\nineq y\n"),
                             SpecSyntaxError, "exactly 1 'ineq' lines"),
        "lagrangian without g": (_spec_case("", "", "\n[lagrangian]\nf y\n"),
                                 MissingSection, "needs one 'f' and at least one 'g'"),
        "lagrangian without f": (_spec_case("", "", "\n[lagrangian]\ng y\n"),
                                 MissingSection, "needs one 'f' and at least one 'g'"),
        "lambdas of the wrong dimension": (
            _spec_case("", "", LAGRANGIAN + "\n[lambdas]\naxis 0 1 3\naxis 0 1 3\n"),
            MissingSection, "[lambdas] is 2-dimensional"),
        "raster2 without raster": (_spec_case("", "", "\n[raster2]\nfile a.raster\n"),
                                   MissingSection, "[raster2] requires a [raster]"),
        "lagrangian task without sections": (_spec_case("", "", "\n[tasks]\nlagrangian\n"),
                                             MissingSection, "task 'lagrangian' needs"),
        "nearconvex task without raster": (_spec_case("", "", "\n[tasks]\nnearconvex\n"),
                                           MissingSection, "task 'nearconvex' needs"),
        "malformed section header": (_spec_case("[xgrid]", "[xgrid"),
                                     SpecSyntaxError, "malformed section header"),
    }

    RASTERS = {
        "non-numeric header bound": ("raster 1 3 0.0 one\n010\n", "bad raster header"),
        "wrong slab count": ("raster 3 2 2 2 0 1 0 1 0 1\n11\n11\n\n11\n11\n\n11\n11\n",
                             "raster body has 3 slab(s), expected 2"),
    }

    @staticmethod
    def assert_exits_one(argv, cls, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cls.__name__}: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", SPECS)
    def test_spec_rejection(self, case, tmp_path, capsys):
        text, cls, message = self.SPECS[case]
        with pytest.raises(cls) as exc:
            parse_spec(text)
        assert message in str(exc.value)
        spec = write_spec(tmp_path, text)
        argv = ["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")]
        self.assert_exits_one(argv, cls, message, capsys)

    def test_refine_zero_reaches_the_build(self, tmp_path, capsys):
        with pytest.raises(InvalidArgument, match="refinement factor must be >= 1"):
            parse_spec(MINIMAL).build(0)
        spec = write_spec(tmp_path, MINIMAL)
        argv = ["marginal", "--spec", str(spec), "--out", str(tmp_path / "out"), "--refine", "0"]
        self.assert_exits_one(argv, InvalidArgument, "refinement factor must be >= 1", capsys)

    @pytest.mark.parametrize("case", RASTERS)
    def test_raster_rejection(self, case, tmp_path, capsys):
        text, message = self.RASTERS[case]
        with pytest.raises(RasterError) as exc:
            load_raster(text)
        assert message in str(exc.value)
        (tmp_path / "bad.raster").write_text(text)
        spec = write_spec(tmp_path, MINIMAL + "\n[raster]\nfile bad.raster\n")
        argv = ["nearconvex", "--spec", str(spec), "--out", str(tmp_path / "out")]
        self.assert_exits_one(argv, RasterError, message, capsys)


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
        assert report["schema"] == cli.JSON_SCHEMA == "marginlab.json.v2"
        assert report["command"] == "marginal"
        assert "+inf" in report["mu"]
        assert "infeasible" in report["status"]

    def test_csv_schema_row(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["marginal", "--spec", str(spec), "--out", str(out)])
        first = (out / "report.csv").read_text().splitlines()[0]
        assert first == f"{cli.SCHEMA},marginal" == "marginlab.csv.v1,marginal"

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
    scipy loads only where a run solves an LP, which no 1-D or 2-D fixture
    command does.  Every public name is read by a library module, a demo
    or the benchmark, and the benchmark's tracer installs over the CLI."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def python(self, *args, **env):
        """A child interpreter on this checkout's src; `env` overrides the
        environment, and a None value removes the variable."""
        path = os.pathsep.join(filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, **env}
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env={k: v for k, v in env.items() if v is not None},
        )

    def test_library_import_leaves_the_cli_unloaded(self):
        done = self.python("-c", "import sys, marginlab; print('marginlab.cli' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_library_import_leaves_numpy_unloaded(self):
        done = self.python("-c", "import sys, marginlab; print('numpy' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    PUBLIC_NAMES = """
        ATTAINED Axis ConjugateRepresentationReport DEFAULT_ETAS DimensionMismatch
        DualityReport EpigraphReport EpsSubdifferentialReport ExprSyntaxError
        ExpressionError FastConjugateReport Grid GridMismatch GridNotAdapted
        GriddedFunction HPolyhedron HypothesisNotMet INF INFEASIBLE ImageReport Interval
        LagrangianIdentityReport LagrangianTable LipschitzReport MarginalResult
        MarginlabError MissingSection NearConvexityReport NonFiniteExpression NotANode
        NotFiniteAtPoint NotNodePreserving PointNotInSet ProbeLevel ProblemSpec
        RasterCheckReport RasterError RasterSet RestrictedConjugateReport
        SemicontinuityReport SetValuedMap SlaterReport SpecError SpecSyntaxError
        StructureReport SumRuleReport Tables TheoremReport UNBOUNDED UnknownKey
        UnknownVariable UnsupportedDimension UnsupportedShape Verdict ZeroNotOnGrid
        biconjugate biconjugate_minorant_check closure conj_subdiff_check conjugate
        conjugate_at conjugate_fast conjugate_representation_check convexity_check
        default_dual_grid domain_identity_check dual_value_1 dual_value_2 dump_raster
        epigraph_projection_check eps_normal_cone eps_subdifferential
        eps_subdifferential_check eta_solutions eval_on_grid ext_add_arrays ext_sum
        fast_conjugate_check feasible_point fenchel_young_check full_map
        graph_adapted_xgrid graph_support hull_raster image_preservation_check
        inf_convolution interior intersection_preservation_check is_empty
        is_int_nearly_convex lagrangian_dual lagrangian_identity_check
        lipschitz_estimate_map lipschitz_probe load_raster map_conjugate_at
        map_from_constraints map_from_inequalities map_from_points marginal
        marginal_structure_check marginal_subdiff_check max_dots_minus parse_spec
        partial_conjugate primal_value product_grid projection_map raster_check
        refine_raster render_value restricted_conjugate_check sampled_inf_convolution
        semicontinuity_probe slater_strong_duality_check strong_duality_check
        sum_rule_check support_function
    """.split()

    def test_public_names_resolve_to_their_submodules(self):
        import importlib

        import marginlab

        assert sorted(marginlab.__all__) == self.PUBLIC_NAMES
        assert dir(marginlab) == marginlab.__all__
        for name in marginlab.__all__:
            module = importlib.import_module(f"marginlab.{marginlab._ORIGIN[name]}")
            assert getattr(marginlab, name) is getattr(module, name), name

    def test_reach_guard_sees_every_form(self):
        source = (
            "from m import a\nb = 1\ndef c():\n    return d(e.f)\n"
            "W = ('g', 'h.i', 'not j')\n"
        )
        assert read_names(source) == {"d", "e", "f"}
        assert read_names(source, strings=True) == {"d", "e", "f", "g", "h", "i"}

    def test_every_public_name_is_reached(self):
        import marginlab

        root = self.SRC.parent
        assert (root / "perfbench" / "tracer.py").exists()  # the scan sees the benchmark
        assert unreached_public_names(root, marginlab.__all__) == []

    TRACER_INSTALLS = """\
import sys
import warnings
import marginlab.cli
sys.path.insert(0, {perfbench!r})
from tracer import Tracer
Tracer().install()
assert marginlab.cli.main.__wrapped__
assert sys.modules["marginlab.setmap"].map_conjugate_at.__wrapped__
"""

    def test_benchmark_tracer_installs(self):
        perfbench = str(self.SRC.parent / "perfbench")
        done = self.python("-c", self.TRACER_INSTALLS.format(perfbench=perfbench))
        assert done.returncode == 0, done.stderr

    FUNCTIONS_AFTER_CLI = """\
import types
import marginlab.cli
import marginlab
from marginlab import conjugate, marginal
for f in (marginlab.marginal, marginlab.conjugate, marginal, conjugate):
    assert isinstance(f, types.FunctionType), f
print(marginlab.conjugate.__module__, marginlab.marginal.__module__)
"""

    def test_marginal_and_conjugate_stay_functions_after_cli_import(self):
        done = self.python("-c", self.FUNCTIONS_AFTER_CLI)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["marginlab.conjugate", "marginlab.marginal"]

    BLAS_THREADS = """\
import os
import marginlab.cli
status = open("/proc/self/status").read()
threads = next(l.split()[1] for l in status.splitlines() if l.startswith("Threads:"))
print(os.environ["OPENBLAS_NUM_THREADS"], threads)
"""

    def blas_threads(self, value):
        """OPENBLAS_NUM_THREADS and the thread count of a child that imports
        the CLI, started with the variable at `value` (None: unset)."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if not Path("/proc/self/status").exists() or (os.cpu_count() or 1) == 1:
            pytest.skip("needs /proc and more than one core to count BLAS threads")
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
        done = self.python("-c", self.BLAS_THREADS, OPENBLAS_NUM_THREADS=value)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_cli_process_starts_one_blas_thread(self):
        assert self.blas_threads(None) == ["1", "1"]

    def test_explicit_blas_thread_count_wins(self):
        value, threads = self.blas_threads("2")
        assert value == "2" and int(threads) > 1

    def test_cli_imports_only_public_library_names(self):
        tree = ast.parse((self.SRC / "marginlab" / "cli.py").read_text(encoding="utf-8"))
        imported, private = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "marginlab"
            ):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    imported.append(f"{module}.{alias.name}")
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names if a.name.split(".")[0] == "marginlab"]
        for name in imported:
            if any(part.startswith("_") for part in name.lstrip(".").split(".")):
                private.append(name)
        assert len(imported) > 20  # the scan sees the library imports
        assert not private, private

    @staticmethod
    def is_small(node):
        return (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float)
            and 0 < abs(node.value) < 1e-6
        )

    def test_cli_holds_no_tolerance(self):
        # Verdict tolerances live with the checks (core.TOL): a numeric
        # literal this small in the command line would be a check of its own.
        tree = ast.parse((self.SRC / "marginlab" / "cli.py").read_text(encoding="utf-8"))
        small = [(node.lineno, node.value) for node in ast.walk(tree) if self.is_small(node)]
        assert not small, small

    def test_checks_name_their_tolerances(self):
        # The slacks live in core: TOL for verdicts, NODE_TOL for coordinates,
        # ROUNDING_TOL where two float routes meet.  A check module may name a
        # distinct slack as a module constant (polyhedra's _PARALLEL angle);
        # only conjugate's separability test, relative to |f|, keeps a literal.
        small = []
        for module in ("conjugate", "duality", "marginal", "nearconvex", "polyhedra", "setmap",
                       "subdiff", "tables"):
            tree = ast.parse((self.SRC / "marginlab" / f"{module}.py").read_text(encoding="utf-8"))
            for top in tree.body:
                if isinstance(top, ast.Assign) and isinstance(top.value, ast.Constant):
                    continue
                if (module, getattr(top, "name", None)) == ("conjugate", "_separable_parts"):
                    continue
                small += [(module, n.lineno, n.value) for n in ast.walk(top) if self.is_small(n)]
        assert not small, small

    def test_cli_binds_the_library_parser(self):
        import marginlab
        import marginlab.cli

        assert marginlab.cli.parse_spec is marginlab.parse_spec
        assert marginlab.cli.ProblemSpec is marginlab.ProblemSpec

    RUN_AND_REPORT_LOADED = """\
import sys, tempfile
from marginlab.cli import main
with tempfile.TemporaryDirectory() as out:
    for command, fixture in {runs!r}:
        rc = main([command, "--spec", fixture, "--out", out])
        assert rc in (0, 2), (command, fixture, rc)
print({module!r} in sys.modules)
"""

    def loaded_after(self, module, *runs):
        runs = [(command, str(FIXTURES / f"{name}.spec")) for command, name in runs]
        done = self.python("-c", self.RUN_AND_REPORT_LOADED.format(runs=runs, module=module))
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.splitlines()[-1]  # after the commands' own output
        assert loaded in ("True", "False")
        return loaded == "True"

    def test_one_dimensional_runs_leave_scipy_unloaded(self):
        assert not self.loaded_after(
            "scipy",
            ("verify-all", "lagrangian_quadratic"),
            ("lagrangian", "lagrangian_quadratic"),
            ("nearconvex", "nearconvex_suite"),
        )

    def test_two_dimensional_runs_leave_scipy_unloaded(self):
        assert not self.loaded_after(
            "scipy",
            ("verify-all", "separable_quadratic"),
            ("duality", "separable_quadratic"),
            ("subdiff", "separable_quadratic"),
        )

    @pytest.mark.parametrize("fixture", ["separable_quadratic", "lagrangian_quadratic"])
    def test_verify_all_leaves_numpy_ma_unloaded(self, fixture):
        # numpy 2's np.unique imports numpy.ma on its first call;
        # the checks take distinct values from core.sorted_distinct instead
        assert not self.loaded_after("numpy.ma", ("verify-all", fixture))

    POLYHEDRON_SCIPY = """\
import sys
import warnings
import numpy as np
from marginlab import HPolyhedron, feasible_point, is_empty
P = HPolyhedron(np.vstack([np.eye({dim}), -np.eye({dim})]), np.ones(2 * {dim}))
assert not is_empty(P)[0] and P.contains(feasible_point(P))
print("scipy" in sys.modules)
"""

    @pytest.mark.parametrize("dim,loaded", [(2, "False"), (3, "True")])
    def test_only_three_dimensional_polyhedra_load_scipy(self, dim, loaded):
        done = self.python("-c", self.POLYHEDRON_SCIPY.format(dim=dim))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == loaded

    SUM_RULE_SCIPY = """\
import sys
import warnings
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

    @pytest.mark.parametrize(
        "text, command, code",
        [
            (MINIMAL, "marginal", 0),
            (NONCONVEX_BUT_DECLARED, "verify-all", 2),
            ("name broken\n[phi]\nexpr x\n", "marginal", 1),
        ],
    )
    def test_module_entry_point_reports_through_a_pipe(self, tmp_path, text, command, code):
        spec, out = write_spec(tmp_path, text), tmp_path / "out"
        done = self.python("-m", "marginlab.cli", command, "--spec", str(spec), "--out", str(out))
        assert done.returncode == code, done.stderr
        wrote = (out / "report.json").exists() and (out / "report.csv").exists()
        if code == 1:
            assert "error: MissingSection" in done.stderr and not done.stdout and not wrote
        else:
            assert done.stdout.splitlines()[-1].startswith("  reports: ") and wrote

    FREEZE_COUNT = """\
import gc, sys
from marginlab import cli
main, frozen = cli.main, []
cli.main = lambda: frozen.append(gc.get_freeze_count()) or main()
sys.argv = ["marginlab", "marginal", "--spec", {spec!r}, "--out", {out!r}]
code = cli.process_main()
print(code, gc.isenabled(), frozen[0] > 10000)
"""

    def test_process_main_runs_the_command_on_a_frozen_heap(self, tmp_path):
        spec = write_spec(tmp_path, MINIMAL)
        done = self.python("-c", self.FREEZE_COUNT.format(spec=str(spec), out=str(tmp_path / "out")))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-3:] == ["0", "True", "True"]

    def test_main_leaves_the_collector_alone(self, tmp_path, capsys):
        # a process may call main many times (a batch, the tests): only
        # process_main, the whole work of a process, freezes the heap
        spec = write_spec(tmp_path, MINIMAL)
        for _ in range(2):
            assert main(["marginal", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
            assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_module_entry_point_has_no_runpy_warning(self):
        done = self.python("-m", "marginlab.cli")
        assert done.returncode == 1
        assert "usage error" in done.stderr
        assert "found in sys.modules" not in done.stderr
