"""Report bytes of every fixture command against committed golden copies.

golden/<fixture>/<case>/ holds the report.json and report.csv written by
`marginlab <command> --spec fixtures/<fixture>.spec` for every fixture and
command that writes reports at --refine 1 (<case> is the command), by
verify-all at --refine 2 on every fixture (<case> is "verify-all-r2"), and
by verify-all at --refine 4 on separable_quadratic ("verify-all-r4").
separable_quadratic's are the refined 2-D runs, where the theorem checks
prune the most scores; --refine 4 is where the conjugate check's candidate
cutoff skips the most.
Reports must reproduce byte for byte: key order, row order, numbers and
detail strings.  A change that moves a byte bumps the schema string and
replaces the goldens on purpose.

The verify-all reports at --refine 1 are compared by test_acceptance's
test_11, which runs verify-all on every fixture anyway.  One more test
runs every golden case, those included, in a process whose numpy may
dispatch to no SIMD kernel beyond its x86-64-v2 baseline and whose
OpenBLAS runs its oldest (Prescott) kernels: no report byte may depend on
the CPU a run lands on.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import marginlab
from marginlab.cli import COMMANDS, main

from helpers import FIXTURES, GOLDEN, fixture_names, golden_mismatches

# What a fixture without the needed section gets instead of reports.
REFUSALS = {
    "lagrangian": "error: MissingSection: the lagrangian command needs a "
    "[lagrangian] section",
    "nearconvex": "error: MissingSection: the nearconvex command needs a "
    "[raster] section",
}


def _argv(fixture, case, out):
    command, _, refine = case.partition("-r")
    return [
        command,
        "--spec",
        str(FIXTURES / f"{fixture}.spec"),
        "--out",
        str(out),
        "--refine",
        refine or "1",
    ]


CASES = [
    (d.parent.name, d.name)
    for d in sorted(GOLDEN.glob("*/*"))
    if d.name != "verify-all"
]


def _golden_rc(fixture, case):
    """The exit code of the golden run: 2 if a row FAILs, else 0."""
    golden = json.loads((GOLDEN / fixture / case / "report.json").read_text())
    return 2 if any(v["status"] == "FAIL" for v in golden["verdicts"]) else 0


@pytest.mark.parametrize("fixture,case", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_report_bytes_match_golden(fixture, case, tmp_path, capsys):
    rc = main(_argv(fixture, case, tmp_path))
    assert rc == _golden_rc(fixture, case), capsys.readouterr().err
    assert golden_mismatches(tmp_path, fixture, case) == []


# Dispatch to none of numpy's kernels above x86-64-v2, and OpenBLAS's
# Prescott kernels.
OLDEST_KERNELS = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
}

RUN_CASES = """
import json, sys
from marginlab.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="CPU features and OpenBLAS core types named here are x86-64 ones",
)
def test_report_bytes_do_not_depend_on_cpu_kernels(tmp_path):
    cases = [(d.parent.name, d.name) for d in sorted(GOLDEN.glob("*/*"))]
    argvs = [_argv(f, c, tmp_path / f / c) for f, c in cases]
    env = dict(os.environ, **OLDEST_KERNELS)
    src = str(Path(marginlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", RUN_CASES, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [_golden_rc(f, c) for f, c in cases]
    assert [m for f, c in cases for m in golden_mismatches(tmp_path / f / c, f, c)] == []


def test_every_other_fixture_command_is_refused(tmp_path, capsys):
    refused = 0
    for fixture in fixture_names():
        for command in COMMANDS:
            if (GOLDEN / fixture / command).is_dir():
                continue
            out = tmp_path / fixture / command
            assert main(_argv(fixture, command, out)) == 1
            assert capsys.readouterr().err.strip() == REFUSALS[command]
            assert not out.exists()
            refused += 1
    # 8 fixtures x 7 commands: 42 write reports, 14 are refused.
    assert refused == 14
