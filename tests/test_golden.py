"""Report bytes of every fixture command against committed golden copies.

golden/<fixture>/<case>/ holds the report.json and report.csv written by
`marginlab <command> --spec fixtures/<fixture>.spec` for every fixture and
command that writes reports at --refine 1 (<case> is the command), and by
verify-all at --refine 2 on every fixture (<case> is "verify-all-r2");
separable_quadratic's is the one refined 2-D run, where the theorem checks
prune the most scores.
Reports must reproduce byte for byte: key order, row order, numbers and
detail strings.  A change that moves a byte bumps the schema string and
replaces the goldens on purpose.

The verify-all reports at --refine 1 are compared by test_acceptance's
test_11, which runs verify-all on every fixture anyway.
"""

import json

import pytest

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


@pytest.mark.parametrize("fixture,case", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_report_bytes_match_golden(fixture, case, tmp_path, capsys):
    golden = json.loads((GOLDEN / fixture / case / "report.json").read_text())
    failed = any(v["status"] == "FAIL" for v in golden["verdicts"])
    rc = main(_argv(fixture, case, tmp_path))
    assert rc == (2 if failed else 0), capsys.readouterr().err
    assert golden_mismatches(tmp_path, fixture, case) == []


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
