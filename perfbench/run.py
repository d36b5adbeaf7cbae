"""marginlab benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses `src/` and `fixtures/` there
and writes only under `.perfbench/`, which it removes when done.

Workloads (closed loops: one call at a time, each started when the last
one returned; a pass is one fixed list of calls):

  verify-2d   `python -m marginlab.cli verify-all` in a fresh process on
              fixtures/separable_quadratic.spec and on a seeded 2-D problem
              whose objective couples x and y and whose map is not full,
              plus `marginal` on that problem for the oracle (3 calls).  The
              dense graph-support kernel and the only Farkas LPs run here.
  refine-1d   one fresh process calls marginlab.cli.main for verify-all on
              the seven 1-D fixtures at --refine 1, then 2, then 4 (21 calls):
              the refinement ladder; no Farkas LPs.  Its inputs are fixed, so
              the seed changes nothing here; a fixed order also keeps the
              process's peak RSS from depending on heap history.
  cli-small   `python -m marginlab.cli` in a fresh process per call, every
              applicable command on four seeded 1-D specs (22 calls): start-
              up, spec parsing, report writing, nearconvex, Lagrangian LP.

A run repeats passes while the next is predicted to end within --seconds
(at least one), each pass on new inputs, and reports the median pass.  The
seed is the only source of generated inputs.  Every call is checked: exit
code, traceback, report present and well formed, verdict statuses against
expected.json (fixtures) or "no FAIL" (generated specs, whose declared
hypotheses are all false), and the marginal report against a brute-force
oracle.  A timed-out call counts as failed.

--trace 1 runs one untraced and one traced pass on the same inputs,
checks that both write byte-identical reports and that the span self times
add up to the traced wall time, and prints the per-layer metrics.

Metrics are medians over a run's passes: wall_s (first call start to last
call end), cpu_s (user + system time of the pass's processes), setup_s
(median of SETUP_REPEATS fresh interpreters importing marginlab.cli and
building the first spec) and peak_rss_mb (largest of any process).
Failed calls are counted in the result's "failed" field.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402
from tracer import BOOKKEEPING, LP_SPAN, SPAN_NAMES  # noqa: E402

FIXTURES_1D = (
    "abs_diff_window",
    "abs_full",
    "diagonal_nonconvex",
    "f_not_lsc",
    "lagrangian_quadratic",
    "nearconvex_suite",
    "quadratic_halfline",
)
REFINES = (1, 2, 4)
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
CALL_CAP_S = {"verify-2d": 120.0, "refine-1d": 120.0, "cli-small": 30.0}
SELF_SUM_TOL = 0.05
TRACEBACK = b"Traceback (most recent call last)"


@dataclass(frozen=True)
class Call:
    """One marginlab invocation and what its report must say."""

    argv: tuple[str, ...]  # marginlab arguments, without --out
    outdir: Path
    expected: dict | None = None  # fixture verdict statuses, in order
    problem: specs.Problem | None = None  # generated input

    def full_argv(self, outdir: Path) -> list[str]:
        return list(self.argv) + ["--out", str(outdir)]

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    """What one execution of a Call did."""

    outdir: Path
    rc: int | None = None
    timed_out: bool = False
    traceback: bool = False
    cpu_s: float = 0.0
    start: float = 0.0
    end: float = 0.0
    errors: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    outcomes: list[Outcome]
    wall_s: float
    cpu_s: float
    rss_kb: int
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.pop("MARGINLAB_THREADS", None)  # library default: 1 thread
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    # --- inputs ---------------------------------------------------------------

    def make_pass(self, index: int) -> list[Call]:
        tag = f"p{index}"
        base = self.work / tag
        base.mkdir(parents=True)
        if self.workload == "refine-1d":
            return [self._fixture_call(f, r, base) for r in REFINES for f in FIXTURES_1D]
        if self.workload == "verify-2d":
            calls = [self._fixture_call("separable_quadratic", 1, base)]
            problems = [specs.coupled_2d(self.seed, tag)]
        else:
            calls = []
            problems = specs.cli_problems(self.seed, tag)
        for p in problems:
            spec = self._write_problem(p, base)
            for cmd in p.commands:
                calls.append(Call((cmd, "--spec", str(spec)), base / p.name / cmd, problem=p))
        return calls

    def _fixture_call(self, fixture: str, refine: int, base: Path) -> Call:
        spec = self.root / "fixtures" / f"{fixture}.spec"
        return Call(
            ("verify-all", "--spec", str(spec), "--refine", str(refine)),
            base / f"{fixture}-r{refine}",
            expected=self.expected[f"{fixture} --refine {refine}"],
        )

    def _write_problem(self, p: specs.Problem, base: Path) -> Path:
        from marginlab.cli import parse_spec

        errors = specs.round_trip_errors(p, parse_spec)
        if errors:
            raise SystemExit("generated spec does not round-trip: " + "; ".join(errors))
        d = base / p.name
        d.mkdir(parents=True)
        for fname, text in p.rasters.items():
            (d / fname).write_text(text, encoding="utf-8")
        path = d / f"{p.name}.spec"
        path.write_text(p.text, encoding="utf-8")
        return path

    # --- processes ------------------------------------------------------------

    def _spawn(self, cmd: list[str], log: Path, cap: float):
        """Run cmd to completion or timeout; returns (exit code, timed out, rusage).

        stdout and stderr go to log.out and log.err.  os.wait4 reaps the
        child, so its CPU time and peak RSS are its own.
        """
        timeout = min(cap, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, True, None
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
        fired = threading.Event()

        def kill():
            fired.set()
            proc.send_signal(signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if fired.is_set():
            return None, True, usage
        return proc.returncode, False, usage

    def setup_once(self, spec: Path) -> float:
        """Fresh interpreter until marginlab.cli is imported and spec built."""
        log = self.work / f"setup-{time.monotonic_ns()}"
        start = time.monotonic()
        rc, timed_out, _ = self._spawn(
            [sys.executable, str(HERE / "probe.py"), "setup", str(spec)], log, 60.0
        )
        if rc != 0:
            raise SystemExit(f"set-up probe failed (exit {rc}, timed out {timed_out})")
        done = json.loads(log.with_suffix(".out").read_text().strip().splitlines()[-1])
        return done["done"] - start

    def run_pass(self, calls: list[Call], traced: bool) -> PassResult:
        if self.workload == "refine-1d":
            return self._run_batch(calls, traced)
        spans, counts, outcomes, peak = [], {}, [], 0
        for i, c in enumerate(calls):
            c.outdir.parent.mkdir(parents=True, exist_ok=True)
            o = Outcome(c.outdir / "traced" if traced else c.outdir)
            log = c.outdir.parent / f"{c.outdir.name}{'-traced' if traced else ''}"
            trace = log.with_suffix(".trace")
            if traced:
                cmd = [sys.executable, str(HERE / "probe.py"), "cli", str(trace), "--"]
            else:
                cmd = [sys.executable, "-m", "marginlab.cli"]
            o.start = time.monotonic()
            o.rc, o.timed_out, usage = self._spawn(cmd + c.full_argv(o.outdir), log, CALL_CAP_S[self.workload])
            o.end = time.monotonic()
            if usage is not None:
                o.cpu_s = usage.ru_utime + usage.ru_stime
                peak = max(peak, usage.ru_maxrss)
            if not o.timed_out:
                o.traceback = TRACEBACK in log.with_suffix(".err").read_bytes()
            outcomes.append(o)
            if traced:
                spans.append((f"p{i}", None, "bench.process", o.start, o.end))
                if trace.exists():
                    _merge(spans, counts, json.loads(trace.read_text()), f"{i}:", f"p{i}")
        return PassResult(
            outcomes,
            wall_s=outcomes[-1].end - outcomes[0].start,
            cpu_s=sum(o.cpu_s for o in outcomes),
            rss_kb=peak,
            spans=spans,
            counts=counts,
        )

    def _run_batch(self, calls: list[Call], traced: bool) -> PassResult:
        base = calls[0].outdir.parent
        suffix = "-traced" if traced else ""
        jobs, result = base / f"jobs{suffix}.json", base / f"result{suffix}.json"
        trace = base / f"batch{suffix}.trace"
        outcomes = [Outcome(c.outdir / "traced" if traced else c.outdir) for c in calls]
        jobs.write_text(json.dumps([c.full_argv(o.outdir) for c, o in zip(calls, outcomes)]))
        cmd = [sys.executable, str(HERE / "probe.py"), "batch", str(jobs), str(result)]
        cmd.append(str(trace) if traced else "-")
        rc, timed_out, usage = self._spawn(cmd, base / f"batch{suffix}", CALL_CAP_S[self.workload])
        done = json.loads(result.read_text()) if rc == 0 and result.exists() else {"calls": [], "cpu_s": 0.0}
        for o, r in zip(outcomes, done["calls"]):
            o.rc, o.traceback, o.start, o.end = r["rc"], r["traceback"] is not None, r["start"], r["end"]
        for o in outcomes[len(done["calls"]):]:
            o.timed_out = timed_out
            o.errors.append(f"batch process ended before this call (exit {rc}, timed out {timed_out})")
        spans, counts = [], {}
        if traced and trace.exists():
            _merge(spans, counts, json.loads(trace.read_text()), "", None)
        ran = [o for o in outcomes if o.end > 0]
        return PassResult(
            outcomes,
            wall_s=(ran[-1].end - ran[0].start) if ran else 0.0,
            cpu_s=done["cpu_s"],
            rss_kb=usage.ru_maxrss if usage is not None else 0,
            spans=spans,
            counts=counts,
        )

    # --- checks ---------------------------------------------------------------

    def failures(self, calls: list[Call], result: PassResult) -> list[str]:
        """One line per failed call of the pass."""
        out = []
        for c, o in zip(calls, result.outcomes):
            errs = self.check(c, o)
            if errs:
                out.append(f"{c.label()}: {'; '.join(errs)}")
        return out

    def check(self, c: Call, o: Outcome) -> list[str]:
        """Reasons the call failed; empty when its output is correct."""
        errs = list(o.errors)
        if o.timed_out:
            return errs + ["timed out"]
        if o.traceback:
            errs.append("traceback on stderr")
        if o.rc not in (0, 2):
            return errs + [f"exit code {o.rc}"]
        command = c.argv[0]
        try:
            report = json.loads((o.outdir / "report.json").read_text(encoding="utf-8"))
            csv = (o.outdir / "report.csv").read_text(encoding="utf-8")
            got = {v["name"]: v["status"] for v in report["verdicts"]}
            if report["command"] != command or not csv.startswith(f"marginlab.csv.v1,{command}\n"):
                errs.append("report is for another command")
        except (OSError, ValueError, KeyError, TypeError) as e:
            return errs + [f"missing or malformed report: {e!r}"]
        if o.rc != (2 if "FAIL" in got.values() else 0):
            errs.append(f"exit code {o.rc} disagrees with the verdicts")
        if c.expected is not None:
            if list(got.items()) != list(c.expected.items()):
                errs.append(f"verdicts {got} differ from expected {c.expected}")
        else:
            failed = [n for n, s in got.items() if s == "FAIL"]
            if failed:
                errs.append(f"binding verdicts failed: {failed}")
            if report.get("problem") != c.problem.name:
                errs.append("report names another problem")
            if command == "marginal":
                errs += _oracle_errors(report, c.problem)
        return errs


def _merge(spans: list, counts: dict, trace: dict, prefix: str, root) -> None:
    for sid, parent, name, start, end in trace["spans"]:
        spans.append((f"{prefix}{sid}", root if parent is None else f"{prefix}{parent}", name, start, end))
    for k, v in trace["counts"].items():
        counts[k] = counts.get(k, 0) + v


def _oracle_errors(report: dict, p: specs.Problem) -> list[str]:
    def value(v):
        return {"+inf": np.inf, "-inf": -np.inf}[v] if isinstance(v, str) else float(v)

    mu = np.array([value(v) for v in report["mu"]])
    want = p.mu_oracle()
    same_inf = np.array_equal(np.isinf(mu), np.isinf(want)) and np.array_equal(mu[np.isinf(mu)], want[np.isinf(want)])
    fin = np.isfinite(want)
    if mu.shape != want.shape or not same_inf or not np.allclose(mu[fin], want[fin], rtol=1e-9, atol=1e-12):
        return [f"mu {mu.tolist()} disagrees with the brute-force oracle {want.tolist()}"]
    return []


def _self_times(spans: list) -> dict:
    """Span id -> its duration minus the durations of its child spans."""
    own = {sid: end - start for sid, parent, name, start, end in spans}
    for sid, parent, name, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list, counts: dict) -> dict:
    """calls / total_s / self_s per span name, plus the derived counters."""
    own = _self_times(spans)
    agg: dict = {}
    for sid, parent, name, start, end in spans:
        a = agg.setdefault(name, [0, 0.0, 0.0])
        a[0] += 1
        a[1] += end - start
        a[2] += own[sid]
    out = {}
    for name in SPAN_NAMES + ("bench.process", "cli.import", BOOKKEEPING):
        calls, total, self_s = agg.get(name, [0, 0.0, 0.0])
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    out[f"{LP_SPAN}.failed"] = (counts.get(f"{LP_SPAN}.failed", 0), "count")
    out["conjugate.max_dots_minus.flop"] = (counts.get("conjugate.max_dots_minus.flop", 0), "flop")
    out["conjugate.max_dots_minus.bytes"] = (counts.get("conjugate.max_dots_minus.bytes", 0), "B")
    q = counts.get("setmap.map_conjugate_at.queries", 0)
    out["setmap.map_conjugate_at.queries"] = (q, "count")
    out["setmap.map_conjugate_at.distinct_ratio"] = (
        counts.get("setmap.map_conjugate_at.distinct", 0) / q if q else 0.0,
        "ratio",
    )
    out["subdiff.halfspaces"] = (counts.get("subdiff.halfspaces", 0), "count")
    return out


def self_time_sum(spans: list) -> float:
    """Sum of every span's self time, leaving out a batch's one-off import,
    which happens before the timed calls."""
    own = _self_times(spans)
    return sum(
        own[sid]
        for sid, parent, name, start, end in spans
        if not (parent is None and name == "cli.import")
    )


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (OpenBLAS default: one per core)"),
        "MARGINLAB_THREADS": "unset (library default: 1)",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CALL_CAP_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # clean up on kill
    root = Path.cwd()
    for need in ("src/marginlab/cli.py", "fixtures/separable_quadratic.spec"):
        if not (root / need).is_file():
            print(f"not a marginlab checkout: {root / need} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(root / "src"))

    bench = Bench(root, args.workload, args.seed)
    try:
        return _run(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass


def _run(bench: Bench, args) -> int:
    print("environment " + json.dumps(environment()), flush=True)
    first = bench.make_pass(0)
    setup_spec = Path(first[0].argv[first[0].argv.index("--spec") + 1])
    setups = [bench.setup_once(setup_spec) for _ in range(SETUP_REPEATS)]

    failures: list[str] = []  # one per failed call
    problems: list[str] = []  # checks on the run as a whole
    if args.trace:
        plain = bench.run_pass(first, traced=False)
        traced = bench.run_pass(first, traced=True)
        failures += bench.failures(first, plain) + bench.failures(first, traced)
        for c, a, b in zip(first, plain.outcomes, traced.outcomes):
            for fname in ("report.json", "report.csv"):
                fa, fb = a.outdir / fname, b.outdir / fname
                if fa.exists() and fb.exists() and fa.read_bytes() != fb.read_bytes():
                    problems.append(f"{c.label()}: traced {fname} differs from untraced")
        self_sum = self_time_sum(traced.spans)
        if abs(self_sum - traced.wall_s) > SELF_SUM_TOL * traced.wall_s:
            problems.append(
                f"span self times sum to {self_sum!r} s, traced wall is {traced.wall_s!r} s"
            )
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(traced.spans, traced.counts).items()
        }
        metrics["trace.overhead_s"] = {"value": traced.wall_s - plain.wall_s, "unit": "s"}
        attempted = 2 * len(first)
    else:
        start = time.monotonic()
        calls, results = first, []
        while True:
            result = bench.run_pass(calls, traced=False)
            results.append(result)
            failures += bench.failures(calls, result)
            if time.monotonic() - start + result.wall_s > args.seconds:
                break
            calls = bench.make_pass(len(results))
        attempted = sum(len(r.outcomes) for r in results)
        metrics = {
            "wall_s": {"value": statistics.median(r.wall_s for r in results), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in results), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_kb for r in results) / 1024, "unit": "MB"},
        }
        print(f"passes {len(results)}: wall {[r.wall_s for r in results]} s; set-ups {setups} s")

    for line in failures + problems:
        print("FAILED " + line)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']!r} {m['unit']}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
