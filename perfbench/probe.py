"""Child-process entry points of the benchmark.

    probe.py setup SPEC
        Import marginlab.cli, parse SPEC and build it, then print the
        monotonic clock reading at which that finished.
    probe.py cli TRACE -- ARGS...
        Run `marginlab ARGS...` with every layer traced; spans go to TRACE.
    probe.py batch JOBS RESULT TRACE
        Import marginlab.cli once, then call its main() for each argument
        list in the JSON file JOBS; per-call timings go to RESULT.  TRACE
        is a span file, or "-" for an untraced batch.

The parent puts the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def _setup(spec_path: str) -> int:
    import marginlab.cli as cli

    path = Path(spec_path)
    spec = cli.parse_spec(
        path.read_text(encoding="utf-8"),
        base_dir=path.resolve().parent,
        default_name=path.stem,
    )
    spec.build(1)
    print(json.dumps({"done": time.monotonic()}))
    return 0


def _traced_cli(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import marginlab.cli as cli
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_path)


def _batch(jobs_path: str, result_path: str, trace_path: str) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import marginlab.cli as cli
    if trace_path != "-":
        tracer.install()
    jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    calls = []
    for argv in jobs:
        start = time.monotonic()
        try:
            rc = cli.main(argv)
            tb = None
        except Exception:
            rc, tb = None, traceback.format_exc()
            print(tb, file=sys.stderr)
        calls.append({"rc": rc, "traceback": tb, "start": start, "end": time.monotonic()})
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    Path(result_path).write_text(
        json.dumps({"calls": calls, "cpu_s": cpu}),
        encoding="utf-8",
    )
    if trace_path != "-":
        tracer.dump(trace_path)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest[0])
    if mode == "cli":
        return _traced_cli(rest[0], rest[2:])
    if mode == "batch":
        return _batch(*rest)
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
