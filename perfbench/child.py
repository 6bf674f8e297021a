"""The benchmark's child processes.

Usage:
    child.py setup STAMP PROGRAM CONFIG
    child.py worker TRACE PROGRAM

PROGRAM is `pudsim` (calls go to `pudsim.cli.main`, exactly as the
`pudsim` console script passes its arguments) or `pracfuzz` (calls go
to `pracfuzz.main`).

`setup` measures set-up in a fresh process: it imports the program,
loads CONFIG, writes "<CLOCK_MONOTONIC time> <import seconds>" to STAMP
and exits, so the caller can time set-up from its own spawn time.

`worker` imports the program once, then serves calls: each line on
standard input is a JSON object `{"args": [...], "trace": PATH or null}`
whose args go to PROGRAM's `main`.  Each reply, one JSON line on
standard output, holds the call's wall and CPU seconds, the reference
loop's time around the call, and what went wrong.  Whatever the program
itself prints goes to standard error.  With TRACE = 1 the layer tracer
is installed once, and the trace of each call alone is written to its
PATH.
"""

import gc
import json
import logging
import os
import sys
import time
import traceback


def load_program(program):
    if program == "pudsim":
        import pudsim.cli as entry
        from pudsim.config import load_config as load
    else:
        import pracfuzz as entry
        load = entry.load_params
    return entry, load


def setup(stamp, program, config) -> int:
    t0 = time.perf_counter()
    _, load = load_program(program)
    import_s = time.perf_counter() - t0
    load(config)
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(f"{time.monotonic()!r} {import_s!r}")
    return 0


class Captured(logging.Handler):
    """Log records of the current call, level and message."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append((record.levelno, record.getMessage()))


def call(entry, args) -> dict:
    import reference

    errors = []
    rc = None
    gc.collect()
    before = reference.sample()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = entry.main(args)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        lines = traceback.format_exc().strip().splitlines()
        errors.append("traceback: " + lines[-1])
        traceback.print_exc()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if rc not in (0, None):
        errors.append(f"exit code {rc}")
    ref = (before + reference.sample()) / 2
    return {"wall_s": wall, "cpu_s": cpu, "errors": errors, "ref_s": ref}


def worker(trace, program) -> int:
    # replies go to the original standard output; the program's own
    # prints go to standard error
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8", buffering=1)
    os.dup2(2, 1)
    entry, _ = load_program(program)
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    captured = Captured()
    logging.getLogger("pudsim").addHandler(captured)
    for line in sys.stdin:
        request = json.loads(line)
        captured.records.clear()
        if tracer is not None:
            tracer.reset()
        reply = call(entry, request["args"])
        if any("sweep cell failed" in msg for _, msg in captured.records):
            reply["errors"].append("a sweep cell failed")
        logged = [msg for level, msg in captured.records if level >= logging.WARNING]
        reply["log_tail"] = logged[-1] if logged else ""
        if tracer is not None and request.get("trace"):
            tracer.dump(request["trace"])
        replies.write(json.dumps(reply) + "\n")
    return 0


def main() -> int:
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        return setup(*rest)
    return worker(*rest)


if __name__ == "__main__":
    sys.exit(main())
