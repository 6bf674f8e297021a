"""pudsim benchmark: one run of one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pudsim source tree; the program is imported from
its `src/`.  A run starts one worker process, which imports pudsim once
and then serves calls of the workload's program (`pudsim.cli.main`, at
`--jobs 1`) one at a time: a closed loop with one caller.  The run and
all its children stay on one CPU.

`--trace 0` derives a few inputs from the seed and runs them in rounds
until `--seconds` have passed (at least three rounds).  Round 0 runs each
input from its config; every later round replays it from the
`manifest.cfg` round 0 wrote, and must write identical bytes.  After each
round, a fresh process imports pudsim and loads the config: that is
set-up.  Each time metric is a median over rounds (and over set-ups).

Times are host times, each scaled by the reference loop timed right
before and after it (`reference.py`): the host runs for seconds to
minutes at a time about 1.6 times slower than at other times, which no
statistic over one run can remove.

`--trace 1` runs the run's first input in rounds on two workers, one
untraced and one with the layer tracer installed, until `--seconds` have
passed (at least three rounds).  Every traced call must count exactly
the same work; per-layer times are medians over the traced calls.

Every call's outputs are checked.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import tracing
from reference import REFERENCE_S, STARTUP_S, startup
from workloads import LAYER_CALLS, WORKLOADS, Input, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
BUDGET_S = 170.0  # every run exits well within 180 s
MIN_ROUNDS = 3


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env(wl: Workload, run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH), env.get("PYTHONPATH")) if p
    )
    env.update(wl.env(run_dir))
    return env


@dataclass
class Call:
    """One call of the workload's program on one input."""

    inp: Input
    round: int
    args: list
    out: Path
    wall_s: float = float("nan")
    cpu_s: float = float("nan")
    errors: list = field(default_factory=list)
    log_tail: str = ""
    digests: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    trace: Optional[dict] = None
    ref_s: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def scale(self) -> float:
        return REFERENCE_S / self.ref_s

    @property
    def label(self) -> str:
        return f"{self.inp.label}/round{self.round}"


class Worker:
    """A child process that imports the program once and serves calls."""

    def __init__(self, wl: Workload, run_dir: Path, deadline: float, trace: bool = False):
        name = "worker-traced" if trace else "worker"
        self.stderr = open(run_dir / f"{name}.stderr", "wb")
        argv = [sys.executable, str(BENCH / "child.py"), "worker",
                "1" if trace else "0", wl.program]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(wl, run_dir), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, text=True, bufsize=1,
        )
        self.killer = threading.Timer(max(1.0, deadline - time.monotonic()), self.proc.kill)
        self.killer.start()
        self.peak_rss_mb = 0.0

    def call(self, args: list, trace: Optional[Path] = None) -> Optional[dict]:
        request = {"args": args, "trace": str(trace) if trace else None}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except (BrokenPipeError, OSError):
            return None
        return json.loads(line) if line else None

    def close(self, kill: bool = False) -> None:
        """Stop the worker (at once if `kill`) and wait until it has ended."""
        self.killer.cancel()
        self.killer.join()
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.stderr.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def run_call(wl: Workload, worker: Worker, inp: Input, rnd: int, first: Optional[Call],
             trace: Optional[Path] = None, tag: str = "") -> Call:
    """Call the program on `inp` and check what it wrote.  After round 0
    the input is replayed from round 0's manifest and must write the
    same bytes."""
    config = inp.config
    if first is not None and (first.out / "manifest.cfg").is_file():
        config = first.out / "manifest.cfg"
    out = inp.dir / f"round{rnd}{tag}"
    c = Call(inp, rnd, wl.args(config, out), out)
    reply = worker.call(c.args, trace)
    if reply is None:
        c.errors.append("the worker exited without replying (killed if out of time)")
        return c
    c.wall_s, c.cpu_s, c.log_tail = reply["wall_s"], reply["cpu_s"], reply["log_tail"]
    c.ref_s = reply["ref_s"]
    c.errors.extend(reply["errors"])
    if not c.ok:
        return c
    c.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.glob("*.csv"))}
    try:
        c.stats, errors = wl.check(out)
    except (OSError, KeyError, ValueError) as e:
        errors = [f"unreadable output: {type(e).__name__}: {e}"]
    c.errors.extend(errors)
    if first is not None and first.ok and c.digests != first.digests:
        c.errors.append("replay from manifest.cfg wrote different bytes")
    if trace is not None and c.ok:
        c.trace = json.loads(trace.read_text())
    return c


def single(wl: Workload, inp: Input, run_dir: Path, deadline: float) -> Call:
    """One call of `inp` on a worker of its own."""
    worker = Worker(wl, run_dir, deadline)
    try:
        return run_call(wl, worker, inp, 0, None)
    finally:
        worker.close(kill=True)


@dataclass
class Setup:
    """Set-up in a fresh process: seconds from spawn until pudsim is
    imported and the config loaded, and of the import alone."""

    seconds: float = float("nan")
    import_s: float = float("nan")
    ref_s: float = float("nan")  # interpreter start-up around it
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def scale(self) -> float:
        return STARTUP_S / self.ref_s


def setup_probe(wl: Workload, inp: Input, run_dir: Path, k: int, deadline: float) -> Setup:
    stamp = run_dir / f"setup{k}.stamp"
    argv = [sys.executable, str(BENCH / "child.py"), "setup", str(stamp),
            wl.program, str(inp.config)]
    env = child_env(wl, run_dir)
    before = startup(env, ROOT)
    t0 = time.monotonic()
    try:
        r = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return Setup(error="set-up: out of time")
    if r.returncode != 0:
        tail = r.stderr.strip().splitlines()[-1:] or [""]
        return Setup(error=f"set-up: exit code {r.returncode}: {tail[0]}")
    done, import_s = map(float, stamp.read_text().split())
    return Setup(done - t0, import_s, (before + startup(env, ROOT)) / 2)


# ---------------------------------------------------------------------------


def environment(args) -> dict:
    def git(*cmd):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                               text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    dirty = git("status", "--porcelain") if in_repo else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(dirty) if dirty is not None else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def preflight() -> Optional[str]:
    """Import pudsim from this tree once (which also writes its bytecode
    cache, so the first timed set-up does not pay for compiling)."""
    if not (ROOT / "src" / "pudsim" / "__init__.py").is_file():
        return f"no pudsim source tree at {ROOT / 'src'}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, "-c", "import pudsim, pudsim.cli; print(pudsim.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if r.returncode != 0:
        return f"cannot import pudsim: {r.stderr.strip().splitlines()[-1:]}"
    if not Path(r.stdout.strip()).resolve().is_relative_to(ROOT / "src"):
        return f"pudsim imported from {r.stdout.strip()}, not from this tree"
    return None


def record_of(c: Call) -> dict:
    return {
        "input": c.inp.label,
        "round": c.round,
        "seed": c.inp.seed,
        "args": c.args,
        "wall_s": c.wall_s,
        "cpu_s": c.cpu_s,
        "ref_s": c.ref_s,
        "records": c.inp.records,
        "errors": c.errors,
        "log_tail": c.log_tail,
        "csv_sha256": c.digests,
        "stats": c.stats,
    }


def median_scaled(items, attr: str) -> float:
    """Median of `attr` over the successful items, each scaled to the
    reference speed (nan if none succeeded)."""
    xs = [getattr(x, attr) * x.scale for x in items if x.ok]
    return statistics.median(xs) if xs else float("nan")


def more_rounds(rounds: int, started: float, stop: float) -> bool:
    """Whether another round, as long as the last one, ends before `stop`."""
    now = time.monotonic()
    return rounds < MIN_ROUNDS or now + (now - started) / rounds <= stop


def timed_run(wl: Workload, args, run_dir: Path, stop: float, deadline: float, units: dict):
    """The run's inputs in rounds until `stop`, a set-up probe after
    each round."""
    inputs = [wl.prepare(run_dir, args.seed, i) for i in range(wl.inputs())]
    calls: list[Call] = []
    setups: list[Setup] = []
    worker = Worker(wl, run_dir, deadline)
    try:
        started, rounds = time.monotonic(), 0
        while more_rounds(rounds, started, stop) and time.monotonic() < deadline - 30:
            for k, inp in enumerate(inputs):
                calls.append(run_call(wl, worker, inp, rounds,
                                      calls[k] if rounds else None))
            setups.append(setup_probe(wl, inputs[0], run_dir, rounds, deadline))
            rounds += 1
    finally:
        worker.close(kill=not all(c.ok for c in calls))
    errors = [x.error for x in setups if x.error]
    by_input = [[c for c in calls if c.inp is inp] for inp in inputs]
    work = [median_scaled(cs, "wall_s") for cs in by_input]
    cpu = [median_scaled(cs, "cpu_s") for cs in by_input]
    setup_s = median_scaled(setups, "seconds")
    records = sum(inp.records for inp in inputs)
    metrics = {
        "wall_s": setup_s + statistics.fmean(work),
        "setup_s": setup_s,
        "results_per_s": records / sum(work),
        "cpu_s": statistics.fmean(cpu),
        "peak_rss_mb": worker.peak_rss_mb,
    }
    if any(v != v for v in metrics.values()):  # nothing succeeded somewhere
        metrics = {k: 0.0 if v != v else v for k, v in metrics.items()}
        errors.append("no successful call of some input, or no successful set-up")
    raw = statistics.median(c.wall_s for c in calls if c.ok) if any(c.ok for c in calls) else 0
    notes = {
        "wall_s": f"set-up + mean over {len(inputs)} inputs of the median of "
                  f"{rounds} rounds: " + ", ".join(f"{w:.4g}" for w in work)
                  + f"; unscaled median call {raw:.4g} s",
        "setup_s": f"median of {len(setups)}; unscaled "
                   + ", ".join(f"{x.seconds:.4g}" for x in setups),
    }
    return calls, setups, metrics, notes, errors


def scale_layer(metrics: dict, units: dict, factor: float) -> dict:
    """Per-layer values scaled to the reference speed, by unit."""
    by_unit = {"s": factor, "ms": factor, "1/s": 1.0 / factor}
    return {k: v * by_unit.get(units[k], 1.0) for k, v in metrics.items()}


def traced_run(wl: Workload, args, run_dir: Path, stop: float, deadline: float, units: dict):
    """The run's first input, over and over, on an untraced and a traced
    worker in turn, with a set-up probe after each round."""
    inp = wl.prepare(run_dir, args.seed, 0)
    plain: list[Call] = []
    traced: list[Call] = []
    setups: list[Setup] = []
    workers = []
    try:
        workers.append(Worker(wl, run_dir, deadline))
        workers.append(Worker(wl, run_dir, deadline, trace=True))
        started, rounds = time.monotonic(), 0
        while more_rounds(rounds, started, stop) and time.monotonic() < deadline - 45:
            first = plain[0] if plain else None
            plain.append(run_call(wl, workers[0], inp, rounds, first))
            traced.append(run_call(wl, workers[1], inp, rounds, plain[0], tag="-traced",
                                   trace=run_dir / f"trace{rounds}.json"))
            setups.append(setup_probe(wl, inp, run_dir, rounds, deadline))
            rounds += 1
            if not (plain[-1].ok and traced[-1].ok):
                break
    finally:
        for w in workers:
            w.close(kill=True)
    errors = [x.error for x in setups if x.error]
    calls = plain + traced
    notes: dict[str, str] = {}
    if not all(c.ok for c in calls) or errors:
        return calls, setups, dict.fromkeys(units, 0.0), notes, errors

    per_call = [tracing.layer_metrics(c.trace) for c in traced]
    counts = [{k: v for k, v in m.items() if units[k] == "count"} for m, _, _ in per_call]
    if any(c != counts[0] for c in counts):
        errors.append("traced calls of the same input counted different work")
    scaled = [scale_layer(m, units, c.scale) for (m, _, _), c in zip(per_call, traced)]
    metrics = {name: statistics.median(m[name] for m in scaled) for name in scaled[0]}
    metrics.update(counts[0])
    metrics["cli.import_s"] = median_scaled(setups, "import_s")
    metrics["trace.overhead"] = median_scaled(traced, "wall_s") / median_scaled(plain, "wall_s")
    _, hc_sum, _ = per_call[0]

    # traffic: every claimed layer is exercised, every other one is idle
    for name in LAYER_CALLS:
        busy = metrics[name] > 0
        if busy != (name in wl.active):
            errors.append(f"{name} = {metrics[name]} on {wl.name}")
    if "harness.probe.calls" in wl.active and not metrics["harness.hammers_replayed"] > hc_sum:
        errors.append(f"hammers replayed {metrics['harness.hammers_replayed']} "
                      f"<= sum of HC_first {hc_sum}: the search did not replay ops")

    shares = {layer: statistics.median(s[layer] for _, _, s in per_call)
              for layer in per_call[0][2]}
    total = sum(shares.values())
    notes["layer shares"] = ", ".join(
        f"{layer} {v / total:.1%}" for layer, v in sorted(shares.items(), key=lambda kv: -kv[1])
        if total > 0 and v > 0
    )
    notes["calls"] = f"{len(plain)} untraced, {len(traced)} traced"
    return calls, setups, metrics, notes, errors


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU (the highest-numbered
    one allowed), so that the reference loop runs on the CPU it
    calibrates and no process migrates mid-measurement."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (for the smoke test)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    t_start = time.monotonic()
    deadline = t_start + BUDGET_S
    pin_to_one_cpu()

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    env = environment(args)
    wl = WORKLOADS[args.workload](tiny=args.tiny)
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    run = traced_run if args.trace else timed_run
    units = metric_units("per_layer" if args.trace else "end_to_end")
    calls, setups, metrics, notes, errors = run(wl, args, run_dir, t_start + args.seconds,
                                                deadline, units)
    if set(metrics) != set(units):
        errors.append("metrics out of step with BENCHMARK.json: "
                      + ", ".join(sorted(set(metrics) ^ set(units))))

    attempted = sum(c.inp.records for c in calls)
    failed = sum(c.inp.records for c in calls if not c.ok)
    for c in calls:
        errors.extend(f"{c.label}: {e}" for e in c.errors)
    correct = not errors and failed == 0 and attempted > 0
    inputs = {c.inp.label: c.inp for c in calls}
    record = {
        "environment": env,
        "inputs": {label: {"seed": i.seed, "config": i.config.read_text(encoding="utf-8")}
                   for label, i in inputs.items()},
        "calls": [record_of(c) for c in calls],
        "setups": [vars(x) for x in setups],  # unscaled
        "metrics": metrics,
        "errors": errors,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"pudsim benchmark: workload {wl.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {len(calls)} calls")
    print("environment: " + json.dumps(env))
    for c in calls:
        print(f"  {c.label}: seed {c.inp.seed} wall {c.wall_s:.3f} s "
              f"cpu {c.cpu_s:.3f} s records {c.inp.records} "
              + ("ok" if c.ok else "FAILED: " + "; ".join(c.errors)
                 + (f" [log: {c.log_tail}]" if c.log_tail else "")))
    if calls and calls[0].stats:
        print("simulated statistics: " + json.dumps(calls[0].stats))
    for name, unit in units.items():
        note = notes.get(name, "")
        print(f"  {name} = {metrics.get(name, 0.0):.6g} {unit}" + (f"  ({note})" if note else ""))
    for key in ("layer shares", "calls"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} records failed)")
    for e in errors:
        print(f"ERROR: {e}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
