"""Command-line entry point.

Subcommands: characterize, attack, trr-eval, mitigation-eval,
trace-gen, report.  A subcommand checks all of its input before anything
is written, so bad input writes nothing.  Every subcommand but `report`
then writes a manifest (the fully resolved configuration, seeds
included) next to its outputs; rerunning from a manifest reproduces them
byte for byte.  `report` only re-aggregates a results CSV and writes no
manifest.

Exit codes: 0 success, 1 configuration error or an OS error on a path
(`--config`, `--out`, `--input`), 2 simulation diagnostic.
"""

from __future__ import annotations

import argparse
import logging
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional

from .config import RunConfig, dumps_config, load_config
from .disturbance import COMRA, RH, SIMRA, ChipProfile
from .dram import SimraGroupMap, TimingParams
from .errors import ConfigError, PudsimError
from .harness import (Experiment, aggressors_for, default_cap, run_sweep, sweep_cell,
                      sweep_plan)
from .patterns import (MAX_TRACE_EVENTS, PATTERN_KINDS, CommandStream, generate,
                       keeps_order, repeated_events, trace_lines)
from .perf import default_variants, evaluate_mixes, make_mixes
from .profiles import load_profile
from .reports import REPORT_KINDS, emit_report, read_results, write_csv
from .rng import MAX_SEED
from .trreval import make_rh_setup, make_simra_setup, max_windows, run_bypass

log = logging.getLogger("pudsim")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pudsim")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="run configuration file")
        sp.add_argument("--seed", type=int, help="override the root seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--jobs", type=int, default=1,
                        help="kept for old scripts; must be 1")

    sp = sub.add_parser("characterize", help="first-flip sweep over a grid")
    common(sp)
    sp.add_argument("--kinds", default="rowhammer comra simra")

    sp = sub.add_parser("attack", help="single-pattern first-flip search")
    common(sp)
    sp.add_argument("--victim", type=int, required=True)

    sp = sub.add_parser("trr-eval", help="bypass schedule with/without TRR")
    common(sp)
    sp.add_argument("--technique", default="rh", choices=["rh", "simra"])
    sp.add_argument("--seeds", type=int, default=5)
    sp.add_argument("--windows", type=int,
                    help="refresh windows to simulate "
                         "(default: one tREFW, timing.t_refw // timing.t_refi)")

    sp = sub.add_parser("mitigation-eval", help="PRAC performance sweep")
    common(sp)
    sp.add_argument("--variant", help="report only this mitigation label")
    sp.add_argument("--period", help="sets perf.periods: the PuD periods to run, in ns")

    sp = sub.add_parser("trace-gen", help="emit a command trace for a pattern")
    common(sp)
    sp.add_argument("--hammers", type=int, default=100)

    sp = sub.add_parser("report", help="re-aggregate an existing results CSV")
    common(sp)
    sp.add_argument("--kind", required=True, choices=list(REPORT_KINDS))
    sp.add_argument("--input", required=True)
    return p


def _experiment(cfg: RunConfig, profile: ChipProfile, groups: SimraGroupMap) -> Experiment:
    """The config's chip on its group map, with its profile, under its conditions."""
    return Experiment(
        profile,
        groups,
        timing=cfg.timing(),
        seed=cfg.seed,
        temp_c=cfg.temp_c,
        dp_aggr=cfg.dp_aggr,
    )


def _check_temp(cfg: RunConfig, profile: ChipProfile, kinds: list[str]) -> None:
    """Refuse a `pattern.temp_c` at which the temperature factor of a
    disturbance kind the run deposits overflows.  `kinds` names patterns
    or TRR techniques; each deposits its own kind, `rh` when it hammers
    by activations."""
    for name in kinds:
        kind = {"comra": COMRA, "simra": SIMRA}.get(name, RH)
        try:
            profile.temp_factor(kind, cfg.temp_c)
        except OverflowError:
            raise ConfigError(f"pattern.temp_c = {cfg.temp_c:g} overflows the {kind} "
                              f"temperature factor of profile {profile.name}") from None


def _check_order(cfg: RunConfig, one: CommandStream, kind: str,
                 hammers: Optional[int]) -> None:
    """Refuse a pattern whose command times stop increasing within
    `hammers` hammers of `one`: `Bank.apply` would reject its replay, and
    a trace would list two commands at one time.  `hammers` of None is
    the first-flip search's budget, `default_cap`, set by the timing
    keys; when the stream keeps order over the default timing's budget,
    the message names those keys first."""
    source = "--hammers"
    if hammers is None:
        hammers = default_cap(cfg.timing())
        source = (f"timing.acts_per_refi = {cfg.acts_per_refi:g}, timing.t_refw = "
                  f"{cfg.t_refw:g} and timing.t_refi = {cfg.t_refi:g}")
    if keeps_order(one, hammers):
        return
    gaps = (f"pattern.act_gap_ns = {cfg.act_gap_ns:g}, "
            f"pattern.pre_act_gap_ns = {cfg.pre_act_gap_ns:g}")
    if source != "--hammers" and keeps_order(one, default_cap(TimingParams())):
        raise ConfigError(
            f"{source} set the search budget to {hammers:g} {kind} hammers, which puts two "
            f"commands at one time (pattern.t_aggon_ns = {cfg.t_aggon_ns:g}, {gaps})")
    raise ConfigError(
        f"pattern.t_aggon_ns = {cfg.t_aggon_ns:g} puts two commands of {hammers:g} {kind} "
        f"hammers at one time ({gaps}); the count comes from {source}")


# A subcommand's plan makes every check that can fail on its input and
# writes nothing.  It returns the config the run's manifest records (None
# for no manifest) and a call that does the work and returns the lines
# to print.
Plan = tuple[Optional[RunConfig], Callable[[], list]]


def plan_characterize(cfg: RunConfig, args) -> Plan:
    kinds = args.kinds.split()
    if not kinds:
        raise ConfigError("--kinds names no pattern kind")
    for kind in kinds:
        if kind not in PATTERN_KINDS:
            raise ConfigError(
                f"unknown pattern kind {kind!r}; expected one of {PATTERN_KINDS}"
            )
        if kinds.count(kind) > 1:
            raise ConfigError(f"--kinds names {kind!r} more than once")
    profile = load_profile(cfg.profile)
    _check_temp(cfg, profile, kinds)
    exp = _experiment(cfg, profile, cfg.groups())
    sweep, failures = sweep_plan(exp, kinds, cfg.pattern())
    for f in failures:
        log.warning("sweep cell failed: %s", f)
    if not sweep:
        raise ConfigError("--kinds leaves no pattern kind to search")
    for kind, (one, _) in sweep.items():
        _check_order(cfg, one, kind, None)
    return cfg, lambda: emit_report(run_sweep(exp, sweep, cfg.repeats), "characterize",
                                    cfg.out_dir)


def plan_attack(cfg: RunConfig, args) -> Plan:
    profile = load_profile(cfg.profile)
    _check_temp(cfg, profile, [cfg.pattern_kind])
    exp = _experiment(cfg, profile, cfg.groups())
    template = cfg.pattern()
    spec = replace(template, aggressors=aggressors_for(exp, template, args.victim))
    # a copy checks its timing here
    _check_order(cfg, generate(spec, exp.timing), spec.kind, None)

    def run() -> list:
        row = sweep_cell(exp, spec, args.victim, cfg.repeats)
        write_csv(Path(cfg.out_dir) / "attack.csv", ("pattern", "victim", "hcfirst", "seed"),
                  [{"victim": row["row"], **{k: row[k] for k in ("pattern", "hcfirst", "seed")}}])
        return [f"{cfg.pattern_kind} victim={args.victim} aggressors={spec.aggressors}: "
                f"HC_first={row['hcfirst']}"]
    return cfg, run


def plan_trr_eval(cfg: RunConfig, args) -> Plan:
    if args.windows is not None and args.windows < 1:
        raise ConfigError(f"--windows must be >= 1, got {args.windows}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if cfg.seed + args.seeds - 1 > MAX_SEED:
        raise ConfigError(f"--seeds {args.seeds} from seed {cfg.seed} runs past seed {MAX_SEED}")
    profile = load_profile(cfg.profile)
    t_on = cfg.pattern().t_on(cfg.timing())
    # every seed shares the group map, and the chip must hold the setup
    groups = cfg.groups()
    if args.technique == "simra":
        setup = make_simra_setup(groups, cfg.group_n)
    else:
        setup = make_rh_setup(groups.layout, pairs=1)
    if setup.kind not in profile.thresholds:
        raise ConfigError(f"profile {profile.name} has no thresholds for {setup.kind!r}")
    _check_temp(cfg, profile, [setup.kind])
    timing = cfg.timing()
    windows = args.windows if args.windows is not None else timing.refs_per_refw
    # the sampler counts the ACTs before each window's REF in int64, and
    # `run_bypass` keeps a few int64 values a window
    for most, what in (
            ((2**63 - 1) // cfg.acts_per_refi - 1, "the TRR sampler counts at timing.acts_per_refi"),
            (max_windows(timing, cfg.rows), f"a bank of {cfg.rows} rows holds in memory")):
        if windows > most:
            raise ConfigError(
                f"--windows must be at most {most}, got {windows}, the most {what}"
                if args.windows is not None
                else f"timing.t_refw // timing.t_refi gives {windows:.3g} refresh windows, "
                     f"more than the {most} {what}")

    def run() -> list:
        off, on = [], []
        for s in range(args.seeds):
            exp = _experiment(replace(cfg, seed=cfg.seed + s), profile, groups)
            for trr, rows in ((None, off), (cfg.trr(), on)):
                res = run_bypass(exp, setup, trr, windows, t_on)
                rows.append({"technique": setup.kind, "trr": int(trr is not None),
                             "seed": exp.seed, "bitflips": res.bitflips,
                             "trr_refreshes": res.trr_refreshes})
        # all TRR-off rows first, then all TRR-on rows
        return emit_report(off + on, "trr-eval", cfg.out_dir)
    return cfg, run


def plan_mitigation_eval(cfg: RunConfig, args) -> Plan:
    if args.period is not None:
        try:
            cfg = replace(cfg, perf_periods=args.period)
        except ConfigError as e:
            raise ConfigError(str(e).replace("perf.periods", "--period")) from None
    variants = default_variants()
    if args.variant is not None:
        if args.variant not in variants:
            raise ConfigError(
                f"unknown variant {args.variant!r}; expected one of {sorted(variants)}"
            )
        # the baseline is needed for the overhead, the rest is not
        variants = {k: v for k, v in variants.items() if k in ("none", args.variant)}

    def run() -> list:
        mixes = make_mixes(cfg.perf_mixes, cfg.seed)
        periods = cfg.periods()
        rows = evaluate_mixes(mixes, periods=periods, variants=variants,
                              target_reqs=cfg.perf_target_reqs)
        if args.variant is not None:
            rows = [r for r in rows if r["mitigation"] == args.variant]
        paths = emit_report(rows, "perf", cfg.out_dir)
        # one line per period: each variant's mean overhead over the mixes
        shown = ([args.variant] if args.variant is not None
                 else [k for k in variants if k != "none"])
        lines = []
        for period in periods:
            means = []
            for name in shown:
                pct = [r["overhead_pct"] for r in rows
                       if r["mitigation"] == name and r["period_ns"] == period]
                means.append(f"{name} {statistics.fmean(pct):.2f}%")
            lines.append(f"period {period:g} ns: mean overhead {'  '.join(means)}")
        return lines + paths
    return cfg, run


def plan_trace_gen(cfg: RunConfig, args) -> Plan:
    if args.hammers < 0:
        raise ConfigError(f"--hammers must be >= 0, got {args.hammers}")
    one = generate(cfg.pattern(), cfg.timing())
    most = MAX_TRACE_EVENTS // len(one.events)
    if args.hammers > most:
        raise ConfigError(f"--hammers must be at most {most}, got {args.hammers}: a trace "
                          f"holds at most {MAX_TRACE_EVENTS} commands")
    _check_order(cfg, one, cfg.pattern_kind, args.hammers)

    def run() -> list:
        path = Path(cfg.out_dir) / "trace.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(trace_lines(repeated_events(one, range(args.hammers))))
        return [path]
    return cfg, run


def plan_report(cfg: RunConfig, args) -> Plan:
    rows = read_results(args.input, args.kind)
    if not rows:
        raise ConfigError(f"--input {args.input}: no result rows to report")
    # a report runs no simulation, so no manifest describes it
    return None, lambda: emit_report(rows, args.kind, cfg.out_dir)


_PLANS = {
    "characterize": plan_characterize,
    "attack": plan_attack,
    "trr-eval": plan_trr_eval,
    "mitigation-eval": plan_mitigation_eval,
    "trace-gen": plan_trace_gen,
    "report": plan_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.jobs != 1:
            raise ConfigError("--jobs must be 1: every subcommand runs in one process")
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        recorded, run = _PLANS[args.command](cfg, args)
        # every check has passed: only now is anything written
        if recorded is not None:
            out = Path(recorded.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.cfg").write_text(dumps_config(recorded), encoding="utf-8")
        for line in run():
            print(line)
        return 0
    except (ConfigError, OSError) as e:
        log.error("%s", e)
        return 1
    except PudsimError as e:
        log.error("simulation diagnostic: %s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
