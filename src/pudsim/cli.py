"""Command-line entry point.

Subcommands: characterize, attack, trr-eval, mitigation-eval,
trace-gen, report.  Every run writes a manifest (the fully resolved
configuration, seeds included) next to its CSVs; rerunning from a
manifest reproduces the outputs byte for byte.

Exit codes: 0 success, 1 configuration error, 2 simulation diagnostic.
"""

from __future__ import annotations

import argparse
import logging
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .config import RunConfig, dumps_config, finite, load_config
from .disturbance import ChipProfile
from .dram import SimraGroupMap
from .errors import ConfigError, PudsimError
from .harness import Experiment, aggressors_for, run_sweep, sweep_cell
from .patterns import PATTERN_KINDS, PatternSpec, events_to_trace, generate
from .perf import default_variants, evaluate_mixes, make_mixes
from .profiles import load_profile
from .reports import REPORT_KINDS, emit_report, read_results, write_csv
from .trreval import make_rh_setup, make_simra_setup, run_bypass

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
    sp.add_argument("--period", help="report only this PuD period, in ns")

    sp = sub.add_parser("trace-gen", help="emit a command trace for a pattern")
    common(sp)
    sp.add_argument("--hammers", type=int, default=100)

    sp = sub.add_parser("report", help="re-aggregate an existing results CSV")
    common(sp)
    sp.add_argument("--kind", required=True, choices=list(REPORT_KINDS))
    sp.add_argument("--input", required=True)
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def _write_manifest(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.cfg"
    path.write_text(dumps_config(cfg), encoding="utf-8")
    return path


def _experiment(cfg: RunConfig, profile: ChipProfile,
                groups: Optional[SimraGroupMap] = None) -> Experiment:
    """The config's chip, with its profile, under its conditions, on
    `groups` if the caller has built the config's group map already."""
    groups = groups or cfg.groups()
    return Experiment(
        profile,
        groups.layout,
        groups,
        timing=cfg.timing(),
        seed=cfg.seed,
        temp_c=cfg.temp_c,
        dp_aggr=cfg.dp_aggr,
    )


def _pattern(cfg: RunConfig, hammers: int = 1) -> PatternSpec:
    """The config's pattern, placed at the middle row for `trace-gen`;
    `characterize` and `attack` place it against each victim, and
    `trr-eval` takes its on-time."""
    mid = cfg.rows // 2
    placed = {"comra": (mid, mid + 1), "simra": (mid, mid)}
    return PatternSpec(
        kind=cfg.pattern,
        aggressors=placed.get(cfg.pattern, (mid - 1, mid + 1)),
        hammers=hammers,
        t_aggon=cfg.t_aggon_ns,
        act_gap=cfg.act_gap_ns,
        pre_act_gap=cfg.pre_act_gap_ns,
        n=cfg.group_n,
    )


def cmd_characterize(args) -> int:
    cfg = _load(args)
    kinds = args.kinds.split()
    if not kinds:
        raise ConfigError("--kinds names no pattern kind")
    for kind in kinds:
        if kind not in PATTERN_KINDS:
            raise ConfigError(
                f"unknown pattern kind {kind!r}; expected one of {PATTERN_KINDS}"
            )
    exp = _experiment(cfg, load_profile(cfg.profile))
    template = _pattern(cfg)
    _write_manifest(cfg)
    rows, failures = run_sweep(exp, kinds, template, cfg.repeats)
    for f in failures:
        log.warning("sweep cell failed: %s", f)
    paths = emit_report(rows, "characterize", cfg.out_dir)
    for p in paths:
        print(p)
    return 0


def cmd_attack(args) -> int:
    cfg = _load(args)
    exp = _experiment(cfg, load_profile(cfg.profile))
    template = _pattern(cfg)
    spec = replace(template, aggressors=aggressors_for(exp, template, args.victim))
    generate(spec, exp.timing)  # a copy checks its timing here
    _write_manifest(cfg)
    row = sweep_cell(exp, spec, args.victim, cfg.repeats)
    write_csv(Path(cfg.out_dir) / "attack.csv", ("pattern", "victim", "hcfirst", "seed"),
              [{"victim": row["row"], **{k: row[k] for k in ("pattern", "hcfirst", "seed")}}])
    print(f"{cfg.pattern} victim={args.victim} aggressors={spec.aggressors}: "
          f"HC_first={row['hcfirst']}")
    return 0


def cmd_trr_eval(args) -> int:
    cfg = _load(args)
    if args.windows is not None and args.windows < 1:
        raise ConfigError(f"--windows must be >= 1, got {args.windows}")
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    profile = load_profile(cfg.profile)
    t_on = _pattern(cfg).t_on(cfg.timing())
    # every seed shares the group map, and the chip must hold the setup
    groups = cfg.groups()
    if args.technique == "simra":
        setup = make_simra_setup(groups, cfg.group_n, count=4)
    else:
        setup = make_rh_setup(pairs=1)
    _write_manifest(cfg)
    windows = args.windows if args.windows is not None else cfg.timing().refs_per_refw
    off, on = [], []
    for s in range(args.seeds):
        exp = _experiment(replace(cfg, seed=cfg.seed + s), profile, groups)
        for trr, rows in ((None, off), (cfg.trr(), on)):
            res = run_bypass(exp, setup, trr, windows, t_on)
            rows.append({"technique": setup.technique, "trr": int(trr is not None),
                         "seed": exp.seed, "bitflips": res.bitflips,
                         "trr_refreshes": res.trr_refreshes})
    # all TRR-off rows first, then all TRR-on rows
    paths = emit_report(off + on, "trr-eval", cfg.out_dir)
    for p in paths:
        print(p)
    return 0


def cmd_mitigation_eval(args) -> int:
    cfg = _load(args)
    try:
        period = None if args.period is None else finite(args.period)
    except ValueError as e:
        raise ConfigError(f"--period: {e}") from None
    if period is not None and period <= 0:
        raise ConfigError(f"--period must be positive, got {period:g}")
    variants = default_variants()
    if args.variant:
        if args.variant not in variants:
            raise ConfigError(
                f"unknown variant {args.variant!r}; expected one of {sorted(variants)}"
            )
        # the baseline is needed for the overhead, the rest is not
        variants = {k: v for k, v in variants.items() if k in ("none", args.variant)}
    _write_manifest(cfg)
    mixes = make_mixes(cfg.perf_mixes, cfg.seed)
    periods = cfg.periods() if period is None else (period,)
    rows = evaluate_mixes(mixes, periods=periods, variants=variants,
                          target_reqs=cfg.perf_target_reqs)
    if args.variant:
        rows = [r for r in rows if r["mitigation"] == args.variant]
    paths = emit_report(rows, "perf", cfg.out_dir)
    # one line per period: each variant's mean overhead over the mixes
    shown = [args.variant] if args.variant else [k for k in variants if k != "none"]
    for period in periods:
        means = []
        for name in shown:
            pct = [r["overhead_pct"] for r in rows
                   if r["mitigation"] == name and r["period_ns"] == period]
            means.append(f"{name} {statistics.fmean(pct):.2f}%")
        print(f"period {period:g} ns: mean overhead {'  '.join(means)}")
    for p in paths:
        print(p)
    return 0


def cmd_trace_gen(args) -> int:
    cfg = _load(args)
    stream = generate(_pattern(cfg, hammers=args.hammers), cfg.timing())
    _write_manifest(cfg)
    path = Path(cfg.out_dir) / "trace.txt"
    path.write_text(events_to_trace(stream.events), encoding="utf-8")
    print(path)
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    rows = read_results(args.input, args.kind)
    paths = emit_report(rows, args.kind, cfg.out_dir)
    for p in paths:
        print(p)
    return 0


_COMMANDS = {
    "characterize": cmd_characterize,
    "attack": cmd_attack,
    "trr-eval": cmd_trr_eval,
    "mitigation-eval": cmd_mitigation_eval,
    "trace-gen": cmd_trace_gen,
    "report": cmd_report,
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
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as e:
        log.error("%s", e)
        return 1
    except PudsimError as e:
        log.error("simulation diagnostic: %s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
