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
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import RunConfig, dumps_config, load_config
from .dram import SimraGroupMap, SubarrayLayout
from .disturbance import sample_thresholds
from .errors import ConfigError, PudsimError
from .harness import NO_FLIP, Experiment, SweepGrid, find_hcfirst, run_sweep
from .patterns import PatternSpec, events_to_trace
from .perf import default_variants, evaluate_mixes, make_mixes
from .profiles import load_profile
from .reports import REPORT_KINDS, emit_report, write_csv
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
                        help="worker processes (trr-eval only)")

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
    sp.add_argument("--windows", type=int, default=8204,
                    help="refresh windows to simulate (one tREFW = 8204)")

    sp = sub.add_parser("mitigation-eval", help="PRAC performance sweep")
    common(sp)
    sp.add_argument("--variant", help="report only this mitigation label")
    sp.add_argument("--period", type=float, help="report only this PuD period")

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
        cfg = RunConfig(**{**_asdict(cfg), "seed": args.seed})
    if args.out is not None:
        cfg = RunConfig(**{**_asdict(cfg), "out_dir": args.out})
    return cfg


def _asdict(cfg: RunConfig) -> dict:
    return {f: getattr(cfg, f) for f in cfg.__dataclass_fields__}


def _write_manifest(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.cfg"
    path.write_text(dumps_config(cfg), encoding="utf-8")
    return path


def _chip(cfg: RunConfig):
    profile = load_profile(cfg.profile)
    sub_rows = max(cfg.group_n * cfg.group_stride, cfg.rows // cfg.subarrays)
    layout = SubarrayLayout.uniform(cfg.rows, sub_rows)
    groups = SimraGroupMap.aligned_blocks(layout, cfg.group_n, cfg.group_stride)
    return profile, layout, groups


def _pattern(cfg: RunConfig, hammers: int = 1) -> PatternSpec:
    kind = cfg.pattern
    start = cfg.rows // 2
    if kind == "comra":
        aggr = (start, start + 1)
    elif kind == "simra":
        aggr = (start, start)
    else:
        aggr = (start - 1, start + 1)
    return PatternSpec(
        kind=kind,
        aggressors=aggr,
        hammers=hammers,
        t_aggon=cfg.t_aggon_ns,
        act_gap=cfg.act_gap_ns,
        pre_act_gap=cfg.pre_act_gap_ns,
        n=cfg.group_n if kind == "simra" else 2,
    )


def cmd_characterize(args) -> int:
    cfg = _load(args)
    _write_manifest(cfg)
    profile, layout, groups = _chip(cfg)
    grid = SweepGrid(
        kinds=tuple(args.kinds.split()),
        ns=(cfg.group_n,),
        dp_aggrs=(cfg.dp_aggr,),
        temps=(cfg.temp_c,),
        t_aggons=(cfg.t_aggon_ns,),
        gaps=(cfg.act_gap_ns,),
    )
    result = run_sweep(
        grid, profile, layout, groups, seed=cfg.seed,
        search=cfg.search(), timing=cfg.timing(),
    )
    for f in result.failures:
        log.warning("sweep cell failed: %s", f)
    paths = emit_report(result.rows, "characterize", cfg.out_dir)
    for p in paths:
        print(p)
    return 0


def cmd_attack(args) -> int:
    cfg = _load(args)
    _write_manifest(cfg)
    profile, layout, groups = _chip(cfg)
    if not 0 <= args.victim < layout.rows:
        raise ConfigError(f"victim {args.victim} outside bank of {layout.rows} rows")
    exp = Experiment(
        profile, layout, groups, timing=cfg.timing(), seed=cfg.seed,
        temp_c=cfg.temp_c, dp_aggr=cfg.dp_aggr,
    )
    hc = find_hcfirst(_pattern(cfg), args.victim, exp, cfg.search())
    row = {
        "pattern": cfg.pattern,
        "victim": args.victim,
        "hcfirst": NO_FLIP if hc is None else hc,
        "seed": cfg.seed,
    }
    write_csv(Path(cfg.out_dir) / "attack.csv",
              ("pattern", "victim", "hcfirst", "seed"), [row])
    print(f"{cfg.pattern} victim={args.victim}: "
          + ("no flip within budget" if hc is None else f"HC_first={hc}"))
    return 0


def _bypass_rows(task) -> tuple[dict, dict]:
    """One seed's rows, TRR off then on, over one chip and threshold set."""
    cfg_d, technique, seed, windows = task
    cfg = RunConfig(**cfg_d)
    profile, layout, groups = _chip(cfg)
    thresholds = sample_thresholds(profile, layout, seed,
                                   row_bits=cfg.row_bytes * 8)
    if technique == "simra":
        setup = make_simra_setup(groups, cfg.group_n, count=4)
    else:
        setup = make_rh_setup(pairs=4)
    rows = []
    for trr_on in (False, True):
        trr = cfg.trr() if trr_on else None
        res = run_bypass(setup, profile, thresholds, layout, trr,
                         seed=seed, windows=windows, timing=cfg.timing())
        rows.append({
            "technique": technique,
            "trr": int(trr_on),
            "seed": seed,
            "bitflips": res.bitflips,
            "trr_refreshes": res.trr_refreshes,
        })
    return rows[0], rows[1]


def cmd_trr_eval(args) -> int:
    cfg = _load(args)
    _write_manifest(cfg)
    tasks = [
        (_asdict(cfg), args.technique, cfg.seed + s, args.windows)
        for s in range(args.seeds)
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            per_seed = list(pool.map(_bypass_rows, tasks))
    else:
        per_seed = [_bypass_rows(t) for t in tasks]
    # all TRR-off rows first, then all TRR-on rows
    rows = [off for off, _ in per_seed] + [on for _, on in per_seed]
    paths = emit_report(rows, "trr-eval", cfg.out_dir)
    for p in paths:
        print(p)
    return 0


def cmd_mitigation_eval(args) -> int:
    cfg = _load(args)
    _write_manifest(cfg)
    mixes = make_mixes(cfg.perf_mixes, cfg.seed)
    periods = (args.period,) if args.period else cfg.periods()
    variants = default_variants()
    if args.variant:
        if args.variant not in variants:
            raise ConfigError(
                f"unknown variant {args.variant!r}; expected one of {sorted(variants)}"
            )
        # the baseline is needed for the overhead, the rest is not
        variants = {k: v for k, v in variants.items() if k in ("none", args.variant)}
    rows = evaluate_mixes(mixes, periods=periods, variants=variants,
                          target_reqs=cfg.perf_target_reqs)
    if args.variant:
        rows = [r for r in rows if r["mitigation"] == args.variant]
    paths = emit_report(rows, "perf", cfg.out_dir)
    for r in rows[:10]:
        print(f"mix {r['mix_id']} period {r['period_ns']}ns {r['mitigation']}: "
              f"WS={r['weighted_speedup']} overhead={r['overhead_pct']}%")
    for p in paths:
        print(p)
    return 0


def cmd_trace_gen(args) -> int:
    cfg = _load(args)
    _write_manifest(cfg)
    spec = _pattern(cfg, hammers=args.hammers)
    from .harness import _generate

    stream = _generate(spec, cfg.timing())
    path = Path(cfg.out_dir) / "trace.txt"
    path.write_text(events_to_trace(stream.events), encoding="utf-8")
    print(path)
    return 0


def cmd_report(args) -> int:
    import csv as _csv

    cfg = _load(args)
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        rows = [dict(r) for r in _csv.DictReader(fh)]
    for r in rows:  # counts come back as strings from CSV
        for k, v in r.items():
            try:
                r[k] = int(v)
            except (TypeError, ValueError):
                pass
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
        if args.jobs != 1 and args.command != "trr-eval":
            raise ConfigError("--jobs is only supported by trr-eval")
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError) as e:
        log.error("%s", e)
        return 1
    except PudsimError as e:
        log.error("simulation diagnostic: %s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
