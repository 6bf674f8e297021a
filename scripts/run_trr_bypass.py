#!/usr/bin/env python3
"""Compare sampler-TRR effectiveness against double-sided hammering and
the group-activation bypass schedule over a full refresh window."""

import argparse
import sys

from pudsim.disturbance import sample_thresholds
from pudsim.dram import SimraGroupMap, SubarrayLayout
from pudsim.profiles import available_profiles, load_profile
from pudsim.reports import emit_report
from pudsim.trreval import TrrConfig, make_rh_setup, make_simra_setup, run_bypass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--profile", default="skhynix_a_8gb",
                    choices=available_profiles())
    ap.add_argument("--rows", type=int, default=8192)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--windows", type=int, default=8204,
                    help="refresh windows (8204 = one refresh period)")
    ap.add_argument("--sampler-size", type=int, default=450)
    ap.add_argument("--out", default="out/trr")
    args = ap.parse_args()

    profile = load_profile(args.profile)
    layout = SubarrayLayout.uniform(args.rows, args.rows // 8)
    groups = SimraGroupMap.aligned_blocks(layout, 32, 1)
    setups = {
        "rh": lambda: make_rh_setup(pairs=1),
        "simra": lambda: make_simra_setup(groups, 32, count=4),
    }
    rows = []
    for technique, setup_of in setups.items():
        for trr_on in (False, True):
            trr = TrrConfig(sampler_size=args.sampler_size) if trr_on else None
            for s in range(args.seeds):
                thresholds = sample_thresholds(profile, layout, seed=100 + s)
                res = run_bypass(setup_of(), profile, thresholds, layout, trr,
                                 seed=s, windows=args.windows)
                rows.append({
                    "technique": technique,
                    "trr": int(trr_on),
                    "seed": s,
                    "bitflips": res.bitflips,
                    "trr_refreshes": res.trr_refreshes,
                })
    for technique in setups:
        off = sum(r["bitflips"] for r in rows
                  if r["technique"] == technique and not r["trr"])
        on = sum(r["bitflips"] for r in rows
                 if r["technique"] == technique and r["trr"])
        red = 1.0 - on / off if off else 0.0
        print(f"{technique}: {off} flips TRR-off, {on} TRR-on "
              f"({red:.1%} reduction)")
    for path in emit_report(rows, "trr-eval", args.out):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
