"""PRAC security fuzz driven through pudsim's public calls.

The same property as acceptance criterion 6: under weighted PRAC with
the back-off threshold from `secure_rdt`, random streams of row, copy
and group operations never flip a bit.  Each stream interleaves
`PracState.on_op` with `accumulate` on the op's `HammerEffect`, and
services every back-off with `PracState.rfm` plus a `RefreshEffect`.

Usage: pracfuzz.py --config PARAMS --out DIR

PARAMS is a `key = value` file with `seed`, `streams`, `ops` and `rows`.
The program writes `manifest.cfg` (the resolved parameters), one row
per stream to `fuzz.csv` and the totals to `fuzz_summary.csv`.  Calls go
through module attributes (`disturbance.accumulate`, not a local
import) so that the traced run sees them.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from pudsim import disturbance, dram, keyval, mitigation, rng

RH, COMRA, SIMRA = disturbance.RH, disturbance.COMRA, disturbance.SIMRA
# lowest first-flip counts of the shipped modules, as in criterion 6
MINIMA = {RH: 4123.0, COMRA: 447.0, SIMRA: 26.0}
WEIGHTS = {RH: 1, COMRA: 10, SIMRA: 200}
EFFECT_KIND = {RH: dram.KIND_RH, COMRA: dram.KIND_COMRA, SIMRA: dram.KIND_SIMRA}
PARAMS = ("seed", "streams", "ops", "rows")


def load_params(path: str) -> dict[str, int]:
    values = keyval.load(path)
    missing = [k for k in PARAMS if k not in values]
    extra = sorted(set(values) - set(PARAMS))
    if missing or extra:
        raise ValueError(f"{path}: missing {missing}, unknown {extra}")
    return {k: int(values[k]) for k in PARAMS}


def flat_profile() -> disturbance.ChipProfile:
    """Zero-variance profile with no data/temperature/t_AggON scaling."""
    return disturbance.ChipProfile(
        name="flat",
        thresholds={k: (v, v) for k, v in MINIMA.items()},
        temp_step={RH: 1.0, COMRA: 1.0, SIMRA: 1.0},
        t_on_anchors={},
        dp_mult={},
    )


def run_stream(seed, stream, ops, rows, rdt, thresholds, profile) -> dict:
    draw = rng.substream(seed, f"fuzz.{stream}")
    prac = mitigation.PracState(
        mitigation.PracConfig(mode="po", rdt=rdt, weights=dict(WEIGHTS), weighted=True),
        rows=rows,
        t_rc=49.5,
    )
    state = disturbance.DisturbanceState(rows=rows)
    hot = int(draw.integers(1, rows // 2)) * 2  # a favourite target to dogpile
    rfms = 0
    for i in range(ops):
        kind = (RH, COMRA, SIMRA)[draw.integers(0, 3)]
        if draw.random() < 0.7:  # focused phase
            if kind == SIMRA:
                base = hot // 32 * 32
                opened = tuple(range(base, base + 32))
            elif kind == COMRA:
                opened = (hot, hot + 1)
            else:
                opened = (hot,)
        else:  # scatter phase
            if kind == RH:
                opened = (int(draw.integers(0, rows)),)
            elif kind == COMRA:
                a = int(draw.integers(0, rows - 1))
                opened = (a, a + 1)
            else:
                n = int(2 ** draw.integers(1, 6))
                base = int(draw.integers(0, max(1, rows // n))) * n
                opened = tuple(range(base, base + n))
        prac.on_op(kind, opened)
        effect = dram.HammerEffect(
            kind=EFFECT_KIND[kind], aggressors=opened, t_on=36.0, time=i
        )
        disturbance.accumulate(state, [effect], thresholds, profile)
        while prac.backoff_pending:
            refreshed = prac.rfm()
            refresh = dram.RefreshEffect(rows=tuple(refreshed), time=i)
            disturbance.accumulate(state, [refresh], thresholds, profile)
            rfms += 1
    return {
        "stream": stream,
        "ops": ops,
        "backoffs": prac.backoffs,
        "rfms": rfms,
        "flips": len(state.flips),
    }


def run(params: dict[str, int], out: Path) -> None:
    rows = params["rows"]
    profile = flat_profile()
    theta = {
        k: np.full(rows, v * profile.units_per_hammer(k)) for k, v in MINIMA.items()
    }
    thresholds = disturbance.ThresholdSet(
        theta=theta, weak_bit=np.zeros(rows, dtype=np.int64), seed=params["seed"]
    )
    theta_eff = min(v * profile.units_per_hammer(k) for k, v in MINIMA.items())
    rdt = mitigation.secure_rdt(theta_eff, dict(WEIGHTS))
    results = [
        run_stream(params["seed"], s, params["ops"], rows, rdt, thresholds, profile)
        for s in range(params["streams"])
    ]
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.cfg").write_text(
        keyval.dumps({k: str(v) for k, v in params.items()}), encoding="utf-8"
    )
    _write(out / "fuzz.csv", ("stream", "ops", "backoffs", "rfms", "flips"), results)
    summary = {
        "rdt": rdt,
        "theta_eff_min": theta_eff,
        "streams": len(results),
        **{k: sum(r[k] for r in results) for k in ("backoffs", "rfms", "flips")},
    }
    _write(out / "fuzz_summary.csv", tuple(summary), [summary])


def _write(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pracfuzz")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    run(load_params(args.config), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
