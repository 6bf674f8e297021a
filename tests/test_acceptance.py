"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single verdict line so a full run reads as a
checklist.  Budgets are generous on purpose: every check finishes well
inside its limit on a laptop-class machine.
"""

import csv
import time

import numpy as np

from pudsim.cli import main
from pudsim.disturbance import (
    COMRA,
    RH,
    SIMRA,
    ChipProfile,
    DisturbanceState,
    ThresholdSet,
    accumulate,
    contribution,
    sample_thresholds,
)
from pudsim.dram import (
    HammerEffect,
    KIND_COMRA,
    KIND_RH,
    KIND_SIMRA,
    RefreshEffect,
    SimraGroupMap,
    SubarrayLayout,
)
from pudsim.harness import NO_FLIP, Experiment, find_hcfirst, run_sweep, sweep_plan
from pudsim.mitigation import PracConfig, PracState, secure_rdt, weight
from pudsim.patterns import PatternSpec
from pudsim.perf import evaluate_mixes, make_mixes
from pudsim.profiles import DEFAULT_PROFILE, available_profiles, load_profile
from pudsim.rng import substream
from pudsim.trreval import TrrConfig, make_rh_setup, make_simra_setup, run_bypass

from methodology import (
    DataBank,
    discover_simra_groups,
    discover_subarrays,
    majority_overwrite,
    random_layout_and_groups,
    run_combined,
)


def _verdict(num: str, desc: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num}: {desc}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def _flat(thresholds: dict) -> ChipProfile:
    """Zero-variance profile with no data/temperature/t_AggON scaling."""
    return ChipProfile(
        name="flat",
        thresholds={k: (v, v) for k, v in thresholds.items()},
        temp_step={RH: 1.0, COMRA: 1.0, SIMRA: 1.0},
        t_on_anchors={},
        dp_mult={},
    )


def test_criterion_01_weighted_counting():
    lowest = {RH: 4000.0, COMRA: 400.0, SIMRA: 20.0}
    ok = (
        weight(SIMRA, lowest) == 200
        and weight(COMRA, lowest) == 10
        and weight(RH, lowest) == 1
    )
    _verdict("1", "weighted counting 200/10/1 from 4K/400/20", ok)


def test_criterion_02_trr_bypass_reproduction():
    profile = load_profile(DEFAULT_PROFILE)
    layout = SubarrayLayout.uniform(8192, 1024)
    groups = SimraGroupMap.aligned_blocks(layout, 32, 1)
    totals = {}
    for technique, setup_of in (
        ("rh", lambda: make_rh_setup(layout, pairs=1)),
        ("simra", lambda: make_simra_setup(groups, 32)),
    ):
        off = on = 0
        for s in range(5):
            exp = Experiment(profile, groups, seed=100 + s)
            t_on = exp.timing.t_ras
            off += run_bypass(exp, setup_of(), None, 8204, t_on).bitflips
            on += run_bypass(exp, setup_of(), TrrConfig(sampler_size=450), 8204, t_on).bitflips
        totals[technique] = (off, on)
    rh_off, rh_on = totals["rh"]
    si_off, si_on = totals["simra"]
    rh_red = 1.0 - rh_on / rh_off if rh_off else 0.0
    si_red = 1.0 - si_on / si_off if si_off else 0.0
    ok = rh_off > 0 and si_off > 0 and rh_red >= 0.95 and si_red <= 0.30
    _verdict(
        "2",
        "TRR cuts double-sided hammering >=95% but group bypass <=30%",
        ok,
        f"rh {rh_red:.1%}, group {si_red:.1%}",
    )


def test_criterion_02b_trr_bypass_from_the_cli(tmp_path):
    cfg = tmp_path / "big.cfg"
    cfg.write_text("geometry.rows = 8192\nlayout.subarrays = 8\n")
    mean = {}
    for technique in ("rh", "simra"):
        out = tmp_path / technique
        assert main(["trr-eval", "--config", str(cfg), "--out", str(out),
                     "--technique", technique]) == 0
        with open(out / "trr_bypass_summary.csv", newline="") as fh:
            for r in csv.DictReader(fh):
                mean[(technique, r["trr"])] = float(r["mean_bitflips"])
    rh_off, rh_on = mean[("rh", "0")], mean[("rh", "1")]
    si_off, si_on = mean[("simra", "0")], mean[("simra", "1")]
    ok = rh_off > 0 and rh_on == 0 and si_off > 0 and si_on >= 0.7 * si_off
    _verdict(
        "2b",
        "trr-eval on 8192 rows: TRR stops double-sided hammering, not the group bypass",
        ok,
        f"rh {rh_off} -> {rh_on}, group {si_off} -> {si_on} mean flips",
    )


def test_criterion_03_bisection_equals_linear_scan():
    layout = SubarrayLayout.uniform(64, 64)
    spec = PatternSpec(kind="rowhammer", aggressors=(31, 33))
    ok = True
    details = []
    for theta_units in (10, 500, 10_000, 100_000):
        profile = _flat({RH: theta_units / 2.0})  # double-sided: 2 units/hammer
        thresholds = sample_thresholds(profile, layout, seed=1)
        exp = Experiment(profile, SimraGroupMap(layout, ()), seed=1)
        got = find_hcfirst(spec, 32, exp, repeats=2)
        # independent route: deposit one double-sided hammer at a time
        state = DisturbanceState(rows=64)
        oracle = None
        for m in range(1, 200_001):
            flips = accumulate(
                state,
                [HammerEffect(kind=KIND_RH, aggressors=(31, 33), t_on=36.0, time=m)],
                thresholds,
                profile,
            )
            if flips:
                oracle = m
                break
        ok &= got is not None and got == oracle
        details.append(f"{theta_units}: {got}/{oracle}")
    _verdict("3", "bisection equals the linear-scan oracle", ok, "; ".join(details))


def test_criterion_04_reverse_engineering_oracle():
    profile = load_profile(DEFAULT_PROFILE)
    ok = True
    for seed in range(100):
        layout, groups = random_layout_and_groups(512, seed=seed)
        bank = DataBank(Experiment(profile, groups, seed=seed).fresh_bank())
        found = discover_subarrays(bank)
        ok &= (found.extents == layout.extents
               and discover_simra_groups(bank, found).groups == groups.groups)
        if not ok:
            break
    _verdict("4", "100 random layouts and group maps recovered exactly", ok)


def test_criterion_05_majority_oracle():
    rng = substream(13, "acceptance.majority")
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 33))
        rows = [rng.integers(0, 2**64, dtype=np.uint64).tobytes() for _ in range(n)]
        if rng.random() < 0.2:  # force guaranteed tie columns
            rows = rows[: n // 2 * 2]
            rows[: len(rows) // 2] = [b"\xff" * 8] * (len(rows) // 2)
            rows[len(rows) // 2 :] = [b"\x00" * 8] * (len(rows) // 2)
        tie = int(rng.integers(0, 2))
        got = majority_overwrite(rows, tie_bias=tie)
        bits = np.unpackbits(np.frombuffer(b"".join(rows), dtype=np.uint8))
        bits = bits.reshape(len(rows), 64)
        ones = bits.sum(axis=0)
        expect = np.where(
            ones * 2 == len(rows), tie, (ones * 2 > len(rows)).astype(int)
        )
        ok &= got == np.packbits(expect.astype(np.uint8)).tobytes()
        if not ok:
            break
    _verdict("5", "10^4 majority groups match the per-bit oracle", ok)


def test_criterion_06_prac_security_property():
    minima = {RH: 4123.0, COMRA: 447.0, SIMRA: 26.0}
    profile = _flat(minima)
    rows = 128
    theta = {
        k: np.full(rows, v * profile.units_per_hammer(k)) for k, v in minima.items()
    }
    thresholds = ThresholdSet(
        theta=theta, weak_bit=np.zeros(rows, dtype=np.int64), seed=0
    )
    weights = {RH: 1, COMRA: 10, SIMRA: 200}
    theta_eff = min(v * profile.units_per_hammer(k) for k, v in minima.items())
    rdt = secure_rdt(theta_eff, weights)
    effect_kind = {RH: KIND_RH, COMRA: KIND_COMRA, SIMRA: KIND_SIMRA}
    flips = backoffs = 0
    for stream in range(1000):
        rng = substream(99, f"acceptance.fuzz.{stream}")
        prac = PracState(
            PracConfig(mode="po", rdt=rdt, weights=dict(weights), weighted=True),
            rows=rows,
            t_rc=49.5,
        )
        state = DisturbanceState(rows=rows)
        hot = int(rng.integers(1, rows // 2)) * 2  # a favourite target to dogpile
        for i in range(400):
            kind = (RH, COMRA, SIMRA)[rng.integers(0, 3)]
            if rng.random() < 0.7:  # focused phase
                if kind == SIMRA:
                    base = hot // 32 * 32
                    opened = tuple(range(base, base + 32))
                elif kind == COMRA:
                    opened = (hot, hot + 1)
                else:
                    opened = (hot,)
            else:  # scatter phase
                if kind == RH:
                    opened = (int(rng.integers(0, rows)),)
                elif kind == COMRA:
                    a = int(rng.integers(0, rows - 1))
                    opened = (a, a + 1)
                else:
                    n = int(2 ** rng.integers(1, 6))
                    base = int(rng.integers(0, max(1, rows // n))) * n
                    opened = tuple(range(base, base + n))
            prac.on_op(kind, opened)
            accumulate(
                state,
                [
                    HammerEffect(
                        kind=effect_kind[kind], aggressors=opened, t_on=36.0, time=i
                    )
                ],
                thresholds,
                profile,
            )
            while prac.backoff_pending:
                refreshed = prac.rfm()
                accumulate(
                    state,
                    [RefreshEffect(rows=tuple(refreshed), time=i)],
                    thresholds,
                    profile,
                )
                backoffs += 1
        flips += len(state.flips)
    ok = flips == 0 and backoffs > 0 and rdt == 2277
    _verdict(
        "6",
        "1000 fuzzed streams under weighted PRAC flip nothing",
        ok,
        f"rdt={rdt}, backoffs={backoffs}, flips={flips}",
    )


def test_criterion_07_prac_latency_model():
    rows = tuple(range(32))
    ao = PracState(PracConfig(mode="ao", rdt=10**6), rows=64, t_rc=49.5)
    po = PracState(PracConfig(mode="po", rdt=10**6), rows=64, t_rc=49.5)
    ok = (
        ao.on_op(SIMRA, rows) == 32 * 49.5
        and po.on_op(SIMRA, rows) == 49.5
    )
    _verdict("7", "AO group update blocks 32 x tRC, PO blocks tRC", ok)


def test_criterion_08_performance_ordering():
    periods = (125.0, 250.0, 1000.0, 4000.0, 16000.0)
    rows = evaluate_mixes(make_mixes(20, seed=5), periods=periods, target_reqs=2000)
    ok = True
    for m in range(20):
        for p in periods:
            by = {
                r["mitigation"]: r["overhead_pct"]
                for r in rows
                if r["mix_id"] == m and r["period_ns"] == p
            }
            ok &= by["prac-po-naive"] >= by["prac-po-wc"] - 1e-9
        for variant in ("prac-po-naive", "prac-po-wc"):
            seq = [
                r["overhead_pct"]
                for p in periods
                for r in rows
                if r["mix_id"] == m
                and r["mitigation"] == variant
                and r["period_ns"] == p
            ]
            ok &= all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))
    _verdict("8", "naive overhead >= weighted, both non-increasing in period", ok)


def test_criterion_09_calibration_fidelity():
    layout = SubarrayLayout.uniform(10_000, 2_500)
    worst_min = worst_mean = 0.0
    for name in available_profiles():
        profile = load_profile(name)
        thresholds = sample_thresholds(profile, layout, seed=42)
        for kind, (lo, mean) in profile.thresholds.items():
            hc = thresholds.theta[kind] / profile.units_per_hammer(kind)
            worst_min = max(worst_min, abs(float(hc.min()) - lo) / lo)
            worst_mean = max(worst_mean, abs(float(hc.mean()) - mean) / mean)
    ok = worst_min <= 0.20 and worst_mean <= 0.05
    _verdict(
        "9",
        "sampled minima within 20% and means within 5% for every profile",
        ok,
        f"worst min dev {worst_min:.2e}, worst mean dev {worst_mean:.2e}",
    )


def test_criterion_10a_temperature_trend():
    profile = load_profile(DEFAULT_PROFILE)
    layout = SubarrayLayout.uniform(1024, 256)
    groups = SimraGroupMap.aligned_blocks(layout, 32, 1)
    template = PatternSpec(kind="simra", aggressors=(0, 0), n=32)
    by_temp: dict[float, list[int]] = {}
    for temp in (50.0, 80.0):
        exp = Experiment(profile, groups, seed=3, temp_c=temp)
        rows = run_sweep(exp, sweep_plan(exp, ("simra",), template)[0])
        by_temp[temp] = [int(r["hcfirst"]) for r in rows if r["hcfirst"] != NO_FLIP]
    ratio = (sum(by_temp[50.0]) / len(by_temp[50.0])) / (
        sum(by_temp[80.0]) / len(by_temp[80.0])
    )
    ok = 2.8 <= ratio <= 3.5
    _verdict("10a", "group-op mean HC 50->80C ratio in [2.8, 3.5]", ok, f"{ratio:.2f}")


def test_criterion_10b_t_aggon_trend():
    profile = load_profile(DEFAULT_PROFILE)
    lo = contribution(SIMRA, None, 80.0, 36.0, 1, 32, profile)
    hi = contribution(SIMRA, None, 80.0, 70_200.0, 1, 32, profile)
    ratio = hi / lo
    ok = 144.0 <= ratio <= 271.0
    _verdict("10b", "t_AggON 36ns->70.2us group gain in [144, 271]", ok, f"{ratio:.1f}")


def test_criterion_10c_combined_pattern_trend():
    profile = load_profile(DEFAULT_PROFILE)
    layout = SubarrayLayout.uniform(1024, 256)
    groups = SimraGroupMap.aligned_blocks(layout, 32, 1)
    exp = Experiment(profile, groups, seed=7)
    rh_total = combined_total = 0
    for v in (96, 160, 320, 480):
        rh = find_hcfirst(PatternSpec(kind="rowhammer", aggressors=(v - 1, v + 1)), v, exp)
        res = run_combined(
            exp,
            v,
            {"simra": 0.9, "comra": 0.9},
            comra_rows=(v + 1, v + 2),
            simra_rows=(v - 32, v - 32),
            simra_n=32,
        )
        rh_total += rh
        combined_total += res["total"]
    ratio = rh_total / combined_total
    ok = ratio >= 1.5
    _verdict("10c", "mixed-kind first flip >=1.5x earlier than hammering", ok, f"{ratio:.2f}x")


def test_criterion_11_manifest_determinism(tmp_path):
    t0 = time.time()
    out1 = tmp_path / "first"
    assert main(["characterize", "--out", str(out1), "--seed", "5"]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out1.glob("*.csv"))}
    out2 = tmp_path / "replay"
    manifest = out1 / "manifest.cfg"
    assert main(["characterize", "--config", str(manifest), "--out", str(out2)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out2.glob("*.csv"))}
    ok = bool(first) and first == second and time.time() - t0 < 60
    _verdict("11", "manifest replay reproduces every CSV byte for byte", ok)
