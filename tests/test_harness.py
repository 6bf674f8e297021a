"""First-flip search, reverse-engineering probes, and victim sweeps."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pudsim import (
    Experiment,
    PatternSpec,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
    find_hcfirst,
)
from pudsim import harness
from pudsim.cli import main
from pudsim.disturbance import (
    COMRA,
    FLIP_AT,
    RH,
    SIMRA,
    ChipProfile,
    DisturbanceState,
    accumulate,
    bits_flipped,
)
from pudsim.harness import RESULT_COLUMNS, default_cap, run_sweep, sweep_plan
from pudsim.patterns import generate, repeated_events
from pudsim.reports import emit_report

from methodology import (
    DataBank,
    discover_simra_groups,
    discover_subarrays,
    random_layout_and_groups,
    run_combined,
)


def flat_experiment(theta, rows=64):
    prof = ChipProfile(
        name="flat",
        thresholds={RH: (float(theta), float(theta))},
        temp_step={RH: 1.0},
        t_on_anchors={},
        dp_mult={},
    )
    layout = SubarrayLayout.uniform(rows, rows)
    return Experiment(prof, SimraGroupMap(layout, ()), seed=0)


def linear_scan(exp, spec, victim, cap):
    """Brute-force oracle: smallest hammer count that flips the victim,
    by the shared flip rule."""
    per = exp.hammer_damage(spec).get(victim, 0.0)
    for n in range(1, cap + 1):
        if bits_flipped(n * per):
            return n
    return None


@pytest.mark.parametrize("theta", [7, 123, 1000])
def test_bisection_matches_linear_scan(theta):
    exp = flat_experiment(theta)
    spec = PatternSpec(kind="rowhammer", aggressors=(20, 22))
    found = find_hcfirst(spec, 21, exp)
    assert found is not None
    assert found == linear_scan(exp, spec, 21, default_cap(exp.timing))


def test_bisection_reports_no_flip_distinctly():
    exp = flat_experiment(10**9)
    spec = PatternSpec(kind="rowhammer", aggressors=(20, 22))
    assert find_hcfirst(spec, 21, exp) is None


def test_bisection_result_never_below_true_threshold():
    exp = flat_experiment(500)
    spec = PatternSpec(kind="rowhammer", aggressors=(20, 22))
    found = find_hcfirst(spec, 21, exp)
    per = exp.hammer_damage(spec)[21]
    assert found * per >= FLIP_AT > (found - 1) * per


def low_threshold_experiment():
    prof = ChipProfile(name="low", thresholds={RH: (20.0, 40.0), COMRA: (8.0, 16.0),
                                               SIMRA: (4.0, 8.0)})
    layout = SubarrayLayout.uniform(64, 64)
    return Experiment(prof, SimraGroupMap.aligned_blocks(layout, 8), seed=3)


@pytest.mark.parametrize("spec, victim", [
    (PatternSpec(kind="rowhammer", aggressors=(20, 22)), 21),
    (PatternSpec(kind="rowpress", aggressors=(20, 22), t_aggon=144.0), 21),
    (PatternSpec(kind="comra", aggressors=(30, 31)), 32),
    (PatternSpec(kind="simra", aggressors=(15, 15), act_gap=2.0, n=8), 16),
], ids=["rowhammer", "rowpress", "comra", "simra"])
def test_closed_form_matches_hammer_by_hammer_replay(spec, victim):
    exp = low_threshold_experiment()
    assert not exp.is_stochastic(spec)
    found = find_hcfirst(spec, victim, exp)
    assert found is not None
    assert found == replay_oracle(exp, spec, victim, rep=0)


def test_deterministic_search_replays_one_hammer(monkeypatch):
    """A deterministic search takes its count from one hammer's damage:
    one `hammer_damage` replay, whatever the repeats, and no probe."""
    calls = []
    damage, probe = harness.Experiment.hammer_damage, harness.Experiment.probe
    monkeypatch.setattr(harness.Experiment, "hammer_damage",
                        lambda exp, spec: calls.append("hammer_damage") or damage(exp, spec))
    monkeypatch.setattr(harness.Experiment, "probe",
                        lambda exp, *a: calls.append("probe") or probe(exp, *a))
    spec = PatternSpec(kind="rowhammer", aggressors=(20, 22))
    assert find_hcfirst(spec, 21, flat_experiment(123), repeats=3) is not None
    assert calls == ["hammer_damage"]


def test_default_cap_is_one_refresh_window_of_pairs(experiment):
    cap = default_cap(experiment.timing)
    assert cap == experiment.timing.acts_per_refi * experiment.timing.refs_per_refw // 2


def test_untouched_victim_reports_no_flip(experiment):
    spec = PatternSpec(kind="rowhammer", aggressors=(100, 102))
    assert find_hcfirst(spec, 400, experiment) is None


# -- reverse engineering ---------------------------------------------------------


def test_discovery_recovers_configured_ground_truth(experiment):
    bank = DataBank(experiment.fresh_bank("re"))
    layout = discover_subarrays(bank)
    assert layout.extents == experiment.layout.extents
    groups = discover_simra_groups(bank, layout)
    assert groups.groups == experiment.groups.groups


def test_discovery_on_two_subarrays_of_eight_rows(profile):
    layout = SubarrayLayout.uniform(16, 8)
    groups = SimraGroupMap.aligned_blocks(layout, 4)
    exp = Experiment(profile, groups, seed=1)
    bank = DataBank(exp.fresh_bank())
    assert discover_subarrays(bank).extents == layout.extents
    assert discover_simra_groups(bank, layout).groups == groups.groups


def test_discovery_preserves_stored_data(experiment):
    bank = DataBank(experiment.fresh_bank())
    bank.data[5] = b"\xde\xad\xbe\xef\0\0\0\0"
    bank.data[300] = b"\x01\x02\x03\x04\0\0\0\0"
    discover_simra_groups(bank, discover_subarrays(bank))
    assert bank.row_data(5) == (b"\xde\xad\xbe\xef" + bank.row_data(5)[4:])
    assert bank.row_data(300)[:4] == b"\x01\x02\x03\x04"


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_layouts_recovered_exactly(seed):
    layout, groups = random_layout_and_groups(256, seed)
    prof = ChipProfile(name="x", thresholds={RH: (10.0, 20.0)})
    exp = Experiment(prof, groups, seed=seed)
    bank = DataBank(exp.fresh_bank())
    found_layout = discover_subarrays(bank)
    assert found_layout.extents == layout.extents
    assert discover_simra_groups(bank, found_layout).groups == groups.groups


# -- sweeps ------------------------------------------------------------------------


# every pattern parameter of a sweep but the kind and the aggressors
TEMPLATE = PatternSpec(kind="simra", aggressors=(0, 0), n=32)


def test_sweep_produces_schema_rows(worstcase, layout, groups):
    exp = Experiment(worstcase, groups, seed=1)
    plan, failures = sweep_plan(exp, ("rowhammer", "simra"), TEMPLATE, per_subarray=1)
    rows = run_sweep(exp, plan)
    assert rows and not failures
    for row in rows:
        assert tuple(row.keys()) == tuple(RESULT_COLUMNS)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"rowhammer", "simra"}


def test_sweep_records_unknown_kinds_as_failures(worstcase, layout, groups):
    exp = Experiment(worstcase, groups, seed=1)
    plan, failures = sweep_plan(exp, ("rowhammer", "bogus"), TEMPLATE, per_subarray=1)
    assert {r["kind"] for r in run_sweep(exp, plan)} == {"rowhammer"}
    assert failures == ["bogus: unknown pattern kind 'bogus'"]


def test_sweep_records_failures_instead_of_raising(worstcase, layout):
    exp = Experiment(worstcase, SimraGroupMap(layout, ()), seed=1)
    plan, failures = sweep_plan(exp, ("simra",), TEMPLATE)
    assert failures and not plan and not run_sweep(exp, plan)


def test_sweep_searches_the_template_under_the_experiment(
    worstcase, layout, groups, monkeypatch
):
    """Each victim's spec is the template with the kind and aggressors
    filled in, searched on the sweep's experiment."""
    seen = []
    monkeypatch.setattr(
        harness, "find_hcfirst",
        lambda spec, victim, exp, repeats: seen.append((spec, exp)) or None,
    )
    exp = Experiment(worstcase, groups, seed=1, temp_c=50.0, dp_aggr=0x55)
    template = PatternSpec(kind="rowhammer", aggressors=(1, 3), t_aggon=60.0,
                           pre_act_gap=5.0, act_gap=1.0, n=32)
    rows = run_sweep(exp, sweep_plan(exp, ("comra", "simra"), template, per_subarray=1)[0])
    assert {s.kind for s, _ in seen} == {"comra", "simra"} and len(seen) == len(rows)
    for spec, used in seen:
        assert used is exp
        assert replace(spec, kind="rowhammer", aggressors=(1, 3)) == template
    assert {(r["temp_c"], r["dp_aggr"], r["t_aggon_ns"]) for r in rows} == {
        (50.0, "0x55", 60.0)
    }


def test_sweep_rows_write_results_csv(worstcase, layout, groups, tmp_path):
    exp = Experiment(worstcase, groups, seed=1)
    rows = run_sweep(exp, sweep_plan(exp, ("simra",), TEMPLATE, per_subarray=1)[0])
    emit_report(rows, "characterize", tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == 1 + len(rows) > 1


def test_combined_pattern_beats_rowhammer_alone(worstcase, layout, groups):
    exp = Experiment(worstcase, groups, seed=3)
    victim = 64  # adjacent to the first 32-row group
    out = run_combined(
        exp,
        victim,
        fractions={"simra": 0.5, "comra": 0.0},
        comra_rows=(65, 66),
        simra_rows=(32, 32),
        simra_n=32,
    )
    rh_spec = PatternSpec(kind="rowhammer", aggressors=(63, 65))
    rh_only = find_hcfirst(rh_spec, 64, exp)
    assert out is not None and rh_only is not None
    assert out["total"] < rh_only


# -- stochastic search golden values ---------------------------------------------

# HC_first found by the op-by-op search at a 1.0 ns gap (inside the
# partial-activation window), per (seed, victim); any change to the
# replay path's draws or arithmetic moves them
STOCHASTIC_HCFIRST = {
    (1, 32): 134, (1, 64): 143, (1, 96): 145,
    (2, 32): 123, (2, 64): 142, (2, 96): 132,
}


def golden_experiment(seed, simra=(100.0, 120.0)):
    prof = ChipProfile(name="g", thresholds={RH: (6700.0, 14800.0), SIMRA: simra})
    layout = SubarrayLayout.uniform(128, 128)
    return Experiment(prof, SimraGroupMap.aligned_blocks(layout, 32), seed=seed)


def golden_spec(r2):
    return PatternSpec(kind="simra", aggressors=(r2, r2), n=32, act_gap=1.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_stochastic_hcfirst_golden_values(seed):
    exp = golden_experiment(seed)
    assert exp.is_stochastic(golden_spec(31))
    found = {
        (seed, r2 + 1): find_hcfirst(golden_spec(r2), r2 + 1, exp, repeats=2)
        for r2 in (31, 63, 95)
    }
    assert found == {k: v for k, v in STOCHASTIC_HCFIRST.items() if k[0] == seed}


def replay_oracle(exp, spec, victim, rep, limit=2048):
    """Replay one long stream of the pattern hammer by hammer through
    `Bank` and `accumulate`, on a fresh bank drawing from the repeat's
    substream and flushed at each hammer boundary; the first hammer after
    which the victim has flipped, or None within `limit` hammers."""
    bank = exp.fresh_bank(f"probe.{rep}.{victim}")
    state = DisturbanceState(rows=exp.layout.rows)
    one = generate(spec, exp.timing)
    events = list(repeated_events(one, range(limit)))
    per_hammer = len(one.events)
    for i, e in enumerate(events):
        effects = bank.apply(e)
        if (i + 1) % per_hammer == 0:
            effects = effects + bank.flush()
        if effects:
            accumulate(state, effects, exp.thresholds, exp.profile,
                       temp_c=exp.temp_c, dp=exp.dp_aggr)
        if (i + 1) % per_hammer == 0 and state.flipped.get(victim):
            return (i + 1) // per_hammer
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_stochastic_search_matches_hammer_by_hammer_oracle(seed):
    exp = golden_experiment(seed)
    oracles = {}
    for r2 in (31, 63, 95):
        spec, victim = golden_spec(r2), r2 + 1
        per_rep = [replay_oracle(exp, spec, victim, rep) for rep in range(2)]
        assert None not in per_rep
        oracles[victim] = per_rep
        for repeats in (1, 2):
            assert find_hcfirst(spec, victim, exp, repeats) == min(per_rep[:repeats])
    # repeats draw differently, so search.repeats can lower the minimum
    assert any(a != b for a, b in oracles.values()), oracles


def reference_find_hcfirst(spec, victim, exp, repeats):
    """The stochastic search with every repeat bisected from the full
    budget, whatever an earlier repeat found: the minimum over repeats
    of each one's smallest flipping count, or None."""
    cap = default_cap(exp.timing)
    best = None
    for rep in range(repeats):
        if not exp.probe(spec, victim, cap, rep):
            continue
        lo, hi = 0, cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exp.probe(spec, victim, mid, rep):
                hi = mid
            else:
                lo = mid
        best = hi if best is None else min(best, hi)
    return best


# the golden chip at two seeds, and one whose every SiMRA cell flips at
# the first op
GOLDEN_CHIPS = pytest.mark.parametrize(
    "seed, simra", [(1, (100.0, 120.0)), (2, (100.0, 120.0)), (1, (0.01, 0.02))],
    ids=["1", "2", "flips-at-once"])


def spy_probes(monkeypatch):
    """(rep, hammers) of each probe an Experiment makes from now on."""
    seen = []
    probe = Experiment.probe

    def spy(exp, spec, victim, n, rep=0):
        seen.append((rep, n))
        return probe(exp, spec, victim, n, rep)

    monkeypatch.setattr(Experiment, "probe", spy)
    return seen


@GOLDEN_CHIPS
def test_later_repeats_probe_only_below_the_best_so_far(seed, simra, monkeypatch):
    """A repeat after the first flip that does not beat the best count so
    far makes one probe, of one hammer fewer than that count; one that
    beats it probes no more than that count.  Once the best is one
    hammer, as on a chip that flips at the first op, no repeat probes."""
    exp = golden_experiment(seed, simra)
    seen = spy_probes(monkeypatch)
    outcomes = set()
    for r2 in (31, 63, 95):
        spec, victim = golden_spec(r2), r2 + 1
        per_rep = [replay_oracle(exp, spec, victim, rep) for rep in range(5)]
        seen.clear()
        assert find_hcfirst(spec, victim, exp, 5) == min(per_rep)
        best = per_rep[0]
        for rep in range(1, 5):
            probes = [n for r, n in seen if r == rep]
            if best == 1:
                assert probes == [], (rep, per_rep)
                outcomes.add("skipped")
            elif per_rep[rep] >= best:
                assert probes == [best - 1], (rep, per_rep)
                outcomes.add("kept")
            else:
                assert probes == [best - 1, per_rep[rep] - 1], (rep, per_rep)
                best = per_rep[rep]
                outcomes.add("beaten")
    assert outcomes == ({"skipped"} if simra[0] < 1 else {"kept", "beaten"})


@GOLDEN_CHIPS
def test_a_flipping_repeat_probes_the_budget_then_one_hammer_fewer(seed, simra, monkeypatch):
    """One repeat that flips costs two probes: the whole budget, which
    stops at the hammer that flips, and one hammer fewer, which does not
    flip.  A first flip at one hammer needs no second probe."""
    exp = golden_experiment(seed, simra)
    cap = default_cap(exp.timing)
    seen = spy_probes(monkeypatch)
    for r2 in (31, 63, 95):
        spec, victim = golden_spec(r2), r2 + 1
        hc = replay_oracle(exp, spec, victim, 0)
        seen.clear()
        assert find_hcfirst(spec, victim, exp, 1) == hc
        assert seen == ([(0, cap)] if hc == 1 else [(0, cap), (0, hc - 1)]), hc


@pytest.mark.parametrize("late", [1, 2, 7, 10_000])
@pytest.mark.parametrize("first", [(1, 1, 1), (2, 9, 5), (150, 130, 140), (5000, 3, 5000)])
def test_search_bisects_when_one_hammer_fewer_still_flips(first, late, monkeypatch):
    """A replay of fewer hammers can flip through its final flush alone,
    so the hammer a probe stops at may lie above the smallest count that
    flips.  Here repeat `rep` flips for every count from `first[rep]`, but
    a probe stops only `late` hammers past it (or at its end): the
    search still finds the minimum over 1 to 3 repeats exactly."""
    exp = golden_experiment(1)
    cap = default_cap(exp.timing)
    assert max(first) < cap

    def probe(exp, spec, victim, n, rep=0):
        return min(n, first[rep] + late) if n >= first[rep] else 0

    monkeypatch.setattr(Experiment, "probe", probe)
    for repeats in (1, 2, 3):
        assert find_hcfirst(golden_spec(31), 32, exp, repeats) == min(first[:repeats])


def test_stochastic_search_without_simra_thresholds_probes_nothing(monkeypatch):
    """A profile that cannot express a group op has no first flip to find:
    the stochastic search reports none without replaying an op."""
    prof = ChipProfile(name="no-simra", thresholds={RH: (6700.0, 14800.0)})
    layout = SubarrayLayout.uniform(128, 128)
    exp = Experiment(prof, SimraGroupMap.aligned_blocks(layout, 32), seed=1)
    seen = spy_probes(monkeypatch)
    assert exp.is_stochastic(golden_spec(31))
    assert [find_hcfirst(golden_spec(r2), r2 + 1, exp, 5) for r2 in (31, 63, 95)] == [None] * 3
    assert seen == []


@pytest.mark.parametrize("dp_aggr", [None, 0xFF])
@pytest.mark.parametrize("temp_c", [50.0, 80.0])
@pytest.mark.parametrize("n", [4, 8, 32])
@pytest.mark.parametrize("gap", [0.5, 1.0, 1.5])
def test_stochastic_search_matches_oracle_across_conditions(gap, n, temp_c, dp_aggr):
    """Over the partial window's gaps, group sizes, temperatures and data
    patterns, and for 1 to 3 repeats, the search finds the minimum of the
    oracle's per-repeat counts; for 1 to 5 repeats it finds what a full
    bisection of every repeat finds.  Two groups of n rows are followed by
    two ungrouped rows; the victims are the first row of the second
    group (hammering the first) and the rows at distance 1 and 2 above
    the second group.  A one-refresh-window budget of 16 REFs keeps the
    distance-2 searches short."""
    layout = SubarrayLayout.uniform(2 * n + 2, 2 * n + 2)
    prof = ChipProfile(name="grid", thresholds={RH: (6700.0, 14800.0), SIMRA: (0.5, 1.0)})
    timing = TimingParams(t_refw=16 * TimingParams().t_refi)
    exp = Experiment(prof, SimraGroupMap.aligned_blocks(layout, n), timing=timing,
                     seed=3, temp_c=temp_c, dp_aggr=dp_aggr)
    for r2, victim in ((n - 1, n), (2 * n - 1, 2 * n), (2 * n - 1, 2 * n + 1)):
        spec = PatternSpec(kind="simra", aggressors=(r2, r2), n=n, act_gap=gap)
        assert exp.is_stochastic(spec)
        per_rep = [replay_oracle(exp, spec, victim, rep, limit=256) for rep in range(3)]
        assert None not in per_rep
        for repeats in range(1, 6):
            found = find_hcfirst(spec, victim, exp, repeats)
            assert found == reference_find_hcfirst(spec, victim, exp, repeats)
            if repeats <= len(per_rep):
                assert found == min(per_rep[:repeats])


def test_victims_outside_the_bank_never_flip():
    """Both search routes report no flip for a row beyond either bank
    edge, next to a hammered group, as `accumulate` skips such rows."""
    exp = golden_experiment(1)
    for r2, victim in ((0, -1), (127, 128)):
        for gap in (1.0, 2.0):
            spec = replace(golden_spec(r2), act_gap=gap)
            assert exp.is_stochastic(spec) == (gap == 1.0)
            assert find_hcfirst(spec, victim, exp, 2) is None
        assert not exp.probe(golden_spec(r2), victim, harness.default_cap(exp.timing))


# A whole stochastic `characterize`: 128 rows in one subarray, a 1.0 ns
# gap, on a chip whose SiMRA first-flip counts lie between 100 and a
# mean of 120 (so every search is short).  Per seed, the repeats and the
# SHA-256 of the run's `results.csv`.  At one repeat, the digest was
# recorded from the op-by-op replay before the bank drew its partial
# activations in blocks.  At three (seed 2, where a later repeat lowers
# a count), it was recorded while every repeat was still bisected from
# the full budget.  Any change to the replay path's draws, arithmetic,
# cells or choice of repeats moves it.
_STOCHASTIC_CHIP = """\
name = stochastic_chip
vendor = test
threshold.rh = 6700 14800
threshold.comra = 5260 10610
threshold.simra = 100 120
"""
STOCHASTIC_RESULTS_SHA256 = {
    0: (1, "9c030f3243dd3beb85210b1035384d5d8c3ad399fa85f4bba18130ece89e61fd"),
    1: (1, "a3e2ba174bc4be13cbcd7d11c75e8e516db5b5228c0b13fe3d80f8b53dec6005"),
    2: (3, "3bf2f63a73ea2629c098c8123ede350bf007cdecb5f52d7ede3da5f51af81b9e"),
}


@pytest.mark.parametrize("seed", sorted(STOCHASTIC_RESULTS_SHA256))
def test_stochastic_characterize_writes_its_recorded_bytes(seed, tmp_path, monkeypatch):
    (tmp_path / "profiles").mkdir()
    (tmp_path / "profiles" / "stochastic_chip.profile").write_text(_STOCHASTIC_CHIP)
    monkeypatch.setenv("PUDSIM_PROFILE_DIR", str(tmp_path / "profiles"))
    cfg = tmp_path / "in.cfg"
    repeats, want = STOCHASTIC_RESULTS_SHA256[seed]
    cfg.write_text("profile = stochastic_chip\ngeometry.rows = 128\nlayout.subarrays = 1\n"
                   f"pattern.act_gap_ns = 1.0\nsearch.repeats = {repeats}\nseed = {seed}\n")
    out = tmp_path / "out"
    rc = main(["characterize", "--kinds", "rowhammer comra simra",
               "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == want
