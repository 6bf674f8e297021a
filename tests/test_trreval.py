"""Window-level bypass evaluator pinned to a bus-event reference."""

import tracemalloc
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest

from pudsim import Experiment, SimraGroupMap, SubarrayLayout, cli
from pudsim.config import RunConfig
from pudsim.disturbance import (
    FLIP_AT, RH, SIMRA, DisturbanceState, accumulate, bits_flipped,
)
from pudsim.dram import CommandEvent, RefreshEffect, TimingParams
from pudsim.profiles import load_profile
from pudsim.rng import substream
from pudsim.trreval import (
    MAX_WINDOW_VALUES, BypassResult, BypassSetup, TrrConfig, _window_doses, make_rh_setup,
    make_simra_setup, max_windows, run_bypass,
)

# decoy rows, far from every victim of the setups below
DECOYS = tuple(range(1024, 1184))
# how long every aggressor stays open: tRAS, as in bus_reference
T_ON = TimingParams().t_ras


@pytest.fixture(scope="module")
def chip(worstcase):
    layout = SubarrayLayout.uniform(2048, 256)
    groups = SimraGroupMap.aligned_blocks(layout, 32)
    return Experiment(worstcase, groups, seed=11)


def weak(profile):
    """Weak enough that both techniques flip within tens of windows,
    with TRR on as well."""
    return replace(profile, thresholds={RH: (40.0, 80.0), SIMRA: (20.0, 60.0)})


@pytest.fixture(scope="module")
def weak_chip(worstcase):
    profile = weak(worstcase)
    layout = SubarrayLayout.uniform(2048, 256)
    groups = SimraGroupMap.aligned_blocks(layout, 32)
    return Experiment(profile, groups, seed=11)


def bus_reference(exp, setup, windows, trr):
    """Route B: play `run_bypass`'s schedule command by command through
    `Bank` and `accumulate`.

    Window w is an aggressor window when w % 4 == 0: its op budget goes
    round-robin over the aggressors, restarting at aggressor 0.  The
    other windows activate decoy rows.  A REF closes every window.  With
    TRR on, a ring keeps the last `sampler_size` bus ACT rows; each REF
    draws once from `substream(exp.seed, "trr.sampler")`, counting back
    from the newest ACT, and refreshes the sampled row's two neighbours.
    Returns the damage state and the number of samples that caught an
    aggressor."""
    t = exp.timing
    acts, slot = t.acts_per_refi, t.t_rc
    simra = setup.kind == SIMRA
    aggressors = list(setup.opened)
    bank = exp.fresh_bank()
    state = DisturbanceState(rows=exp.layout.rows)
    ring = deque(maxlen=trr.sampler_size) if trr is not None else None
    rng = substream(exp.seed, "trr.sampler")
    caught = 0
    decoy = 0

    def play(time, kind, row=None):
        effects = bank.apply(CommandEvent(time, kind, row))
        if effects:
            accumulate(state, effects, exp.thresholds, exp.profile,
                       temp_c=exp.temp_c, dp=exp.dp_aggr)
        if kind == "ACT" and ring is not None:
            ring.append(row)

    for w in range(windows):
        base = w * t.t_refi
        if w % 4 == 0:
            for i in range(acts // 2 if simra else acts):
                a = aggressors[i % len(aggressors)]
                if simra:  # ACT-PRE-ACT inside the multi-activation window
                    start = base + 2 * i * slot
                    play(start, "ACT", a)
                    play(start + 3.0, "PRE")
                    play(start + 6.0, "ACT", a)
                    play(start + 6.0 + t.t_ras, "PRE")
                else:
                    play(base + i * slot, "ACT", a)
                    play(base + i * slot + t.t_ras, "PRE")
        else:
            for i in range(acts):
                play(base + i * slot, "ACT", DECOYS[decoy])
                play(base + i * slot + t.t_ras, "PRE")
                decoy = (decoy + 1) % len(DECOYS)
        ref = base + t.t_refi - 1.0
        play(ref, "REF")
        if ring is not None:
            pick = ring[-1 - int(rng.integers(len(ring)))]
            caught += pick in setup.opened
            rows = tuple(v for v in (pick - 1, pick + 1) if 0 <= v < exp.layout.rows)
            accumulate(state, [RefreshEffect(rows, ref)], exp.thresholds, exp.profile)
    return state, caught


def flips_per_row(state):
    return Counter(f.row for f in state.flips)


def setup_for(exp, technique):
    if technique == "rh":
        return make_rh_setup(exp.layout, pairs=4)
    return make_simra_setup(exp.groups, n=32)


def assert_routes_agree(fast, state, caught, skip=frozenset()):
    """Per-victim flips, total flips and TRR refreshes agree; rows in
    `skip` are left out of the comparison.  Returns the flips compared."""
    bus = {v: n for v, n in flips_per_row(state).items() if v not in skip}
    ours = {v: n for v, n in fast.per_victim.items() if n and v not in skip}
    assert ours == bus
    skipped = sum(n for v, n in fast.per_victim.items() if v in skip)
    assert fast.bitflips - skipped == sum(bus.values())
    assert fast.trr_refreshes == caught
    return sum(bus.values())


def windows_in(agg_windows):
    # k aggressor windows with three decoy windows between each pair
    return 4 * (agg_windows - 1) + 1


@pytest.mark.parametrize("agg_windows", [2, 6])
def test_rh_routes_agree_without_trr(chip, agg_windows):
    setup = setup_for(chip, "rh")
    windows = windows_in(agg_windows)
    fast = run_bypass(chip, setup, None, windows, T_ON)
    state, caught = bus_reference(chip, setup, windows, None)
    assert_routes_agree(fast, state, caught)


@pytest.mark.parametrize("agg_windows", [2, 4])
def test_simra_routes_agree_without_trr(chip, agg_windows):
    setup = setup_for(chip, "simra")
    windows = windows_in(agg_windows)
    fast = run_bypass(chip, setup, None, windows, T_ON)
    state, caught = bus_reference(chip, setup, windows, None)
    assert_routes_agree(fast, state, caught)


def _group_rows(setup):
    return frozenset().union(*setup.opened.values())


@pytest.mark.parametrize("trr", [None, TrrConfig()], ids=["trr-off", "trr-on"])
@pytest.mark.parametrize("windows", [21, 41])
@pytest.mark.parametrize("technique", ["rh", "simra"])
def test_routes_agree_past_the_sampler_fill(weak_chip, technique, windows, trr):
    """The sampler holds 450 ACTs, about three windows; both spans run
    well past that, and both routes flip bits."""
    setup = setup_for(weak_chip, technique)
    fast = run_bypass(weak_chip, setup, trr, windows, T_ON)
    state, caught = bus_reference(weak_chip, setup, windows, trr)
    # rows of a chosen group are restored each time their own group
    # opens; `run_bypass` still counts flips on those next to another
    # chosen group (see test_simra_group_rows_agree)
    skip = _group_rows(setup) if technique == "simra" else frozenset()
    assert assert_routes_agree(fast, state, caught, skip) > 0
    assert (fast.trr_refreshes > 0) == (trr is not None)


@pytest.mark.parametrize("technique", ["rh", "simra"])
def test_routes_agree_at_other_conditions(weak_chip, technique):
    """Temperature and data pattern scale both routes alike."""
    exp = Experiment(weak_chip.profile, weak_chip.groups,
                     seed=11, temp_c=90.0, dp_aggr=0xFF)
    setup = setup_for(exp, technique)
    fast = run_bypass(exp, setup, TrrConfig(), 21, T_ON)
    state, caught = bus_reference(exp, setup, 21, TrrConfig())
    skip = _group_rows(setup) if technique == "simra" else frozenset()
    assert assert_routes_agree(fast, state, caught, skip) > 0
    # the conditions change the outcome, so the pin sees them
    assert fast.per_victim != run_bypass(weak_chip, setup, TrrConfig(), 21, T_ON).per_victim


@pytest.mark.xfail(strict=True, reason=(
    "run_bypass deposits dose on rows of a chosen group that border another "
    "chosen group, although the group's own op restores them every time"
))
def test_simra_group_rows_agree(weak_chip):
    setup = setup_for(weak_chip, "simra")
    fast = run_bypass(weak_chip, setup, TrrConfig(), 21, T_ON)
    state, _ = bus_reference(weak_chip, setup, 21, TrrConfig())
    bus = flips_per_row(state)
    for v in _group_rows(setup):
        assert fast.per_victim.get(v, 0) == bus.get(v, 0)


def test_trr_never_sees_internally_opened_rows(weak_chip):
    """The sampler only ever picks a group's bus row, whose neighbours
    are group members, so TRR changes no SiMRA victim's flips."""
    setup = setup_for(weak_chip, "simra")
    off = run_bypass(weak_chip, setup, None, 41, T_ON)
    on = run_bypass(weak_chip, setup, TrrConfig(), 41, T_ON)
    assert on.trr_refreshes > 0
    assert on.per_victim == off.per_victim


def test_trr_suppresses_rh_but_not_simra(chip):
    windows = 8204
    results = {}
    for tech in ("rh", "simra"):
        setup = setup_for(chip, tech)
        off = run_bypass(chip, setup, None, windows, T_ON)
        on = run_bypass(chip, setup, TrrConfig(), windows, T_ON)
        assert off.bitflips > 0
        results[tech] = (off.bitflips, on.bitflips)
    rh_off, rh_on = results["rh"]
    si_off, si_on = results["simra"]
    assert rh_on <= 0.05 * rh_off
    assert si_off - si_on <= 0.30 * si_off


def test_bypass_is_deterministic_per_seed(chip):
    setup = make_rh_setup(chip.layout, pairs=2)
    other = Experiment(chip.profile, chip.groups, seed=12)
    a = run_bypass(chip, setup, TrrConfig(), 2000, T_ON)
    b = run_bypass(chip, setup, TrrConfig(), 2000, T_ON)
    c = run_bypass(other, setup, TrrConfig(), 2000, T_ON)
    assert a.bitflips == b.bitflips and a.per_victim == b.per_victim
    assert (a.bitflips, a.trr_refreshes) != (c.bitflips, c.trr_refreshes)


def test_simra_setup_uses_interior_bus_rows(chip):
    setup = make_simra_setup(chip.groups, n=32)
    for bus_row, members in setup.opened.items():
        assert members[0] < bus_row < members[-1]


@pytest.mark.parametrize("name", ["skhynix_a_8gb", "worstcase"])
@pytest.mark.parametrize("technique", ["rh", "simra"])
def test_trr_eval_chip_keeps_one_kind_as_the_full_profile_draws_it(
        tmp_path, monkeypatch, name, technique):
    """`trr-eval` samples thresholds for the kind it scores alone.  Each
    kind draws from its own substream, so that kind's thresholds and
    every result, TRR off and on, equal those of the full profile."""
    calls = []

    def record(exp, setup, trr, windows, t_on):
        res = run_bypass(exp, setup, trr, windows, t_on)
        calls.append((exp, setup, trr, windows, t_on, res))
        return res

    monkeypatch.setattr(cli, "run_bypass", record)
    # aggressors held open 1 us, so that row hammering flips on every profile
    cfg = RunConfig(profile=name, t_aggon_ns=1000.0, out_dir=str(tmp_path))
    args = cli._build_parser().parse_args(["trr-eval", "--technique", technique, "--seeds", "2"])
    cli.plan_trr_eval(cfg, args)[1]()
    assert [(exp.seed, trr is not None) for exp, _, trr, *_ in calls] == [
        (0, False), (0, True), (1, False), (1, True)]
    full = load_profile(name)
    for exp, setup, trr, windows, t_on, res in calls:
        assert list(exp.thresholds.theta) == [setup.kind]
        whole = Experiment(full, exp.groups, timing=exp.timing, seed=exp.seed,
                           temp_c=exp.temp_c, dp_aggr=exp.dp_aggr)
        assert (exp.thresholds.theta[setup.kind].tobytes()
                == whole.thresholds.theta[setup.kind].tobytes())
        assert run_bypass(whole, setup, trr, windows, t_on) == res
    assert sum(res.bitflips for *_, res in calls) > 0


# -- reset segments against the window loop --------------------------------


def reference_bypass(exp, setup, trr, windows, t_on):
    """The window loop `run_bypass` is pinned to: each refresh window in
    turn deposits the aggressor window's dose and counts new flips, then
    its REF draws one TRR sample and resets the caught aggressor's
    neighbours and the periodic refresh slice."""
    timing = exp.timing
    rows = exp.layout.rows
    kind = setup.kind
    theta = exp.thresholds.theta[kind]
    dose_units = _window_doses(exp, setup, t_on)
    victims = sorted(dose_units)
    dose = {v: dose_units[v] / float(theta[v]) for v in victims}
    rng = substream(exp.seed, "trr.sampler")
    acts = timing.acts_per_refi
    aggressors = list(setup.opened)
    n_aggr = len(aggressors)
    per_op = 2 if kind == SIMRA else 1

    damage = {v: 0.0 for v in victims}
    flipped = {v: 0 for v in victims}
    cum = {v: 0 for v in victims}
    trr_refreshes = 0
    per_ref = -(-rows // timing.refs_per_refw)  # the REFs of a tREFW cover all rows
    cursor = 0

    for w in range(windows):
        if w % 4 == 0:  # an aggressor window; the three after it are decoys
            for v in victims:
                f = damage[v] + dose[v]
                damage[v] = f
                if f < FLIP_AT:
                    continue
                nf = bits_flipped(f, flipped[v])
                cum[v] += nf - flipped[v]
                flipped[v] = nf
        if trr is not None:
            avail = min(trr.sampler_size, acts * (w + 1))
            j = int(rng.integers(avail))  # offset back from the newest ACT
            back_w = w - j // acts
            pos = (acts - 1) - (j % acts)  # position within that window
            if back_w % 4 == 0:
                a = aggressors[(pos // per_op) % n_aggr]
                trr_refreshes += 1
                for v in (a - 1, a + 1):
                    if v in damage:
                        damage[v] = 0.0
                        flipped[v] = 0
        for r in range(cursor, cursor + per_ref):
            v = r % rows
            if v in damage:
                damage[v] = 0.0
                flipped[v] = 0
        cursor = (cursor + per_ref) % rows
    return BypassResult(
        windows=windows,
        bitflips=sum(cum.values()),
        trr_refreshes=trr_refreshes,
        per_victim=cum,
    )


def assert_matches_reference(exp, setup, trr, windows):
    fast = run_bypass(exp, setup, trr, windows, exp.timing.t_ras)
    slow = reference_bypass(exp, setup, trr, windows, exp.timing.t_ras)
    assert fast == slow, (setup.kind, trr, windows)
    assert list(fast.per_victim) == list(slow.per_victim)
    return fast


def grid_chip(profile, rows, timing=TimingParams(), **conditions):
    layout = SubarrayLayout.uniform(rows, min(rows, 1024))
    groups = SimraGroupMap.aligned_blocks(layout, 32)
    return Experiment(profile, groups, timing=timing, seed=rows % 5, **conditions)


def grid_setups(exp):
    return (make_rh_setup(exp.layout, 1), make_rh_setup(exp.layout, 4),
            make_simra_setup(exp.groups, n=32))


SAMPLERS = (None, TrrConfig(1), TrrConfig(450), TrrConfig(100000))
# one REF refreshes two rows at 16384 rows and three at 20000
GEOMETRIES = (256, 1024, 8192, 16384, 20000)
TIMINGS = {
    "default": TimingParams(),
    "acts77": TimingParams(acts_per_refi=77),
    "trefi3900": TimingParams(t_refi=3900.0),
}


@pytest.mark.parametrize("timing", TIMINGS.values(), ids=TIMINGS.keys())
@pytest.mark.parametrize("rows", GEOMETRIES)
def test_short_spans_match_the_window_loop(worstcase, rows, timing):
    """Every technique and sampler over the first windows, while the
    sampler fills, on thresholds weak enough to flip within them."""
    exp = grid_chip(weak(worstcase), rows, timing)
    flips = 0
    for setup in grid_setups(exp):
        for trr in SAMPLERS:
            for windows in (1, 2, 3, 4, 5, 21):
                flips += assert_matches_reference(exp, setup, trr, windows).bitflips
    assert flips > 0


@pytest.mark.parametrize("thresholds", ["shipped", "weak"])
@pytest.mark.parametrize("rows", GEOMETRIES)
def test_long_spans_match_the_window_loop(profile, rows, thresholds):
    """One tREFW and three tREFWs and a window: every victim is
    refreshed, and TRR resets it many times between."""
    exp = grid_chip(profile if thresholds == "shipped" else weak(profile), rows)
    refw = exp.timing.refs_per_refw
    for setup in grid_setups(exp):
        for trr in (None, TrrConfig(1), TrrConfig(450)):
            assert_matches_reference(exp, setup, trr, refw)
        assert_matches_reference(exp, setup, TrrConfig(), 3 * refw + 1)


@pytest.mark.parametrize("timing", TIMINGS.values(), ids=TIMINGS.keys())
def test_other_timings_match_the_window_loop_over_a_trefw(profile, timing):
    exp = grid_chip(weak(profile), 16384, timing)
    for setup in grid_setups(exp):
        for trr in SAMPLERS:
            assert_matches_reference(exp, setup, trr, timing.refs_per_refw)


def test_ddr4_bank_matches_the_window_loop_over_a_trefw(profile):
    """At 2^17 rows, a DDR4 bank's size, each REF refreshes 16 rows:
    both techniques, TRR off and on, over one tREFW."""
    exp = grid_chip(weak(profile), 2**17)
    assert exp.timing.rows_per_ref(exp.layout.rows) == 16
    for setup in (make_rh_setup(exp.layout, 4), make_simra_setup(exp.groups, n=32)):
        off, on = (assert_matches_reference(exp, setup, trr, exp.timing.refs_per_refw)
                   for trr in (None, TrrConfig()))
        assert off.bitflips > 0 and on.trr_refreshes > 0


def test_a_large_bank_keeps_no_per_row_reset_arrays(profile):
    """At 2^20 rows a REF refreshes 128 rows.  Over 123,361 windows a run
    keeps a few values a window and a few for each reset of a victim; a
    value for every row each REF refreshes would take 123 MB."""
    layout = SubarrayLayout.uniform(2**20, 1024)
    groups = SimraGroupMap.aligned_blocks(layout, 32)
    exp = Experiment(replace(profile, thresholds={SIMRA: profile.thresholds[SIMRA]}), groups)
    setup = make_simra_setup(groups, n=32)
    tracemalloc.start()
    try:
        res = run_bypass(exp, setup, TrrConfig(), 123361, exp.timing.t_ras)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.bitflips > 0 and res.trr_refreshes > 0
    assert peak < 16 * 2**20


@pytest.mark.parametrize("t_refw", [TimingParams().t_refw, TimingParams().t_refi],
                         ids=["8205-refs", "one-ref"])
@pytest.mark.parametrize("technique, stride", [("rh", 1), ("simra", 1), ("simra", 3)])
def test_max_windows_covers_what_a_run_holds(profile, technique, stride, t_refw):
    """With TRR on, a run keeps at most `MAX_WINDOW_VALUES` int64 values
    for each `max_windows` windows, also where each REF refreshes every
    row and reaches every victim, and where group rows are spread out."""
    layout = SubarrayLayout.uniform(1024, 1024)
    groups = SimraGroupMap.aligned_blocks(layout, 32, stride)
    exp = Experiment(profile, groups, timing=TimingParams(t_refw=t_refw), seed=3)
    setup = make_rh_setup(layout, 4) if technique == "rh" else make_simra_setup(groups, n=32)
    windows = 40001
    tracemalloc.start()
    try:
        run_bypass(exp, setup, TrrConfig(), windows, T_ON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * MAX_WINDOW_VALUES * windows / max_windows(exp.timing, 1024, setup)


def test_other_conditions_match_the_window_loop(profile):
    exp = grid_chip(weak(profile), 1024, temp_c=50.0, dp_aggr=0xFF)
    for setup in grid_setups(exp):
        for trr in SAMPLERS:
            for windows in (21, exp.timing.refs_per_refw):
                assert_matches_reference(exp, setup, trr, windows)


def test_segment_damage_is_the_running_sum(profile):
    """A segment's damage is its dose added once per aggressor window, as
    the window loop adds it, not the dose times the count.  The two differ
    by a few ulps, so victim 1001 gets a threshold where they fall on
    opposite sides of the flip point."""
    exp = grid_chip(profile, 8192)
    setup = BypassSetup(RH, {1000: (1000,), 1002: (1002,)})
    units = _window_doses(exp, setup, exp.timing.t_ras)[1001]
    doses = 100  # 397 windows end before row 1001's periodic refresh

    def running(theta):
        f = 0.0
        for _ in range(doses):
            f += units / theta
        return f

    near = units * doses / FLIP_AT * (1 + np.arange(-3000, 3000) * 2e-16)
    theta = next(t for t in near if (running(t) >= FLIP_AT) != (doses * (units / t) >= FLIP_AT))
    exp.thresholds.theta[RH][1001] = theta
    fast = assert_matches_reference(exp, setup, None, 4 * (doses - 1) + 1)
    assert fast.per_victim[1001] == (running(theta) >= FLIP_AT)


def test_batched_sampler_draw_matches_one_draw_per_window():
    """`run_bypass` draws every REF's sample in one call over the
    sampler's fill ramp; the values must be those of one scalar draw per
    window, in window order."""
    acts, size = TimingParams().acts_per_refi, TrrConfig().sampler_size
    highs = np.minimum(size, acts * (np.arange(3000) + 1))
    assert highs[:4].tolist() == [156, 312, 450, 450]
    batched = substream(3, "trr.sampler").integers(highs)
    one_by_one = substream(3, "trr.sampler")
    assert batched.tolist() == [int(one_by_one.integers(h)) for h in highs.tolist()]
