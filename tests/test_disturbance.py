"""Threshold calibration, contribution scaling, and damage accrual."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pudsim import SubarrayLayout, load_profile, sample_thresholds
from pudsim.disturbance import (
    BIT_ESCALATION,
    BLAST_DECAY,
    COMRA,
    FLIP_DIRECTION,
    KINDS,
    MAX_DISTANCE,
    REGIONS,
    RH,
    ROW_BITS,
    SIMRA,
    SIMRA_N32_MULT,
    DEPOSIT_MEMO_SIZE,
    Bitflip,
    ChipProfile,
    DisturbanceState,
    _sample_hc,
    accumulate,
    accumulate_row,
    classify_region,
    contribution,
    deposits,
    simra_n_factor,
)
from pudsim.dram import (
    KIND_COMRA,
    KIND_RH,
    KIND_SIMRA,
    HammerEffect,
    RefreshEffect,
)
from pudsim.errors import ConfigError
from pudsim.rng import stable_hash, substream


def flat_profile(**thresholds):
    """Zero-variance profile: min == mean, no data/temp/t_on scaling."""
    th = {k: (v, v) for k, v in thresholds.items()} or {RH: (1000.0, 1000.0)}
    return ChipProfile(
        name="flat",
        thresholds=th,
        temp_step={RH: 1.0, COMRA: 1.0, SIMRA: 1.0},
        t_on_anchors={},
        dp_mult={},
    )


# -- regions -----------------------------------------------------------------


def test_region_labels_in_order():
    extent = (0, 100)
    assert classify_region(0, extent) == "Beginning"
    assert classify_region(55, extent) == "Middle"
    assert classify_region(99, extent) == "End"


@given(st.integers(min_value=5, max_value=400))
def test_region_partition_within_one_of_fifth(count):
    counts = {r: 0 for r in REGIONS}
    for row in range(count):
        counts[classify_region(row, (0, count))] += 1
    ideal = count / 5
    assert all(abs(c - ideal) <= 1 for c in counts.values())


# -- contribution scaling -----------------------------------------------------


def test_contribution_base_rates(profile):
    assert contribution(RH, None, 80.0, 36.0, 1, 1, profile) == 1.0
    assert contribution(COMRA, None, 80.0, 36.0, 1, 2, profile) == 10.0
    assert contribution(SIMRA, None, 80.0, 36.0, 1, 32, profile) == 200.0


def test_contribution_blast_decay(profile):
    near = contribution(RH, None, 80.0, 36.0, 1, 1, profile)
    far = contribution(RH, None, 80.0, 36.0, 2, 1, profile)
    assert far == pytest.approx(near * BLAST_DECAY)


def test_temperature_scaling_is_per_kind(profile):
    hot = contribution(SIMRA, None, 90.0, 36.0, 1, 32, profile)
    ref = contribution(SIMRA, None, 80.0, 36.0, 1, 32, profile)
    assert hot / ref == pytest.approx(profile.temp_step[SIMRA])
    # rowhammer on this module is far less temperature sensitive
    assert contribution(RH, None, 90.0, 36.0, 1, 1, profile) / contribution(
        RH, None, 80.0, 36.0, 1, 1, profile
    ) == pytest.approx(profile.temp_step[RH])


@given(st.floats(min_value=36.0, max_value=70200.0))
def test_t_on_factor_monotone_between_anchors(t_on):
    prof = ChipProfile(name="x", thresholds={RH: (10, 20)})
    lo = prof.t_on_factor(RH, 36.0)
    hi = prof.t_on_factor(RH, 70200.0)
    val = prof.t_on_factor(RH, t_on)
    assert lo <= val <= hi


def test_t_on_factor_clamps_outside_anchors():
    prof = ChipProfile(name="x", thresholds={RH: (10, 20)})
    assert prof.t_on_factor(RH, 1.0) == prof.t_on_factor(RH, 36.0)
    assert prof.t_on_factor(RH, 1e9) == prof.t_on_factor(RH, 70200.0)


def test_group_size_factor_reference_and_ratio():
    assert simra_n_factor(32) == pytest.approx(1.0)
    ratio = simra_n_factor(32) / simra_n_factor(2)
    assert ratio == pytest.approx(SIMRA_N32_MULT)
    sizes = [2, 4, 8, 16, 32]
    factors = [simra_n_factor(n) for n in sizes]
    assert factors == sorted(factors)


def test_flip_directions_oppose_by_default(profile):
    assert FLIP_DIRECTION[RH] != FLIP_DIRECTION[SIMRA]


def test_profile_rejects_bad_thresholds():
    with pytest.raises(ConfigError):
        ChipProfile(name="x", thresholds={RH: (100.0, 50.0)})
    with pytest.raises(ConfigError):
        ChipProfile(name="x", thresholds={"bogus": (1.0, 2.0)})


# -- threshold sampling --------------------------------------------------------


def test_zero_variance_profile_is_exact():
    layout = SubarrayLayout.uniform(256, 64)
    prof = flat_profile(rh=1000.0)
    ts = sample_thresholds(prof, layout, seed=1)
    assert np.allclose(ts.theta[RH] / prof.units_per_hammer(RH), 1000.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_population_hits_min_and_mean(profile, seed):
    layout = SubarrayLayout.uniform(4096, 512)
    ts = sample_thresholds(profile, layout, seed)
    for kind, (lo, mean) in profile.thresholds.items():
        hc = ts.theta[kind] / profile.units_per_hammer(kind)
        assert hc.min() == pytest.approx(lo, rel=1e-9)
        assert hc.mean() == pytest.approx(mean, rel=1e-9)
        assert (hc > 0).all()


def test_sampling_is_deterministic_per_seed(profile, layout):
    a = sample_thresholds(profile, layout, seed=5)
    b = sample_thresholds(profile, layout, seed=5)
    c = sample_thresholds(profile, layout, seed=6)
    for kind in a.theta:
        assert np.array_equal(a.theta[kind], b.theta[kind])
        assert not np.array_equal(a.theta[kind], c.theta[kind])
    assert np.array_equal(a.weak_bit, b.weak_bit)


def test_region_multiplier_scales_thresholds():
    layout = SubarrayLayout.uniform(100, 100)
    prof = flat_profile(rh=1000.0)
    prof.region_mult["End"] = 0.5
    ts = sample_thresholds(prof, layout, seed=0)
    hc = ts.theta[RH] / prof.units_per_hammer(RH)
    assert np.allclose(hc[:20], 1000.0)
    assert np.allclose(hc[80:], 500.0)


def reference_sample_thresholds(profile, layout, seed):
    """The per-row loop that `sample_thresholds` replaced: one region
    lookup and one `stable_hash` per row."""
    rows = layout.rows
    theta = {}
    for kind in KINDS:
        if kind not in profile.thresholds:
            continue
        lo, mean = profile.thresholds[kind]
        hc = _sample_hc(lo, mean, rows, substream(seed, f"theta.{kind}"))
        t = hc * profile.units_per_hammer(kind)
        mults = np.array([
            profile.region_mult[classify_region(r, layout.extent(r))]
            for r in range(rows)
        ])
        theta[kind] = np.maximum(t * mults, 1e-9)
    weak = np.array([stable_hash(seed, r) % 64 for r in range(rows)],
                    dtype=np.int64)
    return theta, weak


_REFERENCE_LAYOUTS = {
    "uniform": SubarrayLayout.uniform(1024, 256),
    "folded-tail": SubarrayLayout.uniform(1000, 333),  # 333, 333, 334
    "2-row-tail": SubarrayLayout.uniform(130, 64),
    "uneven": SubarrayLayout([(0, 7), (7, 2), (9, 100), (109, 13)]),
}


@pytest.mark.parametrize("name", ["skhynix_a_8gb", "nanya_c_8gb", "worstcase"])
@pytest.mark.parametrize("layout_id", sorted(_REFERENCE_LAYOUTS))
def test_sample_thresholds_matches_reference_loop(name, layout_id):
    layout = _REFERENCE_LAYOUTS[layout_id]
    # distinct multipliers, so a row binned into the wrong region shows
    mults = dict(zip(REGIONS, (0.5, 0.75, 1.0, 1.5, 2.0)))
    prof = replace(load_profile(name), region_mult=mults)
    for seed in (0, 5, 2**63, 2**63 + 12345, 2**64 - 1):
        got = sample_thresholds(prof, layout, seed)
        theta, weak = reference_sample_thresholds(prof, layout, seed)
        assert sorted(got.theta) == sorted(theta)
        for kind in theta:
            assert np.array_equal(got.theta[kind], theta[kind])
        assert got.weak_bit.dtype == np.int64
        assert np.array_equal(got.weak_bit, weak)


# -- damage accrual ------------------------------------------------------------


def hammer(row, kind=KIND_RH, t_on=36.0, time=1.0, aggressors=None):
    return HammerEffect(kind, aggressors or (row,), t_on, time)


def test_double_sided_flips_at_half_threshold():
    # theta 1000 units, both neighbors activated: 2 units per pair
    layout = SubarrayLayout.uniform(16, 16)
    prof = flat_profile(rh=500.0)  # 500 pairs * 2 units = 1000 units
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=16)
    for i in range(499):
        accumulate(state, [hammer(4, time=i + 1), hammer(6, time=i + 1.5)], ts, prof)
    assert not state.flips
    accumulate(state, [hammer(4, time=1000), hammer(6, time=1000.5)], ts, prof)
    assert [f.row for f in state.flips] == [5]
    assert state.flips[0].direction == "1to0"


def test_group_op_min_distance_single_deposit():
    layout = SubarrayLayout.uniform(16, 16)
    prof = flat_profile(simra=3.0)  # 600 units: 3 ops of 200 units over 32 rows
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=16)
    grp = tuple(range(4, 8))
    # an op over 4 rows deposits this share of a 32-row op's units
    share = SIMRA_N32_MULT ** (math.log2(4 / 32) / 4)
    for i in range(math.ceil(3 / share)):
        accumulate(state, [hammer(None, KIND_SIMRA, aggressors=grp, time=i + 1)], ts, prof)
    assert {f.row for f in state.flips} == {3, 8}
    assert all(f.direction == "0to1" for f in state.flips)


def test_refresh_restores_victim():
    layout = SubarrayLayout.uniform(16, 16)
    prof = flat_profile(rh=10.0)
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=16)
    for i in range(15):
        accumulate(state, [hammer(4, time=i + 1)], ts, prof)
        accumulate(state, [RefreshEffect(rows=(3, 5), time=i + 1.5)], ts, prof)
    assert not state.flips
    assert 3 not in state.damage and 5 not in state.damage


def test_mixed_kinds_compose_as_fractions():
    layout = SubarrayLayout.uniform(16, 16)
    prof = flat_profile(rh=10.0, comra=10.0)
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=16)
    # half the budget as activations (theta 20 units), half as copy cycles
    for i in range(10):
        accumulate(state, [hammer(4, time=i + 1)], ts, prof)  # 10 of 20 units
    for i in range(10):
        accumulate(
            state,
            [hammer(None, KIND_COMRA, aggressors=(4, 3), time=100 + i)],
            ts,
            prof,
        )  # comra deposits close the remaining half
    assert any(f.row == 5 for f in state.flips)


def test_bit_escalation_moves_to_next_bit():
    layout = SubarrayLayout.uniform(16, 16)
    prof = flat_profile(rh=1.0)
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=16)
    for i in range(4):
        accumulate(state, [hammer(4, time=i + 1), hammer(6, time=i + 1.5)], ts, prof)
    flips5 = [f for f in state.flips if f.row == 5]
    assert len(flips5) > 1
    assert len({f.bit for f in flips5}) == len(flips5)  # distinct bits


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=40))
def test_flip_iff_budget_reaches_threshold(theta, hammers):
    """Dual route: simulated accrual vs the closed-form unit count."""
    layout = SubarrayLayout.uniform(8, 8)
    prof = flat_profile(rh=float(theta))
    ts = sample_thresholds(prof, layout, seed=0)
    state = DisturbanceState(rows=8)
    for i in range(hammers):
        accumulate(state, [hammer(3, time=i + 1), hammer(5, time=i + 1.5)], ts, prof)
    expected = 2 * hammers >= 2 * theta
    assert bool(any(f.row == 4 for f in state.flips)) == expected


# -- fast accrual against the straightforward loop -------------------------------


def reference_accumulate(state, effects, thresholds, profile, temp_c=80.0, dp=None):
    """The per-victim accrual loop `accumulate` is pinned to: victims
    enumerated one by one, the contribution recomputed per victim and the
    thresholds indexed in the numpy arrays."""
    def restore(row):
        state.damage.pop(row, None)
        state.flipped.pop(row, None)

    def victims_of(aggressor):
        for d in range(1, MAX_DISTANCE + 1):
            for v in (aggressor - d, aggressor + d):
                yield v, d

    out = []
    esc = BIT_ESCALATION
    for eff in effects:
        if isinstance(eff, RefreshEffect):
            for r in eff.rows:
                restore(r)
            continue
        kind = eff.kind
        theta = thresholds.theta.get(kind)
        for a in eff.aggressors:
            restore(a)
        if theta is None:
            continue
        agg = set(eff.aggressors)
        hits = {}
        if kind == SIMRA:
            for a in agg:
                for v, d in victims_of(a):
                    if v in agg:
                        continue
                    if v not in hits or d < hits[v]:
                        hits[v] = d
            pairs = hits.items()
        else:
            pairs = []
            for a in agg:
                for v, d in victims_of(a):
                    if v not in agg:
                        pairs.append((v, d))
        # the group-size factor, from the model constant; a 32-row count
        # leaves `contribution`'s own factor at 1
        n = min(max(len(agg), 2), 32)
        n_factor = SIMRA_N32_MULT ** (math.log2(n / 32.0) / 4.0) if kind == SIMRA else 1.0
        for v, d in pairs:
            if not 0 <= v < state.rows:
                state.skipped_victims += 1
                continue
            c = contribution(kind, dp, temp_c, eff.t_on, d, 32, profile) * n_factor
            f = state.damage.get(v, 0.0) + c / theta[v]
            state.damage[v] = f
            nf = state.flipped.get(v, 0)
            while f >= esc**nf * (1.0 - 1e-9):
                out.append(Bitflip(
                    row=v,
                    bit=int((thresholds.weak_bit[v] + nf) % ROW_BITS),
                    direction=FLIP_DIRECTION[kind],
                    kind=kind,
                    time=eff.time,
                ))
                nf += 1
            if nf:
                state.flipped[v] = nf
    state.flips.extend(out)
    return out


REF_ROWS = 48
_row = st.integers(min_value=0, max_value=REF_ROWS - 1)
_time = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def _simra_op(draw):
    """A group op over an aligned group, or a partial one: any non-empty
    subset of the group's rows, as the partial window opens them."""
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    base = draw(st.integers(min_value=0, max_value=REF_ROWS // n - 1)) * n
    rows = draw(st.lists(st.sampled_from(range(base, base + n)), min_size=1, max_size=n))
    return HammerEffect(KIND_SIMRA, tuple(rows), draw(st.sampled_from([1.0, 36.0, 500.0])),
                        draw(_time))


_effect = st.one_of(
    st.builds(HammerEffect, st.just(KIND_RH), st.lists(_row, min_size=1, max_size=3).map(tuple),
              st.sampled_from([36.0, 144.0, 7800.0]), _time),
    st.builds(HammerEffect, st.just(KIND_COMRA), st.tuples(_row, _row),
              st.sampled_from([36.0, 100.0]), _time),
    _simra_op(),
    st.builds(RefreshEffect, st.lists(_row, max_size=6).map(tuple), _time),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_effect, max_size=4), min_size=1, max_size=40),
    st.sampled_from([RH, COMRA, SIMRA]),
    st.sampled_from([None, 0x00, 0x55, 0xFF]),
    st.sampled_from([50.0, 80.0, 95.0]),
    st.integers(min_value=0, max_value=3),
)
def test_accumulate_matches_reference_loop(batches, missing, dp, temp_c, seed):
    """Damage, flip counts, bitflips and skipped victims equal the
    reference loop's, in the same order, on mixed effect streams (one
    kind left inexpressible on the module)."""
    prof = ChipProfile(
        name="ref",
        thresholds={k: v for k, v in {RH: (4.0, 9.0), COMRA: (2.0, 5.0),
                                      SIMRA: (0.5, 2.0)}.items() if k != missing},
    )
    ts = sample_thresholds(prof, SubarrayLayout.uniform(REF_ROWS, 16), seed)
    fast, slow = DisturbanceState(rows=REF_ROWS), DisturbanceState(rows=REF_ROWS)
    for effects in batches:
        got = accumulate(fast, effects, ts, prof, temp_c=temp_c, dp=dp)
        assert got == reference_accumulate(slow, effects, ts, prof, temp_c=temp_c, dp=dp)
        assert list(fast.damage.items()) == list(slow.damage.items())
        assert list(fast.flipped.items()) == list(slow.flipped.items())
    assert fast.flips == slow.flips
    assert fast.skipped_victims == slow.skipped_victims


def _as_the_bank_emits(eff):
    """Group ops as `Bank` emits them: members ascending, each once."""
    if isinstance(eff, HammerEffect) and eff.kind == KIND_SIMRA:
        return eff._replace(aggressors=tuple(sorted(set(eff.aggressors))))
    return eff


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_effect.map(_as_the_bank_emits), max_size=4), min_size=1, max_size=40),
    st.sampled_from([RH, COMRA, SIMRA]),
    st.sampled_from([None, 0x00, 0x55, 0xFF]),
    st.sampled_from([50.0, 80.0, 95.0]),
    st.integers(min_value=0, max_value=3),
)
@example(
    batches=[
        [HammerEffect(KIND_COMRA, (9, 7), 36.0, 1.0)] * 8,
        [HammerEffect(KIND_RH, (0, 47), 144.0, 2.0), HammerEffect(KIND_SIMRA, (16, 18), 1.0, 3.0)],
        [RefreshEffect((6, 20), 4.0), HammerEffect(KIND_SIMRA, (17, 19, 20), 36.0, 5.0)] * 3,
    ],
    missing=RH, dp=0x00, temp_c=95.0, seed=1,
)
def test_accumulate_row_matches_accumulate(batches, missing, dp, temp_c, seed):
    """Every row's damage fraction and flipped bits from the one-row fold
    equal, bit for bit, what `accumulate` leaves for the row after each
    batch: edge rows, rows out of reach, refreshed rows and aggressors
    included, with one kind inexpressible on the module."""
    prof = ChipProfile(
        name="ref",
        thresholds={k: v for k, v in {RH: (4.0, 9.0), COMRA: (2.0, 5.0),
                                      SIMRA: (0.5, 2.0)}.items() if k != missing},
    )
    ts = sample_thresholds(prof, SubarrayLayout.uniform(REF_ROWS, 16), seed)
    state = DisturbanceState(rows=REF_ROWS)
    rows = [(0.0, 0)] * REF_ROWS
    for effects in batches:
        accumulate(state, effects, ts, prof, temp_c=temp_c, dp=dp)
        rows = [accumulate_row(r, f, nf, effects, ts, prof, temp_c, dp)
                for r, (f, nf) in enumerate(rows)]
        for r, (f, nf) in enumerate(rows):
            assert (f.hex(), nf) == (state.damage.get(r, 0.0).hex(), state.flipped.get(r, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.lists(_effect, max_size=4), st.sampled_from([None, 0x00, 0x55, 0xFF]),
                       st.sampled_from([50.0, 80.0, 95.0])), min_size=1, max_size=40),
    st.sampled_from([RH, COMRA, SIMRA]),
    st.integers(min_value=0, max_value=3),
)
def test_accumulate_on_a_warm_deposit_memo_matches_a_cold_one(batches, missing, seed):
    """Folding a stream twice over on one profile, whose `deposits` memo
    fills and then serves the second pass, leaves the damage, flipped
    bits, bitflips and skipped victims that folding it effect by effect
    leaves with the memo cleared before every call.  Each batch has its
    own data pattern and temperature, and the second pass folds each
    batch under the next one's, so the memo must tell them apart."""
    thresholds = {k: v for k, v in {RH: (4.0, 9.0), COMRA: (2.0, 5.0),
                                    SIMRA: (0.5, 2.0)}.items() if k != missing}
    temp_step = {RH: 1.2, COMRA: 1.3, SIMRA: 1.467}
    warm_prof = ChipProfile("warm", thresholds=thresholds, temp_step=temp_step)
    cold_prof = ChipProfile("cold", thresholds=thresholds, temp_step=temp_step)
    ts = sample_thresholds(warm_prof, SubarrayLayout.uniform(REF_ROWS, 16), seed)
    warm, cold = DisturbanceState(rows=REF_ROWS), DisturbanceState(rows=REF_ROWS)
    replay = [(effects, *conditions)
              for (effects, *_), (_, *conditions) in zip(batches, batches[1:] + batches[:1])]
    for effects, dp, temp_c in batches + replay:
        got = accumulate(warm, effects, ts, warm_prof, temp_c=temp_c, dp=dp)
        want = []
        for eff in effects:
            cold_prof._deposit_cache.clear()
            want += accumulate(cold, [eff], ts, cold_prof, temp_c=temp_c, dp=dp)
        assert got == want
        assert list(warm.damage.items()) == list(cold.damage.items())
        assert list(warm.flipped.items()) == list(cold.flipped.items())
    assert warm.flips == cold.flips
    assert warm.skipped_victims == cold.skipped_victims


def test_deposit_memo_stays_within_its_bound():
    """More distinct ops than the memo holds never grow it past its
    bound, and an op forgotten when it fills deposits the same again."""
    prof = flat_profile(rh=100.0)
    first = deposits(RH, (0,), 36.0, None, 80.0, prof)
    for row in range(1, 2 * DEPOSIT_MEMO_SIZE + 3):
        deposits(RH, (row,), 36.0, None, 80.0, prof)
        assert len(prof._deposit_cache) <= DEPOSIT_MEMO_SIZE
    assert (RH, (0,), 36.0, None, 80.0) not in prof._deposit_cache
    assert deposits(RH, (0,), 36.0, None, 80.0, prof) == first
    assert first == ((-1, 1.0), (1, 1.0), (-2, BLAST_DECAY), (2, BLAST_DECAY))
