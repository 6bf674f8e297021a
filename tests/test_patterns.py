"""Pattern generators and the command-trace text format."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pudsim import (
    Bank,
    PatternSpec,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
)
from pudsim.dram import KIND_COMRA, KIND_SIMRA, CommandEvent, HammerEffect
from pudsim.errors import ConfigError
from pudsim.patterns import (
    PATTERN_KINDS,
    gen_comra,
    gen_rowhammer,
    gen_simra,
    generate,
    keeps_order,
    repeated_events,
    trace_lines,
)

from methodology import DataBank

TIMING = TimingParams()


def apply_stream(events, rows=64, groups_n=None, sub_rows=32, data=None):
    """A `DataBank` whose rows hold `data`, after the events, and the
    effects they produced."""
    layout = SubarrayLayout.uniform(rows, sub_rows)
    groups = (SimraGroupMap.aligned_blocks(layout, groups_n) if groups_n
              else SimraGroupMap(layout, ()))
    bank = DataBank(Bank(TIMING, groups))
    bank.data.update(data or {})
    effects = []
    for e in events:
        effects.extend(bank.apply(e))
    effects.extend(bank.flush())
    return bank, effects


def repeated(stream, hammers):
    """The events of `hammers` hammers of a one-hammer stream."""
    return list(repeated_events(stream, range(hammers)))


# -- generators ---------------------------------------------------------------


def test_rowhammer_stream_has_one_act_pre_per_aggressor():
    spec = PatternSpec(kind="rowhammer", aggressors=(10, 12))
    events = repeated(gen_rowhammer(spec, TIMING), 3)
    assert len(events) == 3 * 2 * 2
    kinds = [e.kind for e in events]
    assert kinds == ["ACT", "PRE"] * 6


def test_rowpress_stream_holds_rows_open_longer():
    spec = PatternSpec(kind="rowpress", aggressors=(10, 12), t_aggon=7800.0)
    s = gen_rowhammer(spec, TIMING)
    act, pre = s.events[0], s.events[1]
    assert pre.time - act.time == pytest.approx(7800.0)


def test_comra_stream_copies_when_applied():
    spec = PatternSpec(kind="comra", aggressors=(5, 6))
    events = repeated(gen_comra(spec, TIMING), 2)
    bank, effects = apply_stream(events, data={5: b"\xa5" * 8})
    assert bank.row_data(6) == b"\xa5" * 8
    # each copy cycle is one hammer of both rows, and nothing else
    assert [(e.kind, e.aggressors) for e in effects] == [(KIND_COMRA, (5, 6))] * 2


def test_comra_rejects_non_violating_gap():
    spec = PatternSpec(kind="comra", aggressors=(5, 6), pre_act_gap=14.0)
    with pytest.raises(ConfigError):
        gen_comra(spec, TIMING)


def test_simra_stream_opens_whole_group():
    spec = PatternSpec(kind="simra", aggressors=(9, 9), n=4)
    events = repeated(gen_simra(spec, TIMING), 2)
    bank, effects = apply_stream(events, groups_n=4, data={11: b"\xff" * 8})
    assert all(bank.row_data(r) == b"\x00" * 8 for r in range(8, 12))
    ops = [e for e in effects if isinstance(e, HammerEffect) and e.kind == KIND_SIMRA]
    assert len(ops) == 2
    assert all(set(op.aggressors) == {8, 9, 10, 11} for op in ops)


_SPECS = {
    "rowhammer": PatternSpec(kind="rowhammer", aggressors=(10, 12)),
    "rowpress": PatternSpec(kind="rowpress", aggressors=(10, 12), t_aggon=7800.0),
    "comra": PatternSpec(kind="comra", aggressors=(5, 6)),
    "simra": PatternSpec(kind="simra", aggressors=(9, 9), n=4, act_gap=1.0),
}


@pytest.mark.parametrize("kind", PATTERN_KINDS)
@pytest.mark.parametrize("i", [0, 1, 10**6])
def test_shifted_events_are_checked_command_events(kind, i):
    """Hammer i's events are `CommandEvent`s equal, field for field, to
    the ones the checked constructor builds from the shifted time."""
    one = generate(_SPECS[kind], TIMING)
    shifted = list(repeated_events(one, [i]))
    assert len(shifted) == len(one.events)
    for got, e in zip(shifted, one.events):
        want = CommandEvent(e.time + i * one.end_time, e.kind, e.row)
        assert type(got) is CommandEvent
        assert got._asdict() == want._asdict()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PATTERN_KINDS), st.floats(-12.0, 18.0), st.floats(-12.0, 0.4),
       st.integers(0, 400))
def test_a_pattern_that_keeps_order_replays_in_order(kind, on_exp, gap_exp, hammers):
    """Every command of the hammers of a pattern that `keeps_order`
    passes comes strictly after the one before it, the shifted times
    rounded as the replay rounds them."""
    t_on = 10**on_exp + (TIMING.t_ras if kind == "comra" else 0.0)
    spec = replace(_SPECS[kind], t_aggon=t_on, act_gap=10**gap_exp, pre_act_gap=10**gap_exp)
    one = generate(spec, TIMING)
    if keeps_order(one, hammers):
        times = [e.time for e in repeated_events(one, range(hammers))]
        assert all(a < b for a, b in zip(times, times[1:]))


def test_keeps_order_refuses_commands_that_meet():
    """At 1e300 ns, a row's PRE and the next ACT round to one time; at
    1e-300 ns, an ACT and its PRE do."""
    assert keeps_order(generate(_SPECS["rowhammer"], TIMING), 10**6)
    for kind, t_on in (("rowhammer", 1e300), ("simra", 1e-300)):
        assert not keeps_order(generate(replace(_SPECS[kind], t_aggon=t_on), TIMING), 1)


def test_generator_rejects_wrong_aggressor_count():
    with pytest.raises(ConfigError):
        PatternSpec(kind="comra", aggressors=(1, 2, 3))
    with pytest.raises(ConfigError):
        PatternSpec(kind="simra", aggressors=(1, 2), n=3)


# -- trace format ---------------------------------------------------------------


def read_trace_line(line):
    """The event one trace line describes: `<time> <CMD> <bank> [<row>]`."""
    time, kind, bank, *row = line.split()
    assert bank == "0"
    return CommandEvent(float(time), kind, *map(int, row))


def test_trace_round_trip():
    spec = PatternSpec(kind="comra", aggressors=(5, 6))
    events = repeated(gen_comra(spec, TIMING), 3)
    text = "".join(trace_lines(events))
    assert [read_trace_line(line) for line in text.splitlines()] == events

