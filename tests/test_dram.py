"""Bank state machine and the analog-effect classifier."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pudsim import (
    Bank,
    CommandEvent,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
)
from pudsim.config import RunConfig
from pudsim.dram import (
    DRAW_BLOCK,
    DRAW_BLOCK_MAX,
    KIND_COMRA,
    KIND_RH,
    KIND_SIMRA,
    P_ACT,
    ROW_BYTES,
    HammerEffect,
    RefreshEffect,
)
from pudsim.errors import (
    AddressError,
    ConfigError,
    ProtocolError,
    ShapeError,
)
from pudsim.harness import Experiment, _victims_for
from pudsim.patterns import PatternSpec, generate, repeated_events
from pudsim.profiles import DEFAULT_PROFILE, load_profile
from pudsim.rng import substream
from pudsim.trreval import make_simra_setup

from methodology import (
    FILL,
    DataBank,
    discover_simra_groups,
    discover_subarrays,
    majority_overwrite,
    random_layout_and_groups,
)

TIMING = TimingParams()


def make_bank(rows=64, groups_n=None, sub_rows=32):
    layout = SubarrayLayout.uniform(rows, sub_rows)
    groups = (SimraGroupMap.aligned_blocks(layout, groups_n) if groups_n
              else SimraGroupMap(layout, ()))
    return Bank(TIMING, groups)


class Seq:
    """Tiny cursor so tests read as command scripts."""

    def __init__(self, bank):
        self.bank = bank
        self.t = 0.0
        self.effects = []

    def cmd(self, kind, row=None, dt=1.0):
        self.t += dt
        out = self.bank.apply(CommandEvent(time=self.t, kind=kind, row=row))
        self.effects.extend(out)
        return out

    def write(self, row, payload, dt=1.0):
        """A WR to a `DataBank`, which the bank itself never sees."""
        self.t += dt
        self.bank.write(row, payload)

    def act(self, row, gap=None):
        return self.cmd("ACT", row=row, dt=gap if gap is not None else 50.0)

    def pre(self, after=TIMING.t_ras):
        return self.cmd("PRE", dt=after)

    def hammer(self, row, times=1):
        for _ in range(times):
            self.act(row, gap=50.0)
            self.pre()

    def drain(self):
        self.effects.extend(self.bank.flush())
        return self.effects


# -- majority --------------------------------------------------------------


def majority_bitcount(contents, tie_bias):
    """Independent per-bit counting oracle."""
    n = len(contents)
    width = len(contents[0])
    out = bytearray(width)
    for byte_i in range(width):
        for bit in range(8):
            ones = sum((c[byte_i] >> bit) & 1 for c in contents)
            zeros = n - ones
            if ones > zeros:
                v = 1
            elif zeros > ones:
                v = 0
            else:
                v = tie_bias
            out[byte_i] |= v << bit
    return bytes(out)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(st.binary(min_size=8, max_size=8), min_size=2 * k, max_size=2 * k)
    ),
    st.sampled_from([0, 1]),
)
def test_majority_matches_bit_counting_oracle(contents, bias):
    assert majority_overwrite(contents, bias) == majority_bitcount(contents, bias)


def test_majority_tie_forced_by_bias():
    rows = [b"\xff", b"\xff", b"\x00", b"\x00"]
    assert majority_overwrite(rows, 0) == b"\x00"
    assert majority_overwrite(rows, 1) == b"\xff"


@given(st.binary(min_size=8, max_size=8), st.integers(min_value=1, max_value=32),
       st.sampled_from([0, 1]))
def test_majority_of_identical_rows_is_that_row(row, n, bias):
    # a group op over rows that agree leaves them as they were
    assert majority_overwrite([row] * n, bias) == row


def test_majority_rejects_mixed_widths():
    with pytest.raises(ShapeError):
        majority_overwrite([b"\x00\x00", b"\x00"])


# -- subarrays and groups ----------------------------------------------------


def test_uniform_layout_tiles_all_rows():
    layout = SubarrayLayout.uniform(64, 16)
    assert layout.extents == ((0, 16), (16, 16), (32, 16), (48, 16))
    assert layout.subarray_of(17) == 1
    assert layout.same_subarray(0, 15)
    assert not layout.same_subarray(15, 16)


def test_group_lookup_requires_same_subarray():
    layout = SubarrayLayout.uniform(64, 32)
    groups = SimraGroupMap.aligned_blocks(layout, 4)
    assert groups.group(0, 2) == (0, 1, 2, 3)
    # r1 and r2 in different subarrays: no group forms
    assert groups.group(0, 33) is None


def test_group_map_rejects_size_outside_simra_sizes():
    layout = SubarrayLayout.uniform(64, 16)
    with pytest.raises(ConfigError, match="group size 3"):
        SimraGroupMap(layout, [{0, 1, 2}])


def test_group_map_rejects_group_crossing_subarrays():
    layout = SubarrayLayout.uniform(64, 16)
    with pytest.raises(ConfigError, match="cross subarray"):
        SimraGroupMap(layout, [{14, 15, 16, 17}])
    # a member outside the bank is an address error
    with pytest.raises(AddressError):
        SimraGroupMap(layout, [{62, 63, 64, 65}])


@pytest.mark.parametrize("groups", [
    [{0, 1}, {1, 2}],
    [range(0, 4), (8, 9), (3, 12)],
    [(0, 1), (1, 0)],  # the same group twice
])
def test_group_map_rejects_a_row_in_two_groups(groups):
    layout = SubarrayLayout.uniform(64, 16)
    with pytest.raises(ConfigError, match="only one group"):
        SimraGroupMap(layout, groups)


def test_groups_are_sorted_and_listed_once():
    layout = SubarrayLayout.uniform(64, 16)
    groups = SimraGroupMap(layout, [[9, 8], {7, 5}, range(3, -1, -1)])
    assert groups.groups == ((0, 1, 2, 3), (5, 7), (8, 9))
    # every member reads its own group, any other row none
    for r in range(16):
        want = next((g for g in groups.groups if r in g), None)
        assert groups.group(0, r) == want


def reference_aligned_blocks(layout, n, stride):
    """Row by row: a row is grouped when its offset in the block of n*stride
    rows is a multiple of stride and the block fits in the extent."""
    span = n * stride
    table = {}
    for start, count in layout.extents:
        for r in range(start, start + count):
            block, off = divmod(r - start, span)
            if off % stride or (block + 1) * span > count:
                continue
            base = start + block * span
            table[r] = frozenset(range(base, base + span, stride))
    return table


@pytest.mark.parametrize("n", [2, 4, 32])
@pytest.mark.parametrize("stride", [1, 2])
def test_aligned_blocks_match_reference(n, stride):
    for layout in (SubarrayLayout.uniform(512, 128),
                   SubarrayLayout([(0, 70), (70, 130), (200, 6)])):
        groups = SimraGroupMap.aligned_blocks(layout, n, stride)
        table = reference_aligned_blocks(layout, n, stride)
        for r in range(layout.rows):
            want = table.get(r)
            assert groups.group(r, r) == (None if want is None else tuple(sorted(want)))
        assert list(groups.groups) == sorted(set(groups.groups))


def test_aligned_blocks_by_hand():
    # stride 2 leaves odd offsets and the rows past the last block ungrouped
    small = SimraGroupMap.aligned_blocks(SubarrayLayout([(0, 10), (10, 6)]), 2, 2)
    assert small.groups == ((0, 2), (4, 6), (10, 12))


def test_discovery_recovers_a_stride_2_map():
    layout = SubarrayLayout.uniform(64, 32)
    truth = SimraGroupMap.aligned_blocks(layout, 4, 2)
    found = discover_simra_groups(DataBank(Bank(TIMING, truth)), layout)
    assert found.groups == truth.groups
    assert found.groups[:2] == ((0, 2, 4, 6), (8, 10, 12, 14))


# -- readers of the group map ----------------------------------------------------
#
# The victim sweep and the TRR setup once scanned a per-row table; those
# scans are the references the readers of `groups` are pinned to.


def reference_victims(layout, table, n, per_subarray):
    """The row after each group of n whose key is the group's last row,
    in key order, at most per_subarray per subarray."""
    picks, seen = [], {}
    for r2 in sorted(table):
        grp = table[r2]
        if len(grp) != n or r2 != max(grp):
            continue
        sub = layout.subarray_of(r2)
        if seen.get(sub, 0) >= per_subarray:
            continue
        start, count = layout.extent(r2)
        if max(grp) + 1 >= start + count:
            continue
        seen[sub] = seen.get(sub, 0) + 1
        picks.append((max(grp) + 1, (r2, r2)))
    return picks


def reference_simra_setup(table, n, count):
    """The interior row of each sorted group of n, in key order, skipping
    interiors already chosen or inside a chosen group, each with its
    group, sorted by interior row."""
    chosen = {}
    for r2 in sorted(table):
        grp = sorted(table[r2])
        if len(grp) != n:
            continue
        interior = grp[len(grp) // 2]
        if interior in chosen or interior == grp[0] or interior == grp[-1]:
            continue
        if any(interior in g for g in chosen.values()):
            continue
        chosen[interior] = tuple(grp)
        if len(chosen) >= count:
            break
    return dict(sorted(chosen.items()))


_MAPS = {
    "stride1": (SubarrayLayout.uniform(1024, 256), 32, 1),
    "stride2": (SubarrayLayout.uniform(1024, 256), 32, 2),
    "rows8192": (RunConfig(rows=8192, subarrays=8).layout(), 32, 1),
    "short_tail": (SubarrayLayout([(0, 70), (70, 130), (200, 6)]), 4, 1),
    "short_tail_stride2": (SubarrayLayout([(0, 70), (70, 130), (200, 6)]), 4, 2),
}


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_victims_and_trr_groups_match_the_per_row_scans(name):
    layout, n, stride = _MAPS[name]
    groups = SimraGroupMap.aligned_blocks(layout, n, stride)
    table = reference_aligned_blocks(layout, n, stride)
    exp = Experiment(load_profile(DEFAULT_PROFILE), groups)
    template = PatternSpec(kind="simra", aggressors=(0, 0), n=n)
    for per_subarray in (1, 3, 100):
        got = [(v, spec.aggressors) for v, spec in _victims_for(exp, template, per_subarray)]
        assert got == reference_victims(layout, table, n, per_subarray)
    setup = make_simra_setup(groups, n)
    assert list(setup.opened.items()) == list(reference_simra_setup(table, n, 4).items())
    few = SimraGroupMap(layout, [g for g in groups.groups if len(g) == n][:3])
    with pytest.raises(ConfigError, match="only 3 groups"):
        make_simra_setup(few, n)


# -- nominal command streams are free of multi-row effects -------------------


def test_nominal_stream_emits_only_single_row_hammers():
    b = make_bank()
    s = Seq(b)
    s.hammer(5, times=3)
    s.hammer(9, times=2)
    effects = s.drain()
    assert all(isinstance(e, HammerEffect) and e.kind == KIND_RH for e in effects)
    assert [e.aggressors for e in effects] == [(5,)] * 3 + [(9,)] * 2


def test_nominal_activation_t_on_is_act_to_pre():
    b = make_bank()
    s = Seq(b)
    s.act(3)
    s.cmd("PRE", dt=120.0)
    (eff,) = s.drain()
    assert eff.t_on == pytest.approx(120.0)


# -- copy cycles -------------------------------------------------------------


def copy_cycle(s, src, dst, gap=7.5, t_on=TIMING.t_ras):
    s.act(src, gap=50.0)
    s.cmd("PRE", dt=t_on)
    s.act(dst, gap=gap)
    s.pre()


def comra_hammers(effects):
    return [e.aggressors for e in effects if isinstance(e, HammerEffect) and e.kind == KIND_COMRA]


def test_copy_moves_data_within_subarray():
    b = DataBank(make_bank())
    b.data[2] = b"\xa5" * 8
    b.data[3] = b"\x00" * 8
    s = Seq(b)
    copy_cycle(s, 2, 3)
    assert b.row_data(3) == b"\xa5" * 8
    # the cycle's one effect is a hammer of both rows, which restores them
    assert s.drain() == [HammerEffect(KIND_COMRA, (2, 3), TIMING.t_ras, s.t)]


def test_copy_is_idempotent():
    b = DataBank(make_bank())
    b.data[2] = b"\xa5" * 8
    s = Seq(b)
    copy_cycle(s, 2, 3)
    first = b.row_data(3)
    copy_cycle(s, 2, 3)
    assert b.row_data(3) == first == b.row_data(2)


def test_cross_subarray_copy_does_not_move_data():
    b = DataBank(make_bank(rows=64, sub_rows=32))
    b.data[31] = b"\xa5" * 8
    before = b.row_data(32)
    s = Seq(b)
    copy_cycle(s, 31, 32)
    assert b.row_data(32) == before
    assert not comra_hammers(s.drain())


def test_short_source_open_time_fails_copy():
    b = DataBank(make_bank())
    b.data[2] = b"\xa5" * 8
    before = b.row_data(3)
    s = Seq(b)
    copy_cycle(s, 2, 3, t_on=10.0)  # source closed before full restore
    assert b.row_data(3) == before
    assert not comra_hammers(s.drain())


def test_one_copy_cycle_is_one_hammer_of_both_rows():
    b = make_bank()
    s = Seq(b)
    copy_cycle(s, 2, 3)
    hams = [e for e in s.drain() if isinstance(e, HammerEffect)]
    assert len(hams) == 1
    assert hams[0].kind == KIND_COMRA
    assert set(hams[0].aggressors) == {2, 3}


# -- violating gaps outside the modeled windows ---------------------------
#
# Each is served as a nominal activation of the addressed row and
# recorded once in `Bank.diagnostics`; none raises.


def assert_one_nominal_act(s, row, diagnostic):
    assert len(s.bank.diagnostics) == 1
    assert diagnostic in s.bank.diagnostics[0]
    s.pre()
    hams = [e for e in s.drain() if isinstance(e, HammerEffect)]
    assert hams[-1].kind == KIND_RH and hams[-1].aggressors == (row,)
    assert not comra_hammers(s.effects)
    assert not [e for e in s.effects
                if isinstance(e, HammerEffect) and e.kind == KIND_SIMRA]


def test_unmodeled_gap_is_a_diagnostic():
    b = make_bank()
    s = Seq(b)
    s.cmd("PRE", dt=50.0)  # precharge of an idle bank: no row to copy from
    s.act(3, gap=10.0)  # below tRP
    assert_one_nominal_act(s, 3, "unmodeled gap 10 ns")


def test_group_gap_on_ungrouped_pair_is_a_diagnostic():
    b = make_bank()  # no group map
    s = Seq(b)
    s.act(4, gap=50.0)
    s.cmd("PRE", dt=3.0)
    s.act(6, gap=3.0)  # both gaps inside the multi-activation window
    assert_one_nominal_act(s, 6, "ungrouped pair (4, 6)")


def test_copy_after_short_activation_is_a_diagnostic():
    b = DataBank(make_bank())
    b.data[2] = b"\xa5" * 8
    s = Seq(b)
    s.act(2, gap=50.0)
    s.cmd("PRE", dt=10.0)  # closed before tRAS
    s.act(3, gap=7.5)  # below tRP
    assert_one_nominal_act(s, 3, "short activation (10 ns) of row 2")
    assert b.row_data(3) == b"\x00" * 8


# -- group activation ---------------------------------------------------------


def group_op(s, r1, r2, gap=3.0, t_on=TIMING.t_ras, write=None):
    s.act(r1, gap=50.0)
    s.cmd("PRE", dt=gap)
    s.act(r2, gap=gap)
    if write is not None:
        s.write(r2, write)
    s.cmd("PRE", dt=t_on)


def test_group_op_overwrites_members_with_majority():
    b = DataBank(make_bank(groups_n=4))
    for r, v in zip(range(4, 8), [b"\xff" * 8, b"\xff" * 8, b"\xff" * 8, b"\x00" * 8]):
        b.data[r] = v
    s = Seq(b)
    group_op(s, 4, 6)
    for r in range(4, 8):
        assert b.row_data(r) == b"\xff" * 8
    effects = s.drain()
    ops = [e for e in effects if isinstance(e, HammerEffect) and e.kind == KIND_SIMRA]
    assert len(ops) == 1  # the whole op is one hammer
    assert set(ops[0].aggressors) == {4, 5, 6, 7}


def test_group_op_is_destructive_on_minority_rows():
    b = DataBank(make_bank(groups_n=4))
    b.data[5] = b"\xa5" * 8  # minority content is lost
    s = Seq(b)
    group_op(s, 4, 6)
    assert b.row_data(5) == b"\x00" * 8


def test_write_during_group_overwrites_all_open_rows():
    b = DataBank(make_bank(groups_n=4))
    s = Seq(b)
    group_op(s, 4, 6, write=b"\xc3" * 8)
    for r in range(4, 8):
        assert b.row_data(r) == b"\xc3" * 8


def test_group_needs_both_gaps_inside_window():
    b = DataBank(make_bank(groups_n=4))
    s = Seq(b)
    b.data[7] = b"\xff" * 8  # the minority of rows 4-7
    group_op(s, 4, 6, gap=4.0)  # just outside the 3 ns window
    assert b.row_data(7) == b"\xff" * 8
    assert not [e for e in s.drain()
                if isinstance(e, HammerEffect) and e.kind == KIND_SIMRA]


def test_act_while_open_is_protocol_error():
    b = make_bank()
    s = Seq(b)
    s.act(2)
    with pytest.raises(ProtocolError):
        s.act(3)


def test_non_monotonic_time_rejected():
    b = make_bank()
    b.apply(CommandEvent(time=10.0, kind="ACT", row=1))
    with pytest.raises(ProtocolError):
        b.apply(CommandEvent(time=10.0, kind="PRE"))


@pytest.mark.parametrize("row", [-1, 64, 1000])
@pytest.mark.parametrize("gap", [50.0, 1.0], ids=["nominal", "after-a-pending-row"])
def test_act_outside_the_bank_is_an_address_error(row, gap):
    """An ACT to a row outside the bank raises before it is classified,
    whether or not a closed row waits for context."""
    s = Seq(make_bank(groups_n=4))
    s.act(1)
    s.pre(after=gap)
    with pytest.raises(AddressError) as e:
        s.act(row, gap=gap)
    assert str(e.value) == f"row {row} outside [0, 64)"


@pytest.mark.parametrize("a, b, bad", [(64, 3, 64), (3, 64, 64), (-1, 70, -1), (70, -1, 70)])
def test_lookups_of_a_pair_reject_its_first_row_outside_the_bank(a, b, bad):
    layout = SubarrayLayout.uniform(64, 32)
    groups = SimraGroupMap.aligned_blocks(layout, 4)
    for lookup in (layout.same_subarray, groups.group):
        with pytest.raises(AddressError) as e:
            lookup(a, b)
        assert str(e.value) == f"row {bad} outside [0, 64)"


def test_write_with_no_open_row_is_a_protocol_error():
    s = Seq(DataBank(make_bank()))
    s.act(2)
    s.pre()
    with pytest.raises(ProtocolError) as e:
        s.write(2, b"\x01")
    assert str(e.value) == "WR with no open row"
    assert s.bank.row_data(2) == FILL


def test_write_to_a_closed_row_is_a_protocol_error():
    s = Seq(DataBank(make_bank()))
    s.act(2)
    with pytest.raises(ProtocolError) as e:
        s.write(3, b"\x01")
    assert str(e.value) == "WR to closed row 3"
    assert s.bank.row_data(3) == FILL


# -- refresh ------------------------------------------------------------------


def test_ref_slices_cover_all_rows_once_per_window():
    b = make_bank(rows=64)
    s = Seq(b)
    seen = []
    for _ in range(TIMING.refs_per_refw):
        (eff,) = s.cmd("REF", dt=TIMING.t_refi)
        seen.extend(eff.rows)
    assert sorted(set(seen)) == list(range(64))


def test_bank_refs_follow_the_window_array_rule():
    """REF k of the bank refreshes what `ref_rows` gives for k in an array
    of REF numbers, as `run_bypass` reads it, wrap-around included."""
    timing = TimingParams(t_refw=10 * TIMING.t_refi)  # 7 rows a REF, 64 rows
    b = Bank(timing, SimraGroupMap(SubarrayLayout.uniform(64, 32), ()))
    s = Seq(b)
    per_window = timing.ref_rows(np.arange(25), 64)
    for k in range(25):
        (eff,) = s.cmd("REF", dt=timing.t_refi)
        assert eff.rows == tuple(int(rows[k]) for rows in per_window)
        assert eff.rows == tuple((7 * k + i) % 64 for i in range(7))


def test_ref_requires_precharged_bank():
    b = make_bank()
    s = Seq(b)
    s.act(2)
    with pytest.raises(ProtocolError):
        s.cmd("REF")


@pytest.mark.parametrize("seed", range(50))
def test_partial_group_opens_rows_of_scalar_draws(seed):
    """Inside the partial window each group row opens with probability
    p_act: the bank's block of draws picks the rows one scalar draw per
    row, in row order, would pick."""
    b = make_bank(groups_n=32)
    b.rng = substream(seed, "probe.0.32")
    reference = substream(seed, "probe.0.32")
    s = Seq(b)
    group_op(s, 0, 31, gap=1.0)
    (op,) = [e for e in s.drain() if isinstance(e, HammerEffect)]
    keep = [r for r in range(32) if reference.random() < P_ACT]
    assert op.aggressors == tuple(sorted(set(keep) | {31}))


@pytest.mark.parametrize("sizes", [(4,), (8,), (32,), (4, 8, 32)])
def test_partial_ops_across_draw_blocks_open_rows_of_scalar_draws(sizes):
    """Op after op, past the last doubling of the bank's draw blocks and
    through a second block of DRAW_BLOCK_MAX draws, a partial op opens
    the rows that one scalar draw per group row, in row order, picks from
    the bank's substream, whichever row it addresses; an op outside the
    partial window opens its whole group and takes no draw.  With groups
    of several sizes, ops straddle the blocks' ends.  Between them, pairs
    on the second subarray's ungrouped rows (one row twice, or two rows)
    and pairs whose first ACT lies in that subarray are diagnosed as
    ungrouped pairs and take no draw."""
    grouped, starts = 0, []
    for n in itertools.cycle(sizes):
        if grouped + n > 128:
            break
        starts.append((grouped, n))
        grouped += n
    layout = SubarrayLayout.uniform(256, 128)  # rows 128 on belong to no group
    groups = SimraGroupMap(layout, [range(a, a + n) for a, n in starts])
    b = Bank(TIMING, groups, rng=substream(len(sizes), "probe.0.7"))
    reference = substream(len(sizes), "probe.0.7")
    s = Seq(b)
    # the draws of the blocks as they double up to DRAW_BLOCK_MAX
    doubling, block = 0, DRAW_BLOCK
    while block < DRAW_BLOCK_MAX:
        doubling, block = doubling + block, 2 * block
    doubling += DRAW_BLOCK_MAX
    draws, i, ops, diagnosed = 0, 0, 0, 0
    while draws <= doubling + DRAW_BLOCK_MAX:
        grp = groups.groups[i % len(groups.groups)]
        r2 = grp[3 * i % len(grp)]
        seen = len(s.effects)
        if i % 7 == 6:
            r1 = 128 + i % 127
            pair = ((r1, r1), (r1, r1 + 1), (r1, r2))[i // 7 % 3]
            group_op(s, *pair, gap=1.0)
            diagnosed += 1
            assert len(b.diagnostics) == diagnosed, f"op {i}"
            assert b.diagnostics[-1] == f"multi-activation gap on ungrouped pair {pair}"
        else:
            if i % 5 == 4:
                group_op(s, grp[-1], r2, gap=3.0)
                want = grp
            else:
                group_op(s, grp[-1], r2, gap=1.0)
                want = tuple(r for r in grp if reference.random() < P_ACT or r == r2)
                draws += len(grp)
            ops += 1
        new = [e for e in s.drain()[seen:] if e.kind == KIND_SIMRA]
        assert [e.aggressors for e in new] == ([want] if i % 7 != 6 else []), f"op {i}"
        i += 1
    assert len(b.diagnostics) == diagnosed and ops == i - diagnosed


def test_partial_ops_over_unwritten_rows_keep_the_default_fill():
    b = DataBank(make_bank(groups_n=8))
    s = Seq(b)
    for i in range(40):
        grp = b.groups.groups[i % len(b.groups.groups)]
        group_op(s, grp[-1], grp[i % 8], gap=1.0)
    assert [b.row_data(r) for r in range(64)] == [FILL] * 64


@pytest.mark.parametrize("seed", range(20))
def test_partial_op_over_a_written_row_writes_the_majority(seed):
    """An op whose opened rows include a written row overwrites each of
    them with their bitwise majority, unwritten rows reading the default
    fill; the rows it leaves closed keep their contents."""
    layout = SubarrayLayout.uniform(64, 32)
    b = DataBank(Bank(TIMING, SimraGroupMap.aligned_blocks(layout, 8),
                      rng=substream(seed, "probe.0.9")))
    reference = substream(seed, "probe.0.9")
    for r in (8, 9, 10, 12, 13, 15):  # rows 11 and 14 stay unwritten
        b.data[r] = bytes([r * 0x25 & 0xFF, r, 0xF0, 0x0F, r << 4 & 0xFF, 0, 0xFF, r])
    before = [b.row_data(r) for r in range(64)]
    opened = [r for r in range(8, 16) if reference.random() < P_ACT or r == 13]
    s = Seq(b)
    group_op(s, 15, 13, gap=1.0)
    (op,) = [e for e in s.drain() if isinstance(e, HammerEffect)]
    assert op.aggressors == tuple(opened)
    maj = majority_bitcount([before[r] for r in opened], 0)
    assert [b.row_data(r) for r in range(64)] == [
        maj if r in opened else before[r] for r in range(64)]


@pytest.mark.parametrize("seed", range(10))
def test_rows_an_op_leaves_closed_do_not_reach_its_opened_rows(seed):
    """Writing the group rows a partial op leaves closed changes none of
    the rows it opens, even where they are most of the group."""
    bank = make_bank(groups_n=32)
    bank.rng = substream(seed, "probe.0.32")
    b = DataBank(bank)
    reference = substream(seed, "probe.0.32")
    opened = [r for r in range(32) if reference.random() < P_ACT or r == 31]
    closed = [r for r in range(32) if r not in opened]
    for r in closed:
        b.data[r] = b"\xff" * ROW_BYTES
    s = Seq(b)
    group_op(s, 0, 31, gap=1.0)
    (op,) = [e for e in s.drain() if isinstance(e, HammerEffect)]
    assert op.aggressors == tuple(opened)
    assert [b.row_data(r) for r in opened] == [FILL] * len(opened)
    assert [b.row_data(r) for r in closed] == [b"\xff" * ROW_BYTES] * len(closed)


@pytest.mark.parametrize("n,stride", [(2, 1), (8, 2), (32, 1)])
def test_partial_group_ops_list_their_rows_ascending(n, stride):
    """A partial op lists the rows it opened in ascending order, without
    repeats, whichever group row is addressed: the one-row fold of the
    damage model finds a victim's nearest member by bisection."""
    layout = SubarrayLayout.uniform(64, 64)
    groups = SimraGroupMap.aligned_blocks(layout, n, stride)
    for grp in groups.groups[:2]:
        for r2 in grp:
            b = Bank(TIMING, groups, rng=substream(r2, "probe.0"))
            s = Seq(b)
            for _ in range(20):
                group_op(s, grp[-1], r2, gap=1.0)
            ops = [e.aggressors for e in s.drain() if e.kind == KIND_SIMRA]
            assert len(ops) == 20 and all(r2 in rows for rows in ops)
            assert all(rows == tuple(sorted(set(rows))) for rows in ops)
            assert any(rows != grp for rows in ops)


# -- the byte layer of a DataBank never changes classification ----------------


class Recording(DataBank):
    """A `DataBank` that logs each command it applies with the effects
    the bank returned and the open rows and diagnostics it held after."""

    def __init__(self, bank):
        super().__init__(bank)
        self.log = []

    def apply(self, cmd):
        effects = super().apply(cmd)
        self.log.append((cmd, effects, self.bank.open, list(self.bank.diagnostics)))
        return effects


def assert_bare_bank_agrees(recorded, bare):
    """A bare bank fed the commands `recorded` applied returns the same
    effects and holds the same open rows and diagnostics after each, and
    ends at the same time with the same deferred hammer."""
    for cmd, effects, act, diagnostics in recorded.log:
        assert (bare.apply(cmd), bare.open, bare.diagnostics) == (effects, act, diagnostics), cmd
    assert (bare.flush(), bare.last_time) == (recorded.flush(), recorded.last_time)


_STREAMS = {
    "rowhammer": PatternSpec(kind="rowhammer", aggressors=(10, 12)),
    "rowpress": PatternSpec(kind="rowpress", aggressors=(10, 12), t_aggon=7800.0),
    "comra": PatternSpec(kind="comra", aggressors=(5, 6)),
    "comra-across-subarrays": PatternSpec(kind="comra", aggressors=(31, 32)),
    "simra": PatternSpec(kind="simra", aggressors=(9, 9), n=8),
    "simra-partial": PatternSpec(kind="simra", aggressors=(15, 9), n=8, act_gap=1.0),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(_STREAMS))
def test_data_bank_classifies_pattern_streams_as_a_bare_bank(name, seed):
    """Fed 30 hammers of a pattern over rows of differing bytes, with a
    write after some of its ACTs, a `DataBank` returns the effects a bare
    bank on the same draws returns, command by command."""
    def make():
        groups = SimraGroupMap.aligned_blocks(SubarrayLayout.uniform(64, 32), 8)
        return Bank(TIMING, groups, rng=substream(seed, "probe"))

    rec = Recording(make())
    rec.data.update({r: bytes([r * 37 & 0xFF]) * ROW_BYTES for r in range(0, 64, 3)})
    for i, cmd in enumerate(repeated_events(generate(_STREAMS[name], TIMING), range(30))):
        rec.apply(cmd)
        if cmd.kind == "ACT" and i % 8 == 2:
            rec.write(cmd.row, bytes([i & 0xFF]) * ROW_BYTES)
    assert_bare_bank_agrees(rec, make())


@pytest.mark.parametrize("seed", range(3))
def test_data_bank_classifies_the_discovery_sequences_as_a_bare_bank(seed):
    """The copy cycles, group ops and writes that recover a layout reach
    the bank as they would reach a bare bank."""
    layout, groups = random_layout_and_groups(128, seed)
    rec = Recording(Bank(TIMING, groups))
    assert discover_simra_groups(rec, discover_subarrays(rec)).groups == groups.groups
    assert_bare_bank_agrees(rec, Bank(TIMING, groups))


def test_command_event_checks_kind_and_row_and_is_immutable():
    with pytest.raises(ConfigError, match="unknown command kind 'NOP'"):
        CommandEvent(1.0, "NOP")
    with pytest.raises(ConfigError, match="ACT requires a row"):
        CommandEvent(1.0, "ACT")
    ev = CommandEvent(1.0, "ACT", 3)
    assert (ev.time, ev.kind, ev.row) == (1.0, "ACT", 3)
    assert CommandEvent(2.0, "PRE").row is None
    with pytest.raises(AttributeError):
        ev.time = 2.0
    with pytest.raises(AttributeError):
        ev.extra = 1
    # the tuple's own constructors run the same checks
    assert ev._replace(time=2.0) == CommandEvent(2.0, "ACT", 3)
    with pytest.raises(ConfigError, match="ACT requires a row"):
        ev._replace(row=None)
    with pytest.raises(ConfigError, match="unknown command kind 'NOP'"):
        CommandEvent._make((1.0, "NOP", None))


def test_effect_records_are_immutable_keyword_built_tuples():
    ham = HammerEffect(kind=KIND_RH, aggressors=(4,), t_on=36.0, time=1.0)
    ref = RefreshEffect(rows=(4,), time=1.0)
    assert (ham.kind, ham.aggressors, ham.t_on, ham.time) == (KIND_RH, (4,), 36.0, 1.0)
    assert ham == HammerEffect(KIND_RH, (4,), 36.0, 1.0)
    assert (ref.rows, ref.time) == ((4,), 1.0)
    for eff, field in ((ham, "time"), (ref, "rows"), (ham, "extra"), (ref, "extra")):
        with pytest.raises(AttributeError):
            setattr(eff, field, 2.0)
    # a hammer and a refresh of the same rows at the same time differ
    assert ham != ref and ref != ham
