"""The paper's methodology where pudsim takes the answer from its config:
reverse engineering of subarray boundaries and activation groups, and
the combined pattern of criterion 10c.

Real DDR4 chips hide their subarrays and activation groups, so the
paper discovers them with copy cycles and group writes; pudsim's chip
takes both from its config, so only tests run this.  They drive a bank
command by command, through a `DataBank` that keeps the bytes its rows
hold, and check that it reveals the layout it was built with.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from pudsim.disturbance import hammers_to_flip
from pudsim.dram import ROW_BYTES, Bank, CommandEvent, SimraGroupMap, SubarrayLayout, TimingParams
from pudsim.errors import ProtocolError, ShapeError
from pudsim.harness import Experiment, default_cap
from pudsim.patterns import PatternSpec
from pudsim.rng import substream


# ---------------------------------------------------------------------------
# Row data

# what a row never written holds
FILL = bytes(ROW_BYTES)


def majority_overwrite(contents: Sequence[bytes], tie_bias: int = 0) -> bytes:
    """Bitwise majority of equally sized rows; ties go to tie_bias."""
    if not contents:
        raise ShapeError("majority of zero rows")
    width = len(contents[0])
    if any(len(c) != width for c in contents):
        raise ShapeError("rows in a group must have equal size")
    arr = np.frombuffer(b"".join(contents), dtype=np.uint8).reshape(len(contents), width)
    counts = np.unpackbits(arr, axis=1).sum(axis=0, dtype=np.int64)
    # only an even group can tie
    maj = counts * 2 >= len(contents) if tie_bias else counts * 2 > len(contents)
    return np.packbits(maj.astype(np.uint8)).tobytes()


class DataBank:
    """A `Bank` that also keeps each row's ROW_BYTES bytes, FILL until
    written: a copy stores its source's bytes in its destination, and a
    group op, as it closes, the majority of its rows in each of them.
    The bank sees no WR, and its attributes read through."""

    def __init__(self, bank: Bank):
        self.bank = bank
        self.data: dict[int, bytes] = {}

    def __getattr__(self, name):
        return getattr(self.bank, name)

    def row_data(self, row: int) -> bytes:
        self.bank.layout.check_row(row)
        return self.data.get(row, FILL)

    def apply(self, cmd: CommandEvent) -> list:
        closing = self.bank.open
        effects = self.bank.apply(cmd)
        act = self.bank.open
        if cmd.kind == "ACT" and act.mode == "copy":
            self.data[act.rows[0]] = self.row_data(act.src)
        elif cmd.kind == "PRE" and closing is not None and closing.mode == "simra":
            contents = [self.row_data(r) for r in closing.rows]
            if len(set(contents)) > 1:  # else they are their own majority
                self.data.update(dict.fromkeys(closing.rows, majority_overwrite(contents)))
        return effects

    def write(self, row: int, payload: bytes) -> None:
        """WR `payload`, cut or zero-padded to ROW_BYTES bytes, to `row`,
        or to every row of an open group."""
        act = self.bank.open
        if act is None or act.mode != "simra" and row not in act.rows:
            raise ProtocolError(f"WR to closed row {row}" if act else "WR with no open row")
        self.data.update(dict.fromkeys(act.rows, payload[:ROW_BYTES].ljust(ROW_BYTES, b"\0")))


# ---------------------------------------------------------------------------
# Reverse engineering


class Sequencer:
    """Thin cursor over a `DataBank` for scripted command sequences."""

    def __init__(self, bank: DataBank):
        self.bank = bank
        self.t = max(0.0, bank.last_time + 1.0)

    def _do(self, kind: str, row=None, dt: float = 0.0):
        self.t += dt
        self.bank.apply(CommandEvent(self.t, kind, row))

    def act(self, row: int, gap: float):
        self._do("ACT", row, dt=gap)

    def pre(self, after: float):
        self._do("PRE", dt=after)

    def wr(self, row: int, payload: bytes, after: float = 1.0):
        # a write takes bus time, but the bank classifies no WR
        self.t += after
        self.bank.write(row, payload)


def _write_row(seq: Sequencer, row: int, payload: bytes, timing: TimingParams):
    seq.act(row, gap=timing.t_rp + 1.0)
    seq.wr(row, payload)
    seq.pre(after=timing.t_ras)


def discover_subarrays(bank: DataBank) -> SubarrayLayout:
    """Recover subarray boundaries by probing every adjacent row pair with
    a copy cycle: the copy lands only when both rows share sense amps."""
    timing = bank.timing
    rows = bank.layout.rows
    marker = bytes([0xA7]) * ROW_BYTES
    anti = bytes([0x58]) * ROW_BYTES
    seq = Sequencer(bank)
    boundaries = [0]
    for r in range(rows - 1):
        saved = (bank.row_data(r), bank.row_data(r + 1))
        _write_row(seq, r, marker, timing)
        _write_row(seq, r + 1, anti, timing)
        # copy cycle r -> r+1 through the violated gap
        seq.act(r, gap=timing.t_rp + 1.0)
        seq.pre(after=timing.t_ras)
        seq.act(r + 1, gap=PatternSpec.pre_act_gap)
        seq.pre(after=timing.t_ras)
        if bank.row_data(r + 1) != marker:
            boundaries.append(r + 1)
        bank.data[r], bank.data[r + 1] = saved
    boundaries.append(rows)
    extents = [
        (a, b - a) for a, b in zip(boundaries, boundaries[1:])
    ]
    return SubarrayLayout(extents)


def discover_simra_groups(bank: DataBank, layout: SubarrayLayout) -> SimraGroupMap:
    """Recover the activation-group map: fire ACT-PRE-ACT at every row,
    write a marker through the open group, and read back which rows took
    it.  A lone marked row means the row belongs to no group."""
    timing = bank.timing
    marker = bytes([0xC3]) * ROW_BYTES
    found: set[frozenset[int]] = set()
    seq = Sequencer(bank)
    for start, count in layout.extents:
        extent_rows = range(start, start + count)
        for r2 in extent_rows:
            saved = {r: bank.row_data(r) for r in extent_rows}
            seq.act(r2, gap=timing.t_rp + 1.0)
            seq.pre(after=PatternSpec.act_gap)
            seq.act(r2, gap=PatternSpec.act_gap)
            seq.wr(r2, marker)
            seq.pre(after=timing.t_ras)
            marked = frozenset(r for r in extent_rows if bank.row_data(r) == marker)
            if len(marked) > 1:
                found.add(marked)
            bank.data.update(saved)
    return SimraGroupMap(layout, found)


def random_layout_and_groups(
    rows: int, seed: int
) -> tuple[SubarrayLayout, SimraGroupMap]:
    """Seeded random ground truth for reverse-engineering tests."""
    rng = substream(seed, "layout")
    extents = []
    pos = 0
    while pos < rows:
        count = int(rng.integers(8, 40))
        if rows - pos - count < 8:
            count = rows - pos
        extents.append((pos, count))
        pos += count
    layout = SubarrayLayout(extents)
    sizes = [2, 4, 8, 16, 32]
    # one group size per map, like a real die; stride occasionally 2
    n = int(rng.choice([s for s in sizes if s <= min(c for _, c in extents)]))
    stride = int(rng.choice([1, 2])) if all(c >= 2 * n for _, c in extents) else 1
    return layout, SimraGroupMap.aligned_blocks(layout, n, stride)


# ---------------------------------------------------------------------------
# Combined patterns


def run_combined(
    exp: Experiment,
    victim: int,
    fractions: dict[str, float],
    comra_rows: tuple[int, int],
    simra_rows: tuple[int, int],
    simra_n: int = 2,
) -> Optional[dict]:
    """Spend the given fraction of the victim's per-kind first-flip count
    on each violation kind, then hammer conventionally until the first
    flip.  Returns per-phase hammer counts, or None if even the full
    budget never flips the victim."""
    specs = {
        "simra": PatternSpec(kind="simra", aggressors=simra_rows, n=simra_n),
        "comra": PatternSpec(kind="comra", aggressors=comra_rows),
        "rowhammer": PatternSpec(
            kind="rowhammer", aggressors=(victim - 1, victim + 1)
        ),
    }
    spent = {"simra": 0, "comra": 0, "rowhammer": 0}
    damage = 0.0
    cap = default_cap(exp.timing)
    for kind in ("simra", "comra"):
        frac = fractions.get(kind, 0.0)
        if frac <= 0.0:
            continue
        per = exp.hammer_damage(specs[kind]).get(victim, 0.0)
        hc = hammers_to_flip(per)
        if hc is None or hc > cap:
            continue
        budget = int(frac * hc)
        to_flip = hammers_to_flip(per, damage)
        if to_flip is not None and to_flip <= budget:
            spent[kind] = to_flip
            return {"hammers": spent, "total": sum(spent.values()), "flipped_in": kind}
        spent[kind] = budget
        damage += budget * per
    per_rh = exp.hammer_damage(specs["rowhammer"]).get(victim, 0.0)
    need = hammers_to_flip(per_rh, damage)
    if need is None or need > cap:
        return None
    spent["rowhammer"] = need
    return {"hammers": spent, "total": sum(spent.values()), "flipped_in": "rowhammer"}
