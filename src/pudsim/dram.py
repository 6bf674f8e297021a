"""DRAM organization, command timing, and the analog side effects of
timing-violating command sequences.

Two violation windows are modeled on top of nominal operation:

* in-DRAM row copy: PRE->ACT gap below tRP while the previous row's data
  is still latched in the sense amplifiers copies source data into the
  destination row (same subarray only);
* simultaneous multi-row activation: ACT-PRE-ACT with both gaps inside a
  few nanoseconds keeps the first row's wordline asserted, activating a
  whole predefined group of rows at once.  Closing the group overwrites
  every member with the bitwise majority of the group's contents.

Each of these sequences also disturbs neighboring rows; the bank emits
`HammerEffect` records that the disturbance model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AddressError,
    ConfigError,
    ProtocolError,
    ShapeError,
    UndefinedTimingError,
)

KIND_RH = "rh-act"
KIND_COMRA = "comra-cycle"
KIND_SIMRA = "simra-op"

SIMRA_SIZES = (2, 4, 8, 16, 32)

COMMANDS = ("ACT", "PRE", "RD", "WR", "REF", "RFM")


@dataclass(frozen=True)
class TimingParams:
    """Interface timings in nanoseconds.

    acts_per_refi is the ACT budget a controller can spend between two
    periodic refreshes at the nominal rate.
    """

    t_ras: float = 36.0
    t_rp: float = 13.5
    t_refi: float = 7800.0
    t_refw: float = 64_000_000.0
    acts_per_refi: int = 156

    def __post_init__(self):
        for name in ("t_ras", "t_rp", "t_refi", "t_refw"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.acts_per_refi < 1:
            raise ConfigError("acts_per_refi must be >= 1")

    @property
    def t_rc(self) -> float:
        """Row cycle: one activation held for tRAS, then precharged."""
        return self.t_ras + self.t_rp

    @property
    def refs_per_refw(self) -> int:
        return max(1, int(self.t_refw // self.t_refi))


@dataclass(frozen=True)
class Geometry:
    """Channel/rank/chip/bank/row/column organization of one device."""

    channels: int = 1
    ranks: int = 1
    chips: int = 1
    banks: int = 8
    rows: int = 1024
    cols: int = 64
    row_bytes: int = 8

    def __post_init__(self):
        for name in ("channels", "ranks", "chips", "banks", "rows", "cols", "row_bytes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside [0, {self.rows})")

    def check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks:
            raise AddressError(f"bank {bank} outside [0, {self.banks})")


class RowMapping:
    """Logical (bus) row address <-> physical (array) row translation.

    Supported kinds: identity, XOR/permute of address bits, explicit table.
    Translation is bijective by construction; `to_logical` inverts
    `to_physical` exactly.
    """

    def __init__(self, rows: int, table: Optional[Sequence[int]] = None):
        self.rows = rows
        if table is None:
            self._fwd = None
            self._inv = None
        else:
            fwd = list(table)
            if len(fwd) != rows or sorted(fwd) != list(range(rows)):
                raise ConfigError("row mapping table must be a permutation of all rows")
            self._fwd = fwd
            inv = [0] * rows
            for logical, phys in enumerate(fwd):
                inv[phys] = logical
            self._inv = inv

    @classmethod
    def identity(cls, rows: int) -> "RowMapping":
        return cls(rows)

    @classmethod
    def bit_swap(cls, rows: int, lo_bit: int = 1, hi_bit: int = 2) -> "RowMapping":
        """Mapping that swaps two row-address bits (a common remap style)."""
        if rows & (rows - 1):
            raise ConfigError("bit_swap mapping needs a power-of-two row count")
        table = []
        for r in range(rows):
            a = (r >> lo_bit) & 1
            b = (r >> hi_bit) & 1
            m = r & ~((1 << lo_bit) | (1 << hi_bit))
            table.append(m | (b << lo_bit) | (a << hi_bit))
        return cls(rows, table)

    def to_physical(self, logical: int) -> int:
        if not 0 <= logical < self.rows:
            raise AddressError(f"row {logical} outside [0, {self.rows})")
        return logical if self._fwd is None else self._fwd[logical]

    def to_logical(self, physical: int) -> int:
        if not 0 <= physical < self.rows:
            raise AddressError(f"row {physical} outside [0, {self.rows})")
        return physical if self._inv is None else self._inv[physical]


class SubarrayLayout:
    """Partition of a bank's rows into contiguous subarray extents."""

    def __init__(self, extents: Sequence[tuple[int, int]]):
        ext = sorted((int(s), int(c)) for s, c in extents)
        pos = 0
        for start, count in ext:
            if start != pos:
                raise ConfigError("subarray extents must tile the row space without gaps")
            if count < 2:
                raise ConfigError("subarray extents must hold at least 2 rows")
            pos = start + count
        self.extents: tuple[tuple[int, int], ...] = tuple(ext)
        self.rows = pos
        self._index = np.empty(pos, dtype=np.int32)
        for i, (start, count) in enumerate(self.extents):
            self._index[start : start + count] = i

    @classmethod
    def uniform(cls, rows: int, subarray_rows: int) -> "SubarrayLayout":
        if subarray_rows < 2:
            raise ConfigError("subarray_rows must be >= 2")
        extents = []
        pos = 0
        while pos < rows:
            count = min(subarray_rows, rows - pos)
            extents.append((pos, count))
            pos += count
        if extents and extents[-1][1] < 2:
            # fold a too-small tail into the previous extent
            start, count = extents[-2]
            extents[-2] = (start, count + extents[-1][1])
            extents.pop()
        return cls(extents)

    def subarray_of(self, row: int) -> int:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside [0, {self.rows})")
        return int(self._index[row])

    def extent(self, row: int) -> tuple[int, int]:
        return self.extents[self.subarray_of(row)]

    def same_subarray(self, a: int, b: int) -> bool:
        return self.subarray_of(a) == self.subarray_of(b)

    def __eq__(self, other):
        return isinstance(other, SubarrayLayout) and self.extents == other.extents

    def __hash__(self):
        return hash(self.extents)

    def __repr__(self):
        return f"SubarrayLayout({list(self.extents)})"


class SimraGroupMap:
    """Ground-truth grouping of rows wired to activate together.

    The map answers: given an ACT(r1)-PRE-ACT(r2) sequence inside one
    subarray with both gaps in the multi-activation window, which rows
    open?  Groups are stored per second-activation row; sizes are limited
    to {2, 4, 8, 16, 32}.
    """

    def __init__(self, layout: SubarrayLayout, table: dict[int, frozenset[int]]):
        self.layout = layout
        clean: dict[int, frozenset[int]] = {}
        # keys often share one group object: check each object once
        checked: dict[int, frozenset[int]] = {}
        for r2, rows in table.items():
            grp = checked.get(id(rows))
            if grp is None:
                grp = frozenset(int(r) for r in rows)
                if len(grp) not in SIMRA_SIZES:
                    raise ConfigError(f"group size {len(grp)} not in {SIMRA_SIZES}")
                # extents are contiguous, so the end rows decide
                if layout.subarray_of(min(grp)) != layout.subarray_of(max(grp)):
                    raise ConfigError("a group may not cross subarray boundaries")
                checked[id(rows)] = grp
            if r2 not in grp:
                raise ConfigError("the activated row must belong to its own group")
            clean[int(r2)] = grp
        self.table = clean

    @classmethod
    def aligned_blocks(cls, layout: SubarrayLayout, n: int, stride: int = 1) -> "SimraGroupMap":
        """Groups of n rows at the given stride, block-aligned inside each
        subarray.  Rows past the last full block belong to no group."""
        if n not in SIMRA_SIZES:
            raise ConfigError(f"group size {n} not in {SIMRA_SIZES}")
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        table: dict[int, frozenset[int]] = {}
        span = n * stride
        for start, count in layout.extents:
            for base in range(start, start + count - span + 1, span):
                grp = frozenset(base + i * stride for i in range(n))
                for r in grp:
                    table[r] = grp
        return cls(layout, table)

    def group(self, r1: int, r2: int) -> Optional[frozenset[int]]:
        """Rows activated by the pair, or None when the pair hits no group
        (cross-subarray pairs never do)."""
        if not self.layout.same_subarray(r1, r2):
            return None
        return self.table.get(r2)

    def sizes(self) -> set[int]:
        return {len(g) for g in self.table.values()}

    def __eq__(self, other):
        return isinstance(other, SimraGroupMap) and self.table == other.table

    def __repr__(self):
        return f"SimraGroupMap({len(self.table)} rows grouped)"


@dataclass(frozen=True)
class CommandEvent:
    """One bus command.  time is absolute nanoseconds; row/payload are
    optional depending on the command kind."""

    time: float
    kind: str
    bank: int = 0
    row: Optional[int] = None
    payload: Optional[bytes] = None

    def __post_init__(self):
        if self.kind not in COMMANDS:
            raise ConfigError(f"unknown command kind {self.kind!r}")
        if self.kind in ("ACT", "WR", "RD") and self.row is None:
            raise ConfigError(f"{self.kind} requires a row")


# ---------------------------------------------------------------------------
# Analog effects emitted by the bank model


@dataclass(frozen=True)
class HammerEffect:
    """One charge-disturbance event seen by aggressor neighbors.

    kind: 'rh-act' (one nominal activation), 'comra-cycle' (one complete
    copy cycle, both rows acted as aggressors), 'simra-op' (one complete
    multi-activation op over the whole group).
    """

    kind: str
    aggressors: tuple[int, ...]
    t_on: float
    time: float


@dataclass(frozen=True)
class CopyEffect:
    src: int
    dst: int
    time: float


@dataclass(frozen=True)
class GroupOverwrite:
    rows: tuple[int, ...]
    time: float


@dataclass(frozen=True)
class RefreshEffect:
    rows: tuple[int, ...]
    time: float


@dataclass
class AnalogConfig:
    """Windows and behaviors of the modeled timing violations."""

    copy_gap_max: Optional[float] = None  # None -> anything below tRP
    simra_gap_max: float = 3.0
    partial_gap_max: float = 1.5
    p_act: float = 1.0 / 2.28  # per-row activation prob. in the partial window
    tie_bias: int = 0  # majority tie -> this bit value
    default_fill: int = 0x00
    strict_timing: bool = False  # unmodeled violating gap: raise vs. nominal

    def __post_init__(self):
        if not 0.0 < self.p_act <= 1.0:
            raise ConfigError("p_act must be in (0, 1]")
        if self.tie_bias not in (0, 1):
            raise ConfigError("tie_bias must be 0 or 1")
        if not 0 <= self.default_fill <= 0xFF:
            raise ConfigError("default_fill must be a byte value")


def majority_overwrite(contents: Sequence[bytes], tie_bias: int = 0) -> bytes:
    """Bitwise majority of equally sized rows; ties go to tie_bias."""
    if not contents:
        raise ShapeError("majority of zero rows")
    width = len(contents[0])
    if any(len(c) != width for c in contents):
        raise ShapeError("rows in a group must have equal size")
    arr = np.frombuffer(b"".join(contents), dtype=np.uint8).reshape(len(contents), width)
    bits = np.unpackbits(arr, axis=1)
    counts = bits.sum(axis=0, dtype=np.int64)
    n = len(contents)
    if n % 2 == 0:
        if tie_bias:
            maj = counts * 2 >= n
        else:
            maj = counts * 2 > n
    else:
        maj = counts * 2 > n
    return np.packbits(maj.astype(np.uint8)).tobytes()


@dataclass
class _Activation:
    """The rows one ACT opened: a whole group for a group op."""

    rows: tuple[int, ...]
    opened: float
    mode: str  # 'nominal' | 'copy' | 'simra'
    src: Optional[int] = None  # copy source for 'copy'
    written: bool = False


class Bank:
    """State machine for one bank: open rows, stored data, and the
    classification of command sequences into nominal vs. violating ops.

    Classification of an incoming ACT looks one closed row back, so a
    nominal activation's disturbance is emitted only once the next
    command rules out it being the first half of a copy or group op.
    """

    def __init__(
        self,
        geometry: Geometry,
        timing: TimingParams,
        layout: SubarrayLayout,
        groups: Optional[SimraGroupMap] = None,
        analog: Optional[AnalogConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if layout.rows != geometry.rows:
            raise ConfigError("subarray layout must cover exactly the bank's rows")
        self.geometry = geometry
        self.timing = timing
        self.layout = layout
        self.groups = groups
        self.analog = analog or AnalogConfig()
        self.rng = rng or np.random.default_rng(0)
        self.data: dict[int, bytes] = {}
        self.open: Optional[_Activation] = None
        self.last_pre: Optional[float] = None
        self.last_time: float = float("-inf")
        # last row closed nominally, waiting for context to resolve
        self._pending: Optional[tuple[int, float, float]] = None  # row, t_on, closed_at
        self._ref_cursor = 0
        self._fill = bytes([self.analog.default_fill]) * geometry.row_bytes
        self.diagnostics: list[str] = []

    # -- data access --------------------------------------------------------

    def row_data(self, row: int) -> bytes:
        self.geometry.check_row(row)
        return self.data.get(row, self._fill)

    def set_row_data(self, row: int, value: bytes) -> None:
        self.geometry.check_row(row)
        self.data[row] = self._pad(value)

    def _pad(self, value: bytes) -> bytes:
        w = self.geometry.row_bytes
        if len(value) == w:
            return bytes(value)
        if len(value) > w:
            return bytes(value[:w])
        return bytes(value) + bytes(w - len(value))

    # -- command application -------------------------------------------------

    def apply(self, cmd: CommandEvent) -> list:
        """Apply one command; returns the analog effects it produced."""
        if cmd.time <= self.last_time:
            raise ProtocolError(f"command at {cmd.time} not after {self.last_time}")
        effects = self._HANDLERS[cmd.kind](self, cmd)
        self.last_time = cmd.time
        return effects

    def _flush_pending(self) -> list:
        if self._pending is None:
            return []
        row, t_on, closed = self._pending
        self._pending = None
        return [HammerEffect(KIND_RH, (row,), t_on, closed)]

    def _cmd_act(self, cmd: CommandEvent) -> list:
        self.geometry.check_row(cmd.row)
        if self.open is not None:
            raise ProtocolError("ACT while a row is open (PRE first)")
        gap = float("inf") if self.last_pre is None else cmd.time - self.last_pre
        prev = self._pending
        a = self.analog
        copy_max = a.copy_gap_max if a.copy_gap_max is not None else self.timing.t_rp

        if prev is not None and gap <= a.simra_gap_max and prev[1] <= a.simra_gap_max:
            return self._act_simra(cmd, prev)
        if prev is not None and gap < copy_max:
            return self._act_copy(cmd, prev, gap)
        if gap < self.timing.t_rp:
            # violating gap outside every modeled window
            msg = f"unmodeled gap {gap:.3g} ns before ACT row {cmd.row}"
            if a.strict_timing:
                raise UndefinedTimingError(msg)
            self.diagnostics.append(msg)
        out = self._flush_pending()
        self.open = _Activation((cmd.row,), cmd.time, "nominal")
        return out

    def _act_simra(self, cmd: CommandEvent, prev: tuple[int, float, float]) -> list:
        r1, gap1, _closed = prev
        grp = self.groups.group(r1, cmd.row) if self.groups is not None else None
        if grp is None:
            msg = f"multi-activation gap on ungrouped pair ({r1}, {cmd.row})"
            if self.analog.strict_timing:
                raise UndefinedTimingError(msg)
            self.diagnostics.append(msg)
            out = self._flush_pending()
            self.open = _Activation((cmd.row,), cmd.time, "nominal")
            return out
        # the pending half-activation is part of this op, not its own hammer
        self._pending = None
        rows = sorted(grp)
        if gap1 <= self.analog.partial_gap_max:
            p_act = self.analog.p_act
            draws = self.rng.random(len(rows)).tolist()
            keep = [r for r, x in zip(rows, draws) if x < p_act]
            if cmd.row not in keep:
                keep.append(cmd.row)  # the directly addressed row always opens
            rows = sorted(keep)
        self.open = _Activation(tuple(rows), cmd.time, "simra")
        return []

    def _act_copy(self, cmd: CommandEvent, prev: tuple[int, float, float], gap: float) -> list:
        src, src_t_on, _closed = prev
        if src_t_on + 1e-9 < self.timing.t_ras:
            # source was not fully restored; no clean data to copy
            msg = f"copy gap after short activation ({src_t_on:.3g} ns) of row {src}"
            if self.analog.strict_timing:
                raise UndefinedTimingError(msg)
            self.diagnostics.append(msg)
            out = self._flush_pending()
            self.open = _Activation((cmd.row,), cmd.time, "nominal")
            return out
        if not self.layout.same_subarray(src, cmd.row):
            # sense amplifiers are per subarray; the destination just
            # activates normally and keeps its own data
            out = self._flush_pending()
            self.open = _Activation((cmd.row,), cmd.time, "nominal")
            return out
        self._pending = None
        self.data[cmd.row] = self.row_data(src)
        self.open = _Activation((cmd.row,), cmd.time, "copy", src=src)
        return [CopyEffect(src, cmd.row, cmd.time)]

    def _cmd_pre(self, cmd: CommandEvent) -> list:
        act = self.open
        if act is None:
            self.last_pre = cmd.time
            return []
        effects: list = []
        t_on = cmd.time - act.opened
        if act.mode == "simra":
            rows = act.rows
            if not act.written:
                data = self.data
                contents = [data.get(r, self._fill) for r in rows]
                maj = contents[0]
                # the majority of identical rows is that row, at any tie bias
                if contents.count(maj) != len(contents):
                    maj = majority_overwrite(contents, self.analog.tie_bias)
                for r in rows:
                    data[r] = maj
            effects.append(GroupOverwrite(rows, cmd.time))
            effects.append(HammerEffect(KIND_SIMRA, rows, t_on, cmd.time))
        elif act.mode == "copy":
            effects.append(HammerEffect(KIND_COMRA, (act.src, act.rows[0]), t_on, cmd.time))
        else:
            effects.extend(self._flush_pending())
            self._pending = (act.rows[0], t_on, cmd.time)
        self.open = None
        self.last_pre = cmd.time
        return effects

    def _cmd_rd(self, cmd: CommandEvent) -> list:
        if self.open is None or cmd.row not in self.open.rows:
            raise ProtocolError(f"RD from closed row {cmd.row}")
        return []

    def _cmd_wr(self, cmd: CommandEvent) -> list:
        act = self.open
        if act is None:
            raise ProtocolError("WR with no open row")
        payload = self._pad(cmd.payload or b"")
        if act.mode == "simra":
            # the write drives every open row in the group
            for r in act.rows:
                self.data[r] = payload
            act.written = True
            return []
        if cmd.row not in act.rows:
            raise ProtocolError(f"WR to closed row {cmd.row}")
        self.data[cmd.row] = payload
        return []

    def _cmd_ref(self, cmd: CommandEvent) -> list:
        if self.open is not None:
            raise ProtocolError("REF requires all rows precharged")
        effects = self._flush_pending()
        per_ref = -(-self.geometry.rows // self.timing.refs_per_refw)  # ceil
        start = self._ref_cursor
        rows = tuple(
            (start + i) % self.geometry.rows for i in range(min(per_ref, self.geometry.rows))
        )
        self._ref_cursor = (start + per_ref) % self.geometry.rows
        effects.append(RefreshEffect(rows, cmd.time))
        return effects

    def _cmd_rfm(self, cmd: CommandEvent) -> list:
        if self.open is not None:
            raise ProtocolError("RFM requires all rows precharged")
        return self._flush_pending()

    def flush(self, time: Optional[float] = None) -> list:
        """Resolve any deferred nominal activation at end of a stream."""
        return self._flush_pending()

    def refresh_rows(self, rows: Iterable[int], time: float) -> RefreshEffect:
        """Targeted (mitigation-issued) refresh of specific rows."""
        if self.open is not None:
            raise ProtocolError("targeted refresh requires all rows precharged")
        rows = tuple(sorted(set(rows)))
        for r in rows:
            self.geometry.check_row(r)
        return RefreshEffect(rows, time)

    _HANDLERS = {
        "ACT": _cmd_act,
        "PRE": _cmd_pre,
        "RD": _cmd_rd,
        "WR": _cmd_wr,
        "REF": _cmd_ref,
        "RFM": _cmd_rfm,
    }
