"""DRAM organization, command timing, and the analog side effects of
timing-violating command sequences.

Two violation windows are modeled on top of nominal operation:

* in-DRAM row copy: PRE->ACT gap below tRP while the previous row's data
  is still latched in the sense amplifiers copies source data into the
  destination row (same subarray only);
* simultaneous multi-row activation: ACT-PRE-ACT with both gaps inside a
  few nanoseconds keeps the first row's wordline asserted, activating a
  whole predefined group of rows at once.

Each of these sequences also disturbs neighboring rows; the bank emits
`HammerEffect` records that the disturbance model consumes.  It models
which rows an op opens and how long, not the data they hold.  A violating
gap that fits neither window is served as a nominal activation and
recorded in `Bank.diagnostics`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AddressError, ConfigError, ProtocolError

# disturbance kinds, named alike by chip profiles and HammerEffect
KIND_RH = "rh"
KIND_COMRA = "comra"
KIND_SIMRA = "simra"

SIMRA_SIZES = (2, 4, 8, 16, 32)

# most rows a bank may have: the model keeps a few values per row (its
# thresholds and weak bit, its damage, and, from their first lookup, its
# subarray and group); at this size the default `characterize` peaks at
# 279 MB and `trr-eval --technique simra --seeds 1` at 127 MB; a DDR4
# bank has at most 2**17 rows
MAX_ROWS = 2**20

COMMANDS = ("ACT", "PRE", "REF")

# bytes in a row, whose bits `disturbance` flips
ROW_BYTES = 8

# Windows of the modeled timing violations.  A copy needs a PRE->ACT gap
# below tRP; a group op needs both gaps at most SIMRA_GAP_MAX, and at most
# PARTIAL_GAP_MAX each group row opens only with probability P_ACT.
SIMRA_GAP_MAX = 3.0
PARTIAL_GAP_MAX = 1.5
P_ACT = 1.0 / 2.28
# partial-activation draws a bank takes from its generator at once: the
# first block (at least the largest group, so one block covers an op),
# and the size its doubling stops at
DRAW_BLOCK = 64
DRAW_BLOCK_MAX = 4096


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
        if not math.isfinite(self.t_refw / self.t_refi):
            raise ConfigError("timing.t_refw / timing.t_refi must be a finite count of "
                              "refreshes per refresh window")

    @property
    def t_rc(self) -> float:
        """Row cycle: one activation held for tRAS, then precharged."""
        return self.t_ras + self.t_rp

    @property
    def refs_per_refw(self) -> int:
        return max(1, int(self.t_refw // self.t_refi))

    def rows_per_ref(self, rows: int) -> int:
        """How many rows each REF refreshes in a bank of `rows` rows:
        ceil(rows / refs_per_refw), so the REFs of a tREFW cover every row."""
        return -(-rows // self.refs_per_refw)

    def ref_rows(self, k: int, rows: int) -> list:
        """The rows REF number `k` (0-based) refreshes in a bank of `rows`
        rows.  Each REF takes the next `rows_per_ref(rows)` rows, wrapping
        around."""
        per_ref = self.rows_per_ref(rows)
        start = k * per_ref % rows
        return [(start + i) % rows for i in range(per_ref)]

    def row_refs(self, row: int, rows: int, refs: int) -> np.ndarray:
        """The REFs among the first `refs` that refresh `row` of a bank of
        `rows` rows, in order: `ref_rows` inverted.  REF k refreshes rows
        k·p to k·p + p - 1 around the bank (p = `rows_per_ref(rows)`, at
        most `rows`), so `row` falls to REF (row + m·rows) // p for
        m = 0, 1, ..."""
        per_ref = self.rows_per_ref(rows)
        return (row + rows * np.arange(-((row - refs * per_ref) // rows))) // per_ref


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

    @cached_property
    def _index(self) -> list[int]:
        """The subarray of each row, built on the first lookup: a layout
        that only checks a config costs O(subarrays)."""
        index: list[int] = []
        for i, (_, count) in enumerate(self.extents):
            index += [i] * count
        return index

    @classmethod
    def uniform(cls, rows: int, subarray_rows: int) -> "SubarrayLayout":
        if rows < 2:
            raise ConfigError("rows must be >= 2")
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

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside [0, {self.rows})")

    def subarray_of(self, row: int) -> int:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside [0, {self.rows})")
        return self._index[row]

    def extent(self, row: int) -> tuple[int, int]:
        return self.extents[self.subarray_of(row)]

    def same_subarray(self, a: int, b: int) -> bool:
        rows = self.rows
        if not (0 <= a < rows and 0 <= b < rows):
            self.check_row(a)  # raises for the first row outside the bank
            self.check_row(b)
        index = self._index
        return index[a] == index[b]


class SimraGroupMap:
    """Ground-truth grouping of rows wired to activate together.

    The map answers: given an ACT(r1)-PRE-ACT(r2) sequence inside one
    subarray with both gaps in the multi-activation window, which rows
    open?  The groups partition the grouped rows: each is a sorted row
    tuple of a size in {2, 4, 8, 16, 32}, listed by first row.
    """

    def __init__(self, layout: SubarrayLayout, groups: Iterable[Iterable[int]]):
        self.layout = layout
        self.groups = tuple(sorted(tuple(sorted({int(r) for r in g})) for g in groups))
        subarray_of = layout.subarray_of
        for grp in self.groups:
            if len(grp) not in SIMRA_SIZES:
                raise ConfigError(f"group size {len(grp)} not in {SIMRA_SIZES}")
            # extents are contiguous, so the end rows decide
            if subarray_of(grp[0]) != subarray_of(grp[-1]):
                raise ConfigError("a group may not cross subarray boundaries")
        # builds the row index, one entry a row
        if len(self._of) != sum(map(len, self.groups)):
            raise ConfigError("a row may belong to only one group")

    @cached_property
    def _of(self) -> dict[int, tuple[int, ...]]:
        """The group of each grouped row, built on the first lookup."""
        return {r: grp for grp in self.groups for r in grp}

    @classmethod
    def aligned_blocks(cls, layout: SubarrayLayout, n: int, stride: int = 1) -> "SimraGroupMap":
        """Groups of n rows at the given stride, block-aligned inside each
        subarray.  Rows past the last full block belong to no group."""
        if n not in SIMRA_SIZES:
            raise ConfigError(f"group size {n} not in {SIMRA_SIZES}")
        if stride < 1:
            raise ConfigError("stride must be >= 1")
        span = n * stride
        # the blocks come sorted and distinct, n rows each inside one
        # subarray: `__init__`'s checks hold by construction, so they are skipped
        groups = cls.__new__(cls)
        groups.layout = layout
        groups.groups = tuple(
            tuple(range(base, base + span, stride))
            for start, count in layout.extents
            for base in range(start, start + count - span + 1, span)
        )
        return groups

    def group(self, r1: int, r2: int) -> Optional[tuple[int, ...]]:
        """Rows activated by the pair, or None when the pair hits no group
        (cross-subarray pairs never do)."""
        if not self.layout.same_subarray(r1, r2):
            return None
        return self._of.get(r2)


class CommandEvent(namedtuple("CommandEvent", "time kind row")):
    """One bus command to the bank, a checked tuple.  time is absolute
    nanoseconds; row is the row an ACT opens, None for PRE and REF."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _make, _replace check too

    def __new__(cls, time: float, kind: str, row: Optional[int] = None):
        if kind not in COMMANDS:
            raise ConfigError(f"unknown command kind {kind!r}")
        if row is None and kind == "ACT":
            raise ConfigError("ACT requires a row")
        return tuple.__new__(cls, (time, kind, row))


# builds a record from a tuple of its fields, skipping the record's own
# checks; for values those checks have already passed
_new = tuple.__new__


# ---------------------------------------------------------------------------
# Analog effects emitted by the bank model


class HammerEffect(namedtuple("HammerEffect", "kind aggressors t_on time")):
    """One charge-disturbance event seen by aggressor neighbors, an
    immutable tuple.

    kind: KIND_RH (one nominal activation), KIND_COMRA (one complete
    copy cycle, both rows acted as aggressors), KIND_SIMRA (one complete
    multi-activation op over the whole group); aggressors: the rows it
    opened; t_on: how long they stayed open, in ns; time: when it ended.
    """

    __slots__ = ()


class RefreshEffect(namedtuple("RefreshEffect", "rows time")):
    """The rows a refresh or RFM restored at `time`, an immutable tuple."""

    __slots__ = ()


class _Activation(namedtuple("_Activation", "rows opened mode src")):
    """The rows one ACT opened: a whole group for a group op.  mode is
    'nominal', 'copy' or 'simra'; src is the copy source of a copy."""

    __slots__ = ()


class Bank:
    """State machine for one bank: its open rows and the classification
    of command sequences into nominal vs. violating ops.

    Classification of an incoming ACT looks one closed row back, so a
    nominal activation's disturbance is emitted only once the next
    command rules out it being the first half of a copy or group op.
    Its rows are its group map's layout (`SimraGroupMap(layout, ())` without groups).
    A partial activation opens each group row on one draw of `rng`; the
    bank draws in blocks, on the first op that needs a draw.
    """

    def __init__(
        self,
        timing: TimingParams,
        groups: SimraGroupMap,
        rng: Optional[np.random.Generator] = None,
    ):
        self.timing = timing
        self.layout = groups.layout
        self.groups = groups
        self.rng = rng or np.random.default_rng(0)
        # whether each draw taken ahead from rng opens its row, one byte
        # (0 or 1) a draw, in draw order; the next op reads from _next on
        self._opens = bytearray()
        self._next = 0
        self._block = DRAW_BLOCK
        # (group, position in it) of each row the second ACT of a group op
        # has addressed, (None, None) for an ungrouped row; filled as rows
        # are addressed, so a bank that opens no group holds none
        self._placed: dict[int, tuple] = {}
        self.open: Optional[_Activation] = None
        self.last_pre: Optional[float] = None
        self.last_time: float = float("-inf")
        # last row closed nominally, waiting for context to resolve
        self._pending: Optional[tuple[int, float, float]] = None  # row, t_on, closed_at
        self._refs = 0  # REFs applied
        self.diagnostics: list[str] = []

    # -- command application -------------------------------------------------

    def apply(self, cmd: CommandEvent) -> list:
        """Apply one command; returns the analog effects it produced."""
        time, kind, row = cmd
        if time <= self.last_time:
            raise ProtocolError(f"command at {time} not after {self.last_time}")
        if kind == "ACT":
            effects = self._cmd_act(time, row)
        elif kind == "PRE":
            effects = self._cmd_pre(time)
        else:
            effects = self._cmd_ref(time)
        self.last_time = time
        return effects

    def flush(self) -> list:
        """Resolve any deferred nominal activation, as the next command or
        the end of a stream does."""
        if self._pending is None:
            return []
        row, t_on, closed = self._pending
        self._pending = None
        return [_new(HammerEffect, (KIND_RH, (row,), t_on, closed))]

    def _cmd_act(self, time: float, row: int) -> list:
        if not 0 <= row < self.layout.rows:
            self.layout.check_row(row)  # raises
        if self.open is not None:
            raise ProtocolError("ACT while a row is open (PRE first)")
        gap = math.inf if self.last_pre is None else time - self.last_pre
        prev = self._pending
        if prev is not None:
            act = None
            if gap <= SIMRA_GAP_MAX and prev[1] <= SIMRA_GAP_MAX:
                act = self._act_simra(time, row, prev)
            elif gap < self.timing.t_rp:
                act = self._act_copy(time, row, prev)
            if act is not None:
                # the pending half-activation is part of this op, not its own hammer
                self._pending = None
                self.open = act
                return []
        elif gap < self.timing.t_rp:
            # a violating gap after no nominal activation
            self.diagnostics.append(f"unmodeled gap {gap:.3g} ns before ACT row {row}")
        out = self.flush() if prev is not None else []
        self.open = _new(_Activation, ((row,), time, "nominal", None))
        return out

    def _act_simra(self, time: float, row: int,
                   prev: tuple[int, float, float]) -> Optional[_Activation]:
        """The group op the pair opens, or None, diagnosed, for an ungrouped pair."""
        r1, gap1, _closed = prev
        placed = self._placed.get(row)
        if placed is None:
            grp = self.groups.group(row, row)
            placed = self._placed[row] = (grp, None if grp is None else grp.index(row))
        grp, at = placed
        # as in `group`, a pair across subarrays opens no group; a pair on
        # one row needs no check
        if grp is None or (r1 != row and not self.layout.same_subarray(r1, row)):
            self.diagnostics.append(f"multi-activation gap on ungrouped pair ({r1}, {row})")
            return None
        rows = grp
        if gap1 <= PARTIAL_GAP_MAX:
            opens = self._draw_opens(len(grp))
            opens[at] = 1  # the directly addressed row always opens
            # sorted, as grp; through a list, since a tuple grown from an
            # iterator is resized in place, which fragments memory: peak RSS
            # rose 2.6 MB over a 128-row stochastic `characterize`
            rows = tuple([*compress(grp, opens)])
        return _new(_Activation, (rows, time, "simra", None))

    def _draw_opens(self, n: int) -> bytearray:
        """Whether each of the next `n` draws of `rng` opens its group
        row (draw < P_ACT), a byte of 0 or 1 each, in a fresh bytearray
        the op may change.  Draws come in blocks that double from
        DRAW_BLOCK to DRAW_BLOCK_MAX, so a short replay draws little
        ahead; one `rng.random(k * n)` gives the numbers of k draws of
        n, so every op sees the draws it would take alone."""
        start, end = self._next, self._next + n
        opens = self._opens
        if end > len(opens):
            block = self._block
            self._block = min(2 * block, DRAW_BLOCK_MAX)
            # a bool array's bytes are its 0s and 1s
            fresh = (self.rng.random(block) < P_ACT).tobytes()
            opens = self._opens = opens[start:] + fresh
            start, end = 0, n
        self._next = end
        return opens[start:end]

    def _act_copy(self, time: float, row: int,
                  prev: tuple[int, float, float]) -> Optional[_Activation]:
        """The copy into the destination, or None when it activates nominally."""
        src, src_t_on, _closed = prev
        if src_t_on + 1e-9 < self.timing.t_ras:
            # the source closed before a full restore: no clean value to copy
            self.diagnostics.append(
                f"copy gap after short activation ({src_t_on:.3g} ns) of row {src}"
            )
            return None
        if not self.layout.same_subarray(src, row):
            # sense amplifiers are per subarray; the destination just
            # activates normally
            return None
        # the PRE's hammer of both rows restores the destination
        return _new(_Activation, ((row,), time, "copy", src))

    def _cmd_pre(self, time: float) -> list:
        act = self.open
        self.last_pre = time
        if act is None:
            return []
        rows, mode = act.rows, act.mode
        t_on = time - act.opened
        if mode == "nominal":
            effects = self.flush() if self._pending is not None else []
            self._pending = (rows[0], t_on, time)
        elif mode == "simra":
            # one hammer of the whole group; `accumulate` restores its rows
            effects = [_new(HammerEffect, (KIND_SIMRA, rows, t_on, time))]
        else:  # copy
            effects = [_new(HammerEffect, (KIND_COMRA, (act.src, rows[0]), t_on, time))]
        self.open = None
        return effects

    def _cmd_ref(self, time: float) -> list:
        if self.open is not None:
            raise ProtocolError("REF requires all rows precharged")
        effects = self.flush()
        rows = tuple(self.timing.ref_rows(self._refs, self.layout.rows))
        self._refs += 1
        effects.append(RefreshEffect(rows, time))
        return effects
