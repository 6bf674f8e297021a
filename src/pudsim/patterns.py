"""Access-pattern generators and the command-trace text format.

All generators emit plain command streams; hammer counts are carried as
metadata so harnesses can relate bus activity to disturbance dosage.
One hammer is: a double-sided activation pair (or single activation),
one complete copy cycle, or one complete multi-activation op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .dram import SIMRA_SIZES, CommandEvent, SimraGroupMap, TimingParams
from .errors import ConfigError

PATTERN_KINDS = ("rowhammer", "rowpress", "comra", "simra", "nsided")


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one access pattern instance.

    aggressors are physical row numbers.  t_aggon of None means nominal
    tRAS.
    """

    kind: str
    aggressors: tuple[int, ...] = ()
    bank: int = 0
    hammers: int = 1
    t_aggon: Optional[float] = None
    pre_act_gap: float = 7.5  # violated PRE->ACT gap for copy cycles
    act_gap: float = 3.0  # both gaps of a multi-activation op
    reversed_copy: bool = False
    n: int = 2  # group size / aggressor count for nsided
    technique: str = "rh"  # nsided: 'rh' or 'simra'
    dummy_rows: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}")
        if self.hammers < 0:
            raise ConfigError("hammers must be >= 0")
        if self.t_aggon is not None and self.t_aggon <= 0:
            raise ConfigError("t_aggon must be positive")
        if self.pre_act_gap <= 0 or self.act_gap <= 0:
            raise ConfigError("gaps must be positive")
        if self.kind == "rowhammer" and len(self.aggressors) not in (1, 2):
            raise ConfigError("rowhammer takes 1 or 2 aggressors")
        if self.kind == "rowpress" and len(self.aggressors) not in (1, 2):
            raise ConfigError("rowpress takes 1 or 2 aggressors")
        if self.kind == "comra" and len(self.aggressors) != 2:
            raise ConfigError("comra takes (src, dst)")
        if self.kind == "simra":
            if len(self.aggressors) != 2:
                raise ConfigError("simra takes (r1, r2)")
            if self.n not in SIMRA_SIZES:
                raise ConfigError(f"group size {self.n} not in {SIMRA_SIZES}")
        if self.kind == "nsided":
            if self.technique not in ("rh", "simra"):
                raise ConfigError("nsided technique must be rh or simra")
            if not self.aggressors:
                raise ConfigError("nsided needs aggressor rows")


@dataclass
class CommandStream:
    events: list[CommandEvent]
    hammers: int
    kind: str
    end_time: float = 0.0


def _hammer_pair(
    events: list[CommandEvent],
    t: float,
    rows: Iterable[int],
    bank: int,
    t_on: float,
    gap: float,
) -> float:
    for r in rows:
        events.append(CommandEvent(t, "ACT", bank, r))
        events.append(CommandEvent(t + t_on, "PRE", bank))
        t += t_on + gap
    return t


def gen_rowhammer(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Single- or double-sided activation hammering; rowpress is the same
    shape with a long aggressor-on time (identical stream at t_on=tRAS)."""
    t_on = spec.t_aggon if spec.t_aggon is not None else timing.t_ras
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        t = _hammer_pair(events, t, spec.aggressors, spec.bank, t_on, timing.t_rp)
    return CommandStream(events, spec.hammers, spec.kind, t)


def gen_comra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Repeated copy cycles src -> dst through a violated PRE->ACT gap."""
    t_on = spec.t_aggon if spec.t_aggon is not None else timing.t_ras
    if t_on + 1e-9 < timing.t_ras:
        raise ConfigError("copy source must stay open at least tRAS")
    if spec.pre_act_gap >= timing.t_rp:
        raise ConfigError("copy gap must violate tRP")
    src, dst = spec.aggressors
    if spec.reversed_copy:
        src, dst = dst, src
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        events.append(CommandEvent(t, "ACT", spec.bank, src))
        events.append(CommandEvent(t + t_on, "PRE", spec.bank))
        t += t_on + spec.pre_act_gap
        events.append(CommandEvent(t, "ACT", spec.bank, dst))
        events.append(CommandEvent(t + t_on, "PRE", spec.bank))
        t += t_on + timing.t_rp
    return CommandStream(events, spec.hammers, "comra", t)


def gen_simra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Repeated group activations via back-to-back ACT-PRE-ACT."""
    t_on = spec.t_aggon if spec.t_aggon is not None else timing.t_ras
    r1, r2 = spec.aggressors
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        events.append(CommandEvent(t, "ACT", spec.bank, r1))
        events.append(CommandEvent(t + spec.act_gap, "PRE", spec.bank))
        events.append(CommandEvent(t + 2 * spec.act_gap, "ACT", spec.bank, r2))
        events.append(CommandEvent(t + 2 * spec.act_gap + t_on, "PRE", spec.bank))
        t += 2 * spec.act_gap + t_on + timing.t_rp
    return CommandStream(events, spec.hammers, "simra", t)


def iter_nsided(spec: PatternSpec, timing: TimingParams) -> Iterator[CommandEvent]:
    """Sampler-exhausting schedule: one window of aggressor hammering at
    the full ACT budget, then three windows of decoy activations, REF at
    every window boundary.  Repeats until each aggressor received
    spec.hammers hammers.

    With the nominal 156-ACT window this makes a refresh-time sampler
    pick a decoy with probability 468/624 = 0.75 on average.
    """
    acts = timing.acts_per_refi
    slot = timing.t_rc
    if acts * slot > timing.t_refi:
        raise ConfigError("ACT budget does not fit in a refresh interval")
    if not spec.dummy_rows:
        raise ConfigError("nsided needs decoy rows")
    t_on = spec.t_aggon if spec.t_aggon is not None else timing.t_ras
    per_op = 2 if spec.technique == "simra" else 1
    ops_per_window = acts // per_op
    n = len(spec.aggressors)
    done = [0] * n
    window = 0
    dummy_i = 0
    next_agg = 0
    while min(done) < spec.hammers:
        base = window * timing.t_refi
        # aggressor window; round-robin restarts each window so the split
        # is a fixed per-window schedule
        next_agg = 0
        for i in range(ops_per_window):
            t = base + i * per_op * slot
            if spec.technique == "simra":
                a = spec.aggressors[next_agg]
                yield CommandEvent(t, "ACT", spec.bank, a)
                yield CommandEvent(t + spec.act_gap, "PRE", spec.bank)
                yield CommandEvent(t + 2 * spec.act_gap, "ACT", spec.bank, a)
                yield CommandEvent(t + 2 * spec.act_gap + t_on, "PRE", spec.bank)
            else:
                a = spec.aggressors[next_agg]
                yield CommandEvent(t, "ACT", spec.bank, a)
                yield CommandEvent(t + t_on, "PRE", spec.bank)
            done[next_agg] += 1
            next_agg = (next_agg + 1) % n
            if min(done) >= spec.hammers and next_agg == 0:
                break
        yield CommandEvent(base + timing.t_refi - 1.0, "REF", spec.bank)
        window += 1
        # decoy windows
        for _ in range(3):
            base = window * timing.t_refi
            for i in range(acts):
                t = base + i * slot
                yield CommandEvent(t, "ACT", spec.bank, spec.dummy_rows[dummy_i])
                yield CommandEvent(t + t_on, "PRE", spec.bank)
                dummy_i = (dummy_i + 1) % len(spec.dummy_rows)
            yield CommandEvent(base + timing.t_refi - 1.0, "REF", spec.bank)
            window += 1


def gen_nsided_bypass(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Materialized sampler-exhausting schedule (see iter_nsided); only
    sensible for small budgets."""
    events = list(iter_nsided(spec, timing))
    return CommandStream(events, spec.hammers * len(spec.aggressors), "nsided",
                         events[-1].time if events else 0.0)


def resolve_simra_pair(groups: SimraGroupMap, r2: int) -> tuple[int, int]:
    """Pick an (r1, r2) pair that opens the group containing r2."""
    grp = groups.table.get(r2)
    if grp is None:
        raise ConfigError(f"row {r2} belongs to no activation group")
    return (r2, r2)


# ---------------------------------------------------------------------------
# Trace text format: <time_ns> <CMD> <bank> [<row>] [<hex payload>]


def format_event(e: CommandEvent) -> str:
    parts = [f"{e.time:.3f}".rstrip("0").rstrip("."), e.kind, str(e.bank)]
    if e.row is not None:
        parts.append(str(e.row))
    if e.payload is not None:
        parts.append("0x" + e.payload.hex())
    return " ".join(parts)


def events_to_trace(events: Iterable[CommandEvent]) -> str:
    return "\n".join(format_event(e) for e in events) + "\n"


def parse_trace(text: str, source: str = "<trace>") -> list[CommandEvent]:
    out: list[CommandEvent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ConfigError(f"{source}:{lineno}: expected '<time> <cmd> <bank> ...'")
        try:
            time = float(parts[0])
            bank = int(parts[1 + 1])
        except ValueError as e:
            raise ConfigError(f"{source}:{lineno}: bad number in {line!r}") from e
        kind = parts[1].upper()
        row = None
        payload = None
        rest = parts[3:]
        if rest and not rest[0].lower().startswith("0x"):
            try:
                row = int(rest[0])
            except ValueError as e:
                raise ConfigError(f"{source}:{lineno}: bad row {rest[0]!r}") from e
            rest = rest[1:]
        if rest:
            token = rest[0].lower()
            if not token.startswith("0x"):
                raise ConfigError(f"{source}:{lineno}: payload must be hex")
            try:
                payload = bytes.fromhex(token[2:])
            except ValueError as e:
                raise ConfigError(f"{source}:{lineno}: bad payload {rest[0]!r}") from e
        try:
            out.append(CommandEvent(time, kind, bank, row, payload))
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}") from e
    return out
