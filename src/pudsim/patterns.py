"""Access-pattern generators and the command-trace text format.

All generators emit plain command streams with the time at which a
next hammer may start, so a harness can repeat one hammer's stream.
One hammer is: a double-sided activation pair (or single activation),
one complete copy cycle, or one complete multi-activation op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .dram import SIMRA_SIZES, CommandEvent, TimingParams
from .errors import ConfigError

PATTERN_KINDS = ("rowhammer", "rowpress", "comra", "simra")


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one access pattern instance; aggressors are
    physical row numbers."""

    kind: str
    aggressors: tuple[int, ...] = ()
    hammers: int = 1
    t_aggon: Optional[float] = None
    pre_act_gap: float = 7.5  # violated PRE->ACT gap for copy cycles
    act_gap: float = 3.0  # both gaps of a multi-activation op
    n: int = 2  # group size for simra

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}")
        if self.hammers < 0:
            raise ConfigError("hammers must be >= 0")
        for name in ("t_aggon", "pre_act_gap", "act_gap"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.kind in ("rowhammer", "rowpress") and len(self.aggressors) not in (1, 2):
            raise ConfigError(f"{self.kind} takes 1 or 2 aggressors")
        if self.kind == "comra" and len(self.aggressors) != 2:
            raise ConfigError("comra takes (src, dst)")
        if self.kind == "simra":
            if len(self.aggressors) != 2:
                raise ConfigError("simra takes (r1, r2)")
            if self.n not in SIMRA_SIZES:
                raise ConfigError(f"group size {self.n} not in {SIMRA_SIZES}")

    def t_on(self, timing: TimingParams) -> float:
        """How long each aggressor stays open: t_aggon, or nominal tRAS."""
        return timing.t_ras if self.t_aggon is None else self.t_aggon


@dataclass
class CommandStream:
    events: list[CommandEvent]
    end_time: float = 0.0


def _hammer_pair(
    events: list[CommandEvent],
    t: float,
    rows: Iterable[int],
    t_on: float,
    gap: float,
) -> float:
    for r in rows:
        events.append(CommandEvent(t, "ACT", row=r))
        events.append(CommandEvent(t + t_on, "PRE"))
        t += t_on + gap
    return t


def gen_rowhammer(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Single- or double-sided activation hammering; rowpress is the same
    shape with a long aggressor-on time (identical stream at t_on=tRAS)."""
    t_on = spec.t_on(timing)
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        t = _hammer_pair(events, t, spec.aggressors, t_on, timing.t_rp)
    return CommandStream(events, t)


def gen_comra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Repeated copy cycles src -> dst through a violated PRE->ACT gap."""
    t_on = spec.t_on(timing)
    if t_on + 1e-9 < timing.t_ras:
        raise ConfigError("copy source must stay open at least tRAS")
    if spec.pre_act_gap >= timing.t_rp:
        raise ConfigError("copy gap must violate tRP")
    src, dst = spec.aggressors
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        events.append(CommandEvent(t, "ACT", row=src))
        events.append(CommandEvent(t + t_on, "PRE"))
        t += t_on + spec.pre_act_gap
        events.append(CommandEvent(t, "ACT", row=dst))
        events.append(CommandEvent(t + t_on, "PRE"))
        t += t_on + timing.t_rp
    return CommandStream(events, t)


def gen_simra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Repeated group activations via back-to-back ACT-PRE-ACT."""
    t_on = spec.t_on(timing)
    r1, r2 = spec.aggressors
    events: list[CommandEvent] = []
    t = 0.0
    for _ in range(spec.hammers):
        events.append(CommandEvent(t, "ACT", row=r1))
        events.append(CommandEvent(t + spec.act_gap, "PRE"))
        events.append(CommandEvent(t + 2 * spec.act_gap, "ACT", row=r2))
        events.append(CommandEvent(t + 2 * spec.act_gap + t_on, "PRE"))
        t += 2 * spec.act_gap + t_on + timing.t_rp
    return CommandStream(events, t)


def generate(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """The command stream of the spec's `hammers` hammers."""
    if spec.kind == "comra":
        return gen_comra(spec, timing)
    if spec.kind == "simra":
        return gen_simra(spec, timing)
    return gen_rowhammer(spec, timing)  # rowhammer and rowpress


# ---------------------------------------------------------------------------
# Trace text format: <time_ns> <CMD> <bank> [<row>] [<hex payload>]; the
# model has one bank, bank 0


def format_event(e: CommandEvent) -> str:
    parts = [f"{e.time:.3f}".rstrip("0").rstrip("."), e.kind, "0"]
    if e.row is not None:
        parts.append(str(e.row))
    if e.payload is not None:
        parts.append("0x" + e.payload.hex())
    return " ".join(parts)


def events_to_trace(events: Iterable[CommandEvent]) -> str:
    return "\n".join(format_event(e) for e in events) + "\n"
