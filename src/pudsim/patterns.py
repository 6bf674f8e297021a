"""Access-pattern generators and the command-trace text format.

Every generator emits the command stream of one hammer with the time at
which the next may start; hammer i of a repeated pattern is that stream
shifted by i times that time (`repeated_events`).  One hammer is: a
double-sided activation pair (or single activation), one complete copy
cycle, or one complete multi-activation op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from operator import add
from typing import Iterable, Iterator, Optional

from .dram import SIMRA_SIZES, CommandEvent, TimingParams, _new
from .errors import ConfigError

PATTERN_KINDS = ("rowhammer", "rowpress", "comra", "simra")


@dataclass(frozen=True)
class PatternSpec:
    """Parameters of one access pattern instance; aggressors are
    physical row numbers."""

    kind: str
    aggressors: tuple[int, ...] = ()
    t_aggon: Optional[float] = None
    pre_act_gap: float = 7.5  # violated PRE->ACT gap for copy cycles
    act_gap: float = 3.0  # both gaps of a multi-activation op
    n: int = 2  # group size for simra

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown pattern kind {self.kind!r}")
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


def gen_rowhammer(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """Single- or double-sided activation hammering; rowpress is the same
    shape with a long aggressor-on time (identical stream at t_on=tRAS)."""
    t_on = spec.t_on(timing)
    events: list[CommandEvent] = []
    t = 0.0
    for r in spec.aggressors:
        events.append(CommandEvent(t, "ACT", row=r))
        events.append(CommandEvent(t + t_on, "PRE"))
        t += t_on + timing.t_rp
    return CommandStream(events, t)


def gen_comra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """A copy cycle src -> dst through a violated PRE->ACT gap."""
    t_on = spec.t_on(timing)
    if t_on + 1e-9 < timing.t_ras:
        raise ConfigError("copy source must stay open at least tRAS")
    if spec.pre_act_gap >= timing.t_rp:
        raise ConfigError("copy gap must violate tRP")
    src, dst = spec.aggressors
    t = t_on + spec.pre_act_gap
    events = [
        CommandEvent(0.0, "ACT", row=src),
        CommandEvent(t_on, "PRE"),
        CommandEvent(t, "ACT", row=dst),
        CommandEvent(t + t_on, "PRE"),
    ]
    return CommandStream(events, t + (t_on + timing.t_rp))


def gen_simra(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """A group activation via back-to-back ACT-PRE-ACT."""
    t_on = spec.t_on(timing)
    r1, r2 = spec.aggressors
    t = 2 * spec.act_gap
    events = [
        CommandEvent(0.0, "ACT", row=r1),
        CommandEvent(spec.act_gap, "PRE"),
        CommandEvent(t, "ACT", row=r2),
        CommandEvent(t + t_on, "PRE"),
    ]
    return CommandStream(events, t + t_on + timing.t_rp)


def generate(spec: PatternSpec, timing: TimingParams) -> CommandStream:
    """The command stream of one hammer of the spec."""
    if spec.kind == "comra":
        return gen_comra(spec, timing)
    if spec.kind == "simra":
        return gen_simra(spec, timing)
    return gen_rowhammer(spec, timing)  # rowhammer and rowpress


def repeated_events(stream: CommandStream, hammers: Iterable[int]) -> Iterator[CommandEvent]:
    """The events of the given hammers (0-based, such as `range(n)`) of a
    repeated pattern, in order: hammer i is the one-hammer `stream` with
    every time shifted by i times its end time.  The stream holds at
    least one command, as every generator's does."""
    events = stream.events
    times, kinds, rows = zip(*events)
    end = stream.end_time
    shifts = chain.from_iterable(repeat(i * end, len(events)) for i in hammers)
    # only the time changes, so the checks the stream's events passed hold
    return map(_new, repeat(CommandEvent), zip(
        map(add, cycle(times), shifts), cycle(kinds), cycle(rows)))


def keeps_order(stream: CommandStream, hammers: int) -> bool:
    """Whether `hammers` repeats of the stream (`repeated_events`) keep
    every command strictly after the one before it, as `Bank.apply` and a
    trace need.  A shifted time rounds the shift and then the sum, so a
    gap between successive commands, a hammer's last and the next
    hammer's first included, closes by less than twice the float spacing
    at the last hammer's end (every stream starts at 0)."""
    times = [e.time for e in stream.events] + [stream.end_time]
    most = 2 * math.ulp(hammers * stream.end_time)
    return all(b - a > most for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Trace text format: <time_ns> <CMD> <bank> [<row>]; the model has one
# bank, bank 0

# most commands one trace holds.  `trace-gen` writes a trace line by
# line, so this bounds the file, not memory: a command takes about 18
# bytes at the default timings (37 MB for 2**21 commands), and at most
# about 34 with the longest time stamps that keep order (71 MB).
MAX_TRACE_EVENTS = 2**21


def format_event(e: CommandEvent) -> str:
    parts = [f"{e.time:.3f}".rstrip("0").rstrip("."), e.kind, "0"]
    if e.row is not None:
        parts.append(str(e.row))
    return " ".join(parts)


def trace_lines(events: Iterable[CommandEvent]) -> Iterator[str]:
    """The trace text of `events`, one newline-ended line a command,
    made as it is read."""
    return (format_event(e) + "\n" for e in events)
