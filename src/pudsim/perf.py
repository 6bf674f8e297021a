"""Trace-driven multi-core memory performance model for mitigation cost.

Cores are closed-loop: a fixed compute gap, then one blocking memory
request.  Four conventional cores draw from three synthetic trace
families (stream / random / row-local); a fifth core issues one 32-row
group op plus one copy cycle every `period_ns`.

Every core owns a private bank: conventional core i bank i of rank 0,
the PuD core bank 7 of rank 1.  No two cores contend for a bank, so each
core runs on its own timeline: its row hits and misses, its PRAC counter
updates and the RFMs that block its bank follow from its own trace
alone.  Each PuD op pays the bus turnaround once, because it always
follows rank-0 traffic.

A run with conventional cores ends when the last of them completes its
`target_reqs`-th request.  The PuD core is served until then: its ops
and RFMs are those whose scheduling key (start, ready, core id) sorts
before the key of that final request.  Without conventional cores it
runs `target_reqs` ops.  PRAC never reads the time, so a bank's counter
updates and RFMs follow from its ops alone, and its times are then one
`np.cumsum`, which rounds each partial sum in turn as the tests'
request-by-request loops do.  One `evaluate_mixes` call draws each
core's row stream once per mix and runs its timeline once per
mitigation variant.  It makes the PuD bank's PRAC steps once per variant
into a table, at the shortest period and as far as the latest stop, and
cuts each (mix, period) run from that table by one stop rule.  Every
PuD op opens the same rows, so the counters before an op fix all the
steps after it: once the counters after a back-off burst equal those
after an earlier burst (or at the start), the steps between repeat
exactly, and the table steps PRAC through that cycle once and repeats it
to the stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disturbance import COMRA, RH, SIMRA
from .dram import TimingParams
from .errors import ConfigError, PudsimError
from .mitigation import PracConfig, PracState
from .patterns import PatternSpec
from .rng import stable_hash, stable_hash_each

T_HIT = 15.0
RANK_TURNAROUND = 2.0
INSTR_PER_REQ = 100  # instructions a conventional core retires per request
CONV_BANKS = 7  # banks 0..6 of rank 0, one per conventional core

CORE_KINDS = ("stream", "random", "rowlocal")

# the model runs at nominal interface timing
_TIMING = TimingParams()
# one PuD op at PatternSpec's nominal gaps: a group activation (two
# violated ACT gaps, tRAS, tRP), then one copy cycle (tRAS, a violated
# PRE->ACT gap, tRAS, tRP)
_PUD_OP_NS = (
    2 * PatternSpec.act_gap + _TIMING.t_ras + _TIMING.t_rp
    + (2 * _TIMING.t_ras + PatternSpec.pre_act_gap + _TIMING.t_rp)
)


@dataclass(frozen=True)
class CoreSpec:
    kind: str
    gap_ns: float = 50.0
    locality: float = 0.5  # rowlocal: probability of staying on the open row
    footprint: int = 64  # rows touched in the core's bank
    row_base: int = 0

    def __post_init__(self):
        if self.kind not in CORE_KINDS:
            raise ConfigError(f"unknown core kind {self.kind!r}")
        if self.gap_ns < 0:
            raise ConfigError("gaps must be non-negative")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigError("locality must be in [0, 1]")


@dataclass(frozen=True)
class Mix:
    mix_id: int
    cores: tuple[CoreSpec, ...]  # the 4 conventional cores
    seed: int


def make_mixes(count: int, seed: int) -> list[Mix]:
    """Seeded random multiprogrammed mixes over the three trace families."""
    mixes = []
    kinds = ("stream", "random", "rowlocal")
    for m in range(count):
        cores = []
        for c in range(4):
            h = stable_hash(seed, m, c)
            # always at least one row-reusing core so per-row activation
            # counts are exercised, not just streaming misses
            kind = "random" if c == 0 else kinds[h % 3]
            gap = 20.0 + (h >> 8) % 180
            locality = 0.2 + ((h >> 16) % 60) / 100.0
            footprint = 8 + (h >> 24) % 25
            cores.append(
                CoreSpec(
                    kind=kind,
                    gap_ns=gap,
                    locality=locality,
                    footprint=footprint,
                    row_base=c * 256,
                )
            )
        mixes.append(Mix(mix_id=m, cores=tuple(cores), seed=stable_hash(seed, m)))
    return mixes


def _core_rows(spec: CoreSpec, core_id: int, seed: int, n: int) -> list[int]:
    """Deterministic rows of a core's first n requests, in its private
    bank; request i hashes (core seed, core id, i)."""
    i = np.arange(n)
    if spec.kind == "stream":
        return (spec.row_base + (i // 8) % spec.footprint).tolist()
    h = stable_hash_each(stable_hash(seed, core_id), core_id, i)
    if spec.kind == "random":
        return (spec.row_base + (h >> 8) % spec.footprint).tolist()
    # rowlocal: a request keeps the previous row with probability `locality`
    fresh = np.where(h % 1000 < int(spec.locality * 1000), 0, i)
    rows = spec.row_base + (h >> 12) % spec.footprint
    return rows[np.maximum.accumulate(fresh)].tolist()


@dataclass
class PerfResult:
    shared_rates: dict[int, float]
    backoffs: int
    rfm_count: int
    end_time: float
    # scheduling key (start, ready, core id) of the last conventional
    # request; the PuD core is served while its own key sorts before it
    stop_key: Optional[tuple[float, float, int]] = None


def weighted_speedup(shared: dict[int, float], alone: dict[int, float]) -> float:
    """Sum of per-core shared/alone progress-rate ratios."""
    ws = 0.0
    for core, s in shared.items():
        a = alone[core]
        if a <= 0:
            raise ConfigError(f"core {core}: alone rate must be positive")
        ws += s / a
    return ws


# group and copy rows the PuD core drives (inside its own bank)
_PUD_SIMRA_ROWS = tuple(range(0, 32))
_PUD_COMRA_ROWS = (64, 66)
_ROWS = 4096  # rows of each bank
_WATCHDOG_NS = 5e9


def _watchdog(t0: float) -> None:
    if t0 > _WATCHDOG_NS:
        raise PudsimError("perf watchdog: no forward progress")


# The PuD table's stop and watchdog rules, on a step's start `t` after
# `done` ops; written with `&` and `|`, so that they take Python scalars
# in the stepping loop and numpy arrays in `_repeat` alike.
def _stops(done, t, target_reqs: int, horizon: float):
    """Every op done and the start past the horizon: the table ends here."""
    return (done >= target_reqs) & (t > horizon)


def _watched(done, t, target_reqs: int, horizon: float):
    """A step every run must consume: the watchdog checks its start."""
    return (done < target_reqs) | (t < horizon)


def _prac(config: Optional[PracConfig]) -> Optional[PracState]:
    """Fresh PRAC counters for one bank, or None when PRAC is off."""
    if config is None:
        return None
    return PracState(config, rows=_ROWS, t_rc=_TIMING.t_rc)


def _rfm(prac: PracState) -> float:
    """Service one RFM; it blocks the bank one tRC per refreshed row
    (at least one)."""
    return _TIMING.t_rc * max(1, len(prac.rfm()))


def _conventional(
    spec: CoreSpec,
    core_id: int,
    rows: list[int],
    mitigation: Optional[PracConfig],
) -> tuple[float, int, int, float, tuple[float, float, int]]:
    """One conventional core's timeline over `rows`, one request each:
    its rate, back-offs, RFMs, the completion time and the scheduling
    key of its last request.

    Only this core uses the bank, so a request starts when it is issued,
    the previous completion plus the gap, after any RFMs pending from
    the previous miss.  One pass over the misses makes the counter
    updates and RFMs; the times are one prefix sum of 0.0 and, per
    request, its RFMs, its service and the gap to the next."""
    prac = _prac(mitigation)
    n = len(rows)
    row = np.asarray(rows)
    miss = np.concatenate(([True], row[1:] != row[:-1]))
    inc = np.zeros(2 * n)
    inc[1::2] = np.where(miss, _TIMING.t_rc, T_HIT)
    inc[2::2] = spec.gap_ns
    rfm_at, rfm_ns = [], []  # where in `inc` each RFM goes, and its time
    if prac is not None:
        for i in np.flatnonzero(miss).tolist():
            # counter update hides in the precharge slot for single-row
            # activations; no extra service time
            prac.on_op(RH, (rows[i],))
            while i + 1 < n and prac.backoff_pending:
                rfm_at.append(2 * i + 3)
                rfm_ns.append(_rfm(prac))
    t = np.cumsum(np.insert(inc, rfm_at, rfm_ns))
    # the last request became ready before the RFMs that precede it
    start, ready = float(t[-2]), float(t[-2 - rfm_at.count(2 * n - 1)])
    _watchdog(start)
    done = float(t[-1])
    backoffs = prac.backoffs if prac is not None else 0
    return n * INSTR_PER_REQ / done, backoffs, len(rfm_at), done, (start, ready, core_id)


def _pud_steps(mitigation: Optional[PracConfig], period_ns: float, horizon: float,
               target_reqs: int) -> np.ndarray:
    """The PuD bank's steps on fresh PRAC counters, a read-only table of
    (is RFM, service time, back-offs so far), made until `target_reqs`
    ops are done and, holds taken at `period_ns`, the next start passes
    `horizon`.  No start falls as the period grows, so the table reaches
    the cut of every longer-period run whose stop starts by `horizon`.
    The watchdog raises before a step a run must consume (an op before
    `target_reqs`, a start before `horizon`); the cut checks the rest.

    Every op opens the same rows and PRAC never reads the time, so the
    counters before an op fix every step after it.  Once the counters
    before the run's first op, or before the first op after a back-off
    burst, equal those at an earlier such op, the steps between the two
    repeat exactly for good, each repeat adding their back-offs again;
    `_repeat` lays them out to the stop instead of stepping PRAC, and
    takes the starts from one `np.cumsum`, rounded as the running sum."""
    prac = _prac(mitigation)
    rows: list[tuple[bool, float, int]] = []
    seen: dict = {}  # counters before a keyed op -> (its step, back-offs so far)
    cycle = None
    now, ops = 0.0, 0
    while not _stops(ops, now, target_reqs, horizon):
        if _watched(ops, now, target_reqs, horizon):
            _watchdog(now)
        if prac is not None and prac.backoff_pending:
            rows.append((True, _rfm(prac), prac.backoffs))
            now = now + rows[-1][1]
            continue
        # key the run's first op, each first op after a burst, and,
        # without PRAC, every op
        if prac is None or not rows or rows[-1][0]:
            key = () if prac is None else frozenset(prac.counters.items())
            backoffs = 0 if prac is None else prac.backoffs
            if key in seen:
                first, before = seen[key]
                cycle = first, backoffs - before
                break
            seen[key] = len(rows), backoffs
        service = _PUD_OP_NS + RANK_TURNAROUND
        if prac is not None:
            service += prac.on_op(SIMRA, _PUD_SIMRA_ROWS) + prac.on_op(COMRA, _PUD_COMRA_ROWS)
        rows.append((False, service, 0 if prac is None else prac.backoffs))
        now, ops = now + max(service, period_ns), ops + 1
    table = np.array(rows, dtype=float).reshape(-1, 3)
    if cycle is not None:
        table = _repeat(table, *cycle, now, ops, period_ns, horizon, target_reqs)
    table.flags.writeable = False
    return table


def _repeat(head: np.ndarray, first: int, backoffs: int, now: float, ops: int,
            period_ns: float, horizon: float, target_reqs: int) -> np.ndarray:
    """`head`, the steps before a start at `now` after `ops` ops, followed
    by repeats of its steps from `first` on, each repeat `backoffs` more
    back-offs along, up to the step where `_pud_steps` stops.  Raises the
    watchdog where that loop would."""
    cycle = head[first:]
    is_op = cycle[:, 0] == 0
    hold = np.where(is_op, np.maximum(cycle[:, 1], period_ns), cycle[:, 1])
    span = float(hold.sum())

    def reps_past(t: float) -> int:
        # whole repeats after which the start passes t, plus one to spare
        # for the running sum's rounding, half an ulp a step, far less
        # than a repeat's hold
        return math.floor(max(t - now, 0.0) / span) + 2

    # every op done and past the horizon, or past the watchdog
    need_ops = -(-(target_reqs - ops) // int(is_op.sum()))
    reps = min(max(need_ops, reps_past(min(horizon, _WATCHDOG_NS))), reps_past(_WATCHDOG_NS))
    t = np.cumsum(np.concatenate(([now], np.tile(hold, reps))))  # start of each step
    done = ops + np.concatenate(([0], np.cumsum(np.tile(is_op, reps))))  # ops before it
    stop = _stops(done, t, target_reqs, horizon)
    k = int(np.flatnonzero(stop | _watched(done, t, target_reqs, horizon) & (t > _WATCHDOG_NS))[0])
    if not stop[k]:
        _watchdog(float(t[k]))
    tail = np.tile(cycle, (-(-k // len(cycle)), 1))[:k]
    tail[:, 2] += (np.arange(k) // len(cycle) + 1) * backoffs
    return np.concatenate((head, tail))


def _with_pud(conv: PerfResult, steps: np.ndarray, period_ns: float,
              target_reqs: int) -> PerfResult:
    """Add the PuD core's timeline, cut from the table `steps`, to a run
    of the conventional cores (`conv`, which has no PuD core).

    A step starts when the bank is free and the core ready: an RFM holds
    the bank for its service, an op for its service or the period,
    whichever is longer, since rounding is monotone:
    fl(t + max(s, p)) == max(fl(t + s), fl(t + p)).  The starts are one
    prefix sum of the holds.  The run consumes the steps before the
    first whose key (start, ready, core id) sorts after `conv.stop_key`
    or, without one, through its `target_reqs`-th op."""
    pud_id = len(conv.shared_rates)
    is_rfm, service = steps[:, 0] > 0, steps[:, 1]
    is_op = ~is_rfm
    hold = np.where(is_rfm, service, np.maximum(service, period_ns))
    t = np.cumsum(np.concatenate(([0.0], hold)))  # start of each step and the next
    if conv.stop_key is None:
        past = np.concatenate(([0], np.cumsum(is_op))) >= target_reqs  # by ops before each
    else:
        # the core is ready at the start of the step after its last op
        after_op = np.concatenate(([0], np.where(is_op, np.arange(1, len(t)), 0)))
        ready = t[np.maximum.accumulate(after_op)]
        s0, r0, c0 = conv.stop_key
        past = (t > s0) | (t == s0) & ((ready > r0) | (ready == r0) & (pud_id > c0))
    k = int(np.flatnonzero(past)[0])  # steps consumed
    if k:
        _watchdog(float(t[k - 1]))
    op_idx = np.flatnonzero(is_op[:k])
    completed = len(op_idx)
    done = (t[op_idx] + service[op_idx]).tolist() or [0.0]  # each op's completion
    first, last = done[0], done[-1]
    end = max(conv.end_time, last)
    if completed >= 2 and last > first:
        # rate over whole inter-completion periods: exact for a
        # periodic core, free of end-of-run partial-period noise
        rate = (completed - 1) / (last - first)
    else:
        rate = completed / end if end > 0 else 0.0
    return PerfResult(
        shared_rates={**conv.shared_rates, pud_id: rate},
        backoffs=conv.backoffs + (int(steps[k - 1, 2]) if k else 0),
        rfm_count=conv.rfm_count + (k - completed),
        end_time=end,
        stop_key=conv.stop_key,
    )


def run_mix(
    conv_cores: tuple[CoreSpec, ...],
    mitigation: Optional[PracConfig],
    period_ns: Optional[float],
    seed: int,
    target_reqs: int,
    *,
    rows: Optional[list[list[int]]] = None,
    steps: Optional[np.ndarray] = None,
) -> PerfResult:
    """Simulate the given cores to completion of `target_reqs` requests
    per conventional core; the PuD core (enabled when period_ns is set)
    free-runs and is measured by rate.  Every bank counts with
    `mitigation`'s PRAC configuration, or not at all when it is None.
    Unless given, the run makes its own core `rows` and PuD step table
    (`_pud_steps`), which must reach its stop at `period_ns`."""
    if len(conv_cores) > CONV_BANKS:
        raise ConfigError(f"at most {CONV_BANKS} conventional cores, one per bank")
    if target_reqs < 1:
        raise ConfigError("target_reqs must be >= 1")
    if rows is None:
        rows = [_core_rows(spec, i, seed, target_reqs) for i, spec in enumerate(conv_cores)]
    lines = [
        _conventional(spec, i, core_rows, mitigation)
        for i, (spec, core_rows) in enumerate(zip(conv_cores, rows))
    ]
    res = PerfResult(
        shared_rates={i: line[0] for i, line in enumerate(lines)},
        backoffs=sum(line[1] for line in lines),
        rfm_count=sum(line[2] for line in lines),
        end_time=max((line[3] for line in lines), default=0.0),
        stop_key=max((line[4] for line in lines), default=None),
    )
    if period_ns is not None:
        if steps is None:
            stop = res.stop_key
            steps = _pud_steps(mitigation, period_ns, stop[0] if stop else -math.inf,
                               0 if stop else target_reqs)
        res = _with_pud(res, steps, period_ns, target_reqs)
    return res


PERF_COLUMNS = (
    "mix_id", "period_ns", "mitigation", "weighted_speedup",
    "overhead_pct", "backoffs", "rfm_count",
)


def default_variants() -> dict[str, Optional[PracConfig]]:
    """No mitigation, naive per-row counting, and weighted counting."""
    naive = PracConfig(mode="po", rdt=20, weighted=False)
    wc = PracConfig(
        mode="po", rdt=4000, weights={RH: 1, COMRA: 10, SIMRA: 200}, weighted=True
    )
    return {
        "none": None,
        "prac-po-naive": naive,
        "prac-po-wc": wc,
    }


def evaluate_mixes(
    mixes: list[Mix],
    periods: tuple[float, ...],
    target_reqs: int,
    variants: Optional[dict[str, Optional[PracConfig]]] = None,
) -> list[dict]:
    """Sweep mixes x periods x variants; overhead is relative to the
    unmitigated run of the same mix and period.  Alone-run baselines use
    the unmitigated configuration: a conventional core on its private
    bank runs at its alone speed, so the unmitigated run gives them."""
    variants = variants or default_variants()
    if "none" not in variants:
        raise ConfigError("variants must include the unmitigated baseline 'none'")
    if variants["none"] is not None:
        raise ConfigError("the baseline variant 'none' must be unmitigated")
    # 1. every mix's conventional timelines, which do not depend on the PuD period
    convs = []
    for mix in mixes:
        rows = [_core_rows(spec, i, mix.seed, target_reqs) for i, spec in enumerate(mix.cores)]
        convs.append({
            name: run_mix(mix.cores, mit, None, mix.seed, target_reqs, rows=rows)
            for name, mit in variants.items()
        })
    # 2. one step table per variant at the shortest period, to the latest
    # stop; a run without conventional cores takes `target_reqs` ops
    tables = {}
    for name, mit in variants.items():
        stops = [conv[name].stop_key for conv in convs]
        horizon = max((stop[0] for stop in stops if stop), default=-math.inf)
        ops = target_reqs if name == "none" or None in stops else 0
        tables[name] = _pud_steps(mit, min(periods), horizon, ops)
    # 3. every run cut from its variant's table; the PuD core alone reads
    # no seed, so its rate depends only on the period
    pud_alone = {
        period: run_mix((), None, period, 0, target_reqs, steps=tables["none"]).shared_rates[0]
        for period in periods
    }
    out = []
    for mix, conv in zip(mixes, convs):
        alone = dict(conv["none"].shared_rates)
        for period in periods:
            alone[len(mix.cores)] = pud_alone[period]
            ws_by_variant: dict[str, tuple[float, PerfResult]] = {}
            for name in variants:
                res = _with_pud(conv[name], tables[name], period, target_reqs)
                ws_by_variant[name] = (weighted_speedup(res.shared_rates, alone), res)
            ws_base = ws_by_variant["none"][0]
            for name, (ws, res) in ws_by_variant.items():
                overhead = 100.0 * (1.0 - ws / ws_base) if ws_base > 0 else 0.0
                out.append(
                    {
                        "mix_id": mix.mix_id,
                        "period_ns": period,
                        "mitigation": name,
                        "weighted_speedup": round(ws, 6),
                        "overhead_pct": round(overhead, 4),
                        "backoffs": res.backoffs,
                        "rfm_count": res.rfm_count,
                    }
                )
    return out
