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

PRAC counts in bulk between back-offs, by the rules of
`mitigation.PracState`.  A conventional core's misses are one-row
activations, and each of its back-offs is served before its next
request, so `PracState.on_activations` finds the misses that raise a
back-off in one pass; each such back-off is one RFM on the missed row.
The PuD bank counts the repeats of its op that raise no back-off in one
step (`PracState.on_repeats`); the op that does goes through `on_op`,
and its burst through `rfm`.

A run with conventional cores ends when the last of them completes its
`target_reqs`-th request.  The PuD core is served until then: its ops
and RFMs are those whose scheduling key (start, ready, core id) sorts
before the key of that final request.  Without conventional cores it
runs `target_reqs` ops.  Simulated time has no cap.  One
`evaluate_mixes` call draws each core's row stream once per mix and
runs its timeline once per mitigation variant.  PRAC never reads the
time, and every PuD op opens the same rows, so the PuD bank's counter
updates and RFMs follow from its ops alone and repeat once its counters
do: each variant's PuD cycle of ops and RFMs is made once, whatever the
period, and each (mix, period) run lays it out to its own stop.  The
starts are one `np.cumsum` of the holds, which rounds each partial sum
in turn as the tests' request-by-request loops do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .disturbance import COMRA, RH, SIMRA
from .dram import TimingParams
from .errors import ConfigError
from .mitigation import PracConfig, PracState, rfm_victims
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
    for m in range(count):
        cores = []
        for c in range(4):
            h = stable_hash(seed, m, c)
            # always at least one row-reusing core so per-row activation
            # counts are exercised, not just streaming misses
            kind = "random" if c == 0 else CORE_KINDS[h % 3]
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


# most requests a run may take of each core: the sweep keeps about 130
# bytes a request (the cores' row streams and the PuD core's timeline),
# and `mitigation-eval` peaks near 300 MB at this count
MAX_TARGET_REQS = 2**21

# most (mix, period) pairs a sweep may take: `evaluate_mixes` keeps about
# 1 KB a pair (its result row of each variant) and 2.5 KB a mix (its
# cores and conventional runs), and `mitigation-eval` peaks near 300 MB
# at this count of mixes of one period
MAX_MIX_PERIODS = 2**16


def _core_rows(spec: CoreSpec, core_id: int, seed: int, n: int) -> np.ndarray:
    """Deterministic rows of a core's first n requests, in its private
    bank, as int64; request i hashes (core seed, core id, i)."""
    i = np.arange(n, dtype=np.int64)
    if spec.kind == "stream":
        return spec.row_base + (i // 8) % spec.footprint
    h = stable_hash_each(stable_hash(seed, core_id), core_id, i)
    if spec.kind == "random":
        return (spec.row_base + (h >> 8) % spec.footprint).astype(np.int64)
    # rowlocal: a request keeps the previous row with probability `locality`
    fresh = np.where(h % 1000 < int(spec.locality * 1000), 0, i)
    rows = spec.row_base + (h >> 12) % spec.footprint
    return rows[np.maximum.accumulate(fresh)].astype(np.int64)


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
_PUD_OPS = ((SIMRA, _PUD_SIMRA_ROWS), (COMRA, _PUD_COMRA_ROWS))
_ROWS = 4096  # rows of each bank


def _prac(config: Optional[PracConfig]) -> Optional[PracState]:
    """Fresh PRAC counters for one bank, or None when PRAC is off."""
    if config is None:
        return None
    return PracState(config, rows=_ROWS, t_rc=_TIMING.t_rc)


def _rfm_ns(victims: tuple[int, ...]) -> float:
    """An RFM that refreshes `victims` blocks the bank one tRC per
    refreshed row (at least one)."""
    return _TIMING.t_rc * max(1, len(victims))


def _conventional(
    spec: CoreSpec,
    core_id: int,
    row: np.ndarray,
    mitigation: Optional[PracConfig],
) -> tuple[float, int, int, float, tuple[float, float, int]]:
    """One conventional core's timeline over `row`, the int64 row of each
    request: its rate, back-offs, RFMs, the completion time and the
    scheduling key of its last request.

    Only this core uses the bank, so a request starts when it is issued,
    the previous completion plus the gap, after the RFM of a back-off
    raised by the previous miss.  The misses are counted in bulk
    (`PracState.on_activations`); the counter update of a one-row
    activation hides in its precharge slot, so it adds no service time.
    The times are one prefix sum of 0.0 and, per request, its RFM, its
    service and the gap to the next."""
    prac = _prac(mitigation)
    n = len(row)
    miss = np.concatenate(([True], row[1:] != row[:-1]))
    inc = np.zeros(2 * n)
    inc[1::2] = np.where(miss, _TIMING.t_rc, T_HIT)
    inc[2::2] = spec.gap_ns
    backoffs, served = 0, np.zeros(0, dtype=int)  # requests whose back-off an RFM serves
    if prac is not None:
        misses = np.flatnonzero(miss)
        raised = misses[prac.on_activations(row[misses])]
        backoffs = len(raised)
        served = raised[raised + 1 < n]  # a back-off on the last request stays unserved
    # each RFM refreshes around the row that raised its back-off
    rfm_ns = [_rfm_ns(rfm_victims(r, _ROWS)) for r in row[served].tolist()]
    t = np.cumsum(np.insert(inc, 2 * served + 3, rfm_ns))
    # the last request became ready before the RFM that precedes it
    start, ready = float(t[-2]), float(t[-2 - int((served == n - 2).sum())])
    done = float(t[-1])
    return n * INSTR_PER_REQ / done, backoffs, len(served), done, (start, ready, core_id)


def _pud_cycle(mitigation: Optional[PracConfig]) -> tuple[np.ndarray, int, int]:
    """The PuD bank's steps on fresh PRAC counters until they repeat: a
    read-only table of (is RFM, service time, back-offs so far), the step
    its repeat starts at, and the back-offs each repeat adds.  The steps
    from that one on repeat for good.

    Without PRAC the cycle is one op, from the first step, with no
    back-offs.  With it, every op opens the same rows and PRAC never
    reads the time, so the counters before an op fix every step after
    it.  They are keyed before the run's first op and before the first
    op after each back-off burst, and the cycle closes at the first key
    seen twice.  Every op raises its rows' counters and RFMs bound them,
    so back-offs recur and every configuration repeats.

    After a burst, the ops before the one that raises the next back-off
    are counted in one step (`PracState.on_repeats`); that op is counted
    by `on_op`, and every op's service is the same."""
    service = _PUD_OP_NS + RANK_TURNAROUND
    if mitigation is None:
        rows, first, added = [(False, service, 0)], 0, 0
    else:
        prac = _prac(mitigation)
        rows = []
        seen: dict = {}  # counters before a keyed op -> (its step, back-offs so far)
        while True:
            if prac.backoff_pending:
                rows.append((True, _rfm_ns(prac.rfm()), prac.backoffs))
                continue
            if not rows or rows[-1][0]:
                key = frozenset(prac.counters.items())
                if key in seen:
                    first, before = seen[key]
                    added = prac.backoffs - before
                    break
                seen[key] = len(rows), prac.backoffs
            quiet, before = prac.on_repeats(_PUD_OPS), prac.backoffs
            op = service + sum(prac.on_op(kind, opened) for kind, opened in _PUD_OPS)
            rows += [(False, op, before)] * quiet + [(False, op, prac.backoffs)]
    steps = np.array(rows, dtype=float)
    steps.flags.writeable = False
    return steps, first, added


def _with_pud(conv: PerfResult, cycle: tuple[np.ndarray, int, int], period_ns: float,
              target_reqs: int) -> PerfResult:
    """Add the PuD core's timeline, its `cycle` (`_pud_cycle`) laid out
    to this run's stop, to a run of the conventional cores (`conv`, which
    has no PuD core).

    A step starts when the bank is free and the core ready: an RFM holds
    the bank for its service, an op for its service or the period,
    whichever is longer, since rounding is monotone:
    fl(t + max(s, p)) == max(fl(t + s), fl(t + p)).  The starts are one
    prefix sum of the holds, over enough repeats of the cycle to pass the
    stop, plus two to spare for the running sum's rounding, half an ulp a
    step, far less than a repeat's hold.  The run consumes the steps
    before the first whose key (start, ready, core id) sorts after
    `conv.stop_key` or, without one, through its `target_reqs`-th op."""
    steps, first, cycle_backoffs = cycle
    pud_id = len(conv.shared_rates)
    is_op = steps[:, 0] == 0
    hold = np.where(is_op, np.maximum(steps[:, 1], period_ns), steps[:, 1])
    # a repeat's total hold, and the starts past the stop, may overflow; no cut reads them
    with np.errstate(over="ignore"):
        if conv.stop_key is None:
            reps = -(-target_reqs // int(is_op[first:].sum()))
        else:
            reps = int(conv.stop_key[0] // hold[first:].sum())
        # each step's row of `steps`, over the repeats that pass the stop and two more
        at = np.concatenate((np.arange(first),
                             np.tile(np.arange(first, len(steps)), reps + 2)))
        t = np.cumsum(np.concatenate(([0.0], hold[at])))  # start of each step and the next
    op = is_op[at]
    if conv.stop_key is None:
        past = np.concatenate(([0], np.cumsum(op))) >= target_reqs  # by ops before each
    else:
        # the core is ready at the start of the step after its last op
        after_op = np.concatenate(([0], np.where(op, np.arange(1, len(t)), 0)))
        ready = t[np.maximum.accumulate(after_op)]
        s0, r0, c0 = conv.stop_key
        past = (t > s0) | (t == s0) & ((ready > r0) | (ready == r0) & (pud_id > c0))
    k = int(np.flatnonzero(past)[0])  # steps consumed
    op_idx = np.flatnonzero(op[:k])
    completed = len(op_idx)
    done = (t[op_idx] + steps[at[op_idx], 1]).tolist() or [0.0]  # each op's completion
    first_done, last = done[0], done[-1]
    end = max(conv.end_time, last)
    if completed >= 2 and last > first_done:
        # rate over whole inter-completion periods: exact for a
        # periodic core, free of end-of-run partial-period noise
        rate = (completed - 1) / (last - first_done)
    else:
        # a periodic core completes at most one op per period
        span = max(end, period_ns)
        rate = completed / span if span > 0 else 0.0
    # back-offs by the last step consumed: its row's, plus whole repeats'
    backoffs = 0
    if k:
        repeats = max(k - 1 - first, 0) // (len(steps) - first)
        backoffs = int(steps[at[k - 1], 2]) + repeats * cycle_backoffs
    return PerfResult(
        shared_rates={**conv.shared_rates, pud_id: rate},
        backoffs=conv.backoffs + backoffs,
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
    rows: Optional[list[np.ndarray]] = None,
) -> PerfResult:
    """Simulate the given cores to completion of `target_reqs` requests
    per conventional core; the PuD core (enabled when period_ns is set)
    free-runs and is measured by rate.  Every bank counts with
    `mitigation`'s PRAC configuration, or not at all when it is None.
    Unless given, the run makes its own core `rows`."""
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
        res = _with_pud(res, _pud_cycle(mitigation), period_ns, target_reqs)
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
    # 2. each variant's PuD cycle, which does not depend on the period either
    cycles = {name: _pud_cycle(mit) for name, mit in variants.items()}
    # 3. every run lays its variant's cycle out to its own stop; the PuD
    # core alone reads no seed, so its rate depends only on the period
    pud_alone = {
        period: run_mix((), None, period, 0, target_reqs).shared_rates[0]
        for period in periods
    }
    out = []
    for mix, conv in zip(mixes, convs):
        alone = dict(conv["none"].shared_rates)
        for period in periods:
            alone[len(mix.cores)] = pud_alone[period]
            ws_by_variant: dict[str, tuple[float, PerfResult]] = {}
            for name in variants:
                res = _with_pud(conv[name], cycles[name], period, target_reqs)
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
