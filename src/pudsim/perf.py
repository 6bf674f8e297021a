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
runs `target_reqs` ops.  One `evaluate_mixes` call draws each core's
row stream once per mix and runs its timeline once per mitigation
variant; it makes the PuD bank's PRAC steps, which see only the PuD
core's ops, once per variant, and each (mix, period) only times them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    target_reqs: int,
) -> tuple[float, int, int, float, tuple[float, float, int]]:
    """One conventional core's timeline over `rows`: its rate, back-offs,
    RFMs, the completion time and the scheduling key of its last request."""
    prac = _prac(mitigation)
    t_rc = _TIMING.t_rc
    ready = free = 0.0
    open_row = -1
    rfms = completed = 0
    while True:
        row = rows[completed]
        start = max(ready, free)
        # a pending RFM blocks the bank before the request is served
        while prac is not None and prac.backoff_pending:
            free = start + _rfm(prac)
            rfms += 1
            start = max(ready, free)
        _watchdog(start)
        if row == open_row:
            done = start + T_HIT
        else:
            done = start + t_rc
            open_row = row
            if prac is not None:
                # counter update hides in the precharge slot for
                # single-row activations; no extra service time
                prac.on_op(RH, (row,))
        completed += 1
        if completed >= target_reqs:
            break
        free = done
        ready = done + spec.gap_ns
    rate = completed * INSTR_PER_REQ / done
    backoffs = prac.backoffs if prac is not None else 0
    return rate, backoffs, rfms, done, (start, ready, core_id)


def _pud_steps(prac: Optional[PracState]) -> Iterator[tuple[bool, float, int]]:
    """The PuD bank's endless steps: (is RFM, service time, back-offs so far)."""
    op_time = _PUD_OP_NS + RANK_TURNAROUND
    while prac is None:
        yield False, op_time, 0
    while True:
        if prac.backoff_pending:
            yield True, _rfm(prac), prac.backoffs
            continue
        u1 = prac.on_op(SIMRA, _PUD_SIMRA_ROWS)
        u2 = prac.on_op(COMRA, _PUD_COMRA_ROWS)
        yield False, op_time + (u1 + u2), prac.backoffs


class _PudSteps(list):
    """The PuD bank's steps under one PRAC configuration, made by `more`
    as runs need them; no step depends on the period or the other cores."""

    def __init__(self, mitigation: Optional[PracConfig]):
        super().__init__()
        self.more = _pud_steps(_prac(mitigation))


def _with_pud(
    conv: PerfResult,
    steps: _PudSteps,
    period_ns: float,
    target_reqs: int,
) -> PerfResult:
    """Add the PuD core's timeline, timing `steps`, to a run of the
    conventional cores (`conv`, which has no PuD core); returns both."""
    pud_id = len(conv.shared_rates)
    ready = free = 0.0
    first = last = 0.0
    k = backoffs = rfms = completed = 0
    while True:
        # max() as conditionals, which take the same value without a call
        start = free if free > ready else ready
        if conv.stop_key is None:
            if completed >= target_reqs:
                break
        elif (start, ready, pud_id) > conv.stop_key:
            break
        _watchdog(start)
        if k == len(steps):
            steps.append(next(steps.more))
        is_rfm, service, backoffs = steps[k]
        k += 1
        if is_rfm:
            free = start + service
            rfms += 1
            continue
        done = start + service
        completed += 1
        if completed == 1:
            first = done
        last = done
        ready = start + period_ns if start + period_ns > done else done
        free = done
    end = max(conv.end_time, last)
    if completed >= 2 and last > first:
        # rate over whole inter-completion periods: exact for a
        # periodic core, free of end-of-run partial-period noise
        rate = (completed - 1) / (last - first)
    else:
        rate = completed / end if end > 0 else 0.0
    return PerfResult(
        shared_rates={**conv.shared_rates, pud_id: rate},
        backoffs=conv.backoffs + backoffs,
        rfm_count=conv.rfm_count + rfms,
        end_time=end,
        stop_key=conv.stop_key,
    )


def run_mix(
    conv_cores: tuple[CoreSpec, ...],
    mitigation: Optional[PracConfig],
    period_ns: Optional[float],
    seed: int,
    target_reqs: int = 2000,
    *,
    rows: Optional[list[list[int]]] = None,
    steps: Optional[_PudSteps] = None,
) -> PerfResult:
    """Simulate the given cores to completion of `target_reqs` requests
    per conventional core; the PuD core (enabled when period_ns is set)
    free-runs and is measured by rate.  Every bank counts with
    `mitigation`'s PRAC configuration, or not at all when it is None.
    Unless given, the run makes its own core `rows` and PuD `steps`."""
    if len(conv_cores) > CONV_BANKS:
        raise ConfigError(f"at most {CONV_BANKS} conventional cores, one per bank")
    if target_reqs < 1:
        raise ConfigError("target_reqs must be >= 1")
    if rows is None:
        rows = [_core_rows(spec, i, seed, target_reqs) for i, spec in enumerate(conv_cores)]
    lines = [
        _conventional(spec, i, core_rows, mitigation, target_reqs)
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
        steps = _PudSteps(mitigation) if steps is None else steps
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
    periods: tuple[float, ...] = (125.0, 250.0, 1000.0, 4000.0, 16000.0),
    variants: Optional[dict[str, Optional[PracConfig]]] = None,
    target_reqs: int = 2000,
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
    steps = {name: _PudSteps(mit) for name, mit in variants.items()}
    # the PuD core alone reads no seed, so its rate depends only on the period
    pud_alone = {
        period: run_mix((), None, period, 0, target_reqs, steps=steps["none"]).shared_rates[0]
        for period in periods
    }
    out = []
    for mix in mixes:
        rows = [_core_rows(spec, i, mix.seed, target_reqs) for i, spec in enumerate(mix.cores)]
        # conventional timelines do not depend on the PuD period
        conv = {
            name: run_mix(mix.cores, mit, None, mix.seed, target_reqs, rows=rows)
            for name, mit in variants.items()
        }
        alone = dict(conv["none"].shared_rates)
        for period in periods:
            alone[len(mix.cores)] = pud_alone[period]
            ws_by_variant: dict[str, tuple[float, PerfResult]] = {}
            for name in variants:
                res = _with_pud(conv[name], steps[name], period, target_reqs)
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
