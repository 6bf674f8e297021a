"""Multi-core performance model: weighted speedup and mitigation cost."""

import hashlib
from collections import Counter
from typing import Optional

import numpy as np
import pytest

from pudsim.disturbance import COMRA, RH, SIMRA
from pudsim.errors import ConfigError
from pudsim.mitigation import PracConfig, PracState
from pudsim.perf import (
    _PUD_COMRA_ROWS,
    _PUD_OP_NS,
    _PUD_SIMRA_ROWS,
    CORE_KINDS,
    INSTR_PER_REQ,
    PERF_COLUMNS,
    RANK_TURNAROUND,
    T_HIT,
    _TIMING,
    CoreSpec,
    PerfResult,
    _conventional,
    _core_rows,
    _prac,
    _pud_cycle,
    _rfm_ns,
    _with_pud,
    default_variants,
    evaluate_mixes,
    make_mixes,
    run_mix,
    weighted_speedup,
)
from pudsim.rng import stable_hash, stable_hash_each


def test_weighted_speedup_examples():
    assert weighted_speedup({0: 2.0, 1: 3.0}, {0: 2.0, 1: 3.0}) == pytest.approx(2.0)
    assert weighted_speedup({0: 1.0}, {0: 2.0}) == pytest.approx(0.5)
    five = {i: 1.0 for i in range(5)}
    assert weighted_speedup(five, five) == pytest.approx(5.0)


def test_weighted_speedup_rejects_zero_alone_rate():
    with pytest.raises(ConfigError):
        weighted_speedup({0: 1.0}, {0: 0.0})


def test_core_spec_validation():
    with pytest.raises(ConfigError):
        CoreSpec(kind="dsp")
    with pytest.raises(ConfigError):
        CoreSpec(kind="rowlocal", locality=1.5)


def test_mixes_are_deterministic():
    assert make_mixes(5, seed=3) == make_mixes(5, seed=3)
    assert make_mixes(5, seed=3) != make_mixes(5, seed=4)


def test_run_mix_is_deterministic():
    cores = make_mixes(1, seed=2)[0].cores
    a = run_mix(cores, None, 1000.0, seed=7, target_reqs=400)
    b = run_mix(cores, None, 1000.0, seed=7, target_reqs=400)
    assert a.shared_rates == b.shared_rates
    assert (a.backoffs, a.rfm_count) == (b.backoffs, b.rfm_count)


def test_isolated_cores_run_near_alone_speed():
    """Private banks: an unmitigated core runs exactly at its alone speed,
    so the unmitigated weighted speedup of a five-core mix is exactly 5."""
    rows = evaluate_mixes(make_mixes(3, seed=0),
                          periods=(125.0, 250.0, 1000.0, 4000.0, 16000.0), target_reqs=400)
    none = [r for r in rows if r["mitigation"] == "none"]
    assert len(none) == 15
    assert all(r["weighted_speedup"] == 5.0 for r in none)


# (mix, variant, period) -> (repr(shared_rates), backoffs, rfm_count) of
# make_mixes(3, seed=11) at target_reqs=400, recorded from the global
# FR-FCFS scheduler that the per-core timelines replaced
_RUN_MIX_REFERENCE = {
    (0, "none", 125.0): (
        "{0: 0.6116769122549469, 1: 1.2460476924754296, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.006644518272425249}",
        0, 0,
    ),
    (0, "none", 4000.0): (
        "{0: 0.6116769122549469, 1: 1.2460476924754296, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.00025}",
        0, 0,
    ),
    (0, "prac-po-naive", 125.0): (
        "{0: 0.5980950672109332, 1: 1.1874545427557852, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.001802791341825953}",
        23, 254,
    ),
    (0, "prac-po-naive", 4000.0): (
        "{0: 0.5980950672109332, 1: 1.1874545427557852, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.00025}",
        17, 36,
    ),
    (0, "prac-po-wc", 125.0): (
        "{0: 0.6116769122549469, 1: 1.2460476924754296, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.001916055095621995}",
        8, 228,
    ),
    (0, "prac-po-wc", 4000.0): (
        "{0: 0.6116769122549469, 1: 1.2460476924754296, 2: 0.4765649200562347, 3: 0.9909575126966431, 4: 0.00025}",
        1, 20,
    ),
    (1, "none", 125.0): (
        "{0: 0.8682533997547184, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.006644518272425249}",
        0, 0,
    ),
    (1, "none", 4000.0): (
        "{0: 0.8682533997547184, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.00025}",
        0, 0,
    ),
    (1, "prac-po-naive", 125.0): (
        "{0: 0.824827301783689, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.0019007155635062613}",
        19, 192,
    ),
    (1, "prac-po-naive", 4000.0): (
        "{0: 0.824827301783689, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.00025}",
        13, 13,
    ),
    (1, "prac-po-wc", 125.0): (
        "{0: 0.8682533997547184, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.0019627894702117835}",
        6, 179,
    ),
    (1, "prac-po-wc", 4000.0): (
        "{0: 0.8682533997547184, 1: 0.6200108501898783, 2: 1.4248058702001851, 3: 0.9068444081706681, 4: 0.00025}",
        0, 0,
    ),
    (2, "none", 125.0): (
        "{0: 0.9734847102057703, 1: 0.591108254087883, 2: 1.160833478437518, 3: 0.4611057315442431, 4: 0.006644518272425249}",
        0, 0,
    ),
    (2, "none", 4000.0): (
        "{0: 0.9734847102057703, 1: 0.591108254087883, 2: 1.160833478437518, 3: 0.4611057315442431, 4: 0.00025}",
        0, 0,
    ),
    (2, "prac-po-naive", 125.0): (
        "{0: 0.9641923081558617, 1: 0.5710573841288876, 2: 1.160833478437518, 3: 0.4488128899061981, 4: 0.0018541192933356656}",
        34, 280,
    ),
    (2, "prac-po-naive", 4000.0): (
        "{0: 0.9641923081558617, 1: 0.5710573841288876, 2: 1.160833478437518, 3: 0.4488128899061981, 4: 0.0002309908931840362}",
        27, 60,
    ),
    (2, "prac-po-wc", 125.0): (
        "{0: 0.9734847102057703, 1: 0.591108254087883, 2: 1.160833478437518, 3: 0.4611057315442431, 4: 0.001916055095621995}",
        8, 242,
    ),
    (2, "prac-po-wc", 4000.0): (
        "{0: 0.9734847102057703, 1: 0.591108254087883, 2: 1.160833478437518, 3: 0.4611057315442431, 4: 0.00023205221174764322}",
        1, 32,
    ),
}


@pytest.mark.parametrize("key", sorted(_RUN_MIX_REFERENCE))
def test_run_mix_matches_reference_values(key):
    mix_id, variant, period = key
    mix = make_mixes(3, seed=11)[mix_id]
    res = run_mix(mix.cores, default_variants()[variant], period, mix.seed,
                  target_reqs=400)
    assert (repr(res.shared_rates), res.backoffs, res.rfm_count) == (
        _RUN_MIX_REFERENCE[key]
    )


@pytest.mark.parametrize("period", [3e6, 1e6, 1e7, 1.7e305])
def test_a_pud_core_slower_than_the_run_keeps_speedup_within_the_core_count(period):
    """A PuD core that completes fewer than two ops before the run stops
    still progresses at most one op per period, as it does alone."""
    target = 1000 if period > 1e300 else 2000
    rows = evaluate_mixes(make_mixes(1, seed=1), periods=(period,), target_reqs=target)
    ws = {r["mitigation"]: r["weighted_speedup"] for r in rows}
    assert ws["none"] == 5.0
    assert 0 < ws["prac-po-naive"] <= 5.0 and 0 < ws["prac-po-wc"] <= 5.0


def test_run_mix_rejects_more_cores_than_banks():
    cores = tuple(CoreSpec(kind="stream", row_base=i * 256) for i in range(8))
    with pytest.raises(ConfigError):
        run_mix(cores, None, None, seed=1, target_reqs=10)


def test_benign_rowlocal_traffic_sees_negligible_prac_cost():
    """With the back-off threshold at RowHammer scale, ordinary row-local
    traffic almost never triggers refresh management."""
    cores = tuple(
        CoreSpec(kind="rowlocal", gap_ns=30.0, locality=0.6, footprint=32, row_base=i * 256)
        for i in range(4)
    )
    base = run_mix(cores, None, None, seed=3, target_reqs=1500)
    wc = PracConfig(mode="po", rdt=4000)
    prac = run_mix(cores, wc, None, seed=3, target_reqs=1500)
    assert prac.rfm_count == 0
    for core, rate in base.shared_rates.items():
        assert prac.shared_rates[core] >= 0.98 * rate


def test_naive_low_threshold_punishes_conventional_reuse():
    cores = (CoreSpec(kind="random", gap_ns=30.0, footprint=8),)
    naive = PracConfig(mode="po", rdt=20, weighted=False)
    res = run_mix(cores, naive, None, seed=1, target_reqs=1000)
    assert res.rfm_count > 0 and res.backoffs > 0


def test_evaluate_mixes_rows_follow_schema():
    rows = evaluate_mixes(make_mixes(1, seed=1), periods=(1000.0,), target_reqs=300)
    assert len(rows) == 3
    for r in rows:
        assert tuple(r.keys()) == PERF_COLUMNS
    none = [r for r in rows if r["mitigation"] == "none"][0]
    assert none["overhead_pct"] == 0.0


def test_variants_must_include_baseline():
    with pytest.raises(ConfigError):
        evaluate_mixes(
            make_mixes(1, seed=1),
            periods=(1000.0,),
            target_reqs=300,
            variants={"trr": None},
        )
    # the baseline doubles as the alone run, so it must be unmitigated
    with pytest.raises(ConfigError):
        evaluate_mixes(
            make_mixes(1, seed=1),
            periods=(1000.0,),
            target_reqs=300,
            variants={"none": default_variants()["prac-po-wc"]},
        )


def test_ordering_and_monotonicity_small():
    periods = (125.0, 1000.0, 16000.0)
    rows = evaluate_mixes(make_mixes(2, seed=9), periods=periods, target_reqs=800)
    for m in range(2):
        for variant in ("prac-po-naive", "prac-po-wc"):
            seq = [
                r["overhead_pct"]
                for p in periods
                for r in rows
                if r["mix_id"] == m and r["mitigation"] == variant and r["period_ns"] == p
            ]
            assert all(a >= b - 1e-9 for a, b in zip(seq, seq[1:]))
        for p in periods:
            by = {
                r["mitigation"]: r["overhead_pct"]
                for r in rows
                if r["mix_id"] == m and r["period_ns"] == p
            }
            assert by["prac-po-naive"] >= by["prac-po-wc"] - 1e-9


def test_default_variants_cover_both_counting_policies():
    v = default_variants()
    assert set(v) == {"none", "prac-po-naive", "prac-po-wc"}
    assert v["none"] is None
    assert v["prac-po-naive"].rdt == 20
    assert v["prac-po-wc"].rdt == 4000
    assert v["prac-po-wc"].weights["simra"] == 200


# -- fast paths pinned to the per-request and per-run loops they replace


def reference_row(spec: CoreSpec, core_id: int, seed: int, i: int,
                  prev: Optional[int]) -> int:
    """Row of request i of a core, one `stable_hash` per request; `seed`
    is the core's seed and `prev` the row of request i - 1."""
    if spec.kind == "stream":
        return spec.row_base + (i // 8) % spec.footprint
    h = stable_hash(seed, core_id, i)
    if spec.kind == "random":
        return spec.row_base + (h >> 8) % spec.footprint
    # rowlocal: sticky row with a locality knob
    if prev is not None and (h % 1000) < int(spec.locality * 1000):
        return prev
    return spec.row_base + (h >> 12) % spec.footprint


def reference_with_pud(conv: PerfResult, mitigation: Optional[PracConfig],
                       period_ns: float, target_reqs: int) -> PerfResult:
    """The PuD core run op by op on fresh PRAC counters of its own."""
    prac = _prac(mitigation)
    pud_id = len(conv.shared_rates)
    op_time = _PUD_OP_NS + RANK_TURNAROUND
    ready = free = 0.0
    first = last = 0.0
    rfms = completed = 0
    while True:
        start = max(ready, free)
        if conv.stop_key is None:
            if completed >= target_reqs:
                break
        elif (start, ready, pud_id) > conv.stop_key:
            break
        if prac is not None and prac.backoff_pending:
            free = start + _rfm_ns(prac.rfm())
            rfms += 1
            continue
        service = op_time
        if prac is not None:
            u1 = prac.on_op(SIMRA, _PUD_SIMRA_ROWS)
            u2 = prac.on_op(COMRA, _PUD_COMRA_ROWS)
            service += u1 + u2
        done = start + service
        completed += 1
        if completed == 1:
            first = done
        last = done
        ready = max(done, start + period_ns)
        free = done
    end = max(conv.end_time, last)
    if completed >= 2 and last > first:
        rate = (completed - 1) / (last - first)
    else:
        span = max(end, period_ns)
        rate = completed / span if span > 0 else 0.0
    return PerfResult(
        shared_rates={**conv.shared_rates, pud_id: rate},
        backoffs=conv.backoffs + (prac.backoffs if prac is not None else 0),
        rfm_count=conv.rfm_count + rfms,
        end_time=end,
        stop_key=conv.stop_key,
    )


def reference_conventional(spec: CoreSpec, core_id: int, rows: list[int],
                           mitigation: Optional[PracConfig], target_reqs: int):
    """A conventional core run request by request on fresh PRAC counters."""
    prac = _prac(mitigation)
    ready = free = 0.0
    open_row = -1
    rfms = completed = 0
    while True:
        row = rows[completed]
        start = max(ready, free)
        while prac is not None and prac.backoff_pending:
            free = start + _rfm_ns(prac.rfm())
            rfms += 1
            start = max(ready, free)
        if row == open_row:
            done = start + T_HIT
        else:
            done = start + _TIMING.t_rc
            open_row = row
            if prac is not None:
                prac.on_op(RH, (row,))
        completed += 1
        if completed >= target_reqs:
            break
        free = done
        ready = done + spec.gap_ns
    rate = completed * INSTR_PER_REQ / done
    backoffs = prac.backoffs if prac is not None else 0
    return rate, backoffs, rfms, done, (start, ready, core_id)


def reference_pud_steps(mitigation: Optional[PracConfig], n: int) -> list:
    """The PuD bank's first `n` steps, (is RFM, service time, back-offs
    so far), made one by one on fresh PRAC counters."""
    prac = _prac(mitigation)
    rows: list[tuple[bool, float, int]] = []
    while len(rows) < n:
        if prac is not None and prac.backoff_pending:
            rows.append((True, _rfm_ns(prac.rfm()), prac.backoffs))
            continue
        service = _PUD_OP_NS + RANK_TURNAROUND
        if prac is not None:
            service += prac.on_op(SIMRA, _PUD_SIMRA_ROWS) + prac.on_op(COMRA, _PUD_COMRA_ROWS)
        rows.append((False, service, 0 if prac is None else prac.backoffs))
    return rows


def _fields(res: PerfResult):
    return repr(res.shared_rates), res.backoffs, res.rfm_count, res.end_time, res.stop_key


_PUD_VARIANTS = {
    "none": None,
    "naive": default_variants()["prac-po-naive"],
    "wc": default_variants()["prac-po-wc"],
    "ao": PracConfig(mode="ao"),
    "rdt1": PracConfig(rdt=1),
}
# 400 ops at 4e305 ns stay finite, but a repeat of 400 `wc` ops does not
_PUD_PERIODS = (1.0, 125.0, 16000.0, 1e6, 4e305)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target_reqs", [1, 2, 400])
@pytest.mark.parametrize("with_conv", [False, True], ids=["pud-alone", "mix"])
@pytest.mark.parametrize("variant", sorted(_PUD_VARIANTS))
def test_step_walk_matches_reference_with_pud(variant, with_conv, target_reqs):
    """Every period lays out the variant's one PuD cycle and matches a
    run on fresh counters field for field, as does the same cycle with
    its first repeat written out as steps before the repeat starts."""
    mit = _PUD_VARIANTS[variant]
    mix = make_mixes(1, seed=4)[0]
    cores = mix.cores if with_conv else ()
    conv = run_mix(cores, mit, None, mix.seed, target_reqs)
    steps, first, backoffs = _pud_cycle(mit)
    headed = (np.concatenate((steps, steps[first:] + [0, 0, backoffs])), len(steps), backoffs)
    for period in _PUD_PERIODS:
        want = _fields(reference_with_pud(conv, mit, period, target_reqs))
        for cycle in ((steps, first, backoffs), headed):
            assert _fields(_with_pud(conv, cycle, period, target_reqs)) == want


@pytest.mark.parametrize("variant", ["none", "naive", "ao"])
def test_step_walk_stops_on_key_ties_as_the_reference(variant):
    """Stop keys equal to the own start and ready time of each step
    through the 40th op, against a conventional core ranked before or
    after the PuD core."""
    mit = _PUD_VARIANTS[variant]
    cycle = _pud_cycle(mit)
    keys, t, ready, ops = [], 0.0, 0.0, 0
    for is_rfm, service, _ in reference_pud_steps(mit, 400):
        keys.append((t, ready))
        t += service if is_rfm else max(service, 125.0)
        ready = ready if is_rfm else t
        ops += not is_rfm
        if ops == 40:
            break
    for t, ready in keys:
        for key in ((t, ready, 0), (t, ready, 1), (t, ready - 0.5, 1), (t, t + 1.0, 0)):
            conv = PerfResult({0: 1.0}, 0, 0, 10.0, stop_key=key)
            want = _fields(reference_with_pud(conv, mit, 125.0, 40))
            assert _fields(_with_pud(conv, cycle, 125.0, 40)) == want


def _tiled(cycle, n: int) -> list:
    """The first `n` steps that `cycle` stands for: its steps, then its
    steps from the repeat's first on, again and again, each repeat adding
    its back-offs to the third column."""
    steps, first, backoffs = cycle
    rows, repeat = steps[:first].tolist(), 0
    while len(rows) < n:
        rows += [[is_rfm, service, b + repeat * backoffs]
                 for is_rfm, service, b in steps[first:].tolist()]
        repeat += 1
    return rows[:n]


@pytest.mark.parametrize("variant", [*sorted(_PUD_VARIANTS), "rdt1e4"])
def test_tiled_pud_cycle_matches_reference_pud_steps(variant):
    """The cycle, tiled to 5,000 steps, equals the steps made one by one,
    row for row: past several repeats of every variant, and past one of
    a 1,000-op cycle."""
    mit = _PUD_VARIANTS.get(variant, PracConfig(rdt=10**4))
    cycle = _pud_cycle(mit)
    assert not cycle[0].flags.writeable  # no run can change what the next one reads
    want = np.array(reference_pud_steps(mit, 5000), dtype=float).tolist()
    assert _tiled(cycle, 5000) == want


def test_pud_steps_repeat_the_cycle_from_step_zero():
    """Without PRAC one op repeats; naive counting repeats 20 ops and 34
    RFMs with one back-off, weighted counting 400 ops and 642 RFMs with
    20, as (first step, ops, RFMs, back-offs)."""
    shapes = []
    for variant in ("none", "naive", "wc"):
        steps, first, backoffs = _pud_cycle(_PUD_VARIANTS[variant])
        is_rfm = steps[first:, 0]
        shapes.append((first, int((is_rfm == 0).sum()), int(is_rfm.sum()), backoffs))
    assert shapes == [(0, 1, 0, 0), (0, 20, 34, 1), (0, 400, 642, 20)]


# (rdt, first step, ops, RFMs, back-offs, SHA-256 of the steps' bytes),
# recorded from the PuD bank stepped op by op
_LONG_PUD_CYCLES = [
    (10**4, 0, 1000, 642, 20,
     "9c5ee49edbe8c935468c92c6c53db1583117036999116128bbfcd4611454c3de"),
    (10**6, 0, 100000, 642, 20,
     "0e8721b2b964443d570c599dae2d4325c40dad471bc772384c99cdce5b13b448"),
]


@pytest.mark.parametrize("rdt, first, ops, rfms, backoffs, digest", _LONG_PUD_CYCLES,
                         ids=["rdt1e4", "rdt1e6"])
def test_long_pud_cycles_stay_as_recorded(rdt, first, ops, rfms, backoffs, digest):
    steps, got_first, got_backoffs = _pud_cycle(PracConfig(rdt=rdt))
    is_rfm = steps[got_first:, 0]
    assert (got_first, int((is_rfm == 0).sum()), int(is_rfm.sum()), got_backoffs) == (
        first, ops, rfms, backoffs)
    assert hashlib.sha256(steps.tobytes()).hexdigest() == digest


def test_prac_counts_in_bulk_between_back_offs(monkeypatch):
    """A PuD cycle counts through `on_op` only the op that raises each
    back-off, two calls, and serves every RFM through `rfm`; a
    conventional core calls neither."""
    calls = Counter()
    for name in ("on_op", "rfm"):
        def spy(self, *a, _real=getattr(PracState, name), _name=name):
            calls[_name] += 1
            return _real(self, *a)

        monkeypatch.setattr(PracState, name, spy)
    for variant, want in (("naive", (2, 34)), ("wc", (40, 642))):
        calls.clear()
        _pud_cycle(_PUD_VARIANTS[variant])
        assert (calls["on_op"], calls["rfm"]) == want
    calls.clear()
    spec = CoreSpec(kind="random", footprint=8)
    res = _conventional(spec, 0, _core_rows(spec, 0, 1, 2000), _PUD_VARIANTS["naive"])
    assert res[2] > 0 and not calls


# rows a random stream draws from: the bank's edges and a few inner rows
_STREAM_ROWS = (0, 1, 2, 3, 100, 101, 2048, 4093, 4094, 4095)


def _random_prac(draw) -> PracConfig:
    rdt = int(draw.choice([*range(1, 61), 4000, 10**4]))
    return PracConfig(mode=str(draw.choice(["ao", "po"])), rdt=rdt,
                      weights={RH: int(draw.integers(1, 8)), COMRA: 10, SIMRA: 200},
                      weighted=bool(draw.integers(2)))


def test_bulk_conventional_matches_reference_on_random_configs():
    """Random PRAC configurations and row streams with repeats, bank-edge
    rows and, in every other stream, a back-off on the last request."""
    draw = np.random.default_rng(25)
    last_raised = 0
    for case in range(300):
        mit = _random_prac(draw)
        pool = draw.choice(_STREAM_ROWS, size=int(draw.integers(1, 5)), replace=False)
        rows = draw.choice(pool, size=int(draw.integers(1, 300))).tolist()
        if case % 2:
            # end on the miss that brings a row to the threshold since its last clear
            r, o = draw.choice(_STREAM_ROWS, size=2, replace=False).tolist()
            per_backoff = -(-mit.rdt // mit.increment(RH))
            misses = sum(x == r and (i == 0 or rows[i - 1] != r) for i, x in enumerate(rows))
            rows += [o, r] * (per_backoff - misses % per_backoff)
        spec = CoreSpec(kind="random", gap_ns=float(draw.integers(0, 200)))
        got = _conventional(spec, 3, rows, mit)
        assert repr(got) == repr(reference_conventional(spec, 3, rows, mit, len(rows)))
        last_raised += got[1] == got[2] + 1
    assert last_raised >= 150


@pytest.mark.parametrize("rows", [[5, 4097, 3, -2], [-2], [4095, 4095, 4096], [7, -3, 9000]])
def test_bulk_conventional_names_the_first_row_outside_the_bank(rows):
    spec = CoreSpec(kind="random")
    mit = _PUD_VARIANTS["naive"]
    with pytest.raises(ConfigError) as want:
        reference_conventional(spec, 0, rows, mit, len(rows))
    with pytest.raises(ConfigError) as got:
        _conventional(spec, 0, rows, mit)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", CORE_KINDS)
@pytest.mark.parametrize("variant", sorted(_PUD_VARIANTS))
def test_conventional_timeline_matches_reference(variant, kind):
    mit = _PUD_VARIANTS[variant]
    for gap in (0.0, 199.0):
        for locality in (0.0, 1.0):
            spec = CoreSpec(kind=kind, gap_ns=gap, locality=locality, footprint=8,
                            row_base=256)
            for target_reqs in (1, 2, 400, 2000):
                rows = _core_rows(spec, 2, 5, target_reqs)
                got = _conventional(spec, 2, rows, mit)
                assert repr(got) == repr(
                    reference_conventional(spec, 2, rows, mit, target_reqs))


def test_conventional_leaves_a_back_off_after_the_last_request_unserved():
    spec = CoreSpec(kind="stream")
    rdt1 = _PUD_VARIANTS["rdt1"]
    for n in (1, 9):
        rows = _core_rows(spec, 0, 1, n)
        assert repr(_conventional(spec, 0, rows, rdt1)) == repr(
            reference_conventional(spec, 0, rows, rdt1, n))
    # the first request's miss raises a back-off that no RFM serves
    assert _conventional(spec, 0, [3], rdt1)[1:3] == (1, 0)
    # the ninth request misses again: two back-offs, only the first served
    assert _conventional(spec, 0, _core_rows(spec, 0, 1, 9), rdt1)[1:3] == (2, 1)


@pytest.mark.parametrize("variant", ["none", "naive"])
def test_conventional_watchdog_matches_reference(variant):
    """Simulated time has no cap: requests 1e9 ns apart, and a start at
    5e9 ns, run as the reference runs them."""
    mit = _PUD_VARIANTS[variant]
    spec = CoreSpec(kind="random", gap_ns=1e9)
    rows = _core_rows(spec, 0, 3, 10)
    assert repr(_conventional(spec, 0, rows, mit)) == repr(
        reference_conventional(spec, 0, rows, mit, 10))
    spec = CoreSpec(kind="stream", gap_ns=5e9 - _TIMING.t_rc)
    assert repr(_conventional(spec, 0, [0, 0], mit)) == repr(
        reference_conventional(spec, 0, [0, 0], mit, 2))


def test_cumsum_adds_left_to_right():
    """The prefix-sum timelines are exact only because `np.cumsum` adds
    float64 left to right, rounding each partial sum once, as a running
    Python sum does; a summation in any other order differs here."""
    rng = np.random.default_rng(0)
    inc = [1e16, 1.0, -1e16, 0.1, 1.0, 1e-3, 2.5e15, 0.7, -2.5e15, 0.3]
    inc += (rng.standard_normal(2000) * 10.0 ** rng.integers(-8, 17, 2000)).tolist()
    want, acc = [], 0.0
    for x in inc:
        acc += x
        want.append(acc)
    assert np.cumsum(np.array(inc)).tolist() == want
    assert float(np.sum(inc)) != want[-1] or float(np.sum(inc[::-1])) != want[-1]


@pytest.mark.parametrize("variant", sorted(_PUD_VARIANTS))
def test_step_list_serves_long_and_short_runs_in_either_order(variant):
    """One cycle serves every run: runs of 2 and 400 ops in either
    order, and the stops of three mixes at short and long periods."""
    mit = _PUD_VARIANTS[variant]
    conv = {n: run_mix((), mit, None, 0, n) for n in (2, 400)}
    want = {n: _fields(reference_with_pud(conv[n], mit, 125.0, n)) for n in (2, 400)}
    cycle = _pud_cycle(mit)
    for order in ((400, 2), (2, 400)):
        for n in order:
            assert _fields(_with_pud(conv[n], cycle, 125.0, n)) == want[n]
    runs = [run_mix(m.cores, mit, None, m.seed, n)
            for m in make_mixes(3, seed=2) for n in (2, 50, 400)]
    for run in runs:
        for period in (1.0, 125.0, 777.7, 16000.0):
            assert _fields(_with_pud(run, cycle, period, 0)) == _fields(
                reference_with_pud(run, mit, period, 0))


def test_stable_hash_each_matches_the_scalar_hash():
    i = np.arange(300)
    for seed, core_id in ((0, 0), (7, 3), (2**64 - 1, 6), (12345, -1)):
        got = stable_hash_each(seed, core_id, i)
        assert got.dtype == np.uint64
        assert got.tolist() == [stable_hash(seed, core_id, k) for k in range(300)]
    assert stable_hash_each(5, i).tolist() == [stable_hash(5, k) for k in range(300)]


@pytest.mark.parametrize("locality", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("kind", CORE_KINDS)
def test_core_rows_match_reference_row(kind, locality):
    for footprint in (1, 32):
        for row_base in (0, 768):
            spec = CoreSpec(kind=kind, locality=locality, footprint=footprint,
                            row_base=row_base)
            for seed in (0, 11, 2**40 + 3):
                for core_id in (0, 3):
                    for n in (1, 2000):
                        core_seed = stable_hash(seed, core_id)
                        want, prev = [], None
                        for i in range(n):
                            prev = reference_row(spec, core_id, core_seed, i, prev)
                            want.append(prev)
                        got = _core_rows(spec, core_id, seed, n)
                        assert got == want
                        # plain ints: rows key the PRAC counters
                        assert all(type(r) is int for r in got)


def test_evaluate_mixes_equals_independent_runs():
    """Sharing row streams and PuD cycles inside one call gives the
    rows that separate runs on fresh streams and counters give."""
    mixes = make_mixes(3, seed=13)
    periods = (125.0, 4000.0)
    variants = default_variants()
    target = 300
    want = []
    for mix in mixes:
        alone = dict(run_mix(mix.cores, None, None, mix.seed, target).shared_rates)
        for period in periods:
            alone[len(mix.cores)] = run_mix((), None, period, 0, target).shared_rates[0]
            runs = {}
            for name, mit in variants.items():
                conv = run_mix(mix.cores, mit, None, mix.seed, target)
                res = _with_pud(conv, _pud_cycle(mit), period, target)
                assert _fields(res) == _fields(
                    run_mix(mix.cores, mit, period, mix.seed, target))
                runs[name] = (weighted_speedup(res.shared_rates, alone), res)
            ws_base = runs["none"][0]
            for name, (ws, res) in runs.items():
                want.append({
                    "mix_id": mix.mix_id,
                    "period_ns": period,
                    "mitigation": name,
                    "weighted_speedup": round(ws, 6),
                    "overhead_pct": round(100.0 * (1.0 - ws / ws_base), 4),
                    "backoffs": res.backoffs,
                    "rfm_count": res.rfm_count,
                })
    assert evaluate_mixes(mixes, periods=periods, target_reqs=target) == want


def test_evaluate_mixes_keeps_no_state_between_calls():
    mixes = make_mixes(2, seed=6)
    periods = (125.0, 16000.0)
    first = evaluate_mixes(mixes, periods=periods, target_reqs=400)
    longer = evaluate_mixes(mixes, periods=periods, target_reqs=800)
    assert longer != first
    assert evaluate_mixes(mixes, periods=periods, target_reqs=400) == first


def test_run_mix_rejects_a_non_positive_request_target():
    with pytest.raises(ConfigError, match="target_reqs"):
        run_mix(make_mixes(1, seed=1)[0].cores, None, 1000.0, seed=1, target_reqs=0)
