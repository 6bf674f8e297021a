"""Multi-core performance model: weighted speedup and mitigation cost."""

import math
from typing import Optional

import numpy as np
import pytest

from pudsim.disturbance import COMRA, RH, SIMRA
from pudsim.errors import ConfigError, PudsimError
from pudsim import perf
from pudsim.mitigation import PracConfig
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
    _pud_steps,
    _rfm,
    _watchdog,
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
        _watchdog(start)
        if prac is not None and prac.backoff_pending:
            free = start + _rfm(prac)
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
        rate = completed / end if end > 0 else 0.0
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
            free = start + _rfm(prac)
            rfms += 1
            start = max(ready, free)
        _watchdog(start)
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


def reference_pud_steps(mitigation: Optional[PracConfig], period_ns: float,
                        horizon: float, target_reqs: int) -> np.ndarray:
    """The PuD bank's step table, made step by step on fresh PRAC
    counters to the stop."""
    prac = _prac(mitigation)
    rows: list[tuple[bool, float, int]] = []
    now, ops = 0.0, 0
    while ops < target_reqs or now <= horizon:
        if ops < target_reqs or now < horizon:
            _watchdog(now)
        if prac is not None and prac.backoff_pending:
            rows.append((True, _rfm(prac), prac.backoffs))
            now = now + rows[-1][1]
            continue
        service = _PUD_OP_NS + RANK_TURNAROUND
        if prac is not None:
            service += prac.on_op(SIMRA, _PUD_SIMRA_ROWS) + prac.on_op(COMRA, _PUD_COMRA_ROWS)
        rows.append((False, service, 0 if prac is None else prac.backoffs))
        now, ops = now + max(service, period_ns), ops + 1
    return np.array(rows, dtype=float).reshape(-1, 3)


def _table(mit: Optional[PracConfig], conv: PerfResult, period_ns: float,
           target_reqs: int):
    """The step table `run_mix` makes to cut `conv`'s run at `period_ns`."""
    stop = conv.stop_key
    return _pud_steps(mit, period_ns, stop[0] if stop else -math.inf,
                      0 if stop else target_reqs)


def _fields(res: PerfResult):
    return repr(res.shared_rates), res.backoffs, res.rfm_count, res.end_time, res.stop_key


_PUD_VARIANTS = {
    "none": None,
    "naive": default_variants()["prac-po-naive"],
    "wc": default_variants()["prac-po-wc"],
    "ao": PracConfig(mode="ao"),
    "rdt1": PracConfig(rdt=1),
}
_PUD_PERIODS = (1.0, 125.0, 16000.0, 1e6)


@pytest.mark.parametrize("target_reqs", [1, 2, 400])
@pytest.mark.parametrize("with_conv", [False, True], ids=["pud-alone", "mix"])
@pytest.mark.parametrize("variant", sorted(_PUD_VARIANTS))
def test_step_walk_matches_reference_with_pud(variant, with_conv, target_reqs):
    """Every period cuts one step table of the variant, made at the
    shortest period, and matches a run on fresh counters field for
    field."""
    mit = _PUD_VARIANTS[variant]
    mix = make_mixes(1, seed=4)[0]
    cores = mix.cores if with_conv else ()
    conv = run_mix(cores, mit, None, mix.seed, target_reqs)
    steps = _table(mit, conv, min(_PUD_PERIODS), target_reqs)
    for period in _PUD_PERIODS:
        got = _with_pud(conv, steps, period, target_reqs)
        assert _fields(got) == _fields(reference_with_pud(conv, mit, period, target_reqs))


def _outcome(run, *args):
    try:
        return _fields(run(*args))
    except PudsimError as e:
        return str(e)


@pytest.mark.parametrize("variant", ["none", "naive", "ao"])
def test_step_walk_stops_on_key_ties_as_the_reference(variant):
    """Stop keys equal to a step's own start and ready time, against a
    conventional core ranked before or after the PuD core, cut from the
    table of 40 ops and from a table made to the stop's own start."""
    mit = _PUD_VARIANTS[variant]
    steps = _pud_steps(mit, 125.0, -math.inf, 40)
    keys, t, ready = [], 0.0, 0.0
    for is_rfm, service, _ in steps.tolist():
        keys.append((t, ready))
        t += service if is_rfm else max(service, 125.0)
        ready = ready if is_rfm else t
    for t, ready in keys:
        for key in ((t, ready, 0), (t, ready, 1), (t, ready - 0.5, 1), (t, t + 1.0, 0)):
            conv = PerfResult({0: 1.0}, 0, 0, 10.0, stop_key=key)
            want = _fields(reference_with_pud(conv, mit, 125.0, 40))
            for table in (steps, _table(mit, conv, 125.0, 40)):
                assert _fields(_with_pud(conv, table, 125.0, 40)) == want


@pytest.mark.parametrize("variant", ["none", "naive"])
def test_step_walk_watchdog_matches_reference(variant):
    """A run raises exactly when a start it consumes passes the watchdog,
    whether its table raises making that step or its cut consumes it."""
    mit = _PUD_VARIANTS[variant]
    outcomes = set()

    def cut(conv, period, target_reqs):
        return _with_pud(conv, _table(mit, conv, period, target_reqs), period, target_reqs)

    for period in (1e6, 1e7, 0.999e7):
        for target_reqs in (450, 501, 502, 600):
            for stop_key in (None, (5e9, 5e9, 0), (6e9, 0.0, 0)):
                conv = (PerfResult({0: 1.0}, 0, 0, 10.0, stop_key=stop_key) if stop_key
                        else PerfResult({}, 0, 0, 0.0))
                want = _outcome(reference_with_pud, conv, mit, period, target_reqs)
                assert _outcome(cut, conv, period, target_reqs) == want
                outcomes.add(type(want))
    assert outcomes == {str, tuple}


def test_step_table_raises_before_a_step_a_run_must_consume_past_the_watchdog():
    """Ops start every 1e7 ns, so op i starts at i * 1e7 and op 501 at
    5.01e9, past the watchdog."""
    assert len(_pud_steps(None, 1e7, -math.inf, 501)) == 501
    assert len(_pud_steps(None, 1e7, 5e9, 0)) == 501
    for horizon, target_reqs in ((-math.inf, 502), (5.02e9, 0), (5.01e9, 502)):
        with pytest.raises(PudsimError, match="watchdog"):
            _pud_steps(None, 1e7, horizon, target_reqs)
    # a stop at 5.01e9 may leave the op that starts there: the table makes
    # it, and the cut raises only for a run that consumes it
    steps = _pud_steps(None, 1e7, 5.01e9, 0)
    assert len(steps) == 502
    outcomes = []
    for core_id in (0, 2):  # the PuD core, id 1, sorts after and before the stop
        conv = PerfResult({0: 1.0}, 0, 0, 10.0, stop_key=(5.01e9, 5.01e9, core_id))
        want = _outcome(reference_with_pud, conv, None, 1e7, 0)
        assert _outcome(_with_pud, conv, steps, 1e7, 0) == want
        outcomes.append(type(want))
    assert outcomes == [tuple, str]


def _steps_or_error(make, *args):
    try:
        return make(*args).tolist()
    except PudsimError as e:
        return str(e)


_NEVER_REPEATS = PracConfig(rdt=10**6)  # no back-off fires, so no state repeats


@pytest.mark.parametrize("variant", [*sorted(_PUD_VARIANTS), "never-repeats"])
def test_pud_steps_match_reference_pud_steps(variant):
    """The table that repeats the PuD bank's cycle equals the one made
    step by step, array for array: run lengths inside and across the
    cycle, and the stops of three mixes at short and odd periods."""
    mit = _PUD_VARIANTS.get(variant, _NEVER_REPEATS)
    cases = [(-math.inf, n) for n in (1, 2, 400)]
    if variant == "wc":  # its cycle is 400 ops and 642 RFMs
        cases += [(-math.inf, 2000), (-math.inf, 5000)]
    cases += [(run_mix(m.cores, mit, None, m.seed, n).stop_key[0], 0)
              for m in make_mixes(3, seed=2) for n in (400, 2000)]
    for period in (1.0, 125.0, 777.7):
        for horizon, target_reqs in cases:
            got = _pud_steps(mit, period, horizon, target_reqs)
            want = reference_pud_steps(mit, period, horizon, target_reqs)
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tolist() == want.tolist()


def test_pud_steps_repeat_the_cycle_from_step_zero(monkeypatch):
    """Without PRAC one op repeats; naive counting repeats 20 ops and 34
    RFMs with one back-off, weighted counting 400 ops and 642 RFMs with
    20; a threshold no op reaches never repeats."""
    cycles = []
    repeat = perf._repeat

    def spy(head, first, backoffs, *args):
        cycle = head[first:]
        cycles.append((first, int((cycle[:, 0] == 0).sum()), int(cycle[:, 0].sum()), backoffs))
        return repeat(head, first, backoffs, *args)

    monkeypatch.setattr(perf, "_repeat", spy)
    for mit in (None, _PUD_VARIANTS["naive"], _PUD_VARIANTS["wc"], _NEVER_REPEATS):
        _pud_steps(mit, 125.0, -math.inf, 5000)
    assert cycles == [(0, 1, 0, 0), (0, 20, 34, 1), (0, 400, 642, 20)]


@pytest.mark.parametrize("variant", ["none", "naive"])
def test_repeated_steps_raise_the_watchdog_where_reference_pud_steps_does(
        variant, monkeypatch):
    """At a period of about 1e7 ns the 500th op starts near the watchdog,
    5e9 ns, long after the cycle closed: the repeated table raises where
    the step-by-step one raises, and has its rows where it does not, for
    targets and horizons on either side, and a horizon equal to a start
    past the watchdog."""
    mit = _PUD_VARIANTS[variant]
    with monkeypatch.context() as m:
        m.setattr(perf, "_WATCHDOG_NS", math.inf)
        steps = reference_pud_steps(mit, 1e7, 5.03e9, 0)
    hold = np.where(steps[:, 0] > 0, steps[:, 1], np.maximum(steps[:, 1], 1e7))
    starts = np.cumsum(np.concatenate(([0.0], hold)))
    past = starts[starts > 5e9][:3].tolist()
    outcomes = set()
    for period in (1e7, 0.999e7):
        for horizon in (-math.inf, 4.9e9, 5e9, *past, 6e9):
            for target_reqs in (0, 450, 499, 500, 501, 502, 600):
                want = _steps_or_error(reference_pud_steps, mit, period, horizon, target_reqs)
                assert _steps_or_error(_pud_steps, mit, period, horizon, target_reqs) == want
                outcomes.add(type(want))
    assert outcomes == {str, list}


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
    spec = CoreSpec(kind="random", gap_ns=1e9)
    rows = _core_rows(spec, 0, 3, 10)
    mit = _PUD_VARIANTS[variant]
    with pytest.raises(PudsimError, match="watchdog"):
        reference_conventional(spec, 0, rows, mit, 10)
    with pytest.raises(PudsimError, match="watchdog"):
        _conventional(spec, 0, rows, mit)
    # a start at 5e9 itself is still progress
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
    """One table serves every run it reaches: runs of 2 and 400 ops in
    either order, and, made at the shortest period for the latest stop,
    every earlier stop at every longer period."""
    mit = _PUD_VARIANTS[variant]
    conv = {n: run_mix((), mit, None, 0, n) for n in (2, 400)}
    want = {n: _fields(reference_with_pud(conv[n], mit, 125.0, n)) for n in (2, 400)}
    steps = _pud_steps(mit, 125.0, -math.inf, 400)
    assert not steps.flags.writeable  # no cut can change what the next one reads
    for order in ((400, 2), (2, 400)):
        for n in order:
            assert _fields(_with_pud(conv[n], steps, 125.0, n)) == want[n]
    runs = [run_mix(m.cores, mit, None, m.seed, n)
            for m in make_mixes(3, seed=2) for n in (2, 50, 400)]
    steps = _pud_steps(mit, 1.0, max(run.stop_key[0] for run in runs), 0)
    for run in runs:
        for period in (1.0, 125.0, 777.7, 16000.0):
            assert _fields(_with_pud(run, steps, period, 0)) == _fields(
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
    """Sharing row streams and PuD step tables inside one call gives the
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
                res = _with_pud(conv, _table(mit, conv, period, target), period, target)
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
