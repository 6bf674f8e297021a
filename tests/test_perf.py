"""Multi-core performance model: weighted speedup and mitigation cost."""

import pytest

from pudsim.errors import ConfigError
from pudsim.mitigation import PracConfig
from pudsim.perf import (
    PERF_COLUMNS,
    CoreSpec,
    default_variants,
    evaluate_mixes,
    make_mixes,
    run_mix,
    weighted_speedup,
)


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
    rows = evaluate_mixes(make_mixes(3, seed=0), target_reqs=400)
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
            variants={"trr": None},
        )
    # the baseline doubles as the alone run, so it must be unmitigated
    with pytest.raises(ConfigError):
        evaluate_mixes(
            make_mixes(1, seed=1),
            periods=(1000.0,),
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
