"""CSV report writers and the command-line front end."""

import csv
from pathlib import Path

import pytest

from pudsim.cli import main
from pudsim.errors import ConfigError, ShapeError
from pudsim.harness import NO_FLIP, RESULT_COLUMNS
from pudsim.patterns import parse_trace
from pudsim.reports import TRR_COLUMNS, emit_report, write_csv


def _result_row(kind, row, hc, **over):
    base = {
        "pattern": kind,
        "kind": kind,
        "N": 2,
        "dp_aggr": 0,
        "dp_victim": 255,
        "temp_c": 80,
        "t_aggon_ns": 36.0,
        "gap_ns": 3.0,
        "region": "Middle",
        "row": row,
        "hcfirst": hc,
        "flips": 0 if hc in (None, NO_FLIP) else 1,
        "seed": 0,
    }
    base.update(over)
    return base


def test_write_csv_is_newline_terminated_and_ordered(tmp_path):
    p = write_csv(tmp_path / "t.csv", ("a", "b"), [{"a": 1, "b": 2}, {"a": 3}])
    text = p.read_bytes()
    assert text == b"a,b\n1,2\n3,\n"


def test_write_csv_rejects_extra_columns(tmp_path):
    with pytest.raises(ShapeError):
        write_csv(tmp_path / "t.csv", ("a",), [{"a": 1, "oops": 2}])


def test_emit_report_validates_kind_and_rows(tmp_path):
    with pytest.raises(ConfigError):
        emit_report([{"a": 1}], "nope", tmp_path)
    with pytest.raises(ConfigError):
        emit_report([], "perf", tmp_path)


def test_characterize_report_shapes(tmp_path):
    rows = [
        _result_row("rowhammer", 10, 500),
        _result_row("rowhammer", 11, 300),
        _result_row("rowhammer", 12, NO_FLIP),
        _result_row("simra", 20, 40),
    ]
    paths = emit_report(rows, "characterize", tmp_path)
    names = {p.name for p in paths}
    assert names == {"results.csv", "hc_distribution.csv", "hc_minima.csv"}

    with open(tmp_path / "results.csv", newline="") as fh:
        assert tuple(csv.DictReader(fh).fieldnames) == RESULT_COLUMNS

    with open(tmp_path / "hc_distribution.csv", newline="") as fh:
        dist = list(csv.DictReader(fh))
    rh = [int(r["hcfirst"]) for r in dist if r["kind"] == "rowhammer"]
    assert rh == [500, 300]  # most resilient row first, no-flip rows excluded
    assert [int(r["rank"]) for r in dist if r["kind"] == "rowhammer"] == [0, 1]

    with open(tmp_path / "hc_minima.csv", newline="") as fh:
        minima = {r["kind"]: r for r in csv.DictReader(fh)}
    assert int(minima["rowhammer"]["min"]) == 300
    assert float(minima["rowhammer"]["mean"]) == 400.0
    assert int(minima["simra"]["count"]) == 1


def test_trr_report_summary_means(tmp_path):
    rows = [
        {"technique": "rh", "trr": 1, "seed": s, "bitflips": f, "trr_refreshes": 9}
        for s, f in ((0, 10), (1, 20))
    ]
    rows.append(
        {"technique": "rh", "trr": 0, "seed": 0, "bitflips": 50, "trr_refreshes": 0}
    )
    paths = emit_report(rows, "trr-eval", tmp_path)
    assert {p.name for p in paths} == {"trr_bypass.csv", "trr_bypass_summary.csv"}
    with open(tmp_path / "trr_bypass_summary.csv", newline="") as fh:
        agg = {(r["technique"], r["trr"]): r for r in csv.DictReader(fh)}
    assert float(agg[("rh", "1")]["mean_bitflips"]) == 15.0
    assert float(agg[("rh", "0")]["mean_bitflips"]) == 50.0


# --- CLI -------------------------------------------------------------------


def _cfg_file(tmp_path, **extra):
    lines = {
        "geometry.rows": "512",
        "layout.subarrays": "2",
        "groups.n": "8",
        "search.repeats": "2",
        "search.tolerance": "0.05",
        "out_dir": str(tmp_path / "out"),
    }
    lines.update({k: str(v) for k, v in extra.items()})
    p = tmp_path / "run.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return p


def test_cli_trace_gen_round_trips(tmp_path):
    cfg = _cfg_file(tmp_path)
    rc = main(["trace-gen", "--config", str(cfg), "--hammers", "5"])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "manifest.cfg").exists()
    events = parse_trace((out / "trace.txt").read_text())
    assert len(events) > 0


def test_cli_attack_writes_csv(tmp_path):
    cfg = _cfg_file(tmp_path)
    rc = main(["attack", "--config", str(cfg), "--victim", "255"])
    assert rc == 0
    with open(tmp_path / "out" / "attack.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["victim"] == "255"
    assert rows[0]["hcfirst"] not in ("", None)


def test_cli_exit_codes(tmp_path):
    # missing config file -> 1
    assert main(["attack", "--config", str(tmp_path / "nope.cfg"),
                 "--victim", "1"]) == 1
    # bad key value -> 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("search.tolerance = 0\n")
    assert main(["attack", "--config", str(bad), "--victim", "1"]) == 1
    # victim outside the bank -> bad input, 1
    cfg = _cfg_file(tmp_path)
    assert main(["attack", "--config", str(cfg), "--victim", "99999"]) == 1


@pytest.mark.parametrize("victim", ["-1", "512"])
def test_cli_attack_victim_out_of_range_is_a_config_error(tmp_path, caplog, victim):
    cfg = _cfg_file(tmp_path)
    assert main(["attack", "--config", str(cfg), "--victim", victim]) == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    msg = errors[0].getMessage()
    assert msg == f"victim {victim} outside bank of 512 rows"
    assert "simulation diagnostic" not in caplog.text
    assert not (tmp_path / "out" / "attack.csv").exists()


def test_cli_report_reaggregates(tmp_path):
    rows = [
        {"technique": "simra", "trr": t, "seed": s, "bitflips": 3, "trr_refreshes": 1}
        for t in (0, 1)
        for s in (0, 1)
    ]
    src = write_csv(tmp_path / "src.csv", TRR_COLUMNS, rows)
    rc = main(["report", "--kind", "trr-eval", "--input", str(src),
               "--out", str(tmp_path / "again")])
    assert rc == 0
    assert (tmp_path / "again" / "trr_bypass_summary.csv").exists()


def test_cli_characterize_deterministic(tmp_path):
    cfg = _cfg_file(tmp_path)
    assert main(["characterize", "--config", str(cfg), "--seed", "3"]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    assert main(["characterize", "--config", str(cfg), "--seed", "3"]) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    assert first and first == second


def test_cli_characterize_survives_cells_without_flip(tmp_path):
    # nanya_c_8gb has no SiMRA thresholds, so no SiMRA cell ever flips
    cfg = _cfg_file(tmp_path, profile="nanya_c_8gb", **{"geometry.rows": 64})
    assert main(["characterize", "--config", str(cfg), "--kinds", "simra"]) == 0
    out = tmp_path / "out"
    with open(out / "results.csv", newline="") as fh:
        results = list(csv.DictReader(fh))
    assert results and all(r["hcfirst"] == NO_FLIP for r in results)
    with open(out / "hc_minima.csv", newline="") as fh:
        assert [r for r in csv.DictReader(fh) if r["kind"] == "simra"] == []


def test_cli_mitigation_eval_runs_only_the_requested_variant(tmp_path, monkeypatch):
    from pudsim import perf

    labels = []
    real = perf.run_mix

    def spy(conv_cores, mitigation, *a, **k):
        labels.append(mitigation.label)
        return real(conv_cores, mitigation, *a, **k)

    monkeypatch.setattr(perf, "run_mix", spy)
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 1, "perf.target_reqs": 100,
                                 "perf.periods": "1000"})
    assert main(["mitigation-eval", "--config", str(cfg),
                 "--variant", "prac-po-wc"]) == 0
    with open(tmp_path / "out" / "perf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mitigation"] for r in rows] == ["prac-po-wc"]
    assert set(labels) == {"none", "prac-po-wc"}
    assert main(["mitigation-eval", "--config", str(cfg),
                 "--variant", "prac-po-bogus"]) == 1


# golden values, recorded when each (TRR setting, seed) pair ran as its own task;
# all trr=0 rows come first, then all trr=1 rows
_TRR_EVAL_ROWS = (
    "technique,trr,seed,bitflips,trr_refreshes\n"
    "simra,0,0,175,0\n"
    "simra,0,1,75,0\n"
    "simra,0,2,211,0\n"
    "simra,1,0,175,209\n"
    "simra,1,1,75,215\n"
    "simra,1,2,211,213\n"
)
_TRR_EVAL_SUMMARY = (
    "technique,trr,mean_bitflips,seeds\n"
    "simra,0,153.67,3\n"
    "simra,1,153.67,3\n"
)


def test_cli_trr_eval_golden_rows_and_jobs(tmp_path):
    cfg = _cfg_file(tmp_path)
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["trr-eval", "--config", str(cfg), "--out", str(out),
                     "--technique", "simra", "--seeds", "3", "--windows", "820",
                     "--jobs", str(jobs)]) == 0
        outputs[jobs] = {name: (out / name).read_bytes()
                         for name in ("trr_bypass.csv", "trr_bypass_summary.csv")}
    assert outputs[1]["trr_bypass.csv"].decode() == _TRR_EVAL_ROWS
    assert outputs[1]["trr_bypass_summary.csv"].decode() == _TRR_EVAL_SUMMARY
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize("flag,value", [("--n", "32"), ("--pattern", "nsided")])
def test_cli_trr_eval_rejects_removed_flags(tmp_path, flag, value):
    # group size comes from groups.n; the flags were never read
    with pytest.raises(SystemExit) as exc:
        main(["trr-eval", "--out", str(tmp_path), "--windows", "4", flag, value])
    assert exc.value.code == 2


def test_cli_trr_eval_accepts_longer_t_ras(tmp_path):
    # tRC follows tRAS + tRP, so a longer tRAS is a legal timing set
    base = _cfg_file(tmp_path)
    slow = tmp_path / "slow.cfg"
    slow.write_text(base.read_text() + "timing.t_ras = 40\n")
    outputs = {}
    for label, cfg in (("default", base), ("slow", slow)):
        out = tmp_path / label
        assert main(["trr-eval", "--config", str(cfg), "--out", str(out),
                     "--technique", "simra", "--seeds", "2", "--windows", "820"]) == 0
        outputs[label] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert outputs["slow"].keys() == outputs["default"].keys()
    assert outputs["slow"]["trr_bypass.csv"] != outputs["default"]["trr_bypass.csv"]


def test_cli_act_gap_past_window_is_a_config_error(tmp_path, caplog):
    cfg = _cfg_file(tmp_path, **{"pattern.act_gap_ns": "4.0"})
    assert main(["characterize", "--config", str(cfg), "--kinds", "simra"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("pattern.act_gap_ns")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["characterize"],
    ["attack", "--victim", "255"],
    ["mitigation-eval"],
    ["trace-gen"],
    ["report", "--kind", "trr-eval", "--input", "missing.csv"],
])
def test_cli_jobs_is_only_for_trr_eval(tmp_path, caplog, args):
    cfg = _cfg_file(tmp_path)
    assert main([*args, "--config", str(cfg), "--jobs", "2"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["--jobs is only supported by trr-eval"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["characterize", "--kinds", "rowhammer"],
    ["mitigation-eval"],
])
def test_cli_jobs_one_is_accepted_everywhere(tmp_path, args):
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 1, "perf.target_reqs": 100,
                                 "perf.periods": "1000"})
    assert main([*args, "--config", str(cfg), "--jobs", "1"]) == 0
    assert (tmp_path / "out" / "manifest.cfg").exists()
