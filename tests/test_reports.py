"""CSV report writers and the command-line front end."""

import csv
import hashlib
from dataclasses import fields

import pytest

from pudsim import keyval
from pudsim.cli import main
from pudsim.config import _SCHEMA, RunConfig
from pudsim.errors import ConfigError, ShapeError
from pudsim.harness import NO_FLIP, RESULT_COLUMNS
from pudsim.keyval import finite
from pudsim.dram import TimingParams
from pudsim.patterns import PatternSpec, gen_rowhammer, repeated_events, trace_lines
from pudsim.perf import PERF_COLUMNS
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
    with pytest.raises(ShapeError):
        emit_report([{"a": 1}], "perf", tmp_path)


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
    # the default pattern hammers both neighbours of the middle row
    one = gen_rowhammer(PatternSpec(kind="rowhammer", aggressors=(255, 257)), TimingParams())
    expected = "".join(trace_lines(repeated_events(one, range(5))))
    assert (out / "trace.txt").read_text() == expected
    # no hammers, no lines
    rc = main(["trace-gen", "--config", str(cfg), "--hammers", "0", "--out", str(tmp_path / "none")])
    assert rc == 0 and (tmp_path / "none" / "trace.txt").read_text() == ""


@pytest.mark.parametrize("extra, trace", [
    ({}, [
        "0 ACT 0 255", "36 PRE 0", "49.5 ACT 0 257", "85.5 PRE 0",
        "99 ACT 0 255", "135 PRE 0", "148.5 ACT 0 257", "184.5 PRE 0",
        "198 ACT 0 255", "234 PRE 0", "247.5 ACT 0 257", "283.5 PRE 0",
    ]),
    ({"pattern.kind": "simra", "pattern.act_gap_ns": 1.0}, [
        "0 ACT 0 256", "1 PRE 0", "2 ACT 0 256", "38 PRE 0",
        "51.5 ACT 0 256", "52.5 PRE 0", "53.5 ACT 0 256", "89.5 PRE 0",
        "103 ACT 0 256", "104 PRE 0", "105 ACT 0 256", "141 PRE 0",
    ]),
    ({"pattern.kind": "comra"}, [
        "0 ACT 0 256", "36 PRE 0", "43.5 ACT 0 257", "79.5 PRE 0",
        "93 ACT 0 256", "129 PRE 0", "136.5 ACT 0 257", "172.5 PRE 0",
        "186 ACT 0 256", "222 PRE 0", "229.5 ACT 0 257", "265.5 PRE 0",
    ]),
    ({"pattern.kind": "rowpress", "pattern.t_aggon_ns": 7800}, [
        "0 ACT 0 255", "7800 PRE 0", "7813.5 ACT 0 257", "15613.5 PRE 0",
        "15627 ACT 0 255", "23427 PRE 0", "23440.5 ACT 0 257", "31240.5 PRE 0",
        "31254 ACT 0 255", "39054 PRE 0", "39067.5 ACT 0 257", "46867.5 PRE 0",
    ]),
], ids=["rowhammer", "simra", "comra", "rowpress"])
def test_cli_trace_gen_writes_the_pinned_trace(tmp_path, extra, trace):
    cfg = _cfg_file(tmp_path, **extra)
    assert main(["trace-gen", "--config", str(cfg), "--hammers", "3"]) == 0
    assert (tmp_path / "out" / "trace.txt").read_text() == "".join(f"{line}\n" for line in trace)


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
    bad.write_text("search.repeats = 0\n")
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


@pytest.mark.parametrize("args, message", [
    (["trr-eval", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["characterize", "--kinds", ""], "--kinds names no pattern kind"),
    (["trace-gen", "--hammers", "-3"], "--hammers must be >= 0, got -3"),
    (["attack", "--victim", "99999"], "victim 99999 outside bank of 512 rows"),
    (["mitigation-eval", "--variant", "bogus"], "unknown variant 'bogus'"),
    (["mitigation-eval", "--period", "0"], "--period must be positive, got 0"),
    (["mitigation-eval", "--period", "-5"], "--period must be positive, got -5"),
    (["characterize", "--kinds", "rowhammer rowhammer", "geometry.rows=64"],
     "--kinds names 'rowhammer' more than once"),
    (["trr-eval", "--windows", "10000000000000000000"],
     "--windows must be at most 59124179723428049, got 10000000000000000000"),
    (["trr-eval", "timing.t_refw=1e300"],
     "timing.t_refw // timing.t_refi gives 1.28e+296 refresh windows, more than the "
     "59124179723428049 the TRR sampler counts at timing.acts_per_refi"),
    (["characterize", "pattern.temp_c=1e308"],
     "pattern.temp_c = 1e+308 overflows the comra temperature factor"),
    (["attack", "--victim", "9", "pattern.kind=simra", "pattern.temp_c=1e308"],
     "pattern.temp_c = 1e+308 overflows the simra temperature factor"),
    (["trr-eval", "--technique", "simra", "pattern.temp_c=1e308"],
     "pattern.temp_c = 1e+308 overflows the simra temperature factor"),
    (["mitigation-eval", "--out", "afile"], "[Errno 17] File exists: 'afile'"),
    (["mitigation-eval", "--out", "afile/sub"], "[Errno 20] Not a directory: 'afile/sub'"),
    (["attack", "--victim", "9", "--config", "adir"], "cannot read adir: [Errno 21] Is a"),
    (["report", "--kind", "perf", "--input", "adir"], "[Errno 21] Is a directory: 'adir'"),
    (["mitigation-eval", "--period", "1e306"],
     "--period x perf.target_reqs must be a finite count of ns, got 1e+306 x 2000"),
    (["characterize", "geometry.rows=1000000000"],
     "geometry.rows must be at most 1048576, got 1000000000"),
    (["trr-eval", "geometry.rows=20000000"],
     "geometry.rows must be at most 1048576, got 20000000"),
    (["trr-eval", "--windows", "1000000000000000"],
     "--windows must be at most 1864135, got 1000000000000000, the most a bank of 512 rows "
     "holds in memory"),
    (["mitigation-eval", "perf.target_reqs=1000000000000"],
     "perf.target_reqs must be at most 2097152, got 1000000000000"),
    (["trace-gen", "--hammers", "100000000000"],
     "--hammers must be at most 524288, got 100000000000: a trace holds at most 2097152 "
     "commands"),
    (["trr-eval", f"mitigation.sampler_size={10**24}"],
     f"mitigation.sampler_size must be from 1 to 9223372036854775807, got {10**24}"),
    (["characterize", "--kinds", "rowhammer", "pattern.t_aggon_ns=1e300"],
     "pattern.t_aggon_ns = 1e+300 puts two commands of 639990 rowhammer hammers at one time"),
    (["characterize", "--kinds", "simra", "pattern.t_aggon_ns=1e-300"],
     "pattern.t_aggon_ns = 1e-300 puts two commands of 639990 simra hammers at one time"),
    (["trace-gen", "pattern.kind=simra", "pattern.t_aggon_ns=1e-300"],
     "pattern.t_aggon_ns = 1e-300 puts two commands of 100 simra hammers at one time"),
    (["mitigation-eval", "perf.mixes=1000000000000"],
     "perf.mixes x perf.periods must be at most 65536 (mix, period) pairs, "
     "got 1000000000000 x 5"),
    (["characterize", "--kinds", "comra", "pattern.pre_act_gap_ns=20"],
     "--kinds leaves no pattern kind to search"),
    (["characterize", "--kinds", "simra", "geometry.rows=64", "layout.subarrays=2",
      "groups.n=32"],
     "--kinds leaves no pattern kind to search"),
    (["trr-eval", "--technique", "simra", "profile=samsung_a_16gb"],
     "profile samsung_a_16gb has no thresholds for 'simra'"),
    (["characterize", "timing.acts_per_refi=100000000000000000000"],
     "timing.acts_per_refi = 1e+20, timing.t_refw = 6.4e+07 and timing.t_refi = 7800 set the "
     "search budget to 4.1025e+23 rowhammer hammers, which puts two commands at one time "
     "(pattern.t_aggon_ns = 36, pattern.act_gap_ns = 3, pattern.pre_act_gap_ns = 7.5)"),
    (["attack", "--victim", "9", "timing.t_refw=1e300"],
     "timing.acts_per_refi = 156, timing.t_refw = 1e+300 and timing.t_refi = 7800 set the "
     "search budget to 1e+298 rowhammer hammers, which puts two commands at one time "
     "(pattern.t_aggon_ns = 36, pattern.act_gap_ns = 3, pattern.pre_act_gap_ns = 7.5)"),
    (["mitigation-eval", "--variant", ""], "unknown variant ''"),
    (["mitigation-eval", f"seed={2**64}"],
     f"seed must be from 0 to {2**64 - 1}, got {2**64}"),
    (["trr-eval", f"seed={2**64 - 2}", "--seeds", "3"],
     f"--seeds 3 from seed {2**64 - 2} runs past seed {2**64 - 1}"),
])
def test_cli_bad_argument_leaves_no_manifest(tmp_path, caplog, monkeypatch, args, message):
    """A bad subcommand argument ends the run before anything is written,
    so no manifest describes a run that never happened.  An argument
    `key=value` sets that key of the run's config, and a row's own
    `--config` replaces it; `afile` names a file and `adir` a directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    (tmp_path / "adir").mkdir()
    cfg = _cfg_file(tmp_path, **dict(a.split("=", 1) for a in args if "=" in a))
    args = [a for a in args if "=" not in a]
    assert main([args[0], "--config", str(cfg), *args[1:]]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(message)
    assert not (tmp_path / "out" / "manifest.cfg").exists()


def test_cli_characterize_drops_a_kind_once(tmp_path, caplog):
    """A kind the sweep cannot search is dropped with one warning, not one
    per victim, and the other kinds still run."""
    cfg = _cfg_file(tmp_path, **{"pattern.pre_act_gap_ns": 20})
    assert main(["characterize", "--kinds", "rowhammer comra", "--config", str(cfg)]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["sweep cell failed: comra: copy gap must violate tRP"]
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        assert {r["kind"] for r in csv.DictReader(fh)} == {"rowhammer"}


@pytest.mark.parametrize("extra, message", [
    ({"perf.target_reqs": 0}, "perf.target_reqs must be >= 1"),
    ({"perf.target_reqs": -5}, "perf.target_reqs must be >= 1"),
    ({"perf.mixes": 0}, "perf.mixes must be >= 1"),
    ({"perf.periods": ""}, "perf.periods must list distinct positive periods"),
    ({"perf.periods": "1000 1000"}, "perf.periods must list distinct positive periods"),
    ({"perf.periods": "1000 125 1e3"}, "perf.periods must list distinct positive periods"),
    ({"perf.periods": "125 1e306"},
     "perf.periods x perf.target_reqs must be a finite count of ns, got 1e+306 x 2000"),
    ({"perf.target_reqs": 10**400},
     f"perf.periods x perf.target_reqs must be a finite count of ns, got 16000 x {10**400}"),
], ids=["target-0", "target-negative", "mixes-0", "periods-empty",
        "periods-repeated", "periods-repeated-spelled-apart", "periods-overflow-the-timeline",
        "target-past-every-float"])
def test_cli_mitigation_eval_bad_perf_key_leaves_no_manifest(tmp_path, caplog, extra, message):
    """A `perf.*` value the sweep cannot use ends the run with one line
    naming the key, before the manifest is written."""
    cfg = _cfg_file(tmp_path, **extra)
    assert main(["mitigation-eval", "--config", str(cfg)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [message]
    assert not (tmp_path / "out" / "manifest.cfg").exists()


@pytest.mark.parametrize("extra, message", [
    ({"groups.n": 2},
     "groups.n = 2: a SiMRA group of 2 rows has no interior row to put on the bus"),
    ({"geometry.rows": 16, "groups.n": 32},
     "groups.n = 32: only 0 groups of 32 rows fit, and the SiMRA bypass needs 4; "
     "geometry.rows, layout.subarrays and groups.stride set how many fit"),
    ({"geometry.rows": 64, "groups.n": 32},
     "groups.n = 32: only 2 groups of 32 rows fit, and the SiMRA bypass needs 4; "
     "geometry.rows, layout.subarrays and groups.stride set how many fit"),
    ({"groups.stride": 100},
     "groups.n = 8: only 0 groups of 8 rows fit, and the SiMRA bypass needs 4; "
     "geometry.rows, layout.subarrays and groups.stride set how many fit"),
], ids=["pairs", "16-rows", "64-rows-2-subarrays", "stride-100"])
def test_cli_trr_eval_simra_setup_the_chip_cannot_hold_leaves_no_manifest(
        tmp_path, caplog, extra, message):
    """The SiMRA bypass needs four groups with an interior bus row; a
    chip without them ends the run before the manifest is written."""
    cfg = _cfg_file(tmp_path, **extra)
    assert main(["trr-eval", "--technique", "simra", "--seeds", "1",
                 "--windows", "4", "--config", str(cfg)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [message]
    assert not (tmp_path / "out" / "manifest.cfg").exists()


@pytest.mark.parametrize("rows, message", [
    (8, "aggressor row 10 outside the bank of 8 rows"),
    (10, "aggressor row 10 outside the bank of 10 rows"),
    (11, None),
])
def test_cli_trr_eval_rh_pair_outside_the_bank_leaves_no_manifest(
        tmp_path, caplog, rows, message):
    """The RowHammer bypass hammers rows 8 and 10 around victim 9; a chip
    without row 10 ends the run before the manifest is written."""
    cfg = _cfg_file(tmp_path, **{"geometry.rows": rows})
    rc = main(["trr-eval", "--technique", "rh", "--seeds", "1", "--windows", "4",
               "--config", str(cfg)])
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert (rc, errors) == ((0, []) if message is None else (1, [message]))
    assert (tmp_path / "out" / "manifest.cfg").exists() == (message is None)


@pytest.mark.parametrize("value, ok", [
    ("0x00", True), ("0xFF", True), ("0x100", False), ("0x1FF", False), ("-1", False),
])
def test_cli_data_pattern_outside_one_byte_leaves_no_manifest(tmp_path, caplog, value, ok):
    """`pattern.dp_aggr` is one byte: another value would label results
    with bytes the run never wrote, and its manifest would not replay."""
    cfg = _cfg_file(tmp_path, **{"pattern.dp_aggr": value})
    rc = main(["trace-gen", "--hammers", "1", "--config", str(cfg)])
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    message = f"pattern.dp_aggr must be one byte, 0x00 to 0xFF, got {int(value, 0)}"
    assert (rc, errors) == ((0, []) if ok else (1, [message]))
    assert (tmp_path / "out" / "manifest.cfg").exists() == ok


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


@pytest.mark.parametrize("windows", ["0", "-5"])
def test_cli_trr_eval_rejects_windows_below_one(tmp_path, caplog, windows):
    cfg = _cfg_file(tmp_path)
    assert main(["trr-eval", "--config", str(cfg), "--seeds", "1",
                 "--windows", windows]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"--windows must be >= 1, got {windows}"]
    assert not (tmp_path / "out").exists()


def _bad_report_input(tmp_path, kind, data, caplog):
    """Run `report --kind` on a CSV of the bytes `data`; its one error line."""
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    out = tmp_path / "again"
    assert main(["report", "--kind", kind, "--input", str(src), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert not out.exists()
    return errors[0]


@pytest.mark.parametrize("kind", ["characterize", "trr-eval", "perf"])
def test_cli_report_rejects_a_csv_without_its_columns(tmp_path, caplog, kind):
    msg = _bad_report_input(tmp_path, kind, b"seed\n0\n", caplog)
    assert f"not a {kind} results file: missing columns" in msg


@pytest.mark.parametrize("kind, columns", [("characterize", RESULT_COLUMNS),
                                           ("trr-eval", TRR_COLUMNS), ("perf", PERF_COLUMNS)])
def test_cli_report_rejects_a_csv_without_rows(tmp_path, caplog, kind, columns):
    msg = _bad_report_input(tmp_path, kind, (",".join(columns) + "\n").encode(), caplog)
    assert msg == f"--input {tmp_path / 'in.csv'}: no result rows to report"


def test_cli_report_rejects_a_count_that_is_not_a_number(tmp_path, caplog):
    text = ",".join(TRR_COLUMNS) + "\nsimra,0,0,3,0\nsimra,1,0,x,2\n"
    msg = _bad_report_input(tmp_path, "trr-eval", text.encode(), caplog)
    assert msg.endswith("line 3: bitflips = 'x' is not an integer")


def test_cli_report_rejects_a_file_that_is_not_utf8(tmp_path, caplog):
    msg = _bad_report_input(tmp_path, "perf", b"\xff\xfe", caplog)
    assert msg.startswith(f"{tmp_path / 'in.csv'}: not UTF-8 text: 'utf-8' codec")


def test_cli_report_rejects_a_field_past_the_csv_field_limit(tmp_path, caplog):
    text = ",".join(TRR_COLUMNS) + "\nsimra,0,0,3,0\n" + "x" * 200_000 + ",1,0,3,0\n"
    msg = _bad_report_input(tmp_path, "trr-eval", text.encode(), caplog)
    assert msg == f"{tmp_path / 'in.csv'} line 3: field larger than field limit (131072)"


@pytest.mark.parametrize("hcfirst", ["12.5", "never", ""])
def test_cli_report_rejects_a_first_flip_that_is_neither_count_nor_noflip(
    tmp_path, caplog, hcfirst
):
    rows = [_result_row("rowhammer", 10, 500), _result_row("rowhammer", 11, hcfirst)]
    write_csv(tmp_path / "results.csv", RESULT_COLUMNS, rows)
    msg = _bad_report_input(
        tmp_path, "characterize", (tmp_path / "results.csv").read_bytes(), caplog
    )
    assert msg.endswith(f"line 3: hcfirst = {hcfirst!r} is not an integer")


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

    seen = []
    real = perf.run_mix

    def spy(conv_cores, mitigation, *a, **k):
        seen.append(mitigation)
        return real(conv_cores, mitigation, *a, **k)

    monkeypatch.setattr(perf, "run_mix", spy)
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 1, "perf.target_reqs": 100,
                                 "perf.periods": "1000"})
    assert main(["mitigation-eval", "--config", str(cfg),
                 "--variant", "prac-po-wc"]) == 0
    with open(tmp_path / "out" / "perf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mitigation"] for r in rows] == ["prac-po-wc"]
    wc = perf.default_variants()["prac-po-wc"]
    assert None in seen and wc in seen
    assert all(m is None or m == wc for m in seen)
    assert main(["mitigation-eval", "--config", str(cfg),
                 "--variant", "prac-po-bogus"]) == 1


def test_cli_mitigation_eval_prints_mean_overhead_per_period(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 2, "perf.target_reqs": 100,
                                 "perf.periods": "125 1000"})
    assert main(["mitigation-eval", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(tmp_path / "out" / "perf.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    def mean(variant, period):
        pct = [float(r["overhead_pct"]) for r in rows
               if r["mitigation"] == variant and float(r["period_ns"]) == period]
        assert len(pct) == 2
        return sum(pct) / 2

    assert printed[:2] == [
        f"period {p:g} ns: mean overhead prac-po-naive {mean('prac-po-naive', p):.2f}%"
        f"  prac-po-wc {mean('prac-po-wc', p):.2f}%"
        for p in (125.0, 1000.0)
    ]
    assert printed[2:] == [str(tmp_path / "out" / "perf.csv")]


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
    out = tmp_path / "out"
    assert main(["trr-eval", "--config", str(cfg), "--out", str(out),
                 "--technique", "simra", "--seeds", "3", "--windows", "820",
                 "--jobs", "1"]) == 0
    assert (out / "trr_bypass.csv").read_bytes().decode() == _TRR_EVAL_ROWS
    assert (out / "trr_bypass_summary.csv").read_bytes().decode() == _TRR_EVAL_SUMMARY


@pytest.mark.parametrize("flag,value", [("--n", "32"), ("--pattern", "nsided")])
def test_cli_trr_eval_rejects_removed_flags(tmp_path, flag, value):
    # group size comes from groups.n; the flags were never read
    with pytest.raises(SystemExit) as exc:
        main(["trr-eval", "--out", str(tmp_path), "--windows", "4", flag, value])
    assert exc.value.code == 2


def test_cli_trr_eval_accepts_longer_t_ras(tmp_path):
    # tRC follows tRAS + tRP, so a longer tRAS is a legal timing set; the
    # aggressors stay open pattern.t_aggon_ns, so tRAS alone moves no flip
    base = _cfg_file(tmp_path)
    slow = tmp_path / "slow.cfg"
    slow.write_text(base.read_text() + "timing.t_ras = 40\n")
    outputs = {}
    for label, cfg in (("default", base), ("slow", slow)):
        out = tmp_path / label
        assert main(["trr-eval", "--config", str(cfg), "--out", str(out),
                     "--technique", "simra", "--seeds", "2", "--windows", "820"]) == 0
        outputs[label] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert outputs["slow"] == outputs["default"]


def test_cli_act_gap_past_window_is_a_config_error(tmp_path, caplog):
    cfg = _cfg_file(tmp_path, **{"pattern.act_gap_ns": "4.0"})
    assert main(["characterize", "--config", str(cfg), "--kinds", "simra"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("pattern.act_gap_ns")
    assert not (tmp_path / "out").exists()


# every float config key, read by characterize
_FLOAT_KEYS = sorted(k for k, (_, parse) in _SCHEMA.items() if parse is finite)


def test_every_float_field_parses_as_a_finite_number():
    floats = {f.name for f in fields(RunConfig) if f.type == "float"}
    assert {_SCHEMA[k][0] for k in _FLOAT_KEYS} == floats


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("args, settings, name", [
    *[(["characterize"], {key: "{}"}, key) for key in _FLOAT_KEYS],
    (["mitigation-eval"], {"perf.periods": "1000 {}"}, "perf.periods"),
    (["mitigation-eval", "--period", "{}"], {}, "--period"),
])
def test_cli_non_finite_number_is_bad_input(tmp_path, caplog, args, settings, name, value):
    cfg = _cfg_file(tmp_path, **{k: v.format(value) for k, v in settings.items()})
    assert main([*(a.format(value) for a in args), "--config", str(cfg)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{name}: not a finite number: '{value}'"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, settings, message", [
    (["characterize"], {"pattern.t_aggon_ns": 0}, "pattern.t_aggon_ns must be positive"),
    (["trr-eval"], {"pattern.t_aggon_ns": 0}, "pattern.t_aggon_ns must be positive"),
    (["attack", "--victim", "100"], {"pattern.t_aggon_ns": 0},
     "pattern.t_aggon_ns must be positive"),
    (["trace-gen"], {"pattern.kind": "comra", "pattern.t_aggon_ns": 10},
     "copy source must stay open at least tRAS"),
    (["attack", "--victim", "100"], {"pattern.kind": "comra", "pattern.t_aggon_ns": 10},
     "copy source must stay open at least tRAS"),
])
def test_cli_bad_pattern_leaves_no_manifest(tmp_path, caplog, args, settings, message):
    cfg = _cfg_file(tmp_path, **settings)
    assert main([*args, "--config", str(cfg)]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]
    assert not (tmp_path / "out").exists()


_EVERY_SUBCOMMAND = [
    ["characterize"],
    ["attack", "--victim", "255"],
    ["mitigation-eval"],
    ["trace-gen"],
    ["report", "--kind", "trr-eval", "--input", "missing.csv"],
    ["trr-eval", "--windows", "4"],
]


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND, ids=lambda a: a[0])
@pytest.mark.parametrize("key", ["pattern.t_aggon_ns", "pattern.act_gap_ns",
                                 "pattern.pre_act_gap_ns"])
def test_cli_zero_pattern_time_names_its_key(tmp_path, caplog, args, key):
    """The config's pattern is checked when the config loads, so a zero
    time ends every subcommand, including those that run no pattern."""
    cfg = _cfg_file(tmp_path, **{key: 0})
    assert main([*args, "--config", str(cfg)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{key} must be positive"]
    assert not (tmp_path / "out").exists()


def test_cli_period_is_recorded_and_replays(tmp_path):
    """`--period` sets `perf.periods`, so the manifest replays the run."""
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 1, "perf.target_reqs": 100})
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["mitigation-eval", "--config", str(cfg), "--period", "250",
                 "--out", str(first)]) == 0
    manifest = keyval.load(first / "manifest.cfg")
    assert manifest["perf.periods"] == "250"
    assert main(["mitigation-eval", "--config", str(first / "manifest.cfg"),
                 "--out", str(replay)]) == 0
    assert (replay / "perf.csv").read_bytes() == (first / "perf.csv").read_bytes()
    rows = csv.DictReader((first / "perf.csv").read_text().splitlines())
    assert {r["period_ns"] for r in rows} == {"250.0"}


# SHA-256 of perf.csv for four mixes, recorded before PRAC counted in bulk
_PERF_CSV_SHA256 = {
    "default": ((), "a25db67bfabb4d55e6a0ee67a4ecd42ecdfed656e8abd8af6a025a3158898768"),
    "wc-333-seed1": (("--variant", "prac-po-wc", "--period", "333", "--seed", "1"),
                     "db921f09a1fd66b66ba72e79da90064600331afac6efd65fa571bb6bf313c7c6"),
    "wc-333-seed7": (("--variant", "prac-po-wc", "--period", "333", "--seed", "7"),
                     "bd530995e518a3413c1efd6b26c6ba8faa57dab5b7c337e8909f206227fca5e1"),
}


@pytest.mark.parametrize("run", sorted(_PERF_CSV_SHA256))
def test_cli_mitigation_eval_perf_csv_is_byte_identical(tmp_path, run):
    args, digest = _PERF_CSV_SHA256[run]
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 4})
    assert main(["mitigation-eval", "--config", str(cfg), *args]) == 0
    data = (tmp_path / "out" / "perf.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_period_past_five_seconds_of_simulated_time_runs(tmp_path):
    """Simulated time has no cap: at the default 2000 ops, a 3e6 ns
    period runs the PuD core alone for 6e9 ns."""
    cfg = _cfg_file(tmp_path, **{"perf.mixes": 1})
    assert main(["mitigation-eval", "--config", str(cfg), "--period", "3e6"]) == 0
    rows = csv.DictReader((tmp_path / "out" / "perf.csv").read_text().splitlines())
    assert [r["mitigation"] for r in rows] == ["none", "prac-po-naive", "prac-po-wc"]


@pytest.mark.parametrize("args", _EVERY_SUBCOMMAND)
def test_cli_jobs_is_only_for_trr_eval(tmp_path, caplog, args):
    # every subcommand, trr-eval included, runs in one process
    cfg = _cfg_file(tmp_path)
    assert main([*args, "--config", str(cfg), "--jobs", "2"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["--jobs must be 1: every subcommand runs in one process"]
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


@pytest.mark.parametrize("kind", ["bogus", "nsided"])
@pytest.mark.parametrize("args", [
    ["characterize"],
    ["attack", "--victim", "255"],
    ["trr-eval"],
    ["mitigation-eval"],
    ["trace-gen"],
    ["report", "--kind", "trr-eval", "--input", "missing.csv"],
])
def test_cli_unknown_pattern_kind_is_a_config_error(tmp_path, caplog, args, kind):
    cfg = _cfg_file(tmp_path, **{"pattern.kind": kind})
    assert main([*args, "--config", str(cfg)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].startswith("pattern.kind")
    assert not (tmp_path / "out").exists()


def test_cli_characterize_rejects_unknown_kinds_before_the_sweep(tmp_path, caplog):
    cfg = _cfg_file(tmp_path)
    assert main(["characterize", "--config", str(cfg),
                 "--kinds", "rowhammer bogus"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "unknown pattern kind 'bogus'" in errors[0]
    assert "sweep cell failed" not in caplog.text
    assert not (tmp_path / "out" / "results.csv").exists()


def test_cli_characterize_reports_a_kind_without_victims(tmp_path, caplog):
    # each 32-row subarray is one group, whose next row lies outside it
    cfg = _cfg_file(tmp_path, **{"geometry.rows": 64, "groups.n": 32})
    assert main(["characterize", "--config", str(cfg),
                 "--kinds", "rowhammer simra"]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "sweep cell failed: simra: no group of 32 rows has its next row in its subarray"
    ]
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        assert {r["kind"] for r in csv.DictReader(fh)} == {"rowhammer"}
