"""Each subcommand is a plan, then a run: the plan makes every check
that can fail on input and writes nothing, and `main` alone writes the
manifest and prints what the run returns."""

from dataclasses import replace

import pytest

from pudsim import cli
from pudsim.cli import _build_parser, main
from pudsim.config import config_from_values

_CONFIG = {
    "geometry.rows": "256",
    "layout.subarrays": "2",
    "groups.n": "8",
    "search.repeats": "2",
    "perf.mixes": "1",
    "perf.periods": "125 1000",
    "perf.target_reqs": "100",
}

# what does a subcommand's work, as `cli` looks it up
_WORK = ("run_sweep", "sweep_cell", "run_bypass", "evaluate_mixes", "emit_report",
         "write_csv", "trace_lines")

_ARGS = {
    "characterize": ["characterize"],
    "attack": ["attack", "--victim", "128"],
    "trr-eval": ["trr-eval", "--seeds", "1", "--windows", "820"],
    "mitigation-eval": ["mitigation-eval", "--period", "250"],
    "trace-gen": ["trace-gen", "--hammers", "3"],
    "report": ["report", "--kind", "characterize", "--input", "{results}"],
}


def _write_config(tmp_path):
    path = tmp_path / "in.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in _CONFIG.items()))
    return path


def _characterize(tmp_path):
    """The results CSV of `characterize` on _CONFIG, outside tmp_path/out."""
    given = tmp_path / "given"
    assert main(["characterize", "--kinds", "rowhammer", "--config",
                 str(_write_config(tmp_path)), "--out", str(given)]) == 0
    return given / "results.csv"


def test_every_subcommand_has_a_plan():
    assert set(cli._PLANS) == set(_ARGS)
    assert not [name for name in vars(cli) if name.startswith("cmd_")]


@pytest.mark.parametrize("command", sorted(_ARGS))
def test_a_plan_writes_nothing_and_runs_nothing(tmp_path, monkeypatch, command):
    results = _characterize(tmp_path) if command == "report" else None

    def refuse(*args, **kwargs):
        raise AssertionError("a plan does no work")

    for name in _WORK:
        monkeypatch.setattr(cli, name, refuse)
    cfg = replace(config_from_values(_CONFIG), out_dir=str(tmp_path / "out"))
    args = _build_parser().parse_args([a.format(results=results) for a in _ARGS[command]])
    recorded, run = cli._PLANS[command](cfg, args)
    assert callable(run)
    assert recorded == {"report": None,
                        "mitigation-eval": replace(cfg, perf_periods="250")}.get(command, cfg)
    assert not (tmp_path / "out").exists()


# standard output of each call on _CONFIG, one entry a line; "{out}"
# stands for the call's --out
_PRINTED = {
    "characterize": (
        ["characterize"],
        ["{out}/results.csv", "{out}/hc_distribution.csv", "{out}/hc_minima.csv"]),
    "attack": (
        ["attack", "--victim", "128"],
        ["rowhammer victim=128 aggressors=(127, 129): HC_first=47865"]),
    "trr-eval": (
        ["trr-eval", "--seeds", "1", "--windows", "820"],
        ["{out}/trr_bypass.csv", "{out}/trr_bypass_summary.csv"]),
    "mitigation-eval": (
        ["mitigation-eval"],
        ["period 125 ns: mean overhead prac-po-naive 13.39%  prac-po-wc 13.11%",
         "period 1000 ns: mean overhead prac-po-naive 0.00%  prac-po-wc 0.00%",
         "{out}/perf.csv"]),
    "mitigation-eval-variant": (
        ["mitigation-eval", "--variant", "prac-po-wc"],
        ["period 125 ns: mean overhead prac-po-wc 13.11%",
         "period 1000 ns: mean overhead prac-po-wc 0.00%",
         "{out}/perf.csv"]),
    "trace-gen": (
        ["trace-gen", "--hammers", "3"],
        ["{out}/trace.txt"]),
    "report": (
        ["report", "--kind", "characterize", "--input", "{results}"],
        ["{out}/results.csv", "{out}/hc_distribution.csv", "{out}/hc_minima.csv"]),
}


@pytest.mark.parametrize("call", sorted(_PRINTED))
def test_standard_output_line_by_line(tmp_path, capsys, call):
    args, lines = _PRINTED[call]
    results = _characterize(tmp_path) if call == "report" else None
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([*(a.format(results=results) for a in args),
                 "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [line.format(out=out) for line in lines]
