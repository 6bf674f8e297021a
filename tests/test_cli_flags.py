"""Every CLI flag changes what its subcommand writes, the flag twin of
tests/test_config_keys.py; `--jobs` accepts only 1."""

import argparse
import itertools

import pytest

from pudsim.cli import _build_parser, main
from pudsim.dram import TimingParams

_CONFIG = {
    "geometry.rows": "256",
    "layout.subarrays": "2",
    "groups.n": "8",
    "search.repeats": "2",
    "perf.mixes": "1",
    "perf.periods": "1000",
    "perf.target_reqs": "100",
}

# flag -> (arguments at the flag's default, the same at another value);
# "{results}" and "{results_seed3}" stand for the results.csv that
# `characterize` and `characterize --seed 3` write
_CASES = {
    "--seed": (["characterize"], ["characterize", "--seed", "3"]),
    "--kinds": (["characterize"], ["characterize", "--kinds", "rowhammer"]),
    "--victim": (["attack", "--victim", "128"], ["attack", "--victim", "100"]),
    "--technique": (["trr-eval", "--seeds", "1", "--windows", "820"],
                    ["trr-eval", "--seeds", "1", "--windows", "820",
                     "--technique", "simra"]),
    "--seeds": (["trr-eval", "--technique", "simra", "--windows", "820"],
                ["trr-eval", "--technique", "simra", "--windows", "820",
                 "--seeds", "2"]),
    "--windows": (["trr-eval", "--technique", "simra", "--seeds", "1"],
                  ["trr-eval", "--technique", "simra", "--seeds", "1",
                   "--windows", "820"]),
    "--variant": (["mitigation-eval"], ["mitigation-eval", "--variant", "prac-po-wc"]),
    "--period": (["mitigation-eval"], ["mitigation-eval", "--period", "250"]),
    "--hammers": (["trace-gen"], ["trace-gen", "--hammers", "3"]),
    "--input": (["report", "--kind", "characterize", "--input", "{results}"],
                ["report", "--kind", "characterize", "--input", "{results_seed3}"]),
}

# flags gated by a test of their own
_OWN_TEST = {
    # kept for old scripts: any value but 1 exits 1 on every subcommand
    "--jobs": "test_reports.py::test_cli_jobs_is_only_for_trr_eval",
    # a results file fits one report kind only
    "--kind": "test_report_kind_rewrites_what_its_subcommand_wrote",
}

_EXEMPT = {
    "--config": "a path: tests/test_config_keys.py gates the keys it sets",
    "--out": "a path: it moves the outputs, not their bytes",
    "--verbose": "logging only",
}


def _flags():
    """The long name of every flag of the parser and its subcommands."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [*parser._actions,
               *itertools.chain.from_iterable(p._actions for p in sub.choices.values())]
    return {a.option_strings[-1] for a in actions if a.option_strings} - {"--help"}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run one call on _CONFIG plus settings; every file it writes
    except manifest.cfg, by name."""
    root = tmp_path_factory.mktemp("flags")
    runs = itertools.count()
    done = {}

    def call(args, settings):
        key = (tuple(args), tuple(sorted(settings.items())))
        if key not in done:
            d = root / f"run{next(runs)}"
            d.mkdir()
            values = {**_CONFIG, **settings}
            (d / "in.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            assert main([*args, "--config", str(d / "in.cfg"), "--out", str(d / "out")]) == 0
            done[key] = d / "out"
        return done[key]

    def run(args, settings=None):
        if "report" in args:
            inputs = {
                "results": call(["characterize"], {}) / "results.csv",
                "results_seed3": call(["characterize", "--seed", "3"], {}) / "results.csv",
            }
            args = [a.format(**inputs) for a in args]
        out = call(args, settings or {})
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.cfg"}

    return run


def test_every_flag_is_gated_or_exempt():
    assert set(_CASES).isdisjoint(_EXEMPT) and set(_OWN_TEST).isdisjoint(_EXEMPT)
    assert set(_CASES) | set(_OWN_TEST) | set(_EXEMPT) == _flags()
    for flag, (default, changed) in _CASES.items():
        assert flag in changed and changed != default


@pytest.mark.parametrize("flag", sorted(_CASES))
def test_flag_changes_what_its_subcommand_writes(outputs, flag):
    default, changed = _CASES[flag]
    assert outputs(default), default
    assert outputs(changed) != outputs(default), f"{flag} changes nothing {changed[0]} writes"


@pytest.mark.parametrize("kind,args", [
    ("characterize", ["characterize"]),
    ("trr-eval", ["trr-eval", "--technique", "simra", "--seeds", "2", "--windows", "820"]),
    ("perf", ["mitigation-eval"]),
])
def test_report_kind_rewrites_what_its_subcommand_wrote(outputs, tmp_path, kind, args):
    """Each kind re-aggregates its own subcommand's main CSV into every
    CSV that subcommand wrote, byte for byte."""
    written = outputs(args)
    main_csv = {"characterize": "results.csv", "trr-eval": "trr_bypass.csv",
                "perf": "perf.csv"}[kind]
    (tmp_path / main_csv).write_bytes(written[main_csv])
    out = tmp_path / "again"
    assert main(["report", "--kind", kind, "--input", str(tmp_path / main_csv),
                 "--out", str(out)]) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


@pytest.mark.parametrize("settings", [{}, {"timing.t_refw": "32000000"}])
def test_trr_eval_windows_default_to_one_refresh_window(outputs, settings):
    timing = TimingParams(**({"t_refw": 32e6} if settings else {}))
    args = ["trr-eval", "--technique", "simra"]
    explicit = outputs([*args, "--windows", str(timing.refs_per_refw)], settings)
    assert outputs(args, settings) == explicit
    assert outputs([*args, "--windows", str(timing.refs_per_refw - 1)], settings) != explicit


@pytest.mark.parametrize("args", [["trr-eval"], ["attack", "--victim", "9"]],
                         ids=lambda a: a[0])
def test_infinite_refresh_count_exits_with_one_line(tmp_path, caplog, args):
    """A refresh window that holds infinitely many REFs ends the run with
    one line naming both keys, before any file is written."""
    values = {**_CONFIG, "timing.t_refi": "1e-300", "timing.t_refw": "1e300"}
    (tmp_path / "in.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main([*args, "--config", str(tmp_path / "in.cfg"), "--out", str(out)]) == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "timing.t_refw / timing.t_refi must be a finite count of refreshes per refresh window"]
    assert not out.exists()
