"""Every config key changes what some subcommand writes, and manifests
written before the retired keys were dropped still replay."""

import hashlib
import itertools
import logging

import pytest

from pudsim.cli import main
from pudsim.config import _SCHEMA, RETIRED_KEYS

# small SiMRA thresholds keep the op-by-op stochastic search short
_PROFILE = """\
name = gate_chip
vendor = test
threshold.rh = 6700 14800
threshold.comra = 5260 10610
threshold.simra = 100 120
"""

# every row's double-sided first flip, 450000 * 2 / 1.6 = 562500 hammers
# at the default data pattern, lies between half the default search
# budget (319,956 hammers) and the whole of it (639,990)
_BUDGET_PROFILE = """\
name = budget_chip
vendor = test
threshold.rh = 450000 450000
"""

_BASE = {
    "geometry.rows": "256",
    "layout.subarrays": "2",
    "groups.n": "8",
    "search.repeats": "2",
    "perf.mixes": "1",
    "perf.periods": "1000",
    "perf.target_reqs": "100",
}

# subcommand label -> (arguments, settings on top of _BASE)
_SIMRA_ATTACK = {"pattern.kind": "simra", "profile": "gate_chip",
                 "search.repeats": "1"}
_COMMANDS = {
    "characterize": (["characterize"], {}),
    # a copy needs both neighbours in the victim's subarray, which row 128,
    # the first of the second subarray, does not have
    "attack": (["attack", "--victim", "130"], {}),
    # the exact search depends on its budget only where the first flip
    # lies beyond it: halving the budget turns this cell into noflip
    "attack-budget": (["attack", "--victim", "128"], {"profile": "budget_chip"}),
    # a victim right above a group of groups.n rows, whose last row the
    # attack opens; at row 136 one repeat already finds the minimum of
    # three, at row 152 it does not
    "attack-simra": (["attack", "--victim", "136"], _SIMRA_ATTACK),
    "attack-simra-partial": (["attack", "--victim", "152"],
                             {**_SIMRA_ATTACK, "pattern.act_gap_ns": "1.0"}),
    "trr-eval": (["trr-eval", "--technique", "simra", "--seeds", "1",
                  "--windows", "820"], {}),
    "mitigation-eval": (["mitigation-eval"], {}),
    # the copy model ignores how far below tRP the gap is, so the copy
    # gap shows only in the command trace
    "trace-gen-comra": (["trace-gen", "--hammers", "3"], {"pattern.kind": "comra"}),
}

# key -> (value, subcommand label)
_CASES = {
    "geometry.rows": ("128", "characterize"),
    "timing.t_ras": ("40", "characterize"),  # copy source closes before tRAS
    "timing.t_rp": ("7.0", "characterize"),  # copy gap 7.5 no longer violates tRP
    "timing.t_refi": ("15600", "attack-budget"),  # halves the search budget
    "timing.t_refw": ("32000000", "attack-budget"),
    "timing.acts_per_refi": ("100", "trr-eval"),
    "profile": ("worstcase", "characterize"),
    "seed": ("3", "characterize"),
    "layout.subarrays": ("4", "characterize"),
    "groups.n": ("16", "characterize"),
    "groups.stride": ("2", "characterize"),
    "pattern.kind": ("comra", "attack"),
    "pattern.temp_c": ("50", "characterize"),
    "pattern.t_aggon_ns": ("60", "characterize"),
    "pattern.dp_aggr": ("0x55", "characterize"),
    "pattern.act_gap_ns": ("1.0", "attack-simra"),
    "pattern.pre_act_gap_ns": ("5.0", "trace-gen-comra"),
    # repeats matter only inside the partial-activation window
    "search.repeats": ("3", "attack-simra-partial"),
    "mitigation.sampler_size": ("100", "trr-eval"),
    "perf.mixes": ("2", "mitigation-eval"),
    "perf.periods": ("250", "mitigation-eval"),
    "perf.target_reqs": ("200", "mitigation-eval"),
}

# keys that a second subcommand reads as well: key -> (value, subcommand label)
_ALSO = {
    "pattern.temp_c": ("50", "trr-eval"),
    "pattern.t_aggon_ns": ("60", "trr-eval"),
    "pattern.dp_aggr": ("0x55", "trr-eval"),
}

_EXEMPT = {
    "out_dir": "a deployment path: it moves the outputs, not their bytes",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run a subcommand on _BASE plus settings; every file it writes
    except manifest.cfg, by name."""
    root = tmp_path_factory.mktemp("keys")
    (root / "profiles").mkdir()
    (root / "profiles" / "gate_chip.profile").write_text(_PROFILE)
    (root / "profiles" / "budget_chip.profile").write_text(_BUDGET_PROFILE)
    runs = itertools.count()

    def run(label, extra):
        args, base = _COMMANDS[label]
        d = root / f"run{next(runs)}"
        d.mkdir()
        values = {**_BASE, **base, **extra}
        (d / "in.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PUDSIM_PROFILE_DIR", str(root / "profiles"))
            assert main([*args, "--config", str(d / "in.cfg"), "--out", str(d / "out")]) == 0
        return {p.name: p.read_bytes() for p in (d / "out").iterdir()
                if p.name != "manifest.cfg"}

    defaults = {}

    def outputs_of(label, extra=None):
        if extra:
            return run(label, extra)
        if label not in defaults:
            defaults[label] = run(label, {})
        return defaults[label]

    return outputs_of


def test_every_key_is_gated_or_exempt():
    assert set(_CASES).isdisjoint(_EXEMPT)
    assert set(_CASES) | set(_EXEMPT) == set(_SCHEMA)
    assert set(_ALSO) <= set(_CASES)
    for key, (value, label) in [*_CASES.items(), *_ALSO.items()]:
        assert _BASE.get(key) != value and _COMMANDS[label][1].get(key) != value
        assert _ALSO.get(key, (None, None))[1] != _CASES[key][1]


@pytest.mark.parametrize("key", sorted(_CASES))
def test_key_changes_what_a_subcommand_writes(outputs, key):
    value, label = _CASES[key]
    default = outputs(label)
    changed = outputs(label, {key: value})
    assert default, label
    assert changed != default, f"{key} = {value} changes nothing {label} writes"


@pytest.mark.parametrize("key", sorted(_ALSO))
def test_key_changes_what_a_second_subcommand_writes(outputs, key):
    value, label = _ALSO[key]
    assert outputs(label, {key: value}) != outputs(label), (
        f"{key} = {value} changes nothing {label} writes"
    )


# written by characterize before the retired keys were dropped
_OLD_MANIFEST = """\
geometry.row_bytes = 8
geometry.rows = 128
groups.n = 8
groups.stride = 1
layout.subarrays = 2
mitigation.kind = trr
mitigation.rdt = 1000
mitigation.reach = 2
mitigation.sampler_size = 450
out_dir = out
pattern.act_gap_ns = 3.0
pattern.dp_aggr = 0x00
pattern.dp_victim = 0xAA
pattern.kind = rowhammer
pattern.pre_act_gap_ns = 7.5
pattern.t_aggon_ns = 36.0
pattern.temp_c = 80.0
perf.mixes = 60
perf.periods = 125 250 1000 4000 16000
perf.target_reqs = 2000
profile = skhynix_a_8gb
search.repeats = 5
search.tolerance = 0.05
seed = 5
timing.acts_per_refi = 156
timing.t_ras = 36.0
timing.t_refi = 7800.0
timing.t_refw = 64000000.0
timing.t_rp = 13.5
"""

# sha256 of the CSVs its replay writes since the first-flip search is
# exact: every HC_first is the smallest count that flips, where the
# retired search.tolerance = 0.05 used to stop up to 5% above it
_OLD_CSV_SHA256 = {
    "hc_distribution.csv": "2314e538e2680f924f140386eb49271fd12ba522ea268344bc85c876497f943d",
    "hc_minima.csv": "9c162f32caaf92fcdf056d7408ab5194ccf6175cf70b459e480d6c2672ffd4f1",
    "results.csv": "6503e2fd0bb5db2b37910fc2473e6f5f181dea02a34d7072bb3e092ebfb65cd0",
}


def test_old_manifest_replays_with_one_warning_per_retired_key(tmp_path, caplog):
    manifest = tmp_path / "manifest.cfg"
    manifest.write_text(_OLD_MANIFEST)
    out = tmp_path / "replay"
    with caplog.at_level(logging.WARNING):
        assert main(["characterize", "--config", str(manifest), "--out", str(out)]) == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warned == [f"ignoring retired config key {k!r}" for k in sorted(RETIRED_KEYS)]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert digests == _OLD_CSV_SHA256
