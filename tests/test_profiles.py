"""The chip profile format: every key a profile may set is one that
shipped profiles use or that is kept for a stated reason, and a profile
the parser rejects ends `characterize` and `trr-eval` before they write
anything."""

import pytest

from pudsim import keyval
from pudsim.cli import main
from pudsim.disturbance import RH
from pudsim.errors import ConfigError
from pudsim.profiles import _SHIPPED, PROFILE_KEYS, profile_from_values

# key families that no shipped profile sets, and why the format keeps them
ALLOWED_UNSET = {
    "dp_mult": "the paper's data-pattern axis: a chip's per-pattern multipliers",
}


def _family(key):
    return key.split(".", 1)[0]


def test_every_profile_key_is_set_by_a_shipped_profile_or_allowed():
    shipped = {k for p in sorted(_SHIPPED.glob("*.profile")) for k in keyval.load(p)}
    assert shipped <= PROFILE_KEYS
    unset = {_family(k) for k in PROFILE_KEYS} - {_family(k) for k in shipped}
    assert unset == set(ALLOWED_UNSET)


def test_partial_dp_table_merges_over_the_built_in_one():
    """A profile's `dp_mult.<kind>` sets the patterns it names; the
    others keep their built-in multipliers."""
    prof = profile_from_values({"name": "partial", "dp_mult.rh": "0x55:1.2"})
    assert prof.dp_factor(RH, 0x55) == 1.2
    assert prof.dp_factor(RH, 0x00) == 0.8
    assert prof.dp_factor(RH, 0xFF) == 0.8


@pytest.mark.parametrize("table, token", [
    ("0x155:1.2", "0x155:1.2"),  # past one byte, not aliased to 0x55
    ("-1:3", "-1:3"),  # below 0x00, not aliased to 0xFF
    ("0x55:1 0x55:2", "0x55:2"),  # named twice, the last no longer wins
])
def test_dp_table_takes_each_byte_once_and_in_range(table, token):
    with pytest.raises(ConfigError) as err:
        profile_from_values({"name": "x", "threshold.rh": "100 200", "dp_mult.rh": table})
    message = str(err.value)
    assert message.startswith("dp_mult.rh") and repr(token) in message


_GOOD = "name = bad_chip\nvendor = test\nthreshold.rh = 6700 14800\n"

# the model constants a profile could set before they were fixed, keys
# that share a prefix with accepted ones, and the retired region multiplier
_REJECTED_KEYS = [
    "base.rh = 2.0",
    "flip_direction.simra = 1to0",
    "blast_decay = 0.1",
    "max_distance = 3",
    "bit_escalation = 1.1",
    "temp_step.simr = 9.0",
    "region_mult.end = 0.1",
    "region_mult.End = 0.5",
]

_SUBCOMMANDS = [
    ["characterize", "--kinds", "rowhammer"],
    ["trr-eval", "--seeds", "1", "--windows", "4"],
]


def _run_expecting_one_error(tmp_path, caplog, args, profile):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"geometry.rows = 128\nlayout.subarrays = 1\nprofile = {profile}\n")
    out = tmp_path / "out"
    assert main([*args, "--config", str(cfg), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert not (out / "manifest.cfg").exists()
    return errors[0]


@pytest.mark.parametrize("args", _SUBCOMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("line", _REJECTED_KEYS)
def test_profile_key_outside_the_format_ends_the_run(tmp_path, caplog, monkeypatch,
                                                      args, line):
    (tmp_path / "bad_chip.profile").write_text(_GOOD + line + "\n")
    monkeypatch.setenv("PUDSIM_PROFILE_DIR", str(tmp_path))
    key = line.split(" = ")[0]
    assert _run_expecting_one_error(tmp_path, caplog, args, "bad_chip") == (
        f"unknown profile key {key!r}"
    )


@pytest.mark.parametrize("args", _SUBCOMMANDS, ids=lambda a: a[0])
def test_profile_named_by_path_is_checked_alike(tmp_path, caplog, args):
    path = tmp_path / "bad_chip.profile"
    path.write_text(_GOOD + "max_distance = 3\n")
    message = _run_expecting_one_error(tmp_path, caplog, args, str(path))
    assert message == "unknown profile key 'max_distance'"


@pytest.mark.parametrize("args", _SUBCOMMANDS, ids=lambda a: a[0])
def test_unknown_profile_name_ends_the_run(tmp_path, caplog, args):
    message = _run_expecting_one_error(tmp_path, caplog, args, "nope")
    assert message.startswith("no profile named 'nope'")


# one bad number or entry per line, for every key family; the error names
# the line's key
_BAD_NUMBERS = [
    *(line.format(v) for v in ("nan", "inf") for line in (
        "threshold.rh = {} 14800",
        "threshold.rh = 6700 {}",
        "t_on.rh = 36:1 144:{}",
        "t_on.rh = {}:1",
        "dp_mult.rh = 0x55:{}",
        "temp_step.rh = {}",
    )),
    "temp_step.rh = -1",
    "temp_step.rh = 0",
    "dp_mult.rh = 0x55:-1",
    "threshold.rh = 0 14800",
    "t_on.rh = 36:2 144:1",
    "t_on.rh = 0:1",
    "dp_mult.rh = 0x155:1.2",
    "dp_mult.rh = -1:3",
    "dp_mult.rh = 0x55:1 0x55:2",
]


@pytest.mark.parametrize("args", _SUBCOMMANDS, ids=lambda a: a[0])
@pytest.mark.parametrize("line", _BAD_NUMBERS)
def test_bad_profile_number_names_its_key(tmp_path, caplog, monkeypatch, args, line):
    key, _, value = line.partition(" = ")
    values = {"name": "bad_chip", "threshold.rh": "6700 14800", key: value}
    (tmp_path / "bad_chip.profile").write_text(keyval.dumps(values))
    monkeypatch.setenv("PUDSIM_PROFILE_DIR", str(tmp_path))
    assert _run_expecting_one_error(tmp_path, caplog, args, "bad_chip").startswith(key)
