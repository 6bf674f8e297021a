"""Key/value parsing and run configuration round trips."""

import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pudsim import keyval
from pudsim.config import (
    RETIRED_KEYS,
    RunConfig,
    config_from_values,
    dumps_config,
    load_config,
    loads_config,
)
from pudsim.disturbance import T_REF_C
from pudsim.dram import SIMRA_GAP_MAX, SubarrayLayout, TimingParams
from pudsim.errors import ConfigError
from pudsim.harness import REPEATS
from pudsim.patterns import PatternSpec
from pudsim.profiles import DEFAULT_PROFILE
from pudsim.trreval import TrrConfig


# -- keyval -----------------------------------------------------------------


def test_keyval_parses_comments_and_blanks():
    text = "# header\n\na = 1\nb.c = two words  # not a comment here\n"
    vals = keyval.loads(text)
    assert vals == {"a": "1", "b.c": "two words  # not a comment here"}


def test_keyval_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=":3"):
        keyval.loads("a = 1\n# x\na = 2\n")


def test_keyval_missing_equals_rejected():
    with pytest.raises(ConfigError, match=":1"):
        keyval.loads("just words\n")


simple_value = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters="#"),
    min_size=1,
    max_size=12,
)


@given(st.dictionaries(st.from_regex(r"[a-z]+(\.[a-z]+)?", fullmatch=True), simple_value, max_size=8))
def test_keyval_round_trip(values):
    assert keyval.loads(keyval.dumps(values)) == values


# -- run config -------------------------------------------------------------


def test_minimal_config_applies_and_logs_defaults(caplog):
    with caplog.at_level(logging.DEBUG):
        cfg = loads_config("geometry.rows = 2048\n")
    assert cfg.rows == 2048
    assert cfg.t_ras == 36.0
    defaults_logged = [r for r in caplog.records
                       if "default applied" in r.message and r.levelno == logging.DEBUG]
    assert len(defaults_logged) == len(RunConfig.__dataclass_fields__) - 1
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert info == ["config: 1 keys set, 22 defaults (-v lists them)"]


def test_round_trip_equality():
    cfg = RunConfig(rows=2048, seed=9, dp_aggr=0x55, perf_periods="125 250")
    assert loads_config(dumps_config(cfg)) == cfg


def test_round_trip_equality_from_file(tmp_path):
    cfg = RunConfig(profile="worstcase", temp_c=50.0)
    p = tmp_path / "run.cfg"
    p.write_text(dumps_config(cfg))
    assert load_config(str(p)) == cfg


def test_unknown_key_strict_vs_lax():
    # there is no lax mode: an unknown key is always an error
    with pytest.raises(ConfigError, match="unknown config key"):
        loads_config("no.such.key = 1\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="geometry.rows"):
        loads_config("geometry.rows = many\n")


def test_invalid_group_size_rejected():
    with pytest.raises(ConfigError, match="groups.n"):
        config_from_values({"groups.n": "3"})


def test_hex_data_patterns_accepted():
    cfg = loads_config("pattern.dp_aggr = 0xAA\n")
    assert cfg.dp_aggr == 0xAA


def test_periods_parse_and_validate():
    assert RunConfig(perf_periods="125 16000").periods() == (125.0, 16000.0)
    with pytest.raises(ConfigError):
        RunConfig(perf_periods="125 zero").periods()
    with pytest.raises(ConfigError):
        RunConfig(perf_periods="125 -1")


def test_retired_keys_are_skipped_with_one_warning_each(caplog):
    text = "".join(f"{k} = 1\n" for k in sorted(RETIRED_KEYS)) + "seed = 4\n"
    with caplog.at_level(logging.WARNING):
        cfg = loads_config(text)
    assert cfg == RunConfig(seed=4)
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warned == [f"ignoring retired config key {k!r}" for k in sorted(RETIRED_KEYS)]
    assert not RETIRED_KEYS & set(keyval.loads(dumps_config(cfg)))


def test_act_gap_past_the_multi_activation_window_rejected():
    limit = SIMRA_GAP_MAX
    assert loads_config(f"pattern.act_gap_ns = {limit}\n").act_gap_ns == limit
    with pytest.raises(ConfigError, match="pattern.act_gap_ns"):
        loads_config("pattern.act_gap_ns = 4.0\n")


def test_defaults_come_from_the_component_types():
    cfg = RunConfig()
    assert cfg.profile == DEFAULT_PROFILE
    assert cfg.layout() == SubarrayLayout.uniform(1024, 256)
    assert cfg.timing() == TimingParams()
    assert cfg.repeats == REPEATS
    assert cfg.trr() == TrrConfig()
    assert cfg.t_aggon_ns == TimingParams.t_ras
    assert cfg.temp_c == T_REF_C
    assert (cfg.act_gap_ns, cfg.pre_act_gap_ns) == (PatternSpec.act_gap, PatternSpec.pre_act_gap)


@pytest.mark.parametrize("text,match", [
    ("search.repeats = 0\n", "repeats"),
    ("mitigation.sampler_size = 0\n", "sampler_size"),
    ("timing.t_rp = 0\n", "t_rp"),
    ("geometry.rows = 0\n", "rows"),
    ("layout.subarrays = 0\n", "layout.subarrays"),
])
def test_component_types_check_the_ranges(text, match):
    with pytest.raises(ConfigError, match=match):
        loads_config(text)


def test_t_rc_follows_t_ras():
    cfg = loads_config("timing.t_ras = 40\n")
    assert cfg.timing().t_rc == 40.0 + 13.5
    assert TimingParams().t_rc == 49.5
