"""Run configuration: a flat `key = value` file with dotted section names.

Every knob has a default; `load_config` applies and logs the ones the
file leaves out, so a minimal config is legal and the effective
configuration is always visible in the run log.  `dumps_config` writes
every field explicitly, which makes load(dump(cfg)) == cfg trivially.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

from . import keyval
from .dram import SIMRA_SIZES, AnalogConfig, Geometry, TimingParams
from .errors import ConfigError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    # geometry / timing
    rows: int = 1024
    row_bytes: int = 8
    t_ras: float = 36.0
    t_rp: float = 13.5
    t_refi: float = 7800.0
    t_refw: float = 64e6
    acts_per_refi: int = 156
    # calibration and reproducibility
    profile: str = "skhynix_a_8gb"
    seed: int = 0
    out_dir: str = "out"
    # layout / group map generation
    subarrays: int = 4
    group_n: int = 32
    group_stride: int = 1
    # experiment conditions
    pattern: str = "rowhammer"
    temp_c: float = 80.0
    t_aggon_ns: float = 36.0
    dp_aggr: int = 0x00
    dp_victim: int = 0xFF
    act_gap_ns: float = 3.0
    pre_act_gap_ns: float = 7.5
    # HC_first search
    tolerance: float = 0.01
    repeats: int = 5
    # mitigation
    mitigation: str = "none"  # none | trr | prac-po-wc | prac-po-naive
    rdt: int = 4000
    reach: int = 2
    sampler_size: int = 450
    # performance evaluation
    perf_mixes: int = 60
    perf_periods: str = "125 250 1000 4000 16000"
    perf_target_reqs: int = 2000

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigError("search.tolerance must be > 0")
        if self.repeats < 1:
            raise ConfigError("search.repeats must be >= 1")
        if self.group_n not in SIMRA_SIZES:
            raise ConfigError(f"groups.n must be one of {SIMRA_SIZES}")
        if self.mitigation not in ("none", "trr", "prac-po-wc", "prac-po-naive"):
            raise ConfigError(f"unknown mitigation {self.mitigation!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        # delegate range checks to the component types
        self.geometry()
        self.timing()
        for p in self.periods():
            if p <= 0:
                raise ConfigError("perf.periods entries must be positive")

    def geometry(self) -> Geometry:
        return Geometry(rows=self.rows, row_bytes=self.row_bytes)

    def timing(self) -> TimingParams:
        return TimingParams(
            t_ras=self.t_ras,
            t_rp=self.t_rp,
            t_refi=self.t_refi,
            t_refw=self.t_refw,
            acts_per_refi=self.acts_per_refi,
        )

    def analog(self) -> AnalogConfig:
        return AnalogConfig(
            simra_gap_max=max(self.act_gap_ns, 3.0),
            default_fill=self.dp_victim,
        )

    def periods(self) -> tuple[float, ...]:
        try:
            return tuple(float(tok) for tok in self.perf_periods.split())
        except ValueError as e:
            raise ConfigError(f"perf.periods: {e}") from None


def _int(raw: str) -> int:
    return int(raw, 0)  # accepts 0x.. for data patterns


# config-file key -> (dataclass field, parser)
_SCHEMA: dict[str, tuple[str, object]] = {
    "geometry.rows": ("rows", _int),
    "geometry.row_bytes": ("row_bytes", _int),
    "timing.t_ras": ("t_ras", float),
    "timing.t_rp": ("t_rp", float),
    "timing.t_refi": ("t_refi", float),
    "timing.t_refw": ("t_refw", float),
    "timing.acts_per_refi": ("acts_per_refi", _int),
    "profile": ("profile", str),
    "seed": ("seed", _int),
    "out_dir": ("out_dir", str),
    "layout.subarrays": ("subarrays", _int),
    "groups.n": ("group_n", _int),
    "groups.stride": ("group_stride", _int),
    "pattern.kind": ("pattern", str),
    "pattern.temp_c": ("temp_c", float),
    "pattern.t_aggon_ns": ("t_aggon_ns", float),
    "pattern.dp_aggr": ("dp_aggr", _int),
    "pattern.dp_victim": ("dp_victim", _int),
    "pattern.act_gap_ns": ("act_gap_ns", float),
    "pattern.pre_act_gap_ns": ("pre_act_gap_ns", float),
    "search.tolerance": ("tolerance", float),
    "search.repeats": ("repeats", _int),
    "mitigation.kind": ("mitigation", str),
    "mitigation.rdt": ("rdt", _int),
    "mitigation.reach": ("reach", _int),
    "mitigation.sampler_size": ("sampler_size", _int),
    "perf.mixes": ("perf_mixes", _int),
    "perf.periods": ("perf_periods", str),
    "perf.target_reqs": ("perf_target_reqs", _int),
}

_FIELD_TO_KEY = {f: k for k, (f, _) in _SCHEMA.items()}


def config_from_values(values: dict[str, str], strict: bool = True) -> RunConfig:
    kwargs = {}
    for key, raw in values.items():
        if key not in _SCHEMA:
            if strict:
                raise ConfigError(f"unknown config key {key!r}")
            log.warning("ignoring unknown config key %r", key)
            continue
        fname, parse = _SCHEMA[key]
        try:
            kwargs[fname] = parse(raw)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"{key}: {e}") from None
    cfg = RunConfig(**kwargs)
    for f in fields(RunConfig):
        if f.name not in kwargs:
            log.info(
                "config default applied: %s = %r",
                _FIELD_TO_KEY[f.name],
                getattr(cfg, f.name),
            )
    return cfg


def loads_config(text: str, strict: bool = True) -> RunConfig:
    return config_from_values(keyval.loads(text), strict=strict)


def load_config(path: str, strict: bool = True) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read(), strict=strict)


def dumps_config(cfg: RunConfig) -> str:
    """Every field written explicitly so a round trip is exact."""
    values = {}
    for key, (fname, parse) in _SCHEMA.items():
        v = getattr(cfg, fname)
        if fname in ("dp_aggr", "dp_victim"):
            values[key] = f"0x{v:02X}"
        else:
            values[key] = repr(v) if isinstance(v, float) else str(v)
    return keyval.dumps(values)
