"""Run configuration: a flat `key = value` file with dotted section names.

Every knob takes its default and its range check from the component
type that reads it.  `load_config` applies the defaults the file leaves
out and logs them at DEBUG (one INFO summary), so a minimal config is
legal.  `dumps_config` writes every field explicitly, which makes
load(dump(cfg)) == cfg trivially.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

from . import keyval
from .dram import SIMRA_SIZES, AnalogConfig, Geometry, TimingParams
from .errors import ConfigError
from .harness import BisectionConfig
from .mitigation import TrrConfig
from .patterns import PatternSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    # geometry / timing
    rows: int = Geometry.rows
    row_bytes: int = Geometry.row_bytes
    t_ras: float = TimingParams.t_ras
    t_rp: float = TimingParams.t_rp
    t_refi: float = TimingParams.t_refi
    t_refw: float = TimingParams.t_refw
    acts_per_refi: int = TimingParams.acts_per_refi
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
    t_aggon_ns: float = TimingParams.t_ras
    dp_aggr: int = 0x00
    act_gap_ns: float = PatternSpec.act_gap
    pre_act_gap_ns: float = PatternSpec.pre_act_gap
    # HC_first search
    tolerance: float = BisectionConfig.tolerance
    repeats: int = BisectionConfig.repeats
    # TRR sampler
    sampler_size: int = TrrConfig.sampler_size
    # performance evaluation
    perf_mixes: int = 60
    perf_periods: str = "125 250 1000 4000 16000"
    perf_target_reqs: int = 2000

    def __post_init__(self):
        if self.group_n not in SIMRA_SIZES:
            raise ConfigError(f"groups.n must be one of {SIMRA_SIZES}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.act_gap_ns > AnalogConfig.simra_gap_max:
            raise ConfigError(
                f"pattern.act_gap_ns must be <= {AnalogConfig.simra_gap_max} ns, "
                "the multi-activation window"
            )
        # delegate range checks to the component types
        self.geometry()
        self.timing()
        self.search()
        self.trr()
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

    def search(self) -> BisectionConfig:
        return BisectionConfig(tolerance=self.tolerance, repeats=self.repeats)

    def trr(self) -> TrrConfig:
        return TrrConfig(sampler_size=self.sampler_size)

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
    "pattern.act_gap_ns": ("act_gap_ns", float),
    "pattern.pre_act_gap_ns": ("pre_act_gap_ns", float),
    "search.tolerance": ("tolerance", float),
    "search.repeats": ("repeats", _int),
    "mitigation.sampler_size": ("sampler_size", _int),
    "perf.mixes": ("perf_mixes", _int),
    "perf.periods": ("perf_periods", str),
    "perf.target_reqs": ("perf_target_reqs", _int),
}

_FIELD_TO_KEY = {f: k for k, (f, _) in _SCHEMA.items()}

# keys that earlier versions wrote to every manifest but nothing read;
# skipped with a warning so those manifests still replay in strict mode
RETIRED_KEYS = frozenset(
    {"mitigation.kind", "mitigation.rdt", "mitigation.reach", "pattern.dp_victim"}
)


def config_from_values(values: dict[str, str], strict: bool = True) -> RunConfig:
    kwargs = {}
    for key, raw in values.items():
        if key in RETIRED_KEYS:
            log.warning("ignoring retired config key %r", key)
            continue
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
    defaults = [f.name for f in fields(RunConfig) if f.name not in kwargs]
    for name in defaults:
        log.debug("config default applied: %s = %r", _FIELD_TO_KEY[name], getattr(cfg, name))
    log.info("config: %d keys set, %d defaults (-v lists them)", len(kwargs), len(defaults))
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
        if fname == "dp_aggr":
            values[key] = f"0x{v:02X}"
        else:
            values[key] = repr(v) if isinstance(v, float) else str(v)
    return keyval.dumps(values)
