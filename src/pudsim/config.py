"""Run configuration: a flat `key = value` file with dotted section names.

Every knob takes its default and its range check from the component
type that reads it.  `load_config` applies the defaults the file leaves
out and logs them at DEBUG (one INFO summary), so a minimal config is
legal.  `dumps_config` writes every field explicitly, which makes
load(dump(cfg)) == cfg trivially.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

from . import keyval
from .dram import MAX_ROWS, SIMRA_GAP_MAX, SIMRA_SIZES, SimraGroupMap, SubarrayLayout, TimingParams
from .errors import ConfigError
from .harness import REPEATS
from .disturbance import T_REF_C
from .patterns import PATTERN_KINDS, PatternSpec
from .profiles import DEFAULT_PROFILE
from .trreval import TrrConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    # geometry / timing
    rows: int = 1024
    t_ras: float = TimingParams.t_ras
    t_rp: float = TimingParams.t_rp
    t_refi: float = TimingParams.t_refi
    t_refw: float = TimingParams.t_refw
    acts_per_refi: int = TimingParams.acts_per_refi
    # calibration and reproducibility
    profile: str = DEFAULT_PROFILE
    seed: int = 0
    out_dir: str = "out"
    # layout / group map generation
    subarrays: int = 4
    group_n: int = 32
    group_stride: int = 1
    # experiment conditions
    pattern_kind: str = "rowhammer"
    temp_c: float = T_REF_C
    t_aggon_ns: float = TimingParams.t_ras
    dp_aggr: int = 0x00
    act_gap_ns: float = PatternSpec.act_gap
    pre_act_gap_ns: float = PatternSpec.pre_act_gap
    # HC_first search
    repeats: int = REPEATS
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
        if not 0x00 <= self.dp_aggr <= 0xFF:
            raise ConfigError(f"pattern.dp_aggr must be one byte, 0x00 to 0xFF, got {self.dp_aggr}")
        if self.pattern_kind not in PATTERN_KINDS:
            raise ConfigError(f"pattern.kind must be one of {PATTERN_KINDS}")
        if self.act_gap_ns > SIMRA_GAP_MAX:
            raise ConfigError(
                f"pattern.act_gap_ns must be <= {SIMRA_GAP_MAX} ns, "
                "the multi-activation window"
            )
        if self.repeats < 1:
            raise ConfigError("search.repeats must be >= 1")
        # before the layout, which allocates per row
        if self.rows > MAX_ROWS:
            raise ConfigError(f"geometry.rows must be at most {MAX_ROWS}, got {self.rows}")
        # delegate range checks to the component types
        self.layout()
        self.timing()
        self.trr()
        self.pattern()
        if self.perf_mixes < 1:
            raise ConfigError("perf.mixes must be >= 1")
        if self.perf_target_reqs < 1:
            raise ConfigError("perf.target_reqs must be >= 1")
        periods = self.periods()
        if periods and min(periods) <= 0:
            raise ConfigError(f"perf.periods must be positive, got {min(periods):g}")
        if not periods or len(set(periods)) < len(periods):
            raise ConfigError("perf.periods must list distinct positive periods")
        # the PuD core alone runs perf.target_reqs ops, one a period apart
        try:
            finite = math.isfinite(max(periods) * self.perf_target_reqs)
        except OverflowError:  # a target past the largest float
            finite = False
        if not finite:
            raise ConfigError(f"perf.periods x perf.target_reqs must be a finite count of ns, "
                              f"got {max(periods):g} x {self.perf_target_reqs}")

    def layout(self) -> SubarrayLayout:
        """`subarrays` equal subarrays, each at least one group span."""
        if self.subarrays < 1:
            raise ConfigError("layout.subarrays must be >= 1")
        sub_rows = max(self.group_n * self.group_stride, self.rows // self.subarrays)
        return SubarrayLayout.uniform(self.rows, sub_rows)

    def groups(self) -> SimraGroupMap:
        return SimraGroupMap.aligned_blocks(self.layout(), self.group_n, self.group_stride)

    def timing(self) -> TimingParams:
        return TimingParams(
            t_ras=self.t_ras,
            t_rp=self.t_rp,
            t_refi=self.t_refi,
            t_refw=self.t_refw,
            acts_per_refi=self.acts_per_refi,
        )

    def trr(self) -> TrrConfig:
        return TrrConfig(sampler_size=self.sampler_size)

    def pattern(self) -> PatternSpec:
        """The config's pattern, placed at the middle row for `trace-gen`;
        `characterize` and `attack` place it against each victim, and
        `trr-eval` takes its on-time.  An error names the key at fault."""
        mid = self.rows // 2
        placed = {"comra": (mid, mid + 1), "simra": (mid, mid)}
        try:
            return PatternSpec(
                kind=self.pattern_kind,
                aggressors=placed.get(self.pattern_kind, (mid - 1, mid + 1)),
                t_aggon=self.t_aggon_ns,
                act_gap=self.act_gap_ns,
                pre_act_gap=self.pre_act_gap_ns,
                n=self.group_n,
            )
        except ConfigError as e:
            # PatternSpec's errors begin with its field, `<field>_ns` here
            name, _, rest = str(e).partition(" ")
            raise ConfigError(f"{_FIELD_TO_KEY.get(name + '_ns', name)} {rest}") from None

    def periods(self) -> tuple[float, ...]:
        try:
            return tuple(keyval.finite(tok) for tok in self.perf_periods.split())
        except ValueError as e:
            raise ConfigError(f"perf.periods: {e}") from None


def _int(raw: str) -> int:
    return int(raw, 0)  # accepts 0x.. for data patterns


# config-file key -> (dataclass field, parser)
_SCHEMA: dict[str, tuple[str, object]] = {
    "geometry.rows": ("rows", _int),
    "timing.t_ras": ("t_ras", keyval.finite),
    "timing.t_rp": ("t_rp", keyval.finite),
    "timing.t_refi": ("t_refi", keyval.finite),
    "timing.t_refw": ("t_refw", keyval.finite),
    "timing.acts_per_refi": ("acts_per_refi", _int),
    "profile": ("profile", str),
    "seed": ("seed", _int),
    "out_dir": ("out_dir", str),
    "layout.subarrays": ("subarrays", _int),
    "groups.n": ("group_n", _int),
    "groups.stride": ("group_stride", _int),
    "pattern.kind": ("pattern_kind", str),
    "pattern.temp_c": ("temp_c", keyval.finite),
    "pattern.t_aggon_ns": ("t_aggon_ns", keyval.finite),
    "pattern.dp_aggr": ("dp_aggr", _int),
    "pattern.act_gap_ns": ("act_gap_ns", keyval.finite),
    "pattern.pre_act_gap_ns": ("pre_act_gap_ns", keyval.finite),
    "search.repeats": ("repeats", _int),
    "mitigation.sampler_size": ("sampler_size", _int),
    "perf.mixes": ("perf_mixes", _int),
    "perf.periods": ("perf_periods", str),
    "perf.target_reqs": ("perf_target_reqs", _int),
}

_FIELD_TO_KEY = {f: k for k, (f, _) in _SCHEMA.items()}

# keys that earlier versions wrote to every manifest and no output
# depends on any more (the first-flip search is exact, so it has no
# tolerance); skipped with a warning so those manifests still replay
RETIRED_KEYS = frozenset({
    "geometry.row_bytes", "mitigation.kind", "mitigation.rdt", "mitigation.reach",
    "pattern.dp_victim", "search.tolerance",
})


def config_from_values(values: dict[str, str]) -> RunConfig:
    kwargs = {}
    for key, raw in values.items():
        if key in RETIRED_KEYS:
            log.warning("ignoring retired config key %r", key)
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
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


def load_config(path: str) -> RunConfig:
    return config_from_values(keyval.load(path))


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
