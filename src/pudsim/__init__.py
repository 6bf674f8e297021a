"""Behavioral simulator for DRAM read disturbance under multi-row
activation, with mitigation models and a characterization harness."""

from .dram import (
    Bank,
    CommandEvent,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
)
from .disturbance import (
    ChipProfile,
    DisturbanceState,
    ThresholdSet,
    accumulate,
    contribution,
    sample_thresholds,
)
from .errors import (
    AddressError,
    CalibrationError,
    ConfigError,
    ProtocolError,
    PudsimError,
    ShapeError,
)
from .harness import Experiment, find_hcfirst, run_sweep, sweep_plan
from .mitigation import PracConfig, PracState
from .patterns import PatternSpec, trace_lines
from .profiles import DEFAULT_PROFILE, available_profiles, load_profile
from .trreval import TrrConfig

__version__ = "0.1.0"

__all__ = [
    "AddressError",
    "Bank",
    "CalibrationError",
    "ChipProfile",
    "CommandEvent",
    "ConfigError",
    "DEFAULT_PROFILE",
    "DisturbanceState",
    "Experiment",
    "PatternSpec",
    "PracConfig",
    "PracState",
    "ProtocolError",
    "PudsimError",
    "ShapeError",
    "SimraGroupMap",
    "SubarrayLayout",
    "ThresholdSet",
    "TimingParams",
    "TrrConfig",
    "accumulate",
    "available_profiles",
    "contribution",
    "find_hcfirst",
    "load_profile",
    "run_sweep",
    "sample_thresholds",
    "sweep_plan",
    "trace_lines",
    "__version__",
]
