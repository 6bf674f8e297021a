"""Behavioral simulator for DRAM read disturbance under multi-row
activation, with mitigation models and a characterization harness."""

from .dram import (
    AnalogConfig,
    Bank,
    CommandEvent,
    Geometry,
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
    UndefinedTimingError,
)
from .harness import BisectionConfig, Experiment, find_hcfirst, run_sweep
from .mitigation import PracConfig, PracState
from .patterns import PatternSpec, events_to_trace, parse_trace
from .profiles import available_profiles, load_default_profile, load_profile
from .trreval import TrrConfig

__version__ = "0.1.0"

__all__ = [
    "AnalogConfig",
    "AddressError",
    "Bank",
    "BisectionConfig",
    "CalibrationError",
    "ChipProfile",
    "CommandEvent",
    "ConfigError",
    "DisturbanceState",
    "Experiment",
    "Geometry",
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
    "UndefinedTimingError",
    "accumulate",
    "available_profiles",
    "contribution",
    "events_to_trace",
    "find_hcfirst",
    "load_default_profile",
    "load_profile",
    "parse_trace",
    "run_sweep",
    "sample_thresholds",
    "__version__",
]
