"""Exception types shared across the simulator."""


class PudsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(PudsimError):
    """Invalid or inconsistent configuration input."""


class AddressError(PudsimError):
    """Address outside the configured geometry."""


class ProtocolError(PudsimError):
    """Command sequence that a real controller would never issue
    (e.g. REF with a row open, ACT on an already-active bank)."""


class CalibrationError(PudsimError):
    """Threshold fitting could not hit its targets."""


class ShapeError(PudsimError):
    """Mismatched row sizes or empty input where data is required."""
