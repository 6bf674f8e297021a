"""Chip vulnerability profiles: shipped module library plus user overrides.

Profiles live in flat key/value `.profile` files.  The search order is
any directory named by the PUDSIM_PROFILE_DIR environment variable, then
the library shipped with the package.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import keyval
from .disturbance import KINDS, ChipProfile
from .errors import ConfigError

PROFILE_DIR_ENV = "PUDSIM_PROFILE_DIR"
DEFAULT_PROFILE = "skhynix_a_8gb"

_SHIPPED = Path(__file__).parent / "profiles"


def _number(text: str, key: str) -> float:
    try:
        return keyval.finite(text)
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def _parse_pair(text: str, key: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'min mean', got {text!r}")
    return _number(parts[0], key), _number(parts[1], key)


def _parse_anchor_list(text: str, key: str) -> tuple[tuple[float, float], ...]:
    anchors = []
    for token in text.split():
        t, _, m = token.partition(":")
        try:
            anchors.append((keyval.finite(t), keyval.finite(m)))
        except ValueError as e:
            raise ConfigError(f"{key}: bad anchor {token!r}: {e}") from None
    if not anchors:
        raise ConfigError(f"{key}: empty anchor list")
    return tuple(anchors)


def _parse_dp_table(text: str, key: str) -> dict[int, float]:
    table = {}
    for token in text.split():
        b, _, m = token.partition(":")
        try:
            byte, mult = int(b, 0), keyval.finite(m)
        except ValueError as e:
            raise ConfigError(f"{key}: bad entry {token!r}: {e}") from None
        if not 0 <= byte <= 0xFF:
            raise ConfigError(f"{key}: bad entry {token!r}: byte outside 0x00-0xFF")
        if byte in table:
            raise ConfigError(f"{key}: bad entry {token!r}: byte {byte:#04x} named twice")
        table[byte] = mult
    return table


# every key a profile may set; the model constants in `disturbance` hold
# for every chip and are not among them
PROFILE_KEYS = frozenset(
    ["name", "vendor"]
    + [f"{table}.{kind}" for table in ("threshold", "temp_step", "t_on", "dp_mult")
       for kind in KINDS]
)


def profile_from_values(values: dict[str, str]) -> ChipProfile:
    for k in values:
        if k not in PROFILE_KEYS:
            raise ConfigError(f"unknown profile key {k!r}")
    if "name" not in values:
        raise ConfigError("profile needs a name")
    defaults = ChipProfile(name="_defaults")
    thresholds = {}
    temp_step = dict(defaults.temp_step)
    t_on_anchors = dict(defaults.t_on_anchors)
    dp_mult = {k: dict(v) for k, v in defaults.dp_mult.items()}
    for kind in KINDS:
        if f"threshold.{kind}" in values:
            thresholds[kind] = _parse_pair(values[f"threshold.{kind}"], f"threshold.{kind}")
        if f"temp_step.{kind}" in values:
            temp_step[kind] = _number(values[f"temp_step.{kind}"], f"temp_step.{kind}")
        if f"t_on.{kind}" in values:
            t_on_anchors[kind] = _parse_anchor_list(values[f"t_on.{kind}"], f"t_on.{kind}")
        if f"dp_mult.{kind}" in values:
            dp_mult[kind].update(_parse_dp_table(values[f"dp_mult.{kind}"], f"dp_mult.{kind}"))
    return ChipProfile(
        name=values["name"],
        vendor=values.get("vendor", ""),
        thresholds=thresholds,
        temp_step=temp_step,
        t_on_anchors=t_on_anchors,
        dp_mult=dp_mult,
    )


def _search_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get(PROFILE_DIR_ENV)
    if env:
        dirs.append(Path(env))
    dirs.append(_SHIPPED)
    return dirs


def available_profiles() -> list[str]:
    names = set()
    for d in _search_dirs():
        if d.is_dir():
            names.update(p.stem for p in d.glob("*.profile"))
    return sorted(names)


def load_profile(name: str) -> ChipProfile:
    """Load by library name or by explicit path to a .profile file."""
    p = Path(name)
    if p.suffix == ".profile" and p.exists():
        return profile_from_values(keyval.load(p))
    for d in _search_dirs():
        candidate = d / f"{name}.profile"
        if candidate.exists():
            return profile_from_values(keyval.load(candidate))
    raise ConfigError(f"no profile named {name!r} (known: {', '.join(available_profiles())})")
