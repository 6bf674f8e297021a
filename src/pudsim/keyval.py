"""Flat `key = value` text files with dotted section prefixes.

Both run configs and chip profiles use this format.  Keys are dotted
paths, values are uninterpreted strings; typing happens in the consumer.
"""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError


def loads(text: str, source: str = "<string>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def dumps(values: dict[str, str]) -> str:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    return "\n".join(lines) + "\n"


def load(path: str | Path) -> dict[str, str]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {p}: {e}") from e
    return loads(text, source=str(p))


def finite(raw: str) -> float:
    """`raw` as a number, neither nan nor infinite: the one number parse
    of run configs and chip profiles."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value
