"""Exception types, and the integer check, shared across the package."""

from __future__ import annotations

import numbers


class StreamGateError(Exception):
    """Base class for all streamgate errors."""


class ConfigError(StreamGateError):
    """Invalid parameter, shape, or option combination."""


class StateError(StreamGateError):
    """Non-finite or overflowing values in a gate step, or session buffers used out of order."""


def check_int(name: str, value, low: int = 0, high: int | None = None) -> int:
    """value as an int; ConfigError naming `name` unless an integer in [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low or (high is not None and value > high)):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)
