"""Exception types, and the integer, real, type and collection checks, shared across the package."""

from __future__ import annotations

import math
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


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float; ConfigError naming `name` unless a finite real, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a Real, got {type(value).__name__}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond float's range is infinite
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {v}")
    if not low <= v <= high:
        raise ConfigError(f"{name} must be in [{low}, {high}], got {value}")
    return v


def check_type(name: str, value, cls: type) -> None:
    """ConfigError naming `name` unless value is a `cls`; a string is not coerced to one."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ConfigError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")


def check_items(name: str, values, what: str, ordered: bool = True):
    """values; ConfigError naming `name` unless an iterable other than a str or bytes.

    Where `ordered`, the argument's order becomes the output's, and a set
    is refused too: the hash seed orders a set of enum members.
    """
    try:
        iter(values)
        iterable = not isinstance(values, (str, bytes))
    except TypeError:
        iterable = False
    if not iterable or (ordered and isinstance(values, (set, frozenset))):
        raise ConfigError(f"{name} must be {what}, got {type(values).__name__}")
    return values
