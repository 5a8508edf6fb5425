"""Exception hierarchy shared across the pipeline, and the value checks
that config dataclasses use to raise ConfigError."""

from __future__ import annotations

import math
from numbers import Integral


# largest array a configuration may make one sweep allocate
MAX_ARRAY_BYTES = 2**28


class RatrackError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(RatrackError):
    """Invalid configuration (bad parameter values, inconsistent dims)."""


class FrameError(RatrackError):
    """Frame/grid dimension or length mismatch."""


class StreamError(RatrackError):
    """Violation of a streaming contract (dims changed mid-stream,
    non-monotone timestamps)."""


class FormatError(RatrackError):
    """Malformed or truncated tensor file.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SingularGeometryError(RatrackError):
    """Measurement model evaluated at a singular state (target at origin)."""


class NumericalError(RatrackError):
    """A linear-algebra step failed (e.g. non-invertible innovation covariance)."""


def require_real(name: str, value, low: float = 0.0, strict: bool = True,
                 high: float = math.inf):
    """Raise ConfigError unless value is a finite real number > low
    (>= low when strict is False) and <= high."""
    try:
        ok = math.isfinite(value) and value <= high and (
            value > low if strict else value >= low
        )
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        op = ">" if strict else ">="
        cap = "" if high == math.inf else f" and <= {high:g}"
        raise ConfigError(
            f"{name} must be finite and {op} {low:g}{cap}, got {value!r}"
        )


def require_int(name: str, value, low: int):
    """Raise ConfigError unless value is an integer >= low."""
    if not (isinstance(value, Integral) and value >= low):
        raise ConfigError(
            f"{name} must be an integer >= {low}, got {value!r}"
        )


def finite_floats(name: str, values, length: int | None = None):
    """values as a tuple of finite floats (exactly length of them, if
    given); ConfigError otherwise."""
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (
        out is None
        or (length is not None and len(out) != length)
        or not all(map(math.isfinite, out))
    ):
        count = "" if length is None else f"{length} "
        raise ConfigError(
            f"{name} must be a list of {count}finite numbers, got {values!r}"
        )
    return out


def require_fits(what: str, n_bytes: float):
    """Raise ConfigError unless n_bytes <= MAX_ARRAY_BYTES."""
    if not n_bytes <= MAX_ARRAY_BYTES:
        raise ConfigError(f"{what} needs {n_bytes / 2**20:.4g} MiB, over "
                          f"the {MAX_ARRAY_BYTES >> 20} MiB array budget")
