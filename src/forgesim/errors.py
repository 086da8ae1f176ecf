"""Exception types shared across the toolkit, and the input rules: integers
and their lower bounds, the founding probability p0 and the 64-bit seed."""

import numpy as np


class ForgesimError(Exception):
    """Base class for toolkit errors."""


class DomainError(ForgesimError, ValueError):
    """A parameter or input value lies outside its documented domain."""


class DegenerateDataError(ForgesimError, ValueError):
    """Input data cannot support the requested estimation (e.g. all-singleton histogram)."""


class AlignmentError(ForgesimError, ValueError):
    """Monthly series passed together do not cover the same months."""


class ConvergenceError(ForgesimError, RuntimeError):
    """An iterative procedure failed to converge within its iteration cap.

    Carries the best point reached so callers can inspect partial results.
    """

    def __init__(self, message: str, best: object = None):
        super().__init__(message)
        self.best = best


def is_integer(value) -> bool:
    """True for Python and numpy integers; bools, floats and the rest are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_integer(name: str, value, minimum: int | None = None) -> int:
    """value as an int; a value is_integer rejects, or one below minimum, raises DomainError."""
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}")
    return int(value)


def require_p0(p0: float) -> float:
    """p0 as given; a founding probability outside (0,1), nan, or anything
    but a scalar raises DomainError."""
    if np.ndim(p0) != 0 or not 0.0 < p0 < 1.0:
        raise DomainError(f"p0 must lie in (0,1), got {p0}")
    return p0


def require_seed(seed) -> int:
    """seed as an int; anything but an integer in [0, 2**64) raises DomainError."""
    seed = require_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def require_months(name: str, months) -> frozenset[int]:
    """An iterable of months as a frozenset of ints; a month that
    require_integer rejects raises DomainError."""
    return frozenset(require_integer(f"every month in {name}", month) for month in months)


def require_month_array(name: str, months) -> np.ndarray:
    """A sequence of months as an int64 array, in order and with repeats; a
    month that require_integer rejects raises DomainError."""
    return np.array(
        [require_integer(f"every month in {name}", month) for month in months], dtype=np.int64
    )
