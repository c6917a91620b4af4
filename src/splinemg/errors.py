"""Exception types shared across the package, and its integer check."""

import numpy as np


class SplinemgError(Exception):
    """Base class for all package errors."""


class ParameterError(SplinemgError, ValueError):
    """Invalid construction parameter (degree, level, bounds, config)."""


class ShapeError(SplinemgError, ValueError):
    """Vector or matrix dimensions do not match the operator."""


class DomainError(SplinemgError, ValueError):
    """Evaluation or data points fall outside the spline domain."""


class CapacityError(SplinemgError, RuntimeError):
    """A dense object (or an mg-ssor level band) would exceed the dense cap."""


class NumericError(SplinemgError, RuntimeError):
    """Non-finite values or a failed factorization during computation."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def check_integer(value, message, minimum=None) -> int:
    """``value`` as an ``int``; `ParameterError` ``"{message}, got {value!r}"``
    unless it is an integer or a numpy integer (never a ``bool``, never
    truncated) of at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)):
        raise ParameterError(f"{message}, got {value!r}")
    return int(value)
