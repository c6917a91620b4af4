"""Exception types shared across the package, and its integer and
finiteness checks."""

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
    """A run would exceed a capacity: finest-level solve vectors above physical
    memory, a dense matrix above `system.DENSE_CAP`, or an mg-ssor level band
    above its square."""


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


def check_finite(values, what, name):
    """``values``, unless an entry is not finite: then `ParameterError`
    ``"{what} must be finite, {name}[i] is {value}"`` for the first such
    entry ``i``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParameterError(f"{what} must be finite, {name}[{bad[0]}] is {values[bad[0]]}")
    return values
