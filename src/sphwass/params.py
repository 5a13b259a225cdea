"""The range check that every constructor applies to its numeric parameters."""

import math
from numbers import Real

__all__ = ["ParameterError", "positive"]


class ParameterError(ValueError):
    """A parameter out of its range; ``name`` names the parameter."""

    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


def positive(name, value, zero_ok=False):
    """``value`` if it is a finite number above zero (or zero, with ``zero_ok``),
    else a :class:`ParameterError` naming ``name``.  NaN and non-numbers fail."""
    ok = isinstance(value, Real) and (0 <= value if zero_ok else 0 < value)
    if not (ok and value < math.inf):  # NaN fails both comparisons
        sign = "nonnegative" if zero_ok else "positive"
        raise ParameterError(name, f"{name} must be {sign} and finite, got {value}")
    return value
