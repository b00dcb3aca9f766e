"""Exception types shared across the package, and the two tests every scalar parameter
passes, in the library and in a JSON config alike: :func:`check_integer` and
:func:`check_real`.  Both hold a value to the double range: a Python ``int`` beyond
``sys.float_info.max`` (about 1.8e308), which ``float()`` may not convert, fails."""

import sys

import numpy as np

_REALS = (int, float, np.integer, np.floating)  # the types check_real takes, bool aside
_DOUBLE_MAX = sys.float_info.max


class DpAttnError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(DpAttnError):
    """Matrix input is malformed: non-square, empty, or non-finite."""


class NotPsd(DpAttnError):
    """An eigenvalue falls below the allowed negative tolerance."""


class SingularMatrix(DpAttnError):
    """Positive definiteness is required but the matrix is (numerically) singular."""


class DimMismatch(DpAttnError):
    """Operands have incompatible dimensions."""


class ParamRange(DpAttnError):
    """A parameter lies outside its admissible range."""


class Overflow(DpAttnError):
    """A transcendental evaluation exceeded the double-precision range."""


class Infeasible(DpAttnError):
    """The requested construction cannot be realized with the given parameters."""


def check_integer(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise :class:`ParamRange` unless ``value`` is an integer of at least ``minimum`` and,
    unless ``maximum`` is ``None``, at most ``maximum``: an ``int`` in the double range or a
    numpy integer, but not a ``bool``, which is an ``int`` too.  A value that fails only the
    double range gets a message naming that range."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum
            or maximum is not None and value > maximum):
        bounds = f"of at least {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ParamRange(f"{name} must be an integer {bounds}, got {value!r}")
    if isinstance(value, int) and value > _DOUBLE_MAX:
        raise ParamRange(f"{name} must be an integer in the double range (at most "
                         f"{_DOUBLE_MAX!r}), got {value!r}")


def check_real(name: str, value, low: float, high: float, closed: str) -> None:
    """Raise :class:`ParamRange` unless ``value`` is a real in the interval from ``low`` to
    ``high`` with the brackets ``closed`` (``"(]"`` is ``low < value <= high``): an ``int``,
    ``float``, numpy integer or numpy float, but not a ``bool``.  ``nan`` fails every
    comparison, an infinite end is open and a Python ``int`` must lie in the double range,
    so a real that passes is a finite double."""
    if (isinstance(value, bool) or not isinstance(value, _REALS)
            or not (low <= value if closed[0] == "[" else low < value)
            or not (value <= high if closed[1] == "]" else value < high)
            or isinstance(value, int) and abs(value) > _DOUBLE_MAX):
        raise ParamRange(f"{name} must be a finite real in {closed[0]}{low}, {high}{closed[1]}, "
                         f"got {value!r}")
