"""Exception types shared across the package, and the tests every parameter passes, each
raising :class:`ParamRange` by name: :func:`check_integer` for integers and
:func:`check_real` for reals, in the library and a JSON config alike, which hold a value to
the double range (a Python ``int`` beyond ``sys.float_info.max``, about 1.8e308, which
``float()`` may not convert, fails), :func:`check_array` for arrays and
:func:`check_instance` for the package's own types (a ``Dataset``, ``DpParams``,
``NeighborPair`` or ``PrivacyLoss``)."""

import sys

import numpy as np

_REALS = (int, float, np.integer, np.floating)  # the types check_real takes, bool aside
_DOUBLE_MAX = sys.float_info.max


class DpAttnError(Exception):
    """Base class for every error raised by this package."""


class NotPsd(DpAttnError):
    """An eigenvalue falls below the allowed negative tolerance."""


class SingularMatrix(DpAttnError):
    """Positive definiteness is required but the matrix is (numerically) singular."""


class ParamRange(DpAttnError):
    """A parameter is malformed (its type or shape) or lies outside its admissible range."""


class Overflow(DpAttnError):
    """A computed value exceeded the double-precision range."""


class Infeasible(DpAttnError):
    """The requested construction cannot be realized with the given parameters."""


def _rejected(name: str, requirement: str, value) -> ParamRange:
    """``name must be <requirement>, got <repr(value)>``, or a stand-in for a too long int."""
    try:
        got = repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        got = f"an int of more than {sys.get_int_max_str_digits()} digits"
    return ParamRange(f"{name} must be {requirement}, got {got}")


def check_integer(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise :class:`ParamRange` unless ``value`` is an integer of at least ``minimum`` and,
    unless ``maximum`` is ``None``, at most ``maximum``: an ``int`` in the double range or a
    numpy integer, but not a ``bool``, which is an ``int`` too.  A value that fails only the
    double range gets a message naming that range."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum
            or maximum is not None and value > maximum):
        bounds = f"of at least {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise _rejected(name, f"an integer {bounds}", value)
    if isinstance(value, int) and value > _DOUBLE_MAX:
        raise _rejected(name, f"an integer in the double range (at most {_DOUBLE_MAX!r})", value)


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
        raise _rejected(name, f"a finite real in {closed[0]}{low}, {high}{closed[1]}", value)


def check_array(name: str, value, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``value``, which must convert to an ``ndim``-d array of
    finite integers or reals: a ragged nesting or a string, bool, complex or object array
    raises :class:`ParamRange` with a message naming its type or shape, never its entries."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged nesting
        got = f"a {type(value).__name__}"
    else:
        if arr.dtype.kind in "iuf" and arr.ndim == ndim:
            copy = arr.astype(float)
            if np.isfinite(copy).all():
                copy.flags.writeable = False
                return copy
            got = "a non-finite entry"
        else:
            got = f"a {arr.dtype.name} array of shape {arr.shape}"
    raise ParamRange(f"{name} must be a {ndim}-d array of finite reals, got {got}")


def check_instance(name: str, value, cls: type) -> None:
    """Raise :class:`ParamRange` unless ``value`` is a ``cls``: the message names the
    parameter, the type it must be and the type it is, never its value."""
    if not isinstance(value, cls):
        raise ParamRange(f"{name} must be a {cls.__name__}, got a {type(value).__name__}")
