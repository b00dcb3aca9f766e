"""Exception types shared across the package, and its one integer test."""

import numpy as np


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


def check_integer(name: str, value, minimum: int) -> None:
    """Raise :class:`ParamRange` unless ``value`` is an integer of at least ``minimum``: an
    ``int`` or numpy integer, but not a ``bool``, which is an ``int`` too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParamRange(f"{name} must be an integer of at least {minimum}, got {value!r}")
