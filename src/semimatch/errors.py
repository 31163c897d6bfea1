"""Exception types shared across the package, the field type check both
config dataclasses run first, and the range rules of every config field and
argument (:class:`Rule`, checked by :func:`require`).

The split mirrors how failures are reported: contract violations point at a
caller bug, config errors at a bad setting or file, schema errors at a bad
corpus record, and numeric errors at a non-finite intermediate value.
"""

import math
import numbers
from dataclasses import fields

import numpy as np


class SemimatchError(Exception):
    """Base class for all package-specific errors."""


class ContractError(SemimatchError):
    """A precondition on operation inputs was violated."""


class ConfigError(SemimatchError):
    """A configuration value or file is invalid."""


class SchemaError(SemimatchError):
    """A corpus record violates the corpus schema."""


class NumericError(SemimatchError):
    """A numeric computation produced a non-finite intermediate."""


def is_integer(value) -> bool:
    """Whether ``value`` has an integer type; a bool or a whole float has not.
    An ``int`` is answered first: the ``Integral`` check is an ABC lookup."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


class Rule:
    """The range rules, each a ``(test, what a value must do)`` pair. Each test
    states what a value must satisfy, so NaN fails every one."""

    POSITIVE = (lambda v: v > 0, "be positive")
    COUNT = (lambda v: v >= 1, "be positive")   # for counts: 0.5 is out of range too
    NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
    INTEGER = (is_integer, "be an integer")
    UNIT = (lambda v: 0 <= v <= 1, "lie in [0, 1]")
    OPEN_UNIT = (lambda v: 0 < v <= 1, "lie in (0, 1]")


def require(name: str, rule, *values):
    """Raise ``ConfigError(f"{name} must {what}")`` unless each of ``values`` passes ``rule``."""
    ok, must = rule
    for value in values:
        if not ok(value):
            raise ConfigError(f"{name} must {must}")


def fits(*shape: int) -> bool:
    """Whether ``shape`` 8-byte entries fit one numpy array (under 2**63 bytes)."""
    return 8 * math.prod(shape) < 2 ** 63


def require_fits(subject: str, what: str, *shape: int):
    """Raise :class:`ConfigError`, naming ``subject``, unless ``shape`` :func:`fits`."""
    if not fits(*shape):
        raise ConfigError(f"{subject} needs {what} of {' x '.join(map(str, shape))} entries, "
                          "more than one numpy array can hold")


def require_finite_fields(config):
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``config`` that holds anything but a finite real number (a bool is not
    one) in a ``float`` field, a non-integer in an ``int`` field or a
    ``tuple[int, ...]`` entry, or anything but a bool in a ``bool`` field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise ConfigError(f"{f.name} must be a boolean, got {value!r}")
        if f.type == "float" and not (isinstance(value, numbers.Real)
                                      and not isinstance(value, bool) and math.isfinite(value)):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "int":
            require(f.name, Rule.INTEGER, value)
        if f.type == "tuple[int, ...]" and not all(map(is_integer, value)):
            raise ConfigError(f"{f.name} must hold integers, got {tuple(value)!r}")
