"""Exception types shared across the package, and the field type check
both config dataclasses run first.

The split mirrors how failures are reported: contract violations point at a
caller bug, config errors at a bad setting or file, schema errors at a bad
corpus record, and numeric errors at a non-finite intermediate value.
"""

import math
import numbers
from dataclasses import fields


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
    """Whether ``value`` has an integer type; a bool or a whole float has not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_finite_fields(config):
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``config`` that holds ``nan`` or ``inf`` in a ``float`` field, or a
    non-integer in an ``int`` field or a ``tuple[int, ...]`` entry."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if f.type == "int" and not is_integer(value):
            raise ConfigError(f"{f.name} must be an integer")
        if f.type == "tuple[int, ...]" and not all(map(is_integer, value)):
            raise ConfigError(f"{f.name} must hold integers, got {tuple(value)!r}")
