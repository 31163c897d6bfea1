"""Exception types shared across the package, and the non-finite field
check both config dataclasses run first.

The split mirrors how failures are reported: contract violations point at a
caller bug, config errors at a bad setting or file, schema errors at a bad
corpus record, and numeric errors at a non-finite intermediate value.
"""

import math
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


def require_finite_fields(config):
    """Raise :class:`ConfigError` naming the first ``float`` field of the
    dataclass ``config`` that holds ``nan`` or ``inf``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
