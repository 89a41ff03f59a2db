"""Exception types, the number checks, and the tolerance shared across
the package.

Validation failures (bad arguments, malformed configs, unparseable kernel
files) exit the CLI with code 1; numerical failures (indefinite covariance,
mixed inner products negative beyond tolerance) exit with code 2.
"""

import math
import numbers

# The one floating-point tolerance: a quantity that is zero in exact
# arithmetic counts as zero while it is at most TOLERANCE times the scale
# its guard states (rho(0), the largest entry, or the size of the terms).
TOLERANCE = 1e-10


class ValidationError(ValueError):
    """Input violates a documented precondition or schema."""


class UnsupportedRepresentationError(ValidationError):
    """Operation not available for this kernel representation."""


class NumericalError(ArithmeticError):
    """A numerical guard was tripped (not a usage error)."""


def checked_integer(value, name: str, minimum: int,
                    limit: int | None = None) -> int:
    """value as an int in [minimum, limit), else a ValidationError naming
    the field; integral floats (JSON 1e5) are accepted, booleans are not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum or (limit is not None and value >= limit):
        upper = "" if limit is None else f" and below {limit}"
        raise ValidationError(
            f"{name} must be >= {minimum}{upper}, got {value}")
    return value


def checked_real(value, name: str) -> float:
    """value as a finite float, else a ValidationError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def check_known_keys(data: dict, known, where: str) -> None:
    """Raise a ValidationError, at where, for keys of data outside known."""
    unknown = set(data) - set(known)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")


def check_even_power(q: int, name: str = "power") -> None:
    """Raise a ValidationError, naming the field, unless the power q is
    even and >= 2."""
    if q % 2 != 0 or q < 2:
        raise ValidationError(f"{name} must be even and >= 2, got {q}")
