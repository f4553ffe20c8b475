"""Octonion multiplication algebras, Clifford minimal ideals, and finite causal fermion systems."""

import math
import numbers

__version__ = "0.1.0"


def require_finite(obj, *names) -> None:
    """ValueError unless each named attribute of `obj` is a finite real number (a bool is not one)."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
