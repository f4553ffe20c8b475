"""Octonion multiplication algebras, Clifford minimal ideals, and finite causal fermion systems."""

import numbers
import sys

__version__ = "0.1.0"


def require_finite(obj, *names) -> None:
    """ValueError unless each named attribute of `obj` is a real number within the float range (a bool is not one)."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
