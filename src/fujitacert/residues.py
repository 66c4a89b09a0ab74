"""Exact arithmetic in Z/n: moduli and units.

Residues are plain integers kept in the canonical range [0, n-1]; a bracket
expression [x] elsewhere in the package is Python's x % n with n >= 2, which
lands in that range.  Moduli are plain machine integers (all sweeps stay far
below word range).  The package's shared error types live here too.
"""

from __future__ import annotations

from math import gcd


class NonUnitError(ValueError):
    """A residue that must be a unit mod n is not."""


class InternalInconsistencyError(RuntimeError):
    """A claim the package checks on itself failed: a bug, never bad input."""


def check_modulus(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
    return n


def is_unit(x: int, n: int) -> bool:
    """True iff gcd(x, n) = 1."""
    check_modulus(n)
    return gcd(x, n) == 1


def units(n: int) -> list[int]:
    """All residues coprime to n, ascending; length equals phi(n)."""
    check_modulus(n)
    return [x for x in range(1, n) if gcd(x, n) == 1]

