"""Exact arithmetic in Z/n: canonical representatives, units, Galois orbits.

Residues are plain integers kept in the canonical range [0, n-1]; every
bracket expression [x] elsewhere in the package maps to :func:`reduce_mod`.
Moduli are plain machine integers (all sweeps stay far below word range).
"""

from __future__ import annotations

from math import gcd


class NonUnitError(ValueError):
    """Raised when a modular inverse is requested for a non-unit."""


class InternalInconsistencyError(RuntimeError):
    """A claim the package checks on itself failed: a bug, never bad input."""


def check_modulus(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
    return n


def reduce_mod(x: int, n: int) -> int:
    """Canonical representative of x mod n, in [0, n-1]."""
    check_modulus(n)
    return x % n


def is_unit(x: int, n: int) -> bool:
    """True iff gcd(x, n) = 1."""
    check_modulus(n)
    return gcd(x, n) == 1


def units(n: int) -> list[int]:
    """All residues coprime to n, ascending; length equals phi(n)."""
    check_modulus(n)
    return [x for x in range(1, n) if gcd(x, n) == 1]


def euler_phi(n: int) -> int:
    """phi(n) via prime factorization (independent of :func:`units`)."""
    if n == 1:
        return 1
    check_modulus(n)
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def inverse_mod(x: int, n: int) -> int:
    """Inverse of x in (Z/n)*; raises NonUnitError if gcd(x, n) != 1."""
    check_modulus(n)
    x = x % n
    if gcd(x, n) != 1:
        raise NonUnitError(f"{x} is not a unit mod {n}")
    return pow(x, -1, n)


def galois_orbit(j: int, n: int) -> set[int]:
    """The set { [h*j] : h a unit mod n }.

    The character index j = 0 is rejected: its orbit is trivial and no
    downstream consumer is licensed to use it.
    """
    check_modulus(n)
    j = j % n
    if j == 0:
        raise ValueError("galois_orbit requires j != 0 mod n")
    return {(h * j) % n for h in units(n)}
