"""Exact integer kernels: gcd folds, binomials, figurate number generators.

All public results are kept inside the signed 64-bit range.  Python
integers never wrap, so intermediates are exact no matter their size; a
result (or input) outside the 64-bit window raises ``OverflowError``
instead of silently leaving the supported width.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def checked_int64(value: int, context: str = "result") -> int:
    """Return ``value`` unchanged if it fits in a signed 64-bit integer."""
    if value > INT64_MAX or value < INT64_MIN:
        raise OverflowError(f"{context} exceeds the 64-bit integer range: {value}")
    return value


def require_positive(value: int, name: str = "value") -> int:
    """Validate a positive 64-bit integer argument.  A plain int in range
    returns at once; anything else (an int subclass, a bool, another type,
    a value out of range) takes the checks that raise or pass it."""
    if type(value) is int and 0 < value <= INT64_MAX:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return checked_int64(value, name)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(0, b) == b so folds stay total."""
    return math.gcd(a, b)


def gcd_list(xs: Iterable[int]) -> int:
    """gcd of a non-empty sequence, non-negative like ``math.gcd``."""
    seq = tuple(xs)
    if not seq:
        raise ValueError("empty sequence")
    return math.gcd(*seq)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n.

    Evaluated multiply-then-divide one factor at a time so intermediates
    stay integral; the final value must fit in 64 bits.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires n, k >= 0, got ({n}, {k})")
    if k > n:
        return 0
    value = math.comb(n, k)
    return value if value <= INT64_MAX else checked_int64(value, f"binomial({n}, {k})")


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2 == C(n+1, 2)."""
    require_positive(n, "n")
    value = n * (n + 1) // 2
    return value if value <= INT64_MAX else checked_int64(value, f"triangular({n})")


def tetrahedral(n: int) -> int:
    """The n-th tetrahedral number C(n+2, 3)."""
    require_positive(n, "n")
    value = n * (n + 1) * (n + 2) // 6
    return value if value <= INT64_MAX else checked_int64(value, f"tetrahedral({n})")


def validated_generators(entries: Sequence[int], name: str = "generators") -> tuple[int, ...]:
    """Validate a raw generator sequence: non-empty, each entry a positive
    64-bit integer.  Order is preserved (it matters for telescopic analysis).
    Only an entry that is not a plain int in range goes through
    ``require_positive``, which passes an int subclass or raises."""
    seq = tuple(entries)
    if not seq:
        raise ValueError(f"{name} must be non-empty")
    for x in seq:
        if type(x) is not int or not 0 < x <= INT64_MAX:
            require_positive(x, f"{name} entry")
    return seq
