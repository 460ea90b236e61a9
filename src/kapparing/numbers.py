"""Exact integer and rational arithmetic used by every formula.

All values are Python big integers or ``fractions.Fraction``; nothing here
touches floating point.  Rationals serialize as ``"num/den"`` strings and big
integers as decimal strings.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Union

# Factorial memo table, grown lazily under a lock; reads are lock-free.
DEFAULT_FACTORIAL_BOUND = 256
_FACT: list[int] = [1]
_FACT_LOCK = threading.Lock()


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    if n >= len(_FACT):
        with _FACT_LOCK:
            while len(_FACT) <= n:
                _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def _warm_factorials(bound: int = DEFAULT_FACTORIAL_BOUND) -> None:
    factorial(bound)


_warm_factorials()


def binomial(m: int, j: int) -> int:
    """Binomial coefficient, extended to negative upper argument.

    For j < 0 the value is 0; for m >= 0 it is the usual C(m, j) (0 when
    j > m); for m < 0 it is the falling factorial m(m-1)...(m-j+1) divided by
    j!, so binomial(-1, 0) == 1 and binomial(-1, 1) == -1.
    """
    if j < 0:
        return 0
    if m >= 0:
        if j > m:
            return 0
        return factorial(m) // (factorial(j) * factorial(m - j))
    num = 1
    for i in range(j):
        num *= m - i
    return num // factorial(j)


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part!); 1 for the empty collection."""
    parts = list(parts)
    for part in parts:
        if part < 0:
            raise ValueError("multinomial parts must be nonnegative")
    result = factorial(sum(parts))
    for part in parts:
        result //= factorial(part)
    return result


def falling_factorial(x: Union[int, Fraction], n: int) -> Union[int, Fraction]:
    """x(x-1)...(x-n+1); 1 when n == 0."""
    if n < 0:
        raise ValueError("falling_factorial length must be nonnegative")
    result = 1 if isinstance(x, int) else Fraction(1)
    for i in range(n):
        result = result * (x - i)
    return result


def alt_binomial_partial_sum(m: int, lo: int, hi: int) -> int:
    """sum((-1)**k * binomial(m, k - lo) for k in lo..hi); 0 when hi < lo.

    This truncated alternating sum is the single source of truth for cutting
    an expansion off at a given number of parts; every closed-form variant of
    that cutoff is compared against it.
    """
    if lo < 0:
        raise ValueError("lo must be nonnegative")
    total = 0
    for k in range(lo, hi + 1):
        total += (-1) ** k * binomial(m, k - lo)
    return total


def format_rational(x: Union[int, Fraction]) -> str:
    """Serialize as "num/den" with a positive denominator, e.g. "-5/1"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of format_rational; also accepts a bare integer string."""
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))
