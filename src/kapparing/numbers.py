"""Exact integer and rational arithmetic used by every formula.

All values are Python big integers or ``fractions.Fraction``; nothing here
touches floating point.  Factorials up to 256! come from a fixed table built
at import; larger ones are computed on demand.  Rationals serialize as
``"num/den"`` strings and big integers as decimal strings.

The public helpers take their integer arguments by the package's one rule,
``partitions.natural``: an ``int``, never a ``bool``, within its bounds, or
a ``ValueError``.  ``factorial``, ``binomial`` and ``multinomial`` sit in
the hot loops and check only what their arithmetic needs.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Union

from .partitions import natural

# 0! .. 256!, built once at import.  Larger factorials come from
# math.factorial and are not kept, so one huge request cannot pin them in
# memory for the life of the process.
_FACT: list[int] = list(itertools.accumulate(range(1, 257), operator.mul, initial=1))


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial of a negative number")
    return _FACT[n] if n < len(_FACT) else math.factorial(n)


def binomial(m: int, j: int) -> int:
    """Binomial coefficient, extended to negative upper argument.

    For j < 0 the value is 0; for m >= 0 it is the usual C(m, j) (0 when
    j > m); for m < 0 it is the falling factorial m(m-1)...(m-j+1) divided by
    j!, so binomial(-1, 0) == 1 and binomial(-1, 1) == -1.  That is upper
    negation, (-1)**j * C(j - m - 1, j).
    """
    if j < 0:
        return 0
    if m < 0:
        return (-1) ** j * math.comb(j - m - 1, j)
    return math.comb(m, j)


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
    result = 1 if isinstance(x, int) else Fraction(1)
    for i in range(natural(n, "n")):
        result = result * (x - i)
    return result


def alt_binomial_partial_sum(m: int, lo: int, hi: int) -> int:
    """sum((-1)**k * binomial(m, k - lo) for k in lo..hi); 0 when hi < lo.

    It sums the z**0 .. z**hi coefficients of (-z)**lo * (1 - z)**m: the
    closed form's cutoff, which ``ring`` takes as a truncated product over
    blocks instead of calling this.  It telescopes, by Pascal's rule, to
    (-1)**hi * binomial(m - 1, hi - lo), so its cost does not grow with hi.
    """
    m, lo, hi = natural(m, "m", None), natural(lo, "lo"), natural(hi, "hi", None)
    if hi < lo:
        return 0
    return (-1) ** hi * binomial(m - 1, hi - lo)


def format_rational(x: Union[int, Fraction]) -> str:
    """Serialize an int or a Fraction as "num/den" with a positive denominator,
    e.g. "-5/1"; a bool, a float or anything else is a ValueError."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return f"{x.numerator}/{x.denominator}"
    raise ValueError(f"format_rational: must be an int or a Fraction, got {x!r}")
