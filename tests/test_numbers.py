import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kapparing import numbers
from kapparing.numbers import (
    alt_binomial_partial_sum,
    binomial,
    factorial,
    falling_factorial,
    format_rational,
    multinomial,
)

from bruteforce import naive_multinomial


def test_factorial_matches_math():
    for n in range(0, 300, 7):
        assert factorial(n) == math.factorial(n)
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorials_past_the_table_are_not_kept():
    assert factorial(5000) == math.factorial(5000)
    assert len(numbers._FACT) == 257


def test_binomial_standard_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0


def test_binomial_negative_upper_argument():
    # (m)_j / j! convention
    assert binomial(-1, 0) == 1
    assert binomial(-1, 1) == -1
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    for m in range(-9, 0):
        for j in range(-2, 14):
            assert binomial(m, j) == _falling_binomial(m, j), (m, j)


def test_pascal_rule():
    for m in range(1, 31):
        for j in range(m + 1):
            assert binomial(m, j) == binomial(m - 1, j - 1) + binomial(m - 1, j)


def test_multinomial_examples():
    assert multinomial((2, 2)) == 6
    assert multinomial((2, 2, 2)) == 90
    assert multinomial(()) == 1
    with pytest.raises(ValueError):
        multinomial((1, -1))


def test_multinomial_of_pair_is_binomial():
    for a in range(13):
        for b in range(13):
            assert multinomial((a, b)) == math.comb(a + b, a)


@given(st.lists(st.integers(0, 6), max_size=5))
def test_multinomial_matches_naive(parts):
    assert multinomial(parts) == naive_multinomial(parts)


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert isinstance(falling_factorial(Fraction(3), 0), Fraction)
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 8))
def test_falling_factorial_binomial_theorem(x, y, n):
    total = sum(
        binomial(n, i) * falling_factorial(x, i) * falling_factorial(y, n - i)
        for i in range(n + 1)
    )
    assert total == falling_factorial(x + y, n)


def test_alt_binomial_partial_sum_examples():
    assert alt_binomial_partial_sum(0, 1, 2) == -1
    assert alt_binomial_partial_sum(1, 1, 2) == 0
    assert alt_binomial_partial_sum(2, 1, 1) == -1
    assert alt_binomial_partial_sum(3, 2, 1) == 0  # hi < lo
    with pytest.raises(ValueError):
        alt_binomial_partial_sum(2, -1, 3)


def test_alt_binomial_full_sum_collapses():
    for m in range(11):
        for lo in range(5):
            value = alt_binomial_partial_sum(m, lo, lo + m)
            if m == 0:
                assert value == (-1) ** lo
            else:
                assert value == 0


def test_alt_binomial_cost_does_not_grow_with_hi():
    # past k = lo + m every term is 0; summed term by term, hi = 10**23 would never finish
    for m in range(6):
        for lo in range(4):
            assert alt_binomial_partial_sum(m, lo, 10**23) == alt_binomial_partial_sum(m, lo, lo + m)
    assert alt_binomial_partial_sum(-2, 1, 3) == -binomial(-2, 0) + binomial(-2, 1) - binomial(-2, 2)
    # for m < 0 no term vanishes: (-1)**k * binomial(-2, k) = k + 1, summed to k = 10**4
    assert alt_binomial_partial_sum(-2, 0, 10**4) == sum(k + 1 for k in range(10**4 + 1)) == math.comb(10**4 + 2, 2)


def _falling_binomial(m, j):
    """m(m-1)...(m-j+1) / j!, for any integer m; 0 for j < 0."""
    if j < 0:
        return 0
    return math.prod(m - i for i in range(j)) // math.factorial(j)


def test_alt_binomial_partial_sum_is_the_term_by_term_sum():
    for m in range(-9, 10):
        for lo in range(5):
            for hi in range(-1, 15):
                want = sum((-1) ** k * _falling_binomial(m, k - lo) for k in range(lo, hi + 1))
                assert alt_binomial_partial_sum(m, lo, hi) == want, (m, lo, hi)


def test_alt_binomial_equals_shifted_single_binomial():
    # The truncated sum telescopes to (-1)**hi * binomial(m - 1, hi - lo).
    for m in range(8):
        for lo in range(4):
            for hi in range(lo, lo + 9):
                assert alt_binomial_partial_sum(m, lo, hi) == (-1) ** hi * binomial(m - 1, hi - lo)


def test_rational_formatting():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-5, 1)) == "-5/1"
    assert format_rational(Fraction(2, -4)) == "-1/2"
    assert format_rational(-5) == "-5/1"
    assert format_rational(0) == "0/1"
    assert format_rational(10**30) == f"{10**30}/1"


@pytest.mark.parametrize("value", [0.1, 2.0, "1/2", "3", True, False, None], ids=repr)
def test_rational_formatting_takes_only_an_int_or_a_fraction(value):
    # a float would print its binary expansion (0.1 as 3602879701896397/36028797018963968)
    # and a bool would read as 1/1 or 0/1 in an exact report
    with pytest.raises(ValueError, match=r"^format_rational: must be an int or a Fraction, got "):
        format_rational(value)


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_rational_round_trip(num, den):
    x = Fraction(num, den)
    assert format_rational(x) == f"{x.numerator}/{x.denominator}"
