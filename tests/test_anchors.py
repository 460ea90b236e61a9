"""Anchors from outside the package: Zograf's recursion for kappa_1 volumes.

v_n is the integral of kappa_1^(n-3) over the genus-zero moduli space with n
markings (Zograf 1993; Kaufmann, Manin and Zagier, CMP 181, 1996):

    v_3 = 1,
    v_n = 1/2 sum_{i=1}^{n-3} i(n-i-2)/(n-1) C(n-4,i-1) C(n,i+1) v_{i+2} v_{n-i}.

It is computed here with the standard library only and shares no code with
``ring`` or ``oracle``.
"""

import math
from fractions import Fraction

import pytest

from kapparing.oracle import integrate_kappa_top, pair_kappa_stratum, solve_coeffs_by_pairing
from kapparing.ring import socle_coeff

from bruteforce import naive_multinomial, naive_multisets


def zograf_volumes(n_max):
    v = {3: Fraction(1)}
    for n in range(4, n_max + 1):
        total = Fraction(0)
        for i in range(1, n - 2):
            total += (
                Fraction(i * (n - i - 2), n - 1)
                * math.comb(n - 4, i - 1)
                * math.comb(n, i + 1)
                * v[i + 2]
                * v[n - i]
            )
        v[n] = total / 2
    return v


V = zograf_volumes(39)
KS = range(1, 9)
# the oracle sums over multiset partitions, 627 of them for kappa_1^20
# where the set partitions number Bell(20), about 5 * 10**13
TOP_KS = range(1, 21)
SOLVE_KS = range(1, 15)


def test_zograf_recursion_first_values():
    assert [V[n] for n in range(3, 10)] == [1, 1, 5, 61, 1379, 49946, 2648967]


@pytest.mark.parametrize("k", TOP_KS)
def test_top_kappa_1_power_is_the_zograf_volume(k):
    assert socle_coeff((1,) * k) == V[k + 3]
    assert integrate_kappa_top((1,) * k, k + 3) == V[k + 3]


def test_socle_of_kappa_1_powers_past_enumeration():
    # Bell(36) set partitions are far out of reach; the ring's block DP is not
    for k in range(37):
        assert socle_coeff((1,) * k) == V[k + 3]


@pytest.mark.parametrize("k", SOLVE_KS)
def test_solve_recovers_the_zograf_volume(k):
    assert solve_coeffs_by_pairing((1,) * k, k + 3) == {(k,): V[k + 3]}


PAIRING_CASES = [(k, dims) for k in KS for length in range(1, 5) for dims in naive_multisets(k, length)]


@pytest.mark.parametrize("k, dims", PAIRING_CASES)
def test_kappa_1_power_pairing_is_a_product_of_volumes(k, dims):
    # the k labelled kappa_1 factors split over the components in
    # multinomial(dims) ways; a component of dimension d then carries v_{d+3}
    expected = naive_multinomial(dims)
    for d in dims:
        expected *= V[d + 3]
    assert pair_kappa_stratum((1,) * k, dims) == expected
