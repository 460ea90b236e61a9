"""Anchors from outside the package's set-partition formulas.

Zograf's recursion for kappa_1 volumes: v_n is the integral of
kappa_1^(n-3) over the genus-zero moduli space with n markings (Zograf
1993; Kaufmann, Manin and Zagier, CMP 181, 1996):

    v_3 = 1,
    v_n = 1/2 sum_{i=1}^{n-3} i(n-i-2)/(n-1) C(n-4,i-1) C(n,i+1) v_{i+2} v_{n-i}.

The Arbarello-Cornalba recursion for every top kappa integral (J. Algebraic
Geom. 5, 1996): forgetting the last of n + 1 markings pulls kappa_a back to
kappa_a - psi_{n+1}^a and pushes psi_{n+1}^s forward to kappa_{s-1}, with
kappa_0 = n - 2 on the n-pointed space.  So for A of sum n - 2, the integral
of kappa_A over n + 1 markings sums, over the nonempty labelled S in A of
sum s, the integral of kappa_{A - S} kappa_{s-1} over n markings, from the
one point of the 3-pointed space.

Both are computed here with the standard library only and share no code
with ``ring``, ``oracle`` or ``partitions``.  The second's tops also feed
``bruteforce.naive_expansion``, a dense pairing solve, which anchors whole
expansions by every method.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from kapparing import partitions, ring
from kapparing.oracle import integrate_kappa_top, pair_kappa_stratum, solve_coeffs_by_pairing
from kapparing.partitions import index_multisets
from kapparing.ring import METHODS, kappa_product, socle_coeff

from bruteforce import naive_expansion, naive_multinomial, naive_multisets


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


def test_socle_of_a_hundred_kappa_1s():
    # the block DP's values stay at the size of the answer, which keeps a
    # hundred equal factors cheap
    assert socle_coeff((1,) * 100) == zograf_volumes(103)[103]


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


@functools.lru_cache(maxsize=None)
def arbarello_cornalba_top(a):
    """The integral of kappa_a over the genus-zero space with sum(a) + 3
    markings, for a sorted tuple a: the labelled subsets S of a taken by how
    many copies of each value they hold."""
    if not a:
        return 1
    values = sorted(set(a))
    counts = [a.count(v) for v in values]
    total = 0
    for takes in itertools.product(*(range(c + 1) for c in counts)):
        s = sum(v * t for v, t in zip(values, takes))
        if not s:
            continue
        ways = math.prod(math.comb(c, t) for c, t in zip(counts, takes))
        rest = tuple(v for v, c, t in zip(values, counts, takes) for _ in range(c - t))
        if s == 1:
            # kappa_0 is n - 2 = sum(a) on the space with n = sum(a) + 2 markings
            total += ways * sum(a) * arbarello_cornalba_top(rest)
        else:
            total += ways * arbarello_cornalba_top(tuple(sorted(rest + (s - 1,))))
    return total


ANCHOR_GRID = list(index_multisets(7, max_sum=12))
ANCHOR_LARGE = [(1,) * 15, (1, 2, 3, 4, 5), (1, 1, 2, 2, 3, 3)]


def anchor_mismatches(cases):
    """The cases whose socle or oracle integral differs from the anchor, as
    (a, which) pairs."""
    out = []
    for a in cases:
        want = arbarello_cornalba_top(a)
        if socle_coeff(a) != want:
            out.append((a, "socle"))
        if integrate_kappa_top(a, sum(a) + 3) != want:
            out.append((a, "integral"))
    return out


def test_arbarello_cornalba_first_values():
    # kappa_1^2 and kappa_2 on five points; on six, kappa_1 kappa_2 is
    # 3 * top(2) + top(1, 1) + top(2) = 9 by the three choices of S
    cases = [(), (1,), (1, 1), (2,), (1, 1, 1), (1, 2), (3,)]
    assert [arbarello_cornalba_top(a) for a in cases] == [1, 1, 5, 1, 61, 9, 1]
    for k in range(1, 12):
        assert arbarello_cornalba_top((1,) * k) == V[k + 3]


def test_every_top_integral_on_the_grid_is_the_arbarello_cornalba_value():
    assert len(ANCHOR_GRID) == 245
    assert anchor_mismatches(ANCHOR_GRID) == []


@pytest.mark.parametrize("a", ANCHOR_LARGE)
def test_large_top_integrals_are_the_arbarello_cornalba_value(a):
    assert anchor_mismatches([a]) == []


def test_a_fault_in_the_shared_shifted_row_fails_the_anchor():
    # the anchor reads no package table, so +1 in one shifted row must show;
    # the oracle's integral walks the orbits, not the row, and still agrees
    ring.clear_coeff_caches()
    try:
        row = list(partitions._SHIFTED_SUMS[(1, 1, 2)])
        row[1] += 1
        partitions._SHIFTED_SUMS[(1, 1, 2)] = tuple(row)
        found = anchor_mismatches(ANCHOR_GRID)
        products = {method: len(anchored_product_mismatches(method)) for method in METHODS}
    finally:
        ring.clear_coeff_caches()
    assert ((1, 1, 2), "socle") in found
    assert {which for _, which in found} == {"socle"}
    # every method reads the socle, so every method's products fail the pairing solve
    assert products == {"recursive": 9, "ck": 9, "closed": 9}


# Whole expansions against the dense pairing solve, whose stratum pairings
# enumerate the assignments and read their tops from the recursion above
ANCHORED_PRODUCTS = [(a, d) for a in index_multisets(4, max_sum=6) for d in range(2, 5)]


@functools.lru_cache(maxsize=None)
def anchored_expansion(a, n):
    return naive_expansion(a, n, arbarello_cornalba_top)


def anchored_product_mismatches(method):
    """The (a, d) of ANCHORED_PRODUCTS whose kappa_product by ``method``
    differs from the anchored pairing solve."""
    return [
        (a, d)
        for a, d in ANCHORED_PRODUCTS
        if kappa_product(a, 0, sum(a) + d + 2, method=method).terms != anchored_expansion(a, sum(a) + d + 2)
    ]


@pytest.mark.parametrize("method", METHODS)
def test_products_are_the_pairing_solve_on_the_arbarello_cornalba_tops(method):
    assert anchored_product_mismatches(method) == []


def test_a_fault_in_the_correction_fails_the_anchored_products_of_recursive_and_ck():
    # recursive and ck's split weights read the correction; closed's chain rows do not
    ring.clear_coeff_caches()
    try:
        ring._CORRECTION[(2, 3)] += 1
        found = {method: anchored_product_mismatches(method) for method in METHODS}
    finally:
        ring.clear_coeff_caches()
    assert (len(found["recursive"]), len(found["ck"]), found["closed"]) == (18, 18, [])
