"""The one integer rule at the library boundary.

Every public entry point takes its integer arguments through
``partitions.natural``: an int, never a bool, within its bounds.  Each case
below must be a ValueError whose message starts with the argument's name,
raised before any arithmetic: a float, a bool or an out-of-range count must
never read as a nearby integer, give a vacuous pass, or die with another
exception.
"""

import pytest

from kapparing.identities import check_identity, tree_sum_oracle
from kapparing.numbers import alt_binomial_partial_sum, falling_factorial
from kapparing.oracle import (
    dimension_sequences,
    integer_partitions,
    integrate_kappa_top,
    integrate_psi_pushforward,
    pairing_system,
    psi_integral,
    solve_coeffs_by_pairing,
)
from kapparing.partitions import (
    canonical_partition,
    index_multisets,
    multiset,
    natural,
    set_partitions,
    stirling2,
)
from kapparing.ring import KappaPoly, basis_coeff, kappa_product, reduce_to_basis, split_weight

# (id, call, the argument the message must name)
CASES = [
    ("kappa_product float genus", lambda: kappa_product((1,), 0.5, 5), "genus"),
    ("kappa_product bool genus and markings", lambda: kappa_product((1,), True, True), "genus"),
    ("kappa_product float markings", lambda: kappa_product((1,), 0, 4.0), "markings"),
    ("reduce_to_basis of zero, float genus", lambda: reduce_to_basis(KappaPoly.zero(), 0.5, 5), "genus"),
    ("basis_coeff float d", lambda: basis_coeff(((0,),), (1,), 1.5), "d"),
    ("basis_coeff float d, two blocks", lambda: basis_coeff(((0,), (1,)), (1, 1), 2.0), "d"),
    ("split_weight float k", lambda: split_weight((1, 1), 1.0), "k"),
    ("set_partitions float k", lambda: set_partitions(2.0), "k"),
    ("index_multisets negative max_len", lambda: index_multisets(-1, max_sum=2), "max_len"),
    ("stirling2 float n", lambda: stirling2(2.5, 1), "n"),
    ("stirling2 float n equal to a cached int", lambda: (stirling2(2, 1), stirling2(2.0, 1)), "n"),
    ("multiset bool entry", lambda: multiset((1, True)), "multiset entries"),
    ("canonical_partition float index", lambda: canonical_partition([[0], [1.0]]), "set partition indices"),
    ("falling_factorial float n", lambda: falling_factorial(3, 1.0), "n"),
    ("alt_binomial_partial_sum float hi", lambda: alt_binomial_partial_sum(1, 0, 7.5), "hi"),
    ("alt_binomial_partial_sum float m", lambda: alt_binomial_partial_sum(0.5, 0, 2), "m"),
    ("psi_integral float exponents", lambda: psi_integral((0.5, 0.5, 1.0)), "psi exponents"),
    ("integrate_kappa_top float n", lambda: integrate_kappa_top((1,), 4.0), "n"),
    ("pairing_system float n", lambda: pairing_system((1,), 6.0), "markings"),
    ("solve_coeffs_by_pairing float n", lambda: solve_coeffs_by_pairing((1,), 6.0), "markings"),
    ("integer_partitions float max_parts", lambda: integer_partitions(3, 1.5), "max_parts"),
    ("integer_partitions bool max_parts", lambda: integer_partitions(3, True), "max_parts"),
    ("dimension_sequences negative length", lambda: dimension_sequences(2, -1), "length"),
    ("integrate_psi_pushforward negative n", lambda: integrate_psi_pushforward(((0,),), (1,), -2), "n"),
    ("ff_multinomial float xs", lambda: check_identity("ff_multinomial", xs=[0.1, 0.2], n=2), "xs"),
    ("ff_multinomial float n", lambda: check_identity("ff_multinomial", xs=[1, 2], n=1.0), "n"),
    ("tree_sum empty a", lambda: check_identity("tree_sum", a=[], k=1), "k"),
    ("tree_sum_oracle k past len(a)", lambda: tree_sum_oracle((1, 1), 3), "k"),
    ("binomial_product empty a, k = 0", lambda: check_identity("binomial_product", a=[], k=0), "k"),
    ("binomial_product k past len(a)", lambda: check_identity("binomial_product", a=[1], k=5), "k"),
    ("stirling_alternating float n", lambda: check_identity("stirling_alternating", n=2.0), "n"),
]


@pytest.mark.parametrize("call, name", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_non_integer_or_out_of_range_arguments_raise_value_error(call, name):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value).startswith(f"{name}: must be integers")


def test_natural_accepts_ints_within_the_bounds():
    assert natural(0, "x") == 0
    assert natural(-3, "x", None) == -3
    assert natural(3, "x", 1, 3) == 3
    with pytest.raises(ValueError, match=r"^x: must be integers in 1\.\.3, got 4$"):
        natural(4, "x", 1, 3)
    with pytest.raises(ValueError, match=r"^x: must be integers, got False$"):
        natural(False, "x", None)
