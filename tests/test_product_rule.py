"""The product rule as a property of the expansion.

kappa_product(A, g, n) = sum_mu c_mu(A) kappa_mu is an identity in the ring,
so multiplying both sides by kappa_b must commute with reducing to the basis:

    kappa_product(A + {b}, g, n) == sum_mu c_mu(A) * kappa_product(mu + {b}, g, n).

Every expansion coefficient is built from the socle and correction
coefficients, so a wrong value in either family breaks this identity for
some A.  The closed form with the rejected ``single_binomial`` cutoff, which
only the reconcile sweep computes, breaks it too, so the check tells the two
truncation conventions apart without the recursive method.
"""

from hypothesis import given, settings, strategies as st

from kapparing.ring import METHODS, KappaPoly, kappa_product, reduce_to_basis

# A with len(A) <= 3 and sum(A) <= 5
small_a = st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(lambda a: sum(a) <= 5)
genera = st.sampled_from((0, 1))
markings = st.integers(0, 13)


@settings(max_examples=150)
@given(small_a, st.sampled_from((1, 2, 3)), genera, markings, st.sampled_from(METHODS))
def test_multiplying_by_a_kappa_class_commutes_with_the_expansion(a, b, genus, n, method):
    expanded = KappaPoly.zero()
    for mu, coeff in kappa_product(a, genus, n, method=method).terms.items():
        expanded = expanded + coeff * kappa_product(mu + (b,), genus, n, method=method)
    assert kappa_product(a + [b], genus, n, method=method) == expanded


small_poly = st.dictionaries(
    small_a.map(tuple),
    st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool),
    max_size=3,
).map(KappaPoly)


@settings(max_examples=60)
@given(small_poly, small_poly, st.fractions(max_denominator=5), genera, markings)
def test_reduce_to_basis_is_linear(p, q, scalar, genus, n):
    combined = reduce_to_basis(p + scalar * q, genus, n)
    assert combined == reduce_to_basis(p, genus, n) + scalar * reduce_to_basis(q, genus, n)


@settings(max_examples=60)
@given(small_a, genera, markings)
def test_reduce_to_basis_fixes_every_expansion(a, genus, n):
    expansion = kappa_product(a, genus, n)
    assert reduce_to_basis(expansion, genus, n) == expansion
