import ast
import itertools
import math
import pathlib
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kapparing import oracle, partitions, ring
from kapparing.partitions import canonical_partition, index_multisets, multiset, set_partitions
from kapparing.ring import (
    METHODS,
    KappaPoly,
    PsiPoly,
    basis_coeff,
    clear_coeff_caches,
    correction_coeff,
    faber_expand,
    kappa_monomial,
    kappa_product,
    kappa_to_psi,
    reduce_to_basis,
    snapshot_coeff_caches,
    socle_coeff,
    split_weight,
)

from bruteforce import (
    naive_closed,
    naive_correction,
    naive_multinomial,
    naive_set_partitions,
    naive_socle,
    naive_trunc,
    value_shape,
)


# ---------------------------------------------------------------------------
# polynomials


def test_kappa_poly_drops_zero_coefficients():
    poly = KappaPoly({(1,): Fraction(0), (2,): Fraction(3)})
    assert poly.terms == {(2,): Fraction(3)}
    assert poly.coefficient((1,)) == 0
    assert not KappaPoly.zero()


@pytest.mark.parametrize("cls", [KappaPoly, PsiPoly])
def test_keys_equal_up_to_order_add_their_coefficients(cls):
    assert cls({(1, 2): 1, (2, 1): 1}).terms == {(1, 2): Fraction(2)}
    assert cls({(1, 2): 1, (2, 1): -1}) == cls.zero()
    assert cls({(2, 1): 3, (1, 2): -1, (3,): 0}).terms == {(1, 2): Fraction(2)}


def test_kappa_poly_algebra():
    p = KappaPoly.monomial((1, 2), 2)
    q = KappaPoly.monomial((2, 1), -2) + KappaPoly.monomial((3,))
    assert p + q == KappaPoly.monomial((3,))
    assert 0 * p == KappaPoly.zero()
    assert p - p == KappaPoly.zero()


def test_kappa_poly_json_rows_are_sorted_by_length_then_lex():
    poly = KappaPoly({(3,): 1, (1, 2): 2, (1, 1, 1): 3, (1, 3): 4})
    rows = poly.to_json_rows()
    assert [row["monomial"] for row in rows] == [[1, 1, 1], [1, 2], [1, 3], [3]]
    assert rows[0]["coefficient"] == "3/1"


def test_kappa_and_psi_polys_never_compare_equal():
    assert KappaPoly.monomial((1,)) != PsiPoly({(1,): 1})


def test_kappa_monomial_validation():
    assert kappa_monomial([2, 1]) == (1, 2)
    assert kappa_monomial([]) == ()
    with pytest.raises(ValueError):
        kappa_monomial([0, 1])
    assert kappa_monomial is partitions.kappa_monomial


def orbit_positions(blocks, a):
    """The partition of a's positions in which each block, in turn, takes
    the least unused positions of its values."""
    left, p = list(range(len(a))), []
    for block in blocks:
        taken = []
        for v in block:
            taken.append(next(i for i in left if a[i] == v))
            left.remove(taken[-1])
        p.append(tuple(taken))
    return tuple(p)


def test_kappa_product_calls_basis_coeff_once_per_basis_partition(monkeypatch):
    # the product's per-partition work is reachable through basis_coeff:
    # recursive once per labelled partition, ck and closed once per orbit of
    # the orbit walk, in its order, whose counts make up each shape's
    # labelled count
    calls = []

    def recording(p, a, d, method):
        calls.append((p, a, d, method))
        return basis_coeff(p, a, d, method=method)

    monkeypatch.setattr(ring, "basis_coeff", recording)
    a, d = (1, 1, 1, 2, 2, 3), 3
    labelled = [p for p in set_partitions(len(a)) if len(p) <= d]
    orbits = list(partitions._orbits(a, d))
    assert len(orbits) < len(labelled)
    assert {tuple(sorted(blocks)): count for blocks, count in orbits} == Counter(value_shape(p, a) for p in labelled)
    walk = [orbit_positions(blocks, a) for blocks, _ in orbits]
    for method in METHODS:
        calls.clear()
        kappa_product((2, 3, 1, 2, 1, 1), 0, sum(a) + d + 2, method=method)
        assert calls == [(p, a, d, method) for p in (labelled if method == "recursive" else walk)]
        # basis_coeff trusts what it is handed, which is sound only because
        # every partition the product builds is canonical, and so is a
        for p, trusted_a, _, _ in calls:
            assert type(p) is type(trusted_a) is ring._Trusted
            assert p == canonical_partition(p) and trusted_a == kappa_monomial(trusted_a)


@pytest.mark.parametrize("genus", [0, 1])
@pytest.mark.parametrize("method", METHODS)
def test_kappa_product_hands_basis_coeff_values_it_does_not_validate_again(monkeypatch, method, genus):
    a, d = (1, 1, 2, 2, 3, 3), 3
    inside, counts = [False], Counter()

    def recording(p, a, d, method):
        counts["basis_coeff"] += 1
        inside[0] = True
        try:
            return basis_coeff(p, a, d, method=method)
        finally:
            inside[0] = False

    def counted(name, fn):
        def wrapper(*args):
            counts[name, inside[0]] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ring, "basis_coeff", recording)
    for name in ("canonical_partition", "kappa_monomial"):
        monkeypatch.setattr(ring, name, counted(name, getattr(ring, name)))
    kappa_product(a, genus, sum(a) + d + 2 - 2 * genus, method=method)
    # the product validates a once itself, and basis_coeff never again
    assert counts["canonical_partition", True] == counts["kappa_monomial", True] == 0
    assert counts["kappa_monomial", False] == 1
    labelled = sum(1 for p in set_partitions(len(a)) if len(p) <= d)
    assert counts["basis_coeff"] == (labelled if method == "recursive" else len(list(partitions._orbits(a, d))))


@pytest.mark.parametrize("method", METHODS)
def test_no_trusted_value_leaves_kappa_product(method):
    for a in [(1, 1, 2, 2, 3, 3), (4,), (1,) * 5, (1, 2, 3)]:
        for d in (1, 2, 3):
            poly = kappa_product(a, 0, sum(a) + d + 2, method=method)
            assert poly.terms and all(type(key) is tuple for key in poly.terms)
    for table in memo_tables():
        assert not any(type(key) is ring._Trusted for key in table)


@pytest.mark.parametrize("d", range(1, 7))
def test_orbit_walked_products_equal_the_labelled_recursive_product(d):
    for a in index_multisets(6, max_entry=3):
        labelled = kappa_product(a, 0, sum(a) + d + 2, method="recursive")
        for method in ("ck", "closed"):
            for genus in (0, 1):
                assert kappa_product(a, genus, sum(a) + d + 2 - 2 * genus, method=method) == labelled, (a, method)


@pytest.mark.parametrize("method", ["ck", "closed"])
def test_twelve_ones_at_d_three_match_the_pairing_oracle(method):
    # the pairing solve shares no walk with the product: it recovers every
    # coefficient from stratum integrals alone
    solved = oracle.solve_coeffs_by_pairing((1,) * 12, 17)
    product = kappa_product((1,) * 12, 0, 17, method=method)
    assert product == KappaPoly(solved)
    assert len(product.terms) == 19


def test_kappa_product_rejects_negative_genus_or_markings():
    assert kappa_product((1, 1), genus=2, markings=3) == kappa_product((1, 1), 0, 7)
    with pytest.raises(ValueError):
        kappa_product((1,), genus=-1, markings=3)
    with pytest.raises(ValueError):
        kappa_product((1,), genus=0, markings=-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: kappa_product((1,), 0, 2, method="bogus"),  # d = -1: no basis at all
        lambda: kappa_product((1, 1), 0, 6, method="bogus"),
        lambda: basis_coeff(((0,),), (1,), 2, method="bogus"),
        lambda: reduce_to_basis(KappaPoly.monomial((1,)), 0, 2, method="bogus"),
        lambda: reduce_to_basis(KappaPoly.zero(), 0, 5, method="bogus"),
    ],
)
def test_unknown_method_is_rejected_in_every_degree(call):
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        call()


# ---------------------------------------------------------------------------
# conversions


def test_faber_expand_singleton():
    assert faber_expand((4,)) == KappaPoly.monomial((4,))


def test_faber_expand_pair():
    assert faber_expand((1, 2)) == KappaPoly({(1, 2): 1, (3,): 1})


def test_faber_expand_triple_instance():
    # at (a, b, c) = (1, 2, 3): all five regroupings, the full merge twice
    expected = KappaPoly({(1, 2, 3): 1, (3, 3): 1, (2, 4): 1, (1, 5): 1, (6,): 2})
    assert faber_expand((1, 2, 3)) == expected


@pytest.mark.parametrize("a", list(index_multisets(5, max_sum=8)))
def test_faber_expand_and_kappa_to_psi_match_labelled_sums(a):
    faber, psi = {}, {}
    for p in naive_set_partitions(range(len(a))):
        key = tuple(sorted(sum(a[i] for i in blk) for blk in p))
        faber[key] = faber.get(key, 0) + math.prod(math.factorial(len(blk) - 1) for blk in p)
        psi[key] = psi.get(key, 0) + (-1) ** (len(a) + len(p))
    assert faber_expand(a) == KappaPoly(faber)
    assert kappa_to_psi(a) == PsiPoly(psi)


def test_kappa_to_psi_singleton_and_pair():
    assert kappa_to_psi((3,)) == PsiPoly({(3,): 1})
    assert kappa_to_psi((1, 1)) == PsiPoly({(1, 1): 1, (2,): -1})


def test_kappa_to_psi_triple_instance():
    expected = PsiPoly({(1, 2, 3): 1, (3, 3): -1, (2, 4): -1, (1, 5): -1, (6,): 1})
    assert kappa_to_psi((1, 2, 3)) == expected


def round_trip(a):
    back = KappaPoly.zero()
    for key, coeff in kappa_to_psi(a).terms.items():
        back = back + coeff * faber_expand(key)
    return back


@pytest.mark.parametrize("a", list(index_multisets(4, max_entry=4)) + [(1,) * 12, (1, 1, 1, 1, 2, 2, 2, 2, 3, 3)])
def test_round_trip_recovers_the_monomial(a):
    assert round_trip(a) == KappaPoly.monomial(a)


def _integer_partitions(n, most):
    """The partitions of n into parts <= most, each an ascending tuple."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, most), 0, -1):
        for rest in _integer_partitions(n - part, part):
            yield rest + (part,)


def test_kappa_to_psi_of_equal_indices_counts_set_partitions_by_block_sizes():
    # kappa_1^12: the psi class of block sizes mu collects the sign of every
    # set partition of 12 points with those block sizes, of which there are
    # 12! / (prod_i mu_i! * prod_j m_j!) with m_j parts of size j
    want = {}
    for mu in _integer_partitions(12, 12):
        count = math.factorial(12) // math.prod(map(math.factorial, mu + tuple(mu.count(j) for j in set(mu))))
        want[mu] = (-1) ** (12 + len(mu)) * count
    assert len(want) == 77
    assert sum(map(abs, want.values())) == 4_213_597  # Bell(12)
    assert kappa_to_psi((1,) * 12) == PsiPoly(want)


# ---------------------------------------------------------------------------
# scalar coefficient families


def test_socle_coeff_values():
    assert socle_coeff((7,)) == 1
    assert socle_coeff((1, 1)) == 5
    assert socle_coeff((1, 2)) == 9
    assert socle_coeff(()) == 1


def test_correction_coeff_values():
    assert correction_coeff((3,)) == 1
    assert correction_coeff((1, 1)) == -5
    assert correction_coeff((1, 2)) == -9
    assert correction_coeff(()) == 1


def test_the_correction_of_sixty_ones_computes_each_run_of_ones_once(monkeypatch):
    # (1,)*60 meets 1,830 (value, first block) pairs but only sixty distinct
    # blocks, each a run of ones whose correction the table computes once
    calls = []
    compute = ring._CORRECTION.compute

    def counting(s):
        calls.append(s)
        return compute(s)

    monkeypatch.setattr(ring._CORRECTION, "compute", counting)
    clear_coeff_caches()
    value = correction_coeff((1,) * 60)
    assert sorted(calls) == [(1,) * m for m in range(1, 61)]
    clear_coeff_caches()
    # by block count j: the set partitions of n ones, the first block of b
    # ones in C(n - 1, b - 1) ways and weighing (2b)! / 2**b
    n = 60
    by_blocks = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for size in range(1, n + 1):
        for j in range(1, size + 1):
            by_blocks[size][j] = sum(
                math.comb(size - 1, b - 1) * (math.factorial(2 * b) // 2**b) * by_blocks[size - b][j - 1]
                for b in range(1, size + 1)
            )
    assert value == sum((-1) ** (n + j) * math.factorial(j - 1) * by_blocks[n][j] for j in range(1, n + 1))


@pytest.mark.parametrize("a", list(index_multisets(6, max_sum=9)))
def test_coefficients_match_independent_brute_force(a):
    assert socle_coeff(a) == naive_socle(a)
    assert correction_coeff(a) == naive_correction(a)


def test_correction_negates_socle_for_pairs():
    # consequence of the vanishing identity at two entries
    for a in index_multisets(2, max_sum=8, min_len=2):
        assert correction_coeff(a) == -socle_coeff(a)


@pytest.mark.parametrize("a", list(index_multisets(5, max_entry=3)))
def test_split_weight_matches_the_labelled_sum(a):
    # sum over set partitions q of a's positions with k blocks of the
    # blocks' socles times the correction of the block sums
    naive = {}
    for q in naive_set_partitions(range(len(a))):
        blocks = [[a[i] for i in blk] for blk in q]
        term = naive_correction([sum(blk) for blk in blocks])
        for blk in blocks:
            term *= naive_socle(blk)
        naive[len(q)] = naive.get(len(q), 0) + term
    for k in range(1, len(a) + 1):
        assert split_weight(a, k) == naive[k], (a, k)


def test_split_weight_values():
    assert split_weight((5,), 1) == 1
    assert split_weight((1, 1), 1) == 5
    assert split_weight((1, 1), 2) == -5
    assert split_weight((1, 1, 1), 2) == -135
    with pytest.raises(ValueError):
        split_weight((1, 1), 3)


def test_clear_coeff_caches_empties_every_memo():
    clear_coeff_caches()
    assert split_weight((1, 1, 2), 2) == split_weight([2, 1, 1], 2)
    basis_coeff(((0, 1, 2),), (1, 1, 2), 2, method="closed")
    oracle.solve_coeffs_by_pairing((1, 1, 2), 8)
    # every Memo of the package, the socle table that is the oracle's tops counted once
    tables = {id(table): table for table in memo_tables()}.values()
    assert len(tables) == 10 and oracle._TOP_CACHE is ring._SOCLE
    assert any(table is ring._MOMENT for table in tables)
    assert all(tables)
    snapshot = snapshot_coeff_caches()
    assert set(snapshot) == {"socle", "correction"}
    # the stderr summary and the benchmark tracer consume plain dicts
    assert all(type(table) is dict and table for table in snapshot.values())
    clear_coeff_caches()
    assert not any(tables)
    assert snapshot_coeff_caches() == {"socle": {}, "correction": {}}


def memo_tables():
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "kapparing"]
    return [table for module in modules for table in vars(module).values() if isinstance(table, partitions.Memo)]


def test_the_memo_registry_holds_every_table_and_one_made_later():
    # clear_coeff_caches empties the registry, so no table can be missed by a list kept by hand
    registered = {id(table) for table in partitions._MEMOS}
    assert all(id(table) in registered for table in memo_tables())
    later = partitions.Memo(lambda key: key)
    assert later[3] == 3 and any(table is later for table in partitions._MEMOS)
    clear_coeff_caches()
    assert not later


SOURCES = pathlib.Path(ring.__file__).parent


def test_ring_imports_nothing_from_the_oracle():
    # the oracle's pairing columns are emptied through the Memo registry, not by name
    imported = [node.module for node in ast.walk(ast.parse((SOURCES / "ring.py").read_text()))
                if isinstance(node, ast.ImportFrom)]
    assert "partitions" in imported and not any(module and "oracle" in module for module in imported)


def test_only_ring_names_the_trusted_type():
    # kappa_product makes the one trusted value basis_coeff skips validating
    naming = sorted(path.name for path in SOURCES.glob("*.py") if "_Trusted" in path.read_text())
    assert naming == ["ring.py"]


def test_memo_tables_empty_themselves_when_full(monkeypatch):
    monkeypatch.setattr(partitions, "COEFF_CACHE_LIMIT", 2)
    clear_coeff_caches()
    for b in ((1, 1), (1, 2), (2, 2, 3), (1, 1, 2, 3)):
        assert socle_coeff(b) == naive_socle(b)
        # one component of dimension sum(b) takes all of b: its top evaluation
        assert oracle.pair_kappa_stratum(b, (sum(b),)) == oracle.integrate_kappa_top(b, sum(b) + 3)
        assert correction_coeff(b) == naive_correction(b)
        assert max(map(len, memo_tables())) <= 2
    # a full table empties itself and keeps caching: the last lookup is stored
    assert (1, 1, 2, 3) in ring._SOCLE
    clear_coeff_caches()


def one_block_closed(a):
    # closed's coefficient of the one-block partition reads a's chain row
    return basis_coeff((tuple(range(len(a))),), a, 3, method="closed")


# the tables that recurse on their own entries of sub-multisets, as named in ring
ROW_TABLES = [(socle_coeff, "_SHIFTED_SUMS"), (correction_coeff, "_CORRECTION"), (one_block_closed, "_CHAIN_SUMS")]


@pytest.mark.parametrize("coeff, table", ROW_TABLES)
def test_a_table_of_exactly_its_rows_computes_each_row_once(monkeypatch, coeff, table):
    a = (1,) * 40
    clear_coeff_caches()
    expected = coeff(a)
    rows = getattr(ring, table)
    compute, computed = rows.compute, []

    def counted(key):
        computed.append(key)
        # a table that emptied itself mid-lookup would recompute rows, and
        # without the recursion's table (1,)*40 would take 2**39 rows
        assert len(computed) <= 41, "a row computed twice"
        return compute(key)

    # the 41 rows of (1,)*40 .. () fill the table without emptying it; the
    # correction has no entry for (), so it fills 40
    monkeypatch.setattr(partitions, "COEFF_CACHE_LIMIT", 41)
    monkeypatch.setattr(rows, "compute", counted)
    clear_coeff_caches()
    assert coeff(a) == expected
    least = 1 if table == "_CORRECTION" else 0
    assert sorted(computed) == [(1,) * m for m in range(least, 41)]
    assert len(rows) == 41 - least
    clear_coeff_caches()


@pytest.mark.parametrize("coeff, table", ROW_TABLES)
def test_tables_that_empty_mid_lookup_give_the_same_values(monkeypatch, coeff, table):
    a = (1,) * 8
    clear_coeff_caches()
    expected = coeff(a)
    monkeypatch.setattr(partitions, "COEFF_CACHE_LIMIT", 3)
    clear_coeff_caches()
    assert coeff(a) == expected
    assert len(getattr(ring, table)) <= 3
    clear_coeff_caches()


# ---------------------------------------------------------------------------
# expansion coefficients


def test_basis_coeff_pinned_values():
    fine = ((0,), (1,))
    coarse = ((0, 1),)
    for method in METHODS:
        assert basis_coeff(coarse, (1, 1), 1, method=method) == 5
        assert basis_coeff(fine, (1, 1), 2, method=method) == 1
        assert basis_coeff(coarse, (1, 1), 2, method=method) == 0
        assert basis_coeff(((0, 1, 2),), (1, 1, 1), 2, method=method) == -74


def test_basis_coeff_rejects_partitions_outside_the_basis():
    with pytest.raises(ValueError, match="outside the basis range d=1"):
        basis_coeff(((0,), (1,)), (1, 1), 1)
    with pytest.raises(ValueError, match="outside the basis range d=2"):
        basis_coeff(((0,), (1,), (2,)), (1, 1, 1), 2)
    with pytest.raises(ValueError):
        basis_coeff(((0, 1),), (1, 1), 0)
    with pytest.raises(ValueError):
        basis_coeff(((0, 1),), (1, 1), 2, method="simplex")


class _OtherTuple(tuple):
    pass


@pytest.mark.parametrize("method", METHODS)
def test_public_basis_coeff_validates_and_canonicalises_what_it_is_handed(method):
    a, d = (1, 2, 3), 2
    expected = basis_coeff(((0, 2), (1,)), a, d, method=method)
    # lists, unsorted blocks, blocks out of order, an unsorted a and tuple
    # subclasses other than the package's trusted type are canonicalised
    for p, values in [
        ([[0, 2], [1]], a),
        (((2, 0), (1,)), a),
        (((1,), (0, 2)), a),
        ([[1], [2, 0]], [3, 1, 2]),
        (_OtherTuple(((2, 0), (1,))), _OtherTuple((2, 3, 1))),
    ]:
        assert basis_coeff(p, values, d, method=method) == expected, (p, values)
    for p, values, message in [
        (((0, True), (2,)), a, "set partition indices"),
        (_OtherTuple(((0, True), (2,))), a, "set partition indices"),
        (((0, 1), (1, 2)), a, "pairwise disjoint"),
        (((0, 1), (3,)), a, "must cover"),
        (((0, 1),), a, "partition covers 2 indices but the multiset has 3"),
        (((0, 2), (1,)), (1, 2, 3, 4), "partition covers 3 indices but the multiset has 4"),
        (((0, 2), (1,)), (1, 0, 3), "kappa indices must be >= 1"),
        (((0, 2), (1,)), _OtherTuple((1, True, 3)), "multiset entries"),
        (((0,), (1,), (2,)), a, "outside the basis range d=2"),
    ]:
        with pytest.raises(ValueError, match=message):
            basis_coeff(p, values, d, method=method)


def test_rejected_truncation_variant_disagrees():
    # the single-binomial cutoff overshoots on the first nontrivial case
    value = basis_coeff(((0, 1),), (1, 1), 2, method="closed", truncation="single_binomial")
    assert value == -6
    with pytest.raises(ValueError):
        basis_coeff(((0, 1),), (1, 1), 2, method="closed", truncation="midpoint")


@pytest.mark.parametrize("method", METHODS)
def test_unknown_truncation_variant_is_rejected_by_every_method(method):
    with pytest.raises(ValueError, match="unknown truncation variant 'midpoint'"):
        basis_coeff(((0,), (1,)), (1, 1), 2, method=method, truncation="midpoint")


@pytest.mark.parametrize("a", [(1, 1), (1, 2), (1, 1, 1), (1, 1, 2), (2, 2), (1,) * 7, (1, 1, 2, 2, 3, 3)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_methods_agree_pointwise(a, d):
    for p in set_partitions(len(a)):
        if len(p) > d:
            continue
        values = {basis_coeff(p, a, d, method=m) for m in METHODS}
        assert len(values) == 1, (a, d, p, values)


@pytest.mark.parametrize("a", list(index_multisets(5, max_sum=8)))
def test_closed_matches_chain_walk(a):
    # both truncation variants, on every basis partition at every budget
    for p in naive_set_partitions(range(len(a))):
        for d in range(len(p), len(a) + 1):
            for truncation in ("partial_sum", "single_binomial"):
                got = basis_coeff(p, a, d, method="closed", truncation=truncation)
                assert got == naive_closed(p, a, d, truncation), (a, p, d, truncation)


def test_kernel_tables_hold_ints_and_public_values_are_fractions():
    clear_coeff_caches()
    a = (1, 1, 2, 3)
    for method in METHODS:
        assert type(basis_coeff(((0, 1), (2, 3)), a, 3, method=method)) is Fraction
    assert type(socle_coeff(a)) is Fraction
    assert type(correction_coeff(a)) is Fraction
    assert type(correction_coeff(())) is Fraction
    assert type(split_weight(a, 2)) is Fraction
    for table in (ring._SOCLE, ring._CORRECTION):
        assert table and all(type(value) is int for value in table.values())
    # one weight per block count
    assert ring._SPLIT_WEIGHT
    for values, weights in ring._SPLIT_WEIGHT.items():
        assert type(weights) is tuple and len(weights) == len(values)
        assert all(type(weight) is int for weight in weights)
    # one shifted sum per block count, 0 included
    assert ring._SHIFTED_SUMS
    for values, sums in ring._SHIFTED_SUMS.items():
        assert type(sums) is tuple and len(sums) == len(values) + 1
        assert all(type(weight) is int for weight in sums)
    # one weight per sorted tuple of block sums, each a canonical monomial of a's degree
    assert partitions._SOCLE_SPLITS
    for values, splits in partitions._SOCLE_SPLITS.items():
        assert type(splits) is tuple and len(dict(splits)) == len(splits)
        for sums, weight in splits:
            assert type(sums) is tuple and sums == tuple(sorted(sums)) and sum(sums) == sum(values)
            assert all(type(v) is int for v in sums) and type(weight) is int
    # one weight per (len(r), len(t)), and a signed factor per pair up to k
    assert ring._CHAIN_SUMS
    for chains in ring._CHAIN_SUMS.values():
        assert all(type(j) is int and type(i) is int and type(weight) is int for (j, i), weight in chains)
    assert ring._SIGNED_TRUNCATION
    for (truncation, k, d), signed in ring._SIGNED_TRUNCATION.items():
        assert type(signed) is tuple and len(signed) == k + 1
        assert all(type(row) is tuple and len(row) == k + 1 for row in signed)
        assert all(type(factor) is int for row in signed for factor in row)


def test_shifted_sums_are_grouped_by_block_count():
    # every r-block a closed product of (1,)*9 meets, and mixed blocks
    for values in [(1,) * m for m in range(1, 10)] + list(index_multisets(6, max_entry=3)):
        walked = [0] * (len(values) + 1)
        for t in naive_set_partitions(range(len(values))):
            walked[len(t)] += naive_multinomial(sum(values[i] for i in blk) + 1 for blk in t)
        assert ring._SHIFTED_SUMS[values] == tuple(walked), values
        # the socle is their signed sum
        assert ring._SOCLE[values] == sum((-1) ** (len(values) + m) * w for m, w in enumerate(walked)), values


@pytest.mark.parametrize("a", [(1,) * 10, (1, 1, 1, 2, 2, 2, 3, 3, 4, 4)])
def test_value_only_sums_walk_orbits_not_labelled_splits(monkeypatch, a):
    # with the labelled walk gone, every table but recursive's splits still fills
    def labelled(values):
        raise AssertionError("labelled walk")

    monkeypatch.setattr(ring, "_splits", labelled)
    clear_coeff_caches()
    block = (tuple(range(len(a))),)
    assert split_weight(a, 3)
    assert faber_expand(a) and kappa_to_psi(a)
    assert basis_coeff(block, a, 3, method="ck") == basis_coeff(block, a, 3, method="closed")
    with pytest.raises(AssertionError, match="labelled walk"):
        basis_coeff(block, a, 3, method="recursive")
    clear_coeff_caches()


BLOCK_CHAIN_CASES = [(1,) * m for m in range(1, 8)] + list(index_multisets(5, max_entry=3))


@pytest.mark.parametrize(
    "values",
    BLOCK_CHAIN_CASES
    + [values for values in index_multisets(6, max_entry=4) if values not in BLOCK_CHAIN_CASES]
    + [(1,) * 8, (1, 2, 3, 4, 5, 6, 7)],
)
def test_block_chains_sum_the_chains_inside_one_block(values):
    # every chain t <= r of the block's positions, grouped by (len(r), len(t))
    walked = {}
    for r in naive_set_partitions(range(len(values))):
        for t_locals in itertools.product(*(naive_set_partitions(blk) for blk in r)):
            weight = math.factorial(len(r) - 1)
            for local in t_locals:
                weight *= naive_multinomial(sum(values[i] for i in blk) + 1 for blk in local)
            key = (len(r), sum(map(len, t_locals)))
            walked[key] = walked.get(key, 0) + weight
    chains = ring._CHAIN_SUMS[values]
    assert len({key for key, _ in chains}) == len(chains)
    assert dict(chains) == walked, values


@pytest.mark.parametrize("truncation", ring.TRUNCATION_VARIANTS)
def test_signed_truncation_is_the_chain_walks_sign_times_trunc(truncation):
    for k in range(9):
        for d in range(1, 9):
            signed = ring._SIGNED_TRUNCATION[truncation, k, d]
            for len_r in range(k + 1):
                for len_t in range(k + 1):
                    # a refinement t of r has at least len(r) blocks
                    want = 0
                    if len_t >= len_r:
                        want = (-1) ** (k + len_t + len_r) * naive_trunc(truncation, len_t, len_r, d)
                    assert signed[len_r][len_t] == want, (truncation, k, d, len_r, len_t)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=6).map(sorted), st.data())
def test_basis_coeff_is_invariant_under_swapping_equal_entries(a, data):
    # a permutation of positions that moves each entry only among its equal
    # copies relabels p without changing the blocks' value multisets
    assume(len(set(a)) < len(a))
    p = data.draw(st.sampled_from(list(set_partitions(len(a)))), label="p")
    d = data.draw(st.integers(len(p), len(a) + 1), label="d")
    sigma = []
    for _, run in itertools.groupby(range(len(a)), key=a.__getitem__):
        sigma.extend(data.draw(st.permutations(list(run)), label="run"))
    relabelled = canonical_partition(tuple(sigma[i] for i in blk) for blk in p)
    for method in METHODS:
        assert basis_coeff(relabelled, a, d, method=method) == basis_coeff(p, a, d, method=method)


# ---------------------------------------------------------------------------
# products


def test_product_of_a_single_class_is_itself():
    assert kappa_product((2,), 0, 7) == KappaPoly.monomial((2,))


def test_product_top_degree_pair():
    assert kappa_product((1, 1), 0, 5) == KappaPoly({(2,): 5})


def test_product_self_basis_pair():
    poly = kappa_product((1, 1), 0, 6)
    assert poly == KappaPoly({(1, 1): 1})
    assert poly.coefficient((2,)) == 0


def test_product_three_ones():
    assert kappa_product((1, 1, 1), 0, 7) == KappaPoly({(1, 2): 15, (3,): -74})
    assert kappa_product((1, 1, 1), 0, 8) == KappaPoly({(1, 1, 1): 1})


def test_product_vanishes_outside_the_basis_range():
    assert kappa_product((1, 1), 0, 4) == KappaPoly.zero()
    assert kappa_product((3,), 0, 3) == KappaPoly.zero()


def test_product_of_unit_monomial():
    assert kappa_product((), 0, 5) == KappaPoly.unit()


@pytest.mark.parametrize("a", list(index_multisets(3, max_sum=5)))
def test_top_degree_collapses_to_socle_multiple(a):
    poly = kappa_product(a, 0, sum(a) + 3)
    assert poly == KappaPoly({(sum(a),): socle_coeff(a)})


@pytest.mark.parametrize("a", list(index_multisets(3, max_sum=5)))
@pytest.mark.parametrize("genus", [1, 2])
def test_genus_reduces_to_reindexed_markings(a, genus):
    n = sum(a) + 4
    assert kappa_product(a, genus, n) == kappa_product(a, 0, n + 2 * genus)


def test_grading_and_length_bounds():
    for a in index_multisets(4, max_sum=6):
        for d in (1, 2, 3):
            poly = kappa_product(a, 0, sum(a) + d + 2)
            for mono in poly.terms:
                assert sum(mono) == sum(a)
                assert len(mono) <= d


@settings(max_examples=60)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3))
def test_product_is_symmetric_in_the_inputs(values, d):
    n = sum(values) + d + 2
    reference = kappa_product(values, 0, n)
    for perm in itertools.islice(itertools.permutations(values), 6):
        assert kappa_product(perm, 0, n) == reference


def test_basis_monomials_expand_to_themselves():
    # whenever kappa_A itself lies in the basis, the fine partition carries 1
    # and strictly coarser partitions carry 0
    for a in index_multisets(3, max_sum=6):
        d = len(a) + 1
        poly = kappa_product(a, 0, sum(a) + d + 2)
        assert poly.coefficient(a) == 1
        for mono in poly.terms:
            if mono != multiset(a):
                assert poly.coefficient(mono) == 0


HUGE_MARKINGS = 10**23


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("a", [(1,), (1, 1), (1, 1, 1), (1, 2, 3), (1, 2, 2, 5)])
def test_product_cost_does_not_grow_with_the_marking_count(method, a):
    # with d >= len(a) the monomial is its own basis element; at n = 10**23
    # a method whose work grows with d would never return
    assert kappa_product(a, 0, HUGE_MARKINGS, method=method) == KappaPoly.monomial(a)


def test_reduce_to_basis():
    assert reduce_to_basis(KappaPoly.zero(), 0, 5) == KappaPoly.zero()
    assert reduce_to_basis(KappaPoly.monomial((1, 1), 3), 0, 5) == KappaPoly({(2,): 15})
    assert reduce_to_basis(KappaPoly.monomial((2,)), 0, 6) == KappaPoly.monomial((2,))
    mixed = KappaPoly.monomial((1, 1), 2) + KappaPoly.monomial((2,), 7)
    reduced = reduce_to_basis(mixed, 0, 5)
    assert reduced == KappaPoly({(2,): 17})
    assert reduce_to_basis(reduced, 0, 5) == reduced
