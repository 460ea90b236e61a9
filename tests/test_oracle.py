import ast
import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kapparing import oracle, partitions, ring
from kapparing.oracle import (
    RankDeficientPairingError,
    dimension_sequences,
    integer_partitions,
    integrate_kappa_top,
    integrate_psi_pushforward,
    pair_kappa_stratum,
    pairing_system,
    psi_integral,
    solve_coeffs_by_pairing,
    solve_exact,
    solve_pairing_system,
)
from kapparing.partitions import Memo, index_multisets, multiset_partitions
from kapparing.ring import basis_coeff, kappa_product, socle_coeff

from bruteforce import (
    dp_pair_kappa_stratum,
    euler_partition_counts,
    naive_multinomial,
    naive_multisets,
    naive_pair_kappa_stratum,
    naive_pairing_system,
    naive_set_partitions,
    naive_socle,
)


# ---------------------------------------------------------------------------
# psi integrals


def test_psi_integral_point():
    assert psi_integral((0, 0, 0)) == 1


def test_psi_integral_multinomial_case():
    assert psi_integral((1, 1, 0, 0, 0)) == 2


def test_psi_integral_degree_mismatch_is_zero():
    assert psi_integral((1, 1, 0, 0)) == 0


def test_psi_integral_input_validation():
    with pytest.raises(ValueError):
        psi_integral((0, 0))
    with pytest.raises(ValueError):
        psi_integral((1, -1, 0))


@given(st.lists(st.integers(0, 4), min_size=3, max_size=7))
def test_psi_integral_is_symmetric(exponents):
    shuffled = sorted(exponents, reverse=True)
    assert psi_integral(exponents) == psi_integral(shuffled)


def test_integrate_psi_pushforward_values():
    assert integrate_psi_pushforward(((0,), (1,)), (1, 1), 5) == 6
    assert integrate_psi_pushforward(((0, 1),), (1, 1), 5) == 1
    assert integrate_psi_pushforward(((0,),), (2,), 5) == 1
    # degree mismatch is 0, not an error
    assert integrate_psi_pushforward(((0, 1),), (1, 1), 9) == 0


def test_integrate_kappa_top_values():
    assert integrate_kappa_top((2,), 5) == 1
    assert integrate_kappa_top((1, 1), 5) == 5
    assert integrate_kappa_top((1, 2), 6) == 9
    assert integrate_kappa_top((1, 1), 7) == 0


# ---------------------------------------------------------------------------
# stratum pairing


@pytest.mark.parametrize("a", list(index_multisets(5, max_sum=8)))
def test_top_integral_and_reachable_monomials_match_labelled_sums(a):
    labelled = [[sum(a[i] for i in blk) for blk in p] for p in naive_set_partitions(range(len(a)))]
    n = sum(a) + 3
    top = sum((-1) ** (len(a) + len(sums)) * naive_multinomial(s + 1 for s in sums) for sums in labelled)
    assert integrate_kappa_top(a, n) == top
    assert integrate_kappa_top(a, n + 1) == 0
    for d in range(1, len(a) + 1):
        reachable = {tuple(sorted(sums)) for sums in labelled if len(sums) <= d}
        assert set(solve_coeffs_by_pairing(a, sum(a) + d + 2)) == reachable


@pytest.mark.parametrize(
    "call",
    [
        lambda: integrate_kappa_top((0, 1), 4),
        lambda: pair_kappa_stratum((0, 1), (1,)),
        lambda: pairing_system((0, 1), 6),
    ],
)
def test_kappa_indices_below_one_are_rejected(call):
    with pytest.raises(ValueError, match="kappa indices must be >= 1"):
        call()


def test_pair_kappa_stratum_examples():
    assert pair_kappa_stratum((2,), (2,)) == 1
    assert pair_kappa_stratum((1, 1), (1, 1)) == 2
    assert pair_kappa_stratum((2,), (1, 1)) == 0


def test_pair_requires_zero_dimension_components_to_stay_empty():
    # with a 0-dimensional component, every index must land on the other one
    assert pair_kappa_stratum((1, 1), (0, 2)) == socle_coeff((1, 1))
    assert pair_kappa_stratum((1,), (0, 1)) == 1


def test_pair_unit_monomial():
    assert pair_kappa_stratum((), (0, 0)) == 1
    assert pair_kappa_stratum((), (1,)) == 0
    assert pair_kappa_stratum((), ()) == 1


PAIRING_MONOMIALS = [b for s in range(8) for k in range(s + 1) for b in naive_multisets(s, k, smallest=1)]


@pytest.mark.parametrize("b", PAIRING_MONOMIALS)
def test_pairing_matches_assignment_enumeration(b):
    for length in range(1, 5):
        for dims in naive_multisets(sum(b), length):
            assert pair_kappa_stratum(b, dims) == naive_pair_kappa_stratum(b, dims), (b, dims)
    for dims in [(sum(b) + 1,), (0, sum(b) + 2), (1, 1, sum(b))]:
        assert pair_kappa_stratum(b, dims) == 0 == naive_pair_kappa_stratum(b, dims), (b, dims)
    if sum(b) > 0:
        assert pair_kappa_stratum(b, (sum(b) - 1, 0)) == 0


def test_pairing_does_not_enumerate_assignments():
    # 20**20 and 4**12 assignments: enumerating them would not finish.
    assert pair_kappa_stratum((1,) * 20, (1,) * 20) == math.factorial(20)
    # top((1,1,1)) = 61 on each of the four 3-dimensional components
    assert pair_kappa_stratum((1,) * 12, (3, 3, 3, 3)) == naive_multinomial((3,) * 4) * 61**4


@pytest.mark.parametrize("a", list(index_multisets(4, max_sum=6)))
def test_socle_value_by_three_independent_routes(a):
    lam = socle_coeff(a)
    assert integrate_kappa_top(a, sum(a) + 3) == lam
    assert pair_kappa_stratum(a, (sum(a),)) == lam


def test_pairing_respects_the_ring_relation():
    # pairing the expansion of kappa_A reproduces the pairing of kappa_A
    rng = random.Random(7)
    cases = [(1, 1), (1, 2), (1, 1, 1), (1, 1, 2), (2, 2)]
    for a in cases:
        d = rng.choice([1, 2, 3])
        poly = kappa_product(a, 0, sum(a) + d + 2)
        for dims in dimension_sequences(sum(a), d):
            lhs = sum(
                (coeff * pair_kappa_stratum(mono, dims) for mono, coeff in poly.terms.items()),
                Fraction(0),
            )
            assert lhs == pair_kappa_stratum(a, dims), (a, d, dims)


# ---------------------------------------------------------------------------
# the linear system


def test_integer_partitions_enumeration():
    assert list(integer_partitions(0, 3)) == [()]
    assert set(integer_partitions(4, 2)) == {(4,), (1, 3), (2, 2)}
    assert set(dimension_sequences(2, 2)) == {(0, 2), (1, 1)}


@pytest.mark.parametrize("total", range(13))
def test_partition_count_matches_the_enumeration_and_euler(total):
    for max_parts in range(14):
        count = oracle._partition_count(total, max_parts)
        assert count == len(list(integer_partitions(total, max_parts))), (total, max_parts)
        if max_parts >= total:
            assert count == euler_partition_counts(total)[total]


def test_solve_pinned_cases():
    assert solve_coeffs_by_pairing((1, 1), 5) == {(2,): Fraction(5)}
    assert solve_coeffs_by_pairing((1, 1), 6) == {(1, 1): Fraction(1), (2,): Fraction(0)}
    assert solve_coeffs_by_pairing((2,), 6) == {(2,): Fraction(1)}
    assert solve_coeffs_by_pairing((1, 1, 1), 7) == {(1, 2): Fraction(15), (3,): Fraction(-74)}


@pytest.mark.parametrize("a", [(1,), (1, 1), (1, 1, 2), (2, 3, 3)])
def test_solve_cost_does_not_grow_with_the_marking_count(a):
    # at n = 10**23 the basis is every partition of sum(a); padding each
    # stratum to d components would never finish
    solved = solve_coeffs_by_pairing(a, 10**23)
    assert {mu: c for mu, c in solved.items() if c} == {a: 1}


def test_solve_requires_room_for_a_basis():
    with pytest.raises(ValueError):
        solve_coeffs_by_pairing((1, 1), 4)


def test_pairing_system_is_square():
    unknowns, columns, rhs, size = pairing_system((1, 1, 2), 9)
    # row i is the stratum named by unknown i; here every stratum of d = 3
    # components, named by its positive dimensions, coarsens a
    assert {tuple(v for v in dims if v) for dims in dimension_sequences(4, 3)} == set(unknowns)
    assert size == len(list(dimension_sequences(4, 3))) == 4
    assert len(rhs) == len(unknowns)
    assert unknowns == [(4,), (1, 3), (2, 2), (1, 1, 2)]


def test_pairing_system_never_builds_the_full_basis():
    # the full system has 1,958 unknowns; a's coarsenings are 7 of them
    unknowns, columns, rhs, size = pairing_system((5,) * 5, 52)
    assert unknowns == [(25,), (5, 20), (10, 15), (5, 5, 15), (5, 10, 10), (5, 5, 5, 10), (5,) * 5]
    assert len(rhs) == 7
    assert size == 1958


@pytest.mark.parametrize("a, n", [((1, 1, 2), 9), ((5,) * 5, 52), ((3, 4, 5), 18), ((1, 1, 2, 2, 3), 21), ((1,) * 6, 9)])
def test_the_system_hands_out_the_columns_the_table_holds(a, n):
    # one column per unknown, each the table's own read-only map, not a copy
    unknowns, columns, _, _ = pairing_system(a, n)
    assert len(columns) == len(unknowns)
    assert all(columns[j] is oracle._PAIRINGS[mu] for j, mu in enumerate(unknowns))


@pytest.mark.parametrize("a", list(index_multisets(3, max_sum=5)))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_solver_agrees_with_the_product_expansion(a, d):
    n = sum(a) + d + 2
    solved = solve_coeffs_by_pairing(a, n)
    poly = kappa_product(a, 0, n)
    for mono, coeff in solved.items():
        assert poly.coefficient(mono) == coeff
    for mono, coeff in poly.terms.items():
        assert solved.get(mono, Fraction(0)) == coeff


@pytest.mark.parametrize("a", list(index_multisets(5, max_sum=8)))
def test_sparse_system_and_triangular_solve_match_the_dense_reference(a):
    for d in range(1, len(a) + 2):
        n = sum(a) + d + 2
        unknowns, columns, rhs, size = system = pairing_system(a, n)
        dense_matrix, dense_rhs, dense_solution = naive_pairing_system(a, n)
        assert size == len(dense_solution)
        # the restricted system is the dense one at a's coarsenings, and no
        # column pairs with a stratum outside them
        assert {(dims, mu): columns[j].get(dims, 0) for dims in unknowns for j, mu in enumerate(unknowns)} == {
            (dims, mu): dense_matrix[dims, mu] for dims in unknowns for mu in unknowns
        }
        assert set().union(*columns) <= set(unknowns)
        assert dict(zip(unknowns, rhs)) == {dims: dense_rhs[dims] for dims in unknowns}
        # and has the dense solution there, which is 0 everywhere else
        assert solve_pairing_system(system) == {mu: dense_solution[mu] for mu in sorted(unknowns)}
        assert {mu: c for mu, c in dense_solution.items() if mu not in unknowns and c} == {}


@pytest.mark.parametrize("a", list(index_multisets(4, max_sum=6)))
def test_the_system_carries_everything_its_solve_reads(a):
    labelled = [tuple(sorted(sum(a[i] for i in blk) for blk in p)) for p in naive_set_partitions(range(len(a)))]
    for d in range(1, len(a) + 2):
        n = sum(a) + d + 2
        system = pairing_system(a, n)
        # the coarsenings of a with at most d parts, in (length, lex) order
        coarsenings = sorted({sums for sums in labelled if len(sums) <= d})
        assert system[0] == sorted(coarsenings, key=lambda mu: (len(mu), mu))
        solved = solve_pairing_system(system)
        assert solved == solve_coeffs_by_pairing(a, n)
        assert list(solved) == coarsenings


def test_solve_pairing_system_takes_the_system_alone():
    assert list(inspect.signature(solve_pairing_system).parameters) == ["system"]
    # handing the monomial and n again, which could disagree with the
    # system, is not a call that can be written
    with pytest.raises(TypeError):
        solve_pairing_system((1, 2), 8, pairing_system((3,), 8))
    # the answers such a mismatched call used to misreport, without an error
    assert solve_coeffs_by_pairing((1, 2), 8) == {(1, 2): 1, (3,): 0}
    assert solve_coeffs_by_pairing((1, 1, 2), 8) == {(1, 3): 18, (2, 2): 5, (4,): -186}


def test_pairing_matrix_is_upper_triangular_with_factorial_diagonal():
    unknowns, columns, _, _ = pairing_system((1, 1, 2, 2, 3), 21)
    assert unknowns == sorted(unknowns, key=lambda mu: (len(mu), mu))
    for j, mu in enumerate(unknowns):
        # column j pairs only with strata at positions up to its own
        assert all(unknowns.index(dims) <= j for dims in columns[j])
        assert columns[j][mu] == math.prod(math.factorial(mu.count(v)) for v in set(mu))


def counting_table(walks):
    """A fresh column table that logs each monomial it walks."""

    def walk(mu):
        walks.append(mu)
        return oracle._pairings(mu)

    return Memo(walk)


def test_pairing_system_pairs_only_the_coarsenings(monkeypatch):
    walks, dp_calls = [], []
    shared = dict(oracle._PAIRINGS)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_PAIRINGS", counting_table(walks))
        patch.setattr(oracle, "pair_kappa_stratum", lambda *args: dp_calls.append(args))
        unknowns, columns, rhs, size = pairing_system((3, 4, 5), 18)
        # the unknowns are the 5 coarsenings of (3, 4, 5), a last, read off
        # a's column, which is also the right-hand side; their 12 matrix
        # nonzeros come from one walk per other unknown, with no call of
        # pair_kappa_stratum and none of the other 29 monomials of the full
        # basis
        assert size == 34
        assert sum(1 for column in columns for x in column.values() if x) == 12
        assert sum(1 for x in rhs if x) == 5
        assert unknowns[-1] == (3, 4, 5)
        assert walks == [(3, 4, 5)] + unknowns[:-1] and len(walks) == 5
        # a column does not depend on n: one more marking walks nothing
        pairing_system((3, 4, 5), 19)
        assert len(walks) == 5
        assert dp_calls == []
    assert oracle._PAIRINGS == shared


def test_a_stratum_pairing_reads_the_table_the_solve_reads(monkeypatch):
    walks = []
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_PAIRINGS", counting_table(walks))
        b = (1, 1, 2, 3)
        # a cold pairing walks b's whole column, zero components aside
        assert pair_kappa_stratum(b, (0, 3, 4)) == dp_pair_kappa_stratum(b, (3, 4))
        assert walks == [b]
        # b at other dims reads the same column
        assert pair_kappa_stratum(b, (1, 2, 4)) == dp_pair_kappa_stratum(b, (1, 2, 4))
        assert pair_kappa_stratum(b, (7,)) == socle_coeff(b)
        assert walks == [b]
        # after a solve, the pairings of its coarsenings walk nothing
        solve_coeffs_by_pairing((2, 2, 3), 14)
        walked = len(walks)
        assert pair_kappa_stratum((4, 3), (0, 7)) == dp_pair_kappa_stratum((3, 4), (7,))
        assert pair_kappa_stratum((2, 2, 3), (2, 5)) == dp_pair_kappa_stratum((2, 2, 3), (2, 5))
        assert len(walks) == walked
        # nor does a degree mismatch, even for a monomial never walked
        assert pair_kappa_stratum((5, 6), (10,)) == 0
        assert len(walks) == walked


def test_a_column_outside_the_coarsenings_raises_naming_it(monkeypatch):
    def wrong_pairings(mu):
        found = dict(oracle._pairings(mu))
        if mu == (1, 2):
            # (1, 1, 1) at 7 markings keeps the strata (3,) and (1, 2) only
            found[(1, 1, 1)] = 1
        return found

    monkeypatch.setattr(oracle, "_PAIRINGS", Memo(wrong_pairings))
    message = r"the column of \(1, 2\) pairs with dims \(1, 1, 1\), which names no unknown"
    with pytest.raises(RankDeficientPairingError, match=message) as err:
        solve_coeffs_by_pairing((1, 1, 1), 7)
    assert err.value.rank == 0
    # the stray key has no row in the reported matrix
    assert err.value.matrix == [[1, 9], [0, 1]]


def test_zero_diagonal_pairing_raises(monkeypatch):
    shared = dict(oracle._PAIRINGS)

    def wrong_pairings(mu):
        found = dict(oracle._pairings(mu))
        if mu == (1, 2):
            found[mu] = 0
        return found

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_PAIRINGS", Memo(wrong_pairings))
        with pytest.raises(RankDeficientPairingError, match="zero diagonal") as err:
            solve_coeffs_by_pairing((1, 1, 1), 7)
        # strata (3,) and (1, 2) as rows, unknowns (3,) and (1, 2) as columns
        assert err.value.matrix == [[1, 9], [0, 0]]
        assert err.value.rank == 0
    # the wrong column went with its table
    assert oracle._PAIRINGS == shared
    assert solve_coeffs_by_pairing((1, 1, 1), 7) == {(1, 2): 15, (3,): -74}


# The seven (a, n) requests of the benchmark's oracle_solve workload.
SOLVE_REQUESTS = [
    ((3, 4, 5), 18),
    ((1, 2, 3, 4), 16),
    ((1, 1, 2, 2, 3), 15),
    ((1,) * 6, 12),
    ((1,) * 7, 13),
    ((2, 2, 3), 14),
    ((1, 2, 3), 13),
]


def test_each_column_is_walked_once_per_process(monkeypatch):
    walks = []
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_PAIRINGS", counting_table(walks))
        a = (1, 1, 2, 3)
        for d in range(1, 5):
            solve_coeffs_by_pairing(a, sum(a) + d + 2)
        # every coarsening once, a too, though it is the right-hand side at
        # every d and an unknown at d = 4
        coarsenings = {tuple(sorted(sum(a[i] for i in blk) for blk in p)) for p in naive_set_partitions(range(len(a)))}
        assert sorted(walks) == sorted(coarsenings)
        for b, n in SOLVE_REQUESTS:
            solve_coeffs_by_pairing(b, n)
        walked = len(walks)
        assert walked > len(coarsenings)
        # a second pass, in the other order, walks nothing
        for b, n in reversed(SOLVE_REQUESTS):
            solve_coeffs_by_pairing(b, n)
        assert len(walks) == walked
        # a column handed out of the table cannot be edited in it
        with pytest.raises(TypeError):
            oracle._PAIRINGS[a][a] = 0


@pytest.mark.parametrize("mu", list(index_multisets(6, max_sum=9)))
def test_pairings_walk_matches_the_stratum_pairing(mu):
    found = oracle._pairings(mu)
    # the strata mu fills: the block sums of the set partitions of its indices
    assert set(found) == {tuple(sorted(map(sum, p))) for p in naive_set_partitions(list(mu))}
    for dims, value in found.items():
        assert value == dp_pair_kappa_stratum(mu, dims), (mu, dims)
        if len(dims) ** len(mu) <= 4096:
            assert value == naive_pair_kappa_stratum(mu, dims), (mu, dims)


def test_pairings_count_the_orders_of_equal_components():
    # 15 pairings of six kappa_1s, top((1, 1)) = 5 on each of the three
    # components of dimension 2, and 3! ways to put the pairs on them
    assert oracle._pairings((1,) * 6)[(2, 2, 2)] == 15 * 5**3 * math.factorial(3)


def test_oracle_imports_nothing_from_ring():
    # the pairing solve is a cross-check of the ring only while it never calls it
    imported = []
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "partitions.Memo" in imported
    assert [name for name in imported if "ring" in name.split(".")] == []


def test_pairing_entry_below_the_diagonal_raises():
    unknowns, columns, rhs, size = pairing_system((1, 1, 1), 8)
    assert unknowns == [(3,), (1, 2), (1, 1, 1)]
    # a nonzero pairing of kappa_3 with the two-component stratum (1, 2),
    # which its single index cannot fill: found in the last column
    # substituted, after the two longer unknowns
    columns = [{**columns[0], (1, 2): 1}] + columns[1:]
    message = r"nonzero below the diagonal in row 1 for dims \(1, 2\), column 0"
    with pytest.raises(RankDeficientPairingError, match=message) as err:
        solve_pairing_system((unknowns, columns, rhs, size))
    assert err.value.rank == 2
    assert [row[0] for row in err.value.matrix] == [1, 1, 0]


def upper_triangular_systems(size):
    """(rows, rhs) of a size x size upper-triangular integer system: row i is
    its diagonal entry, of absolute value >= 2, and its signed entries above
    the diagonal."""
    entry = st.integers(-40, 40)
    diagonal = st.integers(2, 40).flatmap(lambda x: st.sampled_from((x, -x)))
    rows = [st.tuples(diagonal, st.lists(entry, min_size=size - 1 - i, max_size=size - 1 - i)) for i in range(size)]
    return st.tuples(st.tuples(*rows), st.lists(entry, min_size=size, max_size=size))


@given(st.integers(1, 7).flatmap(upper_triangular_systems))
def test_integer_back_substitution_matches_the_dense_reference(case):
    rows, rhs = case
    size = len(rhs)
    matrix = [[0] * i + [pivot] + above for i, (pivot, above) in enumerate(rows)]
    unknowns = [(j + 1,) for j in range(size)]
    # column j keyed by the strata (unknowns) of its nonzero rows
    columns = [{unknowns[i]: matrix[i][j] for i in range(size) if matrix[i][j]} for j in range(size)]
    solved = solve_pairing_system((unknowns, columns, rhs, size))
    assert list(solved) == unknowns
    assert list(solved.values()) == solve_exact(matrix, rhs)
    assert all(type(x) is Fraction for x in solved.values())
    # a fault in column j stops the solve with the size - 1 - j longer
    # unknowns substituted, and reports the columns as dense rows
    for j in range(size):
        zero = [row[:] for row in matrix]
        zero[j][j] = 0
        faults = [("names no unknown", {**columns[j], (0,): 5}, matrix), ("zero diagonal", {**columns[j], unknowns[j]: 0}, zero)]
        if j + 1 < size:
            below = [row[:] for row in matrix]
            below[j + 1][j] = -3
            faults.append(("below the diagonal", {**columns[j], unknowns[j + 1]: -3}, below))
        for message, column, dense in faults:
            system = (unknowns, columns[:j] + [column] + columns[j + 1 :], rhs, size)
            with pytest.raises(RankDeficientPairingError, match=message) as err:
                solve_pairing_system(system)
            assert err.value.rank == size - 1 - j
            assert err.value.matrix == dense


def test_solve_exact_on_a_known_system():
    matrix = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    rhs = [Fraction(5), Fraction(10)]
    assert solve_exact(matrix, rhs) == [Fraction(1), Fraction(3)]


def test_solve_exact_on_rational_entries():
    matrix = [
        [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)],
        [Fraction(3, 4), Fraction(1, 6), Fraction(0)],
        [Fraction(-1, 5), Fraction(2), Fraction(7, 9)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
    ]
    known = [Fraction(3, 7), Fraction(-5, 2), Fraction(11, 4)]
    rhs = [sum(row[j] * known[j] for j in range(3)) for row in matrix]
    assert solve_exact(matrix, rhs) == known
    assert solve_exact(matrix[:3], rhs[:3]) == known


def test_solve_exact_detects_rank_deficiency():
    matrix = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(RankDeficientPairingError) as err:
        solve_exact(matrix, [Fraction(1), Fraction(2)])
    assert err.value.rank == 1
    assert err.value.matrix == matrix


def test_solve_exact_detects_inconsistency():
    matrix = [[Fraction(1)], [Fraction(2)]]
    with pytest.raises(RankDeficientPairingError):
        solve_exact(matrix, [Fraction(1), Fraction(3)])


def test_the_solve_reads_its_tops_from_the_socle_table_and_the_integral_does_not(monkeypatch):
    def raising(*args):
        raise AssertionError("not this path")

    a, n = (1,) * 12, 20
    d = n - sum(a) - 2
    # kappa_product by ck, one basis partition per orbit times its count: the
    # labelled walk would take minutes over Bell(12) partitions
    expected = {}
    for blocks, count in multiset_partitions(a):
        if len(blocks) <= d:
            starts = [0, *itertools.accumulate(map(len, blocks))]
            p = tuple(tuple(range(i, j)) for i, j in zip(starts, starts[1:]))
            key = tuple(sorted(map(sum, blocks)))
            expected[key] = expected.get(key, 0) + count * basis_coeff(p, a, d, method="ck")
    ring.clear_coeff_caches()
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "integrate_kappa_top", raising)
        solved = solve_coeffs_by_pairing(a, n)
    assert {mu: c for mu, c in solved.items() if c} == {mu: c for mu, c in expected.items() if c}
    ring.clear_coeff_caches()
    with monkeypatch.context() as patch:
        patch.setattr(partitions._SHIFTED_SUMS, "compute", raising)
        assert integrate_kappa_top((1, 1, 2, 3), 10) == naive_socle((1, 1, 2, 3))
    ring.clear_coeff_caches()
