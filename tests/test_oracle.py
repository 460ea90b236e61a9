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
from kapparing.partitions import index_multisets, multiset_partitions
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
        count = partitions._PARTITION_COUNTS[total, max_parts]
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
    unknowns, rows, rhs, size = pairing_system((1, 1, 2), 9)
    # equation i is the stratum named by unknown i; here every stratum of d = 3
    # components, named by its positive dimensions, coarsens a
    assert {tuple(v for v in dims if v) for dims in dimension_sequences(4, 3)} == set(unknowns)
    assert size == len(list(dimension_sequences(4, 3))) == 4
    assert len(rhs) == len(unknowns)
    assert unknowns == [(4,), (1, 3), (2, 2), (1, 1, 2)]


def test_pairing_system_never_builds_the_full_basis():
    # the full system has 1,958 unknowns; a's coarsenings are 7 of them
    unknowns, rows, rhs, size = pairing_system((5,) * 5, 52)
    assert unknowns == [(25,), (5, 20), (10, 15), (5, 5, 15), (5, 10, 10), (5, 5, 5, 10), (5,) * 5]
    assert len(rhs) == 7
    assert size == 1958


@pytest.mark.parametrize("a, n", [((1, 1, 2), 9), ((5,) * 5, 52), ((3, 4, 5), 18), ((1, 1, 2, 2, 3), 21), ((1,) * 6, 9)])
def test_the_system_hands_out_the_columns_the_table_holds(a, n):
    # one row per unknown, each the socle-split table's own tuple, not a copy
    unknowns, rows, _, _ = pairing_system(a, n)
    assert len(rows) == len(unknowns)
    assert all(rows[j] is partitions._SOCLE_SPLITS[mu] for j, mu in enumerate(unknowns))


def orders(dims):
    """prod_e m_e!, the orders of a stratum's equal components."""
    return math.prod(math.factorial(dims.count(v)) for v in set(dims))


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
        unknowns, rows, rhs, size = system = pairing_system(a, n)
        dense_matrix, dense_rhs, dense_solution = naive_pairing_system(a, n)
        assert size == len(dense_solution)
        # the restricted system, each equation times its stratum's orders, is
        # the dense one at a's coarsenings, and no row pairs with a stratum
        # outside them
        pairings = {(dims, mu): w * orders(dims) for mu, row in zip(unknowns, rows) for dims, w in row}
        assert {(dims, mu): pairings.get((dims, mu), 0) for dims in unknowns for mu in unknowns} == {
            (dims, mu): dense_matrix[dims, mu] for dims in unknowns for mu in unknowns
        }
        assert {dims for row in rows for dims, _ in row} <= set(unknowns)
        assert [w * orders(dims) for dims, w in zip(unknowns, rhs)] == [dense_rhs[dims] for dims in unknowns]
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
    unknowns, rows, _, _ = pairing_system((1, 1, 2, 2, 3), 21)
    assert unknowns == sorted(unknowns, key=lambda mu: (len(mu), mu))
    for j, mu in enumerate(unknowns):
        # unknown j pairs only with strata at positions up to its own
        assert all(unknowns.index(dims) <= j for dims, _ in rows[j])
        # its row ends at its own entry, 1, and the pairing there is the orders
        assert rows[j][-1] == (mu, 1)
        assert pair_kappa_stratum(mu, mu) == orders(mu) == math.prod(math.factorial(mu.count(v)) for v in set(mu))


@pytest.fixture
def row_builds(monkeypatch, cold_tables):
    """The monomials whose socle-split rows are built, in order, from cold
    tables: each build is a call of the shared table's compute."""
    builds = []
    build = partitions._SOCLE_SPLITS.compute

    def counting_build(mu):
        builds.append(mu)
        return build(mu)

    monkeypatch.setattr(partitions._SOCLE_SPLITS, "compute", counting_build)
    return builds


def test_pairing_system_pairs_only_the_coarsenings(monkeypatch, row_builds):
    dp_calls = []
    monkeypatch.setattr(oracle, "pair_kappa_stratum", lambda *args: dp_calls.append(args))
    unknowns, rows, rhs, size = pairing_system((3, 4, 5), 18)
    # the unknowns are the 5 coarsenings of (3, 4, 5), a last, read off a's
    # row, which is also the right-hand side; their 12 matrix nonzeros come
    # from one row build per other unknown, with no call of
    # pair_kappa_stratum and none of the other 29 monomials of the full
    # basis; the rows of lower degree are the block DP's rests
    assert size == 34
    assert sum(1 for row in rows for _, x in row if x) == 12
    assert sum(1 for x in rhs if x) == 5
    assert unknowns[-1] == (3, 4, 5)
    assert [mu for mu in row_builds if sum(mu) == 12] == [(3, 4, 5)] + unknowns[:-1]
    assert len(row_builds) == len(set(row_builds)) == 12
    # a row does not depend on n: one more marking builds nothing
    pairing_system((3, 4, 5), 19)
    assert len(row_builds) == 12
    assert dp_calls == []


def test_a_stratum_pairing_reads_the_table_the_solve_reads(row_builds):
    b = (1, 1, 2, 3)
    # a cold pairing builds b's whole row, zero components aside, and no
    # other row of b's degree
    assert pair_kappa_stratum(b, (0, 3, 4)) == dp_pair_kappa_stratum(b, (3, 4))
    assert [mu for mu in row_builds if sum(mu) == sum(b)] == [b]
    built = len(row_builds)
    # b at other dims reads the same row
    assert pair_kappa_stratum(b, (1, 2, 4)) == dp_pair_kappa_stratum(b, (1, 2, 4))
    assert pair_kappa_stratum(b, (7,)) == socle_coeff(b)
    assert len(row_builds) == built
    # after a solve, the pairings of its coarsenings build nothing
    solve_coeffs_by_pairing((2, 2, 3), 14)
    built = len(row_builds)
    assert pair_kappa_stratum((4, 3), (0, 7)) == dp_pair_kappa_stratum((3, 4), (7,))
    assert pair_kappa_stratum((2, 2, 3), (2, 5)) == dp_pair_kappa_stratum((2, 2, 3), (2, 5))
    assert len(row_builds) == built
    # nor does a degree mismatch, even for a monomial never built
    assert pair_kappa_stratum((5, 6), (10,)) == 0
    assert len(row_builds) == built


def put_wrong_row(mu, edit):
    """Put mu's socle-split row, changed in place by ``edit`` as a dict,
    into the shared table; a test that calls it empties the tables after."""
    row = dict(partitions._SOCLE_SPLITS[mu])
    edit(row)
    partitions._SOCLE_SPLITS[mu] = tuple(row.items())


def test_a_column_outside_the_coarsenings_raises_naming_it(cold_tables):
    # (1, 1, 1) at 7 markings keeps the strata (3,) and (1, 2) only
    put_wrong_row((1, 2), lambda row: row.update({(1, 1, 1): 1}))
    message = r"the column of \(1, 2\) pairs with dims \(1, 1, 1\), which names no unknown"
    with pytest.raises(RankDeficientPairingError, match=message) as err:
        solve_coeffs_by_pairing((1, 1, 1), 7)
    assert err.value.rank == 0
    # the stray key has no row in the reported matrix
    assert err.value.matrix == [[1, 9], [0, 1]]


def test_zero_diagonal_pairing_raises(cold_tables):
    put_wrong_row((1, 2), lambda row: row.update({(1, 2): 0}))
    with pytest.raises(RankDeficientPairingError, match=r"zero diagonal in row 1 for dims \(1, 2\)") as err:
        solve_coeffs_by_pairing((1, 1, 1), 7)
    # strata (3,) and (1, 2) as rows, unknowns (3,) and (1, 2) as columns
    assert err.value.matrix == [[1, 9], [0, 0]]
    assert err.value.rank == 0
    # the wrong row goes with the tables
    ring.clear_coeff_caches()
    assert solve_coeffs_by_pairing((1, 1, 1), 7) == {(1, 2): 15, (3,): -74}


@pytest.mark.parametrize("pivot", [2, -1, -2, 6])
def test_a_diagonal_other_than_one_raises(cold_tables, pivot):
    # (1, 1) at 6 markings solves for (2,) and (1, 1), whose own entry, 1,
    # stands in the stratum (1, 1), of orders 2
    put_wrong_row((1, 1), lambda row: row.update({(1, 1): pivot}))
    message = rf"diagonal {pivot} in row 1 for dims \(1, 1\) is not 1"
    with pytest.raises(RankDeficientPairingError, match=message) as err:
        solve_coeffs_by_pairing((1, 1), 6)
    assert err.value.rank == 0
    assert err.value.matrix == [[1, 5], [0, 2 * pivot]]


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


@pytest.mark.parametrize("a, n", SOLVE_REQUESTS)
def test_the_benchmark_solves_match_the_dense_reference(a, n):
    # the dense system pairs every basis monomial with every stratum by the
    # component DP, orders of equal components included, and solves by
    # Bareiss; the triangular solve must give its nonzero coefficients, on
    # the very requests whose speed the benchmark measures
    _, _, dense_solution = naive_pairing_system(a, n)
    solved = solve_coeffs_by_pairing(a, n)
    assert {mu: c for mu, c in dense_solution.items() if c} == {mu: c for mu, c in solved.items() if c}
    assert set(solved) <= set(dense_solution)


def test_each_column_is_walked_once_per_process(row_builds):
    a = (1, 1, 2, 3)
    for d in range(1, 5):
        solve_coeffs_by_pairing(a, sum(a) + d + 2)
    # every coarsening once, a too, though it is the right-hand side at
    # every d and an unknown at d = 4; every other row built is of lower degree
    coarsenings = {tuple(sorted(sum(a[i] for i in blk) for blk in p)) for p in naive_set_partitions(range(len(a)))}
    assert sorted(mu for mu in row_builds if sum(mu) == sum(a)) == sorted(coarsenings)
    assert len(row_builds) == len(set(row_builds))
    before = len(row_builds)
    for b, n in SOLVE_REQUESTS:
        solve_coeffs_by_pairing(b, n)
    built = len(row_builds)
    assert built > before and built == len(set(row_builds))
    # a second pass, in the other order, builds nothing
    for b, n in reversed(SOLVE_REQUESTS):
        solve_coeffs_by_pairing(b, n)
    assert len(row_builds) == built
    # a row handed out of the table cannot be edited in it
    with pytest.raises(TypeError):
        partitions._SOCLE_SPLITS[a][-1] = (a, 0)


@pytest.mark.parametrize("mu", list(index_multisets(6, max_sum=9)))
def test_pairings_walk_matches_the_stratum_pairing(mu):
    found = {dims: w * orders(dims) for dims, w in partitions._SOCLE_SPLITS[mu]}
    # the strata mu fills: the block sums of the set partitions of its indices
    assert set(found) == {tuple(sorted(map(sum, p))) for p in naive_set_partitions(list(mu))}
    for dims, value in found.items():
        assert value == pair_kappa_stratum(mu, dims) == dp_pair_kappa_stratum(mu, dims), (mu, dims)
        if len(dims) ** len(mu) <= 4096:
            assert value == naive_pair_kappa_stratum(mu, dims), (mu, dims)


def test_pairings_count_the_orders_of_equal_components():
    # 15 pairings of six kappa_1s, top((1, 1)) = 5 on each of the three
    # components of dimension 2, and 3! ways to put the pairs on them
    assert pair_kappa_stratum((1,) * 6, (2, 2, 2)) == 15 * 5**3 * math.factorial(3)


def test_oracle_imports_nothing_from_ring():
    # the pairing solve is a cross-check of the ring only while it never calls it
    imported = []
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "partitions._SOCLE_SPLITS" in imported
    assert [name for name in imported if "ring" in name.split(".")] == []


def test_pairing_entry_below_the_diagonal_raises():
    unknowns, rows, rhs, size = pairing_system((1, 1, 1), 8)
    assert unknowns == [(3,), (1, 2), (1, 1, 1)]
    # a nonzero pairing of kappa_3 with the two-component stratum (1, 2),
    # which its single index cannot fill: found in the last unknown
    # substituted, after the two longer unknowns
    rows = [rows[0] + (((1, 2), 1),)] + rows[1:]
    message = r"nonzero below the diagonal in row 1 for dims \(1, 2\), column 0"
    with pytest.raises(RankDeficientPairingError, match=message) as err:
        solve_pairing_system((unknowns, rows, rhs, size))
    assert err.value.rank == 2
    assert [row[0] for row in err.value.matrix] == [1, 1, 0]


def upper_triangular_systems(size):
    """(above, rhs) of a size x size unit upper-triangular integer system:
    above[i] holds row i's signed entries right of its diagonal 1."""
    entry = st.integers(-40, 40)
    above = [st.lists(entry, min_size=size - 1 - i, max_size=size - 1 - i) for i in range(size)]
    return st.tuples(st.tuples(*above), st.lists(entry, min_size=size, max_size=size))


@given(
    st.integers(1, 7).flatmap(upper_triangular_systems),
    st.integers(2, 40).flatmap(lambda x: st.sampled_from((x, -x))),
)
def test_integer_back_substitution_matches_the_dense_reference(case, pivot):
    above, rhs = case
    size = len(rhs)
    matrix = [[0] * i + [1] + entries for i, entries in enumerate(above)]
    unknowns = [(j + 1,) for j in range(size)]
    # unknown j's row: (stratum, entry) at its nonzero equations, in order,
    # so its own entry, 1, comes last
    rows = [tuple((unknowns[i], matrix[i][j]) for i in range(j + 1) if matrix[i][j]) for j in range(size)]
    solved = solve_pairing_system((unknowns, rows, rhs, size))
    assert list(solved) == unknowns
    assert list(solved.values()) == solve_exact(matrix, rhs)
    assert all(type(x) is Fraction for x in solved.values())
    # a fault in unknown j's row stops the solve with the size - 1 - j
    # longer unknowns substituted, and reports the rows as dense equations
    for j in range(size):
        own = rows[j][:-1]
        zero, scaled = [row[:] for row in matrix], [row[:] for row in matrix]
        zero[j][j], scaled[j][j] = 0, pivot
        faults = [
            ("names no unknown", rows[j] + (((0,), 5),), matrix),
            ("zero diagonal", own + ((unknowns[j], 0),), zero),
            ("zero diagonal", own, zero),
            ("is not 1", own + ((unknowns[j], pivot),), scaled),
        ]
        if j + 1 < size:
            below = [row[:] for row in matrix]
            below[j + 1][j] = -3
            faults.append(("below the diagonal", rows[j] + ((unknowns[j + 1], -3),), below))
        for message, row, dense in faults:
            system = (unknowns, rows[:j] + [row] + rows[j + 1 :], rhs, size)
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
