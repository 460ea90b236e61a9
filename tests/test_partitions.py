import functools
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from kapparing import oracle, partitions, ring
from kapparing.partitions import (
    _splits,
    block_sums,
    block_sum_vector,
    blocks_within,
    canonical_partition,
    ground_size,
    index_multisets,
    induced_partition,
    multiset,
    multiset_partitions,
    quote,
    refinements,
    refines,
    set_partitions,
    stirling2,
)

from bruteforce import (
    as_block_sets,
    naive_multinomial,
    naive_orbits,
    naive_set_partitions,
    naive_socle,
    naive_stirling2,
    rgs_partitions,
    value_shape,
)


def with_blocks(k, m):
    return [p for p in set_partitions(k) if len(p) == m]


# Sorted value tuples: the first with repeats, the second with distinct values.
LOCAL_VALUES = {"repeats": (1, 1, 2, 2, 2, 3, 3, 5, 5), "distinct": (1, 2, 3, 4, 5, 6, 7, 8, 9)}


@pytest.mark.parametrize("values", LOCAL_VALUES.values(), ids=LOCAL_VALUES.keys())
@pytest.mark.parametrize("m", range(10))
def test_local_partitions_are_the_labelled_value_splits_in_order(values, m):
    # each block's local splits, as _splits walks them
    values = values[:m]
    splits = list(_splits(values))
    assert splits == [tuple(tuple(values[i] for i in blk) for blk in p) for p in rgs_partitions(m)]
    assert all(list(blk) == sorted(blk) for split in splits for blk in split)
    # set_partitions is the same walk of the positions themselves
    assert list(set_partitions(m)) == list(_splits(tuple(range(m))))


def test_empty_ground_set_has_one_partition():
    assert list(set_partitions(0)) == [()]
    assert with_blocks(0, 0) == [()]
    assert with_blocks(0, 1) == []


def test_small_counts_match_exhaustive_enumeration():
    assert len(list(set_partitions(3))) == 5
    assert len(with_blocks(4, 2)) == 7 == naive_stirling2(4, 2)


def test_negative_ground_set_is_rejected():
    with pytest.raises(ValueError):
        set_partitions(-1)


@pytest.mark.parametrize("k", range(9))
def test_enumeration_count_is_bell(k):
    assert sum(1 for _ in set_partitions(k)) == sum(stirling2(k, m) for m in range(k + 1))


@pytest.mark.parametrize("k", range(7))
def test_enumeration_matches_naive_and_counts_blocks(k):
    ours = {as_block_sets(p) for p in set_partitions(k)}
    naive = {as_block_sets(p) for p in naive_set_partitions(range(k))}
    assert ours == naive
    for m in range(k + 2):
        assert len(with_blocks(k, m)) == naive_stirling2(k, m)


@pytest.mark.parametrize("k", range(10))
def test_enumeration_is_in_restricted_growth_order(k):
    assert list(set_partitions(k)) == rgs_partitions(k)


@pytest.mark.parametrize("k", range(7))
def test_emitted_partitions_are_canonical(k):
    for p in set_partitions(k):
        assert canonical_partition(p) == p
        mins = [blk[0] for blk in p]
        assert mins == sorted(mins)
        for blk in p:
            assert list(blk) == sorted(blk)


def test_block_filter_empty_when_too_many_blocks():
    assert with_blocks(3, 5) == [] and naive_stirling2(3, 5) == 0


@given(st.integers(0, 6))
def test_canonicalization_is_idempotent_under_shuffling(k):
    import random

    rng = random.Random(k)
    for p in set_partitions(k):
        blocks = [list(blk) for blk in p]
        rng.shuffle(blocks)
        for blk in blocks:
            rng.shuffle(blk)
        assert canonical_partition(blocks) == p


def test_canonical_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        canonical_partition([[0, 1], []])
    with pytest.raises(ValueError):
        canonical_partition([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        canonical_partition([[0], [2]])
    # the message quotes the first 20 of 3,000 stray indices, not all of them
    with pytest.raises(ValueError, match=r"\.\.\. \(3000 entries\)") as err:
        canonical_partition([range(1, 3001)])
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("blocks", [[["a"], [1]], [[0], [None]], [[0], [1.0]], [[0], [[1]]], [[0], [True]]])
def test_canonical_partition_rejects_non_integer_indices(blocks):
    with pytest.raises(ValueError, match="must be integers"):
        canonical_partition(blocks)


def test_refines_examples():
    assert refines(((0,), (1,)), ((0, 1),))
    assert not refines(((0, 1),), ((0,), (1,)))
    assert refines(((0, 2), (1,)), ((0, 2), (1,)))


def test_refines_requires_matching_ground_set():
    with pytest.raises(ValueError):
        refines(((0,), (1,)), ((0, 1, 2),))
    with pytest.raises(ValueError):
        refines(((0,), (1,)), ((0,), (2,)))  # same size, different indices


@pytest.mark.parametrize("k", range(6))
def test_refinement_is_a_partial_order(k):
    ps = list(set_partitions(k))
    rel = [[refines(q, p) for p in ps] for q in ps]
    for i, q in enumerate(ps):
        assert rel[i][i]  # reflexive
        for j in range(len(ps)):
            if i != j and rel[i][j] and rel[j][i]:
                pytest.fail(f"antisymmetry violated by {ps[i]} and {ps[j]}")
    for i in range(len(ps)):
        for j in range(len(ps)):
            if not rel[i][j]:
                continue
            for l in range(len(ps)):
                if rel[j][l]:
                    assert rel[i][l]  # transitive


def test_induced_partition_examples():
    assert induced_partition(((0, 1, 2),), ((0,), (1, 2))) == ((0, 1),)
    p = ((0, 2), (1,))
    assert induced_partition(p, p) == ((0,), (1,))
    assert induced_partition(((0, 1), (2, 3)), ((0,), (1,), (2, 3))) == ((0, 1), (2,))


def test_induced_partition_requires_refinement():
    with pytest.raises(ValueError):
        induced_partition(((0,), (1,)), ((0, 1),))


@pytest.mark.parametrize("k", range(6))
def test_induced_partition_preserves_block_count(k):
    for p in set_partitions(k):
        for q in refinements(p):
            assert len(induced_partition(p, q)) == len(p)


def test_block_sums_examples():
    assert block_sums(((0,), (1,)), (1, 2)) == (1, 2)
    assert block_sums(((0, 1),), (1, 2)) == (3,)
    assert block_sums(((0, 2), (1,)), (1, 1, 4)) == (1, 5)


def test_block_sums_requires_matching_sizes():
    with pytest.raises(ValueError):
        block_sums(((0, 1),), (1, 2, 3))


def test_block_sum_vector_keeps_block_order():
    assert block_sum_vector(((0, 2), (1,)), (1, 1, 4)) == (5, 1)


def test_block_sum_vector_canonicalises_and_validates_its_partition():
    # blocks in any order give the vector in canonical block order
    assert block_sum_vector(((1,), (2, 0)), (1, 1, 4)) == (5, 1)
    for bad in (((0, 0),), ((0, 5),), ((1,), (2,))):
        with pytest.raises(ValueError, match="set partition"):
            block_sum_vector(bad, (1, 1))
        with pytest.raises(ValueError, match="set partition"):
            block_sums(bad, (1, 1))
        with pytest.raises(ValueError, match="set partition"):
            oracle.integrate_psi_pushforward(bad, (1, 1), 5)


def test_blocks_within_counts_nested_blocks():
    coarse = ((0, 1, 2), (3,))
    fine = ((0,), (1, 2), (3,))
    assert blocks_within(fine, coarse) == (2, 1)
    with pytest.raises(ValueError):
        blocks_within(coarse, fine)


def test_stirling_numbers():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 0) == 0
    assert stirling2(0, 0) == 1
    for n in range(8):
        assert stirling2(n, n) == 1
        for k in range(n + 2):
            assert stirling2(n, k) == naive_stirling2(n, k)
    # past the interpreter's default recursion depth
    assert stirling2(3000, 2) == 2**2999 - 1


def test_stirling2_keeps_no_cache():
    # a cache here would grow without bound, out of clear_coeff_caches' reach;
    # cache_clear is a no-op that perfbench/run.py's reset still calls
    assert not hasattr(stirling2, "cache_info")
    assert stirling2.cache_clear() is None
    assert stirling2(6, 3) == naive_stirling2(6, 3) == 90


@given(st.integers(1, 12), st.integers(0, 13))
def test_stirling_recurrence(n, k):
    if 1 <= k:
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_multiset_canonicalizes_and_validates():
    assert multiset([3, 1, 2, 1]) == (1, 1, 2, 3)
    assert multiset([]) == ()
    with pytest.raises(ValueError):
        multiset([1, -2])


def test_refinements_enumerates_exactly_the_lower_set():
    for k in range(6):
        for p in set_partitions(k):
            below = {q for q in set_partitions(k) if refines(q, p)}
            assert set(refinements(p)) == below


def per_item_refinements(p):
    """The blockwise refinement construction that canonicalises every item."""
    per_block = [
        [tuple(tuple(blk[i] for i in sub) for sub in lp) for lp in set_partitions(len(blk))]
        for blk in p
    ]
    for combo in itertools.product(*per_block):
        yield canonical_partition(itertools.chain.from_iterable(combo))


@pytest.mark.parametrize("k", range(7))
def test_refinements_match_the_per_item_canonical_construction(k):
    rng = random.Random(k)
    for p in set_partitions(k):
        assert list(refinements(p)) == list(per_item_refinements(p))
        shuffled = [list(blk) for blk in p]
        rng.shuffle(shuffled)
        for blk in shuffled:
            rng.shuffle(blk)
        assert list(refinements(shuffled)) == list(per_item_refinements(shuffled))


def test_refinements_validate_their_input():
    with pytest.raises(ValueError):
        list(refinements(((0, 1), (1, 2))))
    with pytest.raises(ValueError):
        list(refinements(((0,), (2,))))


def test_index_multisets_bounds():
    sweep = list(index_multisets(2, max_sum=3))
    assert sweep == [(1,), (2,), (3,), (1, 1), (1, 2)]
    assert all(len(a) <= 3 and max(a) <= 2 for a in index_multisets(3, max_entry=2))
    with pytest.raises(ValueError):
        list(index_multisets(3))


def test_ground_size():
    assert ground_size(()) == 0
    assert ground_size(((0, 1), (2,))) == 3


@pytest.mark.parametrize("length", range(8))
def test_multiset_partitions_are_the_orbits_of_set_partitions(length):
    # entries 1..3, so every length mixes repeated and distinct values
    for a in itertools.combinations_with_replacement((1, 2, 3), length):
        shapes = Counter(
            tuple(sorted(tuple(a[i] for i in blk) for blk in p)) for p in set_partitions(length)
        )
        orbits = {}
        for blocks, count in multiset_partitions(a):
            assert all(list(blk) == sorted(blk) for blk in blocks)
            shape = tuple(sorted(blocks))
            assert shape not in orbits, (a, blocks)
            orbits[shape] = count
        assert orbits == dict(shapes), a
        assert sum(orbits.values()) == sum(stirling2(length, k) for k in range(length + 1))


def test_multiset_partitions_collapse_repeated_values():
    assert list(multiset_partitions(())) == [((), 1)]
    assert sorted(multiset_partitions((1, 1))) == [(((1,), (1,)), 1), (((1, 1),), 1)]
    # unsorted input is canonicalized; the counts are the labelled splits
    assert sorted(count for _, count in multiset_partitions((2, 1, 1))) == [1, 1, 1, 2]
    # 42 orbits of Bell(10) = 115,975 set partitions; 627 of Bell(20)
    assert sum(1 for _ in multiset_partitions((1,) * 10)) == 42
    assert sum(count for _, count in multiset_partitions((1,) * 20)) == sum(stirling2(20, k) for k in range(21))
    with pytest.raises(ValueError):
        multiset_partitions((1, -1))


def test_multiset_partitions_come_in_decreasing_multiplicity_vector_order():
    assert list(multiset_partitions((1, 1, 2))) == [
        (((1, 1, 2),), 1),
        (((1, 1), (2,)), 1),
        (((1, 2), (1,)), 2),
        (((1,), (1,), (2,)), 1),
    ]
    for a in [*index_multisets(6, max_sum=10), (1,) * 8]:
        assert list(multiset_partitions(a)) == naive_orbits(a), a


@pytest.mark.parametrize("length", range(7))
def test_first_block_paths_count_each_set_partition_once(length):
    # the orbit walk cuts first blocks in decreasing order, one path per
    # orbit: at each d, the counts are the labelled counts of each shape
    for a in itertools.combinations_with_replacement((1, 2, 3), length):
        for d in range(1, length + 2):
            walked = {}
            for blocks, count in partitions._orbits(a, d):
                assert len(blocks) <= d and all(blocks) and sorted(sum(blocks, ())) == list(a)
                shape = tuple(sorted(blocks))
                assert shape not in walked, (a, d, blocks)
                walked[shape] = count
            assert walked == Counter(value_shape(p, a) for p in set_partitions(length) if len(p) <= d), (a, d)


def test_orbit_counts_add_up_to_the_stirling_numbers():
    for a in [*index_multisets(6, max_entry=3), (1,) * 12, (1, 1, 2, 2, 3, 3, 4)]:
        for d in range(1, len(a) + 2):
            total = sum(count for _, count in partitions._orbits(a, d))
            assert total == sum(stirling2(len(a), j) for j in range(1, d + 1)), (a, d)
    # twelve 1s: 88,574 set partitions at d = 3 in 19 orbits, one per
    # partition of 12 into at most 3 parts, and 65 orbits at d = 7
    assert sum(1 for _ in partitions._orbits((1,) * 12, 3)) == 19
    assert sum(1 for _ in partitions._orbits((1,) * 12, 7)) == 65


@pytest.mark.parametrize(
    "cases",
    [list(index_multisets(n, max_entry=4, min_len=n)) for n in range(1, 7)] + [[(1,) * 9, (1, 2, 3, 4, 5, 6, 7)]],
)
def test_shared_row_tables_match_the_labelled_sums_by_block_count(cases):
    for a in cases:
        shifted, correction, moment = [0] * (len(a) + 1), 0, 0
        for p in naive_set_partitions(range(len(a))):
            blocks = [tuple(a[i] for i in block) for block in p]
            shifted[len(p)] += naive_multinomial(sum(block) + 1 for block in blocks)
            # (len(p) - 1)! times the blocks' multinomials, signed by the block count
            term = (-1) ** (len(a) + len(p)) * math.factorial(len(p) - 1)
            for block in blocks:
                term *= naive_multinomial(v + 1 for v in block)
            correction += term
            # the moment multinomial(a + 1) sums its cumulants, each block's
            # read off the correction table, over every set partition
            moment += math.prod((-1) ** (len(block) - 1) * ring._CORRECTION[block] for block in blocks)
        assert partitions._SHIFTED_SUMS[a] == tuple(shifted), a
        assert ring._CORRECTION[a] == correction, a
        assert moment == naive_multinomial(v + 1 for v in a), a


@pytest.mark.parametrize("cases", [list(index_multisets(6, max_sum=10)), [(1,) * 9], [(1, 2, 3, 4, 5, 6, 7)]])
def test_socle_split_rows_match_the_labelled_sums_by_block_sums(cases):
    socle = functools.lru_cache(maxsize=None)(naive_socle)
    for a in cases:
        walked = {}
        for p in naive_set_partitions(range(len(a))):
            sums = tuple(sorted(sum(a[i] for i in block) for block in p))
            term = math.prod(socle(tuple(a[i] for i in block)) for block in p)
            walked[sums] = walked.get(sums, 0) + term
        row = partitions._SOCLE_SPLITS[a]
        assert len(dict(row)) == len(row) and dict(row) == walked, a


@pytest.mark.parametrize("cases", [list(index_multisets(6, max_sum=12)), [(1,) * 10]])
def test_socle_split_rows_are_in_length_lex_order_and_end_at_their_own_key(cold_tables, cases):
    # the pairing system takes its unknowns as a prefix of a's row and
    # solves with diagonal 1, without sorting or looking the diagonal up
    for a in cases:
        row = partitions._SOCLE_SPLITS[a]
        keys = [sums for sums, _ in row]
        assert keys == sorted(set(keys), key=lambda sums: (len(sums), sums)), a
        assert row[-1] == (a, 1), a


@pytest.mark.parametrize("a, n", [((1, 1, 2, 2, 3), 15), ((1,) * 10, 16), ((3, 4, 5), 100)])
def test_a_cold_solve_hands_out_the_rows_the_table_holds(cold_tables, a, n):
    oracle.solve_coeffs_by_pairing(a, n)
    unknowns, rows, rhs, _ = oracle.pairing_system(a, n)
    assert all(rows[j] is partitions._SOCLE_SPLITS[mu] for j, mu in enumerate(unknowns))
    d = n - sum(a) - 2
    assert list(zip(unknowns, rhs)) == [pair for pair in partitions._SOCLE_SPLITS[a] if len(pair[0]) <= d]


def test_a_cold_solve_stores_one_object_per_distinct_socle_split_key():
    ring.clear_coeff_caches()
    try:
        oracle.solve_coeffs_by_pairing((1,) * 16, 26)
        keys = [sums for row in partitions._SOCLE_SPLITS.values() for sums, _ in row]
        assert len(keys) > 10 * len(set(keys))
        assert len({id(sums) for sums in keys}) == len(set(keys))
    finally:
        ring.clear_coeff_caches()


def test_quote_bounds_long_arguments():
    assert quote("1,x") == "'1,x'"
    assert quote((0, 1)) == "(0, 1)"
    assert quote("x" * 61) == repr("x" * 60) + "... (61 characters)"
    assert quote((1,) * 21) == repr((1,) * 20) + "... (21 entries)"
