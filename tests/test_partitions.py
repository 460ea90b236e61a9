import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from kapparing.partitions import (
    _PARTITIONS_BY_SIZE,
    _local_partitions,
    bell,
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

from bruteforce import as_block_sets, naive_bell, naive_set_partitions, naive_stirling2, rgs_partitions


def with_blocks(k, m):
    return [p for p in set_partitions(k) if len(p) == m]


# Sorted value tuples: the first with repeats, the second with distinct values.
LOCAL_VALUES = {"repeats": (1, 1, 2, 2, 2, 3, 3, 5, 5), "distinct": (1, 2, 3, 4, 5, 6, 7, 8, 9)}


@pytest.mark.parametrize("values", LOCAL_VALUES.values(), ids=LOCAL_VALUES.keys())
@pytest.mark.parametrize("m", range(10))
def test_local_partitions_are_the_labelled_value_splits_in_order(values, m):
    # sizes 0-9 cross the switch from the shared table (up to 8) to streaming
    values = values[:m]
    splits = list(_local_partitions(values))
    assert splits == [tuple(tuple(values[i] for i in blk) for blk in p) for p in rgs_partitions(m)]
    assert all(list(blk) == sorted(blk) for split in splits for blk in split)
    assert (m in _PARTITIONS_BY_SIZE) == (m <= 8)


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
    assert sum(1 for _ in set_partitions(k)) == bell(k)


@pytest.mark.parametrize("k", range(7))
def test_enumeration_matches_naive_and_counts_blocks(k):
    ours = {as_block_sets(p) for p in set_partitions(k)}
    naive = {as_block_sets(p) for p in naive_set_partitions(range(k))}
    assert ours == naive
    assert bell(k) == naive_bell(k)
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
        assert sum(orbits.values()) == bell(length)


def test_multiset_partitions_collapse_repeated_values():
    assert list(multiset_partitions(())) == [((), 1)]
    assert sorted(multiset_partitions((1, 1))) == [(((1,), (1,)), 1), (((1, 1),), 1)]
    # unsorted input is canonicalized; the counts are the labelled splits
    assert sorted(count for _, count in multiset_partitions((2, 1, 1))) == [1, 1, 1, 2]
    # 42 orbits of Bell(10) = 115,975 set partitions; 627 of Bell(20)
    assert sum(1 for _ in multiset_partitions((1,) * 10)) == 42
    assert sum(count for _, count in multiset_partitions((1,) * 20)) == bell(20)
    with pytest.raises(ValueError):
        multiset_partitions((1, -1))


def test_quote_bounds_long_arguments():
    assert quote("1,x") == "'1,x'"
    assert quote((0, 1)) == "(0, 1)"
    assert quote("x" * 61) == repr("x" * 60) + "... (61 characters)"
    assert quote((1,) * 21) == repr((1,) * 20) + "... (21 entries)"
