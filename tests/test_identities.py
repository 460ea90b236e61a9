import itertools
import math
from fractions import Fraction

import pytest

from kapparing.identities import (
    IDENTITY_NAMES,
    SweepBounds,
    check_identity,
    identity_sweep,
    identity_sweep_cases,
    labeled_trees,
    prufer_decode,
    tree_sum_oracle,
)
from kapparing.partitions import index_multisets
from kapparing.ring import correction_coeff, socle_coeff

from bruteforce import compositions, naive_ff_multinomial, naive_multinomial, naive_set_partitions, naive_tree_sum_oracle


# ---------------------------------------------------------------------------
# labeled trees


def test_prufer_decode_two_vertices():
    assert prufer_decode((), 2) == ((0, 1),)


def test_prufer_decode_star():
    assert prufer_decode((2,), 3) == ((0, 2), (1, 2))


def test_prufer_decode_validates_input():
    with pytest.raises(ValueError):
        prufer_decode((0,), 2)
    with pytest.raises(ValueError):
        prufer_decode((5,), 4)
    with pytest.raises(ValueError):
        prufer_decode((), 1)


def _is_tree(edges, vertex_count):
    """n - 1 edges that connect all n vertices."""
    if len(edges) != vertex_count - 1:
        return False
    reached, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for edge in edges:
            if u in edge:
                v = edge[0] + edge[1] - u
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
    return len(reached) == vertex_count


@pytest.mark.parametrize("vertex_count", range(2, 7))
def test_decode_encode_round_trip_over_all_codes(vertex_count):
    seen = set()
    for code in itertools.product(range(vertex_count), repeat=vertex_count - 2):
        edges = prufer_decode(code, vertex_count)
        assert _is_tree(edges, vertex_count)
        seen.add(edges)
    # Cayley: distinct codes give distinct trees
    assert len(seen) == vertex_count ** (vertex_count - 2)


def test_labeled_trees_counts():
    assert len(list(labeled_trees(1))) == 1
    assert len(list(labeled_trees(4))) == 16


# ---------------------------------------------------------------------------
# the tree-sum oracle


def test_tree_sum_oracle_values():
    assert tree_sum_oracle((1, 1), 1) == 2
    assert tree_sum_oracle((1, 1), 2) == 1
    assert tree_sum_oracle((1, 1, 1), 2) == 6
    assert tree_sum_oracle((5,), 1) == 1
    with pytest.raises(ValueError):
        tree_sum_oracle((1, 1), 3)


@pytest.mark.parametrize("length", range(1, 7))
def test_tree_sum_oracle_matches_the_filtered_code_walk(length):
    for a in itertools.combinations_with_replacement((1, 2, 3), length):
        for k in range(1, length + 1):
            assert tree_sum_oracle(a, k) == naive_tree_sum_oracle(a, k), (a, k)


def test_tree_sum_oracle_of_ones_counts_the_codes_it_visits():
    # every code with k - 1 hub entries once: C(n - 1, k - 1) hub positions
    # times n labels for each of the other n - k positions
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert tree_sum_oracle((1,) * n, k) == math.comb(n - 1, k - 1) * n ** (n - k)


@pytest.mark.parametrize("length", range(1, 7))
def test_orbit_sums_match_the_set_partition_sums(length):
    for a in itertools.combinations_with_replacement((1, 2, 3), length):
        binomial_lhs, tree_lhs = [0] * (length + 1), [0] * (length + 1)
        vanishing_lhs = 0
        for p in naive_set_partitions(range(length)):
            blocks = [[a[i] for i in block] for block in p]
            term = naive_multinomial(sum(block) + 1 for block in blocks)
            for block in blocks:
                term *= naive_multinomial(v + 1 for v in block)
            binomial_lhs[len(p)] += term
            tree_lhs[len(p)] += math.prod(sum(block) ** (len(block) - 1) for block in blocks)
            vanishing_lhs += socle_coeff(map(sum, blocks)) * math.prod(map(correction_coeff, blocks))
        assert check_identity("vanishing", b=list(a)).lhs == vanishing_lhs, a
        for k in range(1, length + 1):
            assert check_identity("binomial_product", a=list(a), k=k).lhs == binomial_lhs[k], (a, k)
            assert check_identity("tree_sum", a=list(a), k=k).lhs == tree_lhs[k], (a, k)


def _recursive_compositions(total, parts):
    """The compositions by first part, then the rest recursively."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_the_recursion_in_order():
    for total in range(9):
        for parts in range(5):
            expected = list(_recursive_compositions(total, parts))
            assert list(compositions(total, parts)) == expected, (total, parts)


# ---------------------------------------------------------------------------
# individual identities


def test_binomial_product_instance():
    report = check_identity("binomial_product", a=[1, 1], k=1)
    assert report.passed
    assert report.lhs == report.rhs == 6


def test_tree_sum_three_way_instance():
    report = check_identity("tree_sum", a=[1, 1, 1], k=2)
    assert report.passed
    assert report.lhs == report.rhs == report.oracle == 6


def test_stirling_alternating_values():
    assert check_identity("stirling_alternating", n=1).lhs == -1
    report = check_identity("stirling_alternating", n=3)
    assert report.passed and report.lhs == 0
    for n in (*range(1, 11), 600):
        assert check_identity("stirling_alternating", n=n).passed


def test_vanishing_both_branches():
    report = check_identity("vanishing", b=[1, 1])
    assert report.passed and report.lhs == 0
    report = check_identity("vanishing", b=[4])
    assert report.passed and report.lhs == 1


def test_ff_multinomial_instances():
    assert check_identity("ff_multinomial", xs=[3, -2], n=5).passed
    assert check_identity("ff_multinomial", xs=[2, -1, 2], n=4).passed
    assert check_identity("ff_multinomial", xs=[0, 0], n=0).passed


FF_GRID = [
    (xs, n)
    for xs in itertools.chain(
        itertools.product(range(-6, 7), repeat=1),
        itertools.product(range(-6, 7), repeat=2),
        itertools.product(range(-6, 7, 3), repeat=3),
        itertools.product((-6, -1, 0, 5), repeat=4),
    )
    for n in range(10)
] + [((), 0), ((), 2)]  # no variables: the one empty composition at n = 0, none after


def test_ff_multinomial_sum_by_first_part_matches_the_term_by_term_sum():
    for xs, n in FF_GRID:
        report = check_identity("ff_multinomial", xs=list(xs), n=n)
        assert report.rhs == naive_ff_multinomial(xs, n), (xs, n)
        assert report.lhs == math.prod(range(sum(xs), sum(xs) - n, -1)), (xs, n)
        assert report.passed, (xs, n)


def test_check_identity_rejects_bad_requests():
    with pytest.raises(ValueError):
        check_identity("no_such_identity", a=[1])
    with pytest.raises(TypeError):
        check_identity("tree_sum", a=[1, 1])  # missing k
    with pytest.raises(ValueError):
        check_identity("stirling_alternating", n=0)
    # the vanishing check validates b once, before the trusted table lookups
    with pytest.raises(ValueError):
        check_identity("vanishing", b=[0, 1])
    with pytest.raises(ValueError):
        check_identity("vanishing", b=[])


@pytest.mark.parametrize(
    "name, params",
    [("vanishing", {"b": [1, 2, 2]}), ("ff_multinomial", {"xs": [3, -2], "n": 4})],
)
def test_integer_sums_report_fractions(name, params):
    report = check_identity(name, **params)
    assert type(report.lhs) is Fraction and type(report.rhs) is Fraction


def test_report_json_shape():
    row = check_identity("tree_sum", a=[1, 1], k=1).to_json_dict()
    assert row["identity"] == "tree_sum"
    assert row["params"] == {"a": [1, 1], "k": 1}
    assert row["lhs"] == row["rhs"] == "2/1"
    assert row["oracle"] == "2/1"
    assert row["pass"] is True
    row = check_identity("vanishing", b=[2, 3]).to_json_dict()
    assert "oracle" not in row
    assert row["pass"] is True


# ---------------------------------------------------------------------------
# sweeps


def test_identity_names_are_exactly_the_registered_checks():
    cases = identity_sweep_cases(SweepBounds(max_len=2, max_sum=3, tree_max_len=2, vanishing_max_len=2))
    assert {name for name, _ in cases} == set(IDENTITY_NAMES)


def test_small_sweep_passes_everywhere():
    bounds = SweepBounds(
        max_len=3,
        max_sum=5,
        tree_max_len=3,
        vanishing_max_len=3,
        stirling_max_n=6,
        ff_bound=3,
        ff_max_n=5,
        ff3_bound=1,
        ff3_max_n=3,
    )
    reports = identity_sweep(bounds)
    assert reports, "sweep must not be empty"
    failed = [r for r in reports if not r.passed]
    assert not failed, [r.to_json_dict() for r in failed[:5]]


def test_tree_sum_holds_with_larger_entries():
    # spot checks beyond the default sweep grid
    for a in [(2, 3), (1, 2, 3), (3, 3, 3)]:
        for k in range(1, len(a) + 1):
            report = check_identity("tree_sum", a=list(a), k=k)
            assert report.passed, report.to_json_dict()


def test_vanishing_scope_boundary():
    # size one gives exactly 1; every larger size vanishes
    for b in index_multisets(4, max_entry=3):
        report = check_identity("vanishing", b=list(b))
        assert report.passed
        assert report.lhs == (1 if len(b) == 1 else 0)
