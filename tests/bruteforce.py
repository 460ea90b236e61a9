"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against the standard library only,
with different algorithms than the package (the enumeration order from
growth strings filtered out of itertools.product, math.comb instead of the
factorial table), so a shared bug cannot hide; ``naive_pairing_system``
borrows only the package's general Bareiss solver.
``naive_set_partitions`` inserts the last element as the package does, but
on lists, and the tests compare it with the package as sets of partitions
only.  ``naive_pair_kappa_stratum`` pairs a monomial with a stratum by
enumerating every assignment, and ``dp_pair_kappa_stratum`` by a dynamic
program over the components, fast enough to fill whole columns.
``naive_pairing_system`` is the dense form of the package's pairing system,
every entry a ``dp_pair_kappa_stratum`` value, so it checks the pairing
values as well as what the sparse triangular build and solve leave out.
``naive_expansion`` is the dense system again with no package code at all:
assignments, Gauss-Jordan elimination, and the top evaluations its caller
passes.  ``naive_ff_multinomial`` sums the falling-factorial multinomial
theorem term by term over ``compositions``, which the package's sum by
first part does not enumerate."""

import itertools
import math
from collections import Counter
from fractions import Fraction

from kapparing.oracle import solve_exact


def naive_set_partitions(elements):
    """All partitions of a list, by inserting the last element everywhere."""
    elements = list(elements)
    if not elements:
        return [[]]
    rest, last = elements[:-1], elements[-1]
    out = []
    for smaller in naive_set_partitions(rest):
        for i, block in enumerate(smaller):
            out.append(smaller[:i] + [block + [last]] + smaller[i + 1 :])
        out.append(smaller + [[last]])
    return out


def rgs_partitions(k):
    """Every partition of {0..k-1} in restricted-growth-string order.

    The strings come from itertools.product in its lexicographic order, with
    entry i in 0..i, and are kept when each entry is at most 1 + the maximum
    before it; entry i names the block of element i.
    """
    out = []
    for rgs in itertools.product(*(range(i + 1) for i in range(k))):
        top = -1
        for r in rgs:
            if r > top + 1:
                break
            top = max(top, r)
        else:
            blocks = [[] for _ in range(top + 1)]
            for i, r in enumerate(rgs):
                blocks[r].append(i)
            out.append(tuple(map(tuple, blocks)))
    return out


def as_block_sets(partition):
    """Order-insensitive canonical view of a partition."""
    return frozenset(frozenset(block) for block in partition)


def value_shape(partition, a):
    """The sorted tuple of a partition's blocks' sorted values in a."""
    return tuple(sorted(tuple(sorted(a[i] for i in block)) for block in partition))


def naive_orbits(a):
    """The partitions of a's positions up to equal values, with their counts
    of labelled partitions, from the labelled walk: each block a sorted value
    tuple, the blocks in decreasing order of their multiplicity vectors (the
    count of each distinct value, smallest value first), and the partitions
    in decreasing order of their blocks' vectors."""
    a = sorted(a)
    values = sorted(set(a))
    counts = Counter()
    for p in naive_set_partitions(range(len(a))):
        blocks = [[a[i] for i in block] for block in p]
        counts[tuple(sorted((tuple(map(block.count, values)) for block in blocks), reverse=True))] += 1
    return [
        (tuple(tuple(v for v, c in zip(values, vector) for _ in range(c)) for vector in vectors), count)
        for vectors, count in sorted(counts.items(), reverse=True)
    ]


def naive_stirling2(n, k):
    return sum(1 for p in naive_set_partitions(range(n)) if len(p) == k)


def naive_multisets(total, length, smallest=0):
    """Sorted tuples of ``length`` entries >= smallest summing to total."""
    entries = range(smallest, total + 1)
    return [c for c in itertools.combinations_with_replacement(entries, length) if sum(c) == total]


def naive_multinomial(parts):
    parts = list(parts)
    value = math.factorial(sum(parts))
    for part in parts:
        value //= math.factorial(part)
    return value


def naive_socle(a):
    """Signed multinomial sum over partitions, the top-degree evaluation."""
    a = sorted(a)
    total = 0
    for p in naive_set_partitions(range(len(a))):
        sign = (-1) ** (len(a) + len(p))
        sums = [sum(a[i] for i in block) for block in p]
        total += sign * naive_multinomial(s + 1 for s in sums)
    return Fraction(total)


def naive_correction(a):
    """Signed factorial-weighted multinomial sum over partitions."""
    a = sorted(a)
    if not a:
        return Fraction(1)
    total = 0
    for p in naive_set_partitions(range(len(a))):
        term = (-1) ** (len(a) + len(p)) * math.factorial(len(p) - 1)
        for block in p:
            term *= naive_multinomial(a[i] + 1 for i in block)
        total += term
    return Fraction(total)


def naive_pair_kappa_stratum(b, dims, top=naive_socle):
    """Stratum pairing by enumerating every assignment of the indices of b to
    the components: those giving each component exactly its dimension
    contribute the product of the components' top evaluations, ``top`` of
    each component's sorted indices."""
    b, dims = list(b), list(dims)
    if sum(b) != sum(dims):
        return Fraction(0)
    tops = {}
    total = Fraction(0)
    for assignment in itertools.product(range(len(dims)), repeat=len(b)):
        buckets = [[] for _ in dims]
        for index, component in zip(b, assignment):
            buckets[component].append(index)
        if [sum(bucket) for bucket in buckets] != dims:
            continue
        term = Fraction(1)
        for bucket in buckets:
            key = tuple(sorted(bucket))
            if key not in tops:
                tops[key] = top(key)
            term *= tops[key]
        total += term
    return total


def dp_pair_kappa_stratum(b, dims, top=naive_socle):
    """Stratum pairing by a dynamic program over the positive-dimension
    components (zero-dimension ones receive nothing, since indices are
    >= 1): the state is the count still unassigned of each distinct index
    value, and a component of dimension d takes a sub-multiset of sum d
    among the takes of at most min(count_v, d // v) copies of each value v,
    weighted by prod C(count_v, take_v), the labelled assignments giving that
    bucket, times ``top`` of the bucket.  The degrees match, so a state that
    filled every component has used up b."""
    b, dims = sorted(b), list(dims)
    if sum(b) != sum(dims):
        return Fraction(0)
    values = sorted(set(b))
    tops = {}
    states = {tuple(b.count(v) for v in values): Fraction(1)}
    for dim in dims:
        if dim == 0:
            continue
        following = {}
        for remaining, weight in states.items():
            for taken in itertools.product(*(range(min(r, dim // v) + 1) for v, r in zip(values, remaining))):
                if sum(v * t for v, t in zip(values, taken)) != dim:
                    continue
                bucket = tuple(v for v, t in zip(values, taken) for _ in range(t))
                if bucket not in tops:
                    tops[bucket] = top(bucket)
                rest = tuple(r - t for r, t in zip(remaining, taken))
                ways = math.prod(math.comb(r, t) for r, t in zip(remaining, taken))
                following[rest] = following.get(rest, 0) + weight * ways * tops[bucket]
        states = following
    return sum(states.values(), Fraction(0))


def naive_solve(matrix, rhs):
    """The unique solution of a square system, by Gauss-Jordan elimination
    over Fractions with the first nonzero pivot of each column."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, rows[col])]
    return [row[-1] for row in rows]


def naive_expansion(a, n, top):
    """The nonzero coefficients of kappa_a at n markings, keyed by basis
    monomial, from the dense pairing system: the unknowns and the strata are
    every partition of sum(a) into at most d = n - sum(a) - 2 parts, every
    entry pairs by ``naive_pair_kappa_stratum`` with the top evaluations
    ``top``, and ``naive_solve`` solves it."""
    total = sum(a)
    d = n - total - 2
    basis = [mu for length in range(1, min(d, total) + 1) for mu in naive_multisets(total, length, smallest=1)]
    matrix = [[naive_pair_kappa_stratum(mu, dims, top) for mu in basis] for dims in basis]
    rhs = [naive_pair_kappa_stratum(a, dims, top) for dims in basis]
    return {mu: c for mu, c in zip(basis, naive_solve(matrix, rhs)) if c}


def naive_pairing_system(a, n):
    """The pairing system of kappa_a at n markings, dense: the unknowns are
    the partitions of sum(a) into at most d = n - sum(a) - 2 parts, all N**2
    entries and all N right-hand sides are dp_pair_kappa_stratum values, and
    solve_exact solves it.  Returns the matrix keyed by (dims, mu), the
    right-hand side keyed by dims and the solution keyed by mu."""
    total = sum(a)
    d = n - total - 2
    unknowns = [mu for length in range(min(d, total) + 1) for mu in naive_multisets(total, length, smallest=1)]
    matrix = {(dims, mu): dp_pair_kappa_stratum(mu, dims) for dims in unknowns for mu in unknowns}
    rhs = {dims: dp_pair_kappa_stratum(a, dims) for dims in unknowns}
    dense = [[matrix[dims, mu] for mu in unknowns] for dims in unknowns]
    solution = solve_exact(dense, [rhs[dims] for dims in unknowns])
    return matrix, rhs, dict(zip(unknowns, solution))


def euler_partition_counts(limit):
    """p(0), ..., p(limit) by Euler's pentagonal number theorem:
    p(t) = sum over k >= 1 of (-1)**(k + 1) * (p(t - k(3k - 1)/2) + p(t - k(3k + 1)/2))."""
    counts = [1]
    for t in range(1, limit + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= t:
            sign = 1 if k % 2 else -1
            total += sign * sum(counts[t - g] for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g <= t)
            k += 1
        counts.append(total)
    return counts


def naive_trunc(truncation, len_t, len_r, d):
    """The closed form's truncation factor: the ``partial_sum`` alternating
    sum of C(len(t) - len(r), j - len(r)) * (-1)**j over len(r) <= j <= d,
    or the ``single_binomial`` (-1)**m * C(len(t) - len(r), m - len(r)) at
    m = min(len(t), d)."""
    if truncation == "partial_sum":
        return sum((-1) ** j * math.comb(len_t - len_r, j - len_r) for j in range(len_r, d + 1))
    m = min(len_t, d)
    return (-1) ** m * math.comb(len_t - len_r, m - len_r) if m >= len_r else 0


def naive_closed(p, a, d, truncation):
    """The closed form of one basis coefficient, by walking every chain
    t <= r <= p of partitions of a's positions: each term is

        (-1)**(len(a) + len(t) + len(r)) * trunc(len(t), len(r))
            * prod over p-blocks of (r-blocks inside - 1)!
            * prod over r-blocks of (value sum + t-blocks inside)!
            / prod over t-blocks of (value sum + 1)!

    with trunc the factor ``naive_trunc`` computes.
    """
    a = sorted(a)
    total = Fraction(0)
    for r_locals in itertools.product(*(naive_set_partitions(block) for block in p)):
        r = [block for local in r_locals for block in local]
        factor_p = math.prod(math.factorial(len(local) - 1) for local in r_locals)
        for t_locals in itertools.product(*(naive_set_partitions(block) for block in r)):
            len_t = sum(map(len, t_locals))
            term = Fraction((-1) ** (len(a) + len_t + len(r)) * naive_trunc(truncation, len_t, len(r), d) * factor_p)
            for r_block, local in zip(r, t_locals):
                term *= math.factorial(sum(a[i] for i in r_block) + len(local))
                for t_block in local:
                    term /= math.factorial(sum(a[i] for i in t_block) + 1)
            total += term
    return total


def naive_tree_sum_oracle(a, k):
    """The tree sum by a filtered walk over every code of length len(a) - 1
    on the hub (label 0, value 1) and a's entries, keeping the codes with
    exactly k - 1 hub entries."""
    values = (1,) + tuple(a)
    total = 0
    for code in itertools.product(range(len(values)), repeat=len(a) - 1):
        if code.count(0) == k - 1:
            total += math.prod(values[c] for c in code)
    return total


def compositions(total, parts):
    """Every tuple of ``parts`` naturals summing to ``total``, in
    lexicographic order: stars and bars, with the parts - 1 bars at the
    ``cuts`` among total + parts - 1 slots, which combinations yields in
    the same order."""
    if parts == 0:
        return iter([()] if total == 0 else [])
    slots = total + parts - 1
    return (
        tuple(right - left - 1 for left, right in zip((-1,) + cuts, cuts + (slots,)))
        for cuts in itertools.combinations(range(slots), parts - 1)
    )


def naive_ff_multinomial(xs, n):
    """The sum over compositions k of n into len(xs) parts of
    multinomial(k) * prod(x (x-1) ... (x-k_i+1)), one term per composition."""
    return sum(
        naive_multinomial(ks) * math.prod(math.prod(range(x, x - k, -1)) for x, k in zip(xs, ks))
        for ks in compositions(n, len(xs))
    )
