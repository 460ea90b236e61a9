"""Independent brute-force oracles for the test suite.

Everything here but ``naive_pairing_system`` is deliberately written against
the standard library only, with different algorithms than the package (the
enumeration order from growth strings filtered out of itertools.product,
math.comb instead of the factorial table), so a shared bug cannot hide.
``naive_set_partitions`` inserts the last element as the package does, but
on lists, and the tests compare it with the package as sets of partitions
only.  ``naive_pairing_system`` is the dense form of the package's pairing
system: it uses the package's pairing and its general Bareiss solver, so it
checks what the sparse triangular build and solve leave out, not the
pairing itself (``naive_pair_kappa_stratum`` does that).
"""

import itertools
import math
from fractions import Fraction

from kapparing.oracle import pair_kappa_stratum, solve_exact


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


def naive_stirling2(n, k):
    return sum(1 for p in naive_set_partitions(range(n)) if len(p) == k)


def naive_bell(n):
    return len(naive_set_partitions(range(n)))


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


def naive_pair_kappa_stratum(b, dims):
    """Stratum pairing by enumerating every assignment of the indices of b to
    the components: those giving each component exactly its dimension
    contribute the product of the components' top evaluations."""
    b, dims = list(b), list(dims)
    if sum(b) != sum(dims):
        return Fraction(0)
    top = {}
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
            if key not in top:
                top[key] = naive_socle(key)
            term *= top[key]
        total += term
    return total


def naive_pairing_system(a, n):
    """The pairing system of kappa_a at n markings, dense: the unknowns are
    the partitions of sum(a) into at most d = n - sum(a) - 2 parts, all N**2
    entries and all N right-hand sides are pair_kappa_stratum calls, and
    solve_exact solves it.  Returns the matrix keyed by (dims, mu), the
    right-hand side keyed by dims and the solution keyed by mu."""
    total = sum(a)
    d = n - total - 2
    unknowns = [mu for length in range(min(d, total) + 1) for mu in naive_multisets(total, length, smallest=1)]
    matrix = {(dims, mu): pair_kappa_stratum(mu, dims) for dims in unknowns for mu in unknowns}
    rhs = {dims: pair_kappa_stratum(a, dims) for dims in unknowns}
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


def naive_closed(p, a, d, truncation):
    """The closed form of one basis coefficient, by walking every chain
    t <= r <= p of partitions of a's positions: each term is

        (-1)**(len(a) + len(t) + len(r)) * trunc(len(t), len(r))
            * prod over p-blocks of (r-blocks inside - 1)!
            * prod over r-blocks of (value sum + t-blocks inside)!
            / prod over t-blocks of (value sum + 1)!

    with trunc the ``partial_sum`` alternating sum of C(len(t) - len(r),
    j - len(r)) * (-1)**j over len(r) <= j <= d, or the ``single_binomial``
    (-1)**m * C(len(t) - len(r), m - len(r)) at m = min(len(t), d).
    """
    a = sorted(a)

    def trunc(len_t, len_r):
        if truncation == "partial_sum":
            return sum((-1) ** j * math.comb(len_t - len_r, j - len_r) for j in range(len_r, d + 1))
        m = min(len_t, d)
        return (-1) ** m * math.comb(len_t - len_r, m - len_r) if m >= len_r else 0

    total = Fraction(0)
    for r_locals in itertools.product(*(naive_set_partitions(block) for block in p)):
        r = [block for local in r_locals for block in local]
        factor_p = math.prod(math.factorial(len(local) - 1) for local in r_locals)
        for t_locals in itertools.product(*(naive_set_partitions(block) for block in r)):
            len_t = sum(map(len, t_locals))
            term = Fraction((-1) ** (len(a) + len_t + len(r)) * trunc(len_t, len(r)) * factor_p)
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
