"""Independent verification machinery on genus-zero moduli.

Everything in this module is deliberately computed without touching the
expansion formulas in :mod:`kapparing.ring`: psi-monomial integrals come from
the multinomial formula, top-degree kappa integrals from the signed sum of
psi integrals over the multiset partitions of the indices
(``partitions._orbits``, each weighted by its count of set partitions),
pairings against boundary strata from distributing kappa indices over
stratum components, each component's top evaluation read from
the socle table that :mod:`kapparing.partitions` shares, and expansion
coefficients from the resulting exact linear system, which
``pairing_system`` restricts to a's coarsenings and
``solve_pairing_system`` substitutes back in integers, column by column, on
the maps ``_PAIRINGS`` builds once per process, not copies: rows of the shared
socle-split table, which do not depend on n.  ``pair_kappa_stratum`` pairs one
stratum by a dynamic program over its components.  ``ck``'s split weights read the same rows, but
``recursive`` and ``closed`` do not, so agreement with the ring module is a
genuine cross-check, not a tautology.

A boundary stratum of the genus-zero space is a tree of components; by the
perfect-pairing structure of its Chow ring, the pairing of a kappa-ring class
against the stratum depends only on the multiset of component dimensions.
``DimensionSequence`` is that multiset.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from operator import mul, sub
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .numbers import multinomial
from .partitions import Memo, Multiset, SetPartition, block_sums, ground_size, multiset, natural
from .partitions import _SOCLE, _SOCLE_SPLITS, _orbits, _product_request, kappa_monomial

DimensionSequence = Multiset


class RankDeficientPairingError(RuntimeError):
    """The pairing system did not determine the coefficients uniquely.

    At desk scale this would contradict the perfect-pairing premise, so it is
    surfaced loudly together with the offending matrix instead of being
    papered over with a pseudo-inverse.  ``matrix`` is the solver's input as
    rows, which :func:`solve_pairing_system` lays out from its columns only
    once it fails, and ``rank`` the number of unknowns the solver determined:
    the pivots :func:`solve_exact` found, or the columns the pairing solve
    had substituted when it stopped (all of them when a residual fails).
    """

    def __init__(self, message: str, matrix: Sequence[Sequence[int | Fraction]], rank: int):
        super().__init__(message)
        self.matrix = matrix
        self.rank = rank


def psi_integral(exponents: Sequence[int]) -> int:
    """Integral of a product of psi powers over genus-zero moduli.

    With m >= 3 marked points and exponents e_1..e_m, the value is the
    multinomial coefficient (m-3)! / prod(e_i!) when sum(e_i) == m - 3 and 0
    otherwise.
    """
    exponents = tuple(natural(e, "psi exponents") for e in exponents)
    m = len(exponents)
    if m < 3:
        raise ValueError("need at least 3 marked points")
    if sum(exponents) != m - 3:
        return 0
    return multinomial(exponents)


def integrate_psi_pushforward(p: SetPartition, a: Iterable[int], n: int) -> int:
    """Integral over n-pointed genus-zero moduli of the pushed-forward psi class
    attached to the block sums of p.

    Routed through :func:`psi_integral` on n + len(p) points with exponents
    (block sum + 1) at the forgotten points; 0 on degree mismatch.
    """
    n = natural(n, "n")
    a = multiset(a)
    if ground_size(p) != len(a):
        raise ValueError("partition does not match the index multiset")
    sums = block_sums(p, a)
    exponents = (0,) * n + tuple(s + 1 for s in sums)
    if len(exponents) < 3:
        return 0
    return psi_integral(exponents)


def integrate_kappa_top(a: Iterable[int], n: int) -> Fraction:
    """Integral of the kappa monomial over n-pointed genus-zero moduli.

    Nonzero only in the top degree sum(a) == n - 3, where it is the signed
    sum over set partitions of psi-pushforward integrals:

        sum over p of (-1)**(len(a) + len(p)) * integral(psi(p)).

    A term depends on p only through its blocks' values, so the sum runs over
    the multiset partitions of a, each term times its count of set
    partitions: 627 terms instead of Bell(20) for twenty kappa_1 factors.
    The psi integral on the n + len(p) points is the multinomial of the
    exponents (block sum + 1); the n zero exponents add nothing to it.
    """
    a = kappa_monomial(a)
    if sum(a) != natural(n, "n") - 3:
        return Fraction(0)
    total = 0
    for blocks, count in _orbits(a, len(a)):
        sign = -1 if (len(a) + len(blocks)) % 2 else 1
        total += sign * count * multinomial([sum(blk) + 1 for blk in blocks])
    return Fraction(total)


# The socle table, under the name by which perfbench/run.py empties it
_TOP_CACHE = _SOCLE


def pair_kappa_stratum(b: Iterable[int], dims: Iterable[int]) -> Fraction:
    """Pair a kappa monomial against a boundary stratum with the given
    component dimensions.

    The pairing is the sum over all assignments of the monomial's (labelled)
    indices to components such that each component receives indices summing
    to its dimension, of the product of per-component top evaluations (empty
    component: factor 1).  Zero when the total degree does not match or no
    assignment fits.

    Computed by a dynamic program over the positive-dimension components
    (zero-dimension ones receive nothing, since indices are >= 1): the state
    is the count still unassigned of each distinct index value, and a
    component of dimension d takes a sub-multiset of sum d, weighted by
    prod C(count_v, take_v) (the labelled assignments giving that bucket)
    times the bucket's top evaluation.  The sub-multisets are those of sum
    d among the takes of at most min(count_v, d // v) copies of each value
    v.  Every term is an integer.
    """
    b = kappa_monomial(b)
    dims = multiset(dims)
    if sum(b) != sum(dims):
        return Fraction(0)
    values = sorted(set(b))
    states = {tuple(b.count(v) for v in values): 1}
    for dim in dims:
        if dim == 0:
            continue
        following: dict[tuple[int, ...], int] = {}
        for remaining, weight in states.items():
            for taken in itertools.product(*(range(min(r, dim // v) + 1) for v, r in zip(values, remaining))):
                if sum(map(mul, values, taken)) != dim:
                    continue
                bucket = tuple(v for v, t in zip(values, taken) for _ in range(t))
                rest = tuple(map(sub, remaining, taken))
                ways = prod(map(comb, remaining, taken))
                following[rest] = following.get(rest, 0) + weight * ways * _SOCLE[bucket]
        states = following
    # The degrees match, so a state that filled every component has used up b.
    return Fraction(sum(states.values()))


def integer_partitions(total: int, max_parts: int) -> Iterator[Multiset]:
    """Partitions of ``total`` into at most ``max_parts`` parts >= 1, canonical
    and in deterministic (lexicographic) order.  Both counts are checked at
    the call, before the first item."""

    def extend(remaining: int, parts_left: int, minimum: int, acc: list[int]) -> Iterator[Multiset]:
        if remaining == 0:
            yield tuple(acc)
            return
        if parts_left == 0:
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            yield from extend(remaining - part, parts_left - 1, part, acc)
            acc.pop()

    return extend(natural(total, "total"), natural(max_parts, "max_parts"), 1, [])


def dimension_sequences(total: int, length: int) -> Iterator[DimensionSequence]:
    """Multisets of ``length`` nonnegative entries summing to ``total``."""
    length = natural(length, "length")
    return (multiset((0,) * (length - len(p)) + p) for p in integer_partitions(total, length))


def pairing_system(a: Iterable[int], markings: int) -> tuple[list[Multiset], list[Mapping[Multiset, int]], list[int], int]:
    """The exact linear system (unknowns, columns, rhs, size) that determines
    a's expansion at n = ``markings`` points, checked by ``_product_request``.

    The basis monomials are the partitions of sum(a) into at most d parts, d
    the request's budget, and the strata of d components whose dimensions
    sum to sum(a) are named by their positive dimensions, which are again
    those partitions: pairing the expansion against a stratum must reproduce
    the pairing of a.  In (length, lex) order this full system is square, of
    ``size`` p(sum(a), <= d), which stops growing with d once d >= sum(a).

    Only a's coarsenings with at most d parts (the keys of a's column,
    :data:`_PAIRINGS`) are kept as unknowns and rows.  Column mu is nonzero
    only at mu's coarsenings, the right-hand side only at a's, and the
    diagonal is prod_v c_v! (c_v copies of index v), never 0.  Every
    coarsening of mu other than mu is shorter, so the full matrix is upper
    triangular of rank ``size``, and back substitution sets every unknown
    outside a's coarsenings to 0 while its row reads 0 = 0: the restricted
    system has the full system's solution.  ``columns[j]`` is the map
    ``_PAIRINGS[unknowns[j]]`` itself, not a copy, and ``rhs`` is read off
    a's column; :func:`solve_pairing_system` checks that they fit.
    """
    a, _, d = _product_request(a, 0, markings)
    if d < 1:
        raise ValueError(f"degree budget d={d} leaves no basis to solve for")
    paired = _PAIRINGS[a]
    unknowns = sorted((mu for mu in paired if len(mu) <= d), key=lambda mu: (len(mu), mu))
    columns = [_PAIRINGS[mu] for mu in unknowns]
    rhs = [paired[dims] for dims in unknowns]
    return unknowns, columns, rhs, _partition_count(sum(a), d)


def _partition_count(total: int, max_parts: int) -> int:
    """p(total, <= max_parts), counted as its conjugates, the partitions of
    total into parts <= max_parts, adding one part size at a time."""
    ways = [1] + [0] * total
    for part in range(1, min(max_parts, total) + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


def _pairings(mu: Multiset) -> Mapping[Multiset, int]:
    """``pair_kappa_stratum(mu, dims)`` at every dims that mu's indices can
    fill: mu's socle-split row at dims times prod_e m_e!, the ways its m_e
    blocks of sum e go to the m_e distinct components of dimension e.  The
    map is read-only, since :data:`_PAIRINGS` hands it to every caller."""
    return MappingProxyType(
        {dims: total * prod(factorial(dims.count(e)) for e in set(dims)) for dims, total in _SOCLE_SPLITS[mu]}
    )


_PAIRINGS = Memo(_pairings)


def solve_exact(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a square-or-tall exact linear system with a unique solution.

    Each row of the augmented matrix is scaled by the lcm of its
    denominators, which leaves the solution unchanged, so rational input
    works; forward elimination is then integer Bareiss (Bareiss 1968): every
    intermediate entry is a minor of the scaled matrix, so the division by
    the previous pivot is exact.  The pivot is the first nonzero entry of
    its column.  Fractions appear only in back substitution.  Raises
    RankDeficientPairingError, carrying the caller's matrix and the rank,
    when the columns are not independent or the system is inconsistent.

    The pairing solve, triangular on a's coarsenings, does not call this.
    It stays public as the dense solver with which the tests solve the full
    system over every basis monomial, and because the benchmark's tracer
    binds it by name.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rational = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    aug = []
    for row in rational:
        scale = lcm(*(q.denominator for q in row))
        aug.append([q.numerator * (scale // q.denominator) for q in row])
    rank = 0
    prev_pivot = 1
    pivot_cols = []
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        top = aug[rank]
        pivot = top[col]
        for r in range(rank + 1, nrows):
            row = aug[r]
            factor = row[col]
            for c in range(col + 1, ncols + 1):
                row[c] = (pivot * row[c] - factor * top[c]) // prev_pivot
            row[col] = 0
        prev_pivot = pivot
        pivot_cols.append(col)
        rank += 1
    if rank < ncols:
        raise RankDeficientPairingError(
            f"pairing system has rank {rank} < {ncols} unknowns",
            [row[:-1] for row in rational],
            rank,
        )
    for r in range(rank, nrows):
        if aug[r][ncols] != 0:
            raise RankDeficientPairingError(
                "pairing system is inconsistent", [row[:-1] for row in rational], rank
            )
    solution = [Fraction(0)] * ncols
    for i in range(rank - 1, -1, -1):
        col = pivot_cols[i]
        acc = Fraction(aug[i][ncols])
        for c in range(col + 1, ncols):
            acc -= aug[i][c] * solution[c]
        solution[col] = acc / aug[i][col]
    return solution


def solve_coeffs_by_pairing(a: Iterable[int], markings: int) -> dict[Multiset, Fraction]:
    """Recover the basis expansion of a kappa monomial from stratum pairings:
    :func:`solve_pairing_system` of :func:`pairing_system`, which validates a
    and markings."""
    return solve_pairing_system(pairing_system(a, markings))


def solve_pairing_system(system: tuple) -> dict[Multiset, Fraction]:
    """Solve the system ``(unknowns, columns, rhs, size)`` that
    :func:`pairing_system` returns, which carries everything the solve reads.

    Row i is the stratum named by unknown i and column j maps the strata it
    pairs with to their pairings.  In (length, lex) order the system is
    upper triangular with diagonal prod_v c_v!, so it is solved column by
    column from the longest unknown down, in integers: unknown j is num[j] /
    common, row j's residual (rhs_j * common less the solved columns'
    terms) and the diagonal lose their gcd, and the rest of the diagonal
    scales common, the solved numerators and the residuals.  A zero
    diagonal, a column key that names no unknown or sits below the diagonal
    with a nonzero value, and a nonzero final residual break the premise
    that the pairing is perfect and raise RankDeficientPairingError.  The
    returned map is keyed by the unknowns, sorted.
    """
    unknowns, columns, rhs, _ = system
    size = len(unknowns)
    position = {mu: i for i, mu in enumerate(unknowns)}

    def fault(detail: str, solved: int) -> RankDeficientPairingError:
        matrix = [[column.get(dims, 0) for column in columns] for dims in unknowns]
        return RankDeficientPairingError(detail, matrix, solved)

    residual = list(rhs)
    num = [0] * size
    common = 1
    for j in range(size - 1, -1, -1):
        mu, column = unknowns[j], columns[j]
        solved = size - 1 - j
        pivot = column.get(mu, 0)
        if not pivot:
            raise fault(f"zero diagonal in row {j} for dims {mu}", solved)
        g = gcd(residual[j], pivot)
        num[j], left = residual[j] // g, pivot // g
        if left != 1:
            for k in range(j + 1, size):
                num[k] *= left
            for i in range(j + 1):
                residual[i] *= left
            common *= left
        for dims, value in column.items():
            i = position.get(dims)
            if i is None:
                raise fault(f"the column of {mu} pairs with dims {dims}, which names no unknown", solved)
            if i > j and value:
                raise fault(f"nonzero below the diagonal in row {i} for dims {dims}, column {j}", solved)
            residual[i] -= value * num[j]
    for i, left_over in enumerate(residual):
        if left_over:
            raise fault(f"nonzero residual in row {i} for dims {unknowns[i]}", size)
    return dict(sorted(zip(unknowns, (Fraction(x, common) for x in num))))
