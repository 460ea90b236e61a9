"""Independent verification machinery on genus-zero moduli.

Everything in this module is deliberately computed without touching the
expansion formulas in :mod:`kapparing.ring`: psi-monomial integrals come from
the multinomial formula, top-degree kappa integrals from the signed sum of
psi integrals over the multiset partitions of the indices
(``partitions._orbits``, each weighted by its count of set partitions),
pairings against boundary strata from the socle-split table that
:mod:`kapparing.partitions` shares (the oracle owns no table), whose row of
a monomial does not depend on n: a pairing is one entry of the row times
the orders of the stratum's equal components, as ``pair_kappa_stratum``
reads it.  Expansion coefficients come from the resulting exact linear
system, which ``pairing_system`` restricts to a's coarsenings.  An order
factor depends only on the stratum, so dropping it keeps the solution and
leaves a unit upper-triangular system: ``solve_pairing_system``
substitutes back in integers, on the rows themselves, not copies.  ``ck``'s
split weights read the same rows, but ``recursive`` and ``closed`` do not,
so agreement with the ring module is a genuine cross-check, not a tautology.

A boundary stratum of the genus-zero space is a tree of components; by the
perfect-pairing structure of its Chow ring, the pairing of a kappa-ring class
against the stratum depends only on the multiset of component dimensions.
``DimensionSequence`` is that multiset.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Sequence

from .numbers import multinomial
from .partitions import Multiset, SetPartition, block_sums, ground_size, multiset, natural
from .partitions import _PARTITION_COUNTS, _SOCLE, _SOCLE_SPLITS, _orbits, _product_request, kappa_monomial

DimensionSequence = Multiset


class RankDeficientPairingError(RuntimeError):
    """The pairing system did not determine the coefficients uniquely.

    At desk scale this would contradict the perfect-pairing premise, so it is
    surfaced loudly together with the offending matrix instead of being
    papered over with a pseudo-inverse.  ``matrix`` holds the pairings as
    rows, laid out by :func:`solve_pairing_system` only once it fails, and
    ``rank`` the number of unknowns the solver determined: the pivots
    :func:`solve_exact` found, or those the pairing solve had substituted
    when it stopped (all of them when a residual fails).
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

    Zero-dimension components receive nothing, since indices are >= 1, so
    the pairing is b's socle-split row entry at the positive dimensions,
    or 0 where b's indices cannot fill them, times that stratum's
    :func:`_orders`; the empty b's row is (((), 1),).  A cold call builds
    b's whole row, the one that a solve of b reads too.
    """
    b = kappa_monomial(b)
    dims = multiset(dims)
    if sum(b) != sum(dims):
        return Fraction(0)
    filled, row = tuple(dim for dim in dims if dim), _SOCLE_SPLITS[b]
    # the row is in (length, lex) order
    i = bisect_left(row, (len(filled), filled), key=lambda pair: (len(pair[0]), pair[0]))
    return Fraction(row[i][1] * _orders(filled) if i < len(row) and row[i][0] == filled else 0)


def _orders(dims: Multiset) -> int:
    """prod_e m_e!, the ways a split's m_e blocks of sum e go to the m_e
    components of dimension e: the pairing is a row entry at dims times this."""
    return prod(factorial(dims.count(e)) for e in set(dims))


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


def pairing_system(a: Iterable[int], markings: int) -> tuple[list[Multiset], list[tuple], list[int], int]:
    """The exact linear system (unknowns, rows, rhs, size) that determines
    a's expansion at n = ``markings`` points, checked by ``_product_request``.

    The basis monomials are the partitions of sum(a) into at most d parts, d
    the request's budget, and the strata of d components whose dimensions
    sum to sum(a) are named by their positive dimensions, which are again
    those partitions: pairing the expansion against a stratum must reproduce
    the pairing of a.  In (length, lex) order this full system is square, of
    ``size`` p(sum(a), <= d), which stops growing with d once d >= sum(a).

    Only a's coarsenings with at most d parts are kept as unknowns and
    strata: a prefix of a's socle-split row, in (length, lex) order, whose
    entries there are the right-hand side.  Unknown mu pairs only with
    mu's coarsenings, all shorter than mu but mu itself, so the full matrix
    is upper triangular of rank ``size``; back substitution sets every
    unknown outside a's coarsenings to 0 while its equation reads 0 = 0,
    so the restricted system has the full system's solution.  A pairing
    with stratum dims is a row entry times :func:`_orders` of dims, one
    factor on both sides of dims' equation, which the system drops:
    ``rows[j]`` is the row ``_SOCLE_SPLITS[unknowns[j]]`` itself, not a
    copy, ending at its own entry, 1.  :func:`solve_pairing_system` checks
    that they fit.
    """
    a, _, d = _product_request(a, 0, markings)
    if d < 1:
        raise ValueError(f"degree budget d={d} leaves no basis to solve for")
    paired = _SOCLE_SPLITS[a]
    if d < len(a):
        paired = paired[: bisect_right(paired, d, key=lambda pair: len(pair[0]))]
    unknowns = [dims for dims, _ in paired]
    rows = [_SOCLE_SPLITS[mu] for mu in unknowns]
    return unknowns, rows, [w for _, w in paired], _PARTITION_COUNTS[sum(a), min(d, sum(a))]


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
    """Solve the system ``(unknowns, rows, rhs, size)`` that
    :func:`pairing_system` returns, which carries everything the solve reads.

    Equation i is the stratum named by unknown i, and ``rows[j]`` holds
    unknown j's coefficients as pairs (stratum, value).  In (length, lex)
    order the system is upper triangular with diagonal 1, so it is solved
    from the longest unknown down, in integers: unknown j is what is left
    of rhs_j once the longer unknowns' terms are taken off.  A zero
    diagonal or one that is not 1, a key that names no unknown or sits
    below the diagonal with a nonzero value, and a nonzero final residual
    break the premise that the pairing is perfect and raise
    RankDeficientPairingError.  The returned map is keyed by the unknowns,
    sorted.
    """
    unknowns, rows, rhs, _ = system
    size = len(unknowns)
    position = {mu: i for i, mu in enumerate(unknowns)}

    def fault(detail: str, solved: int) -> RankDeficientPairingError:
        matrix = [[dict(row).get(dims, 0) * _orders(dims) for row in rows] for dims in unknowns]
        return RankDeficientPairingError(detail, matrix, solved)

    residual = list(rhs)
    solution = [0] * size
    for j in range(size - 1, -1, -1):
        mu, row, solved = unknowns[j], rows[j], size - 1 - j
        # a row in (length, lex) order ends at its own key
        own, pivot = row[-1] if row else (mu, 0)
        if own != mu:
            pivot = dict(row).get(mu, 0)
        if not pivot:
            raise fault(f"zero diagonal in row {j} for dims {mu}", solved)
        if pivot != 1:
            raise fault(f"diagonal {pivot} in row {j} for dims {mu} is not 1", solved)
        x = solution[j] = residual[j]
        for dims, value in row:
            i = position.get(dims)
            if i is None:
                raise fault(f"the column of {mu} pairs with dims {dims}, which names no unknown", solved)
            if i > j and value:
                raise fault(f"nonzero below the diagonal in row {i} for dims {dims}, column {j}", solved)
            residual[i] -= value * x
    for i, left_over in enumerate(residual):
        if left_over:
            raise fault(f"nonzero residual in row {i} for dims {unknowns[i]}", size)
    return dict(sorted(zip(unknowns, map(Fraction, solution))))
