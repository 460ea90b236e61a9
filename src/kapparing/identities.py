"""Brute-force checkers for the standalone combinatorial identities.

Each identity is evaluated exactly on both sides from its definition; the
left side is always the partition (or direct) sum, the right side the closed
form, and where a third independent route exists (the labeled-tree oracle)
all of them must coincide.  A check never proves anything symbolically; it
confirms instances, which is what the sweeps are for.  The three sums over
set partitions (binomial product, tree sum, vanishing) are taken orbit-wise,
over ``partitions._orbits``: one term per multiset partition, times its
count of set partitions.  The two k-block sums walk the orbits of at most k
blocks and keep those of exactly k.

Identity names:

* ``binomial_product``     - sum over k-block set partitions of the product
  of shifted multinomials equals a binomial times one shifted multinomial.
* ``tree_sum``             - sum over k-block set partitions of block-sum
  powers equals binomial(n-1, k-1) * (sum A)**(n-k); cross-checked against
  an exhaustive labeled-tree (code) enumeration.
* ``stirling_alternating`` - sum of (-1)**k (k-1)! S(n, k) is -1 at n=1 and
  0 for n >= 2.
* ``vanishing``            - sum over set partitions of correction times
  socle coefficients is 0 for multisets of size >= 2 and 1 for singletons.
* ``ff_multinomial``       - the multinomial theorem for falling factorials,
  its sum over the compositions of n taken by first part: C(n, k) times
  (x_1 falling k) times the same sum over the other xs for n - k.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Iterator, NamedTuple, Optional

from .numbers import binomial, factorial, falling_factorial, format_rational, multinomial
from .partitions import _orbits, _split_sums, _stirling_row, index_multisets, kappa_monomial, multiset, natural
from .ring import _CORRECTION, _SOCLE


class IdentityReport(NamedTuple):
    """One checked identity instance with both sides' exact values.

    ``oracle`` carries the third, independently computed value when the
    identity has one (the labeled-tree enumeration for ``tree_sum``).
    """

    identity: str
    params: dict
    lhs: Fraction = Fraction(0)
    rhs: Fraction = Fraction(0)
    oracle: Optional[Fraction] = None

    @property
    def passed(self) -> bool:
        if self.oracle is not None and self.oracle != self.rhs:
            return False
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        row = {
            "identity": self.identity,
            "params": self.params,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "pass": self.passed,
        }
        if self.oracle is not None:
            row["oracle"] = format_rational(self.oracle)
        return row


def prufer_decode(code: Iterable[int], vertex_count: int) -> tuple[tuple[int, int], ...]:
    """The unique labeled tree on 0..vertex_count-1 with the given code.

    Standard decoding: each code entry connects the smallest current leaf to
    it.  The code must have length vertex_count - 2 with valid labels.
    """
    natural(vertex_count, "vertex_count", 2)
    code = tuple(natural(c, "vertex labels", 0, vertex_count - 1) for c in code)
    if len(code) != vertex_count - 2:
        raise ValueError(f"code length {len(code)} != vertex_count - 2")
    degree = [1] * vertex_count
    for c in code:
        degree[c] += 1
    leaves = [v for v in range(vertex_count) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for c in code:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, c), max(leaf, c)))
        degree[leaf] = 0
        degree[c] -= 1
        if degree[c] == 1:
            heapq.heappush(leaves, c)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


def labeled_trees(vertex_count: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labeled trees on 0..vertex_count-1, one per code."""
    if vertex_count == 1:
        yield ()
        return
    for code in itertools.product(range(vertex_count), repeat=vertex_count - 2):
        yield prufer_decode(code, vertex_count)


def tree_sum_oracle(a: Iterable[int], k: int) -> int:
    """Exhaustive code-space evaluation of the tree sum.

    Consider trees on a hub vertex of value 1 plus one vertex per entry of
    ``a``, the hub having degree exactly k.  In code terms the hub appears
    exactly k - 1 times, so the sum of entry-value products over all such
    trees is a sum over the codes of length len(a) - 1 with exactly k - 1
    hub entries.  They are enumerated by hub position: each choice of the
    k - 1 hub positions, then each labelling of the other positions with
    entries of ``a``, so every such code is visited once,
    C(len(a) - 1, k - 1) * len(a)**(len(a) - k) codes in all.
    """
    a = multiset(a)
    n = len(a)
    natural(k, "k", 1, n)
    total = 0
    for _hubs in itertools.combinations(range(n - 1), k - 1):
        # the hub entries carry the hub's value 1
        for labels in itertools.product(a, repeat=n - k):
            total += prod(labels)
    return total


def _check_binomial_product(a: Iterable[int], k: int) -> IdentityReport:
    a = multiset(a)
    natural(k, "k", 1, len(a))
    lhs = 0
    for blocks, count in _orbits(a, k):
        if len(blocks) != k:
            continue
        term = count * multinomial(sum(blk) + 1 for blk in blocks)
        for blk in blocks:
            term *= multinomial(v + 1 for v in blk)
        lhs += term
    rhs = binomial(len(a) - 1, k - 1) * multinomial(v + 1 for v in a)
    return IdentityReport(
        identity="binomial_product",
        params={"a": list(a), "k": k},
        lhs=Fraction(lhs),
        rhs=Fraction(rhs),
    )


def _check_tree_sum(a: Iterable[int], k: int) -> IdentityReport:
    a = multiset(a)
    natural(k, "k", 1, len(a))
    lhs = 0
    for blocks, count in _orbits(a, k):
        if len(blocks) != k:
            continue
        term = count
        for blk in blocks:
            term *= sum(blk) ** (len(blk) - 1)
        lhs += term
    rhs = binomial(len(a) - 1, k - 1) * sum(a) ** (len(a) - k)
    oracle = tree_sum_oracle(a, k)
    return IdentityReport(
        identity="tree_sum",
        params={"a": list(a), "k": k},
        lhs=Fraction(lhs),
        rhs=Fraction(rhs),
        oracle=Fraction(oracle),
    )


def _check_stirling_alternating(n: int) -> IdentityReport:
    row = _stirling_row(natural(n, "n", 1), n)
    lhs = sum((-1) ** k * factorial(k - 1) * row[k] for k in range(1, n + 1))
    rhs = -1 if n == 1 else 0
    return IdentityReport(
        identity="stirling_alternating",
        params={"n": n},
        lhs=Fraction(lhs),
        rhs=Fraction(rhs),
    )


def _check_vanishing(b: Iterable[int]) -> IdentityReport:
    b = kappa_monomial(b)
    if len(b) < 1:
        raise ValueError("multiset must be nonempty")
    # blocks and block sums come canonical: the ring's int tables take them
    total = 0
    for blocks, count in _orbits(b, len(b)):
        term = count * _SOCLE[_split_sums(blocks)]
        for blk in blocks:
            term *= _CORRECTION[blk]
        total += term
    return IdentityReport(
        identity="vanishing",
        params={"b": list(b)},
        lhs=Fraction(total),
        rhs=Fraction(1 if len(b) == 1 else 0),
    )


def _check_ff_multinomial(xs: Iterable[int], n: int) -> IdentityReport:
    xs = tuple(natural(x, "xs", None) for x in xs)
    lhs = Fraction(falling_factorial(sum(xs), n))
    # each x's falling factorials of orders 0..n, built once per row
    falling = [list(itertools.accumulate((x - i for i in range(n)), operator.mul, initial=1)) for x in xs]
    return IdentityReport(
        identity="ff_multinomial",
        params={"xs": list(xs), "n": n},
        lhs=lhs,
        rhs=Fraction(_falling_multinomial_sum(falling, n) if falling else int(n == 0)),
    )


def _falling_multinomial_sum(rows: list[list[int]], left: int) -> int:
    """The sum over compositions k of left into len(rows) parts of
    multinomial(k) * prod(row[k_i]), one term per composition, by first part;
    the last row takes what is left."""
    if len(rows) == 1:
        return rows[0][left]
    first, rest = rows[0], rows[1:]
    # what the other rows sum to for each amount left to them: the last row itself
    tail = rest[0] if len(rest) == 1 else [_falling_multinomial_sum(rest, m) for m in range(left + 1)]
    return sum(comb(left, k) * first[k] * tail[left - k] for k in range(left + 1))


_CHECKS = {
    "binomial_product": _check_binomial_product,
    "tree_sum": _check_tree_sum,
    "stirling_alternating": _check_stirling_alternating,
    "vanishing": _check_vanishing,
    "ff_multinomial": _check_ff_multinomial,
}
IDENTITY_NAMES = tuple(_CHECKS)


def check_identity(name: str, **params) -> IdentityReport:
    """Evaluate both sides of the named identity exactly and report equality."""
    if name not in _CHECKS:
        raise ValueError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")
    return _CHECKS[name](**params)


class SweepBounds(NamedTuple):
    """Cost dials for the identity sweeps.

    Defaults match the package's acceptance bar; CI can lower them, larger
    values just take longer.
    """

    max_len: int = 5
    max_sum: int = 8
    max_entry: int = 4
    tree_max_len: int = 5
    tree_max_entry: int = 3
    stirling_max_n: int = 10
    vanishing_max_len: int = 5
    vanishing_max_entry: int = 4
    ff_bound: int = 5
    ff_max_n: int = 8
    ff3_bound: int = 2
    ff3_max_n: int = 5


def identity_sweep(bounds: SweepBounds = SweepBounds()) -> list[IdentityReport]:
    """Run every identity over its bounded parameter grid, deterministically ordered."""
    return [check_identity(name, **params) for name, params in identity_sweep_cases(bounds)]


def identity_sweep_cases(bounds: SweepBounds = SweepBounds()) -> list[tuple[str, dict]]:
    """The (name, params) grid behind identity_sweep, exposed so runs can fan out."""
    cases: list[tuple[str, dict]] = []
    for a in index_multisets(bounds.max_len, max_sum=bounds.max_sum, max_entry=bounds.max_entry):
        for k in range(1, len(a) + 1):
            cases.append(("binomial_product", {"a": list(a), "k": k}))
    for a in index_multisets(bounds.tree_max_len, max_entry=bounds.tree_max_entry):
        for k in range(1, len(a) + 1):
            cases.append(("tree_sum", {"a": list(a), "k": k}))
    for n in range(1, bounds.stirling_max_n + 1):
        cases.append(("stirling_alternating", {"n": n}))
    for b in index_multisets(bounds.vanishing_max_len, max_entry=bounds.vanishing_max_entry):
        cases.append(("vanishing", {"b": list(b)}))
    for x in range(-bounds.ff_bound, bounds.ff_bound + 1):
        for y in range(-bounds.ff_bound, bounds.ff_bound + 1):
            for n in range(bounds.ff_max_n + 1):
                cases.append(("ff_multinomial", {"xs": [x, y], "n": n}))
    for xs in itertools.product(range(-bounds.ff3_bound, bounds.ff3_bound + 1), repeat=3):
        for n in range(bounds.ff3_max_n + 1):
            cases.append(("ff_multinomial", {"xs": list(xs), "n": n}))
    return cases
