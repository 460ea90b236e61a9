"""The kappa-ring algebra on moduli of curves of compact type.

A kappa monomial is a canonical multiset of indices >= 1 (the empty multiset
is the ring unit).  The central operation is ``kappa_product``: expand the
class kappa_{a_1}...kappa_{a_k} on the moduli space of genus g curves of
compact type with n marked points in the additive basis of kappa monomials
with at most d = 2g + n - sum(A) - 2 indices.  Positive genus enters only
through the reindexing n -> n + 2g; all coefficients are computed in the
genus-zero model.

The expansion coefficient of one basis partition can be computed three ways
(``basis_coeff`` methods):

* ``recursive`` - the triangular sum over refinements q <= p of
  socle(q) * correction([p:q]).
* ``ck``        - per-block aggregation: sum over compositions (k_i) with
  sum <= d of the product of per-block split weights.
* ``closed``    - the fully explicit sum over chains t <= r <= p, with an
  alternating factor cutting the expansion at d parts; each p-block's
  chains are summed once, into a polynomial.

The three must agree; the test suite and the ``reconcile`` sweep enforce it.
A coefficient depends on p only through its shape, the tuple of its blocks'
value multisets, and the methods see only that.  ``recursive`` splits each
block with the labelled walk ``partitions._splits``, the reference the
other methods are checked against.  ``ck`` and ``closed`` share one kernel,
``_truncated_total``, the product of per-block polynomials cut at z**d:
``ck``'s split weights, which contract a row of the block DP's
``_SOCLE_SPLITS`` with the correction values, and ``closed``'s chain rows.
``faber_expand``, ``kappa_to_psi`` and ``kappa_product`` by ``ck`` and
``closed`` walk ``partitions._orbits``, each orbit times its count of set
partitions, and ``kappa_product`` by ``recursive`` walks ``_splits(a)``;
``kappa_product`` calls ``basis_coeff`` once per term, on the walked shape.

``basis_coeff`` is public and validates its arguments, but it reads a p of
the private type ``_Shape``, which only ``kappa_product`` makes, as final;
any other p is a partition of a's positions, checked with a, method and d.

Every coefficient is an integer, and the kernels sum ints: the socle,
correction and split-weight values, the correction's moments, closed's
chain rows and per-block polynomials and the block DP's rows in
:mod:`kapparing.partitions` (shifted sums, socle splits) are int ``Memo``
tables, which the loops index directly; ``clear_coeff_caches`` empties
every live ``Memo``.  ``Fraction`` appears only in the public functions'
results: ``basis_coeff`` hands a ``_Shape``'s int to ``kappa_product``, whose
sums, like ``faber_expand``'s and ``kappa_to_psi``'s, get one Fraction per
monomial from the trusted ``_Combination._from_sums``.

The cutoff at d parts is the truncated alternating binomial sum.  The
rejected ``single_binomial`` cutoff does not multiply over blocks; only the
reconcile sweep in :mod:`kapparing.verification` computes it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Mapping, Optional, Union

from .numbers import _exact, factorial, format_rational, multinomial
from .partitions import (
    _MEMOS,
    _SHIFTED_SUMS,
    _SOCLE,
    _SOCLE_SPLITS,
    Memo,
    Multiset,
    SetPartition,
    _first_blocks,
    _orbits,
    _product_request,
    _split_sums,
    _splits,
    canonical_partition,
    ground_size,
    kappa_monomial,
    multiset,
    natural,
)

METHODS = ("recursive", "ck", "closed")

KappaMonomial = Multiset


class _Shape(tuple):
    """The shape of a basis partition: its blocks' value multisets, each
    canonical, as ``kappa_product``'s walk of a checked request yields them,
    with at most d blocks.  ``basis_coeff`` reads a p of exactly this type
    as final, checking neither it nor the method and d, and returns the
    kernel's int, not a Fraction.  Values of it go to ``basis_coeff`` only:
    no public function returns one, and no memo table keeps one."""

    __slots__ = ()


class _Combination:
    """A finite formal sum of monomial keys with exact rational coefficients.

    Keys equal up to order name one monomial, so their coefficients add up;
    each is an int or a Fraction, and a bool, float or str a ValueError.
    Zero coefficients are never stored; equality is term-by-term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Multiset, Union[int, Fraction]]] = None):
        summed: dict[Multiset, Union[int, Fraction]] = {}
        for key, coeff in (terms or {}).items():
            key, coeff = multiset(key), _exact(coeff, "coefficient")
            summed[key] = summed.get(key, 0) + coeff
        self.terms = {key: Fraction(coeff) for key, coeff in summed.items() if coeff}

    @classmethod
    def _from_sums(cls, sums: Mapping[Multiset, Union[int, Fraction]]):
        """The nonzero sums, one Fraction each, of the package's own canonical keys, unchecked."""
        combination = cls.__new__(cls)
        combination.terms = {key: Fraction(coeff) for key, coeff in sums.items() if coeff}
        return combination

    @classmethod
    def zero(cls):
        return cls()

    def coefficient(self, key: Iterable[int]) -> Fraction:
        return self.terms.get(multiset(key), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        combined = dict(self.terms)
        for key, coeff in other.terms.items():
            combined[key] = combined.get(key, 0) + coeff
        return type(self)._from_sums(combined)

    def __sub__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, scalar):
        scalar = _exact(scalar, "scalar")
        return type(self)._from_sums({key: scalar * coeff for key, coeff in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Multiset, Fraction]]:
        """Terms ordered by (length descending, lexicographic)."""
        return sorted(self.terms.items(), key=lambda item: (-len(item[0]), item[0]))

    def to_json_rows(self) -> list[dict]:
        return [
            {"monomial": list(key), "coefficient": format_rational(coeff)}
            for key, coeff in self.sorted_terms()
        ]

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"{coeff}*{key}" for key, coeff in self.sorted_terms())
        return f"{type(self).__name__}({body})"


class KappaPoly(_Combination):
    """Formal rational combination of kappa monomials."""

    @classmethod
    def unit(cls) -> "KappaPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def monomial(cls, indices: Iterable[int], coeff: Union[int, Fraction] = 1) -> "KappaPoly":
        return cls({kappa_monomial(indices): coeff})


class PsiPoly(_Combination):
    """Formal rational combination of pushed-forward psi monomials.

    Keys are the index multisets q of the classes obtained by pushing forward
    products of psi powers at forgotten points; they live in a different
    basis than kappa monomials, hence the separate type.
    """


def socle_coeff(a: Iterable[int]) -> Fraction:
    """Top-degree evaluation coefficient of a kappa monomial.

    In the top degree of the genus-zero model, kappa_A equals
    socle_coeff(A) times the single top kappa class.  It is the signed
    sum over set partitions p of the index set of the multinomial coefficient
    of the per-block sums each shifted by one:

        sum over p of (-1)**(len(A) + len(p)) * multinomial(|p_i| + 1).

    The empty multiset gives 1.
    """
    return Fraction(_SOCLE[kappa_monomial(a)])


def correction_coeff(a: Iterable[int]) -> Fraction:
    """Triangular correction coefficient of an index multiset.

    Signed sum over set partitions r of the index set, weighting each
    partition by (len(r) - 1)! and by the product over blocks of the
    multinomial coefficient of the block's entries each shifted by one:

        sum over r of (-1)**(len(A) + len(r)) * (len(r)-1)!
                      * prod_j multinomial(a_i + 1 for i in r_j).

    Single entries give 1; the empty multiset gives 1 by the empty-product
    convention.
    """
    a = kappa_monomial(a)
    return Fraction(_CORRECTION[a] if a else 1)


# Memo tables of the correction coefficients, their moments and the split
# weights, keyed by canonical monomials, which the internal loops build and
# index without validating again.  Every value is an int or a tuple of ints.
_MOMENT = Memo(lambda s: multinomial(v + 1 for v in s))


@Memo
def _CORRECTION(a: KappaMonomial) -> int:
    """correction_coeff by canonical monomial, trusted nonempty: (-1)**(len(a) - 1)
    times the cumulant of m(B) = multinomial(B + 1) (Speed, "Cumulants and
    partition lattices", 1983).  m(a) sums ways * cumulant(B) * m(a \\ B) over
    the blocks B that hold a's first position, so a's cumulant is m(a) less
    the terms of the smaller blocks, whose cumulants this table holds.  The
    moments come from ``_MOMENT``: one rest is left by the first blocks of
    many monomials."""
    cumulant = _MOMENT[a]
    for _, block, rest, ways in _first_blocks(a):
        if rest:
            cumulant -= (-1) ** (len(block) - 1) * ways * _CORRECTION[block] * _MOMENT[rest]
    return (-1) ** (len(a) - 1) * cumulant


@Memo
def _SPLIT_WEIGHT(a: KappaMonomial) -> tuple[int, ...]:
    """split_weight of a canonical monomial for every block count: entry
    k - 1 contracts a's socle-split row at k blocks with the correction."""
    weights = [0] * len(a)
    for sums, w in _SOCLE_SPLITS[a]:
        weights[len(sums) - 1] += w * _CORRECTION[sums]
    return tuple(weights)


def clear_coeff_caches() -> None:
    """Empty every memo table of the package, the oracle's pairing columns too."""
    for table in _MEMOS.values():
        table.clear()


def snapshot_coeff_caches() -> dict[str, dict[Multiset, int]]:
    return {"socle": dict(_SOCLE), "correction": dict(_CORRECTION)}


def faber_expand(q: Iterable[int]) -> KappaPoly:
    """Expand a pushed-forward psi monomial into kappa monomials.

    The class with psi exponents q_i + 1 at len(q) forgotten points equals the
    sum over permutations of the kappa monomial indexed by cycle sums.
    Grouping permutations by the set partition p of their cycle supports,
    each p carries prod_blocks (|block| - 1)! permutations:

        psi(q) = sum over p of prod_b (len(b) - 1)! * kappa_{block sums}.
    """
    terms: dict[Multiset, int] = {}
    q = kappa_monomial(q)
    for blocks, count in _orbits(q, len(q)):
        key = _split_sums(blocks)
        terms[key] = terms.get(key, 0) + count * prod(factorial(len(blk) - 1) for blk in blocks)
    return KappaPoly._from_sums(terms)


def kappa_to_psi(a: Iterable[int]) -> PsiPoly:
    """Inverse of faber_expand: a kappa monomial as a signed psi combination.

        kappa_A = sum over set partitions p of (-1)**(len(A) + len(p))
                  * psi(block sums of p).
    """
    a = kappa_monomial(a)
    terms: dict[Multiset, int] = {}
    for blocks, count in _orbits(a, len(a)):
        key = _split_sums(blocks)
        terms[key] = terms.get(key, 0) + (-count if (len(a) + len(blocks)) % 2 else count)
    return PsiPoly._from_sums(terms)


def split_weight(a: Iterable[int], k: int) -> Fraction:
    """Aggregate weight of splitting the multiset into exactly k groups.

    Sum over set partitions q with exactly k blocks of the product of the
    blocks' socle coefficients times the correction coefficient of the
    block-sum multiset.  These are the per-block building blocks of the
    ``ck`` expansion method.
    """
    a = kappa_monomial(a)
    k = natural(k, "k", 1, len(a))
    return Fraction(_SPLIT_WEIGHT[a][k - 1])


def _coeff_recursive(shape: tuple[Multiset, ...], d: int) -> int:
    total = 0
    # q <= p as one local partition per p-block; each local partition is
    # the group of q-blocks that one correction factor regroups
    for q in itertools.product(*map(_splits, shape)):
        if sum(map(len, q)) > d:
            continue
        weight = 1
        for local in q:
            for values in local:
                weight *= _SOCLE[values]
            weight *= _CORRECTION[_split_sums(local)]
        total += weight
    return total


def _truncated_total(vectors: list[tuple[int, ...]], d: int) -> int:
    """The sum of the z**0 .. z**d coefficients of the product of the blocks'
    sum_k vector[k - 1] * z**k, whose degree is at most len(a)."""
    top = min(d, sum(map(len, vectors)))
    product = [1] + [0] * top
    for vector in vectors:
        so_far, product = product, [0] * (top + 1)
        for k, c in enumerate(so_far):
            if c:
                # z**k times the block's z**(m - k), for m <= top
                for m, w in enumerate(vector[: top - k], k + 1):
                    product[m] += c * w
    return sum(product)


def _coeff_ck(shape: tuple[Multiset, ...], d: int) -> int:
    return _truncated_total([_SPLIT_WEIGHT[values] for values in shape], d)


def _chain_row(s: Multiset) -> tuple[tuple[tuple[int, int], int], ...]:
    """closed's chain row of s: the pairs ((j, i), w), where w sums (j - 1)!
    times the product of entry m_B of each block B's shifted row over the
    set partitions of s's positions into j blocks and the m_B adding up to
    i.  Adding B to a partition of s \\ B with j blocks turns (j - 1)! into j!."""
    if not s:
        return (((0, 0), 1),)
    out = {}
    for _, block, rest, ways in _first_blocks(s):
        terms = [(m, ways * v) for m, v in enumerate(_SHIFTED_SUMS[block]) if v]
        for (j, i), w in _CHAIN_SUMS[rest]:
            w *= j or 1
            for m, v in terms:
                key = j + 1, i + m
                out[key] = out.get(key, 0) + w * v
    return tuple(out.items())


_CHAIN_SUMS = Memo(_chain_row)


@Memo
def _CLOSED_WEIGHT(s: Multiset) -> tuple[int, ...]:
    """closed's polynomial of one p-block s, as ``_SPLIT_WEIGHT`` holds ck's:
    entry k - 1 is the z**k coefficient of (-1)**len(s) times the sum of
    w * (-1)**i * z**j * (1 - z)**(i - j) over s's chain row ((j, i), w)."""
    weights = [0] * len(s)
    for (j, i), w in _CHAIN_SUMS[s]:
        for m in range(i - j + 1):
            weights[j + m - 1] += (-1) ** (len(s) + i + m) * comb(i - j, m) * w
    return tuple(weights)


def _coeff_closed(shape: tuple[Multiset, ...], d: int) -> int:
    """The sum over chains t <= r <= p of

        (-1)**(k + len(t) + len(r)) * trunc(len(t), len(r))
            * prod over p-blocks of (r-blocks inside - 1)!
            * prod over r-blocks of (sum + t-blocks inside)!
            / prod over t-blocks of (sum + 1)!

    Within one r-block the shifted t-block sums add up to the r-block's sum
    plus its t-block count, so each r-block's factorial over its t-blocks'
    factorials is a multinomial and every term is an integer.  With
    trunc(i, j) the sum of (-1)**c * C(i - j, c - j) over c <= d, the signed
    factor sums the z**c coefficients of (-1)**(k + i) * z**j * (1 - z)**(i - j)
    over c <= d, which multiplies over p's blocks: r is chosen blockwise in
    p and t in r.  So each p-block enters as ``_CLOSED_WEIGHT`` of its
    chain row, and the shared kernel takes their truncated product.
    """
    return _truncated_total([_CLOSED_WEIGHT[values] for values in shape], d)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def basis_coeff(p: SetPartition, a: Iterable[int], d: int, method: str = "closed") -> Fraction:
    """Coefficient of the basis monomial indexed by p in the expansion of kappa_A.

    ``d`` is the degree budget (basis monomials have at most d indices);
    partitions with more than d blocks are outside the basis and rejected.
    All methods return the same value, a Fraction; for a ``_Shape`` p it is
    the kernel's int, which ``kappa_product`` sums.
    """
    if type(p) is _Shape:
        # kappa_product's walk hands the shape itself, of the request it checked
        shape = p
    else:
        _check_method(method)
        a = kappa_monomial(a)
        p = canonical_partition(p)
        if ground_size(p) != len(a):
            raise ValueError(f"partition covers {ground_size(p)} indices but the multiset has {len(a)}")
        # the blocks' value multisets, canonical since a is sorted and blocks ascend
        shape = tuple(tuple(a[i] for i in blk) for blk in p)
        if len(shape) > natural(d, "d", 1):
            raise ValueError(f"partition has {len(shape)} blocks, outside the basis range d={d}")
    kernel = _coeff_closed if method == "closed" else _coeff_recursive if method == "recursive" else _coeff_ck
    value = kernel(shape, d)
    return value if type(p) is _Shape else Fraction(value)


def kappa_product(
    a: Iterable[int],
    genus: int = 0,
    markings: int = 0,
    method: str = "closed",
) -> KappaPoly:
    """Expand the product kappa_{a_1}...kappa_{a_k} in the additive basis.

    With d = 2*genus + markings - sum(a) - 2: the zero polynomial when
    d <= 0 (the basis in that degree is empty); otherwise the sum over set
    partitions p with at most d blocks of basis_coeff(p) times the monomial
    of block sums, aggregated over equal monomials.  Every surviving monomial
    has degree sum(a) and at most d indices.  An unknown method is rejected
    in every degree.

    A term depends on p only through its shape, its blocks' value
    multisets, and both walks yield shapes.  ``recursive``, the labelled
    reference, walks ``_splits(a)``, the set partitions of a's positions in
    ``set_partitions`` order; ``ck`` and ``closed`` add count * basis_coeff(p)
    over the orbits of ``_orbits(a, d)``: 19 terms for twelve 1s at d = 3,
    where Bell(12) is 4,213,597.  It sums ints, one Fraction per monomial.
    """
    _check_method(method)
    a, _, d = _product_request(a, genus, markings)
    if d <= 0:
        return KappaPoly.zero()
    if method == "recursive":
        walk = ((blocks, 1) for blocks in _splits(a) if len(blocks) <= d)
    else:
        walk = _orbits(a, d)
    terms: dict[Multiset, int] = {}
    for blocks, count in walk:
        key = _split_sums(blocks)
        # a checked request's walk yields canonical shapes of at most d blocks: basis_coeff trusts them
        terms[key] = terms.get(key, 0) + count * basis_coeff(_Shape(blocks), a, d, method=method)
    return KappaPoly._from_sums(terms)


def reduce_to_basis(poly: KappaPoly, genus: int, markings: int, method: str = "closed") -> KappaPoly:
    """Rewrite every monomial of a polynomial in the additive basis.

    Linear over kappa_product; idempotent on polynomials already in the basis.
    """
    # reject a bad method, genus or marking count even when poly is zero
    _check_method(method)
    _product_request((), genus, markings)
    result = KappaPoly.zero()
    for mono, coeff in poly.terms.items():
        result = result + coeff * kappa_product(mono, genus, markings, method=method)
    return result
