"""Set partitions of labeled index sets.

Partitions are the indexing backbone of every expansion formula in this
package: a kappa monomial with k indices is regrouped along set partitions
of the label set {0..k-1}.  Everything here is a plain immutable tuple in a
canonical form, so values can be dict keys and compared by ``==``.

Conventions:

* ``Multiset`` is a non-decreasing tuple of nonnegative integers.
* ``SetPartition`` is a tuple of blocks; each block is an ascending tuple of
  indices, blocks are ordered by their minimum element, and together they
  partition ``{0..k-1}``.  The empty tuple is the unique partition of the
  empty set.

``set_partitions`` builds every partition of {0..k-1} from those of
{0..k-2} by inserting k-1 into each block in turn and then into a block of
its own, which is restricted-growth-string order.

The public helpers validate their input; ``kappa_monomial`` is the one
validator of kappa monomials, and ``quote`` bounds the argument every error
message echoes.  Every value-only sum over set partitions in the ring and
the identities streams ``_local_partitions``: the splits of a sorted value
tuple in ``set_partitions`` order, with ``_split_sums`` as the monomial of a
split.  ``kappa_product`` splits the positions 0..k-1 the same way, since it
hands each partition to ``basis_coeff``; ``set_partitions`` itself serves
only the table behind ``_local_partitions`` and the verification rows that
print indices.  The oracle's sums depend on a split only through its
blocks' values, so it walks ``multiset_partitions`` instead: one term per
orbit of splits that agree up to equal values, weighted by the orbit's size.

``Memo`` is the package's one memo-table type: a dict that computes a missing
value on lookup and stores it up to ``COEFF_CACHE_LIMIT`` entries.  The
coefficient tables of :mod:`kapparing.ring`, the top-degree evaluations of
:mod:`kapparing.oracle` and the per-size partition table here are all Memos.

``_partition_weight_sums`` is the block DP behind the ring's socle and
correction coefficients: a sum over set partitions of per-block weights,
computed from the counts of each distinct value instead of term by term.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, prod
from operator import sub
from typing import Callable, Iterable, Iterator, Optional

Multiset = tuple[int, ...]
Block = tuple[int, ...]
SetPartition = tuple[Block, ...]


def multiset(values: Iterable[int]) -> Multiset:
    """Canonical multiset: entries sorted non-decreasing."""
    ms = tuple(sorted(values))
    for v in ms:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"multiset entries must be nonnegative integers, got {v!r}")
    return ms


def kappa_monomial(indices: Iterable[int]) -> Multiset:
    """Canonical kappa monomial: sorted indices, all >= 1; () is the unit."""
    ms = multiset(indices)
    if any(v < 1 for v in ms):
        raise ValueError(f"kappa indices must be >= 1, got {quote(ms)}")
    return ms


def quote(value: str | tuple) -> str:
    """repr(value) for an error message, cut to the first 60 characters of a
    longer string or the first 20 entries of a longer tuple, with its length,
    so a huge argument cannot flood the message."""
    limit, unit = (60, "characters") if isinstance(value, str) else (20, "entries")
    if len(value) <= limit:
        return repr(value)
    return f"{value[:limit]!r}... ({len(value)} {unit})"


def canonical_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Validate and canonicalize a set partition.

    Blocks must be nonempty, pairwise disjoint, and cover {0..k-1} where k is
    the total number of indices, and every index must be an int (not a bool).
    Raises ValueError otherwise.
    """
    blocks = [tuple(b) for b in blocks]
    for blk in blocks:
        for i in blk:
            if not isinstance(i, int) or isinstance(i, bool):
                raise ValueError(f"set partition indices must be integers, got {i!r}")
    normalized = sorted(tuple(sorted(b)) for b in blocks)
    seen: set[int] = set()
    total = 0
    for blk in normalized:
        if not blk:
            raise ValueError("set partition blocks must be nonempty")
        total += len(blk)
        seen.update(blk)
    if len(seen) != total:
        raise ValueError("set partition blocks must be pairwise disjoint")
    if seen and (min(seen) != 0 or max(seen) != total - 1):
        raise ValueError(f"set partition must cover 0..{total - 1}, got indices {quote(tuple(sorted(seen)))}")
    return tuple(normalized)


def ground_size(p: SetPartition) -> int:
    return sum(len(b) for b in p)


def set_partitions(k: int) -> Iterator[SetPartition]:
    """Stream every set partition of {0..k-1} exactly once, in canonical form.

    The order is restricted-growth-string order (Knuth, TAOCP 4A, 7.2.1.5),
    and the stream never materializes the full Bell-sized family.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _set_partitions(k)


def _set_partitions(k: int) -> Iterator[SetPartition]:
    """Insert the last element: each partition of {0..k-2} in turn, with k-1
    put into each of its blocks and then into a block of its own.  Block j
    is the growth-string value j, so this is growth-string order."""
    if k == 0:
        yield ()
        return
    last = k - 1
    for p in _set_partitions(last):
        for j, blk in enumerate(p):
            yield p[:j] + (blk + (last,),) + p[j + 1 :]
        yield p + ((last,),)


def multiset_partitions(a: Iterable[int]) -> Iterator[tuple[tuple[Multiset, ...], int]]:
    """Stream every partition of the multiset a into sub-multisets, each with
    its count of set partitions: the size of its orbit among the set
    partitions of a's positions when equal values are interchangeable.

    A partition is a tuple of blocks, each block a sorted value tuple.  A
    partition whose block B takes s_{B,v} of the c_v copies of each value v,
    and whose distinct blocks occur m_1, m_2, ... times, has the count

        prod_v c_v! / (prod_B prod_v s_{B,v}! * prod_i m_i!),

    so the counts sum to Bell(len(a)), while the partitions number only 42
    for ten equal values.  The enumerator is Knuth's Algorithm M (TAOCP 4A,
    7.2.1.5): the blocks come in decreasing lexicographic order of their
    multiplicity vectors, so equal blocks are adjacent.
    """
    return _multiset_partitions(multiset(a))


def _multiset_partitions(a: Multiset) -> Iterator[tuple[tuple[Multiset, ...], int]]:
    """Algorithm M on the counts of a's distinct values.

    The stack holds the blocks as vectors: block t gives value number c[j]
    the multiplicity v[j] for f[t] <= j < f[t + 1], out of the u[j] copies
    the blocks before it left over; [lo, hi) is the top block's range.  A
    visit rebuilds only the blocks that changed since the previous one, with
    denom[t + 1], the orbit count's denominator over blocks 0..t, and run[t],
    how many blocks before and including t equal block t.
    """
    if not a:
        yield (), 1
        return
    values = sorted(set(a))
    counts = [a.count(v) for v in values]
    numerator = prod(map(factorial, counts))
    size = len(values) * len(a) + 1
    c, u, v = [0] * size, [0] * size, [0] * size
    f = [0] * (len(a) + 2)
    # M1: the first block takes everything
    for j, count in enumerate(counts):
        c[j], u[j], v[j] = j, count, count
    lo, hi, level = 0, len(values), 0
    f[1] = hi
    blocks: list[Multiset] = []
    denom, run = [1], []
    while True:
        # M2-M3: push the largest block that fits in what is left, until
        # nothing is left
        while True:
            j, k, shrunk = lo, hi, False
            while j < hi:
                u[k] = u[j] - v[j]
                if u[k] == 0:
                    shrunk = True
                else:
                    c[k] = c[j]
                    v[k] = u[k] if shrunk else min(v[j], u[k])
                    shrunk = shrunk or u[k] < v[j]
                    k += 1
                j += 1
            if k == hi:
                break
            lo, hi, level = hi, k, level + 1
            f[level + 1] = hi
        # M4: visit
        for t in range(len(blocks), level + 1):
            span = range(f[t], f[t + 1])
            block = tuple(values[c[j]] for j in span for _ in range(v[j]))
            run[t:] = [run[t - 1] + 1 if t and blocks[t - 1] == block else 1]
            denom[t + 1 :] = [denom[t] * run[t] * prod(factorial(v[j]) for j in span)]
            blocks.append(block)
        yield tuple(blocks), numerator // denom[level + 1]
        # M5-M6: shrink the last block that can shrink, backtracking past
        # blocks that cannot, and let the blocks after it take the rest
        while True:
            j = hi - 1
            while v[j] == 0:
                j -= 1
            if j != lo or v[j] != 1:
                break
            if level == 0:
                return
            level -= 1
            lo, hi = f[level], lo
        v[j] -= 1
        for k in range(j + 1, hi):
            v[k] = u[k]
        del blocks[level:]


def refines(q: SetPartition, p: SetPartition) -> bool:
    """True iff every block of q lies inside a single block of p (q <= p)."""
    if ground_size(q) != ground_size(p):
        raise ValueError(
            f"partitions have different ground sets ({ground_size(q)} vs {ground_size(p)})"
        )
    owner = block_owner(p)
    try:
        return all(len({owner[e] for e in blk}) <= 1 for blk in q)
    except KeyError as exc:
        raise ValueError(f"index {exc.args[0]} missing from the other partition") from exc


def block_owner(p: SetPartition) -> dict[int, int]:
    """Map each index to the position of its block in p."""
    return {e: j for j, blk in enumerate(p) for e in blk}


def induced_partition(p: SetPartition, q: SetPartition) -> SetPartition:
    """Regroup q's blocks along p: a partition of {0..len(q)-1}.

    Position j stands for q's j-th block (canonical order); two positions
    share a block exactly when the corresponding q-blocks lie in a common
    p-block.  Requires q <= p; the result always has len(p) blocks.
    """
    if not refines(q, p):
        raise ValueError("induced_partition requires q to refine p")
    owner = block_owner(p)
    groups: dict[int, list[int]] = {}
    for j, blk in enumerate(q):
        groups.setdefault(owner[blk[0]], []).append(j)
    return canonical_partition(groups.values())


def refinements(p: SetPartition) -> Iterator[SetPartition]:
    """All q with q <= p, in a deterministic order.

    Built blockwise: a refinement of p is an independent partition of each
    p-block, taken in the order p lists its blocks.  p is validated once;
    each refinement is assembled in canonical form.
    """
    blocks = [tuple(blk) for blk in p]
    canonical_partition(blocks)
    for choice in itertools.product(*map(_local_partitions, blocks)):
        # p's blocks may be unsorted; sorted disjoint sub-blocks order by minimum
        yield tuple(sorted(tuple(sorted(sub)) for local in choice for sub in local))


# The size limit of every memo table, so a long sweep cannot grow one without
# bound; a lookup past it is computed and returned but not stored.
COEFF_CACHE_LIMIT = 1_000_000


class Memo(dict):
    """A memo table: looking up a missing key computes its value with
    ``compute(key)``, stores it while the table holds fewer than
    ``COEFF_CACHE_LIMIT`` entries, and returns it.

    Used as a decorator, it turns the function into the table of its values;
    every value-only partition walk shares the one behind _local_partitions.
    The tables hold deterministic exact values only, so concurrent lookups
    need no lock: at worst two threads compute the same value, and no
    interleaving can store a wrong one.
    """

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) < COEFF_CACHE_LIMIT:
            self[key] = value
        return value


def _partition_weight_sums(a: Multiset, weight: Callable[[Multiset], int]) -> list[int]:
    """For each m, the sum over the set partitions of a's positions into m
    blocks of the product of ``weight`` over the blocks' value multisets.

    Entry m of the returned list is that sum; the list runs to m = len(a).
    The terms depend on each block only through its values, so this is the
    exponential formula on sub-multisets (Stanley, EC2 5.1) rather than a
    Bell(len(a))-sized walk: a DP over the count left of each distinct value.
    The block holding the first remaining position takes t_0 >= 1 of the c_0
    copies of its value, one of which is that position, and t_j of the c_j
    copies of each larger value, in C(c_0-1, t_0-1) * prod C(c_j, t_j)
    labelled ways.  a is trusted canonical, and ``weight`` receives
    canonical multisets; everything is an integer.
    """
    values = sorted(set(a))

    # the weight of each block, by its counts of the distinct values
    @Memo
    def block_weight(take: tuple[int, ...]) -> int:
        return weight(tuple(v for v, t in zip(values, take) for _ in range(t)))

    @Memo
    def sums(counts: tuple[int, ...]) -> list[int]:
        if not any(counts):
            return [1]
        out = [0] * (sum(counts) + 1)
        first = next(j for j, c in enumerate(counts) if c)
        head, c0, tail = counts[:first], counts[first], counts[first + 1 :]
        for take in itertools.product(range(1, c0 + 1), *(range(c + 1) for c in tail)):
            ways = comb(c0 - 1, take[0] - 1) * block_weight[head + take]
            for c, t in zip(tail, take[1:]):
                ways *= comb(c, t)
            rest = head + tuple(map(sub, counts[first:], take))
            for m, s in enumerate(sums[rest], 1):
                out[m] += ways * s
        return out

    return sums[tuple(a.count(v) for v in values)]


# Every set partition of {0..m-1} in ``set_partitions`` order, by m.
_PARTITIONS_BY_SIZE = Memo(lambda m: tuple(set_partitions(m)))


def _local_partitions(values: tuple) -> Iterator[tuple[tuple, ...]]:
    """Stream every set partition of values' positions in ``set_partitions``
    order, as the tuple of its blocks' values.

    Positions ascend within a block, so the sorted values every caller
    passes give sorted blocks.  Applied to every block of p, one split per
    block makes one refinement of p.  Only up to 8 values go through the shared
    table: the 21,147 partitions of 9 elements take about 6.5 MB, which the
    table would hold for the life of the process; longer tuples stream.
    """
    m = len(values)
    parts = _PARTITIONS_BY_SIZE[m] if m <= 8 else set_partitions(m)
    return (tuple(tuple(values[i] for i in sub) for sub in local) for local in parts)


def _split_sums(split: Iterable[tuple]) -> Multiset:
    """The sorted block sums of a value split: the monomial it contributes to."""
    return tuple(sorted(map(sum, split)))


def blocks_within(fine: SetPartition, coarse: SetPartition) -> tuple[int, ...]:
    """For each coarse block (canonical order), the number of fine blocks inside it.

    Requires fine <= coarse.
    """
    if not refines(fine, coarse):
        raise ValueError("blocks_within requires the first partition to refine the second")
    owner = block_owner(coarse)
    counts = [0] * len(coarse)
    for blk in fine:
        counts[owner[blk[0]]] += 1
    return tuple(counts)


def block_sum_vector(p: SetPartition, a: Multiset) -> tuple[int, ...]:
    """Per-block sums of a-values, aligned with p's canonical block order."""
    if ground_size(p) != len(a):
        raise ValueError(f"partition of {ground_size(p)} indices against multiset of size {len(a)}")
    return tuple(sum(a[i] for i in blk) for blk in p)


def block_sums(p: SetPartition, a: Multiset) -> Multiset:
    """The multiset of per-block sums of a-values."""
    return multiset(block_sum_vector(p, a))


def block_values(p: SetPartition, a: Multiset, j: int) -> Multiset:
    """The multiset of a-values falling in p's j-th block."""
    return multiset(a[i] for i in p[j])


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    """Number of partitions of an n-set."""
    return sum(stirling2(n, k) for k in range(n + 1))


def index_multisets(
    max_len: int,
    max_sum: Optional[int] = None,
    max_entry: Optional[int] = None,
    min_len: int = 1,
) -> Iterator[Multiset]:
    """All canonical multisets with entries >= 1 within the given bounds.

    Used to parameterize verification sweeps; ordering is deterministic
    (by length, then lexicographic).
    """
    if max_sum is None and max_entry is None:
        raise ValueError("index_multisets needs max_sum or max_entry to bound the sweep")
    for length in range(min_len, max_len + 1):
        top = max_entry if max_entry is not None else max_sum
        for combo in itertools.combinations_with_replacement(range(1, top + 1), length):
            if max_sum is not None and sum(combo) > max_sum:
                continue
            yield combo
