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

``_splits`` is the one labelled walk: the set partitions of a value tuple's
positions in restricted-growth-string order, each as its blocks' values.
``set_partitions(k)`` is its walk of 0..k-1.

The public helpers validate their input.  ``natural`` is the package's one
integer rule: an integer argument is an ``int``, never a ``bool``, within
its bounds, and anything else is a ``ValueError`` naming the argument.
Every public entry point's integer arguments and the entries of every
``multiset`` go through it.  ``kappa_monomial`` is the one validator of
kappa monomials, and ``quote`` bounds the argument every error message
echoes.  ``_product_request`` is the one check of a product request (a,
then genus, then markings) and owns its budget d = 2g + n - sum(a) - 2:
``ring``'s product, the pairing solve and the CLI all call it.

A value-only sum over set partitions depends on a split only through its
blocks' values, so it walks ``_orbits``, one term per orbit of splits that
agree up to equal values, weighted by the orbit's size, or the block DP
below: the ring's Faber expansions, the oracle's integral and the three
partition-sum identities (binomial product, tree sum, vanishing) walk all
orbits, ``multiset_partitions`` is that walk, and ``kappa_product`` by
``ck`` and ``closed`` walks the orbits with at most d blocks.  The labelled
walk serves the sums where positions matter, with ``_split_sums`` as the
monomial of a split: ``recursive``'s splits of each block, the labelled
reference the other methods are checked against, and ``refinements`` take
``_splits`` of each block, and ``recursive``'s ``kappa_product`` walks
``_splits`` of a; only the verification rows that print indices take
``set_partitions``.

``_first_blocks(s)`` is the one cut behind the orbits and the block DP: the
blocks that hold s's first position (Stanley, EC2 5.1).  ``Memo`` is the
package's one memo-table type; a full one empties itself, and ``_MEMOS``
records every live one.  The block DP's shared Memos sum over set
partitions: by block count ``_SHIFTED_SUMS``, and by block sums
``_SOCLE_SPLITS``, whose keys ``_SPLIT_KEYS`` interns.  A row depends on
its multiset alone, so each table builds the row of s from its own rows of
s minus each first block, once per process.  ``_SOCLE`` sums the first;
``_SOCLE_SPLITS`` weighs a block by it.  ring's correction table and
closed's chain rows cut the same first blocks.  ``_PARTITION_COUNTS`` holds
p(total, <= m), the pairing system's full basis size.
"""

from __future__ import annotations

import itertools
import weakref
from math import comb, inf
from typing import Iterable, Iterator, Optional

Multiset = tuple[int, ...]
Block = tuple[int, ...]
SetPartition = tuple[Block, ...]


def natural(value, what: str, least: Optional[int] = 0, most: Optional[int] = None) -> int:
    """value, if it is an int (not a bool) in least..most; a bound of None is
    no bound.  Otherwise a ValueError naming the argument ``what``."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (least is not None and value < least)
        or (most is not None and value > most)
    ):
        bounds = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
        raise ValueError(f"{what}: must be integers{bounds}, got {value!r}")
    return value


def multiset(values: Iterable[int]) -> Multiset:
    """Canonical multiset: nonnegative integer entries, sorted non-decreasing."""
    values = tuple(values)
    for v in values:
        natural(v, "multiset entries")
    return tuple(sorted(values))


def kappa_monomial(indices: Iterable[int]) -> Multiset:
    """Canonical kappa monomial: sorted indices, all >= 1; () is the unit."""
    ms = multiset(indices)
    if any(v < 1 for v in ms):
        raise ValueError(f"kappa indices must be >= 1, got {quote(ms)}")
    return ms


def _product_request(a: Iterable[int], genus: int, markings: int) -> tuple[Multiset, int, int]:
    """Check a product request (a, then genus, then markings) and return the
    canonical a, the genus-zero marking count n + 2g and the budget d."""
    a = kappa_monomial(a)
    n = 2 * natural(genus, "genus") + natural(markings, "markings")
    return a, n, n - sum(a) - 2


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
    the total number of indices, and every index must pass ``natural``.
    Raises ValueError otherwise.
    """
    blocks = [tuple(b) for b in blocks]
    for blk in blocks:
        for i in blk:
            natural(i, "set partition indices")
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
    return _splits(tuple(range(natural(k, "k"))))


def _splits(values: tuple) -> Iterator[tuple[tuple, ...]]:
    """Stream every set partition of values' positions, as the tuple of its
    blocks' values: each split of values[:-1] in turn, with the last value
    put into each of its blocks and then into a block of its own, so block j
    is growth-string value j.  Positions ascend within a block."""
    if not values:
        yield ()
        return
    last = values[-1]
    for p in _splits(values[:-1]):
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
    for ten equal values.  The blocks come in decreasing lexicographic order
    of their multiplicity vectors, so equal blocks are adjacent, and the
    partitions in decreasing order of their blocks' vectors, the order of
    Knuth's Algorithm M (TAOCP 4A, 7.2.1.5); ``_orbits`` walks them.
    """
    a = multiset(a)
    return _orbits(a, len(a))


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
    for choice in itertools.product(*map(_splits, blocks)):
        # p's blocks may be unsorted; sorted disjoint sub-blocks order by minimum
        yield tuple(sorted(tuple(sorted(sub)) for local in choice for sub in local))


# The size limit of every Memo, so that a long sweep cannot grow one without bound
COEFF_CACHE_LIMIT = 1_000_000


class Memo(dict):
    """A memo table: looking up a missing key computes its value with
    ``compute(key)``, stores it, and returns it.  A table that already holds
    ``COEFF_CACHE_LIMIT`` entries is emptied first, so none grows past the
    limit and none stops caching for good.

    Used as a decorator, it turns the function into the table of its values.
    Every live table is recorded in ``_MEMOS``, which ring's
    clear_coeff_caches() empties; the registry holds it weakly, so a table
    that its maker drops is freed with its contents.
    The tables hold deterministic exact values only, so concurrent lookups
    need no lock: at worst two threads compute the same value, and no
    interleaving can store a wrong one.  A table emptied in the middle of a
    lookup only costs its rows again: a row, once read, is a local value.
    """

    __slots__ = ("compute", "__weakref__")

    def __init__(self, compute):
        super().__init__()
        self.compute = compute
        _MEMOS[id(self)] = self

    def __missing__(self, key):
        value = self.compute(key)
        if len(self) >= COEFF_CACHE_LIMIT:
            self.clear()
        self[key] = value
        return value


# id -> live table: a Memo is a dict, unhashable and equal by contents, so it
# is keyed by identity, not held in a WeakSet
_MEMOS: weakref.WeakValueDictionary[int, Memo] = weakref.WeakValueDictionary()


def _first_blocks(s: Multiset) -> list[tuple[int, Multiset, Multiset, int]]:
    """Each block B that holds s's first position, as (sum(B), B, s \\ B, ways).

    B takes t_0 >= 1 of the c_0 copies of s's first value, that position
    among them, and t_j of the c_j copies of each larger value, in
    C(c_0 - 1, t_0 - 1) * prod C(c_j, t_j) labelled ways.  It takes each
    value's first copies, so B and s \\ B, joined from slices of s, are
    canonical.  Each run of one value extends the blocks built from the
    runs before it, so the blocks come in increasing lexicographic order of
    their multiplicity vectors.  s is trusted canonical and nonempty."""
    out = [(0, (), (), 1)]
    i = 0
    while i < len(s):
        j = i + 1
        while j < len(s) and s[j] == s[i]:
            j += 1
        # the run s[i:j] of one value; its first cut leaves s[0] in B
        value, lo = s[i], max(i, 1)
        out = [
            (total + value * (cut - i), block + s[i:cut], rest + s[cut:j], ways * comb(j - lo, cut - lo))
            for total, block, rest, ways in out
            for cut in range(lo, j + 1)
        ]
        i = j
    return out


# A marker above every value: block B's multiplicity vector is at most C's
# exactly when B + _END >= C + _END as tuples
_END = (inf,)


def _orbits(
    s: Multiset, most: int, blocks: tuple = (), count: int = 1, run: int = 0
) -> Iterator[tuple[tuple[Multiset, ...], int]]:
    """The partitions of s into at most ``most`` >= 1 blocks up to equal
    values, as (blocks, count): one per orbit of the set partitions of s's
    positions, with the orbit's size, in ``multiset_partitions``' order.

    A partition lists its blocks by decreasing multiplicity vector, so each
    block holds the first position of what the blocks before it leave.  The
    walk cuts off each of ``_first_blocks(s)``, in decreasing order, that is
    at most the block before, and walks what is left; the last block allowed
    takes everything.  A cut block is one of ways * c_0 / t_0 =
    C(c_0, t_0) * prod C(c_j, t_j) labelled blocks, and dividing by the
    length of each run of equal blocks as it grows leaves the orbit's size.
    ``blocks`` and ``count`` are the partition cut so far and its count, and
    its last ``run`` blocks are equal.  s is trusted canonical."""
    if most == 1 or not s:
        # only a call from outside gets here: the walk takes its last block inline
        yield (s,) if s else (), 1
        return
    last = blocks[-1] + _END if blocks else ()
    first, copies = s[0], s.count(s[0])
    for _, block, rest, ways in reversed(_first_blocks(s)):
        key = block + _END
        if key < last:
            continue
        same = run + 1 if key == last else 1
        more = count * ways * copies // block.count(first) // same
        if not rest:
            yield blocks + (block,), more
        elif most > 2:
            yield from _orbits(rest, most - 1, blocks + (block,), more, same)
        elif (tail := rest + _END) >= key:
            # the last block takes the rest inline: a generator per orbit costs more than the orbit
            yield blocks + (block, rest), more // (same + 1) if tail == key else more


def _shifted_row(s: Multiset) -> tuple[int, ...]:
    """Entry m: the sum, over the set partitions of s's positions into m
    blocks, of the shifted multinomial of the block sums, multinomial(s_B + 1).
    A split of sum R into m blocks has (R + m)! / prod (s_B + 1)!: its first
    block, of sum b, takes C(R + m, b + 1), and the rest the multinomial of
    its m - 1 blocks, so every value stays at the size of the answer."""
    if not s:
        return (1,)
    out = [0] * (len(s) + 1)
    total = sum(s)
    for block_sum, _, rest, ways in _first_blocks(s):
        shift = block_sum + 1
        for m, w in enumerate(_SHIFTED_SUMS[rest], 1):
            out[m] += ways * comb(total + m, shift) * w
    return tuple(out)


def _socle_split_row(s: Multiset) -> tuple[tuple[Multiset, int], ...]:
    """The pairs (sums, w): w sums prod _SOCLE[B] over the set partitions of
    s's positions with sorted block sums ``sums``, in (length, lex) order,
    so the last is (s, 1), the singletons, each of socle 1.  ck's split
    weights and the oracle's pairing system read these rows."""
    if not s:
        return (((), 1),)
    out = {}
    for block_sum, block, rest, ways in _first_blocks(s):
        weight = ways * _SOCLE[block]
        for sums, w in _SOCLE_SPLITS[rest]:
            key = _SPLIT_KEYS[tuple(sorted(sums + (block_sum,)))]
            out[key] = out.get(key, 0) + weight * w
    return tuple(sorted(out.items(), key=lambda pair: (len(pair[0]), pair[0])))


# The block DP's shared tables, and the socle, the signed sum of the shifted row
_SHIFTED_SUMS = Memo(_shifted_row)
_SOCLE = Memo(lambda s: sum((-1) ** (len(s) + m) * w for m, w in enumerate(_SHIFTED_SUMS[s])))
_SOCLE_SPLITS = Memo(_socle_split_row)
# One object per distinct block-sum key of the socle-split rows: a cold
# solve of twenty 1s stores 248,537 keys, of which 2,714 are distinct
_SPLIT_KEYS = Memo(lambda key: key)


@Memo
def _PARTITION_COUNTS(key: tuple[int, int]) -> int:
    """p(total, <= max_parts) by key (total, max_parts), counted as its
    conjugates, the partitions of total into parts <= max_parts, adding one
    part size at a time."""
    total, max_parts = key
    ways = [1] + [0] * total
    for part in range(1, min(max_parts, total) + 1):
        for s in range(part, total + 1):
            ways[s] += ways[s - part]
    return ways[total]


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
    p = canonical_partition(p)
    if ground_size(p) != len(a):
        raise ValueError(f"partition of {ground_size(p)} indices against multiset of size {len(a)}")
    return tuple(sum(a[i] for i in blk) for blk in p)


def block_sums(p: SetPartition, a: Multiset) -> Multiset:
    """The multiset of per-block sums of a-values."""
    return multiset(block_sum_vector(p, a))


def block_values(p: SetPartition, a: Multiset, j: int) -> Multiset:
    """The multiset of a-values falling in p's j-th block."""
    return multiset(a[i] for i in p[j])


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    natural(n, "n")
    natural(k, "k")
    return _stirling_row(n, k)[k] if k <= n else 0


# stirling2 keeps no cache, but perfbench/run.py still resets its former lru_cache
stirling2.cache_clear = lambda: None


def _stirling_row(n: int, k: int) -> list[int]:
    """stirling2(n, j) for j = 0..k, row by row from n = 0, not by recursion."""
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row


def index_multisets(
    max_len: int,
    max_sum: Optional[int] = None,
    max_entry: Optional[int] = None,
    min_len: int = 1,
) -> Iterator[Multiset]:
    """All canonical multisets with entries >= 1 within the given bounds.

    Used to parameterize verification sweeps; ordering is deterministic
    (by length, then lexicographic).  The bounds are checked at the call,
    before the first item.
    """
    if max_sum is None and max_entry is None:
        raise ValueError("index_multisets needs max_sum or max_entry to bound the sweep")
    max_len, min_len = natural(max_len, "max_len"), natural(min_len, "min_len")
    max_sum = max_sum if max_sum is None else natural(max_sum, "max_sum")
    top = max_sum if max_entry is None else natural(max_entry, "max_entry")
    return (
        combo
        for length in range(min_len, max_len + 1)
        for combo in itertools.combinations_with_replacement(range(1, top + 1), length)
        if max_sum is None or sum(combo) <= max_sum
    )
