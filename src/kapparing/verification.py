"""Cross-validation sweeps tying the ring, the oracle, and the identities together.

Each function returns JSON-ready rows (dicts with a "pass" key) in a
deterministic order, so the CLI can emit them directly and fan the work out
to processes without changing the output.  A ring-sweep case walks its basis
partitions once, and in ``all`` its reconcile rows read that walk's values;
``basis_coeff`` validates each value the walk hands it, as for any caller.

The reconcile sweep sets two cutoffs (``TRUNCATION_VARIANTS``) against the
recursive value: ``partial_sum`` is the ``closed`` method, and the rejected
``single_binomial``, computed here only, shows with data that it is wrong.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .identities import SweepBounds, check_identity, identity_sweep_cases
from .numbers import binomial, format_rational
from .oracle import RankDeficientPairingError, integrate_kappa_top, pair_kappa_stratum, solve_coeffs_by_pairing
from .partitions import (
    Multiset,
    SetPartition,
    block_sums,
    index_multisets,
    kappa_monomial,
    multiset,
    natural,
    set_partitions,
)
from .ring import (
    _CHAIN_SUMS,
    METHODS,
    KappaPoly,
    basis_coeff,
    faber_expand,
    kappa_product,
    kappa_to_psi,
    socle_coeff,
)


TRUNCATION_VARIANTS = ("partial_sum", "single_binomial")
SUITES = ("identities", "ring", "oracle", "reconcile", "all")


class RingSweepBounds(NamedTuple):
    """Grid for the coefficient cross-method sweep."""

    max_len: int = 4
    max_sum: int = 6
    max_entry: int = 4
    max_budget: int = 4
    genus_lifts: tuple[int, ...] = (1, 2)


def _ring_multisets(bounds: RingSweepBounds) -> list[Multiset]:
    """The sweep's index multisets, ordered."""
    return list(index_multisets(bounds.max_len, max_sum=bounds.max_sum, max_entry=bounds.max_entry))


def ring_sweep_cases(bounds: RingSweepBounds = RingSweepBounds()) -> list[tuple[Multiset, int]]:
    """All (index multiset, degree budget) pairs in the sweep, ordered."""
    return [(a, d) for a in _ring_multisets(bounds) for d in range(1, bounds.max_budget + 1)]


def _basis_values(a: Multiset, d: int, methods: tuple[str, ...]) -> list[tuple[SetPartition, dict[str, Fraction]]]:
    """Each basis partition of a's positions (at most d blocks, in
    ``set_partitions`` order) with its ``basis_coeff`` by each of ``methods``."""
    a = kappa_monomial(a)
    return [
        (p, {m: basis_coeff(p, a, d, method=m) for m in methods})
        for p in set_partitions(len(a))
        if len(p) <= d
    ]


def check_methods_agree(a: Iterable[int], d: int, poly: KappaPoly | None = None, walk: list | None = None) -> dict:
    """One sweep case: all coefficient methods and the pairing solve must agree.

    Compares recursive/ck/closed per basis partition (``walk`` if given, from
    ``_basis_values``), then aggregates equal block-sum monomials and compares
    against the coefficients recovered from stratum pairings alone and against
    kappa_product itself (``poly`` if given).  The product by ``closed`` walks
    the orbits of equal values, not the labelled partitions aggregated here, so
    ``product_agrees`` checks one walk against the other.  A failing row also
    lists the values that disagree: ``method_mismatches`` and
    ``monomial_mismatches``.  A pairing system that cannot be built or solved
    fails ``pairing_agrees``, its message in ``pairing_error``.
    """
    a, d = multiset(a), natural(d, "d", 1)
    n = sum(a) + d + 2
    aggregated: dict[Multiset, Fraction] = {}
    method_mismatches = []
    for p, values in _basis_values(a, d, METHODS) if walk is None else walk:
        if len(set(values.values())) != 1:
            method_mismatches.append(
                {"partition": [list(blk) for blk in p], **{m: format_rational(v) for m, v in values.items()}}
            )
        key = block_sums(p, a)
        aggregated[key] = aggregated.get(key, Fraction(0)) + values["closed"]
    try:
        solved, pairing_error = solve_coeffs_by_pairing(a, n), None
    except RankDeficientPairingError as exc:
        solved, pairing_error = None, str(exc)
    poly = kappa_product(a, 0, n) if poly is None else poly
    pairing_ok, product_ok = solved is not None, True
    monomial_mismatches = []
    for mu in sorted(set(aggregated) | set(solved or ()) | set(poly.terms), key=lambda m: (-len(m), m)):
        columns = {"aggregated": aggregated.get(mu, Fraction(0))}
        if solved is not None:
            columns["pairing"] = solved.get(mu, Fraction(0))
        columns["product"] = poly.coefficient(mu)
        # without a pairing solve, the product is checked against the aggregate
        reference = columns.get("pairing", columns["aggregated"])
        agrees, matches = columns["aggregated"] == reference, columns["product"] == reference
        pairing_ok, product_ok = pairing_ok and agrees, product_ok and matches
        if not (agrees and matches):
            monomial_mismatches.append({"monomial": list(mu), **{k: format_rational(v) for k, v in columns.items()}})
    methods_ok = not method_mismatches
    row = {
        "check": "method_agreement",
        "a": list(a),
        "d": d,
        "marked": n,
        "methods_agree": methods_ok,
        "pairing_agrees": pairing_ok,
        "product_agrees": product_ok,
        "pass": methods_ok and pairing_ok and product_ok,
    }
    if method_mismatches:
        row["method_mismatches"] = method_mismatches
    if pairing_error:
        row["pairing_error"] = pairing_error
    if monomial_mismatches:
        row["monomial_mismatches"] = monomial_mismatches
    return row


def check_genus_lift(a: Iterable[int], d: int, genera: Iterable[int], base: KappaPoly | None = None) -> list[dict]:
    """kappa_product at each genus g must equal the genus-zero product at
    n + 2g (``base`` if given): one row per genus, in order, against it.  A
    failing row carries both products' terms."""
    a, d = multiset(a), natural(d, "d", 1)
    n = sum(a) + d + 2
    base = kappa_product(a, 0, n) if base is None else base
    rows = []
    for genus in genera:
        lifted = kappa_product(a, genus, n - 2 * genus) if n - 2 * genus >= 0 else None
        row = {
            "check": "genus_lift",
            "a": list(a),
            "d": d,
            "genus": genus,
            "marked": n - 2 * genus,
            "pass": bool(lifted is not None and lifted == base),
        }
        if not row["pass"]:
            row.update(lifted_terms=None if lifted is None else lifted.to_json_rows(), base_terms=base.to_json_rows())
        rows.append(row)
    return rows


def _ring_case(a: Multiset, d: int, genera: tuple[int, ...], reconcile: bool) -> tuple[dict, list[dict], list[dict]]:
    """One sweep case's method row, genus-lift rows and, if ``reconcile``, its
    reconcile rows, from one genus-zero base and one walk of the basis values."""
    base, walk = kappa_product(a, 0, sum(a) + d + 2), _basis_values(a, d, METHODS)
    reconciled = reconcile_case(a, d, walk) if reconcile else []
    return check_methods_agree(a, d, base, walk), check_genus_lift(a, d, genera, base), reconciled


def _top_degree_values(a: Multiset) -> tuple[Fraction, Fraction, Fraction]:
    """The top-degree value of kappa_a by two computations that share only
    ``partitions._first_blocks``, in three columns: the ring's socle
    coefficient, the oracle's integral at n = sum(a) + 3 over the orbits and
    the pairing against the one-component stratum.  That pairing reads a's
    pairing column, whose one-block entry is the shared socle value, so it
    repeats the first computation."""
    return socle_coeff(a), integrate_kappa_top(a, sum(a) + 3), pair_kappa_stratum(a, (sum(a),))


def check_top_degree(a: Multiset, values: tuple[Fraction, Fraction, Fraction]) -> dict:
    """At degree budget 1 the product collapses to socle_coeff(a) * kappa_{sum a},
    and the three columns of ``values = _top_degree_values(a)`` must give
    that number; the socle and the pairing are one computation, so this
    compares it with the oracle's integral once.  A failing row carries the
    product's terms and the integral and pairing columns next to the socle."""
    n = sum(a) + 3
    poly = kappa_product(a, 0, n)
    lam, integral, paired = values
    expected = KappaPoly({(sum(a),): lam}) if lam else KappaPoly.zero()
    ok = poly == expected and integral == lam and paired == lam
    row = {
        "check": "top_degree",
        "a": list(a),
        "marked": n,
        "socle": format_rational(lam),
        "pass": bool(ok),
    }
    if not ok:
        row.update(terms=poly.to_json_rows(), integral=format_rational(integral), pairing=format_rational(paired))
    return row


def check_round_trip(a: Iterable[int]) -> dict:
    """kappa -> psi -> kappa must reproduce the monomial exactly; a failing
    row carries the nonzero residual."""
    a = multiset(a)
    psi = kappa_to_psi(a)
    back = KappaPoly.zero()
    for key, coeff in psi.terms.items():
        back = back + coeff * faber_expand(key)
    residual = back - KappaPoly.monomial(a)
    row = {"check": "round_trip", "a": list(a), "pass": not residual}
    if residual:
        row["residual"] = residual.to_json_rows()
    return row


def random_round_trip_cases(count: int = 20, seed: int = 20240211) -> list[Multiset]:
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        length = rng.randint(1, 4)
        cases.append(multiset(rng.randint(1, 5) for _ in range(length)))
    return cases


def _single_binomial(p: SetPartition, a: Multiset, d: int) -> int:
    """closed's chain sum with trunc(len(t), len(r)) = (-1)**m * C(len(t) -
    len(r), m - len(r)) at m = min(len(t), d), which reads len(t) whole: the
    product of p's blocks' chain rows, summed by (len(r), len(t)), then the factor."""
    table = {(0, 0): 1}
    for blk in p:
        row, so_far, table = _CHAIN_SUMS[tuple(a[i] for i in blk)], table, {}
        for (len_r, len_t), weight in so_far.items():
            for (more_r, more_t), more in row:
                key = len_r + more_r, len_t + more_t
                table[key] = table.get(key, 0) + weight * more
    total = 0
    for (len_r, len_t), weight in table.items():
        m = min(len_t, d)
        total += (-1) ** (len(a) + len_t + len_r + m) * binomial(len_t - len_r, m - len_r) * weight
    return total


def reconcile_case(a: Iterable[int], d: int, walk: list | None = None) -> list[dict]:
    """Compare every closed-form truncation variant against the recursive value,
    one row per basis partition.  ``partial_sum`` is the ``closed`` value of
    ``walk`` (a ring case's ``_basis_values``) if given, else of its own walk."""
    a, d = kappa_monomial(a), natural(d, "d", 1)
    rows = []
    for p, values in _basis_values(a, d, ("recursive", "closed")) if walk is None else walk:
        reference = values["recursive"]
        row = {
            "a": list(a),
            "d": d,
            "partition": [list(blk) for blk in p],
            "recursive": format_rational(reference),
        }
        for variant, value in zip(TRUNCATION_VARIANTS, (values["closed"], _single_binomial(p, a, d))):
            row[variant] = format_rational(value)
            row[f"{variant}_matches"] = value == reference
        rows.append(row)
    return rows


def reconcile_sweep(
    bounds: RingSweepBounds = RingSweepBounds(), jobs: int = 1, pool=None
) -> tuple[list[dict], dict]:
    """Run the truncation reconciliation across the sweep, on ``jobs``
    processes: ``pool`` if given (see ``run_ordered``), else a pool of its
    own when ``jobs`` > 1.

    Returns (case rows, summary).  The summary names every variant that
    agrees with the recursive method on all rows; the expansion is healthy
    exactly when that list is ["partial_sum"].
    """
    nested = run_ordered(reconcile_case, ring_sweep_cases(bounds), jobs, pool)
    rows = [row for case_rows in nested for row in case_rows]
    return rows, summarize_reconcile(rows)


def summarize_reconcile(rows: list[dict]) -> dict:
    totals = {variant: sum(1 for row in rows if row[f"{variant}_matches"]) for variant in TRUNCATION_VARIANTS}
    fully = [variant for variant in TRUNCATION_VARIANTS if totals[variant] == len(rows)]
    return {
        "cases": len(rows),
        "matches": totals,
        "variants_fully_agreeing": fully,
        "pinned_variant": "partial_sum",
        "pass": fully == ["partial_sum"],
    }


def pinned_product_checks() -> list[dict]:
    """The two hand-pinned expansions of kappa_1^2, cross-checked by every oracle route."""
    a = (1, 1)
    # marked points, the expected product, and the oracle comparisons that must hold
    pins = (
        (5, {(2,): 5}, lambda _: _top_degree_values(a) == (5, 5, 5)),
        (6, {(1, 1): 1},
         lambda poly: poly.coefficient((2,)) == 0 and solve_coeffs_by_pairing(a, 6) == {(1, 1): 1, (2,): 0}),
    )
    rows = []
    for marked, expected, oracles_agree in pins:
        poly = kappa_product(a, 0, marked)
        ok = poly == KappaPoly(expected) and oracles_agree(poly)
        rows.append({"check": "pinned_product", "a": list(a), "genus": 0, "marked": marked,
                     "terms": poly.to_json_rows(), "pass": ok})
    return rows


def identity_case_worker(name: str, params: dict) -> dict:
    return check_identity(name, **params).to_json_dict()


def _process_pool(jobs: int):
    """A process pool of ``jobs`` workers, capped at the CPUs.  Its workers
    start at its first task; under the default fork start method each is a
    copy of this process as it then stands, memo tables and limit too."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))


def run_ordered(worker, cases, jobs: int = 1, pool=None) -> list:
    """``worker(*case)`` for every case, in order, on up to ``jobs`` processes.

    A pooled worker must be a module-level function so it can be pickled.
    ``pool`` is a pool of ``jobs`` workers that the caller opened with
    ``_process_pool`` and hands to each of its sweeps.  Without one, any
    ``jobs`` > 1 opens a pool for this call; its workers all start at once,
    so it is capped at the cases and the CPUs.  Either way any ``jobs`` > 1
    pools, so such a run always uses a child.  The cases go out in about
    four chunks per worker, not one by one.
    """
    if jobs <= 1 or len(cases) <= 1:
        return [worker(*case) for case in cases]
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    with contextlib.nullcontext(pool) if pool is not None else _process_pool(workers) as pool:
        return list(pool.map(worker, *zip(*cases), chunksize=math.ceil(len(cases) / (4 * workers))))


def determinism_spot_check(jobs: int = 2, pool=None) -> dict:
    """Recompute a fixed slice of identity cases on ``jobs`` processes
    (``pool`` if given) and compare the serialized rows byte for byte with
    the in-process results."""
    bounds = SweepBounds(
        max_len=2,
        max_sum=4,
        tree_max_len=2,
        vanishing_max_len=2,
        stirling_max_n=4,
    )
    cases = identity_sweep_cases(bounds)[:40]
    sequential = [identity_case_worker(*case) for case in cases]
    pooled = run_ordered(identity_case_worker, cases, jobs, pool)
    ok = json.dumps(sequential, sort_keys=True) == json.dumps(pooled, sort_keys=True)
    return {"check": "determinism", "cases": len(cases), "jobs": jobs, "pass": ok}


def run_suite(
    suite: str,
    identity_bounds: SweepBounds = SweepBounds(),
    ring_bounds: RingSweepBounds = RingSweepBounds(),
    jobs: int = 1,
) -> list[dict]:
    """Run one verification suite and return its rows.

    Suites (``SUITES``): ``identities`` (the five identity grids), ``ring`` (pinned
    products, method agreement, genus lifts, top degree, round trips),
    ``oracle`` (the ``socle_three_paths`` rows: the shared socle table,
    which the ring and pairing columns carry, against the oracle's
    integral), ``reconcile`` (truncation variants), ``all``.  In ``all`` the
    reconcile rows come from the ring cases' walk of the basis values, not
    from a second sweep.  An unknown suite raises ``ValueError``.

    Every sweep of the call runs on one process pool: ``all`` always opens
    one of ``max(jobs, 2)`` workers, as its ``determinism`` row recomputes
    cases on a pool and reports that size; the other suites open one only
    when ``jobs`` > 1.  The pool, capped at the CPUs, forks its workers at
    its first task, after the top-degree values are in this process's
    tables; what the workers compute stays in theirs.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if suite == "all":
        jobs = max(jobs, 2)
    with _process_pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        rows: list[dict] = []
        top = {}
        if suite in ("ring", "oracle", "all"):
            # one socle, integral and pairing per multiset, shared by the ring's
            # top-degree rows and the oracle's socle_three_paths rows
            top = {a: _top_degree_values(a) for a in _ring_multisets(ring_bounds)}
        if suite in ("identities", "all"):
            rows.extend(run_ordered(identity_case_worker, identity_sweep_cases(identity_bounds), jobs, pool))
        if suite in ("ring", "all"):
            rows.extend(pinned_product_checks())
            cases = [(a, d, ring_bounds.genus_lifts, suite == "all") for (a, d) in ring_sweep_cases(ring_bounds)]
            checked = run_ordered(_ring_case, cases, jobs, pool)
            rows.extend(row for row, _, _ in checked)
            rows.extend(row for _, lifts, _ in checked for row in lifts)
            for a, values in top.items():
                rows.append(check_top_degree(a, values))
            for a in random_round_trip_cases():
                rows.append(check_round_trip(a))
        if suite in ("oracle", "all"):
            for a, (lam, integral, paired) in top.items():
                rows.append(
                    {
                        "check": "socle_three_paths",
                        "a": list(a),
                        "ring": format_rational(lam),
                        "integral": format_rational(integral),
                        "pairing": format_rational(paired),
                        "pass": lam == integral == paired,
                    }
                )
        if suite == "reconcile":
            rows.append({"check": "reconcile_summary", **reconcile_sweep(ring_bounds, jobs, pool)[1]})
        if suite == "all":
            reconciled = [row for _, _, case_rows in checked for row in case_rows]
            rows.append({"check": "reconcile_summary", **summarize_reconcile(reconciled)})
            rows.append(determinism_spot_check(jobs, pool))
        return rows
