import contextlib
import os
import signal
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from kapparing import partitions, ring, verification
from kapparing.ring import KappaPoly
from kapparing.verification import check_methods_agree

from test_anchors import ANCHOR_GRID, anchor_mismatches
from test_partitions import test_multiset_partitions_are_the_orbits_of_set_partitions as orbits_are_the_labelled_shapes

PASSING_KEYS = ["check", "a", "d", "marked", "methods_agree", "pairing_agrees", "product_agrees", "pass"]

# identity grids kept small where only the ring and reconcile rows matter
SMALL_IDENTITIES = verification.SweepBounds(max_len=1, max_sum=2)


def test_passing_method_row_carries_only_the_verdicts():
    row = check_methods_agree((1, 1, 2), 2)
    assert row["pass"] is True
    assert list(row) == PASSING_KEYS


def test_failing_method_row_carries_the_disagreeing_values(monkeypatch):
    basis_coeff = verification.basis_coeff
    solve = verification.solve_coeffs_by_pairing

    def skewed_basis_coeff(p, a, d, method="closed", **kwargs):
        value = basis_coeff(p, a, d, method=method, **kwargs)
        return value + 1 if method == "ck" and p == ((0, 1),) else value

    def skewed_solve(a, n):
        solved = solve(a, n)
        solved[(1, 1)] += Fraction(1, 2)
        return solved

    monkeypatch.setattr(verification, "basis_coeff", skewed_basis_coeff)
    monkeypatch.setattr(verification, "solve_coeffs_by_pairing", skewed_solve)
    row = check_methods_agree((1, 1), 2)
    assert row["pass"] is False
    assert not row["methods_agree"] and not row["pairing_agrees"] and not row["product_agrees"]
    assert row["method_mismatches"] == [{"partition": [[0, 1]], "recursive": "0/1", "ck": "1/1", "closed": "0/1"}]
    assert row["monomial_mismatches"] == [
        {"monomial": [1, 1], "aggregated": "1/1", "pairing": "3/2", "product": "1/1"}
    ]


def test_failing_genus_lift_row_carries_both_products(monkeypatch):
    kappa_product = verification.kappa_product

    def skewed_kappa_product(a, genus, n, **kwargs):
        poly = kappa_product(a, genus, n, **kwargs)
        return poly + KappaPoly.monomial((2,)) if genus == 1 else poly

    monkeypatch.setattr(verification, "kappa_product", skewed_kappa_product)
    passing, failing = verification.check_genus_lift((1, 1), 2, (2, 1))
    assert list(passing) == ["check", "a", "d", "genus", "marked", "pass"] and passing["pass"] is True
    assert failing["pass"] is False
    assert failing["lifted_terms"] == [
        {"monomial": [1, 1], "coefficient": "1/1"},
        {"monomial": [2], "coefficient": "1/1"},
    ]
    assert failing["base_terms"] == [{"monomial": [1, 1], "coefficient": "1/1"}]


def test_failing_top_degree_row_carries_the_product_and_the_three_tops():
    values = verification._top_degree_values((1, 1))
    assert values == (5, 5, 5)
    passing = verification.check_top_degree((1, 1), values)
    assert list(passing) == ["check", "a", "marked", "socle", "pass"] and passing["pass"] is True
    failing = verification.check_top_degree((1, 1), (5, 6, 5))
    assert failing == {
        **passing,
        "pass": False,
        "terms": [{"monomial": [2], "coefficient": "5/1"}],
        "integral": "6/1",
        "pairing": "5/1",
    }


def test_failing_round_trip_row_carries_the_residual(monkeypatch):
    faber_expand = verification.faber_expand

    def skewed_faber_expand(q):
        poly = faber_expand(q)
        return poly + KappaPoly.monomial((7,)) if tuple(q) == (2,) else poly

    passing = verification.check_round_trip((1, 1))
    assert passing == {"check": "round_trip", "a": [1, 1], "pass": True}
    monkeypatch.setattr(verification, "faber_expand", skewed_faber_expand)
    # kappa_1^2 = psi(1, 1) - psi(2), so the skew comes back with sign -1
    failing = verification.check_round_trip((1, 1))
    assert failing == {**passing, "pass": False, "residual": [{"monomial": [7], "coefficient": "-1/1"}]}


def test_reconcile_sweep_is_the_same_on_one_or_two_processes_and_in_run_suite():
    for bounds in (verification.RingSweepBounds(), verification.RingSweepBounds(max_len=3, max_sum=4)):
        rows, summary = verification.reconcile_sweep(bounds)
        assert verification.reconcile_sweep(bounds, jobs=2) == (rows, summary)
        assert summary["pass"] is True and summary["cases"] == len(rows) > 0
        expected = {"check": "reconcile_summary", **summary}
        (suite_row,) = verification.run_suite("reconcile", ring_bounds=bounds)
        assert suite_row == expected
        # all reads its reconcile rows off the ring cases' walk, forked or not
        for jobs in (1, 2):
            rows_all = verification.run_suite("all", SMALL_IDENTITIES, bounds, jobs)
            assert [row for row in rows_all if row.get("check") == "reconcile_summary"] == [expected], (bounds, jobs)


def test_all_reads_partial_sum_off_the_closed_column(monkeypatch):
    basis_coeff = verification.basis_coeff

    def skewed_basis_coeff(p, a, d, method="closed"):
        value = basis_coeff(p, a, d, method=method)
        return value + 1 if (method, p) == ("closed", ((0, 1),)) else value

    monkeypatch.setattr(verification, "basis_coeff", skewed_basis_coeff)
    bounds = verification.RingSweepBounds(max_len=2, max_sum=3, max_budget=2)
    rows, summary = verification.reconcile_sweep(bounds)
    skewed = sum(1 for row in rows if row["partition"] == [[0, 1]])
    assert skewed > 0 and summary["matches"]["partial_sum"] == summary["cases"] - skewed
    # a ring case hands reconcile_case the closed value it walked, not the
    # ck or the recursive one
    cases = verification.ring_sweep_cases(bounds)
    walked = [verification._ring_case(a, d, bounds.genus_lifts, True) for a, d in cases]
    assert [row for *_, case_rows in walked for row in case_rows] == rows
    assert {"check": "reconcile_summary", **summary} in verification.run_suite("all", SMALL_IDENTITIES, bounds)


@pytest.mark.parametrize("suite, values", [("all", 987), ("ring", 987), ("reconcile", 658)])
def test_each_suite_computes_each_basis_value_once(monkeypatch, serial_fork, suite, values):
    # all always forks for its sweeps, so the spies need its work in this process
    calls, walks, sweeps = [], [], []
    basis_coeff = verification.basis_coeff
    set_partitions = verification.set_partitions
    reconcile_sweep = verification.reconcile_sweep

    def counting_basis_coeff(p, a, d, method="closed"):
        calls.append((p, a, d, method))
        return basis_coeff(p, a, d, method=method)

    def counting_set_partitions(k):
        walks.append(k)
        return set_partitions(k)

    def counting_reconcile_sweep(*args):
        sweeps.append(args)
        return reconcile_sweep(*args)

    monkeypatch.setattr(verification, "basis_coeff", counting_basis_coeff)
    monkeypatch.setattr(verification, "set_partitions", counting_set_partitions)
    monkeypatch.setattr(verification, "reconcile_sweep", counting_reconcile_sweep)
    verification.run_suite(suite, SMALL_IDENTITIES)
    # one call per distinct argument: 329 basis partitions by recursive, ck
    # and closed in ring and in all, whose reconcile rows read that walk;
    # recursive and closed in reconcile, whose rejected cutoff is no
    # basis_coeff method
    assert len(calls) == len(set(calls)) == values
    # one walk of the basis partitions per sweep case
    assert len(walks) == len(verification.ring_sweep_cases())
    assert len(sweeps) == (suite == "reconcile")


PER_CASE_CHECKS = {
    "check_methods_agree": lambda d: verification.check_methods_agree((1, 1), d),
    "reconcile_case": lambda d: verification.reconcile_case((1, 1), d),
    "check_genus_lift": lambda d: verification.check_genus_lift((1, 1), d, (1, 2)),
}


@pytest.mark.parametrize("name", PER_CASE_CHECKS)
@pytest.mark.parametrize("d", [0, -1, True, 1.0])
def test_per_case_checks_refuse_a_budget_with_no_basis(monkeypatch, name, d):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before d was checked")

    for work in ("basis_coeff", "set_partitions", "kappa_product", "solve_coeffs_by_pairing"):
        monkeypatch.setattr(verification, work, no_work)
    with pytest.raises(ValueError, match="^d: must be integers >= 1"):
        PER_CASE_CHECKS[name](d)


def test_ring_and_oracle_suites_share_one_top_degree_integral_per_multiset(monkeypatch, serial_fork):
    calls = []
    integrate = verification.integrate_kappa_top

    def counting_integrate(a, n):
        calls.append(tuple(a))
        return integrate(a, n)

    monkeypatch.setattr(verification, "integrate_kappa_top", counting_integrate)
    bounds = verification.RingSweepBounds(max_len=2, max_sum=3, max_budget=1)
    multisets = [(1,), (2,), (3,), (1, 1), (1, 2)]
    rows = verification.run_suite("all", verification.SweepBounds(max_len=1, max_sum=2), bounds)
    # once per multiset, and (1, 1) once more for the hand-pinned product row
    assert sorted(calls) == sorted(multisets + [(1, 1)])
    top = [row for row in rows if row.get("check") == "top_degree"]
    three_paths = [row for row in rows if row.get("check") == "socle_three_paths"]
    assert [row["a"] for row in top] == [row["a"] for row in three_paths] == [list(a) for a in multisets]
    assert all(row["pass"] for row in top + three_paths)


def test_run_suite_refuses_an_unknown_suite_naming_the_valid_ones():
    # an unknown suite is an error, not an empty report that passes
    with pytest.raises(ValueError, match="unknown suite 'bogus'") as info:
        verification.run_suite("bogus")
    for suite in ("identities", "ring", "oracle", "reconcile", "all"):
        assert repr(suite) in str(info.value), suite


def test_run_ordered_unpacks_each_case_as_arguments():
    cases = [((1, 1), 2, (1, 2)), ((1, 2), 3, (1,))]
    expected = [verification.check_genus_lift(*case) for case in cases]
    # one row per genus, in the order given
    assert [[row["genus"] for row in rows] for rows in expected] == [[1, 2], [1]]
    assert verification.run_ordered(verification.check_genus_lift, cases, 1) == expected
    assert verification.run_ordered(verification.check_genus_lift, cases, 2) == expected


def test_ring_suite_expands_each_genus_zero_base_once(monkeypatch):
    calls = []
    kappa_product = verification.kappa_product

    def counting_kappa_product(a, genus, n, **kwargs):
        calls.append((tuple(a), genus, n))
        return kappa_product(a, genus, n, **kwargs)

    monkeypatch.setattr(verification, "kappa_product", counting_kappa_product)
    bounds = verification.RingSweepBounds(max_len=2, max_sum=3, max_budget=2, genus_lifts=(1, 2))
    rows = verification.run_suite("ring", ring_bounds=bounds)
    cases = verification.ring_sweep_cases(bounds)
    multisets = {a for a, _ in cases}
    # per case: one genus-zero base, shared by the method check and the
    # genus lifts, and one lift per genus; then one top-degree row per
    # multiset and the two pinned rows
    assert len(calls) == len(cases) * (1 + len(bounds.genus_lifts)) + len(multisets) + 2
    lifts = [row for row in rows if row["check"] == "genus_lift"]
    assert [(row["a"], row["d"], row["genus"]) for row in lifts] == [
        (list(a), d, g) for a, d in cases for g in bounds.genus_lifts
    ]
    assert all(row["pass"] for row in rows)


@pytest.mark.parametrize(
    "jobs, cases, cpus, workers",
    [(100_000, 5, 2, 2), (100_000, 3, 64, 3), (4, 10, 64, 4), (3, 10, None, 1), (1, 5, 64, None), (2, 100, 2, 2)],
)
def test_run_ordered_caps_the_pool_at_the_cases_and_the_cpus(monkeypatch, serial_fork, jobs, cases, cpus, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    seen = []

    def square(i):
        seen.append(i)
        return i * i

    assert verification.run_ordered(square, [(i,) for i in range(cases)], jobs) == [i * i for i in range(cases)]
    # any jobs > 1 still forks, even down to one worker
    assert serial_fork == ([] if workers is None else [workers])
    # child k computes cases k, k + workers, k + 2 * workers, ...
    assert seen == [i for k in range(workers or 1) for i in range(k, cases, workers or 1)]


def test_run_ordered_runs_in_process_where_there_is_no_fork(monkeypatch, serial_fork):
    monkeypatch.delattr(os, "fork")
    assert verification.run_ordered(pow, [(i, 2) for i in range(5)], 4) == [i * i for i in range(5)]
    assert serial_fork == []


def fail_at_three(i):
    if i == 3:
        raise ValueError(f"case {i} failed")
    return i


def exit_at_one(i):
    if i == 1:
        os._exit(3)
    return i


def open_descriptors():
    """How many file descriptors this process holds, or None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize(
    "worker, raised",
    [
        (abs, contextlib.nullcontext()),
        (fail_at_three, pytest.raises(ValueError, match="^case 3 failed$")),
        (exit_at_one, pytest.raises(RuntimeError, match="exited with status 3 before sending its results")),
    ],
)
def test_a_fan_out_reaps_every_child_and_closes_every_pipe(worker, raised):
    # real forks: a case's exception, or a child that ends without sending,
    # reaches the caller once every child has ended, and leaves nothing open
    def hung(signum, frame):
        raise TimeoutError("run_ordered still waiting after 60 s")

    descriptors = open_descriptors()
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with raised:
            assert verification.run_ordered(worker, [(i,) for i in range(6)], 2) == list(range(6))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if descriptors is not None:
        assert open_descriptors() == descriptors


def test_unflushed_stdout_comes_out_once_not_once_per_child():
    code = (
        "import sys\n"
        "from kapparing import verification\n"
        "sys.stdout.write('written before the fork\\n')\n"
        "print(verification.run_ordered(abs, [(-1,), (-2,), (-3,)], 2))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    # PYTHONUNBUFFERED would flush the text before the fork and hide a child that flushes it again
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "written before the fork\n[1, 2, 3]\n"


@pytest.mark.parametrize(
    "suite, jobs, cpus, sizes",
    [
        ("all", 1, 64, [2]),
        ("all", 1, 1, [1]),
        ("all", 1, None, [1]),
        ("all", 5, 64, [5]),
        ("all", 5, 2, [2]),
        ("ring", 1, 64, []),
        ("ring", 3, 2, [2]),
        ("identities", 2, 64, [2]),
        ("reconcile", 4, 64, [4]),
    ],
)
def test_run_suite_opens_one_pool_for_all_its_sweeps(monkeypatch, serial_fork, suite, jobs, cpus, sizes):
    # all always forks, to max(jobs, 2) as its determinism row reports; the
    # others only when jobs > 1; either way capped at the CPUs, and once per
    # call: the identities, the ring cases and the determinism slice of all
    # go to one fan-out
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    bounds = verification.RingSweepBounds(max_len=2, max_sum=3, max_budget=2)
    rows = verification.run_suite(suite, SMALL_IDENTITIES, bounds, jobs)
    assert serial_fork == sizes
    assert all(row["pass"] for row in rows)
    if suite == "all":
        assert rows[-1] == {"check": "determinism", "cases": 40, "jobs": max(jobs, 2), "pass": True}


def test_all_at_a_memo_limit_of_64_gives_the_default_rows(monkeypatch, serial_fork, cold_tables):
    # CLI_PAIRS' memo-limit verify run, in this process: forked children,
    # not the parent, would do the emptying, out of a spy's sight
    default = verification.run_suite("all")
    ring.clear_coeff_caches()
    emptied = Counter()

    def counting_clear(table):
        emptied[id(table)] += len(table) >= partitions.COEFF_CACHE_LIMIT
        dict.clear(table)

    monkeypatch.setattr(partitions.Memo, "clear", counting_clear)
    monkeypatch.setattr(partitions, "COEFF_CACHE_LIMIT", 64)
    assert verification.run_suite("all") == default
    # a serial run empties the socle table 16 times
    assert emptied[id(partitions._SOCLE)] >= 1


def add_one(table, key, entry):
    row = list(table[key])
    row[entry] += 1
    table[key] = tuple(row)


def add_one_at(table, key, at):
    """+1 at the pair keyed ``at`` of a row of (key, w) pairs."""
    row = dict(table[key])
    row[at] += 1
    table[key] = tuple(row.items())


def failing_counts():
    return Counter(row.get("check", row.get("identity")) for row in verification.run_suite("all") if not row["pass"])


def test_a_fault_in_the_shared_shifted_row_fails_the_socle_against_the_orbits(cold_tables):
    # the ring, closed's chains and the oracle's tops all read the one row,
    # so the integral, a sum over the orbits that reads no row, must catch it
    add_one(partitions._SHIFTED_SUMS, (1, 1, 2), 1)
    assert "socle_three_paths" in failing_counts()


def test_a_fault_in_the_shared_correction_row_fails_a_row(cold_tables):
    # recursive and ck's split weights read the correction, which larger
    # corrections read in turn; closed's chain rows do not
    ring._CORRECTION[(2, 3)] += 1
    rows = [row for row in verification.run_suite("all") if not row["pass"]]
    assert Counter(row.get("check", row.get("identity")) for row in rows) == {
        "vanishing": 35,
        "method_agreement": 18,
        "reconcile_summary": 1,
    }
    mismatches = [mismatch for row in rows for mismatch in row.get("method_mismatches", [])]
    assert len(mismatches) == 24
    assert all(mismatch["recursive"] == mismatch["ck"] != mismatch["closed"] for mismatch in mismatches)


def test_a_fault_in_the_chain_row_fails_the_method_agreement(cold_tables):
    # only closed reads the chain rows, so the other methods must catch it
    add_one_at(ring._CHAIN_SUMS, (2, 3), (2, 2))
    assert failing_counts() == {"method_agreement": 5, "reconcile_summary": 1}


def test_a_fault_in_the_shared_kernel_fails_ck_and_closed_against_recursive(monkeypatch, cold_tables):
    # ck and closed take their truncated product from one kernel, recursive
    # from its own labelled walk; so +1 in the kernel leaves ck and closed
    # agreeing, and recursive and the pairing solve must both catch it
    kernel = ring._truncated_total
    monkeypatch.setattr(ring, "_truncated_total", lambda vectors, d: kernel(vectors, d) + 1)
    row = check_methods_agree((1, 1, 2), 2)
    assert not (row["methods_agree"] or row["pairing_agrees"] or row["product_agrees"])
    mismatches = row["method_mismatches"]
    assert all(mismatch["recursive"] != mismatch["ck"] == mismatch["closed"] for mismatch in mismatches)
    assert {"partition": [[0, 1, 2]], "recursive": "-186/1", "ck": "-185/1", "closed": "-185/1"} in mismatches


def test_a_fault_in_the_socle_split_row_fails_ck_and_the_pairing_against_recursive(cold_tables):
    # ck's split weights and the pairing system both read the two-block
    # entry of (1, 2)'s row; recursive and closed do not, so ck must
    # disagree with them, and the pairing solve with the closed aggregate.
    # The entry is (1, 2)'s own, the system's diagonal, so every solve with
    # an unknown whose row was built from it raises: 18 rows fail, a
    # superset of the 15 that a solve which rescaled its diagonal failed
    add_one_at(partitions._SOCLE_SPLITS, (1, 2), (1, 2))
    rows = [row for row in verification.run_suite("all") if not row["pass"]]
    assert Counter(row.get("check", row.get("identity")) for row in rows) == {"method_agreement": 18}
    assert sum(not row["methods_agree"] for row in rows) == 13
    assert sum(not row["pairing_agrees"] for row in rows) == 13
    assert sum("is not 1" in row.get("pairing_error", "") for row in rows) == 11
    failed = {(tuple(row["a"]), row["d"]) for row in rows}
    rescaled = {((1, 2), 2), ((1, 2), 3), ((1, 2), 4), ((1, 1, 1), 2), ((1, 1, 2), 3), ((1, 1, 2), 4), ((1, 2, 2), 3),
                ((1, 2, 2), 4), ((1, 2, 3), 3), ((1, 2, 3), 4), ((1, 1, 1, 1), 3), ((1, 1, 1, 2), 3),
                ((1, 1, 1, 2), 4), ((1, 1, 2, 2), 3), ((1, 1, 2, 2), 4)}
    assert rescaled < failed and len(failed) == 18
    for row in rows:
        for mismatch in row.get("method_mismatches", []):
            assert mismatch["recursive"] == mismatch["closed"] != mismatch["ck"]


def test_a_fault_in_the_first_block_walk_fails_the_product_against_the_labelled_sum(monkeypatch, cold_tables):
    # kappa_product by ck and closed walks the orbits, and _basis_values the
    # labelled partitions, so doubling the count of every orbit with two or
    # more blocks must show in the product column; faber_expand and
    # kappa_to_psi walk the orbits too, so the round trips fail as well
    walk = partitions._orbits

    def doubled(s, most):
        for blocks, count in walk(s, most):
            yield blocks, 2 * count if len(blocks) >= 2 else count

    monkeypatch.setattr(ring, "_orbits", doubled)
    rows = [row for row in verification.run_suite("all") if not row["pass"]]
    assert Counter(row.get("check", row.get("identity")) for row in rows) == {
        "method_agreement": 57,
        "round_trip": 17,
        "pinned_product": 1,
    }
    assert all(
        row["methods_agree"] and row["pairing_agrees"] and not row["product_agrees"]
        for row in rows
        if row["check"] == "method_agreement"
    )


def test_a_fault_in_the_shared_first_blocks_fails_the_anchor_the_orbits_and_recursive(monkeypatch, cold_tables):
    # every block-DP table, closed's chain rows in ring and the orbit walk cut
    # their blocks with _first_blocks; dropping the whole-s block of every s
    # of three or more entries must fail the outside anchor, the orbits
    # against the labelled walk, and ck and closed against recursive's
    # labelled walk
    cut = partitions._first_blocks

    def faulty(s):
        return [blk for blk in cut(s) if blk[2] or len(s) < 3]

    for module in (partitions, ring):
        monkeypatch.setattr(module, "_first_blocks", faulty)
    found = anchor_mismatches(ANCHOR_GRID)
    assert len(found) == 394 and Counter(which for _, which in found) == {"socle": 197, "integral": 197}
    for length in range(8):
        if length < 3:
            orbits_are_the_labelled_shapes(length)
        else:
            with pytest.raises(AssertionError):
                orbits_are_the_labelled_shapes(length)
    # the pairing solve stops at a column the faulty rows got wrong: its method
    # rows fail with the error's detail, and every row is still there
    rows = verification.run_suite("all")
    assert len(rows) == 2672
    rows = [row for row in rows if row.get("check") == "method_agreement"]
    assert (len(rows), sum(not row["methods_agree"] for row in rows)) == (92, 44)
    broken = [row for row in rows if "pairing_error" in row]
    assert len(broken) == sum(not row["pairing_agrees"] for row in rows) == 33
    assert broken[0]["pairing_error"] == "the column of (1, 2) pairs with dims (3,), which names no unknown"
    # recursive reads the faulty socle by another walk, and the correction,
    # which never cuts a whole block, intact
    mismatches = [mismatch for row in rows for mismatch in row.get("method_mismatches", [])]
    assert len(mismatches) == 92
    assert all(mismatch["recursive"] != mismatch["ck"] for mismatch in mismatches)
    assert sum(mismatch["recursive"] == mismatch["closed"] for mismatch in mismatches) == 30
    assert sum(mismatch["ck"] == mismatch["closed"] for mismatch in mismatches) == 27
