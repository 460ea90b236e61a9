from fractions import Fraction

from kapparing import verification
from kapparing.verification import check_methods_agree

PASSING_KEYS = ["check", "a", "d", "marked", "methods_agree", "pairing_agrees", "product_agrees", "pass"]


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


def test_reconcile_sweep_is_the_same_on_one_or_two_processes_and_in_run_suite():
    bounds = verification.RingSweepBounds(max_len=3, max_sum=4)
    rows, summary = verification.reconcile_sweep(bounds)
    assert verification.reconcile_sweep(bounds, jobs=2) == (rows, summary)
    assert summary["pass"] is True and summary["cases"] == len(rows) > 0
    (suite_row,) = verification.run_suite("reconcile", ring_bounds=bounds)
    assert suite_row == {"check": "reconcile_summary", **summary}


def test_run_ordered_unpacks_each_case_as_arguments():
    cases = [((1, 1), 2), ((1, 2), 3)]
    expected = [verification.check_genus_lift(a, d, 1) for a, d in cases]
    genus_cases = [(a, d, 1) for a, d in cases]
    assert verification.run_ordered(verification.check_genus_lift, genus_cases, 1) == expected
    assert verification.run_ordered(verification.check_genus_lift, genus_cases, 2) == expected
