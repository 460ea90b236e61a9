"""Command line front end.

Subcommands:

* ``product``   - expand a kappa monomial product in the additive basis.
* ``xcoeff``    - one expansion coefficient, with cross-method agreement.
* ``pair``      - pair a kappa monomial against a stratum dimension sequence.
* ``solve``     - recover all expansion coefficients from pairings alone.
* ``verify``    - run verification suites; nonzero exit on any failure.
* ``reconcile`` - compare closed-form truncation variants against the
  recursive method and report which one matches everywhere.

The CLI parses and the library validates, and its ``ValueError`` is the one
invalid-input signal: ``product`` and ``solve`` share one request check, and
``verification.SUITES`` names the suites.  The CLI checks only what no
library call sees: ``--partition``'s JSON shape, sweep bounds.

A run's sweeps share one process pool: ``verify --suite all`` always opens
one of ``max(--jobs, 2)`` workers, the other runs one only for ``--jobs > 1``.
Reports go to stdout as JSON (default) or CSV and are byte-deterministic for
identical requests.  ``--jobs`` changes one field alone: the ``determinism``
row of ``verify --suite all`` reports ``max(--jobs, 2)``, so ``--jobs`` 1
and 2 print the same bytes and ``--jobs 3`` differs in that field.
Wall-clock timing and the cache sizes of this process go to stderr so they
cannot perturb the reports.  Those sizes count only this process's tables:
in a pooled run the sweeps fill the workers' tables instead.  No state
outlives a run: each process computes its coefficient tables afresh.  Exit
code 0 means success with every check passing, 1 a failed check or internal
inconsistency (the report is still emitted) or a reader that closed stdout
early, 2 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from .identities import SweepBounds
from .numbers import format_rational
from .oracle import (
    RankDeficientPairingError,
    pair_kappa_stratum,
    pairing_system,
    solve_coeffs_by_pairing,
    solve_pairing_system,
)
from .partitions import _product_request, block_sums, canonical_partition, multiset, natural, quote
from .ring import METHODS, KappaPoly, basis_coeff, kappa_product, snapshot_coeff_caches
from .verification import SUITES, RingSweepBounds, reconcile_sweep, run_suite


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list, got {quote(text)}") from exc


def parse_partition_arg(text: str):
    try:
        blocks = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"--partition must be a JSON nested integer list, got {quote(text)}") from exc
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("--partition must be a list of lists of indices")
    return canonical_partition(blocks)


def emit(report: dict, fmt: str, rows_key: Optional[str] = None) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2))
        sys.stdout.write("\n")
        return
    if fmt == "csv":
        rows = report.get(rows_key, []) if rows_key else [report]
        flattened = [
            {
                key: json.dumps(value) if isinstance(value, (list, dict)) else value
                for key, value in row.items()
            }
            for row in rows
        ]
        fieldnames: list[str] = []
        for flat in flattened:
            for key in flat:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(flattened)
        sys.stdout.write(buffer.getvalue())
        return
    raise ValueError(f"unknown format {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappa",
        description="Exact kappa-class products and their verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, jobs: bool = False):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if jobs:
            p.add_argument(
                "--jobs", type=int, default=1,
                help="worker processes for the sweeps, one pool per run (verify --suite all: always, max(JOBS, 2))",
            )

    p_product = sub.add_parser("product", help="expand a kappa monomial product in the basis")
    p_product.add_argument("--a", required=True, help="comma-separated kappa indices, e.g. 1,1")
    p_product.add_argument("--genus", type=int, default=0)
    p_product.add_argument("--marked", type=int, required=True)
    p_product.add_argument("--method", choices=METHODS + ("pairing",), default="closed")
    add_common(p_product)

    p_xcoeff = sub.add_parser("xcoeff", help="one basis coefficient, all methods cross-checked")
    p_xcoeff.add_argument("--a", required=True)
    p_xcoeff.add_argument("--partition", required=True, help="JSON blocks over positions, e.g. [[0,1]]")
    p_xcoeff.add_argument("--d", type=int, required=True, help="degree budget (max basis length)")
    p_xcoeff.add_argument("--method", choices=METHODS + ("pairing",), default="closed")
    add_common(p_xcoeff)

    p_pair = sub.add_parser("pair", help="pair a kappa monomial against a dimension sequence")
    p_pair.add_argument("--a", required=True)
    p_pair.add_argument("--dims", required=True, help="comma-separated component dimensions")
    add_common(p_pair)

    p_solve = sub.add_parser("solve", help="recover basis coefficients from stratum pairings")
    p_solve.add_argument("--a", required=True)
    p_solve.add_argument("--marked", type=int, required=True)
    add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--max-sum", type=int, default=None, help="cap on sum of sweep multisets")
    p_verify.add_argument("--max-len", type=int, default=None, help="cap on length of sweep multisets")
    add_common(p_verify, jobs=True)

    p_reconcile = sub.add_parser("reconcile", help="compare closed-form truncation variants")
    p_reconcile.add_argument("--max-sum", type=int, default=None)
    p_reconcile.add_argument("--max-len", type=int, default=None)
    add_common(p_reconcile, jobs=True)

    return parser


def cmd_product(args) -> tuple[dict, int]:
    a, n, d = _product_request(parse_int_list(args.a, "--a"), args.genus, args.marked)
    if args.method != "pairing":
        poly = kappa_product(a, args.genus, args.marked, method=args.method)
    else:
        poly = KappaPoly(solve_coeffs_by_pairing(a, n)) if d > 0 else KappaPoly.zero()
    report = {
        "command": "product",
        "inputs": {"a": list(a), "genus": args.genus, "marked": args.marked, "method": args.method},
        "degree_budget": d,
        "terms": poly.to_json_rows(),
    }
    return report, 0


def cmd_xcoeff(args) -> tuple[dict, int]:
    a = multiset(parse_int_list(args.a, "--a"))
    p = parse_partition_arg(args.partition)
    values = {method: basis_coeff(p, a, args.d, method=method) for method in METHODS}
    if args.method == "pairing":
        # pairing determines the aggregated coefficient of the block-sum monomial
        n = sum(a) + args.d + 2
        key = block_sums(p, a)
        aggregate = kappa_product(a, 0, n).coefficient(key)
        value = solve_coeffs_by_pairing(a, n).get(key, Fraction(0))
        agree = aggregate == value and len(set(values.values())) == 1
    else:
        value = values[args.method]
        agree = len(set(values.values())) == 1
    report = {
        "command": "xcoeff",
        "inputs": {
            "a": list(a),
            "partition": [list(blk) for blk in p],
            "d": args.d,
            "method": args.method,
        },
        "value": format_rational(value),
        "methods": {method: format_rational(val) for method, val in sorted(values.items())},
        "methods_agree": bool(agree),
    }
    return report, 0 if agree else 1


def cmd_pair(args) -> tuple[dict, int]:
    a = parse_int_list(args.a, "--a")
    dims = parse_int_list(args.dims, "--dims")
    value = pair_kappa_stratum(a, dims)
    report = {
        "command": "pair",
        "inputs": {"a": sorted(a), "dims": sorted(dims)},
        "value": format_rational(value),
    }
    return report, 0


def cmd_solve(args) -> tuple[dict, int]:
    a, n, d = _product_request(parse_int_list(args.a, "--a"), 0, args.marked)
    system = pairing_system(a, n)
    solution = solve_pairing_system(system)
    size = system[3]
    report = {
        "command": "solve",
        "inputs": {"a": list(a), "marked": args.marked},
        "degree_budget": d,
        "coefficients": [
            {"monomial": list(mu), "coefficient": format_rational(solution[mu])}
            for mu in sorted(solution, key=lambda m: (-len(m), m))
        ],
        # the full system, one equation per basis monomial, is unit triangular of full rank:
        # the solve over a's coarsenings raises on a stray key, a nonzero below the
        # diagonal, a diagonal other than 1 or a nonzero residual, so on success these hold.
        "matrix": {"rows": size, "cols": size, "rank": size},
        "residual_zero": True,
    }
    return report, 0


def _sweep_bounds(args) -> tuple[SweepBounds, RingSweepBounds]:
    for flag, value in (("--max-sum", args.max_sum), ("--max-len", args.max_len), ("--jobs", args.jobs)):
        if value is not None:
            natural(value, flag, 1)
    given = {name: value for name, value in (("max_sum", args.max_sum), ("max_len", args.max_len)) if value is not None}
    identity_bounds = SweepBounds()._replace(**given)
    if args.max_len is not None:
        # the tree and vanishing grids never go past the general length bound
        identity_bounds = identity_bounds._replace(
            tree_max_len=min(args.max_len, identity_bounds.tree_max_len),
            vanishing_max_len=min(args.max_len, identity_bounds.vanishing_max_len),
        )
    return identity_bounds, RingSweepBounds()._replace(**given)


def cmd_verify(args) -> tuple[dict, int]:
    identity_bounds, ring_bounds = _sweep_bounds(args)
    rows = run_suite(args.suite, identity_bounds, ring_bounds, jobs=args.jobs)
    failed = sum(1 for row in rows if not row.get("pass", False))
    report = {
        "command": "verify",
        "suite": args.suite,
        "bounds": {
            "identities": identity_bounds._asdict(),
            "ring": ring_bounds._asdict(),
        },
        "reports": rows,
        "counts": {"total": len(rows), "failed": failed},
        "pass": failed == 0,
    }
    return report, 0 if failed == 0 else 1


def cmd_reconcile(args) -> tuple[dict, int]:
    _, ring_bounds = _sweep_bounds(args)
    rows, summary = reconcile_sweep(ring_bounds, args.jobs)
    report = {
        "command": "reconcile",
        "bounds": ring_bounds._asdict(),
        "cases": rows,
        "summary": summary,
    }
    return report, 0 if summary["pass"] else 1


# subcommand -> (handler, the report key whose rows CSV prints; None prints
# the whole report as one row)
COMMANDS = {
    "product": (cmd_product, "terms"),
    "xcoeff": (cmd_xcoeff, None),
    "pair": (cmd_pair, None),
    "solve": (cmd_solve, "coefficients"),
    "verify": (cmd_verify, "reports"),
    "reconcile": (cmd_reconcile, "cases"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (2) or --help (0)
        return exc.code
    handler, rows_key = COMMANDS[args.command]
    started = time.monotonic()
    try:
        report, code = handler(args)
    except RankDeficientPairingError as exc:
        report, rows_key, code = {
            "command": args.command,
            "error": "rank_deficient_pairing",
            "detail": str(exc),
            "rank": exc.rank,
            "matrix": [[format_rational(x) for x in row] for row in exc.matrix],
        }, None, 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    try:
        emit(report, args.format, rows_key)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: what is left goes to os.devnull,
        # so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    snapshot = snapshot_coeff_caches()
    print(
        f"done in {time.monotonic() - started:.3f}s; this process's cache: "
        f"{len(snapshot['socle'])} socle, {len(snapshot['correction'])} correction values",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
