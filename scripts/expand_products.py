#!/usr/bin/env python3
"""Expand a few kappa products across marking counts and print the tables.

A quick feel for how the expansion degenerates: as the marking count drops,
the basis loses room and more of the product collapses onto shorter
monomials, down to the single top class and finally to zero.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kapparing.numbers import format_rational
from kapparing.partitions import _product_request
from kapparing.ring import kappa_product


def show(a, genus, markings):
    poly = kappa_product(a, genus, markings)
    _, _, d = _product_request(a, genus, markings)
    label = "*".join(f"k{i}" for i in a) or "1"
    if not poly:
        print(f"  g={genus} n={markings} (d={d}): {label} = 0")
        return
    body = " + ".join(
        f"{format_rational(coeff)} * " + "".join(f"k{i}" for i in mono)
        for mono, coeff in poly.sorted_terms()
    )
    print(f"  g={genus} n={markings} (d={d}): {label} = {body}")


def main() -> int:
    for a in [(1, 1), (1, 2), (1, 1, 1), (2, 2)]:
        print(f"kappa indices {a}:")
        for markings in range(sum(a) + 2, sum(a) + 7):
            show(a, 0, markings)
        show(a, 1, sum(a) + 3)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
