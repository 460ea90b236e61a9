"""Regenerate perfbench/reference.json from the package at the current commit.

    python3 perfbench/make_reference.py

Every product expansion the workloads request is computed with all three
coefficient methods, which must agree; genus-one requests are keyed by their
genus-zero reindexing, so the file also pins the genus lift.  Each solve case
must reproduce its product expansion, the top-degree rungs and the README pin
must match the anchors in run.py, and the stdout of `kappa verify --suite all`
is recorded by SHA-256.  Any disagreement aborts without writing the file.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from kapparing import numbers, oracle, ring

    wanted = {}
    for name in ("product_uniform", "product_mixed"):
        for _, a, genus, n, _ in run.workload_requests(name):
            wanted[run.reference_key(a, n + 2 * genus)] = (a, n + 2 * genus)
    for _, a, n in run.workload_requests("oracle_solve"):
        wanted[run.reference_key(a, n)] = (a, n)

    products = {}
    for key, (a, n) in sorted(wanted.items()):
        polys = [ring.kappa_product(a, 0, n, method=m) for m in run.METHODS]
        if any(p != polys[0] for p in polys):
            raise SystemExit(f"methods disagree on {key}")
        products[key] = [[list(mono), numbers.format_rational(c)] for mono, c in polys[0].sorted_terms()]
    for _, a, n in run.workload_requests("oracle_solve"):
        solved = {mu: c for mu, c in oracle.solve_coeffs_by_pairing(a, n).items() if c}
        if solved != run.decode_terms(products[run.reference_key(a, n)]):
            raise SystemExit(f"pairing solve disagrees with kappa_product on {a}, n={n}")
    for key, terms in run.anchors().items():
        if key in products and run.decode_terms(products[key]) != terms:
            raise SystemExit(f"{key} disagrees with its external anchor")

    proc, _ = run.run_cli(run.CLI_ARGV, traced=False)
    if proc.returncode != 0 or json.loads(proc.stdout).get("pass") is not True:
        raise SystemExit("kappa verify --suite all did not pass")
    cli = {
        "argv": list(run.CLI_ARGV),
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stdout_bytes": len(proc.stdout),
    }
    rows = [f"  {json.dumps(key)}: {json.dumps(terms)}" for key, terms in products.items()]
    text = '{\n "cli_verify": %s,\n "products": {\n%s\n }\n}\n' % (json.dumps(cli, sort_keys=True), ",\n".join(rows))
    (run.HERE / "reference.json").write_text(text)
    print(f"wrote {len(products)} expansions and the verify digest to {run.HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
