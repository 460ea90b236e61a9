"""Closed-loop benchmark of kapparing: products, the oracle solve and `kappa verify`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload product_uniform --seed 1 --seconds 20 --trace 0

One process serves one workload with a single client that issues the next
request only after the previous one returns.  The process starts cold, so the
coefficient caches fill during the run, as they do in a library sweep.  The
seed shuffles the request list of every pass; a pass issues each request once
and the run repeats whole passes until ``--seconds`` have gone by.  Every
output is checked against ``reference.json`` and against anchors computed
here without the package (Zograf's recursion and the README pin).

Every request time is scaled to a reference machine speed with the probe in
``probe.py``, and ``setup_s`` with a bare interpreter start-up; the raw
request times are kept in the record line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one traced
pass from a cold start, then one untraced pass from cold caches, and reports
the per-layer metrics of the traced pass plus the tracing overhead.

The last stdout line is the result object; the line before it is a detailed
record (environment, sample counts, the tail percentile used, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from probe import ProbeLog, scale
from tracer import LAYERS, PER_LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
perf = time.perf_counter

# -- workloads ----------------------------------------------------------------

METHODS = ("recursive", "ck", "closed")

# (a, d) pairs: k = 4..7 at d = 2, 3; d = k for k = 4..6; the top-degree rungs
# d = 1 for k = 1..6; and the README's pinned (1,1,1) at n = 7.
UNIFORM_CASES = (
    [((1,) * k, d) for k in range(4, 8) for d in (2, 3)]
    + [((1,) * k, k) for k in (4, 5, 6)]
    + [((1,) * k, 1) for k in range(1, 7)]
    + [((1, 1, 1), 2)]
)
MIXED_A = ((1, 1, 2, 2, 3, 3), (1, 2, 3, 4, 5, 6), (1, 1, 2, 3, 5), (1, 2, 2, 3, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5))
MIXED_CASES = [(a, d, g) for a in MIXED_A for d in (2, 3) for g in (0, 1)]
SOLVE_CASES = [
    ((3, 4, 5), 4),
    ((1, 2, 3, 4), 4),
    ((1, 1, 2, 2, 3), 4),
    ((1,) * 6, 4),
    ((1,) * 7, 4),
    ((2, 2, 3), 5),
    ((1, 2, 3), 5),
]
CLI_ARGV = ("verify", "--suite", "all")


def workload_requests(name: str) -> list[tuple]:
    """The requests of one pass, in canonical order (the seed shuffles them)."""
    if name == "product_uniform":
        return [("product", a, 0, sum(a) + d + 2, m) for a, d in UNIFORM_CASES for m in METHODS]
    if name == "product_mixed":
        return [("product", a, g, sum(a) + d + 2 - 2 * g, m) for a, d, g in MIXED_CASES for m in METHODS]
    if name == "oracle_solve":
        return [("solve", a, sum(a) + d + 2) for a, d in SOLVE_CASES]
    if name == "cli_verify":
        return [("cli", CLI_ARGV)]
    raise KeyError(name)


WORKLOADS = ("product_uniform", "product_mixed", "oracle_solve", "cli_verify")

# -- expected outputs -----------------------------------------------------------


def reference_key(a, n: int) -> str:
    """Key of the genus-zero expansion of kappa_a with n markings."""
    return ",".join(map(str, sorted(a))) + "|" + str(n)


def decode_terms(rows) -> dict:
    return {tuple(mono): Fraction(coeff) for mono, coeff in rows}


def zograf_volumes(n_max: int) -> dict[int, Fraction]:
    """v_n = integral of kappa_1^(n-3) over M_{0,n}, by Zograf's recursion.

    v_3 = 1 and v_n = 1/2 sum_{i=1}^{n-3} i(n-i-2)/(n-1) C(n-4,i-1) C(n,i+1)
    v_{i+2} v_{n-i}  (Zograf 1993; Kaufmann-Manin-Zagier, CMP 181, 1996).
    Shares no code with the package.
    """
    v = {3: Fraction(1)}
    for n in range(4, n_max + 1):
        total = Fraction(0)
        for i in range(1, n - 2):
            total += Fraction(i * (n - i - 2), n - 1) * comb(n - 4, i - 1) * comb(n, i + 1) * v[i + 2] * v[n - i]
        v[n] = total / 2
    return v


def anchors() -> dict[str, dict]:
    """Expected expansions that come from outside the package's formulas."""
    v = zograf_volumes(9)
    out = {reference_key((1,) * k, k + 3): {(k,): v[k + 3]} for k in range(1, 7)}
    out[reference_key((1, 1, 1), 7)] = {(1, 2): Fraction(15), (3,): Fraction(-74)}
    return out


def load_expected() -> tuple[dict[str, dict], dict]:
    data = json.loads((HERE / "reference.json").read_text())
    expected = {key: decode_terms(rows) for key, rows in data["products"].items()}
    expected.update(anchors())
    return expected, data["cli_verify"]


# -- serving one request ----------------------------------------------------------


def child_env() -> dict:
    """The environment of a child process: the checkout's sources first on the
    path, and no KAPPA_CACHE, which would make `kappa verify` load warm
    coefficient caches and write them back to a file outside the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "KAPPA_CACHE"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_cli(argv, traced: bool) -> tuple[subprocess.CompletedProcess, dict]:
    """Run the CLI in a child process; return it and the report on its last stderr line."""
    flags = ["--trace"] if traced else []
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"), *flags, *argv],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=170,
    )
    return proc, json.loads(proc.stderr.decode().strip().splitlines()[-1])


def call(request, traced_cli: bool, log: ProbeLog):
    """Issue one request; return its raw output and, for a child process, its report."""
    from kapparing import oracle, ring

    kind = request[0]
    if kind == "cli":
        return run_cli(request[1], traced_cli)
    with log:
        if kind == "product":
            _, a, genus, n, method = request
            return ring.kappa_product(a, genus, n, method=method).terms, None
        _, a, n = request
        return oracle.solve_coeffs_by_pairing(a, n), None


def correct(request, output, expected, cli_ref) -> bool:
    kind = request[0]
    if kind == "product":
        _, a, genus, n, _ = request
        return output == expected[reference_key(a, n + 2 * genus)]
    if kind == "solve":
        want = expected[reference_key(request[1], request[2])]
        nonzero = {mu: c for mu, c in output.items() if c}
        return nonzero == want
    return (
        output.returncode == 0
        and hashlib.sha256(output.stdout).hexdigest() == cli_ref["stdout_sha256"]
        and json.loads(output.stdout).get("pass") is True
    )


def describe(output) -> str:
    if isinstance(output, subprocess.CompletedProcess):
        return f"exit {output.returncode}, stderr {output.stderr.decode()[-2000:]!r}"
    return repr(output)


def timed_pass(requests, expected, cli_ref, log, samples, traced_cli=False):
    """Serve every request once, timing only the call; return (failed, last report).

    Appends (request, start, end, seconds, child probe times or None) to
    ``samples``; the probe time inside the call is taken out of its seconds.
    """
    failed = 0
    log.probe()
    for request in requests:
        error = output = report = None
        mark = len(log.entries)
        start = perf()
        try:
            output, report = call(request, traced_cli, log)
        except Exception as exc:  # a request that raises is a failed operation
            error = exc
        end = perf()
        child = report["probes"] if report else None
        raw = end - start - log.seconds_since(mark) - sum(child or ())
        samples.append((request, start, end, raw, child))
        log.probe()
        if error is not None:
            print(f"request {request!r} raised {error!r}", file=sys.stderr)
            failed += 1
        elif not correct(request, output, expected, cli_ref):
            print(f"request {request!r} returned a wrong output: {describe(output)}", file=sys.stderr)
            failed += 1
    return failed, report


def latencies_by_request(samples, log) -> dict[tuple, list[tuple[float, float]]]:
    """(raw seconds, scaled seconds) of every sample, grouped by request.

    A call served in this process is scaled by the mean probe time around
    it; one served by a child process by the mean of the child's probes,
    which ran on the CPU that served it.
    """
    out: dict[tuple, list[tuple[float, float]]] = {}
    for request, start, end, raw, child in samples:
        probe_s = statistics.fmean(child) if child else log.speed_around(start, end)
        out.setdefault(request, []).append((raw, scale(raw, probe_s)))
    return out


# -- metrics ----------------------------------------------------------------------

TAIL_LADDER_PERMILLE = (500, 900, 990, 999)


def percentile(values: list[float], permille: int, steps: int = 32) -> float:
    """The Harrell-Davis estimate of a percentile.

    A mean of all order statistics, weighted by the Beta((n+1)q, (n+1)(1-q))
    mass over ((i-1)/n, i/n], which is integrated here by the midpoint rule.
    Each pass repeats the same few request kinds, so the latencies form a
    staircase; a nearest-rank percentile that sits on a step jumps to the next
    step from run to run, while this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = permille / 1000
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = ((k + 0.5) / (n * steps) for k in range(n * steps))
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in grid]
    top = max(logs)
    weights = [sum(math.exp(x - top) for x in logs[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    A percentile p has n - ceil(p n) samples beyond it.  With fewer than 20
    samples no percentile qualifies and the median is reported, with
    percentile 50.
    """
    n = len(latencies)
    chosen = 500
    for permille in TAIL_LADDER_PERMILLE:
        if n - math.ceil(permille * n / 1000) >= 10:
            chosen = permille
    return chosen / 10, percentile(latencies, chosen)


# Time of a bare interpreter start-up (`python3 -c pass`) on the reference
# machine: roughly that of the machine in probe.py.
STARTUP_REFERENCE_S = 0.07


def child_seconds(argv) -> float:
    start = perf()
    # Captured: the time of a child that inherited this process's stdout, a
    # pipe, jumped in steps of 16 to 50 ms on the machine in probe.py.
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=60)
    return perf() - start


def setup_seconds(workload: str, repeats: int = 9) -> float:
    """Median time, scaled to the reference speed, of a fresh interpreter that
    imports the package and exits.

    Each such interpreter is followed by a bare one, which runs no package
    code, and its time is scaled by STARTUP_REFERENCE_S over the bare one's.
    The CPU probe of probe.py tracks start-up worse: on the machine there,
    medians of nine probe-scaled start-ups moved by up to 27% within minutes,
    and of nine paired ones by under 8%.
    """
    module = "kapparing.cli" if workload == "cli_verify" else "kapparing"
    # Each CPU of that machine drifts on its own, so both interpreters of a
    # pair must run on the same one; children inherit this affinity.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ratios = [child_seconds(["-c", f"import {module}"]) / child_seconds(["-c", "pass"]) for _ in range(repeats)]
    finally:
        os.sched_setaffinity(0, cpus)
    return STARTUP_REFERENCE_S * statistics.median(ratios)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_verify" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "note": "shared machine: other tenants' load adds noise to every timing",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def clear_caches() -> None:
    """Return the package's memo tables to their state after import, so the
    untraced pass of a traced run starts as cold as the traced one."""
    from kapparing import oracle, partitions, ring

    ring.clear_coeff_caches()
    oracle._TOP_CACHE.clear()
    partitions.stirling2.cache_clear()


# -- the two kinds of run -------------------------------------------------------


def run_untraced(args, requests, expected, cli_ref, rng) -> tuple[dict, dict, int, int]:
    log = ProbeLog()
    samples: list[tuple] = []
    failed = passes = 0
    start = perf()
    while True:
        order = list(requests)
        rng.shuffle(order)
        failed += timed_pass(order, expected, cli_ref, log, samples)[0]
        passes += 1
        if perf() - start >= args.seconds:
            break
    elapsed = perf() - start
    latencies = latencies_by_request(samples, log)
    raw = [r for times in latencies.values() for r, _ in times]
    scaled = [s for times in latencies.values() for _, s in times]
    attempted = len(raw)
    tail_at, tail = tail_latency(scaled)
    metrics = {
        "setup_s": (setup_seconds(args.workload), "s"),
        "ops_per_s": ((attempted - failed) / sum(scaled), "1/s"),
        "latency_p50_ms": (percentile(scaled, 500) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    detail = {
        "passes": passes,
        "samples": attempted,
        "elapsed_s": elapsed,
        "latency_tail_percentile": tail_at,
        "speed_factor": sum(scaled) / sum(raw),
        "raw_ops_per_s": (attempted - failed) / elapsed,
        "raw_latency_p50_ms": percentile(raw, 500) * 1000.0,
        "raw_latency_tail_ms": tail_latency(raw)[1] * 1000.0,
        "fail_ratio": failed / attempted,
    }
    return metrics, detail, attempted, failed


def run_traced(args, requests, expected, cli_ref, rng) -> tuple[dict, dict, int, int]:
    order = list(requests)
    rng.shuffle(order)
    log = ProbeLog()
    traced: list[tuple] = []
    if args.workload == "cli_verify":
        failed, report = timed_pass(order, expected, cli_ref, log, traced, traced_cli=True)
        layer = report["metrics"]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            failed = timed_pass(order, expected, cli_ref, log, traced)[0]
        finally:
            tracer.uninstall()
        layer = tracer.metrics()
        clear_caches()
    plain: list[tuple] = []
    failed += timed_pass(order, expected, cli_ref, log, plain)[0]
    traced_s, plain_s = (
        sum(s for times in latencies_by_request(part, log).values() for _, s in times) for part in (traced, plain)
    )
    attempted = 2 * len(order)
    metrics = {name: (layer[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    layer_total = sum(layer[f"{name}.self_s"] for name in LAYERS)
    detail = {
        "traced_pass_s": traced_s,
        "untraced_pass_s": plain_s,
        "layer_share": {
            name: (layer[f"{name}.self_s"] / layer_total if layer_total else 0.0) for name in LAYERS
        },
        "fail_ratio": failed / attempted,
    }
    return metrics, detail, attempted, failed


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kapparing" / "__init__.py").is_file():
        print(f"error: no kapparing sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected, cli_ref = load_expected()
    import kapparing  # noqa: F401  (outside the timed loop; setup_s measures it)

    rng = random.Random(args.seed)
    requests = workload_requests(args.workload)
    run = run_traced if args.trace else run_untraced
    metrics, detail, attempted, failed = run(args, requests, expected, cli_ref, rng)
    record = {"workload": args.workload, "trace": args.trace, "environment": environment(args), **detail}
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
