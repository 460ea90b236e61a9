"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads all > perfbench/baseline.json

For every workload it makes RUNS untraced runs (seeds 1, 2, ...) and
TRACED_RUNS traced ones, one fresh process each, at the run length in
BENCHMARK.json.  Each end-to-end metric gets its ten values, median and quartiles (``statistics.quantiles(values, n=4)``) and
its spread, the quartile distance as a share of the median, next to the
bound BENCHMARK.json gives it.  For the traced runs it reports whether every
work counter repeated exactly and the median of each per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import COUNTER_SUFFIXES

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
TRACED_RUNS = 2


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    if result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}", file=sys.stderr)
    return json.loads(detail_line), result


def spread_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def sweep_workload(name: str) -> dict:
    results = [one_run(name, seed, 0) for seed in range(1, RUNS + 1)]
    traced = [one_run(name, seed, 1) for seed in range(1, TRACED_RUNS + 1)]
    environment = dict(results[0][0]["environment"])
    environment.pop("seed")
    out: dict = {
        "environment": environment,
        "correct": all(r["correct"] and r["failed"] == 0 for _, r in results + traced),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "tail_percentiles": sorted({d["latency_tail_percentile"] for d, _ in results}),
        "end_to_end": {},
    }
    for metric in SPEC["end_to_end"]:
        summary = spread_summary([r["metrics"][metric["name"]]["value"] for _, r in results])
        summary.update(unit=metric["unit"], bound=metric["bound"])
        out["end_to_end"][metric["name"]] = summary
    out["unscaled"] = {
        key: spread_summary([d[key] for d, _ in results])
        for key in ("raw_ops_per_s", "raw_latency_p50_ms", "raw_latency_tail_ms", "speed_factor")
    }
    counters = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNTER_SUFFIXES)} for _, r in traced]
    out["counters_repeat"] = all(c == counters[0] for c in counters)
    out["layer_share"] = traced[0][0]["layer_share"]
    out["per_layer_median"] = {
        k: statistics.median(r["metrics"][k]["value"] for _, r in traced) for k in traced[0][1]["metrics"]
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    summary = {"runs": RUNS, "traced_runs": TRACED_RUNS, "seconds": SPEC["run_seconds"], "workloads": {}}
    for name in names:
        summary["workloads"][name] = sweep_workload(name)
        row = summary["workloads"][name]
        spreads = ", ".join(f"{k} {v['spread']:.3f}/{v['bound']}" for k, v in row["end_to_end"].items())
        print(f"{name}: correct={row['correct']} counters_repeat={row.get('counters_repeat')} {spreads}", file=sys.stderr)
    sys.stdout.write(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
