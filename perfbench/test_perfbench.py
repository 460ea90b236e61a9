"""Checks of the benchmark itself; no timing is asserted.

    python3 -m pytest perfbench/test_perfbench.py

The runs use the cheapest rung only, kappa_1 at n = 4, by shrinking
product_uniform's case list inside the benchmark process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import COUNTER_SUFFIXES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAPEST_RUNG = (
    "import sys; sys.path.insert(0, 'perfbench'); import run; "
    "run.UNIFORM_CASES[:] = [((1,), 1)]; sys.exit(run.main(sys.argv[1:]))"
)


def cheapest_run(trace: int, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHEAPEST_RUNG, "--workload", "product_uniform", "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_schema(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_untraced_result_has_every_end_to_end_metric():
    result = cheapest_run(trace=0, seed=1)
    assert_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counters_repeat_exactly_across_runs_and_seeds():
    first, second = cheapest_run(trace=1, seed=1), cheapest_run(trace=1, seed=2)
    assert_schema(first, SPEC["per_layer"])
    counters = [
        {k: m["value"] for k, m in r["metrics"].items() if k.endswith(COUNTER_SUFFIXES)} for r in (first, second)
    ]
    assert counters[0] == counters[1]
    assert counters[0]["ring.basis_coeff.closed.calls"] == 1
    assert counters[0]["ring.socle_coeff.misses"] == 1


def test_zograf_recursion_matches_the_published_volumes():
    v = run.zograf_volumes(9)
    assert [v[n] for n in range(4, 10)] == [1, 5, 61, 1379, 49946, 2648967]


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(1, 20)]) == (50.0, pytest.approx(10.0))
    percentile, value = run.tail_latency([float(i) for i in range(1, 101)])
    assert percentile == 90.0 and 90.0 < value < 91.0
    percentile, value = run.tail_latency([float(i) for i in range(1, 1001)])
    assert percentile == 99.0 and 990.0 < value < 991.0


def test_percentile_is_the_value_of_a_constant_sample_and_moves_smoothly_across_a_step():
    assert run.percentile([0.25] * 7, 500) == pytest.approx(0.25)
    assert run.percentile([3.0], 500) == pytest.approx(3.0)
    # Half the samples at 1, half at 2: the median lies between the steps.
    assert 1.4 < run.percentile([1.0] * 50 + [2.0] * 50, 500) < 1.6


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle_solve", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
