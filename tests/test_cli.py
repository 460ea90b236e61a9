import contextlib
import fcntl
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kapparing import cli, oracle
from kapparing.partitions import Memo

from bruteforce import euler_partition_counts

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "kapparing", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def test_import_loads_neither_inspect_nor_dataclasses():
    # both pull in ast, dis and tokenize, which every `kappa` start would pay for
    code = "import sys, kapparing; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=REPO)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_product_pinned_example():
    result = run_cli("product", "--a", "1,1", "--genus", "0", "--marked", "5", "--format", "json")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["terms"] == [{"monomial": [2], "coefficient": "5/1"}]


def test_xcoeff_pinned_example():
    result = run_cli("xcoeff", "--a", "1,1", "--partition", "[[0,1]]", "--d", "2", "--method", "closed")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["value"] == "0/1"
    assert report["methods_agree"] is True
    assert set(report["methods"]) == {"recursive", "ck", "closed"}


def test_xcoeff_with_pairing_method():
    result = run_cli("xcoeff", "--a", "1,1", "--partition", "[[0],[1]]", "--d", "2", "--method", "pairing")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["value"] == "1/1"
    assert report["methods_agree"] is True


def test_product_by_pairing_matches_the_formula():
    by_formula = run_cli("product", "--a", "1,1,1", "--marked", "7", "--method", "closed")
    by_pairing = run_cli("product", "--a", "1,1,1", "--marked", "7", "--method", "pairing")
    assert by_pairing.returncode == 0
    assert json.loads(by_formula.stdout)["terms"] == json.loads(by_pairing.stdout)["terms"]
    lifted = run_cli("product", "--a", "1,1", "--genus", "1", "--marked", "3", "--method", "pairing")
    assert json.loads(lifted.stdout)["terms"] == [{"monomial": [2], "coefficient": "5/1"}]


def test_pair_subcommand():
    result = run_cli("pair", "--a", "1,1", "--dims", "1,1")
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "2/1"


def test_scalar_report_as_csv_is_a_single_row():
    result = run_cli("pair", "--a", "1,1", "--dims", "1,1", "--format", "csv")
    lines = result.stdout.splitlines()
    assert lines[0] == "command,inputs,value"
    assert len(lines) == 2
    assert lines[1].endswith("2/1")


def test_solve_subcommand():
    result = run_cli("solve", "--a", "1,1", "--marked", "6")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["coefficients"] == [
        {"monomial": [1, 1], "coefficient": "1/1"},
        {"monomial": [2], "coefficient": "0/1"},
    ]
    assert report["matrix"]["rank"] == report["matrix"]["cols"]
    assert report["residual_zero"] is True


def test_verify_small_bounds_passes():
    result = run_cli("verify", "--suite", "identities", "--max-sum", "4", "--max-len", "2")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["pass"] is True
    assert report["counts"]["failed"] == 0
    assert report["counts"]["total"] > 0


def test_reconcile_identifies_the_partial_sum_variant():
    result = run_cli("reconcile", "--max-sum", "4", "--max-len", "3")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)["summary"]
    assert summary["variants_fully_agreeing"] == ["partial_sum"]
    assert summary["matches"]["single_binomial"] < summary["cases"]


IDENTITY_DEFAULTS = {"max_len": 5, "max_sum": 8, "max_entry": 4, "tree_max_len": 5, "tree_max_entry": 3,
                     "stirling_max_n": 10, "vanishing_max_len": 5, "vanishing_max_entry": 4, "ff_bound": 5,
                     "ff_max_n": 8, "ff3_bound": 2, "ff3_max_n": 5}
RING_DEFAULTS = {"max_len": 4, "max_sum": 6, "max_entry": 4, "max_budget": 4, "genus_lifts": [1, 2]}
SHORT = {"max_len": 2, "tree_max_len": 2, "vanishing_max_len": 2}


@pytest.mark.parametrize(
    "flags, identities, ring",
    [
        (["--max-sum", "3"], {"max_sum": 3}, {"max_sum": 3}),
        (["--max-len", "2"], SHORT, {"max_len": 2}),
        (["--max-sum", "3", "--max-len", "2"], {**SHORT, "max_sum": 3}, {"max_len": 2, "max_sum": 3}),
    ],
)
def test_sweep_flags_set_the_bounds_blocks(flags, identities, ring):
    # each flag moves only its own fields of the default bounds; --max-len caps the tree and vanishing lengths
    reports = {}
    for command in (["verify", "--suite", "oracle"], ["reconcile"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(command + flags) == 0
        reports[command[0]] = json.loads(out.getvalue())["bounds"]
    expected_ring = {**RING_DEFAULTS, **ring}
    assert reports["verify"] == {"identities": {**IDENTITY_DEFAULTS, **identities}, "ring": expected_ring}
    assert reports["reconcile"] == expected_ring


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cache_sizes_on_stderr_are_labelled_as_this_process(jobs):
    # a pool's workers fill their own tables, which the parent's count omits
    result = run_cli("reconcile", "--max-sum", "4", "--max-len", "3", "--jobs", jobs)
    assert result.returncode == 0, result.stderr
    last = result.stderr.strip().splitlines()[-1]
    assert "; this process's cache: " in last and last.endswith(" correction values"), last
    assert result.stdout == run_cli("reconcile", "--max-sum", "4", "--max-len", "3").stdout


def test_invalid_input_exits_2():
    assert run_cli("product", "--a", "1,x", "--marked", "5").returncode == 2
    assert run_cli("product", "--a", "0,1", "--marked", "5").returncode == 2
    # the pairing route rejects a bad index even where the basis is empty
    assert run_cli("product", "--a", "0,1", "--marked", "1", "--method", "pairing").returncode == 2
    # both routes check a product request alike: the same message for a bad genus or marking count
    for bad in (("--genus", "-1", "--marked", "9"), ("--marked", "-1"), ("--genus", "1", "--marked", "-3")):
        by_pairing = run_cli("product", "--a", "1,1", *bad, "--method", "pairing")
        assert by_pairing.returncode == 2 and by_pairing.stdout == ""
        assert by_pairing.stderr == run_cli("product", "--a", "1,1", *bad, "--method", "ck").stderr, bad
    # solve checks its request by the same rule as product
    by_solve = run_cli("solve", "--a", "1,2,3", "--marked", "-1")
    assert by_solve.returncode == 2 and by_solve.stdout == ""
    assert by_solve.stderr == run_cli("product", "--a", "1,2,3", "--marked", "-1").stderr
    assert run_cli("xcoeff", "--a", "1,1", "--partition", "[[0]]", "--d", "2").returncode == 2
    assert run_cli("xcoeff", "--a", "1,1", "--partition", "[[0],[1]]", "--d", "0").returncode == 2
    assert run_cli("solve", "--a", "1,1", "--marked", "4").returncode == 2
    assert run_cli("pair", "--a", "1,1", "--dims", "-1,3").returncode == 2
    assert run_cli("nonsense").returncode == 2
    # the coefficient cache file and its --cache flag are gone
    assert run_cli("product", "--a", "1,1", "--marked", "5", "--cache", "x").returncode == 2
    for partition in ('[["a"],[1]]', "[[0],[null]]", "[[0],[1.0]]", "[[0],[[1]]]", "[[0],[true]]"):
        result = run_cli("xcoeff", "--a", "1,1", "--d", "2", "--partition", partition)
        assert result.returncode == 2, (partition, result.stderr)
        assert "Traceback" not in result.stderr
    for args in (
        ("verify", "--suite", "ring", "--max-len", "-1"),
        ("verify", "--suite", "ring", "--max-sum", "0"),
        ("verify", "--suite", "ring", "--jobs", "-5"),
        ("reconcile", "--max-len", "0"),
        ("reconcile", "--max-sum", "-2"),
        ("reconcile", "--jobs", "0"),
    ):
        assert run_cli(*args).returncode == 2, args


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


# one list entry that no command accepts: not an integer, or an integer the
# list's meaning rules out (kappa indices are >= 1, dimensions >= 0)
not_an_int = st.text(max_size=6).filter(lambda t: "," not in t and t.strip() and not _is_int(t))
bad_index = st.one_of(not_an_int, st.integers(max_value=0).map(str))
bad_dim = st.one_of(not_an_int, st.integers(max_value=-1).map(str))
good_index = st.integers(1, 3).map(str)


def list_with(bad):
    """A comma-separated list of up to three small valid entries with one bad entry among them."""
    return st.tuples(st.lists(good_index, max_size=3), bad, st.integers(0, 3)).map(
        lambda t: ",".join(t[0][: t[2]] + [t[1]] + t[0][t[2] :])
    )


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


# anything but a partition of the two positions of --a 1,1
not_a_partition = st.one_of(
    st.text(max_size=12),
    st.recursive(
        st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False) | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=6,
    ).map(json.dumps),
).filter(lambda text: _json_or_none(text) not in ([[0, 1]], [[1, 0]], [[0], [1]], [[1], [0]]))

MALFORMED_ARGV = st.one_of(
    st.builds(lambda a: ["product", f"--a={a}", "--marked", "9"], list_with(bad_index)),
    st.builds(
        lambda a, m: ["product", f"--a={a}", f"--marked={m}", "--method", "pairing"],
        list_with(bad_index),
        st.integers(0, 9),
    ),
    st.builds(lambda a: ["xcoeff", f"--a={a}", "--partition", "[[0]]", "--d", "2"], list_with(bad_index)),
    st.builds(lambda a: ["pair", f"--a={a}", "--dims", "1,2"], list_with(bad_index)),
    st.builds(lambda a: ["solve", f"--a={a}", "--marked", "9"], list_with(bad_index)),
    st.builds(lambda dims: ["pair", "--a", "1,2", f"--dims={dims}"], list_with(bad_dim)),
    st.builds(lambda p: ["xcoeff", "--a", "1,1", f"--partition={p}", "--d", "2"], not_a_partition),
    st.builds(
        lambda cmd, m: [cmd, "--a", "1,1", f"--marked={m}"],
        st.sampled_from(("product", "solve")),
        st.one_of(not_an_int, st.integers(max_value=-1).map(str)),
    ),
    st.builds(
        lambda d: ["xcoeff", "--a", "1,1", "--partition", "[[0],[1]]", f"--d={d}"],
        st.one_of(not_an_int, st.integers(max_value=1).map(str)),
    ),
)


@settings(max_examples=200)
@given(MALFORMED_ARGV)
def test_malformed_arguments_exit_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, (argv, out.getvalue(), err.getvalue())
    assert out.getvalue() == ""


def test_deeply_nested_partition_exits_2():
    deep = "[" * 5000 + "]" * 5000
    result = run_cli("xcoeff", "--a", "1,1", "--d", "2", "--partition", deep)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    # the error quotes a bounded prefix of the 10,000-character argument
    assert len(result.stderr) < 300
    assert "10000 characters" in result.stderr


def test_long_kappa_index_list_error_is_bounded():
    # a 0 and 3,000 1s: the library's message quotes the first 20 indices
    result = run_cli("product", "--a", ",".join(["0"] + ["1"] * 3000), "--marked", "5")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr) < 300
    assert "3001 entries" in result.stderr


@pytest.mark.parametrize(
    "args, terms",
    [
        (("product", "--a", "1,1,2", "--method", "pairing"), [{"monomial": [1, 1, 2], "coefficient": "1/1"}]),
        (
            ("solve", "--a", "1,1"),
            [{"monomial": [1, 1], "coefficient": "1/1"}, {"monomial": [2], "coefficient": "0/1"}],
        ),
    ],
)
def test_pairing_cost_does_not_grow_with_the_marking_count(args, terms):
    # strata are not padded with zero-dimension components, so n = 10**23 is cheap
    result = run_cli(*args, "--marked", str(10**23))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report.get("terms", report.get("coefficients")) == terms


def test_error_messages_go_to_stderr_not_stdout():
    result = run_cli("product", "--a", "1,x", "--marked", "5")
    assert result.stdout == ""
    assert "error" in result.stderr


def test_repeated_runs_are_byte_identical():
    first = run_cli("product", "--a", "1,1,2", "--marked", "8")
    second = run_cli("product", "--a", "2,1,1", "--marked", "8")
    assert first.stdout == second.stdout


def test_csv_output_has_header_and_rows():
    result = run_cli("product", "--a", "1,1,1", "--marked", "7", "--format", "csv")
    lines = result.stdout.splitlines()
    assert lines[0] == "monomial,coefficient"
    assert len(lines) == 3


def test_expand_products_script_prints_the_readme_line():
    script = REPO / "scripts" / "expand_products.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=REPO)
    assert result.returncode == 0, result.stderr
    assert "  g=0 n=7 (d=2): k1*k1*k1 = 15/1 * k1k2 + -74/1 * k3" in result.stdout.splitlines()


def stdout_sha256(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-m", "kapparing", *args], capture_output=True, env=env, cwd=REPO)
    assert result.returncode == 0, result.stderr
    return hashlib.sha256(result.stdout).hexdigest()


def test_verify_all_report_is_pinned_byte_for_byte():
    assert stdout_sha256("verify", "--suite", "all") == (
        "90611f11e6d831687ea6c25e5afe5fb421a628a8221522c0124650f34791f833"
    )


def test_reconcile_report_is_pinned_byte_for_byte():
    assert stdout_sha256("reconcile") == "b1ec2c6d716ec3a5016809bc2650eb618cb17f909fa98d1166c4652eb04dacf7"


# Each verify suite on its own, pinned to the bytes it printed while all
# swept the reconcile cases a second time instead of reading the ring walk.
SUITE_REPORTS = [
    ("ring", "108e992db70d9f306770a21f9ef5b54edd770f5e71755f7153e00f1375bafbd4"),
    ("reconcile", "0410d9cec96f59d8bff2c9a7669c1a121faa0eaf169434937c0533ca3799100b"),
    ("oracle", "5ef566991b979f33ff51666aae21a89497ce2474b33cfca4f122319ed9b92f37"),
    ("identities", "ce5cba1edbd1cff4ed3616da800ecd64bb54120d0e25720ee957233c43f725d1"),
]


@pytest.mark.parametrize("suite, digest", SUITE_REPORTS)
def test_each_verify_suite_report_is_pinned_byte_for_byte(suite, digest):
    assert stdout_sha256("verify", "--suite", suite) == digest


# The seven requests of the benchmark's oracle_solve workload and one pairing,
# pinned to the bytes they printed before the pairing DP and integer Bareiss.
ORACLE_REPORTS = [
    (("solve", "--a", "3,4,5", "--marked", "18"), "2f1666e7cd0b252e33281c6bb0dc9cb9d660a6dfc0506835bd9b5fed01502cd8"),
    (("solve", "--a", "1,2,3,4", "--marked", "16"), "7652994fb3a6cd63fb1d1eeff5718e32206c3ff17d0a0a517c9a8f5ae60e3694"),
    (("solve", "--a", "1,1,2,2,3", "--marked", "15"), "c6759ebae2d80e2afd442add7d638d0d08d9b39d576907bda8c24e3d9261f2bf"),
    (("solve", "--a", "1,1,1,1,1,1", "--marked", "12"), "ba7803f4e591eed831e40eafff53135ff576b9b7f094fd2b2abed4dfd1d1ed36"),
    (("solve", "--a", "1,1,1,1,1,1,1", "--marked", "13"), "7a45ac600ddcd6b17fb97391fc2a28613ffb365f9e204ed31f8936fcdb6e103d"),
    (("solve", "--a", "2,2,3", "--marked", "14"), "9e921438231c098e330db8d28b6682eb3917e78fb3da2854a5189ee5f7e7ca2f"),
    (("solve", "--a", "1,2,3", "--marked", "13"), "9777d8d1bbf2bde5dbe37cee5410b556cb783f2048d6e783e93e53b4bff3d0dc"),
    (("pair", "--a", "1,1,2,2", "--dims", "1,2,3"), "ab7de2dde889d5bacd4131e1e61f18e58455730ff8488f8f272cd9b750521212"),
]


@pytest.mark.parametrize("args, digest", ORACLE_REPORTS)
def test_oracle_reports_are_pinned_byte_for_byte(args, digest):
    assert stdout_sha256(*args) == digest


# Two solves pinned to the bytes they printed when the top integral walked
# every set partition and Bareiss solved the dense system: 62 s and 1.9 s
# then, 0.26 s and 0.08 s by the triangular solve over multiset partitions
# (one run each on a 2-CPU Xeon, Python 3.11).  The last two, with 627 and
# 1,958 basis monomials, took 17.6 s and 255 s by the triangular solve over
# the full basis; on a's 5 and 7 coarsenings alone they take milliseconds.
SCALE_REPORTS = [
    (("solve", "--a", "3,3,3,3", "--marked", "26"), "02f2457fafbb291ed1a0484bd11fc6f745f5dcea734f02ebedd49e0018c04a93"),
    (("solve", "--a", ",".join(["1"] * 10), "--marked", "16"), "33f551947b3cc6fe04a5792b91d58bcfdb7e9060a03af51683bd450be4a416b6"),
    (("solve", "--a", "5,5,5,5", "--marked", "42"), "04485ff14b80abe369ec8308221a17bbb170ea06932c0234d9c87a241ea8f5be"),
    (("solve", "--a", "5,5,5,5,5", "--marked", "52"), "baa61005fc29cab2e1878637e6fa85aa6290c42895794f97a5629c6ec9b09e52"),
]


@pytest.mark.parametrize("args, digest", SCALE_REPORTS)
def test_oracle_reports_at_scale_are_pinned_byte_for_byte(args, digest):
    assert stdout_sha256(*args) == digest


def test_solve_reports_a_basis_it_does_not_enumerate():
    # p(1100) basis monomials, of which a = (1100,) reaches only itself; the
    # count is p(1100) by Euler's pentagonal number theorem
    result = run_cli("solve", "--a", "1100", "--marked", "2300")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["coefficients"] == [{"monomial": [1100], "coefficient": "1/1"}]
    p_1100 = 1147240591519695580043346988281283
    assert p_1100 == euler_partition_counts(1100)[1100]
    assert report["matrix"] == {"rows": p_1100, "cols": p_1100, "rank": p_1100}


def test_solve_builds_the_pairing_system_once(monkeypatch, capsys):
    calls = []
    build = oracle.pairing_system

    def counting_pairing_system(a, n):
        calls.append((tuple(a), n))
        return build(a, n)

    monkeypatch.setattr(cli, "pairing_system", counting_pairing_system)
    monkeypatch.setattr(oracle, "pairing_system", counting_pairing_system)
    assert cli.main(["solve", "--a", "1,1,2", "--marked", "9"]) == 0
    assert len(calls) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["matrix"] == {"rows": 4, "cols": 4, "rank": 4}


RANK_DEFICIENT_JSON = """{
  "command": "%s",
  "error": "rank_deficient_pairing",
  "detail": "zero diagonal in row 1 for dims (1, 2)",
  "rank": 0,
  "matrix": [
    [
      "1/1",
      "9/1"
    ],
    [
      "0/1",
      "0/1"
    ]
  ]
}
"""

RANK_DEFICIENT_CSV = """command,error,detail,rank,matrix
solve,rank_deficient_pairing,"zero diagonal in row 1 for dims (1, 2)",0,"[[""1/1"", ""9/1""], [""0/1"", ""0/1""]]"
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["solve", "--a", "1,1,1", "--marked", "7"], RANK_DEFICIENT_JSON % "solve"),
        (["solve", "--a", "1,1,1", "--marked", "7", "--format", "csv"], RANK_DEFICIENT_CSV),
        (["product", "--a", "1,1,1", "--marked", "7", "--method", "pairing"], RANK_DEFICIENT_JSON % "product"),
    ],
)
def test_a_rank_deficient_pairing_report_is_pinned_byte_for_byte(monkeypatch, capsys, argv, expected):
    # a zero pairing of kappa_1 kappa_2 with its own stratum: the report
    # names the row, the unknowns solved (none: (1, 2) is solved first) and
    # the system as dense rows, strata by unknowns in (length, lex) order
    def wrong_pairings(mu):
        found = dict(oracle._pairings(mu))
        if mu == (1, 2):
            found[mu] = 0
        return found

    monkeypatch.setattr(oracle, "_PAIRINGS", Memo(wrong_pairings))
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/fd")
def test_an_in_process_broken_pipe_leaks_no_file_descriptor(monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["product", "--a", "1,1", "--marked", "5"]) == 1
        monkeypatch.undo()
    # main pointed the pipe's descriptor at os.devnull, which the close above shut
    assert open_fds() == before


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="needs Linux pipe sizing")
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback():
    # a one-page pipe holds only part of the 27,874-byte report, so the solve
    # is still writing when the reader closes it, whatever the timing
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "kapparing", "solve", "--a", ",".join("1" * 16), "--marked", "26"]
    proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=REPO)
    os.close(write_end)
    assert len(os.read(read_end, 100)) == 100
    os.close(read_end)
    _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (1, b"")
