import contextlib
import fcntl
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from kapparing import cli, oracle, partitions, ring, verification

from bruteforce import euler_partition_counts

REPO = Path(__file__).resolve().parent.parent
# a child's environment, with the package's source first on its path
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src") + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "kapparing", *args], capture_output=True, text=True, env=ENV, cwd=REPO)


def imported_by(module, prefixes, then=""):
    """The modules with one of ``prefixes`` that a fresh interpreter has loaded
    after ``import module`` and the statements ``then``."""
    code = f"import sys, {module}\n{then}\nprint(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r})))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, cwd=REPO)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_neither_inspect_nor_dataclasses():
    # both pull in ast, dis and tokenize, which every `kappa` start would pay for
    assert imported_by("kapparing", ("inspect", "dataclasses")) == "[]"


def test_cli_import_loads_no_process_pool():
    # a pool's modules cost a `kappa` start about 15 ms, and the sweeps fork
    # their children without them, so not even a forked verify run loads them
    prefixes = ("concurrent", "multiprocessing")
    assert imported_by("kapparing.cli", prefixes) == "[]"
    verify = (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = kapparing.cli.main(['verify', '--suite', 'all', '--jobs', '2'])\n"
        "if code:\n"
        "    sys.exit(f'verify exited {code}')"
    )
    assert imported_by("kapparing.cli", prefixes, then=verify) == "[]"


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
        reports[command[0]] = json.loads(main_stdout(command + flags))["bounds"]
    expected_ring = {**RING_DEFAULTS, **ring}
    assert reports["verify"] == {"identities": {**IDENTITY_DEFAULTS, **identities}, "ring": expected_ring}
    assert reports["reconcile"] == expected_ring


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cache_sizes_on_stderr_are_labelled_as_this_process(jobs):
    # forked children fill their own tables, which the parent's count omits
    result = run_cli("reconcile", "--max-sum", "4", "--max-len", "3", "--jobs", jobs)
    assert result.returncode == 0, result.stderr
    last = result.stderr.strip().splitlines()[-1]
    assert "; this process's cache: " in last and last.endswith(" correction values"), last
    assert result.stdout == run_cli("reconcile", "--max-sum", "4", "--max-len", "3").stdout


def run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_invalid_input_exits_2():
    # one request through a real interpreter, so a real exit status stays covered
    assert run_cli("product", "--a", "1,x", "--marked", "5").returncode == 2
    assert run_main(["product", "--a", "0,1", "--marked", "5"])[0] == 2
    # the pairing route rejects a bad index even where the basis is empty
    assert run_main(["product", "--a", "0,1", "--marked", "1", "--method", "pairing"])[0] == 2
    # both routes check a product request alike: the same message for a bad genus or marking count
    for bad in (("--genus", "-1", "--marked", "9"), ("--marked", "-1"), ("--genus", "1", "--marked", "-3")):
        by_pairing = run_main(["product", "--a", "1,1", *bad, "--method", "pairing"])
        assert by_pairing[:2] == (2, "")
        assert by_pairing[2] == run_main(["product", "--a", "1,1", *bad, "--method", "ck"])[2], bad
    # solve checks its request by the same rule as product: the same exit code, stdout and stderr
    by_solve = run_main(["solve", "--a", "1,2,3", "--marked", "-1"])
    assert by_solve[:2] == (2, "")
    assert by_solve == run_main(["product", "--a", "1,2,3", "--marked", "-1"])
    assert run_main(["xcoeff", "--a", "1,1", "--partition", "[[0]]", "--d", "2"])[0] == 2
    assert run_main(["xcoeff", "--a", "1,1", "--partition", "[[0],[1]]", "--d", "0"])[0] == 2
    assert run_main(["solve", "--a", "1,1", "--marked", "4"])[0] == 2
    assert run_main(["pair", "--a", "1,1", "--dims", "-1,3"])[0] == 2
    # the coefficient cache file and its --cache flag are gone
    assert run_main(["product", "--a", "1,1", "--marked", "5", "--cache", "x"])[0] == 2
    assert run_main(["product", "--a", "1,1"])[0] == 2
    for partition in ('[["a"],[1]]', "[[0],[null]]", "[[0],[1.0]]", "[[0],[[1]]]", "[[0],[true]]"):
        code, _, err = run_main(["xcoeff", "--a", "1,1", "--d", "2", "--partition", partition])
        assert code == 2, (partition, err)
        assert "Traceback" not in err
    for args in (
        ("verify", "--suite", "ring", "--max-len", "-1"),
        ("verify", "--suite", "ring", "--max-sum", "0"),
        ("verify", "--suite", "ring", "--jobs", "-5"),
        ("reconcile", "--max-len", "0"),
        ("reconcile", "--max-sum", "-2"),
        ("reconcile", "--jobs", "0"),
    ):
        assert run_main(args)[0] == 2, args


def test_argparse_errors_are_returned_not_raised():
    # main returns the parser's exit status, with the stderr a real process prints
    code, out, err = run_main(["nonsense"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: kappa ") and "'nonsense'" in err
    result = run_cli("nonsense")
    assert (result.returncode, result.stderr) == (code, err)
    code, out, err = run_main(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: kappa ")


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
    code, out, err = run_main(argv)
    assert code == 2, (argv, out, err)
    assert out == ""


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


# What a report can hold and more: every JSON scalar, strings that need
# escapes, ints past 64 bits, floats json.dumps writes as NaN or Infinity
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(alphabet='"\\/\x00\x1f\x7f\n\t\u00e9\u20ac\u2028\U0001f600', max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    # a dict with a non-str key goes to json.dumps whole, re-indented to its depth
    | st.dictionaries(st.text(max_size=4) | st.integers() | st.booleans() | st.none() | st.floats(), inner,
                      min_size=1, max_size=4),
    max_leaves=40,
)


@given(JSON_VALUES)
def test_the_report_writer_prints_the_bytes_of_json_dumps_at_indent_2(value):
    assert cli._to_json(value) == json.dumps(value, indent=2)


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
    result = subprocess.run([sys.executable, "-m", "kapparing", *args], capture_output=True, env=ENV, cwd=REPO)
    assert result.returncode == 0, result.stderr
    return hashlib.sha256(result.stdout).hexdigest()


VERIFY_ALL_SHA256 = "90611f11e6d831687ea6c25e5afe5fb421a628a8221522c0124650f34791f833"


def test_verify_all_report_is_pinned_byte_for_byte():
    assert stdout_sha256("verify", "--suite", "all") == VERIFY_ALL_SHA256


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
# pinned to the bytes they printed before the pairing DP and integer Bareiss;
# the other four pairings to the bytes the component DP printed before the
# pairing read the column table: a zero component, a degree mismatch, eight
# distinct entries on three components, and csv.
ORACLE_REPORTS = [
    (("solve", "--a", "3,4,5", "--marked", "18"), "2f1666e7cd0b252e33281c6bb0dc9cb9d660a6dfc0506835bd9b5fed01502cd8"),
    (("solve", "--a", "1,2,3,4", "--marked", "16"), "7652994fb3a6cd63fb1d1eeff5718e32206c3ff17d0a0a517c9a8f5ae60e3694"),
    (("solve", "--a", "1,1,2,2,3", "--marked", "15"), "c6759ebae2d80e2afd442add7d638d0d08d9b39d576907bda8c24e3d9261f2bf"),
    (("solve", "--a", "1,1,1,1,1,1", "--marked", "12"), "ba7803f4e591eed831e40eafff53135ff576b9b7f094fd2b2abed4dfd1d1ed36"),
    (("solve", "--a", "1,1,1,1,1,1,1", "--marked", "13"), "7a45ac600ddcd6b17fb97391fc2a28613ffb365f9e204ed31f8936fcdb6e103d"),
    (("solve", "--a", "2,2,3", "--marked", "14"), "9e921438231c098e330db8d28b6682eb3917e78fb3da2854a5189ee5f7e7ca2f"),
    (("solve", "--a", "1,2,3", "--marked", "13"), "9777d8d1bbf2bde5dbe37cee5410b556cb783f2048d6e783e93e53b4bff3d0dc"),
    (("pair", "--a", "1,1,2,2", "--dims", "1,2,3"), "ab7de2dde889d5bacd4131e1e61f18e58455730ff8488f8f272cd9b750521212"),
    (("pair", "--a", "1,1", "--dims", "0,2"), "a704e0570f931ae8729eac35fc927b231610cfceb71ddd51b2325cf39db8b366"),
    (("pair", "--a", "1,2", "--dims", "4"), "8592b67a831a2fddca9dda90b7917862a89a987c1cf41027284863368ac3b772"),
    (("pair", "--a", "1,2,3,4,5,6,7,8", "--dims", "10,12,14"), "8aeab4c76a73e37621005410c8fd42c6d34234ca2ffa84cf779b1275f4e95ff1"),
    (("pair", "--a", "1,1,2,2", "--dims", "1,2,3", "--format", "csv"), "7860bc03d38ff5374c211aa58c5fa0255d96f679ea4f2892ae810335ed8bd56d"),
]


@pytest.mark.parametrize("args, digest", ORACLE_REPORTS)
def test_oracle_reports_are_pinned_byte_for_byte(args, digest):
    assert stdout_sha256(*args) == digest


def main_stdout(argv):
    """What ``cli.main(argv)`` prints to stdout in this process; it must exit 0."""
    code, out, err = run_main(argv)
    assert code == 0, err
    return out


def test_verify_all_on_its_one_pool_matches_a_serial_run(monkeypatch, serial_fork):
    # CLI_PAIRS compares `verify --suite all` at --jobs 2 with the default, both
    # forked; this is the serial side: every sweep in this process, through the stand-in
    serial = verification.run_suite("all")
    # one fan-out, to two workers or the CPUs if fewer, for the identity sweep,
    # the ring cases and the determinism slice
    size = min(2, os.cpu_count() or 1)
    assert serial_fork == [size]
    out = main_stdout(["verify", "--suite", "all"])
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256
    monkeypatch.undo()
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    assert verification.run_suite("all", jobs=2) == serial
    assert len(forked) == size


# The oracle_solve requests, sixteen and twenty 1s, and every pinned pairing
WARM_REQUESTS = (
    [args for args, _ in ORACLE_REPORTS if args[0] == "solve"]
    + [("solve", "--a", ",".join(["1"] * k), "--marked", marked) for k, marked in ((16, "26"), (20, "42"))]
    + [args for args, _ in ORACLE_REPORTS if args[0] == "pair"]
)


def test_requests_served_from_warm_tables_print_the_same_bytes_as_cold_ones():
    # each cold run starts from empty memo tables, the pairing columns too;
    # one warm process then serves every request forward, then in reverse
    cold = []
    for argv in WARM_REQUESTS:
        ring.clear_coeff_caches()
        cold.append(main_stdout(argv))
    ring.clear_coeff_caches()
    for order, indices in (("forward", range(len(cold))), ("reverse", reversed(range(len(cold))))):
        for i in indices:
            assert main_stdout(WARM_REQUESTS[i]) == cold[i], (order, WARM_REQUESTS[i])


class Pair(NamedTuple):
    """Two requests that print the same bytes, stdout if both exit 0 and stderr
    if both exit 2; with no right side only the left's exit code counts."""

    left: str
    right: Optional[str] = None
    code: int = 0
    limit: Optional[int] = None  # partitions.COEFF_CACHE_LIMIT for the left side
    rename: Optional[tuple] = None  # (old, new) in both stdouts, which differ without it


def by_methods(request, methods, reference="ck"):
    """``product request`` by each of ``methods`` against ``reference``, as csv."""
    product = "product {} --method {} --format csv".format
    return {f"{request} by {m} and {reference}": Pair(product(request, m), product(request, reference)) for m in methods}


NINE_DISTINCT = "1,2,3,4,5,6,7,8,9"
TWELVE_1S = ",".join("1" * 12)

CLI_PAIRS = {
    # A forked run, each child computing every other case, prints a serial run's
    # bytes. verify --suite all forks at every --jobs, so its row compares two
    # forked runs; test_verify_all_on_its_one_pool_matches_a_serial_run is its serial side.
    **{f"{command} --jobs 2": Pair(f"{command} --jobs 2", command)
       for command in ("verify --suite all", "verify --suite ring", "verify --suite reconcile", "reconcile")},
    # the determinism row reports the workers asked for, max(--jobs, 2), so
    # --jobs 3 differs from the default in that field alone
    "verify --suite all --jobs 3": Pair("verify --suite all --jobs 3", "verify --suite all", rename=('"jobs": 3', '"jobs": 2')),
    # Memo tables that empty themselves again and again print the default bytes.
    # The verify sweep needs 416 shifted rows, 415 socle values, 128 correction
    # values and their 128 moments, so at a limit of 64 a serial run empties
    # them 34, 16, 5 and 5 times (test_all_at_a_memo_limit_of_64_gives_the_default_rows);
    # here the two forked children inherit the limit and each empties its own
    # tables (in measured runs each child 19, 9 and 2 or 3 times, the parent never).
    "verify --suite all at a limit of 64": Pair("verify --suite all", "verify --suite all", limit=64),
    # reconcile, whose closed values and single_binomial cutoff both read ring's
    # chain rows, fills no table past 26 entries, so it runs at a limit of 8: its
    # 24 chain rows empty 16 times and the 23 closed polynomials built from them 9 times
    "reconcile at a limit of 8": Pair("reconcile", "reconcile", limit=8),
    # genus one at d = 4: the reindexing n -> n + 2g feeds the one product loop
    **by_methods("--a 1,1,1,1,1,1,1,1,1 --marked 14", ("closed", "recursive")),
    **by_methods("--a 1,1,1,2,2,2,3,3,3 --marked 23", ("closed", "recursive")),
    **by_methods("--a 1,1,2,2,3,3 --genus 1 --marked 16", ("closed", "recursive")),
    # distinct values, where no two blocks share a value multiset: closed's
    # chain rows and recursive's labelled walk against the socle-split rows that
    # ck's split weights and the pairing columns both read; the pairing solve
    # shares only that table with ck
    **by_methods("--a 1,2,3,4,5,6,7,8 --marked 41", ("closed", "recursive", "pairing")),
    # twelve 1s at d = 3 and d = 7: ck and closed walk 19 and 65 orbits, the
    # pairing solve shares only the socle-split rows with ck; recursive is left
    # out, as it still walks all Bell(12) labelled partitions
    **by_methods(f"--a {TWELVE_1S} --marked 17", ("closed", "pairing")),
    **by_methods(f"--a {TWELVE_1S} --marked 21", ("closed", "pairing")),
    # nine distinct entries at full budget (n = 1000): the pairing solve
    # substitutes on all 3,744 columns the table holds, against closed's chain rows
    **by_methods(f"--a {NINE_DISTINCT} --marked 1000", ("pairing",), reference="closed"),
    # ck and closed share one truncated-product kernel, each with its own
    # per-block polynomials; its degree cap min(d, len(a)) is d = 3 on ten
    # distinct entries and d = 10 on twenty 1s
    **by_methods("--a 1,2,3,4,5,6,7,8,9,10 --marked 60", ("closed",)),
    **by_methods(f"--a {','.join('1' * 20)} --marked 32", ("closed",)),
    # d = 3: ck's split weights read the correction of every sub-multiset of
    # nine distinct entries, closed reads none; the json names its method
    **by_methods(f"--a {NINE_DISTINCT} --marked 50", ("ck",), reference="closed"),
    "correction json": Pair(f"product --a {NINE_DISTINCT} --marked 50 --method ck",
                            f"product --a {NINE_DISTINCT} --marked 50 --method closed",
                            rename=('"method": "closed"', '"method": "ck"')),
    # xcoeff exits 1 unless every method gives the same coefficient
    "xcoeff nine 1s": Pair("xcoeff --a 1,1,1,1,1,1,1,1,1 --partition [[0,1,2,3,4,5,6,7,8]] --d 3"),
    "xcoeff 1,1,1,2,2,2,3,3,3": Pair("xcoeff --a 1,1,1,2,2,2,3,3,3 --partition [[0,1,2,3,4,5,6,7,8]] --d 3"),
    # basis_coeff trusts only values the package built itself, never a --partition
    "partition canonicalised": Pair("xcoeff --a 1,2,3 --partition [[2,0],[1]] --d 2",
                                    "xcoeff --a 1,2,3 --partition [[0,2],[1]] --d 2"),
    "partition validated": Pair("xcoeff --a 1,2,3 --partition [[0,true],[2]] --d 2", code=2),
    # n + 2g = 9 either way: the reindexing feeds the pairing solve and the product loop alike
    **by_methods("--a 1,1,2 --genus 1 --marked 7", ("pairing",)),
    **by_methods("--a 1,1,2 --genus 2 --marked 5", ("pairing",)),
    "negative genus": Pair("product --a 1,1,2 --genus -1 --marked 9 --method pairing",
                           "product --a 1,1,2 --genus -1 --marked 9 --method ck", code=2),
    # exits 1 on any failing socle_three_paths row: the shared socle table, which
    # the pairings read, against the integral over the orbits on 113 multisets
    "oracle suite": Pair("verify --suite oracle --max-len 6 --max-sum 12"),
}


@pytest.mark.parametrize("pair", CLI_PAIRS.values(), ids=list(CLI_PAIRS))
def test_cli_pairs_print_the_same_bytes(monkeypatch, cold_tables, pair):
    # each side starts from empty tables, as a fresh process does; the --jobs
    # and memo-limit rows fork real children, which inherit the limit
    def cold(argv, limit=None):
        ring.clear_coeff_caches()
        with monkeypatch.context() as patch:
            if limit:
                patch.setattr(partitions, "COEFF_CACHE_LIMIT", limit)
            return run_main(argv.split())

    left = cold(pair.left, pair.limit)
    assert left[0] == pair.code, left
    if pair.right is None:
        return
    right = cold(pair.right)
    assert right[0] == pair.code, right
    # stdout on success; stderr on exit 2, where success would print its timing
    mine, theirs = (side[1 if pair.code == 0 else 2] for side in (left, right))
    if pair.rename:
        assert mine != theirs
        mine, theirs = mine.replace(*pair.rename), theirs.replace(*pair.rename)
    assert mine == theirs


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
def test_a_rank_deficient_pairing_report_is_pinned_byte_for_byte(cold_tables, capsys, argv, expected):
    # a zero pairing of kappa_1 kappa_2 with its own stratum: the report
    # names the row, the unknowns solved (none: (1, 2) is solved first) and
    # the system as dense rows of pairings, strata by unknowns in (length,
    # lex) order
    row = dict(partitions._SOCLE_SPLITS[(1, 2)])
    row[(1, 2)] = 0
    partitions._SOCLE_SPLITS[(1, 2)] = tuple(row.items())
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
    argv = [sys.executable, "-m", "kapparing", "solve", "--a", ",".join("1" * 16), "--marked", "26"]
    proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=ENV, cwd=REPO)
    os.close(write_end)
    assert len(os.read(read_end, 100)) == 100
    os.close(read_end)
    _, stderr = proc.communicate(timeout=120)
    assert (proc.returncode, stderr) == (1, b"")
