import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from vtcycles.cli import build_parser, main
from vtcycles.digraph import UNKNOWN, read_edge_list
from vtcycles.gadgets import directed_cycle_product
from vtcycles import cli
from vtcycles.numbergap import motohashi_pairs, perimeter_gap_table
from vtcycles.reports import jsonable
from vtcycles import verify
from vtcycles.verify import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_product(tmp_path, capsys):
    out_file = tmp_path / "p.edges"
    code, out = run(capsys, "construct", "product", "--n1", "2", "--n2", "3",
                    "--out", str(out_file))
    assert code == 0
    D = read_edge_list(out_file.read_text())
    assert D == directed_cycle_product(2, 3)
    report = json.loads(out)
    assert report["result"]["vertices"] == 6


def test_construct_toroidal(tmp_path, capsys):
    out_file = tmp_path / "t.edges"
    code, out = run(capsys, "construct", "toroidal", "--n", "1",
                    "--out", str(out_file))
    assert code == 0
    assert read_edge_list(out_file.read_text()).n == 12


def test_construct_toroidal_reports_its_hamiltonicity_check(capsys):
    # toroidal_gadget runs the alternating-cycle check at every n
    code, out = run(capsys, "construct", "toroidal", "--n", "3")
    assert code == 0
    post = json.loads(out)["result"]["post_verification"]
    assert post == {"regular": 2, "vertices": 28, "hamiltonian_checked": True}


def test_construct_cayley_matches_product(tmp_path, capsys):
    f1 = tmp_path / "c.edges"
    f2 = tmp_path / "p.edges"
    code, _ = run(capsys, "construct", "cayley", "--group", "product 2 3",
                  "--gens", "(1,0),(0,1)", "--out", str(f1))
    assert code == 0
    code, _ = run(capsys, "construct", "product", "--n1", "2", "--n2", "3",
                  "--out", str(f2))
    assert code == 0
    assert read_edge_list(f1.read_text()) == read_edge_list(f2.read_text())


def test_construct_figure1_with_dot(tmp_path, capsys):
    out_file = tmp_path / "g.edges"
    dot_file = tmp_path / "g.dot"
    code, _ = run(capsys, "construct", "figure1", "--k", "2",
                  "--out", str(out_file), "--dot", str(dot_file))
    assert code == 0
    assert "dir=both" in dot_file.read_text()


def test_construct_failure_exits_nonzero(capsys):
    code, out = run(capsys, "construct", "toroidal", "--n", "0")
    assert code == 2
    assert "error" in json.loads(out)


# Errors of failing `construct cayley` calls, recorded while the command
# parsed --group and --gens itself instead of through parse_cayley_spec.
# The product entries name the bad chunk, since product generators must be
# parenthesised pairs: `1` and `1,2,3` failed with Python's bare unpacking
# messages, and `1,2` built the single generator (1,2).
CAYLEY_CONSTRUCT_ERRORS = [
    (["--group", "quaternion 8", "--gens", "1"],
     "unrecognized group spec 'quaternion 8'"),
    (["--group", "cyclic x", "--gens", "1"],
     "invalid literal for int() with base 10: 'x'"),
    (["--group", "cyclic 8", "--gens", "2"],
     "generators (2,) generate only 4 of 8 elements"),
    (["--group", "cyclic 8", "--gens", "0,1"],
     "identity generator would create self-loops"),
    (["--group", "product 2 3", "--gens", "1,2,3"],
     "product generator '1' is not a pair like (1,0)"),
    (["--group", "product 2 3", "--gens", "1"],
     "product generator '1' is not a pair like (1,0)"),
    (["--group", "cyclic 8"], "cayley needs --group and --gens"),
    (["--group", "product 2 3", "--gens", "1,2"],
     "product generator '1' is not a pair like (1,0)"),
]


@pytest.mark.parametrize("argv, error", CAYLEY_CONSTRUCT_ERRORS)
def test_construct_cayley_errors_match_recorded_table(capsys, argv, error):
    code, out = run(capsys, "construct", "cayley", *argv)
    assert code == 2
    assert json.loads(out) == {"schema": 1, "error": error}


def test_construct_cayley_product_pairs_still_parse(capsys):
    code, out = run(capsys, "construct", "cayley", "--group", "product 2 3",
                    "--gens", "(1,0),(0,1)")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vertices"] == 6
    assert result["post_verification"]["generators"] == 2
    for gens, chunk in (("(1,0),2", "'2'"), ("(1,0,1)", "'(1,0,1)'")):
        code, out = run(capsys, "construct", "cayley", "--group",
                        "product 2 3", "--gens", gens)
        assert code == 2 and chunk in json.loads(out)["error"]
    code, out = run(capsys, "construct", "cayley", "--group", "product 2 3",
                    "--gens", "(1,0),(0,3)")
    assert json.loads(out)["error"] == "product generator '(0,3)' out of range"


@pytest.mark.parametrize("argv", [
    ["construct", "product", "--n1", "2", "--n2", "3"],
    ["analyze", "g.edges"],
    ["verify", "figure1"],
    ["search", "motohashi"],
])
def test_format_dot_is_rejected_by_the_parser(capsys, argv):
    # construct and analyze always print JSON, so they have no --format
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--format", "dot"])
    assert exit_.value.code == 2
    expected = ("invalid choice: 'dot'" if argv[0] in ("verify", "search")
                else "unrecognized arguments: --format dot")
    assert expected in capsys.readouterr().err


# Each subcommand's flags, as (flag, value); every other subcommand's flag
# is unknown to it.
SUBCOMMAND_FLAGS = {
    ("construct", "product"): [("--group", "cyclic 4"), ("--gens", "1"),
                               ("--n1", "2"), ("--n2", "3"), ("--k", "2"),
                               ("--n", "1"), ("--out", "x"), ("--dot", "x")],
    ("analyze", "g.edges"): [("--which", "diameter"), ("--out", "x"),
                             ("--budget-nodes", "5"), ("--max-cycles", "5"),
                             ("--seed", "5")],
    ("verify", "figure1"): [("--max-order", "5"), ("--max-k", "5"),
                            ("--max-n", "5"), ("--out", "x"),
                            ("--format", "json"), ("--threads", "2")],
    ("search", "motohashi"): [("--max-d", "5"), ("--max-p", "5"),
                              ("--out", "x"), ("--format", "json"),
                              ("--threads", "2")],
}
REMOVED_FLAGS = [
    (command, flag, value)
    for command, kept in SUBCOMMAND_FLAGS.items()
    for flag, value in (("--format", "json"), ("--budget-nodes", "5"),
                        ("--max-cycles", "5"), ("--threads", "2"),
                        ("--seed", "5"))
    if flag not in dict(kept)]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_removed_flag_exits_2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([*command, flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, kept in SUBCOMMAND_FLAGS.items()
    for flag, value in kept])
def test_kept_flag_parses(command, flag, value):
    args = build_parser().parse_args([*command, flag, value])
    dest = "fmt" if flag == "--format" else flag[2:].replace("-", "_")
    assert str(getattr(args, dest)) == value


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_help_lists_exactly_the_subcommand_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command[0], "--help"])
    assert exit_.value.code == 0
    flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert flags - {"--help"} == {flag for flag, _ in SUBCOMMAND_FLAGS[command]}


@pytest.mark.parametrize("argv", [
    ["analyze", "g.edges", "--budget-nodes", "0"],
    ["analyze", "g.edges", "--max-cycles", "0"],
    ["verify", "figure1", "--threads", "0"],
])
def test_counts_below_one_exit_2_with_a_json_error(capsys, argv):
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {
        "schema": 1, "error": "budgets and threads must be positive"}


def test_analyze_diameter_and_expansion(tmp_path, capsys):
    f = tmp_path / "c8.edges"
    run(capsys, "construct", "cayley", "--group", "cyclic 8", "--gens", "1",
        "--out", str(f))
    code, out = run(capsys, "analyze", str(f), "--which", "diameter,expansion")
    assert code == 0
    payload = json.loads(out)
    ops = {r["operation"]: r for r in payload["reports"]}
    assert ops["diameter"]["result"]["directed_diameter"] == 7
    assert ops["expansion"]["result"]["alpha_lower"] == "1/5"


def test_analyze_rejects_disconnected_for_dfs(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("3 2\n0 1\n1 2\n")
    code, out = run(capsys, "analyze", str(f), "--which", "dfs-cycle")
    assert code == 2
    assert "strongly connected" in json.loads(out)["error"]


def test_analyze_pipeline(tmp_path, capsys):
    f = tmp_path / "t1.edges"
    run(capsys, "construct", "toroidal", "--n", "1", "--out", str(f))
    code, out = run(capsys, "analyze", str(f), "--which", "pipeline-n13")
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["result"]["trace"]["branch"] == "small"


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "trotter-erdos", "--max-order", "12")
    assert code == 0
    assert out.splitlines()[0] == "n1,n2,gcd,hamiltonian,condition,split,ok"


def test_verify_trotter_erdos_does_not_count_unknown_as_hamiltonian(
        capsys, monkeypatch):
    real = verify.alternating_hamiltonian

    def undecided_on_c2xc3(D):
        return UNKNOWN if D == directed_cycle_product(2, 3) else real(D)

    monkeypatch.setattr(verify, "alternating_hamiltonian", undecided_on_c2xc3)
    code, out = run(capsys, "verify", "trotter-erdos", "--max-order", "12")
    assert code == 1
    rows = {(r["n1"], r["n2"]): r for r in csv.DictReader(io.StringIO(out))}
    assert rows["2", "3"] == {"n1": "2", "n2": "3", "gcd": "1",
                              "hamiltonian": "unknown", "condition": "0",
                              "split": "", "ok": "0"}
    assert [key for key, r in rows.items() if r["ok"] != "1"] == [("2", "3")]


def test_verify_trotter_erdos_decides_both_directions_past_the_dp_cap(capsys):
    # products up to 50 x 2 = 100 vertices; the bitmask DP stops at 24 and
    # the backtracking at 40
    code, out = run(capsys, "verify", "trotter-erdos", "--max-order", "100")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(verify.product_pairs(100))
    assert all(r["hamiltonian"] == r["condition"] and r["ok"] == "1"
               for r in rows)
    assert {r["hamiltonian"] for r in rows} == {"0", "1"}


def test_search_outputs(capsys):
    code, out = run(capsys, "search", "prime-partitionable", "--max-d", "17")
    assert code == 0
    hits = json.loads(out)["hits"]
    assert hits[0]["d"] == 16

    code, out = run(capsys, "search", "theorem11", "--max-p", "20")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "p,q,d,n1,n2,n,ln_n,ratio"
    assert any(line.startswith("5,11,16,880,8736,") for line in out.splitlines())

    code, out = run(capsys, "search", "motohashi", "--max-p", "20",
                    "--format", "csv")
    assert code == 0
    assert "5,11,1" in out.splitlines()


def test_search_theorem11_writes_witnesses_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    pqd = [[r["p"], r["q"], r["d"]] for r in perimeter_gap_table(1000)]

    code, out = run(capsys, "search", "theorem11", "--max-p", "1000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [[int(r[k]) for k in ("p", "q", "d")] for r in rows] == pqd
    assert max(len(r["n"]) for r in rows) > 4300
    assert sys.get_int_max_str_digits() == limit

    code, out = run(capsys, "search", "theorem11", "--max-p", "1000",
                    "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_int=str)["rows"]   # n1, n2, n stay text
    assert [[int(r[k]) for k in ("p", "q", "d")] for r in rows] == pqd
    assert sys.get_int_max_str_digits() == limit


def test_search_theorem11_csv_keeps_the_digit_limit(capsys, monkeypatch):
    # n2 and n reach past 4,300 digits at --max-p 1000; the CSV takes them
    # from Decimal text, so no int is turned into text past the limit
    seen = []
    real = cli.write_csv

    def recording(rows, columns):
        seen.append(sys.get_int_max_str_digits())
        return real(rows, columns)

    monkeypatch.setattr(cli, "write_csv", recording)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)    # the interpreter's default
    try:
        code, out = run(capsys, "search", "theorem11", "--max-p", "1000")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and seen == [4300]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b65e20e1314ac326de4bd99860bcaf6cbebf4ade0456f8aab9ef2e3056a6a02e")


def test_search_motohashi_matches_the_pair_route(capsys):
    # csv.writer over MotohashiPair rows, and jsonable of the pairs
    pairs = motohashi_pairs(3000)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("p", "q", "bound_ok"))
    writer.writerows((m.p, m.q, int(m.bound_ok)) for m in pairs)
    code, out = run(capsys, "search", "motohashi", "--max-p", "3000")
    assert code == 0 and out == buf.getvalue()

    code, out = run(capsys, "search", "motohashi", "--max-p", "3000",
                    "--format", "json")
    report = {"schema": 1, "search": "motohashi", "max_p": 3000,
              "pairs": jsonable(pairs)}
    assert code == 0
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, "verify", "figure1", "--max-k", "3")
    _, second = run(capsys, "verify", "figure1", "--max-k", "3")
    assert first == second
    _, t1 = run(capsys, "verify", "divisibility", "--max-order", "12",
                "--threads", "1")
    _, t8 = run(capsys, "verify", "divisibility", "--max-order", "12",
                "--threads", "8")
    assert t1 == t8


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "toroidal", "--max-n", "1",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "toroidal" and payload["ok"]


def test_verify_dispatch_covers_every_suite(capsys):
    for suite in ("lemma21", "lemma24", "theorem25", "lemma27"):
        code, out = run(capsys, "verify", suite)
        assert code == 0, suite
        assert out.splitlines()[0].startswith("instance,"), suite


def test_verify_parser_accepts_every_suite():
    parser = build_parser()
    for suite in SUITES:
        assert parser.parse_args(["verify", suite]).suite == suite


def _parsers(parser) -> list:
    """The parser and the parser of each of its subcommands."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return [parser, *sub.choices.values()]


def test_help_is_that_of_the_default_formatter(monkeypatch):
    seen = []
    for columns in ("50", "200"):
        # the default formatter asks the terminal, here COLUMNS, on each use
        monkeypatch.setenv("COLUMNS", columns)
        texts = [p.format_help() for p in _parsers(build_parser())]
        default = _parsers(build_parser())
        for p in default:
            p.formatter_class = argparse.HelpFormatter
        assert texts == [p.format_help() for p in default]
        assert len(texts) == 5
        seen.append(texts)
    assert all(narrow != wide for narrow, wide in zip(*seen))


def test_verify_divisibility_names_its_order_cap(capsys):
    assert main(["verify", "divisibility", "--max-order", "24"]) == 0
    capped = capsys.readouterr()
    assert main(["verify", "divisibility", "--max-order", "20"]) == 0
    at_cap = capsys.readouterr()
    assert capped.out == at_cap.out
    assert capped.err == "verify divisibility: --max-order 24 capped at 20\n"
    assert at_cap.err == ""
    assert main(["verify", "divisibility", "--max-order", "16"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("trotter-erdos", "--max-order", "3"), ("divisibility", "--max-order", "2"),
    ("figure1", "--max-k", "0"), ("toroidal", "--max-n", "0")])
def test_verify_selecting_no_case_is_not_ok(capsys, argv):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1          # the CSV header only
    assert captured.err == f"verify {argv[0]}: no case selected\n"
    assert not SUITES[argv[0]](int(argv[2])).ok


def test_verify_figure1_names_its_block_cap(capsys):
    # k = 6 has n = 24 > 20 vertices, past uncapped enumeration
    assert main(["verify", "figure1", "--max-k", "8"]) == 0
    capped = capsys.readouterr()
    assert main(["verify", "figure1", "--max-k", "5"]) == 0
    at_cap = capsys.readouterr()
    assert capped.out == at_cap.out
    assert capped.out.splitlines()[-1] == "5,20,1,1,4,5,1"
    assert capped.err == "verify figure1: --max-k 8 capped at 5\n"
    assert at_cap.err == ""


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_at_its_defaults_writes_nothing_to_stderr(suite, capsys):
    # each suite runs at its own default, so no option is capped
    assert main(["verify", suite]) == 0
    assert capsys.readouterr().err == ""


def test_verify_runs_the_suite_found_on_the_module(monkeypatch, capsys):
    # a wrapper installed on the module (as a tracer does) is the one called
    calls = []
    real = verify.suite_figure1

    def wrapped(max_k):
        calls.append(max_k)
        return real(max_k)

    monkeypatch.setattr(verify, "suite_figure1", wrapped)
    code, _ = run(capsys, "verify", "figure1", "--max-k", "2")
    assert code == 0 and calls == [2]


def test_search_motohashi_cap(capsys, tmp_path):
    out_file = tmp_path / "m.csv"
    for fmt in ("csv", "json"):
        code, out = run(capsys, "search", "motohashi", "--max-p",
                        str(10 ** 7), "--format", fmt, "--out", str(out_file))
        assert code == 2
        assert "capped" in json.loads(out)["error"]
        assert not out_file.exists()


def _cli_process(argv, log_level):
    env = {k: v for k, v in os.environ.items() if k != "VTC_LOG"}
    if log_level is not None:
        env["VTC_LOG"] = log_level
    return subprocess.run([sys.executable, "-m", "vtcycles.cli", *argv],
                          capture_output=True, text=True, check=False, env=env)


def test_vtc_log_names_stages_on_stderr_only(tmp_path):
    edges = tmp_path / "p.edges"
    edges.write_text("6 6\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")
    for argv, lines in (
            (["verify", "figure1", "--max-k", "2"],
             ["verify: start", "verify figure1: start",
              "verify figure1: end, 2 rows", "verify: end, exit 0"]),
            (["analyze", str(edges), "--which", "diameter,dfs-cycle"],
             ["analyze: start", "analyze diameter: start",
              "analyze diameter: end", "analyze dfs-cycle: start",
              "analyze dfs-cycle: end", "analyze: end, exit 2"])):
        quiet = _cli_process(argv, None)
        logged = _cli_process(argv, "INFO")
        assert logged.returncode == quiet.returncode
        assert logged.stdout == quiet.stdout
        assert quiet.stderr == ""
        assert [ln.split(":", 2)[2] for ln in logged.stderr.splitlines()] == lines


def test_vtc_log_takes_any_case_and_refuses_unknown_names():
    argv = ["verify", "figure1", "--max-k", "2"]
    quiet = _cli_process(argv, None)
    upper = _cli_process(argv, "INFO")
    lower = _cli_process(argv, "info")
    assert (lower.returncode, lower.stdout) == (upper.returncode, upper.stdout)
    assert lower.stderr.splitlines() == upper.stderr.splitlines() != []
    empty = _cli_process(argv, "")
    assert (empty.returncode, empty.stdout, empty.stderr) == (
        quiet.returncode, quiet.stdout, "")
    unknown = _cli_process(argv, "verbose")
    assert unknown.returncode == 2 and unknown.stderr == ""
    report = json.loads(unknown.stdout)
    assert report["schema"] == 1 and "VERBOSE" in report["error"]
