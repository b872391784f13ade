"""Command-line surface: exit codes, JSON round trips, human output."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from math import comb

import pytest

from hamfix import SpecError, builtin, config_from_dict, config_to_dict, search
from hamfix.cli import MAX_EDGE_WEIGHT, main
from hamfix.model import MAX_TABLE_SIZE, sort_key


@pytest.fixture()
def o_file(tmp_path):
    path = tmp_path / "o.json"
    path.write_text(json.dumps(config_to_dict(builtin("o"))))
    return str(path)


@pytest.fixture()
def mutated_file(tmp_path):
    doc = config_to_dict(builtin("o"))
    for e in doc["edges"]:
        if (e["lo"], e["hi"], e["w"]) == (0, 2, 4):
            e["w"] = 2
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_pass(o_file, capsys):
    assert main(["check", o_file]) == 0
    out = capsys.readouterr().out
    assert "pass: True" in out and "c1: 3" in out


def test_check_fail_exit_code(mutated_file, capsys):
    assert main(["check", mutated_file]) == 1
    doc = None
    capsys.readouterr()
    assert main(["check", mutated_file, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    assert doc["violations"]


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 2


def test_check_conflicting_effective_flags(o_file, capsys):
    for flags in ([], ["--effective"], ["--no-effective"]):
        assert main(["check", o_file, *flags]) == 0
    capsys.readouterr()
    assert main(["check", o_file, "--effective", "--no-effective"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_check_effective_flags_set_the_field(tmp_path, capsys):
    # o with every weight and moment value doubled: the gcd of its weights is
    # 2, which fails the file's "effective": true unless --no-effective
    doc = config_to_dict(builtin("o"))
    doc["moment"] = [2 * v for v in doc["moment"]]
    for e in doc["edges"]:
        e["w"] *= 2
    assert doc["effective"] is True
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--json"]) == 1
    rules = {v["rule"] for v in json.loads(capsys.readouterr().out)["violations"]}
    assert rules == {"Effectiveness"}
    assert main(["check", str(path), "--no-effective"]) == 0
    assert main(["check", str(path), "--effective"]) == 1


def test_check_human_violation_row(tmp_path, capsys):
    doc = config_to_dict(builtin("cp5", 1, 1, 1, 1, 1))
    for e in doc["edges"]:
        if (e["lo"], e["hi"]) == (0, 1):
            e["w"] = 2
    path = tmp_path / "cp5_w2.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    row = f"{'Divisibility':<24} {'0,1 (0,1,w2)':<22} weight 2 does not divide moment gap 1"
    assert row in capsys.readouterr().out.splitlines()


def test_report_json(o_file, capsys):
    assert main(["report", o_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["c1"] == 3
    assert doc["ring_q"] == ["1", "1", "1/3", "1/6", "1/18", "1/18"]
    assert doc["chern_ordinary"] == [3, 13, 22, 30, 6]
    assert doc["integrals"]["omega5"] == "18"


def test_report_human_contains_core_values(o_file, capsys):
    assert main(["report", o_file]) == 0
    out = capsys.readouterr().out
    assert "1/18" in out and "3 13 22 30 6" in out


def test_report_on_failing_config(mutated_file, capsys):
    assert main(["report", mutated_file]) == 1
    out = capsys.readouterr().out
    assert "no cohomology report" in out


def test_enumerate_json(capsys):
    code = main(
        [
            "enumerate",
            "--max-weight", "5",
            "--max-width", "5",
            "--threads", "1",
            "--json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["maxWeight"] == 5
    assert len(doc["configurations"]) == 1
    restored = config_from_dict(doc["configurations"][0])
    assert sort_key(restored) == sort_key(builtin("cp5", 1, 1, 1, 1, 1))
    assert doc["statistics"]["nodes"] > 0


def test_enumerate_huge_max_weight_with_divisibility(capsys):
    # with divisibility on, no cell lists every weight up to --max-weight,
    # so a bound far beyond memory still searches the one gap vector
    argv = ["enumerate", "--max-weight", "100000000000", "--max-width", "5", "--threads", "1"]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["moment"] for c in doc["configurations"]] == [[0, 1, 2, 3, 4, 5]]


def test_enumerate_huge_max_weight_without_divisibility_hits_node_limit():
    # without divisibility a cell lists every weight up to the width, not up
    # to --max-weight, so the run reaches its node limit and exits 1 with one
    # line; the child's address space is capped so that listing every weight
    # up to --max-weight fails fast instead of exhausting the machine
    argv = ["enumerate", "--max-weight", "100000000000", "--max-width", "5"]
    argv += ["--no-prune", "divisibility", "--node-limit", "1000", "--threads", "1"]

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "hamfix.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: node limit 1000 exceeded\n"


def test_enumerate_huge_max_weight_with_every_floor_rule_off_hits_node_limit():
    # with extremal, gamma and divisibility off the floors run up to the
    # width, not to --max-weight, so the run reaches its node limit in well
    # under a second and exits 1 with one line
    argv = ["enumerate", "--max-weight", "100000000000", "--max-width", "5", "--node-limit", "1000"]
    for rule in ("divisibility", "extremal", "gamma"):
        argv += ["--no-prune", rule]
    proc = subprocess.run(
        [sys.executable, "-m", "hamfix.cli", *argv, "--threads", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: node limit 1000 exceeded\n"


def test_enumerate_huge_gap_lists_its_divisors_fast():
    # a cell's allowed weights are its gap's divisors, found from the pairs
    # (d, gap // d) with d up to the square root of the gap, so a gap of 10^9
    # costs about 31,623 trial divisions, not 10^9
    argv = ["enumerate", "--max-weight", "1000000000", "--gaps", "1,1,1,1,1000000000"]
    proc = subprocess.run(
        [sys.executable, "-m", "hamfix.cli", *argv, "--node-limit", "1000", "--threads", "1"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        assert (proc.returncode, proc.stderr) == (1, "error: node limit 1000 exceeded\n")
    else:
        assert proc.stdout.startswith("configurations found: 0\n")
        assert proc.stderr.startswith("wall time:")


def test_enumerate_width_bound(capsys):
    # every cell gap is at most the width, so bounding the width, a derived
    # one included, by MAX_EDGE_WEIGHT bounds every divisor scan; the
    # children's address space is capped so that a regression that builds
    # the gap vectors of such a width fails fast instead
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    huge = str(10**16)
    for argv, width in (
        (["--max-weight", huge, "--gaps", f"1,1,1,1,{huge}", "--node-limit", "1000"], 10**17),
        (["--max-weight", str(10**11 + 1)], MAX_EDGE_WEIGHT + 10),
        (["--max-weight", "1", "--max-width", str(MAX_EDGE_WEIGHT + 1)], MAX_EDGE_WEIGHT + 1),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "hamfix.cli", "enumerate", *argv, "--threads", "1"],
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert proc.stderr == f"error: max_width {width} exceeds {MAX_EDGE_WEIGHT}\n", argv
    # the bound itself is accepted
    argv = ["enumerate", "--max-weight", "1", "--max-width", str(MAX_EDGE_WEIGHT)]
    assert main([*argv, "--gaps", "1,1,1,1,1", "--threads", "1"]) == 0
    assert capsys.readouterr().out.startswith("configurations found: 0\n")



def test_enumerate_table_bound():
    # cell (2, 4) of these gaps spans 735,134,400, which has 1,344 divisors:
    # the table of their 4-multisets (1.4e11) is refused before it is built,
    # in a child whose address space is capped so that building it fails fast
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 << 10, 1_500_000 << 10))

    argv = ["--max-weight", "1000000000", "--gaps", "1,1,1,735134399,1", "--node-limit", "1000"]
    proc = subprocess.run(
        [sys.executable, "-m", "hamfix.cli", "enumerate", *argv, "--threads", "1"],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    size = comb(1343 + 3, 4)
    message = f"a cell allows 1343 weights, whose {size} multisets of 4 exceed {MAX_TABLE_SIZE}"
    assert proc.stderr == f"error: {message}\n"
    # the bound: 68 weights make 971,635 multisets of 4, 69 make 1,028,790
    assert comb(68 + 3, 4) <= MAX_TABLE_SIZE < comb(69 + 3, 4)
    with pytest.raises(SpecError):
        search._tables(tuple(range(1, 70)), 0)


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # every command and benchmark repetition starts a fresh interpreter;
    # importing dataclasses pulls in inspect, ast, dis and tokenize, so none
    # of import, a builtin or a small verifier may reach it, lazily or not
    code = (
        "import sys, hamfix, hamfix.cli\n"
        "from hamfix import builtin, verify_theorem4\n"
        "assert builtin('o').label == 'o'\n"
        "assert verify_theorem4(1, 3, workers=1).passed\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_edge_weight_bound(tmp_path, capsys):
    # cp5 with last gap g has largest weight g + 4: the bound itself is
    # accepted, one more is a parse error wherever a configuration is built
    assert MAX_EDGE_WEIGHT == 10**12
    for g, code in ((MAX_EDGE_WEIGHT - 4, 0), (MAX_EDGE_WEIGHT - 3, 2)):
        assert main(["examples", "export", "cp5", "1", "1", "1", "1", str(g)]) == code
    err = capsys.readouterr().err
    assert err == f"error: edge weight {MAX_EDGE_WEIGHT + 1} exceeds {MAX_EDGE_WEIGHT}\n"
    doc = config_to_dict(builtin("cp5", 1, 1, 1, 1, 10**18))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "report"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: edge weight {10**18 + 4} exceeds {MAX_EDGE_WEIGHT}\n"


def test_enumerate_bad_prune_rule():
    assert main(["enumerate", "--max-weight", "2", "--max-width", "5", "--no-prune", "bogus"]) == 2


def test_enumerate_no_prune_every_rule(capsys):
    argv = ["enumerate", "--max-weight", "2", "--max-width", "6", "--threads", "1", "--json"]
    assert main(argv) == 0
    base = json.loads(capsys.readouterr().out)
    rules = ["divisibility", "extremal", "gamma", "balance", "ring"]
    for rule in rules:
        assert main(argv + ["--no-prune", rule]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["pruningToggles"] == {r: r != rule for r in rules}
        assert doc["configurations"] == base["configurations"]
        assert doc["statistics"] != base["statistics"]  # the rule reached the search


def test_verify_thm3(capsys):
    assert main(["verify", "thm3", "--threads", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_verify_thm4_requires_params(capsys):
    assert main(["verify", "thm4"]) == 2
    assert main(["verify", "thm4", "--a", "1", "--c", "4"]) == 2


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    assert capsys.readouterr().out.split() == ["o", "cp5", "grass", "remark_w7"]


def test_examples_export_round_trip(capsys):
    assert main(["examples", "export", "cp5", "1", "1", "1", "1", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert config_from_dict(doc) == builtin("cp5", 1, 1, 1, 1, 1)


def test_examples_show(capsys):
    assert main(["examples", "show", "o"]) == 0
    out = capsys.readouterr().out
    assert "gaps:      (1, 3, 2, 3, 1)" in out


def test_examples_missing_name(capsys):
    with pytest.raises(SystemExit) as err:
        main(["examples", "show"])
    assert err.value.code == 2


def test_examples_bad_params(capsys):
    assert main(["examples", "export", "grass", "1", "1", "3"]) == 2


def test_project_gkm(capsys):
    assert main(["project-gkm"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert config_from_dict(doc).moment == (0, 1, 4, 6, 9, 10)
    assert main(["project-gkm", "--xi", "1,0"]) == 2


def test_console_script_entry_point(o_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hamfix.cli", "check", o_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass: True" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-weight", "2", "--max-width", "5", "--largest-from", "x,1"],
        ["enumerate", "--max-weight", "2", "--max-width", "5", "--largest-from", "0,1,2"],
        ["enumerate", "--max-weight", "0", "--max-width", "5"],
        ["enumerate", "--max-weight", "5", "--max-width", "10", "--c1", "9"],
        ["enumerate", "--max-weight", "5", "--max-width", "10", "--largest-from", "0,9"],
        ["enumerate", "--max-weight", "5", "--max-width", "10", "--largest-from", "2,2"],
        ["verify", "thm1", "--max-weight", "0"],
        ["verify", "thm2", "--max-weight", "5"],  # thm2 reads no flag
        ["enumerate", "--max-weight", "0"],  # caught before a width is derived from it
        ["enumerate", "--max-weight", "2", "--max-width", "5", "--threads", "0"],
        ["enumerate", "--max-weight", "2", "--max-width", "5", "--threads", "-3"],
        ["enumerate", "--max-weight", "2", "--max-width", "5", "--node-limit", "-1"],
        ["enumerate", "--max-weight", "5", "--max-width", "10", "--gaps", "3,1,1,1,1"],
        ["enumerate", "--max-weight", "5", "--max-width", "10", "--gaps", "1,1,1,1"],
        ["enumerate", "--max-weight", "5", "--max-width", "9", "--gaps", "1,3,2,3,1"],
        ["project-gkm", "--xi", "x,1"],
        ["verify", "thm3", "--max-weight", "7", "--a", "9"],
        ["verify", "thm2", "--max-weight", "9"],
        ["verify", "thm1", "--c", "3"],
        ["enumerate", "--max-weight", "1", "--gaps", "1,3,2,3,2"],  # wider than the bound 10
        ["verify", "thm4", "--a", "1"],
        ["verify", "thm4", "--a", "1", "--c", "4"],
        ["examples", "show", "cp5", "1", "1", "1", "1", str(10**18)],  # weight 10**18 + 4
        ["project-gkm", "--xi", f"1,{2 * 10**12}"],  # largest weight 4 * 10**12 + 1
    ],
)
def test_argument_errors_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--max-weight", "x", "--max-width", "5"],
        ["project-gkm", "--json"],
        ["verify", "thm9"],
        ["enumerate", "--max-width", "5"],
        ["verify", "thm1", "--max-width", "0"],
        ["verify", "thm2", "--max-width", "0"],
        ["verify", "thm3", "--max-weight", "7", "--max-width", "3", "--a", "9"],
        ["verify", "thm4", "--a", "1", "--c", "3", "--max-width", "10"],
        ["examples", "list", "o"],  # a name list would silently ignore
        ["examples", "list", "cp5", "1", "1", "1", "1", "1"],
    ],
)
def test_parser_usage_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_unknown_flag_names_the_subcommand_help(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "thm2", "--max-width", "40"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unrecognized arguments: --max-width 40 (see hamfix verify --help)"
    ]


def test_human_output_ends_with_the_search_statistics(capsys):
    assert main(["enumerate", "--max-weight", "5", "--max-width", "5", "--threads", "1"]) == 0
    human = capsys.readouterr().out.splitlines()
    assert main(["enumerate", "--max-weight", "5", "--max-width", "5", "--threads", "1", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["statistics"]
    parts = " ".join(f"{k}={v}" for k, v in stats["pruned"].items())
    assert human[-2:] == [f"nodes explored: {stats['nodes']}", f"pruned: {parts}"]


def test_help_is_unaffected(capsys):
    for argv in (["--help"], ["enumerate", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: hamfix") and captured.err == ""


@pytest.mark.parametrize(
    "value, message",
    [("abc", "must be an integer, got 'abc'"), ("0", "must be at least 1, got '0'")],
    ids=["abc", "0"],
)
def test_bad_thread_count_env_exits_2(value, message, monkeypatch, capsys):
    monkeypatch.setenv("HAMFIX_THREADS", value)
    assert main(["enumerate", "--max-weight", "2", "--max-width", "5"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: HAMFIX_THREADS {message}"]


def test_check_rejects_coerced_json(tmp_path, capsys):
    # each change reaches its own schema check, named by its message
    for change, message in (
        ({"effective": "false"}, "'effective' must be true or false"),
        ({"moment": [0, 1, 4, 6, 9, True]}, "'moment' must be a list of integers"),
        ({"edges": {"lo": 0, "hi": 1, "w": 1}}, "'edges' must be a list"),
        ({"edges": [[0, 1, 1]]}, "each edge must be an object"),
        ({"edges": [{"lo": 1, "hi": 0, "w": 1}]}, "edge endpoints out of range: (1, 0)"),
        ({"label": 7}, "'label' must be a string"),
    ):
        doc = {**config_to_dict(builtin("o")), **change}
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith(message), lines[0]
