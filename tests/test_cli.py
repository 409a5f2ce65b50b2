"""End-to-end runs of the command line front end.

Each test drives `main` with argv lists and real files under tmp_path, so
the argument wiring, the file round trips, and the exit code contract are
all exercised the way a shell user would hit them.
"""

import argparse
import io
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hfree import cli
from hfree.cli import main
from hfree.cnf import _read_int, formula, render_dimacs
from hfree.formats import parse_instance, render_instance
from hfree.gadgets import FORMULA_TARGETS
from hfree.graphs import Graph
from hfree.patterns import named_pattern
from hfree.solver import DELETION, SandwichInstance
from hfree.verify import EQUIVALENCE_TARGETS

from test_solver import disjoint_copies, drawn_graph

TWO_CLAUSES = render_dimacs(formula(3, [(1, -2, 3), (-1, 2, -3)]))


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def square_deletion_file(tmp_path, free=((0, 1),)):
    instance = SandwichInstance(
        Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}),
        named_pattern("c4"),
        DELETION,
        frozenset(free),
    )
    return write(tmp_path / "square.hfi", render_instance(instance))


def test_reduce_solve_round_trip(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    out = tmp_path / "inst.hfi"
    assert main(["reduce", "c4del", "-i", cnf, "-o", str(out)]) == 0
    file = parse_instance(out.read_text(encoding="ascii"))
    assert file.instance.pattern.name == "c4"
    assert any(name == "x1-true" for name, _ in file.labels)

    assert main(["solve", "-i", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "RESULT yes solve cost=16"
    assert len(lines) == 17 and all(line.startswith("delete ") for line in lines[1:])

    assert main(["solve", "-i", str(out), "--existence", "--budget", "0"]) == 0
    assert capsys.readouterr().out == "RESULT no solve\n"


def test_permuted_edge_lines_solve_alike(tmp_path, capsys):
    """Two files listing the same pairs in another order are one instance,
    so solve prints the same bytes for both. On this file a matcher that
    followed the line order gave cost=8 against cost=7 under --budget 1000,
    and two different minimum deletion sets."""
    n, edges = drawn_graph(11, 54)
    graph = Graph(n, edges)
    lines = render_instance(SandwichInstance(graph, named_pattern("house"), DELETION, graph.edges)).splitlines(True)
    edge_lines = [line for line in lines if line.startswith("edge ")]
    random.Random(0).shuffle(edge_lines)
    permuted = [line for line in lines if not line.startswith("edge ")] + edge_lines
    files = [write(tmp_path / "sorted.hfi", "".join(lines)), write(tmp_path / "permuted.hfi", "".join(permuted))]
    for flags in ([], ["--budget", "1000"]):
        outputs = []
        for path in files:
            assert main(["solve", "-i", path, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_reduce_is_byte_deterministic(tmp_path):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    first, second = tmp_path / "a.hfi", tmp_path / "b.hfi"
    for out in (first, second):
        assert main(["reduce", "sat2comp", "-i", cnf, "--pattern", "wheel4", "-o", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_lift_and_complement_compose(tmp_path, capsys):
    src = square_deletion_file(tmp_path)
    lifted = tmp_path / "lifted.hfi"
    assert main(["lift", "--family", "c4-del", "--poly", "1,1,1", "-i", src, "-o", str(lifted)]) == 0
    file = parse_instance(lifted.read_text(encoding="ascii"))
    assert file.budget == 1
    assert file.instance.graph.vertex_count == 16

    assert main(["complement", "-i", src]) == 0
    out = capsys.readouterr().out
    assert "mode completion" in out and "pattern co-c4" in out
    assert "nonedge 0 1 free" in out


def test_house_del_consumes_square_instances(tmp_path):
    src = square_deletion_file(tmp_path)
    out = tmp_path / "house.hfi"
    assert main(["reduce", "house-del", "--poly", "1,1,0", "-i", src, "-o", str(out)]) == 0
    file = parse_instance(out.read_text(encoding="ascii"))
    assert file.instance.pattern.name == "house"
    assert file.budget == 1


def test_minones_translations(tmp_path, capsys):
    mo = write(tmp_path / "inst.mo", "minones 1\nnvars 2\nf1 0 0 1\nf2 1\n")
    quarantined = tmp_path / "quarantined.hfi"
    assert main(["reduce", "minones2graph", "-i", mo, "-o", str(quarantined)]) == 0
    upper = tmp_path / "upper.hfi"
    assert main(["reduce", "minones2graph", "--pattern", "K5E", "-i", mo, "-o", str(upper)]) == 0
    assert upper.read_bytes() == quarantined.read_bytes()
    file = parse_instance(quarantined.read_text(encoding="ascii"))
    assert file.instance.pattern.name == "k5e"
    names = {name for name, _ in file.labels}
    assert names == {"x0", "x1"}
    # One uniform group per variable, every labeled pair deletable.
    pairs = {pair for _, pair in file.labels}
    assert pairs == file.instance.free

    k6 = SandwichInstance(
        Graph(6, set(itertools.combinations(range(6), 2))),
        named_pattern("k5e"),
        DELETION,
        frozenset(),
    )
    src = write(tmp_path / "k6.hfi", render_instance(k6))
    assert main(["reduce", "graph2minones", "-i", src]) == 0
    out = capsys.readouterr().out
    assert out.startswith("minones 1\nnvars 15\n")
    assert out.count("fn 5 ") == 6 and "gn" not in out


def test_verify_exit_codes(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    assert main(["verify", "equivalence", "-i", cnf, "--target", "c5-del"]) == 0
    assert capsys.readouterr().out.startswith("RESULT pass sat-equivalence")

    big = write(tmp_path / "big.cnf", render_dimacs(formula(9, [(1, 2, 3)] * 4)))
    assert main(["verify", "equivalence", "-i", big, "--target", "c5-del"]) == 3
    assert capsys.readouterr().out.startswith("RESULT skipped sat-equivalence")

    src = square_deletion_file(tmp_path)
    assert main(["verify", "gap", "-i", src, "--family", "c4-del", "--poly", "1,1,1"]) == 0
    capsys.readouterr()

    assert main(["verify", "duality", "--seed", "7", "--pattern", "c5", "--budget", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "duality", "--seed", "7", "--pattern", "c5", "--budget", "1"]) == 0
    assert capsys.readouterr().out == first

    assert main(["verify", "gadgets"]) == 0
    assert "contracts=6" in capsys.readouterr().out

    # duality on a file takes the file's pattern unless --pattern names one
    assert main(["verify", "duality", "-i", src]) == 0
    assert " vertices=4 pattern=c4 budget=2 " in capsys.readouterr().out
    assert main(["verify", "duality", "-i", src, "--pattern", "house"]) == 0
    assert " vertices=4 pattern=house budget=2 " in capsys.readouterr().out

    one = write(tmp_path / "one.mo", "minones 1\nnvars 1\nf2 0\n")
    assert main(["verify", "scaling", "-i", one]) == 0
    assert capsys.readouterr().out.startswith("RESULT pass opt-scaling")
    two = write(tmp_path / "two.mo", "minones 1\nnvars 2\nf2 0\n")
    assert main(["verify", "scaling", "-i", two]) == 3
    assert capsys.readouterr().out.startswith("RESULT skipped opt-scaling")


def usage_error(argv, capsys):
    """What argparse prints when it refuses argv with exit code 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    return capsys.readouterr()


def test_usage_errors_exit_two(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    assert "required: --pattern" in usage_error(["reduce", "sat2del", "-i", cnf], capsys).err

    refused = usage_error(["reduce", "c4del", "-i", cnf, "--pattern", "house"], capsys)
    assert "unrecognized arguments: --pattern house" in refused.err

    src = square_deletion_file(tmp_path)
    assert "required: --poly" in usage_error(["reduce", "house-del", "-i", src], capsys).err

    bad = write(tmp_path / "bad.hfi", "hfi 2\n")
    assert main(["solve", "-i", bad]) == 2
    assert "expected 'hfi 1' header" in capsys.readouterr().err

    assert "required: --target" in usage_error(["verify", "equivalence", "-i", cnf], capsys).err

    assert "required: --family" in usage_error(["verify", "gap", "-i", src, "--poly", "1,1,1"], capsys).err

    constraints = write(tmp_path / "in.mo", "minones 1\nnvars 1\nf2 0\n")
    assert main(["verify", "scaling", "-i", constraints, "--pattern", "k4e"]) == 2
    assert "counting translations need a k<n>e pattern" in capsys.readouterr().err

    with pytest.raises(SystemExit) as info:
        main(["lift", "-i", src, "--poly", "1,1,1"])
    assert info.value.code == 2


@pytest.mark.parametrize("name", ["c\u0664", "k\uff15", "k\u0665e"])
def test_non_ascii_pattern_digits_are_unknown_names(tmp_path, capsys, name):
    src = square_deletion_file(tmp_path)
    constraints = write(tmp_path / "in.mo", "minones 1\nnvars 1\nf2 0\n")
    out = tmp_path / "out.txt"
    for argv in (
        ["lift", "--family", "c4-del", "--poly", "1,1,1", "--pattern", name, "-i", src, "-o", str(out)],
        ["pattern", "info", name, "-o", str(out)],
        ["reduce", "minones2graph", "--pattern", name, "-i", constraints, "-o", str(out)],
    ):
        assert main(argv) == 2
        assert "unknown pattern name" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reduce", "c4del", "--node-limit", "5"],
    ["complement", "--node-limit", "5"],
    ["reduce", "c4del", "--seed", "1"],
    ["solve", "--seed", "1"],
    ["solve", "--budget", "1_0"],
    ["solve", "--node-limit", "+5"],
    ["verify", "duality", "--seed", "\u0663"],
    ["verify", "duality", "--budget", "1_0"],
    ["solve", "--node", "5"],
    ["solve", "--exist"],
    ["pattern", "info", "house", "-i", "/nonexistent"],
    ["pattern", "info", "house", "--pattern", "c4"],
])
def test_options_only_where_read(argv):
    # --node-limit belongs to solve and --seed to verify duality alone,
    # integer flags take the file formats' integers, not all that int() reads,
    # and no prefix of a long flag stands for it
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "gadgets", "-i", "/nonexistent"],
    ["verify", "gadgets", "--pattern", "zz"],
    ["verify", "gadgets", "--pattern", "c4"],
])
def test_verify_gadgets_reads_no_input_or_pattern(argv, capsys):
    # the gadgets check declares no -i and no --pattern, so argparse refuses them
    captured = usage_error(argv, capsys)
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[2]}" in captured.err


def _route_parsers(parser, route=()):
    """(route words, parser) for parser and every sub-parser below it."""
    yield route, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _route_parsers(sub, (*route, name))


def test_every_typed_option_reads_integers_by_the_file_rule(capsys):
    # a later flag declared with type=int would take "+1", "1_0" and "\u0663" again
    routes = list(_route_parsers(cli.build_parser()))
    typed = [a for _, p in routes for a in p._actions if a.type is not None]
    assert len(typed) == 4
    assert all(action.type is _read_int for action in typed)
    # every command, reduce target and verify check answers -h, and none
    # reads a prefix of a long flag as the flag
    assert len(routes) == 1 + 6 + 9 + 5
    assert not any(parser.allow_abbrev for _, parser in routes)
    for route, _ in routes:
        with pytest.raises(SystemExit) as info:
            main([*route, "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hfree {' '.join(route)}".rstrip())


# A flag each route took and never read before every route declared its own;
# each argv is valid without its last two words.
_CNF, _HFI, _MO = "f.cnf", "square.hfi", "in.mo"
_REFUSED = [
    *(["reduce", target, "-i", _CNF, *pattern, "--poly", "1,1,1"]
      for target, pattern in [
          ("sat2del", ["--pattern", "wheel4"]), ("sat2comp", ["--pattern", "wheel4"]),
          ("c4del", []), ("c5del", []), ("c4comp", []), ("house-comp", []),
      ]),
    ["reduce", "minones2graph", "-i", _MO, "--poly", "1,1,1"],
    ["reduce", "graph2minones", "-i", _HFI, "--poly", "1,1,1"],
    *(["verify", "equivalence", "-i", _CNF, "--target", "c4-del", flag, value]
      for flag, value in [("--family", "c4-del"), ("--poly", "1,1,1"), ("--budget", "1"), ("--seed", "3")]),
    *(["verify", "gap", "-i", _HFI, "--family", "c4-del", "--poly", "1,1,1", flag, value]
      for flag, value in [("--target", "c4-del"), ("--budget", "1"), ("--seed", "3")]),
    *(["verify", "duality", "--seed", "7", flag, value]
      for flag, value in [("--target", "c4-del"), ("--family", "c4-del"), ("--poly", "1,1,1")]),
    *([*route, flag, value]
      for route in (["verify", "scaling", "-i", _MO], ["verify", "gadgets"])
      for flag, value in [
          ("--target", "c4-del"), ("--family", "c4-del"), ("--poly", "1,1,1"), ("--budget", "1"), ("--seed", "3"),
      ]),
]
# verify duality reads --seed only to make a graph when -i gives none
_SEED_WITH_INPUT = ["verify", "duality", "-i", _HFI, "--seed", "3"]
_REFUSED.append(_SEED_WITH_INPUT)


@pytest.mark.parametrize("argv", _REFUSED, ids=[" ".join(a[:2] + a[-2:-1]) for a in _REFUSED])
def test_routes_refuse_flags_they_do_not_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / _CNF, TWO_CLAUSES)
    square_deletion_file(tmp_path)
    write(tmp_path / _MO, "minones 1\nnvars 1\nf2 0\n")
    # without the refused flag the route runs, and passes or skips
    assert main(argv[:-2]) in (0, 3)
    capsys.readouterr()
    captured = usage_error(argv, capsys)
    assert captured.out == ""
    if argv is _SEED_WITH_INPUT:
        assert "argument --seed: not allowed with argument -i/--input" in captured.err
    else:
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


def test_stdin_is_read_as_ascii_like_input_files(tmp_path, capsys, monkeypatch):
    text = Path(square_deletion_file(tmp_path)).read_text(encoding="ascii") + "label x1 0 1\n"
    for data in (text.encode("ascii"), text.replace("x1", "x\u00e91").encode("utf-8")):
        src = tmp_path / "in.hfi"
        src.write_bytes(data)
        via_file, via_stdin = tmp_path / "file.out", tmp_path / "stdin.out"
        via_stdin.write_text("kept\n", encoding="ascii")
        file_code = main(["complement", "-i", str(src), "-o", str(via_file)])
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        stdin_code = main(["complement", "-o", str(via_stdin)])
        if data.isascii():
            assert file_code == stdin_code == 0
            assert via_stdin.read_bytes() == via_file.read_bytes()
        else:
            # both routes refuse before the output file is opened
            assert file_code == stdin_code == 2
            assert capsys.readouterr().err.count("'ascii' codec can't decode") == 2
            assert via_stdin.read_text(encoding="ascii") == "kept\n"


def test_verify_equivalence_normalizes_like_reduce(tmp_path, capsys):
    cnf = write(tmp_path / "short.cnf", render_dimacs(formula(2, [(1, 2), (-1, 2)])))
    assert main(["reduce", "sat2del", "--pattern", "wheel4", "-i", cnf]) == 0
    capsys.readouterr()
    assert main(["verify", "equivalence", "--target", "general-del", "--pattern", "wheel4", "-i", cnf]) == 0
    assert capsys.readouterr().out.startswith("RESULT pass sat-equivalence")


def test_empty_formula_reaches_every_target(tmp_path, capsys):
    """No variables means no occurrence to count: every reduce target
    prints a vertex-free instance and every equivalence check passes."""
    cnf = write(tmp_path / "empty.cnf", "p cnf 0 0\n")
    for target, (_, general, check) in FORMULA_TARGETS.items():
        flags = ["--pattern", "wheel4"] if general else []
        assert main(["reduce", target, "-i", cnf, *flags]) == 0, target
        assert parse_instance(capsys.readouterr().out).instance.graph.vertex_count == 0
        assert check in EQUIVALENCE_TARGETS
        assert main(["verify", "equivalence", "--target", check, "-i", cnf, *flags]) == 0, check
        assert capsys.readouterr().out.startswith("RESULT pass sat-equivalence")


def test_negative_solve_budget_exits_two(tmp_path, capsys):
    path = SandwichInstance(Graph(3, {(0, 1), (1, 2)}), named_pattern("c4"), DELETION, frozenset({(0, 1)}))
    src = write(tmp_path / "path.hfi", render_instance(path))
    for extra in ([], ["--existence"]):
        assert main(["solve", "-i", src, "--budget", "-1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "budget must be nonnegative" in captured.err


def test_internal_errors_exit_four(tmp_path, capsys, monkeypatch):
    def crash(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_solve", crash)
    assert main(["solve"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "RESULT error solve RecursionError\n"
    assert captured.err == "error: maximum recursion depth exceeded\n"

    out = tmp_path / "out.txt"
    assert main(["solve", "-o", str(out)]) == 4
    assert out.read_text(encoding="ascii") == "RESULT error solve RecursionError\n"


def test_failing_check_exits_one_with_its_prose(tmp_path, capsys, monkeypatch):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    # the sandwich side answers "no" to a satisfiable formula
    monkeypatch.setattr("hfree.verify.solve_sandwich", lambda *args, **kwargs: None)
    assert main(["verify", "equivalence", "-i", cnf, "--target", "c5-del"]) == 1
    result, prose = capsys.readouterr().out.splitlines()
    assert result.startswith("RESULT fail sat-equivalence ") and " sat=yes sandwich=no " in result
    assert prose == "sat-equivalence: the routes disagree; the witness field above pins the input"


def test_parser_is_built_once_per_process_and_not_at_import(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    out = str(tmp_path / "info.txt")
    script = (
        "from hfree import cli\n"
        "before = cli.build_parser.cache_info().misses\n"
        "for name in ('house', 'c4'):\n"
        f"    cli.main(['pattern', 'info', name, '-o', {out!r}])\n"
        "print(before, cli.build_parser.cache_info().misses)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode("ascii") == "0 1\n"


def test_node_limit_reports_a_skip(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    inst = tmp_path / "inst.hfi"
    assert main(["reduce", "sat2del", "-i", cnf, "--pattern", "wheel4", "-o", str(inst)]) == 0
    assert main(["solve", "-i", inst.as_posix(), "--node-limit", "5"]) == 3
    assert capsys.readouterr().out == "RESULT skipped solve node-limit\n"


def test_existence_past_the_recursion_limit(tmp_path, capsys):
    squares = disjoint_copies("c4", sys.getrecursionlimit() + 100)
    src = write(tmp_path / "squares.hfi", render_instance(squares))
    assert main(["solve", "--existence", "-i", src]) == 0
    assert capsys.readouterr().out == "RESULT yes solve\n"


def test_negative_node_limit_exits_two(tmp_path, capsys):
    src = square_deletion_file(tmp_path)
    for extra in ([], ["--existence"], ["--budget", "1"]):
        assert main(["solve", "-i", src, "--node-limit", "-3", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "node_limit must be nonnegative" in captured.err


def test_pattern_info(capsys):
    assert main(["pattern", "info", "octahedron"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pattern octahedron"
    assert "vertices 6" in lines and "edges 12" in lines
    assert "three-connected yes" in lines and "complement co-octahedron" in lines
    assert main(["pattern", "info", "nosuch"]) == 2


def test_module_entry_point_prints_what_main_prints(capsys):
    assert main(["pattern", "info", "house"]) == 0
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "hfree", "pattern", "info", "house"],
        capture_output=True, env=env, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.decode("ascii") == expected
