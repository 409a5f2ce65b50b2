"""End-to-end runs of the command line front end.

Each test drives `main` with argv lists and real files under tmp_path, so
the argument wiring, the file round trips, and the exit code contract are
all exercised the way a shell user would hit them.
"""

import io
import itertools
import sys

import pytest

from hfree import cli
from hfree.cli import main
from hfree.cnf import formula, render_dimacs
from hfree.formats import parse_instance, render_instance
from hfree.graphs import Graph
from hfree.patterns import named_pattern
from hfree.solver import DELETION, SandwichInstance

from test_solver import disjoint_copies

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


def test_usage_errors_exit_two(tmp_path, capsys):
    cnf = write(tmp_path / "f.cnf", TWO_CLAUSES)
    assert main(["reduce", "sat2del", "-i", cnf]) == 2
    assert "needs --pattern" in capsys.readouterr().err

    assert main(["reduce", "c4del", "-i", cnf, "--pattern", "house"]) == 2
    assert "fixes its own pattern" in capsys.readouterr().err

    src = square_deletion_file(tmp_path)
    assert main(["reduce", "house-del", "-i", src]) == 2
    assert "needs --poly" in capsys.readouterr().err

    bad = write(tmp_path / "bad.hfi", "hfi 2\n")
    assert main(["solve", "-i", bad]) == 2
    assert "expected 'hfi 1' header" in capsys.readouterr().err

    assert main(["verify", "equivalence", "-i", cnf]) == 2
    assert "needs --target" in capsys.readouterr().err

    with pytest.raises(SystemExit) as info:
        main(["lift", "-i", src, "--poly", "1,1,1"])
    assert info.value.code == 2


@pytest.mark.parametrize("name", ["c\u0664", "k\uff15"])
def test_non_ascii_pattern_digits_are_unknown_names(tmp_path, capsys, name):
    src = square_deletion_file(tmp_path)
    out = tmp_path / "out.txt"
    for argv in (
        ["lift", "--family", "c4-del", "--poly", "1,1,1", "--pattern", name, "-i", src, "-o", str(out)],
        ["pattern", "info", name, "-o", str(out)],
    ):
        assert main(argv) == 2
        assert "unknown pattern name" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reduce", "c4del", "--node-limit", "5"],
    ["complement", "--node-limit", "5"],
    ["reduce", "c4del", "--seed", "1"],
    ["solve", "--seed", "1"],
])
def test_options_only_where_read(argv):
    # --node-limit belongs to solve and --seed to verify duality alone
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_stdin_is_read_as_ascii_like_input_files(tmp_path, capsys, monkeypatch):
    text = open(square_deletion_file(tmp_path), encoding="ascii").read() + "label x1 0 1\n"
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
