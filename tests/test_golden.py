"""Golden bytes: sha256 digests of rendered lift, reduce, solve and verify outputs.

Refactors of the builders must keep every output byte-identical; these
digests pin one gap-corpus instance per lift family under two polynomials,
every formula and square target of `hfree reduce` on a fixed formula, the
report `hfree verify equivalence` prints for every target on it, the
canonical solution each formula reduction builds for every satisfying
assignment of that formula, the `hfree verify gadgets` report, the
obstruction census `hfree reduce graph2minones` takes of a dense host, and
the solution `hfree solve` picks among several optimal ones.
"""

import hashlib
import itertools
import random

import pytest

from hfree.cli import main
from hfree.cnf import duplicate_for_min_occurrences, formula, render_dimacs, satisfies
from hfree.formats import render_instance
from hfree.gadgets import (
    LIFT_FAMILIES, lift_specific, reduce_3sat_to_c4comp, reduce_3sat_to_c4del, reduce_3sat_to_c5del,
)
from hfree.graphs import Graph
from hfree.patterns import named_pattern
from hfree.reductions import (
    Polynomial, reduce_3sat_to_sandwich_comp, reduce_3sat_to_sandwich_del, solution_from_assignment,
)
from hfree.solver import COMPLETION, DELETION, SandwichInstance, is_solution

from test_acceptance import gap_corpus

LIFT_DIGESTS = {
    ("general-del", "1,1,1"): "57cf27cb9f4e280af1b40ecd1d90591cecadc69bdc235caef83804db42f89138",
    ("general-del", "2,1,2"): "0295d60066c151b818242a673ddcf1514ec2e235a1760e08a34682c65b728cb7",
    ("general-comp", "1,1,1"): "40c5f0cd811ab0e353494146e2e6bf3bb3329c92139735c2d2a05d411fb0169c",
    ("general-comp", "2,1,2"): "4b7e695150ed3e653c1bac1b3e552bcbe862de101baba7d4e7291c2305e28ecc",
    ("c4-del", "1,1,1"): "c67becc376f5a5e04df04f7f218363de1f20f8980b815ccc29be46a3696ac3f9",
    ("c4-del", "2,1,2"): "958ec1a8807f02d133f3e0ed575511389710568b620a7d8db5996f40b6a2fd62",
    ("c5-del", "1,1,1"): "57e38476612096c1e89ae3d13cf5ce1fe84f0b1f61a2e3515a8fe0a5f753a5c2",
    ("c5-del", "2,1,2"): "d3444172e3ea8d2c29d95573db07651099b2dea5c64dfb87e7fa7163c459c5d4",
    ("c4-comp", "1,1,1"): "d05e9d4a58ea6cb24cb2d5d664ad8d8f61059bc245bdecf904d29d4e20a1f463",
    ("c4-comp", "2,1,2"): "e3570eae97a11b6ca7a1a5d6894a893a82053e097a6ae8526424f00963b888f9",
    ("house-comp", "1,1,1"): "57a6c0a4a973fd732527daa0f73cc45969061fde7f36b8bf266fbbdd7aeb8d9e",
    ("house-comp", "2,1,2"): "275511b7eb3e1b3ef32e4cb1652852b2fe2408160480ab435fb8e02826ba600a",
    ("house-del", "1,1,1"): "50bf7f2163250411f32c1a192bdb5f0d9f2ce9e9678f95c1d4fe1c71b85b23f5",
    ("house-del", "2,1,2"): "5ce3ca78c9d9edb0db4e9abb35d6a5297702e03ffa7eca81ee07903cdb0fab9e",
}

REDUCE_DIGESTS = {
    ("sat2del", "--pattern", "wheel4"): "5db59ec6431946497ea36e40e4d08c436bef45f9cdacc6d30d7dbfdbde8a6cc6",
    ("sat2comp", "--pattern", "wheel4"): "499d6318057c1fde5e1e0e56927c5551475a2d65241bd53b79e8b9e89f59cec2",
    ("c4del",): "b2a8cc9863d2010c4ab351e697ef61eb0377be46c66f2e226bb0c6bd56a2047d",
    ("c5del",): "15811506865737bab11568d288bbb4378882c6beb8dc45965e7e0249f0645da4",
    ("c4comp",): "297bc4f1c961d1f6bb480d40596f5d69b3ba6bb50d3bb918299d291013769572",
    ("house-comp",): "b0720210592cb5bcb1c1d2c8e9dcb29a1ed460221bf6b2cbea30ead26433dc71",
    ("house-del", "--poly", "1,1,1"): "3c4cac3ba413f8bffc83faf79c82ce1fa3d496dfc9e5d9e8cbfe0a67bf77d9f7",
}

EQUIVALENCE_DIGESTS = {
    ("general-del", "--pattern", "wheel4"): "54c2095e09f5f3e3edd5b6e5fb223194141f46b359cfe4ba2f136df63139587e",
    ("general-comp", "--pattern", "wheel4"): "ec122a6378ed2194c7132d527749120212fe740249dd31fd0e73994d8706d458",
    ("c4-del",): "23b0d24432bc046995186f3b54813c3d52ba3089a6838511c659ad82cddb5313",
    ("c5-del",): "8dcf9d5abc3c88da0de2374401339dffc9623540a25f17283b8b3ada139b6c64",
    ("c4-comp",): "7e84084aca07b4ee8e781d1c2e10d5e9436d42c87f8bae39a0209cccdd95056c",
    ("house-comp-via-c4",): "599387e681d818016b9985615c88f8358b737965dafa1aa2591a359f62e4152f",
}

CANONICAL_DIGESTS = {
    "sat2del": "c6271f5acc3499dbc28639b5dcac7c0d0e40a557a8c9e75572dfd80cd7da712c",
    "sat2comp": "ffd744d1d47a6c685f9c53ae8e3c5b1a20c53308c31581c7880d343743428dc2",
    "c4del": "e247b6a3a9fbf7b39d35eccffd8ea4f086ae44f1e572a409d00621c5527e72f6",
    "c5del": "b1e2c0f71cfa03c0114d9482f4a3c978f41e7345abaf18cd8a2beba109e0ae57",
    "c4comp": "262a302ae93e3c3d963e28c2e1973e17b64673b6cde6a2ae480ea5c6b5f6389a",
}

GADGETS_DIGEST = "8fd58b8a0d523cfa4983bdd1e73ba096468f81dbf233dd1ad5b04b82f322ebd8"
GRAPH2MINONES_DIGEST = "b51575d544fb3a249cfa8e232dcd829a3f24bf3e6248483426ff4c8d9883f0fe"

SOLVE_DIGESTS = {
    ("deletion",): "f958015d5239155c3938a0830541ae4c0087daafd4f173ab7e678424429282ab",
    ("deletion", "--budget", "3"): "f958015d5239155c3938a0830541ae4c0087daafd4f173ab7e678424429282ab",
    ("deletion", "--budget", "4"): "9189e1b00267778bf50a599a2a9db858d280816d742d9a84e9c4ebd907e0f57d",
    ("completion",): "6ad5cc9af1fe3a3a861acb4352f02a7009daf955704a7b469d59cb3e6e9bf2e4",
    ("completion", "--budget", "3"): "6ad5cc9af1fe3a3a861acb4352f02a7009daf955704a7b469d59cb3e6e9bf2e4",
    ("completion", "--budget", "4"): "6ad5cc9af1fe3a3a861acb4352f02a7009daf955704a7b469d59cb3e6e9bf2e4",
}

CNF = formula(3, [(1, -2, 3), (-1, 2, -3)])
FORMULA = render_dimacs(CNF)
SQUARE = render_instance(
    SandwichInstance(Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), named_pattern("c4"), DELETION, frozenset({(0, 1)})),
    labels=[("keep", (2, 3))],
)


def _dense_k5e_host() -> str:
    """An 8-vertex host with 19 induced K5-minus-an-edge copies and 2 K5s."""
    rng = random.Random(8)
    host = Graph(8, [(u, v) for u, v in itertools.combinations(range(8), 2) if rng.random() < 0.8])
    return render_instance(SandwichInstance(host, named_pattern("k5e"), DELETION, host.edges))


def _square_instance(mode: str) -> str:
    """Square-free instances with several optimal solutions: K3,3 with every
    edge deletable (six of size 3), and two squares beside K2,3 with their
    diagonals, K2,3's missing pairs and two cross pairs fillable (four of
    size 3)."""
    if mode == DELETION:
        host = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        return render_instance(SandwichInstance(host, named_pattern("c4"), DELETION, host.edges))
    squares = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    host = Graph(13, squares + [(a, b) for a in (8, 9) for b in (10, 11, 12)])
    free = {(0, 2), (1, 3), (4, 6), (5, 7), (8, 9), (10, 11), (10, 12), (11, 12), (0, 4), (3, 8)}
    return render_instance(SandwichInstance(host, named_pattern("c4"), COMPLETION, frozenset(free)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return gap_corpus()


def test_lift_families_are_pinned():
    assert sorted(family for family, _ in LIFT_DIGESTS) == sorted(2 * LIFT_FAMILIES)


@pytest.mark.parametrize("family,poly", sorted(LIFT_DIGESTS))
def test_lift_output_bytes(corpus, family, poly):
    instance = corpus[family][40]
    lifted = lift_specific(instance, family, Polynomial.parse(poly))
    assert digest(render_instance(lifted.instance, budget=lifted.budget)) == LIFT_DIGESTS[family, poly]


@pytest.mark.parametrize("argv", sorted(REDUCE_DIGESTS))
def test_reduce_output_bytes(tmp_path, argv):
    source = tmp_path / "in.txt"
    source.write_text(SQUARE if argv[0] == "house-del" else FORMULA, encoding="ascii")
    out = tmp_path / "out.hfi"
    assert main(["reduce", *argv, "-i", str(source), "-o", str(out)]) == 0
    assert digest(out.read_text(encoding="ascii")) == REDUCE_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(EQUIVALENCE_DIGESTS))
def test_verify_equivalence_output_bytes(tmp_path, argv):
    source = tmp_path / "in.cnf"
    source.write_text(FORMULA, encoding="ascii")
    out = tmp_path / "report.txt"
    target, *extra = argv
    assert main(["verify", "equivalence", "--target", target, *extra, "-i", str(source), "-o", str(out)]) == 0
    assert digest(out.read_text(encoding="ascii")) == EQUIVALENCE_DIGESTS[argv]


def _canonical_solver(target):
    """The formula the target reduces, its instance, and its canonical
    solution function, from a satisfying assignment to the solution."""
    wheel = named_pattern("wheel4")
    f = duplicate_for_min_occurrences(CNF, 2) if target == "c4comp" else CNF
    instance, trace = {
        "sat2del": lambda: reduce_3sat_to_sandwich_del(f, wheel),
        "sat2comp": lambda: reduce_3sat_to_sandwich_comp(f, wheel),
        "c4del": lambda: reduce_3sat_to_c4del(f),
        "c5del": lambda: reduce_3sat_to_c5del(f),
        "c4comp": lambda: reduce_3sat_to_c4comp(f),
    }[target]()
    return f, instance, lambda model: solution_from_assignment(f, trace, model)


@pytest.mark.parametrize("target", sorted(CANONICAL_DIGESTS))
def test_canonical_solution_pairs(target):
    f, instance, solve = _canonical_solver(target)
    models = [bits for bits in itertools.product((False, True), repeat=3) if satisfies(f, bits)]
    assert len(models) == 6
    assert all(is_solution(instance, solve(model)) for model in models)
    text = "".join(f"{model} {sorted(solve(model))}\n" for model in models)
    assert digest(text) == CANONICAL_DIGESTS[target]


def test_verify_gadgets_output_bytes(capsys):
    assert main(["verify", "gadgets"]) == 0
    assert digest(capsys.readouterr().out) == GADGETS_DIGEST


def test_graph2minones_output_bytes(tmp_path, capsys):
    source = tmp_path / "host.hfi"
    source.write_text(_dense_k5e_host(), encoding="ascii")
    assert main(["reduce", "graph2minones", "-i", str(source)]) == 0
    assert digest(capsys.readouterr().out) == GRAPH2MINONES_DIGEST


@pytest.mark.parametrize("argv", sorted(SOLVE_DIGESTS))
def test_solve_output_bytes(tmp_path, capsys, argv):
    mode, *extra = argv
    source = tmp_path / "in.hfi"
    source.write_text(_square_instance(mode), encoding="ascii")
    assert main(["solve", "-i", str(source), *extra]) == 0
    assert digest(capsys.readouterr().out) == SOLVE_DIGESTS[argv]
