"""Golden bytes: sha256 digests of rendered lift, reduce and verify outputs.

Refactors of the builders must keep every output byte-identical; these
digests pin one gap-corpus instance per lift family under two polynomials,
every formula and square target of `hfree reduce` on a fixed formula, and
the report `hfree verify equivalence` prints for every target on it.
"""

import hashlib

import pytest

from hfree.cli import main
from hfree.cnf import formula, render_dimacs
from hfree.formats import render_instance
from hfree.gadgets import LIFT_FAMILIES, lift_specific
from hfree.graphs import Graph
from hfree.patterns import named_pattern
from hfree.reductions import Polynomial
from hfree.solver import DELETION, SandwichInstance

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

FORMULA = render_dimacs(formula(3, [(1, -2, 3), (-1, 2, -3)]))
SQUARE = render_instance(
    SandwichInstance(Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), named_pattern("c4"), DELETION, frozenset({(0, 1)})),
    labels=[("keep", (2, 3))],
)


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
