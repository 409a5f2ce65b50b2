import random
import sys
from collections import Counter

import pytest

import hfree.graphs
import hfree.patterns
from hfree.cnf import formula
from hfree.gadgets import FORMULA_TARGETS
from hfree.graphs import Graph
from hfree.minones import MinOnesInstance
from hfree.patterns import Pattern, cycle_graph, house_graph, named_pattern
from hfree.reductions import Polynomial
from hfree.solver import COMPLETION, DELETION, SandwichInstance
from hfree.verify import (
    EQUIVALENCE_TARGETS,
    VerificationReport,
    verify_duality,
    verify_gadget_contracts,
    verify_gap,
    verify_opt_scaling,
    verify_sat_equivalence,
)

GROW = Polynomial(1, 1, 1)


def test_equivalence_passes_on_every_target():
    f = formula(3, [(1, -2, 3)])
    for target in EQUIVALENCE_TARGETS:
        pattern = named_pattern("wheel4") if target.startswith("general") else None
        report = verify_sat_equivalence(f, target, pattern)
        assert report.verdict == "pass", report.result_line()
        assert report.details["sat"] == report.details["sandwich"] == "yes"


def test_equivalence_sees_unsatisfiable_formulas():
    unsat = formula(1, [(1, 1, 1), (-1, -1, -1)])
    for target in ("general-del", "general-comp"):
        report = verify_sat_equivalence(unsat, target, named_pattern("wheel4"))
        assert report.verdict == "pass"
        assert report.details["sat"] == report.details["sandwich"] == "no"


def test_equivalence_guards_and_argument_checks():
    big = formula(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7)])
    report = verify_sat_equivalence(big, "c4-del")
    assert report.verdict == "skipped" and "guard" in report.details["reason"]
    f = formula(3, [(1, 2, 3)])
    with pytest.raises(ValueError, match="unknown equivalence target"):
        verify_sat_equivalence(f, "c6-del")
    with pytest.raises(ValueError, match="needs a pattern"):
        verify_sat_equivalence(f, "general-del")
    with pytest.raises(ValueError, match="fixes its own pattern"):
        verify_sat_equivalence(f, "c4-del", named_pattern("c4"))
    # the pattern rule is checked before the guards skip a formula
    with pytest.raises(ValueError, match="target 'c4-del' fixes its own pattern"):
        verify_sat_equivalence(big, "c4-del", named_pattern("c4"))
    # one long clause over three variables normalizes to six variables
    long = formula(3, [(1, 2, 3, -1, -2, -3)])
    report = verify_sat_equivalence(long, "general-del", named_pattern("wheel4"))
    assert report.verdict == "skipped", report.result_line()
    assert report.details["variables"] == 3
    assert report.details["reason"].endswith("6 / 4 once normalized")


def test_equivalence_targets_name_reduce_targets():
    assert list(EQUIVALENCE_TARGETS.values()) == list(FORMULA_TARGETS)


def test_gap_yes_and_no_sides():
    square = cycle_graph(4)
    yes = SandwichInstance(square, named_pattern("c4"), DELETION, {(0, 1)})
    report = verify_gap(yes, "c4-del", GROW)
    assert report.verdict == "pass" and report.details["side"] == "yes"

    no = SandwichInstance(square, named_pattern("c4"), DELETION, set())
    report = verify_gap(no, "c4-del", GROW)
    assert report.verdict == "pass" and report.details["side"] == "no"

    sealed = SandwichInstance(square, named_pattern("c4"), COMPLETION, set())
    report = verify_gap(sealed, "c4-comp", GROW)
    assert report.verdict == "pass" and report.details["side"] == "no"

    roofless = SandwichInstance(house_graph(), named_pattern("house"), COMPLETION, set())
    report = verify_gap(roofless, "house-comp", GROW)
    assert report.verdict == "pass" and report.details["side"] == "no"

    wheel = named_pattern("wheel4")
    report = verify_gap(SandwichInstance(wheel.graph, wheel, DELETION, {(0, 1)}), "general-del", GROW)
    assert report.verdict == "pass" and report.details["side"] == "yes"

    report = verify_gap(yes, "house-del", GROW)
    assert report.verdict == "pass" and report.details["side"] == "yes"


def test_gap_guard_and_family_check():
    pentagon = cycle_graph(5)
    oversized = SandwichInstance(pentagon, named_pattern("c5"), DELETION, pentagon.edges)
    octa = named_pattern("octahedron")
    report = verify_gap(
        SandwichInstance(octa.graph, octa, DELETION, octa.graph.edges), "general-del", GROW
    )
    assert report.verdict == "skipped"
    with pytest.raises(ValueError, match="unknown lift family"):
        verify_gap(oversized, "c6-del", GROW)


def test_duality_on_random_graphs():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.randint(4, 7)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        g = Graph(n, edges)
        name = rng.choice(("house", "c5", "p5"))
        report = verify_duality(g, named_pattern(name), rng.randint(0, 3))
        assert report.verdict == "pass", report.result_line()


def test_duality_guards():
    assert verify_duality(Graph(8, []), named_pattern("house"), 1).verdict == "skipped"
    assert verify_duality(Graph(5, []), named_pattern("house"), 4).verdict == "skipped"


def _count_calls(monkeypatch, counts):
    """Count calls to the complement and connectivity checks through every
    hfree module that binds them, as a tracer that rebinds module
    attributes would, and every Pattern built."""
    originals = {
        "complement": hfree.graphs.complement,
        "is_connected": hfree.graphs.is_connected,
        "is_3_connected": hfree.graphs.is_3_connected,
    }

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hfree."):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(Pattern, "__post_init__", counted("Pattern", Pattern.__post_init__))


def test_a_repeated_check_does_the_same_work(monkeypatch):
    counts = Counter()
    _count_calls(monkeypatch, counts)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (2, 5)])
    house = named_pattern("house")
    wheel = named_pattern("wheel4")
    source = SandwichInstance(wheel.graph, wheel, DELETION, {(0, 1)})
    runs = {
        "duality": lambda: verify_duality(g, house, 2),
        "gap": lambda: verify_gap(source, "general-del", GROW),
    }
    seen = {}
    for check, run in runs.items():
        passes = []
        for _ in range(2):
            counts.clear()
            assert run().verdict == "pass"
            passes.append(dict(counts))
        assert passes[0] == passes[1], check
        seen[check] = passes[0]
    # the counters saw the work: the duality check builds the complement
    # pattern, and the general lift reads the pattern's 3-connectivity
    assert seen["duality"]["Pattern"] >= 1 and seen["duality"]["complement"] >= 1
    assert seen["gap"]["is_3_connected"] >= 1


def test_opt_scaling_reports():
    report = verify_opt_scaling(
        MinOnesInstance(2, (("f1", (0, 1, 1)), ("f2", (0,)))), 5, pendant_base=6
    )
    assert report.verdict == "pass"
    assert report.details["cost"] == 8 * report.details["ones"]

    report = verify_opt_scaling(MinOnesInstance(1, (("f2", (0,)),)), 5)
    assert report.verdict == "pass" and report.details["cost"] == 11

    report = verify_opt_scaling(MinOnesInstance(2, (("f2", (0,)),)), 5)
    assert report.verdict == "skipped" and "guard" in report.details["reason"]


def test_gadget_contract_report():
    report = verify_gadget_contracts()
    assert report.verdict == "pass"
    assert report.details["contracts"] == 6
    assert report.details["subsets"] > 1000


def _refuse_completion(instance, budget=None):
    return None if instance.mode == COMPLETION else frozenset()


def _refuse_budgets(instance, budget=None):
    return frozenset() if budget is None else None


# (check, solver call to replace, replacement, run): each replacement makes
# the one solver answer the check compares disagree with the other route
FAILING_CHECKS = [
    ("sat-equivalence", "solve_sandwich", lambda *a, **k: None,
     lambda: verify_sat_equivalence(formula(3, [(1, 2, 3)]), "c4-del")),
    ("gap-lift", "solve_sandwich", _refuse_budgets,
     lambda: verify_gap(SandwichInstance(cycle_graph(4), named_pattern("c4"), DELETION, {(0, 1)}), "c4-del", GROW)),
    ("duality", "solve_sandwich", _refuse_completion,
     lambda: verify_duality(cycle_graph(5), named_pattern("c5"), 1)),
    ("opt-scaling", "solve_min", lambda *a, **k: None,
     lambda: verify_opt_scaling(MinOnesInstance(1, (("f2", (0,)),)), 5)),
]


@pytest.mark.parametrize("check, solver, replacement, run", FAILING_CHECKS, ids=[c[0] for c in FAILING_CHECKS])
def test_fail_reports_carry_a_witness(monkeypatch, check, solver, replacement, run):
    monkeypatch.setattr(f"hfree.verify.{solver}", replacement)
    report = run()
    assert report.verdict == "fail"
    assert report.details["witness"] and "\n" not in report.details["witness"]
    assert report.result_line().startswith(f"RESULT fail {check} ")
    assert len(report.result_line().splitlines()) == 1


def test_result_lines_are_deterministic():
    f = formula(3, [(1, -2, 3)])
    first = verify_sat_equivalence(f, "c4-del").result_line()
    second = verify_sat_equivalence(f, "c4-del").result_line()
    assert first == second
    other = verify_sat_equivalence(formula(3, [(1, 2, 3)]), "c4-del").result_line()
    assert first.split()[3] != other.split()[3]


def test_report_line_shape():
    report = VerificationReport("demo", "abcdef123456", "pass", {"k": 1})
    assert report.result_line() == "RESULT pass demo digest=abcdef123456 k=1"
