import random

import pytest
from hypothesis import given

from hfree.cnf import formula, sat_brute_force, satisfies
from hfree.gadgets import lift_specific
from hfree.graphs import Graph
from hfree.patterns import named_pattern
from hfree.reductions import (
    Polynomial,
    assignment_from_solution,
    complement_instance,
    reduce_3sat_to_sandwich_comp,
    reduce_3sat_to_sandwich_del,
    solution_from_assignment,
)
from hfree.solver import SandwichInstance, is_solution, solve_sandwich

from test_formats import round_trips, sandwich_instances

WHEEL = named_pattern("wheel4")
OCTA = named_pattern("octahedron")


def random_exact_3cnf(rng, max_vars=3, max_clauses=2):
    nvars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clauses.append(tuple(rng.choice([-1, 1]) * rng.randint(1, nvars) for _ in range(3)))
    return formula(nvars, clauses)


def test_preconditions():
    f = formula(1, [(1, 1, 1)])
    with pytest.raises(ValueError, match="not 3-connected"):
        reduce_3sat_to_sandwich_del(f, named_pattern("house"))
    with pytest.raises(ValueError, match="non-edges"):
        reduce_3sat_to_sandwich_del(f, named_pattern("k5"))
    with pytest.raises(ValueError, match="exact-3CNF"):
        reduce_3sat_to_sandwich_del(formula(1, [(1, 1)]), WHEEL)
    with pytest.raises(ValueError, match="exact-3CNF"):
        reduce_3sat_to_sandwich_comp(formula(1, [(1, 1)]), WHEEL)


@pytest.mark.parametrize(
    "pattern,nvars,clauses,expect_del,expect_comp",
    [
        (WHEEL, 3, [(1, 2, 3)], 27, 28),
        (OCTA, 3, [(1, 2, 3)], 30, 31),
        (OCTA, 3, [(1, -2, 3), (-1, 2, -3)], 54, 56),
    ],
)
def test_free_element_counts(pattern, nvars, clauses, expect_del, expect_comp):
    f = formula(nvars, clauses)
    p = pattern.vertex_count
    n, m = f.variable_count, f.clause_count
    assert expect_del == 2 * n + 3 * m + 3 * m * (p + 1)
    assert expect_comp == 2 * n + 4 * m + 3 * m * (p + 1)
    inst, _ = reduce_3sat_to_sandwich_del(f, pattern)
    assert len(inst.free) == expect_del
    inst, _ = reduce_3sat_to_sandwich_comp(f, pattern)
    assert len(inst.free) == expect_comp


def test_unsatisfiable_formula_yields_absent_instances():
    f = formula(1, [(1, 1, 1), (-1, -1, -1)])
    assert sat_brute_force(f) is None
    inst, _ = reduce_3sat_to_sandwich_del(f, WHEEL)
    assert solve_sandwich(inst) is None
    inst, _ = reduce_3sat_to_sandwich_comp(f, WHEEL)
    assert solve_sandwich(inst) is None


@pytest.mark.parametrize("reduce_fn", [reduce_3sat_to_sandwich_del, reduce_3sat_to_sandwich_comp])
def test_equivalence_and_extraction_on_random_formulas(reduce_fn):
    rng = random.Random(91)
    for _ in range(8):
        f = random_exact_3cnf(rng)
        inst, trace = reduce_fn(f, WHEEL)
        found = solve_sandwich(inst)
        model = sat_brute_force(f)
        assert (found is None) == (model is None)
        if found is not None:
            assert is_solution(inst, found)
            assert satisfies(f, assignment_from_solution(trace, found))
        if model is not None:
            canonical = solution_from_assignment(f, trace, model)
            assert is_solution(inst, canonical)
            assert assignment_from_solution(trace, canonical) == model


@pytest.mark.parametrize("reduce_fn", [reduce_3sat_to_sandwich_del, reduce_3sat_to_sandwich_comp])
def test_chain_propagation(reduce_fn):
    # Any solution that touches a clause's start pair drags the whole chain
    # and the matching variable pair along.
    f = formula(2, [(1, -2, 2), (-1, 2, 1)])
    inst, trace = reduce_fn(f, WHEEL)
    found = solve_sandwich(inst)
    assert found is not None
    fired = 0
    for j, clause in enumerate(f.clauses):
        for pos, lit in enumerate(clause):
            if trace.clause_pairs[j][pos] in found:
                fired += 1
                assert set(trace.connections[j][pos]) <= found
                target = trace.variable_pairs[abs(lit) - 1][0 if lit > 0 else 1]
                assert target in found
    assert fired >= f.clause_count


def test_solution_from_assignment_rejects_falsifying_assignment():
    f = formula(1, [(1, 1, 1)])
    _, trace = reduce_3sat_to_sandwich_del(f, WHEEL)
    with pytest.raises(ValueError, match="does not satisfy"):
        solution_from_assignment(f, trace, (False,))


def test_polynomial():
    p = Polynomial(2, 2, 1)
    assert p(3) == 19
    assert Polynomial.parse("1,1,1")(5) == 6
    with pytest.raises(ValueError):
        Polynomial(0, 1, 0)
    with pytest.raises(ValueError):
        Polynomial(1, 0, 0)
    with pytest.raises(ValueError):
        Polynomial(1, 1, -1)
    with pytest.raises(ValueError):
        Polynomial.parse("1,2")
    with pytest.raises(ValueError, match="got '1,a,1'"):
        Polynomial.parse("1,a,1")
    # each part follows the file formats' integer rule: no "+", "_" or non-ASCII digit
    for text in ("1_0,1,1", "+1,1,1", "1,1,\u0665", " 1,1,1", "1_0,+1,\u0665"):
        with pytest.raises(ValueError, match="expected 'scale,degree,shift'"):
            Polynomial.parse(text)


def test_lift_del_yes_and_no():
    wg = WHEEL.graph
    poly = Polynomial(1, 1, 1)

    yes = SandwichInstance(Graph(5, wg.edges), WHEEL, "deletion", frozenset({(0, 1)}))
    lifted, budget = lift_specific(yes, "general-del", poly)
    assert budget == 1
    got = solve_sandwich(lifted, budget=budget)
    assert got is not None and len(got) <= budget

    no = SandwichInstance(Graph(5, wg.edges), WHEEL, "deletion", frozenset())
    lifted_no, budget_no = lift_specific(no, "general-del", poly)
    assert budget_no == 0
    # The lifted graph has one pendant copy per original edge.
    assert lifted_no.graph.vertex_count == 5 + 8 * 3
    assert solve_sandwich(lifted_no, budget=poly(0)) is None


def test_lift_comp_yes_and_no():
    wg = WHEEL.graph
    poly = Polynomial(1, 1, 1)
    host = Graph(6, wg.edges)

    yes = SandwichInstance(host, WHEEL, "completion", frozenset({(0, 2)}))
    lifted, budget = lift_specific(yes, "general-comp", poly)
    got = solve_sandwich(lifted, budget=budget)
    assert got is not None and len(got) <= budget == 1

    no = SandwichInstance(host, WHEEL, "completion", frozenset({(0, 5)}))
    lifted_no, _ = lift_specific(no, "general-comp", poly)
    assert solve_sandwich(lifted_no, budget=poly(1)) is None


def test_lift_pendant_counts_and_identity_cases():
    wg = WHEEL.graph
    k5mm = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) not in {(0, 1), (2, 3)}])
    one_fixed = SandwichInstance(k5mm, WHEEL, "completion", frozenset({(0, 1)}))
    lifted, _ = lift_specific(one_fixed, "general-comp", Polynomial(1, 1, 2))
    # p(1) = 3 pendant copies, each adding vertex_count - 2 fresh vertices.
    assert lifted.graph.vertex_count == 5 + 3 * 3

    all_free_comp = SandwichInstance(Graph(6, wg.edges), WHEEL, "completion", frozenset(Graph(6, wg.edges).non_edges()))
    assert lift_specific(all_free_comp, "general-comp", Polynomial(1, 1, 1))[0] == all_free_comp

    all_free_del = SandwichInstance(Graph(5, wg.edges), WHEEL, "deletion", frozenset(wg.edges))
    assert lift_specific(all_free_del, "general-del", Polynomial(1, 1, 1))[0] == all_free_del

    with pytest.raises(ValueError, match="deletion"):
        lift_specific(all_free_comp, "general-del", Polynomial(1, 1, 1))
    with pytest.raises(ValueError, match="completion"):
        lift_specific(all_free_del, "general-comp", Polynomial(1, 1, 1))


def random_sandwich(rng):
    n = rng.randint(3, 6)
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    pattern = rng.choice([named_pattern("p5"), named_pattern("c5"), named_pattern("house"), named_pattern("c4")])
    mode = rng.choice(["deletion", "completion"])
    pool = sorted(g.edges) if mode == "deletion" else g.non_edges()
    free = frozenset(p for p in pool if rng.random() < 0.6)
    return SandwichInstance(g, pattern, mode, free)


def test_complement_is_an_involution_and_flips_mode():
    rng = random.Random(17)
    for _ in range(30):
        inst = random_sandwich(rng)
        co = complement_instance(inst)
        assert co.mode != inst.mode
        assert co.free == inst.free
        assert complement_instance(co) == inst


@round_trips
@given(inst=sandwich_instances())
def test_complement_twice_is_the_identity(inst):
    twice = complement_instance(complement_instance(inst))
    assert twice == inst and twice.pattern.name == inst.pattern.name


def test_complement_preserves_solution_sets():
    from itertools import combinations

    rng = random.Random(23)
    for _ in range(20):
        inst = random_sandwich(rng)
        co = complement_instance(inst)
        free = sorted(inst.free)
        for r in range(len(free) + 1):
            for subset in combinations(free, r):
                assert is_solution(inst, subset) == is_solution(co, subset)


def test_path5_deletion_complements_to_house_completion():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    inst = SandwichInstance(g, named_pattern("p5"), "deletion", frozenset({(1, 4), (0, 1)}))
    co = complement_instance(inst)
    assert co.mode == "completion"
    assert co.pattern.graph == named_pattern("house").graph
    assert co.pattern.name == "co-p5"
    sol = solve_sandwich(inst)
    co_sol = solve_sandwich(co)
    assert (sol is None) == (co_sol is None)
