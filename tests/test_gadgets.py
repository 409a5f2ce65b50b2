import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree import gadgets, graphs
from hfree.cnf import duplicate_for_min_occurrences, formula, sat_brute_force, satisfies
from hfree.gadgets import (
    GadgetContractError,
    check_c4_completion_gadgets,
    check_c4_deletion_gadgets,
    check_c5_deletion_gadgets,
    has_c4_subgraph,
    lift_specific,
    reduce_3sat_to_c4comp,
    reduce_3sat_to_c4del,
    reduce_3sat_to_c5del,
    reduce_c4comp_to_house_comp,
)
from hfree.graphs import Graph, _toggle, find_embedding, find_induced_copy, induced_subgraph, is_h_free, match_plan
from hfree.patterns import complete_graph, cycle_graph, house_graph, named_pattern, path_graph
from hfree.reductions import Polynomial, assignment_from_solution, solution_from_assignment
from hfree.solver import (
    COMPLETION,
    DELETION,
    SandwichInstance,
    apply,
    is_solution,
    solve_budgeted,
    solve_sandwich,
)

C4 = named_pattern("c4")
C5 = named_pattern("c5")
HOUSE = named_pattern("house")
GROW = Polynomial(1, 1, 1)


def induced_cycles(graph, length):
    """All induced cycles of the given length, as sorted vertex tuples.

    Walks induced paths from each minimal vertex; an induced cycle is its
    own induced subgraph, so the vertex set identifies it.
    """
    out = []
    adj = [graph.neighbors(v) for v in range(graph.vertex_count)]

    def extend(path):
        closing = len(path) == length - 1
        for u in sorted(adj[path[-1]]):
            if u <= path[0] or u in path:
                continue
            if closing:
                if path[0] in adj[u] and path[1] < u and not any(u in adj[w] for w in path[1:-1]):
                    out.append(tuple(sorted(path + [u])))
            elif not any(u in adj[w] for w in path[:-1]):
                extend(path + [u])

    for start in range(graph.vertex_count):
        extend([start])
    return out


def random_wired_formula(rng, clauses):
    picked = []
    for _ in range(clauses):
        variables = rng.sample([1, 2, 3], 3)
        picked.append(tuple(v * rng.choice([-1, 1]) for v in variables))
    return formula(3, picked)


def all_sign_clauses():
    return formula(3, [tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                       for signs in itertools.product((1, -1), repeat=3)])


def brute_solutions(instance):
    out = []
    for size in range(len(instance.free) + 1):
        for subset in itertools.combinations(sorted(instance.free), size):
            if is_h_free(apply(instance, subset), instance.pattern.graph):
                out.append(frozenset(subset))
    return out


def test_has_c4_subgraph():
    assert has_c4_subgraph(cycle_graph(4))
    assert has_c4_subgraph(complete_graph(4))
    assert has_c4_subgraph(Graph(5, [(0, 1), (0, 2), (3, 1), (3, 2), (0, 4)]))
    assert not has_c4_subgraph(path_graph(6))
    assert not has_c4_subgraph(cycle_graph(6))
    assert not has_c4_subgraph(complete_graph(3))

    def sweep(g):
        # every 4-vertex set and its three 4-cycles a-b-c-d, a-b-d-c, a-c-b-d
        for a, b, c, d in itertools.combinations(range(g.vertex_count), 4):
            for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
                if all(g.has_edge(p, q) for p, q in ((w, x), (x, y), (y, z), (z, w))):
                    return True
        return False

    rng = random.Random(41)
    seen = set()
    for n in range(4, 10):
        for density in (0.15, 0.3, 0.5, 0.8):
            for _ in range(12):
                g = Graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < density])
                expected = sweep(g)
                seen.add(expected)
                assert has_c4_subgraph(g) == expected, sorted(g.edges)
    assert seen == {True, False}


def test_gadget_contracts_certify():
    checked = 0
    for contracts, sizes in (
        (check_c4_deletion_gadgets(), ((16, 8, 256), (6, 6, 64))),
        (check_c5_deletion_gadgets(), ((24, 8, 256), (5, 3, 8))),
        (check_c4_completion_gadgets(), ((32, 16, 6561), (8, 5, 32))),
    ):
        assert len(contracts) == 2
        for contract, (vertices, free, subsets) in zip(contracts, sizes):
            assert contract.vertex_count == vertices
            assert contract.free_count == free
            assert contract.checked_subsets == subsets
            assert all(isinstance(fact, str) for fact in contract.facts)
            checked += subsets
    assert checked == 7177


def _path_states(index, radix):
    """radix states of digit index over two pairs of its own, each one pair
    away from the last: (), (a,), (a, b), (b,), starting one state later
    for an odd index."""
    a, b = ("a", index), ("b", index)
    return ((), (a,), (a, b), (b,), ())[index % 2:][:radix]


@settings(max_examples=200)
@given(st.lists(st.integers(1, 4), max_size=6))
def test_gray_walk_visits_every_choice_once_flipping_one_pair_per_step(radices):
    digits = tuple(_path_states(i, radix) for i, radix in enumerate(radices))
    current = set()
    seen = []
    for step, flips in enumerate(gadgets._gray_walk(digits)):
        if step:
            assert len(flips) == 1
        current ^= set(flips)
        seen.append(frozenset(current))
    expected = [frozenset().union(*choice) for choice in itertools.product(*digits)]
    assert len(seen) == len(expected) == len(set(expected))
    assert set(seen) == set(expected)


def test_gray_walk_refuses_a_digit_that_jumps():
    with pytest.raises(ValueError, match="exactly one pair"):
        next(gadgets._gray_walk((((), ((0, 1), (0, 2))),)))


@pytest.mark.parametrize("name", list(gadgets._CONTRACTS))
def test_contract_walk_matches_whole_subsets_on_a_fresh_adjacency(name):
    """The walk's solution set equals that of toggling each candidate
    subset in whole on a freshly built adjacency: every subset of the free
    pairs, or for the ladder one diagonal choice per square."""
    build, pattern, _mode, predict, _facts, digits = gadgets._CONTRACTS[name]
    builder = gadgets._GraphBuilder()
    labels = build(builder)
    free = frozenset(builder.free)
    host = Graph(builder.vertex_count, builder.edges)
    plan = match_plan(pattern)
    if name == "c4-completion ladder":
        picks = [({t}, {f}, {t, f}) for t, f in zip(*labels)]
        candidates = [frozenset().union(*choice) for choice in itertools.product(*picks)]
    else:
        candidates = [frozenset(s) for r in range(len(free) + 1) for s in itertools.combinations(sorted(free), r)]
    oracle = set()
    for subset in candidates:
        adj = host.adjacency()
        _toggle(adj, subset)
        if find_embedding(adj, plan) is None:
            oracle.add(subset)
    solutions, covered, checked = gadgets._survivors(host.adjacency(), plan, digits(labels, free))
    assert solutions == oracle == predict(labels)
    assert covered == free
    assert checked == len(candidates) == len(set(candidates))


def test_contracts_flip_through_their_own_buckets(monkeypatch):
    """The walks make 7,177 matcher calls over six contracts, each handed
    the contract's buckets, so no call builds them, and toggle 6,568 pairs
    on the ladder. Only the square check, is_h_free on a graph of the free
    pairs alone, builds buckets of its own."""
    calls, toggled, built = [], [], []
    real_find, real_toggle, real_buckets = gadgets.find_embedding, gadgets._toggle, graphs._buckets
    real_square = gadgets.has_c4_subgraph

    def find(adj, plan, **kwargs):
        calls.append(kwargs.get("buckets") is not None)
        return real_find(adj, plan, **kwargs)

    def toggle(adj, pairs, buckets=None):
        toggled.append((len(pairs), buckets is not None))
        real_toggle(adj, pairs, buckets)

    def buckets(adj):
        built.append(len(adj))
        return real_buckets(adj)

    def square_check(graph):
        before = len(built)
        answer = real_square(graph)
        del built[before:]
        return answer

    monkeypatch.setattr(gadgets, "find_embedding", find)
    monkeypatch.setattr(gadgets, "has_c4_subgraph", square_check)
    monkeypatch.setattr(gadgets, "_toggle", toggle)
    monkeypatch.setattr(graphs, "_buckets", buckets)
    assert gadgets._certify("c4-completion ladder").checked_subsets == 6561
    assert sum(size for size, _ in toggled) == 6568
    toggled.clear()
    for name in gadgets._CONTRACTS:
        gadgets._certify(name)
    assert len(calls) == 6561 + 7177 and all(calls)
    assert all(owned for _, owned in toggled)
    assert not built


def _drop_rigid_edge(builder, mode, _pattern):
    rigid = builder.edges - builder.free if mode == DELETION else builder.edges
    builder.edges.discard(min(rigid))


def _add_free_pair(builder, mode, _pattern):
    if mode == DELETION:
        builder.free.add(min(builder.edges - builder.free))
    else:
        pairs = set(itertools.combinations(range(builder.vertex_count), 2))
        builder.free.add(min(pairs - builder.edges - builder.free))


def _add_wrong_kind_pair(builder, mode, _pattern):
    if mode == DELETION:
        pairs = set(itertools.combinations(range(builder.vertex_count), 2)) - builder.edges
        # the clause K6 has no non-edge, so it gets one to an isolated vertex
        builder.free.add(min(pairs) if pairs else (0, builder.fresh()))
    else:
        builder.free.add(min(builder.edges))


def _add_free_square(builder, mode, pattern):
    """Four fresh free pairs around a square, each glued into a pattern copy
    that turns induced exactly when the pair is toggled. No new subset is a
    solution, so the solution set stays as predicted and only the square
    test objects."""
    a, b, c, d = (builder.fresh() for _ in range(4))
    if mode == DELETION:
        # diagonals make the four vertices a K4, which holds no induced cycle
        builder.add_edge(a, c)
        builder.add_edge(b, d)
        s, t = pattern.non_edges()[0]
        guard = pattern
    else:
        s, t = min(pattern.edges)
        guard = Graph(pattern.vertex_count, pattern.edges - {(s, t)})
    for u, v in ((a, b), (b, c), (c, d), (a, d)):
        builder.plant(guard, {s: u, t: v})
        if mode == DELETION:
            builder.add_edge(u, v, free=True)
        else:
            builder.mark_free(u, v)


@pytest.mark.parametrize("corrupt", [_drop_rigid_edge, _add_free_pair, _add_wrong_kind_pair, _add_free_square])
@pytest.mark.parametrize("name,check,mode", [
    ("_c4del_variable", check_c4_deletion_gadgets, DELETION),
    ("_c4del_clause", check_c4_deletion_gadgets, DELETION),
    ("_c5del_variable", check_c5_deletion_gadgets, DELETION),
    ("_c5del_clause", check_c5_deletion_gadgets, DELETION),
    ("_c4comp_ladder", check_c4_completion_gadgets, COMPLETION),
    ("_c4comp_clause", check_c4_completion_gadgets, COMPLETION),
])
def test_corrupted_gadget_fails_its_contract(monkeypatch, name, check, mode, corrupt):
    original = getattr(gadgets, name)
    pattern = cycle_graph(5) if check is check_c5_deletion_gadgets else cycle_graph(4)

    def broken(builder, *args):
        labels = original(builder, *args)
        corrupt(builder, mode, pattern)
        return labels

    monkeypatch.setattr(gadgets, name, broken)
    check.cache_clear()
    try:
        with pytest.raises(GadgetContractError) as info:
            check()
    finally:
        check.cache_clear()
    # the ladder toggles only its own candidate subsets, so the uncovered
    # square is caught one check earlier there
    if corrupt is _add_free_square and name != "_c4comp_ladder":
        assert "free pairs span a square" in str(info.value)


def test_wired_preconditions():
    with pytest.raises(ValueError, match="exact-3CNF"):
        reduce_3sat_to_c4del(formula(2, [(1, -2)]))
    with pytest.raises(ValueError, match="repeats a variable"):
        reduce_3sat_to_c4del(formula(2, [(1, -2, -1)]))
    with pytest.raises(ValueError, match="repeats a variable"):
        reduce_3sat_to_c5del(formula(2, [(1, 2, 2)]))
    with pytest.raises(ValueError, match="at least twice"):
        reduce_3sat_to_c4comp(formula(3, [(1, 2, 3)]))
    with pytest.raises(ValueError, match="target 'sat2del' needs a pattern"):
        gadgets.reduce_formula("sat2del", formula(3, [(1, 2, 3)]))
    with pytest.raises(ValueError, match="target 'c4del' fixes its own pattern"):
        gadgets.reduce_formula("c4del", formula(3, [(1, 2, 3)]), HOUSE)


@pytest.mark.parametrize("reduce_fn,needs_duplication", [
    (reduce_3sat_to_c4del, False),
    (reduce_3sat_to_c5del, False),
    (reduce_3sat_to_c4comp, True),
])
def test_wired_equivalence_random(reduce_fn, needs_duplication):
    rng = random.Random(4207)
    for _ in range(10):
        f = random_wired_formula(rng, rng.randint(1, 2))
        if needs_duplication:
            f = duplicate_for_min_occurrences(f, 2)
        model = sat_brute_force(f)
        assert model is not None
        instance, trace = reduce_fn(f)
        found = solve_sandwich(instance)
        assert found is not None
        assignment = assignment_from_solution(trace, found)
        assert satisfies(f, assignment)
        canonical = solution_from_assignment(f, trace, model)
        assert is_solution(instance, canonical)


@pytest.mark.parametrize("reduce_fn", [reduce_3sat_to_c4del, reduce_3sat_to_c5del])
def test_wired_unsat_refuted(reduce_fn):
    f = all_sign_clauses()
    assert sat_brute_force(f) is None
    instance, _ = reduce_fn(f)
    assert solve_sandwich(instance) is None


def test_wired_tamper_rejected():
    # Assert a literal whose variable fired the other way: the wiring copy
    # must catch it in all three constructions.
    f = formula(3, [(1, 2, 3)])
    for reduce_fn, needs_duplication in ((reduce_3sat_to_c4del, False),
                                         (reduce_3sat_to_c5del, False),
                                         (reduce_3sat_to_c4comp, True)):
        g = duplicate_for_min_occurrences(f, 2) if needs_duplication else f
        instance, trace = reduce_fn(g)
        good = solution_from_assignment(g, trace, (True, False, False))
        assert is_solution(instance, good)
        flipped = (good - set(trace.variable_solutions[0][0])) | set(trace.variable_solutions[0][1])
        assert not is_solution(instance, frozenset(flipped))


@pytest.mark.parametrize("reduce_fn,length,needs_duplication", [
    (reduce_3sat_to_c4del, 4, False),
    (reduce_3sat_to_c5del, 5, False),
    (reduce_3sat_to_c4comp, 4, True),
])
def test_locality_of_obstructions(reduce_fn, length, needs_duplication):
    f = formula(3, [(1, -2, 3), (-1, 2, -3)])
    if needs_duplication:
        f = duplicate_for_min_occurrences(f, 2)
    instance, trace = reduce_fn(f)
    extents = [set(extent) for extent in trace.variable_extents + trace.clause_extents]
    connectors = {tuple(sorted(quad)) for per_clause in trace.connections for quad in per_clause}
    cycles = induced_cycles(instance.graph, length)
    assert cycles
    for cycle in cycles:
        assert any(set(cycle) <= extent for extent in extents) or cycle in connectors


@pytest.mark.parametrize("reduce_fn,needs_duplication", [
    (reduce_3sat_to_c4del, False),
    (reduce_3sat_to_c4comp, True),
])
def test_free_pairs_span_no_square(reduce_fn, needs_duplication):
    f = formula(3, [(1, 2, 3), (-1, -2, -3)])
    if needs_duplication:
        f = duplicate_for_min_occurrences(f, 2)
    instance, _ = reduce_fn(f)
    assert not has_c4_subgraph(Graph(instance.graph.vertex_count, instance.free))


def test_house_completion_translation():
    source = SandwichInstance(cycle_graph(4), C4, COMPLETION, frozenset({(0, 2), (1, 3)}))
    target = reduce_c4comp_to_house_comp(source)
    assert target.pattern.graph == house_graph()
    assert target.graph.vertex_count == source.graph.vertex_count + source.graph.edge_count
    for apex in range(source.graph.vertex_count, target.graph.vertex_count):
        assert target.graph.degree(apex) == 2
    assert sorted(map(sorted, brute_solutions(source))) == sorted(map(sorted, brute_solutions(target)))


def test_house_completion_translation_on_wired_instance():
    f = duplicate_for_min_occurrences(formula(3, [(1, 2, 3)]), 2)
    source, trace = reduce_3sat_to_c4comp(f)
    target = reduce_c4comp_to_house_comp(source)
    canonical = solution_from_assignment(f, trace, (True, True, True))
    assert is_solution(target, canonical)
    assert not is_solution(target, frozenset())


def test_house_translation_preconditions():
    deletion = SandwichInstance(cycle_graph(4), C4, DELETION, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="square completion"):
        reduce_c4comp_to_house_comp(deletion)
    spanning = SandwichInstance(Graph(4, []), C4, COMPLETION,
                                frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    with pytest.raises(ValueError, match="span a square"):
        reduce_c4comp_to_house_comp(spanning)
    wrong_pattern = SandwichInstance(cycle_graph(5), C5, DELETION, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="square deletion"):
        lift_specific(wrong_pattern, "house-del", GROW)


def test_house_deletion_guards():
    source = SandwichInstance(cycle_graph(4), C4, DELETION, frozenset({(0, 1)}))
    lifted = lift_specific(source, "house-del", GROW)
    guards = GROW(1) + 2
    assert lifted.budget == 1
    assert lifted.instance.pattern.graph == house_graph()
    assert lifted.instance.graph.vertex_count == 4 + 2 * guards * 3
    assert lifted.instance.free == lifted.instance.graph.edges
    assert solve_budgeted(lifted) is not None

    hard = lift_specific(
        SandwichInstance(cycle_graph(4), C4, DELETION, frozenset()), "house-del", GROW)
    assert solve_budgeted(type(hard)(hard.instance, GROW(0))) is None


def test_house_deletion_guard_witness():
    # Deleting a guarded edge exposes a house on the edge ends, one full
    # guard, and a second guard's inner vertex.
    source = SandwichInstance(complete_graph(2), C4, DELETION, frozenset())
    lifted = lift_specific(source, "house-del", GROW)
    stripped = Graph(lifted.instance.graph.vertex_count,
                     set(lifted.instance.graph.edges) - {(0, 1)})
    witness = find_induced_copy(stripped, house_graph())
    assert witness is not None
    image = set(witness)
    assert {0, 1} <= image
    degrees = sorted(induced_subgraph(stripped, sorted(image)).degree_sequence())
    assert degrees == [2, 2, 2, 3, 3]


@pytest.mark.parametrize("family,graph,pattern,mode,yes_free", [
    ("c4-del", cycle_graph(4), "c4", DELETION, {(0, 1)}),
    ("c5-del", cycle_graph(5), "c5", DELETION, {(0, 1)}),
    ("c4-comp", cycle_graph(4), "c4", COMPLETION, {(0, 2)}),
    ("house-comp", house_graph(), "house", COMPLETION, {(0, 1)}),
])
def test_lift_specific_gap(family, graph, pattern, mode, yes_free):
    pattern = named_pattern(pattern)
    yes = SandwichInstance(graph, pattern, mode, frozenset(yes_free))
    lifted = lift_specific(yes, family, GROW)
    assert lifted.budget == 1
    assert solve_budgeted(lifted) is not None

    no = SandwichInstance(graph, pattern, mode, frozenset())
    lifted_no = lift_specific(no, family, GROW)
    assert lifted_no.budget == 0
    assert solve_budgeted(type(lifted_no)(lifted_no.instance, GROW(0))) is None


def test_lift_specific_sizes():
    yes = SandwichInstance(cycle_graph(4), C4, DELETION, frozenset({(0, 1)}))
    lifted = lift_specific(yes, "c4-del", GROW)
    assert lifted.instance.graph.vertex_count == 4 + (GROW(1) + 2) * 3

    pent = SandwichInstance(cycle_graph(5), C5, DELETION, frozenset({(0, 1)}))
    lifted = lift_specific(pent, "c5-del", GROW)
    assert lifted.instance.graph.vertex_count == 5 + 3 * (GROW(1) + 1) * 4

    comp = SandwichInstance(cycle_graph(4), C4, COMPLETION, frozenset({(0, 2)}))
    lifted = lift_specific(comp, "c4-comp", GROW)
    assert lifted.instance.graph.vertex_count == 4 + 2 * (GROW(1) + 1) * 1

    roof = SandwichInstance(house_graph(), HOUSE, COMPLETION, frozenset({(0, 1)}))
    lifted = lift_specific(roof, "house-comp", GROW)
    assert lifted.instance.graph.vertex_count == 5 + 3 * (GROW(1) + 1) * 3


def test_lift_specific_general_delegation():
    wheel = named_pattern("wheel4")
    yes = SandwichInstance(wheel.graph, wheel, DELETION, frozenset({(0, 1)}))
    lifted = lift_specific(yes, "general-del", GROW)
    assert lifted.budget == 1
    assert solve_budgeted(lifted) is not None


def test_lift_specific_rejections():
    square_del = SandwichInstance(cycle_graph(4), C4, DELETION, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="unknown lift family"):
        lift_specific(square_del, "grid", GROW)
    with pytest.raises(ValueError, match="matching pattern and mode"):
        lift_specific(square_del, "c5-del", GROW)
    with pytest.raises(ValueError, match="matching pattern and mode"):
        lift_specific(square_del, "c4-comp", GROW)
