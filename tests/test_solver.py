import random
from itertools import combinations

import pytest

from hfree.graphs import Graph, is_h_free
from hfree.patterns import complete_graph, cycle_graph, make_pattern, named_pattern, path_graph, wheel_graph
from hfree.solver import (
    BudgetedInstance,
    SandwichInstance,
    SearchLimitError,
    apply,
    is_solution,
    solve_budgeted,
    solve_min,
    solve_sandwich,
)


def deletion_instance(graph, pattern, free=None):
    free = graph.edges if free is None else free
    return SandwichInstance(graph, pattern, "deletion", frozenset(free))


def completion_instance(graph, pattern, free=None):
    free = graph.non_edges() if free is None else free
    return SandwichInstance(graph, pattern, "completion", frozenset(free))


def brute_force_solutions(instance):
    free = sorted(instance.free)
    found = []
    for r in range(len(free) + 1):
        for subset in combinations(free, r):
            if is_solution(instance, subset):
                found.append(frozenset(subset))
    return found


def test_instance_validation():
    c4 = cycle_graph(4)
    pat = make_pattern(complete_graph(3))
    with pytest.raises(ValueError, match="mode"):
        SandwichInstance(c4, pat, "removal", frozenset())
    with pytest.raises(ValueError, match="not an edge"):
        SandwichInstance(c4, pat, "deletion", frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="already an edge"):
        SandwichInstance(c4, pat, "completion", frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="out of range"):
        SandwichInstance(c4, pat, "completion", frozenset({(0, 9)}))
    for mode in ("deletion", "completion"):
        with pytest.raises(ValueError, match="out of range"):
            SandwichInstance(c4, pat, mode, frozenset({(-1, 2)}))
    with pytest.raises(ValueError):
        BudgetedInstance(deletion_instance(c4, pat), -1)


def test_apply_and_is_solution():
    inst = deletion_instance(cycle_graph(4), named_pattern("c4"))
    assert apply(inst, [(0, 1)]).edge_count == 3
    with pytest.raises(ValueError, match="outside the free set"):
        apply(inst, [(0, 2)])
    assert is_solution(inst, [(0, 1)])
    assert not is_solution(inst, [])


def test_delete_one_edge_of_c4():
    inst = deletion_instance(cycle_graph(4), named_pattern("c4"))
    solution = solve_min(inst)
    assert solution is not None and len(solution) == 1
    assert solve_sandwich(inst, budget=0) is None


def test_absent_when_free_edges_cannot_help():
    # Deleting the one free spoke leaves the rim, an untouched induced C4.
    inst = deletion_instance(wheel_graph(4), named_pattern("c4"), free={(0, 4)})
    assert solve_sandwich(inst) is None


def test_deletion_can_create_copies():
    # Diamond: chord deletion creates an induced C4, so the empty set is the
    # only solution even though the full free set is available.
    diamond = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    inst = deletion_instance(diamond, named_pattern("c4"), free={(2, 3)})
    assert is_solution(inst, [])
    assert not is_solution(inst, [(2, 3)])
    assert solve_min(inst) == frozenset()


def test_completion_fills_a_path_into_a_cycle():
    inst = completion_instance(path_graph(4), named_pattern("p4"), free={(0, 3)})
    assert solve_min(inst) == frozenset({(0, 3)})
    assert solve_sandwich(inst, budget=0) is None


def test_budgeted_wrapper():
    inst = deletion_instance(cycle_graph(4), named_pattern("c4"))
    assert solve_budgeted(BudgetedInstance(inst, 1)) is not None
    assert solve_budgeted(BudgetedInstance(inst, 0)) is None


def test_negative_budget_is_rejected():
    # The path has no square, so a search ignoring the sign would answer yes.
    inst = deletion_instance(path_graph(3), named_pattern("c4"))
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        solve_sandwich(inst, budget=-1)
    assert solve_sandwich(inst, budget=0) == frozenset()


def test_node_limit_raises_instead_of_lying():
    host = complete_graph(7)
    inst = deletion_instance(host, make_pattern(complete_graph(3)))
    with pytest.raises(SearchLimitError):
        solve_sandwich(inst, node_limit=2)


def random_instance(rng):
    n = rng.randint(3, 6)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.55]
    g = Graph(n, edges)
    pattern = rng.choice([named_pattern("c4"), make_pattern(complete_graph(3), "k3"), named_pattern("p4")])
    mode = rng.choice(["deletion", "completion"])
    pool = sorted(g.edges) if mode == "deletion" else g.non_edges()
    free = frozenset(p for p in pool if rng.random() < 0.7)
    return SandwichInstance(g, pattern, mode, free)


def test_solver_matches_exhaustive_enumeration():
    rng = random.Random(404)
    checked_absent = 0
    for _ in range(60):
        inst = random_instance(rng)
        all_solutions = brute_force_solutions(inst)
        got = solve_sandwich(inst)
        if not all_solutions:
            assert got is None
            checked_absent += 1
        else:
            assert got is not None and is_solution(inst, got)
            best = solve_min(inst)
            assert len(best) == min(len(s) for s in all_solutions)
            assert is_solution(inst, best)
            # Budgeted agreement at every cutoff.
            sizes = {len(s) for s in all_solutions}
            for k in range(max(sizes) + 1):
                budgeted = solve_sandwich(inst, budget=k)
                if any(size <= k for size in sizes):
                    assert budgeted is not None and len(budgeted) <= k
                else:
                    assert budgeted is None
    assert checked_absent >= 3


def test_empty_free_set():
    inst = deletion_instance(cycle_graph(4), named_pattern("c4"), free=set())
    assert solve_sandwich(inst) is None
    triangle_free = deletion_instance(cycle_graph(4), make_pattern(complete_graph(3)), free=set())
    assert solve_sandwich(triangle_free) == frozenset()
