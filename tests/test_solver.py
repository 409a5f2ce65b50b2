import hashlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree import solver
from hfree.graphs import Graph, edge_key, is_h_free
from hfree.patterns import complete_graph, cycle_graph, make_pattern, named_pattern, path_graph, wheel_graph
from hfree.reductions import Polynomial, complement_instance
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
from hfree.verify import verify_gap


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


def test_negative_node_limit_is_rejected():
    inst = deletion_instance(path_graph(3), named_pattern("c4"))
    for solve in (solve_sandwich, solve_min):
        with pytest.raises(ValueError, match="node_limit must be nonnegative"):
            solve(inst, node_limit=-3)
    assert solve_sandwich(inst, node_limit=1) == frozenset()


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


def disjoint_copies(name, k):
    """k disjoint copies of a named pattern, every edge deletable."""
    pattern = named_pattern(name)
    p = pattern.vertex_count
    g = Graph(p * k, [(u + i * p, v + i * p) for i in range(k) for u, v in pattern.edges])
    return deletion_instance(g, pattern)


def test_solution_larger_than_the_recursion_limit():
    k = sys.getrecursionlimit() + 100
    inst = disjoint_copies("c4", k)
    solution = solve_sandwich(inst)
    assert len(solution) == k and solution <= inst.free
    assert {u // 4 for u, _ in solution} == set(range(k))


@pytest.fixture
def matcher_calls(monkeypatch):
    """Count the solver's matcher calls: root searches, and searches
    anchored at a pair (fixed=)."""
    counts = {"root": 0, "anchored": 0}
    real = solver.find_embedding

    def counting(*args, **kwargs):
        counts["anchored" if kwargs.get("fixed") is not None else "root"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "find_embedding", counting)
    return counts


def pinned_random_instance(rng):
    pattern = named_pattern(rng.choice(("c4", "p4", "c5", "house", "k5e", "co-c4", "p5")))
    n = rng.randint(pattern.vertex_count + 2, 9)
    density = rng.choice((0.4, 0.55, 0.7))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
    mode = rng.choice(("deletion", "completion"))
    pool = sorted(g.edges) if mode == "deletion" else g.non_edges()
    return SandwichInstance(g, pattern, mode, frozenset(p for p in pool if rng.random() < 0.8))


def verdicts(inst):
    """Existence at several budgets, a capped search, and the optimum."""
    found = [solve_sandwich(inst, budget=b) is not None for b in (None, 0, 1, 2, 3, 5)]
    try:
        capped = solve_sandwich(inst, node_limit=7) is not None
    except SearchLimitError:
        capped = "limit"
    best = solve_min(inst)
    return found, capped, None if best is None else len(best)


# Upper bounds on the solver's matcher calls, equal to the counts when they
# were pinned: a change may lower them, never raise them. Deepening from
# budget 0 instead of the root packing bound exceeds the node limit on 10
# squares and 7 houses.
@pytest.mark.parametrize(
    "name,make,cost,root,anchored",
    [
        ("squares", lambda: disjoint_copies("c4", 6), 6, 13, 0),
        ("10 squares", lambda: disjoint_copies("c4", 10), 10, 21, 0),
        ("64 squares", lambda: disjoint_copies("c4", 64), 64, 129, 0),
        ("houses", lambda: disjoint_copies("house", 4), 4, 9, 0),
        ("7 houses", lambda: disjoint_copies("house", 7), 7, 15, 0),
        ("16 houses", lambda: disjoint_copies("house", 16), 16, 33, 0),
        ("co-squares completion", lambda: complement_instance(disjoint_copies("c4", 4)), 4, 9, 12),
    ],
)
def test_solve_min_work_is_pinned(matcher_calls, name, make, cost, root, anchored):
    inst = make()
    best = solve_min(inst, node_limit=25_000)
    assert len(best) == cost and is_solution(inst, best)
    assert matcher_calls["root"] <= root
    assert matcher_calls["anchored"] <= anchored


def test_random_corpus_work_is_pinned(matcher_calls):
    rng = random.Random(7)
    results = [verdicts(pinned_random_instance(rng)) for _ in range(320)]
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "a5a2462ce2caffad5bc21966be6e754ccebfc7a36ebbdfb130615351abfa3de3"
    assert matcher_calls["root"] <= 17922
    assert matcher_calls["anchored"] <= 49106


def test_hub_host_work_is_pinned(monkeypatch, matcher_calls):
    # Gap-corpus house-del item 46: a rigid square whose every vertex is
    # joined to one fresh vertex by a free edge. Its lift is the slowest gap
    # check, on a host with hubs, where the matcher meets far more dead
    # branches than on the small random hosts of its own pinned digest; so
    # pin every copy the solver branches on, in order.
    square = cycle_graph(4)
    free = frozenset((u, 4) for u in range(4))
    inst = SandwichInstance(Graph(5, square.edges | free), named_pattern("c4"), "deletion", free)
    roots = []
    counting = solver.find_embedding

    def recording(*args, **kwargs):
        image = counting(*args, **kwargs)
        if kwargs.get("fixed") is None:
            roots.append(image)
        return image

    monkeypatch.setattr(solver, "find_embedding", recording)
    report = verify_gap(inst, "house-del", Polynomial(1, 1, 1))
    assert (report.verdict, report.details["checked"]) == ("pass", "absent<=5")
    digest = hashlib.sha256(repr(roots).encode()).hexdigest()
    assert digest == "eccb4b6660624921c7905c581dfaed07c6bb4823d3b90a9cb1d56b70b02c4aea"
    assert matcher_calls["root"] <= 2685
    assert matcher_calls["anchored"] <= 5498


STOCK_PATTERNS = ("c4", "p4", "c5", "p5", "house", "k5e", "co-c4")


def planted_instance(seed, name, mode):
    """Up to three copies of the pattern planted on random vertices of a
    random host at most three vertices larger, later ones overwriting
    earlier ones, and up to eight free pairs, most inside planted copies,
    so a sweep over their subsets stays cheap."""
    rng = random.Random(seed)
    pattern = named_pattern(name)
    n = rng.randint(pattern.vertex_count, pattern.vertex_count + 3)
    density = rng.choice((0.3, 0.5, 0.7))
    edges = {pair for pair in combinations(range(n), 2) if rng.random() < density}
    inside = set()
    for _ in range(rng.randint(1, 3)):
        image = rng.sample(range(n), pattern.vertex_count)
        for a, b in combinations(range(pattern.vertex_count), 2):
            pair = edge_key(image[a], image[b])
            inside.add(pair)
            (edges.add if (a, b) in pattern.edges else edges.discard)(pair)
    g = Graph(n, edges)
    pool = sorted(g.edges) if mode == "deletion" else g.non_edges()
    planted = [pair for pair in pool if pair in inside]
    others = [pair for pair in pool if pair not in inside]
    free = rng.sample(planted, min(rng.randint(4, 6), len(planted)))
    free += rng.sample(others, min(rng.randint(0, 2), len(others)))
    return SandwichInstance(g, pattern, mode, frozenset(free))


def naive_optimum(instance):
    """Size of the smallest solution by a sweep over free subsets, or None."""
    pool = sorted(instance.free)
    for size in range(len(pool) + 1):
        if any(is_solution(instance, chosen) for chosen in combinations(pool, size)):
            return size
    return None


def deepening_from_zero(instance):
    """Iterative deepening from budget 0, whose returned set solve_min
    must reproduce."""
    best = solve_sandwich(instance)
    if best is None:
        return None
    for bound in range(len(best)):
        candidate = solve_sandwich(instance, budget=bound)
        if candidate is not None:
            return candidate
    return best


cases_settings = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@pytest.mark.parametrize("mode", ["deletion", "completion"])
@pytest.mark.parametrize("name", STOCK_PATTERNS)
@cases_settings
@given(seed=st.integers(0, 2**32))
def test_solve_min_agrees_with_the_sweep_on_random_cases(name, mode, seed):
    inst = planted_instance(seed, name, mode)
    best = solve_min(inst)
    optimum = naive_optimum(inst)
    assert (best is None) == (optimum is None)
    assert best is None or (len(best) == optimum and is_solution(inst, best))
    assert best == deepening_from_zero(inst)


@pytest.mark.parametrize("mode", ["deletion", "completion"])
@pytest.mark.parametrize("name", STOCK_PATTERNS)
@cases_settings
@given(seed=st.integers(0, 2**32))
def test_root_packing_is_a_lower_bound(name, mode, seed):
    inst = planted_instance(seed, name, mode)
    pattern, host = inst.pattern, inst.graph
    copies = solver._root_packing(inst, host.vertex_count**2)
    flippable = pattern.edges if mode == "deletion" else pattern.non_edges
    seen = set()
    for image in copies:
        assert len(set(image)) == pattern.vertex_count
        for a, b in combinations(range(pattern.vertex_count), 2):
            assert ((a, b) in pattern.edges) == (edge_key(image[a], image[b]) in host.edges)
        pairs = {edge_key(image[a], image[b]) for a, b in flippable}
        assert not pairs & seen
        seen |= pairs
    optimum = naive_optimum(inst)
    assert optimum is None or len(copies) <= optimum
    assert len(solver._root_packing(inst, 1)) == min(1, len(copies))
