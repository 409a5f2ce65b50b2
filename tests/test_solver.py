import hashlib
import random
import sys
from itertools import chain, combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfree import graphs, solver
from hfree.cnf import formula
from hfree.graphs import Graph, _toggle, complement, edge_key, find_induced_copy, is_h_free, match_plan
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
from hfree.verify import verify_gap, verify_sat_equivalence


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


def test_constructors_accept_every_input_shape():
    """The validating constructors take any iterable of pairs: a
    generator, pairs in either orientation, repeats in one orientation or
    both, and lists. Each error message names its pair as it always did."""
    square = cycle_graph(4)
    pattern = named_pattern("c4")
    shapes = [
        lambda pairs: (pair for pair in pairs),
        lambda pairs: [(v, u) for u, v in pairs],
        lambda pairs: [*pairs, *pairs],
        lambda pairs: [*pairs, *((v, u) for u, v in pairs)],
        lambda pairs: [[v, u] for u, v in pairs],
    ]
    for shape in shapes:
        graph = Graph(4, shape(sorted(square.edges)))
        assert graph == square and graph.edges == square.edges
        assert [list(graph.neighbors(v)) for v in range(4)] == [list(square.neighbors(v)) for v in range(4)]
        deletion = SandwichInstance(square, pattern, "deletion", shape([(0, 1), (2, 3)]))
        assert deletion.free == frozenset({(0, 1), (2, 3)})
        completion = SandwichInstance(square, pattern, "completion", shape([(0, 2)]))
        assert completion.free == frozenset({(0, 2)})
    assert Graph(3, [[0, 1]]).edges == frozenset({(0, 1)})
    assert SandwichInstance(square, pattern, "deletion", [[1, 0]]).free == frozenset({(0, 1)})

    def message(build):
        with pytest.raises(ValueError) as error:
            build()
        return str(error.value)

    assert message(lambda: Graph(-1)) == "vertex_count must be nonnegative"
    assert message(lambda: Graph(3, [(0, 1), (2, 2)])) == "self-loop at vertex 2"
    assert message(lambda: Graph(3, [(3, 1)])) == "edge (1, 3) out of range for 3 vertices"
    assert message(lambda: Graph(3, [(0, -1)])) == "edge (-1, 0) out of range for 3 vertices"
    assert message(lambda: SandwichInstance(square, pattern, "removal", ())) == "mode must be 'deletion' or 'completion'"
    for mode in ("deletion", "completion"):
        assert message(lambda: SandwichInstance(square, pattern, mode, [(9, 0)])) == "free pair (0, 9) out of range"
    assert message(lambda: SandwichInstance(square, pattern, "deletion", [(2, 0)])) == "free pair (0, 2) is not an edge"
    assert message(lambda: SandwichInstance(square, pattern, "completion", {(2, 1)})) == (
        "free pair (1, 2) is already an edge"
    )
    # Several faults name the smallest pair, however the pairs were given.
    assert message(lambda: SandwichInstance(square, pattern, "completion", frozenset({(2, 3), (0, 1)}))) == (
        "free pair (0, 1) is already an edge"
    )


def test_a_complement_host_checks_free_pairs_as_a_built_one_does():
    """A complement holds no edge set, so a frozenset of free pairs is
    checked against its rows. Every frozenset of one or two pairs, valid or
    not, is accepted or refused with the same message as over the same
    graph built from pairs, in both modes; an accepted one leaves the
    complement's edge set unbuilt."""
    pattern = named_pattern("c4")
    path = path_graph(5)
    built = Graph(5, path.non_edges())
    pool = [*combinations(range(5), 2), (3, 1), (0, 5), (-1, 2), (True, 2)]

    def outcome(host, mode, free):
        try:
            return SandwichInstance(host, pattern, mode, free).free
        except ValueError as error:
            return str(error)

    for mode in ("deletion", "completion"):
        seen = set()
        for free in map(frozenset, chain(combinations(pool, 1), combinations(pool, 2))):
            host = complement(path)
            got = outcome(host, mode, free)
            assert got == outcome(built, mode, free)
            if got == free and all(type(u) is int for u, _ in free):
                assert host._edges is None
            seen.add(got if isinstance(got, str) else "accepted")
        fault = "(0, 1) is not an edge" if mode == "deletion" else "(0, 2) is already an edge"
        assert {"accepted", "free pair (0, 5) out of range", f"free pair {fault}"} <= seen


def test_free_pairs_checked_one_by_one_read_rows_only():
    """A free set that is not a frozenset is checked pair by pair against
    the graph's rows, so a complement's edge set stays unbuilt."""
    host = complement(Graph(300, [(0, 1)]))
    instance = SandwichInstance(host, named_pattern("c4"), "deletion", {(0, 2)})
    assert instance.free == frozenset({(0, 2)})
    assert host._edges is None
    with pytest.raises(ValueError, match=r"^free pair \(0, 1\) is not an edge$"):
        SandwichInstance(host, named_pattern("c4"), "deletion", [(1, 0)])
    with pytest.raises(ValueError, match=r"^free pair \(0, 2\) is already an edge$"):
        SandwichInstance(host, named_pattern("c4"), "completion", [(2, 0)])
    assert host._edges is None


def drawn_graph(seed, index):
    """The index-th sparse graph that random.Random(seed) draws: n from 30
    to 90 vertices, then 2n distinct pairs. Returns n and the sorted pairs."""
    rng = random.Random(seed)
    for _ in range(index):
        n = rng.randint(30, 90)
        edges = set()
        while len(edges) < 2 * n:
            edges.add(edge_key(*rng.sample(range(n), 2)))
    return n, sorted(edges)


@st.composite
def edge_orders(draw):
    """A sorted edge list and the same pairs shuffled, some reversed and
    some repeated, with a pattern to delete."""
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = sorted({edge_key(u, v) for u, v in draw(st.lists(pair, max_size=2 * n))})
    repeats = draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
    listed = draw(st.permutations(edges + repeats))
    flips = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    listed = [(v, u) if flip else (u, v) for (u, v), flip in zip(listed, flips)]
    return n, edges, listed, draw(st.sampled_from(("c4", "p5", "house", "c5")))


def _shuffled_and_reversed(n, edges, seed):
    listed = list(edges)
    random.Random(seed).shuffle(listed)
    return n, edges, [(v, u) if i % 3 else (u, v) for i, (u, v) in enumerate(listed)], "house"


# The explicit example is the graph of test_permuted_edge_lines_solve_alike:
# neighbour sets filled in input order iterate differently for its two
# builds, and solve_min then picks different deletion sets.
@settings(max_examples=60)
@example(case=_shuffled_and_reversed(*drawn_graph(11, 54), 0))
@given(case=edge_orders())
def test_equal_graphs_give_equal_answers(case):
    n, edges, listed, name = case
    ordered, shuffled = Graph(n, edges), Graph(n, listed)
    assert shuffled == ordered
    assert [list(shuffled.neighbors(v)) for v in range(n)] == [list(ordered.neighbors(v)) for v in range(n)]
    pattern = named_pattern(name)
    assert find_induced_copy(shuffled, pattern.graph) == find_induced_copy(ordered, pattern.graph)
    first, second = deletion_instance(ordered, pattern), deletion_instance(shuffled, pattern)
    assert solve_sandwich(second) == solve_sandwich(first)
    assert solve_min(second) == solve_min(first)


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


def _plan_pattern(plan):
    """The pattern a plan was made for, read back from its levels."""
    return Graph(len(plan.levels), [edge_key(v, w) for v, _, _, _, checks in plan.levels for w, adj in checks if adj])


@pytest.fixture
def checked_root_calls(monkeypatch):
    """Check every root call of a search against the plain call on the same
    adjacency, and every mark it passes against a search anchored at the
    marked vertex: a mark may only skip a root that carries no copy, so both
    calls return the same copy. Any call that passes degree buckets must
    pass those of its adjacency as it stands. Counts root calls by whether
    they skipped marks ("skipping"), only reported dead roots ("marking")
    or did neither ("plain"), and those that passed buckets ("bucketed")."""
    real = solver.find_embedding
    counts = {"skipping": 0, "marking": 0, "plain": 0, "bucketed": 0}

    def checked(adj, plan, **kwargs):
        if kwargs.get("buckets") is not None:
            assert kwargs["buckets"] == graphs._buckets(adj)
        if "dead" not in kwargs:
            return real(adj, plan, **kwargs)
        counts["bucketed"] += kwargs.get("buckets") is not None
        roots = kwargs["roots"]
        expected = real(adj, plan)
        if kwargs["dead"] is None:
            counts["plain"] += 1
        elif roots is None:
            counts["marking"] += 1
        else:
            marked = sorted(roots)
            assert marked
            counts["skipping"] += 1
            anchored = match_plan(_plan_pattern(plan), (plan.levels[0][0],))
            assert all(real(adj, anchored, fixed=(v,)) is None for v in marked)
        image = real(adj, plan, **kwargs)
        assert image == expected
        return image

    monkeypatch.setattr(solver, "find_embedding", checked)
    return counts


def test_marked_root_calls_agree_with_plain_calls_on_the_random_corpus(checked_root_calls):
    rng = random.Random(7)
    skipped = {"deletion": 0, "completion": 0}
    for _ in range(320):
        inst = pinned_random_instance(rng)
        before = checked_root_calls["skipping"]
        verdicts(inst)
        skipped[inst.mode] += checked_root_calls["skipping"] - before
    assert min(skipped.values()) > 0 and checked_root_calls["plain"] > 0
    calls = sum(checked_root_calls[kind] for kind in ("skipping", "marking", "plain"))
    assert checked_root_calls["bucketed"] == calls


def test_marked_root_calls_agree_with_plain_calls_on_hub_hosts(checked_root_calls):
    # Deletion: gap-corpus item 46, lifted by house-del (see
    # test_hub_host_work_is_pinned). Completion: the c4-comp ladder of one
    # clause.
    square = cycle_graph(4)
    free = frozenset((u, 4) for u in range(4))
    inst = SandwichInstance(Graph(5, square.edges | free), named_pattern("c4"), "deletion", free)
    assert verify_gap(inst, "house-del", Polynomial(1, 1, 1)).verdict == "pass"
    deletion = checked_root_calls["skipping"]
    assert verify_sat_equivalence(formula(3, [(1, 2, 3)]), "c4-comp").verdict == "pass"
    assert deletion > 0 and checked_root_calls["skipping"] > deletion


@pytest.mark.parametrize("name,k", [("c4", 60), ("house", 30)])
def test_marked_root_calls_agree_with_plain_calls_on_long_descents(checked_root_calls, name, k):
    # One existence search deletes a pair of each component in turn, so
    # the marks of many nodes pile up on one path of the stack.
    inst = disjoint_copies(name, k)
    solution = solve_sandwich(inst)
    assert len(solution) == k and is_solution(inst, solution)
    assert checked_root_calls["skipping"] > 0


# Two p4 hosts, one per mode, on which the search must revive a marked root
# at distance exactly 2, the reach of p4's plan (its first vertex is an
# inner one), and must clear the marks of a popped frame before a later
# branch. In deletion (vertices 1 and 2 joined to 3, 4 and 5, vertex 0 to 3
# and 5, a pendant 6 on 3), deleting (0, 5) makes the node mark 4 and 5,
# and deleting (1, 3) below it must revive 4, at distance 2 from 3. In
# completion (a spider: 5 joined to 0, 1 and 2, with legs 0-3 and 2-4),
# filling (0, 1) makes the node mark 1, and filling (0, 4) below it must
# revive 1, at distance 2 from 4. Reviving within distance 1, or popping a
# frame without clearing the marks its root call set, leaves a mark on a
# vertex that roots a copy, which checked_root_calls rejects.
REVIVAL_HOSTS = {
    "deletion": (7, [(0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 6)], [(0, 5), (1, 3), (3, 6)]),
    "completion": (6, [(0, 3), (0, 5), (1, 5), (2, 4), (2, 5)], [(0, 1), (0, 4), (1, 3), (1, 4), (3, 4)]),
}


@pytest.mark.parametrize("mode", sorted(REVIVAL_HOSTS))
def test_toggles_revive_roots_at_the_plan_reach(checked_root_calls, mode):
    n, edges, free = REVIVAL_HOSTS[mode]
    pattern = named_pattern("p4")
    assert match_plan(pattern.graph).reach == 2
    inst = SandwichInstance(Graph(n, edges), pattern, mode, frozenset(free))
    smallest = min(map(len, brute_force_solutions(inst)), default=None)
    for budget in (None, 1, 2):
        found = solve_sandwich(inst, budget=budget)
        assert (found is None) == (smallest is None or budget is not None and smallest > budget)
    assert checked_root_calls["marking"] > 0


def test_patterns_that_are_not_connected_keep_the_full_scan(checked_root_calls):
    co_c4 = named_pattern("co-c4")
    assert match_plan(co_c4.graph).reach is None
    two_squares = Graph(8, [(u + i, v + i) for i in (0, 4) for u, v in cycle_graph(4).edges])
    deletion = deletion_instance(complement(two_squares), co_c4)
    completion = complement_instance(disjoint_copies("c4", 3))
    for inst in (deletion, completion):
        assert inst.pattern.graph == co_c4.graph
        verdicts(inst)
    assert checked_root_calls["plain"] > 0
    assert checked_root_calls["skipping"] == checked_root_calls["marking"] == 0


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


cases_settings = settings(max_examples=50)


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


def assert_packed(images, pattern, host_edges, flippable):
    """Each image is an induced copy in the host, checked pair by pair
    without the matcher, and the copies' flippable pairs are pairwise
    disjoint."""
    seen = set()
    for image in images:
        assert len(set(image)) == pattern.vertex_count
        for a, b in combinations(range(pattern.vertex_count), 2):
            assert ((a, b) in pattern.edges) == (edge_key(image[a], image[b]) in host_edges)
        pairs = {edge_key(image[a], image[b]) for a, b in flippable}
        assert not pairs & seen
        seen |= pairs


@pytest.mark.parametrize("mode", ["deletion", "completion"])
@pytest.mark.parametrize("name", STOCK_PATTERNS)
@cases_settings
@given(seed=st.integers(0, 2**32))
def test_root_packing_is_a_lower_bound(name, mode, seed):
    inst = planted_instance(seed, name, mode)
    pattern, host = inst.pattern, inst.graph
    flippable = pattern.edges if mode == "deletion" else pattern.non_edges
    copies = solver._root_packing(inst, host.vertex_count**2)
    assert_packed(copies, pattern, host.edges, flippable)
    optimum = naive_optimum(inst)
    assert optimum is None or len(copies) <= optimum
    assert len(solver._root_packing(inst, 1)) == min(1, len(copies))

    # The search's packing after one modification: copies through the
    # flipped pair, each needing a further pair of its own.
    free = sorted(inst.free)
    pair = free[seed % len(free)]
    adj = host.adjacency()
    buckets = graphs._buckets(adj)
    _toggle(adj, (pair,), buckets)
    breakers, positions = solver._breakers(inst)
    shapes = [(match_plan(pattern.graph, position), fixed) for position in positions for fixed in (pair, pair[::-1])]
    packed = list(islice(solver._packing(adj, shapes, breakers, buckets), host.vertex_count**2))
    flipped = SandwichInstance(apply(inst, [pair]), pattern, mode, inst.free - {pair})
    assert_packed([image for image, _ in packed], pattern, flipped.graph.edges, flippable)
    for image, pairs in packed:
        assert pair in {edge_key(image[a], image[b]) for a, b in positions}
        assert sorted(pairs) == sorted(edge_key(image[a], image[b]) for a, b in flippable)
    optimum = naive_optimum(flipped)
    assert optimum is None or len(packed) <= optimum


@pytest.mark.parametrize("mode", ["deletion", "completion"])
@given(
    n=st.integers(0, 9),
    density=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    seed=st.integers(0, 2**32),
    moves=st.lists(st.integers(0, 2**16), max_size=24),
)
# The empty host; every vertex of degree 0, then of degree n - 1.
@example(n=0, density=0.5, seed=0, moves=[0, 1])
@example(n=4, density=0.0, seed=0, moves=[1, 2, 4, 5, 7, 8, 0, 0, 0, 0, 0, 0])
@example(n=4, density=1.0, seed=0, moves=[1, 2, 4, 5, 7, 8, 0, 0, 0, 0, 0, 0])
def test_toggles_keep_the_degree_buckets_current(mode, n, density, seed, moves):
    """Toggles and undos through _toggle, in the solver's stack order, keep
    each bucket equal to a fresh bucketing of the adjacency, so a walk of
    the buckets from degree d is the stable sort by degree less the
    vertices below d."""
    rng = random.Random(seed)
    g = Graph(n, [pair for pair in combinations(range(n), 2) if rng.random() < density])
    pool = sorted(g.edges) if mode == "deletion" else g.non_edges()
    adj = g.adjacency()
    buckets = graphs._buckets(adj)
    applied = []
    for move in [None, *moves]:
        if move is not None:
            usable = [pair for pair in pool if pair not in applied]
            if usable and (move % 3 or not applied):
                applied.append(usable[move % len(usable)])
                _toggle(adj, applied[-1:], buckets)
            elif applied:
                _toggle(adj, (applied.pop(),), buckets)
        assert buckets == graphs._buckets(adj)
        order = sorted(range(n), key=lambda v: len(adj[v]))
        for d in range(n + 1):
            walk = list(chain.from_iterable(islice(buckets, d, None)))
            assert walk == [v for v in order if len(adj[v]) >= d]
