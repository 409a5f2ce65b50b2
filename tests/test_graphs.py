import itertools
import random

import pytest

from hfree.graphs import (
    Graph,
    complement,
    edge_key,
    enumerate_induced_copies,
    find_embedding,
    find_induced_copy,
    induced_subgraph,
    is_3_connected,
    is_connected,
    is_h_free,
    match_plan,
)
from hfree.patterns import (
    complete_graph,
    complete_minus_edge,
    cycle_graph,
    house_graph,
    named_pattern,
    octahedron_graph,
    path_graph,
    wheel_graph,
)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_edge_key_normalizes_and_rejects_loops():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge_key(2, 2)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.edge_count == 3
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 3)
    assert g.neighbors(1) == {0, 2}
    assert g.degree_sequence() == (1, 1, 2, 2)
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3)]
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_complement_of_path_is_house():
    house = complement(path_graph(5))
    assert house == house_graph()
    assert house.degree_sequence() == (2, 2, 2, 3, 3)
    assert house.edge_count == 6


def test_complement_is_involutive():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(0, 8))
        assert complement(complement(g)) == g


def test_c5_is_self_complementary():
    c5 = cycle_graph(5)
    co = complement(c5)
    assert co != c5
    assert find_induced_copy(co, c5) is not None
    assert find_induced_copy(c5, co) is not None


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(3), True),
        (complete_graph(4), True),
        (complete_minus_edge(5), True),
        (wheel_graph(4), True),
        (octahedron_graph(), True),
        (cycle_graph(4), False),
        (cycle_graph(5), False),
        (path_graph(5), False),
        (house_graph(), False),
        (complete_graph(2), False),
        (Graph(1), False),
    ],
)
def test_three_connectivity(graph, expected):
    assert is_3_connected(graph) is expected


def test_connectivity_edge_cases():
    assert is_connected(Graph(0))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(2, [(0, 1)]))


def test_find_induced_copy_returns_checked_witness():
    host = wheel_graph(4)
    pattern = cycle_graph(4)
    witness = find_induced_copy(host, pattern)
    assert witness is not None
    assert _carries(host, pattern, witness)
    assert sorted(witness) == [0, 1, 2, 3]


def test_induced_means_induced():
    # The diamond contains C4 as a subgraph, but the chord kills inducedness.
    assert is_h_free(complete_graph(4), cycle_graph(4))
    assert is_h_free(complete_minus_edge(4), cycle_graph(4))
    assert not is_h_free(wheel_graph(4), cycle_graph(4))


def test_house_has_no_induced_path5():
    assert is_h_free(house_graph(), path_graph(5))


def test_enumerate_counts():
    k5_in_k6 = list(enumerate_induced_copies(complete_graph(6), complete_graph(5)))
    assert len(k5_in_k6) == 6
    assert all(len(s) == 5 for s in k5_in_k6)

    assert list(enumerate_induced_copies(cycle_graph(4), cycle_graph(4))) == [(0, 1, 2, 3)]
    assert list(enumerate_induced_copies(complete_graph(6), complete_minus_edge(5))) == []

    # Complete bipartite 2 x 3: one induced C4 per pair from the larger side.
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    assert len(list(enumerate_induced_copies(k23, cycle_graph(4)))) == 3


def test_enumerate_agrees_with_search_on_random_graphs():
    rng = random.Random(2026)
    patterns = [cycle_graph(4), path_graph(4), complete_graph(3), cycle_graph(5)]
    for _ in range(40):
        host = random_graph(rng, rng.randint(1, 8))
        for pattern in patterns:
            copies = list(enumerate_induced_copies(host, pattern))
            witness = find_induced_copy(host, pattern)
            assert (witness is None) == (len(copies) == 0)
            if witness is not None:
                assert _carries(host, pattern, witness)
                assert tuple(sorted(witness)) in copies


def _carries(host, pattern, images):
    """True when pattern vertex p -> images[p] preserves every edge and every
    non-edge. Written from the edge sets alone, sharing nothing with the
    matcher."""
    return all(
        ((p, q) in pattern.edges) == ((min(x, y), max(x, y)) in host.edges)
        for (p, x), (q, y) in itertools.combinations(enumerate(images), 2)
    )


def _swept_copies(host, pattern):
    """Every vertex subset of pattern's size that some bijection from the
    pattern's vertices onto it carries, in lexicographic order."""
    return [
        subset
        for subset in itertools.combinations(range(host.vertex_count), pattern.vertex_count)
        if sum((u, v) in host.edges for u, v in itertools.combinations(subset, 2)) == pattern.edge_count
        and any(_carries(host, pattern, images) for images in itertools.permutations(subset))
    ]


SWEEP_PATTERNS = [
    *(named_pattern(name).graph for name in ("c4", "p4", "k3", "c5", "house", "k5e", "co-c4")),
    Graph(0),
    Graph(1),
    path_graph(9),
]


def test_matcher_agrees_with_an_independent_sweep():
    rng = random.Random(6)
    for _ in range(300):
        density = rng.random()
        host = random_graph(rng, rng.randint(0, 8), density)
        for pattern in SWEEP_PATTERNS:
            swept = _swept_copies(host, pattern)
            assert list(enumerate_induced_copies(host, pattern)) == swept
            witness = find_induced_copy(host, pattern)
            assert (witness is None) == (not swept)
            if witness is not None:
                assert _carries(host, pattern, witness)
                assert tuple(sorted(witness)) in swept
            visited = []

            def visit(image):
                assert _carries(host, pattern, image)
                visited.append(tuple(sorted(image)))
                return False

            plan = match_plan(pattern)
            image = find_embedding(host._adj, plan)
            assert (image is None) == (not swept)
            if image is not None:
                assert _carries(host, pattern, image)
                assert tuple(sorted(image)) in swept
            assert find_embedding(host._adj, plan, visit=visit) is None
            assert sorted(set(visited)) == swept


def test_anchored_search_pins_the_seed_positions():
    rng = random.Random(11)
    for _ in range(40):
        host = random_graph(rng, rng.randint(2, 7))
        for name in ("c4", "house", "p4"):
            pattern = named_pattern(name).graph
            embeddings = [
                images
                for images in itertools.permutations(range(host.vertex_count), pattern.vertex_count)
                if _carries(host, pattern, images)
            ]
            for a, b in itertools.permutations(range(pattern.vertex_count), 2):
                plan = match_plan(pattern, (a, b))
                carried = {(images[a], images[b]) for images in embeddings}
                for x, y in itertools.permutations(range(host.vertex_count), 2):
                    image = find_embedding(host._adj, plan, fixed=(x, y))
                    assert (image is not None) == ((x, y) in carried)
                    if image is not None:
                        assert (image[a], image[b]) == (x, y)
                        assert _carries(host, pattern, image)


def test_visit_sees_every_embedding_and_stops_on_true():
    # The square has 8 embeddings into itself, one per automorphism.
    host = cycle_graph(4)
    plan = match_plan(cycle_graph(4))
    seen = []

    def visit(image):
        seen.append(list(image))
        return len(seen) == want

    for want, returned in ((0, None), (3, 3)):
        seen.clear()
        image = find_embedding(host._adj, plan, visit=visit)
        assert len(seen) == (8 if returned is None else returned)
        assert image == (None if returned is None else seen[-1])
    assert len({tuple(image) for image in seen}) == 3


def test_twin_breaking_meets_each_clique_copy_once():
    # Every automorphism of K_n and K_n - e permutes twins, so a plan that
    # breaks twins meets each copy once: 210 visits for K6 in K10, where the
    # plain plan makes 720 per copy. The square keeps its two rotations.
    rng = random.Random(10)
    hosts = [complete_graph(10), random_graph(rng, 10, 0.85), random_graph(rng, 11, 0.9)]
    for host in hosts:
        for pattern in (complete_graph(6), complete_minus_edge(6), complete_minus_edge(7)):
            seen = []

            def visit(image):
                seen.append(tuple(sorted(image)))

            plan = match_plan(pattern, break_twins=True)
            assert find_embedding(host._adj, plan, visit=visit) is None
            assert sorted(seen) == _swept_copies(host, pattern)
    assert len(enumerate_induced_copies(hosts[0], complete_graph(6))) == 210
    square = cycle_graph(4)
    seen = []
    find_embedding(square._adj, match_plan(square, break_twins=True), visit=seen.append)
    assert len(seen) == 2


def test_fixed_longer_than_the_seed_is_rejected():
    host = cycle_graph(4)
    with pytest.raises(ValueError, match="seeded with 1"):
        find_embedding(host._adj, match_plan(cycle_graph(4), (0,)), fixed=(0, 1))
    assert find_embedding(host._adj, match_plan(cycle_graph(4), (0, 1)), fixed=(2,))[0] == 2


def test_induced_subgraph_relabels_in_sorted_order():
    g = wheel_graph(4)
    sub = induced_subgraph(g, [4, 1, 3])
    # Hub 4 is adjacent to both rim vertices; rim 1 and 3 are opposite.
    assert sub == Graph(3, [(0, 2), (1, 2)])


def test_find_embedding_rejects_blocked_pairs_of_either_kind():
    # The only square of this host covers 0..3; vertex 4 hangs off it.
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    plan = match_plan(cycle_graph(4))

    def embeds(blocked):
        return find_embedding(host._adj, plan, blocked=blocked) is not None

    assert embeds(set())
    assert embeds({(0, 4)})
    assert not embeds({(0, 1)})  # under a pattern edge
    assert not embeds({(0, 2)})  # under a pattern non-edge
