import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hfree import graphs
from hfree.graphs import (
    Graph,
    SearchHost,
    _glue,
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


def test_complement_rows_iterate_like_the_constructor():
    """complement fills its neighbour sets by set difference, not pair by
    pair, yet each iterates exactly like the constructor's, and so do the
    mutable copies of both before and after the same toggles."""
    rng = random.Random(3)
    for n, densities in [
        *((n, (0, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 1)) for n in (9, 10, 17, 33, 64, 65, 130, 257)),
        (700, (0.01, 0.5, 0.99)),
    ]:
        for p in densities:
            co = complement(random_graph(rng, n, p))
            built = Graph(n, co.edges)
            assert [list(co.neighbors(v)) for v in range(n)] == [list(built.neighbors(v)) for v in range(n)]
            mutable, reference = co.adjacency(), built.adjacency()
            assert list(map(list, mutable)) == list(map(list, reference))
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(3 * n)]
            SearchHost(mutable).toggle(pairs)
            SearchHost(reference).toggle(pairs)
            assert list(map(list, mutable)) == list(map(list, reference))


def test_complement_derives_its_edge_set_from_its_rows():
    """complement builds rows only. Its edge count comes from the rows,
    and its edge set, built on first read, is g's non-edges."""
    rng = random.Random(11)
    for n in (0, 1, 2, 5, 9, 17, 40):
        for p in (0, 0.3, 0.7, 1):
            g = random_graph(rng, n, p)
            co = complement(g)
            assert co.edge_count == len(g.non_edges())
            assert co._edges is None
            assert co.edges == frozenset(g.non_edges())
            assert co.edge_count == len(co.edges)
            assert co == Graph(n, g.non_edges())


def test_has_edge_reads_the_rows():
    """On a complement, has_edge answers every pair, out-of-range and
    negative ones included, as the edge set of a built copy does, and
    builds no edge set; a loop still raises."""
    rng = random.Random(3)
    for n in (0, 1, 2, 5, 12):
        for p in (0, 0.4, 1):
            g = random_graph(rng, n, p)
            co, built = complement(g), Graph(n, g.non_edges())
            for u, v in itertools.permutations(range(-2, n + 2), 2):
                assert co.has_edge(u, v) == (edge_key(u, v) in built.edges) == built.has_edge(u, v)
            with pytest.raises(ValueError):
                co.has_edge(1, 1)
            assert co._edges is None


ROOF = Graph(3, [(0, 2), (1, 2)])


def test_glue_numbers_fresh_vertices_site_by_site():
    """Each site gets its copies in turn, and a copy its inner guard
    vertices in ascending order; rows build no edge set."""
    guard = Graph(4, [(0, 2), (0, 3), (1, 3), (2, 3)])
    glued = _glue(path_graph(3), guard, (0, 1), [(1, 2), (0, 1)], 2)
    assert glued._edges is None
    assert glued.vertex_count == 3 + 2 * 2 * 2
    assert [sorted(glued.neighbors(v)) for v in range(11)] == [
        [1, 7, 8, 9, 10], [0, 2, 3, 4, 5, 6, 8, 10], [1, 4, 6],
        [1, 4], [1, 2, 3], [1, 6], [1, 2, 5], [0, 8], [0, 1, 7], [0, 10], [0, 1, 9],
    ]
    assert _glue(path_graph(3), ROOF, (1, 0), [(0, 2)], 1) == Graph(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    assert _glue(path_graph(3), ROOF, (0, 1), [(0, 2)], 0) == path_graph(3)


@pytest.mark.parametrize("guard,terminals,site,message", [
    (Graph(3, [(0, 1), (1, 2)]), (0, 1), (0, 1), "adjacent in the guard"),
    (Graph(3, [(0, 1), (1, 2)]), (1, 0), (0, 1), "adjacent in the guard"),
    (ROOF, (0, 0), (0, 1), "not two vertices"),
    (ROOF, (0, 3), (0, 1), "not two vertices"),
    (ROOF, (-1, 1), (0, 1), "not two vertices"),
    (ROOF, (0, 1), (2, 1), r"site \(2, 1\)"),
    (ROOF, (0, 1), (1, 4), r"site \(1, 4\)"),
    (ROOF, (0, 1), (-1, 2), r"site \(-1, 2\)"),
    (ROOF, (0, 1), (2, 2), r"site \(2, 2\)"),
])
def test_glue_refuses_adjacent_terminals_and_bad_sites(guard, terminals, site, message):
    with pytest.raises(ValueError, match=message):
        _glue(cycle_graph(4), guard, terminals, [(0, 2), site], 1)


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
            image = find_embedding(SearchHost(host._adj), plan)
            assert (image is None) == (not swept)
            if image is not None:
                assert _carries(host, pattern, image)
                assert tuple(sorted(image)) in swept
            assert find_embedding(SearchHost(host._adj), plan, visit=visit) is None
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
                    image = find_embedding(SearchHost(host._adj), plan, fixed=(x, y))
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
        image = find_embedding(SearchHost(host._adj), plan, visit=visit)
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
            assert find_embedding(SearchHost(host._adj), plan, visit=visit) is None
            assert sorted(seen) == _swept_copies(host, pattern)
    assert len(enumerate_induced_copies(hosts[0], complete_graph(6))) == 210
    square = cycle_graph(4)
    seen = []
    find_embedding(SearchHost(square._adj), match_plan(square, break_twins=True), visit=seen.append)
    assert len(seen) == 2


def test_fixed_longer_than_the_seed_is_rejected():
    host = cycle_graph(4)
    with pytest.raises(ValueError, match="seeded with 1"):
        find_embedding(SearchHost(host._adj), match_plan(cycle_graph(4), (0,)), fixed=(0, 1))
    assert find_embedding(SearchHost(host._adj), match_plan(cycle_graph(4), (0, 1)), fixed=(2,))[0] == 2


def test_induced_subgraph_relabels_in_sorted_order():
    g = wheel_graph(4)
    sub = induced_subgraph(g, [4, 1, 3])
    # Hub 4 is adjacent to both rim vertices; rim 1 and 3 are opposite.
    assert sub == Graph(3, [(0, 2), (1, 2)])
    # a repeated vertex is one vertex of the subgraph
    assert induced_subgraph(cycle_graph(4), [0, 0, 1]) == Graph(2, [(0, 1)])


def test_induced_subgraph_of_a_complement_reads_its_rows():
    rng = random.Random(5)
    for n in (0, 1, 6, 9, 12):
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        co = complement(g)
        verts = rng.sample(range(n), rng.randint(0, n))
        sub = induced_subgraph(co, verts)
        assert co._edges is None
        verts.sort()
        non_edges = set(g.non_edges())
        pairs = itertools.combinations(range(len(verts)), 2)
        assert sub == Graph(len(verts), [(i, j) for i, j in pairs if (verts[i], verts[j]) in non_edges])
    for verts in ([0, 4], [-1, 2]):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(cycle_graph(4), verts)


def test_find_embedding_rejects_blocked_pairs_of_either_kind():
    # The only square of this host covers 0..3; vertex 4 hangs off it.
    host = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    plan = match_plan(cycle_graph(4))

    def embeds(blocked):
        return find_embedding(SearchHost(host._adj), plan, blocked=blocked) is not None

    assert embeds(set())
    assert embeds({(0, 4)})
    assert not embeds({(0, 1)})  # under a pattern edge
    assert not embeds({(0, 2)})  # under a pattern non-edge


DIGEST_PATTERNS = [
    *(
        named_pattern(name).graph
        for name in ("c4", "c5", "p4", "p5", "k3", "house", "wheel4", "octahedron", "k5e", "co-c4")
    ),
    Graph(0),
    Graph(1),
]


def _churned_adjacency(rng, host):
    """host's mutable adjacency after random batches of pairs were flipped
    through SearchHost.toggle and back, so each set's iteration order
    carries that history rather than only its contents."""
    adj = host.adjacency()
    pairs = list(itertools.combinations(range(host.vertex_count), 2))
    for _ in range(3):
        flips = rng.sample(pairs, rng.randint(0, len(pairs)))
        host = SearchHost(adj)
        host.toggle(flips)
        host.toggle(reversed(flips))
    return adj


def _matcher_record(rng, adj, pattern):
    """Everything the matcher returns or visits on one host and pattern:
    the root call, plain and twin-breaking visit sequences (one cut short),
    and seeded plans pinned by fixed under a non-empty blocked set."""
    host_count = len(adj)
    pairs = list(itertools.combinations(range(host_count), 2))
    host = SearchHost(adj)
    record = [find_embedding(host, match_plan(pattern))]

    def visit(image):
        seen.append(tuple(image))
        return len(seen) == stop

    for break_twins in (False, True):
        plan = match_plan(pattern, break_twins=break_twins)
        for stop, blocked in ((None, None), (3, None), (None, set(rng.sample(pairs, min(2, len(pairs)))))):
            seen = []
            record.append((find_embedding(host, plan, blocked=blocked, visit=visit), seen))
    n = pattern.vertex_count
    for size in (1, 2):
        if n < size or host_count < size:
            continue
        for _ in range(3):
            plan = match_plan(pattern, tuple(rng.sample(range(n), size)))
            blocked = set(rng.sample(pairs, rng.randint(1, 4))) if pairs else {(0, 1)}
            for pinned in range(size + 1):
                fixed = tuple(rng.sample(range(host_count), pinned))
                record.append(find_embedding(host, plan, blocked=blocked, fixed=fixed))
                seen, stop = [], None
                record.append((find_embedding(host, plan, fixed=fixed, visit=visit), seen))
    return record


def test_matcher_outputs_are_pinned():
    # The solver branches on the first copy the matcher finds, so a faster
    # matcher must find the same copies in the same order. Anchored levels
    # walk sorted rows, so the sets' flip history (the hosts carry some)
    # must not move it; the closed-form tests below say which copy comes
    # first.
    rng = random.Random(909)
    digest = hashlib.sha256()
    churned = 0
    for _ in range(20):
        host = random_graph(rng, rng.randint(8, 13), rng.choice((0.3, 0.5, 0.7, 0.85)))
        adj = _churned_adjacency(rng, host)
        churned += sum(list(s) != sorted(s) for s in adj)
        for pattern in DIGEST_PATTERNS:
            digest.update(repr(_matcher_record(rng, adj, pattern)).encode())
    # Long patterns, with more levels than CPython allows statically nested
    # blocks, on a path host with a pendant, a detour and a chord that
    # closes a cycle.
    for length in (24, 29):
        n = length + 3
        edges = [(i, i + 1) for i in range(n - 1)] + [(3, n), (10, n + 1), (12, n + 1), (0, length - 5)]
        host = Graph(n + 2, edges)
        adj = _churned_adjacency(rng, host)
        for pattern in (path_graph(length - 2), cycle_graph(length - 4), path_graph(length + 3)):
            digest.update(repr(_matcher_record(rng, adj, pattern)).encode())
    assert churned > 0
    assert digest.hexdigest() == "eb05931ecccbd82f098326df71a8902813df1ce4be826ee1204bd1d7dd1960bc"


def least_embedding(adj, plan, blocked=None, fixed=None):
    """The first copy in closed form: the least of every embedding the plan
    admits (found through visit) under one key, level by level in plan
    order: a level without an anchor keys its image by (degree, vertex),
    the root's among them, and an anchored level by the vertex alone.
    Pinned levels hold the same image in every embedding. None when there
    is no embedding."""
    found = []
    find_embedding(SearchHost(adj), plan, blocked=blocked, fixed=fixed, visit=lambda image: found.append(list(image)))

    def key(image):
        return [image[p] if anchor is not None else (len(adj[image[p]]), image[p]) for p, anchor, *_ in plan.levels]

    return min(found, key=key, default=None)


def test_first_copy_is_the_least_embedding_on_hosts_with_flip_history():
    """On hosts changed by toggles that keep buckets and sorted rows, as
    the solver's are, every call shape's first copy is the least embedding
    by the closed-form key, whether the call searches that host or a fresh
    one built from its sets."""
    rng = random.Random(32)
    checked = 0
    for _ in range(60):
        n = rng.randint(6, 12)
        host = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        toggled = SearchHost(host.adjacency())
        adj = toggled.adj
        pairs = list(itertools.combinations(range(n), 2))
        flips = rng.sample(pairs, rng.randint(1, len(pairs)))
        toggled.toggle(flips)
        toggled.toggle(flips[: len(flips) // 2])
        assert toggled.rows == [sorted(near) for near in adj]
        for pattern in DIGEST_PATTERNS[:-2]:
            seeded = match_plan(pattern, tuple(rng.sample(range(pattern.vertex_count), 2)))
            cut = set(rng.sample(pairs, rng.randint(1, 4)))
            for plan, blocked, fixed in (
                (match_plan(pattern), None, None),
                (match_plan(pattern), cut, None),
                (match_plan(pattern, break_twins=True), None, None),
                (seeded, cut, tuple(rng.sample(range(n), 2))),
                (seeded, cut, tuple(rng.sample(range(n), 1))),
            ):
                least = least_embedding(adj, plan, blocked, fixed)
                checked += least is not None
                assert find_embedding(SearchHost(adj), plan, blocked=blocked, fixed=fixed) == least
                assert find_embedding(toggled, plan, blocked=blocked, fixed=fixed) == least
    assert checked > 500


def _carried_long_copies(host, pattern):
    """Every vertex subset of pattern's size whose induced subgraph is a
    path (pattern a path) or a cycle (pattern a cycle): connected, with the
    right edge count and every degree at most two. Written from the edge
    sets alone; a permutation sweep is out of reach at these sizes."""
    p, cycle = pattern.vertex_count, pattern.edge_count == pattern.vertex_count
    found = []
    for subset in itertools.combinations(range(host.vertex_count), p):
        inside = set(subset)
        edges = [(u, v) for u, v in host.edges if u in inside and v in inside]
        degrees = [sum(u in edge for edge in edges) for u in subset]
        if len(edges) == pattern.edge_count and max(degrees) <= 2 and (cycle or min(degrees) >= 1):
            if is_connected(induced_subgraph(host, subset)):
                found.append(subset)
    return found


def test_patterns_longer_than_twenty_vertices_agree_with_a_sweep():
    # More levels than CPython allows statically nested blocks: the plan
    # compiles in chained chunks.
    rng = random.Random(21)
    for pattern in (path_graph(21), cycle_graph(22)):
        automorphisms = 2 if pattern.edge_count < pattern.vertex_count else 2 * pattern.vertex_count
        carried = 0
        for _ in range(12):
            # A ring two vertices longer than the pattern, with one short
            # chord and perhaps a cut.
            n = pattern.vertex_count + 2
            ring = rng.sample(range(n), n)
            edges = {edge_key(ring[i - 1], ring[i]) for i in range(n)}
            i = rng.randrange(n)
            edges.add(edge_key(ring[i], ring[(i + rng.randint(2, 3)) % n]))
            edges -= set(rng.sample(sorted(edges), rng.randint(0, 1)))
            host = Graph(n, edges)
            swept = _carried_long_copies(host, pattern)
            visited = []
            plan = match_plan(pattern)
            assert find_embedding(SearchHost(host._adj), plan, visit=lambda image: visited.append(tuple(image))) is None
            assert len(visited) == len(set(visited)) == automorphisms * len(swept)
            assert sorted({tuple(sorted(image)) for image in visited}) == swept
            assert all(_carries(host, pattern, image) for image in visited)
            image = find_induced_copy(host, pattern)
            assert (image is None) == (not swept)
            assert image is None or tuple(image) == visited[0]
            carried += bool(swept)
        assert carried >= 3


def test_a_path_pattern_deeper_than_the_recursion_limit_embeds():
    pattern, host = path_graph(300), path_graph(320)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        image = find_embedding(SearchHost(host._adj), match_plan(pattern))
        seen = []
        find_embedding(SearchHost(host._adj), match_plan(pattern), visit=seen.append)
    finally:
        sys.setrecursionlimit(limit)
    assert image is not None and _carries(host, pattern, image)
    assert len(seen) == 2 * 21


@st.composite
def _differential_cases(draw):
    """A host of up to 8 vertices and a pattern of up to 6 (any graph, a
    connected one, one with a twin, or a cycle with chords planted next to
    a hub), a plan seed, fixed, blocked, twin breaking, and whether and
    when visit stops the search."""

    def graph(n):
        pairs = list(itertools.combinations(range(n), 2))
        return draw(st.sets(st.sampled_from(pairs))) if pairs else set()

    kind = draw(st.sampled_from(("any", "connected", "twin", "hub")))
    if kind == "hub":
        # The pattern sits induced on the first n host vertices; one later
        # vertex is adjacent to all but at most two others. The level
        # before the last then meets many candidates that leave the last
        # level no image, which the lookahead of _compile_search prunes.
        n = draw(st.integers(4, 6))
        edges = graph(n) | {edge_key(i, (i + 1) % n) for i in range(n)}
        host_count = draw(st.integers(n + 1, 8))
        hub = draw(st.integers(n, host_count - 1))
        missing = set(draw(st.lists(st.integers(0, host_count - 1), max_size=2)))
        host_edges = edges | {(u, v) for u, v in graph(host_count) if v >= n}
        host_edges |= {edge_key(hub, v) for v in range(host_count) if v != hub and v not in missing}
        host = Graph(host_count, host_edges)
    else:
        host_count = draw(st.integers(0, 8))
        host = Graph(host_count, graph(host_count))
        n = draw(st.integers(1, 5 if kind == "twin" else 6))
        edges = graph(n)
    if kind == "connected":
        edges |= {(i, i + 1) for i in range(n - 1)}
    elif kind == "twin":
        t = draw(st.integers(0, n - 1))
        edges |= {edge_key(u, n) for u in range(n) if u != t and edge_key(u, t) in edges}
        if draw(st.booleans()):
            edges.add((t, n))
        n += 1
    pattern = Graph(n, edges)
    seed = tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, min(2, n)))])
    fixed = ()
    if host.vertex_count:
        fixed = tuple(draw(st.lists(st.integers(0, host.vertex_count - 1), max_size=len(seed))))
    host_pairs = list(itertools.combinations(range(host.vertex_count), 2))
    blocked = set(draw(st.lists(st.sampled_from(host_pairs), max_size=3))) if host_pairs else set()
    break_twins = not fixed and draw(st.booleans())
    stop = draw(st.sampled_from((None, None, 0, 1, 2, 5)))
    return host, pattern, seed, fixed, blocked, break_twins, stop


# (_SPELLED, _CHUNK_LOOPS): the stock code, then every level tested against
# the set of earlier images, in chunks of one and two loops.
@pytest.mark.parametrize("spelled,chunk", [(8, 16), (0, 1), (0, 2)])
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_differential_cases())
def test_matcher_agrees_with_the_sweep_on_random_cases(monkeypatch, spelled, chunk, case):
    monkeypatch.setattr(graphs, "_SPELLED", spelled)
    monkeypatch.setattr(graphs, "_CHUNK_LOOPS", chunk)
    host, pattern, seed, fixed, blocked, break_twins, stop = case
    expected = {
        images
        for subset in _swept_copies(host, pattern)
        for images in itertools.permutations(subset)
        if _carries(host, pattern, images)
        and all(images[a] == x for a, x in zip(seed, fixed))
        and not any(edge_key(x, y) in blocked for x, y in itertools.combinations(images, 2))
    }
    # A fresh plan, compiled under the constants above.
    plan = graphs.MatchPlan(pattern, seed, break_twins)
    image = find_embedding(SearchHost(host._adj), plan, blocked=blocked, fixed=fixed)
    assert (image is None) == (not expected)
    assert image is None or tuple(image) in expected
    seen = []

    def visit(image):
        seen.append(tuple(image))
        return len(seen) == stop

    returned = find_embedding(SearchHost(host._adj), plan, blocked=blocked, fixed=fixed, visit=visit)
    assert len(seen) == len(set(seen)) and set(seen) <= expected
    if stop and len(seen) == stop:
        assert returned == list(seen[-1])
        return
    assert returned is None
    if break_twins:
        # One embedding per copy and twin class arrangement: floors hold.
        assert {tuple(sorted(s)) for s in seen} == {tuple(sorted(s)) for s in expected}
        assert all(s[vertex] > s[floor] for s in seen for vertex, _, floor, _, _ in plan.levels if floor is not None)
    else:
        assert set(seen) == expected


def _empty_roots(host, pattern, first):
    """The host vertices that carry pattern vertex first in no copy, by the
    sweep."""
    rooted = {
        images[first]
        for subset in _swept_copies(host, pattern)
        for images in itertools.permutations(subset)
        if _carries(host, pattern, images)
    }
    return [v for v in range(host.vertex_count) if v not in rooted]


def _bucketed_host(adj, out):
    """A search host on adj whose buckets leave out the vertices of out
    but whose marks stay empty, so the buckets are checked alone."""
    host = SearchHost(adj)
    host.buckets = [[v for v in row if v not in out] for row in host.buckets]
    return host


def _later_levels_anchored(plan):
    """Whether every level after the first has an anchor: only such a plan
    may be given buckets that leave out dead roots."""
    return all(anchor is not None for _, anchor, _, _, _ in plan.levels[1:])


@pytest.mark.parametrize("spelled,chunk", [(8, 16), (0, 1), (0, 2)])
def test_marked_roots_agree_with_the_sweep_on_random_cases(monkeypatch, spelled, chunk):
    """With any set of the roots that carry no copy left out of the buckets
    (or none), the plain call returns the image it returns on the full
    buckets, and walked of the image's root lists exactly the unmarked
    roots of large enough degree that come before it in the (degree,
    vertex) order: roots that carry no copy. Marks are drawn only for plans
    with an anchor on every later level, and at least a third of the cases
    leave some out."""
    monkeypatch.setattr(graphs, "_SPELLED", spelled)
    monkeypatch.setattr(graphs, "_CHUNK_LOOPS", chunk)
    runs = {"cases": 0, "marked": 0}

    @settings(max_examples=150)
    @given(case=_differential_cases(), data=st.data())
    def check(case, data):
        host, pattern, seed, _, _, _, _ = case
        plan = graphs.MatchPlan(pattern, seed)
        first = plan.levels[0][0]
        empty = _empty_roots(host, pattern, first)
        marked = set()
        if empty and _later_levels_anchored(plan):
            marked = data.draw(st.sets(st.sampled_from(empty), min_size=1))
        live = _bucketed_host(host._adj, marked) if marked or data.draw(st.booleans()) else SearchHost(host._adj)
        kept = [list(row) for row in live.buckets]
        image = find_embedding(live, plan)
        assert image == find_embedding(SearchHost(host._adj), plan)
        assert live.buckets == kept
        if image is not None:
            walked = live.walked(plan, image[first])
            assert set(walked) <= set(empty)
            order = sorted(range(host.vertex_count), key=host.degree)
            scanned = order[: order.index(image[first])]
            assert walked == [v for v in scanned if v not in marked and host.degree(v) >= pattern.degree(first)]
        runs["cases"] += 1
        runs["marked"] += bool(marked)

    check()
    assert 3 * runs["marked"] >= runs["cases"] >= 150


def _assert_buckets_change_nothing(host, plan, fixed, blocked, marked):
    """Every call shape returns and visits the same on a host whose
    buckets every pair's toggle and undo moved as on a fresh host: the
    plain call, blocked and fixed, and a visit of every embedding. Given
    the buckets less marked roots that carry no copy (only a plan with an
    anchor on every later level may be), alone or with the marks set by
    leave_out, the plain call returns the same image, and walked of its
    root lists the roots it lists on the full buckets less the marked
    ones."""
    adj = host._adj

    def record(searched):
        seen = []
        return [
            find_embedding(searched, plan),
            find_embedding(searched, plan, blocked=blocked, fixed=fixed),
            (find_embedding(searched, plan, fixed=fixed, visit=lambda image: seen.append(tuple(image))), seen),
        ]

    expected = record(SearchHost(adj))
    toggled = SearchHost(host.adjacency())
    flips = list(itertools.combinations(range(host.vertex_count), 2))
    toggled.toggle(flips)
    toggled.toggle(reversed(flips))
    assert record(toggled) == expected
    if marked:
        assert _later_levels_anchored(plan)
        left_out = SearchHost(adj)
        left_out.leave_out(marked)
        for live in (_bucketed_host(adj, marked), left_out):
            image = find_embedding(live, plan)
            assert image == expected[0]
            if image is not None:
                root = image[plan.levels[0][0]]
                walked = SearchHost(adj).walked(plan, root)
                assert live.walked(plan, root) == [v for v in walked if v not in marked]


@pytest.mark.parametrize("spelled,chunk", [(8, 16), (0, 1), (0, 2)])
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_differential_cases(), data=st.data())
def test_buckets_change_no_answer_on_random_cases(monkeypatch, spelled, chunk, case, data):
    monkeypatch.setattr(graphs, "_SPELLED", spelled)
    monkeypatch.setattr(graphs, "_CHUNK_LOOPS", chunk)
    host, pattern, seed, fixed, blocked, break_twins, _ = case
    plan = graphs.MatchPlan(pattern, seed, break_twins)
    empty = _empty_roots(host, pattern, plan.levels[0][0]) if _later_levels_anchored(plan) else []
    marked = data.draw(st.sets(st.sampled_from(empty))) if empty else set()
    _assert_buckets_change_nothing(host, plan, fixed, blocked, marked)


@pytest.mark.parametrize(
    "pattern,seed",
    [
        # Later levels with no anchor walk the buckets too.
        (named_pattern("co-c4").graph, ()),
        (Graph(4, [(0, 1)]), ()),
        # The first pattern vertex has degree 0: the walk starts at bucket 0.
        (Graph(1), ()),
        (Graph(3), ()),
        (Graph(3, [(1, 2)]), (0,)),
        (cycle_graph(4), ()),
        (path_graph(4), (1,)),
    ],
)
def test_buckets_change_no_answer_on_named_cases(pattern, seed):
    rng = random.Random(11)
    two_squares = Graph(8, [(u + i, v + i) for i in (0, 4) for u, v in cycle_graph(4).edges])
    # Hosts with isolated and universal vertices, and the empty host.
    hub = Graph(7, [(0, v) for v in range(1, 7)] + [(1, 2), (3, 4), (4, 5)])
    plan = graphs.MatchPlan(pattern, seed)
    for host in (Graph(0), Graph(1), Graph(3), two_squares, complement(two_squares), hub, complement(hub),
                 *(random_graph(rng, 8, p) for p in (0.2, 0.5, 0.8))):
        pairs = list(itertools.combinations(range(host.vertex_count), 2))
        blocked = set(rng.sample(pairs, min(2, len(pairs))))
        fixed = tuple(rng.sample(range(host.vertex_count), min(len(seed), host.vertex_count)))
        marked = set(_empty_roots(host, pattern, plan.levels[0][0])) if _later_levels_anchored(plan) else set()
        _assert_buckets_change_nothing(host, plan, fixed, blocked, marked)


def test_matcher_options_are_keyword_only():
    square = cycle_graph(4)
    with pytest.raises(TypeError):
        find_embedding(SearchHost(square._adj), match_plan(square), {(0, 1)})


def test_walked_lists_the_roots_before_the_root_in_walk_order():
    # Degrees: 0 and 6 have 0, 5 has 1, 1 and 3 have 2, 2 has 3, 4 has 4.
    host = Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4), (4, 5)])
    searched = SearchHost(host._adj)
    edge, square, point = match_plan(Graph(2, [(0, 1)])), match_plan(cycle_graph(4)), match_plan(Graph(1))
    # The first vertex of a square needs degree 2: its first walked bucket
    # is [1, 3], and 1 starts it.
    assert square.levels[0][3] == 2
    assert searched.walked(square, 1) == []
    assert searched.walked(square, 3) == [1]
    assert searched.walked(square, 4) == [1, 3, 2]
    assert searched.walked(edge, 3) == [5, 1]
    # A first vertex of degree 0 starts the walk at bucket 0.
    assert point.levels[0][3] == 0
    assert searched.walked(point, 0) == []
    assert searched.walked(point, 6) == [0]
    assert searched.walked(point, 2) == [0, 6, 5, 1, 3]
    # Marks left out of the buckets are left out of the walk.
    searched.leave_out({3, 6})
    assert searched.walked(point, 2) == [0, 5, 1]


@pytest.mark.parametrize(
    "pattern,reach",
    [
        (cycle_graph(4), 2),
        (house_graph(), 2),
        (path_graph(5), 3),
        (complete_graph(4), 1),
        (Graph(1), 0),
        (Graph(0), None),
        (named_pattern("co-c4").graph, None),
    ],
)
def test_plan_reach_is_the_first_vertex_eccentricity(pattern, reach):
    assert match_plan(pattern).reach == reach


def _permutation_orbits(pattern):
    """For each vertex, the vertices some automorphism sends it to, by
    trying every permutation: one that keeps every edge is an
    automorphism."""
    edges = pattern.edges
    automorphisms = [
        perm
        for perm in itertools.permutations(range(pattern.vertex_count))
        if all(edge_key(perm[u], perm[v]) in edges for u, v in edges)
    ]
    return [{perm[v] for perm in automorphisms} for v in range(pattern.vertex_count)]


def _assert_orbits_are_permutation_orbits(pattern):
    """The orbit of every plan's first vertex, unseeded and seeded at each
    vertex, is the permutation orbit."""
    orbits = _permutation_orbits(pattern)
    for seed in ((), *((v,) for v in range(pattern.vertex_count))):
        plan = graphs.MatchPlan(pattern, seed)
        assert graphs._orbit(plan) == orbits[plan.levels[0][0]]


STOCK_NAMES = (
    "c3", "c4", "c5", "c6", "p1", "p2", "p3", "p4", "p5", "p6",
    "k1", "k2", "k3", "k4", "k5", "k4e", "k5e", "house", "wheel4", "octahedron",
)


@pytest.mark.parametrize("name", [*STOCK_NAMES, *(f"co-{name}" for name in STOCK_NAMES)])
def test_plan_orbits_are_permutation_orbits_on_named_patterns(name):
    _assert_orbits_are_permutation_orbits(named_pattern(name).graph)


@pytest.mark.parametrize(
    "pattern",
    [
        # Colour refinement cannot split a regular graph, so every vertex
        # is a candidate: the search must refuse the other component's
        # (a triangle beside a square), and the same in the complement.
        Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
        complement(Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])),
        # A path of odd order: its middle vertex is an orbit of its own.
        path_graph(7),
    ],
)
def test_plan_orbits_are_permutation_orbits_on_hard_cases(pattern):
    _assert_orbits_are_permutation_orbits(pattern)


@settings(max_examples=120)
@given(n=st.integers(1, 7), data=st.data())
def test_plan_orbits_are_permutation_orbits_on_random_graphs(n, data):
    # Half the graphs are closed under a drawn permutation, so they have a
    # non-trivial automorphism more often than a random graph does.
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if data.draw(st.booleans()):
        perm = data.draw(st.permutations(range(n)))
        moved = {edge_key(perm[u], perm[v]) for u, v in edges}
        while not moved <= edges:
            edges |= moved
            moved = {edge_key(perm[u], perm[v]) for u, v in edges}
    _assert_orbits_are_permutation_orbits(Graph(n, edges))


@pytest.mark.parametrize(
    "name,size",
    [("c4", 4), ("c5", 5), ("house", 2), ("p5", 2), ("k5e", 3), ("wheel4", 1), ("octahedron", 6)],
)
def test_plan_orbit_sizes_are_pinned(name, size):
    assert len(graphs._orbit(match_plan(named_pattern(name).graph))) == size


def _names_of(search):
    """The local and closure names of a compiled search."""
    return set(search.__code__.co_varnames) | set(search.__code__.co_cellvars)


def test_only_root_walking_shapes_of_orbit_plans_prune():
    # The square's root has an orbit of four and the wheel's hub one of
    # one: only the square's plain and blocked root walks keep a set of
    # exhausted roots. Pinned, visiting and twin-floored shapes keep none.
    square, wheel = match_plan(cycle_graph(4)), match_plan(wheel_graph(4))
    assert "D" in _names_of(graphs._compile_search(square, 0, False, False))
    assert "D" in _names_of(graphs._compile_search(square, 0, True, False))
    assert "D" not in _names_of(graphs._compile_search(square, 0, False, True))
    assert "D" not in _names_of(graphs._compile_search(match_plan(cycle_graph(4), (0,)), 1, False, False))
    assert "D" not in _names_of(graphs._compile_search(wheel, 0, False, False))
    floored = match_plan(complete_graph(3), break_twins=True)
    assert graphs._orbit(floored) == {0, 1, 2}
    assert "D" not in _names_of(graphs._compile_search(floored, 0, False, False))


def test_twin_floors_never_prune():
    # K2 with break_twins: the floor asks the second image to exceed the
    # first. Roots 1 and 2 are exhausted under the floor, and root 0's only
    # images for the second vertex are 1 and 2; pruning by the exhausted
    # roots would return None, though the host holds a copy.
    host = Graph(3, [(0, 1), (0, 2)])
    plan = match_plan(complete_graph(2), break_twins=True)
    assert find_embedding(SearchHost(host._adj), plan) == [0, 1]
    assert find_embedding(SearchHost(host._adj), plan, blocked={(1, 2)}) == [0, 1]
    assert enumerate_induced_copies(host, complete_graph(2)) == [(0, 1), (0, 2)]


def test_visits_never_prune():
    # A visit that accepts nothing exhausts every root though every root
    # carries copies: it must still see all 8 embeddings of the square in
    # the square, and the 8 in a square with a pendant, given the pendant
    # as a marked dead root.
    seen = []

    def visit(image):
        seen.append(tuple(image))

    for host, marked in ((cycle_graph(4), ()), (Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]), {4})):
        seen.clear()
        searched = SearchHost(host._adj)
        searched.marked.update(marked)
        assert find_embedding(searched, match_plan(cycle_graph(4)), visit=visit) is None
        assert len(seen) == len(set(seen)) == 8


@pytest.mark.parametrize("spelled,chunk", [(8, 16), (0, 1), (0, 2)])
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_differential_cases(), data=st.data())
def test_marked_dead_roots_change_no_answer(monkeypatch, spelled, chunk, case, data):
    """Marking any vertices that root no copy (by the sweep), with the
    buckets left whole so the marks are checked alone, changes no answer
    of any call shape; only the root walks of plans without twin floors
    read the marks. Each copy is the first embedding a visit meets, since
    visiting shapes prune nothing."""
    monkeypatch.setattr(graphs, "_SPELLED", spelled)
    monkeypatch.setattr(graphs, "_CHUNK_LOOPS", chunk)
    host, pattern, seed, fixed, blocked, break_twins, stop = case
    plan = graphs.MatchPlan(pattern, seed, break_twins)
    empty = _empty_roots(host, pattern, plan.levels[0][0])
    marked = data.draw(st.sets(st.sampled_from(empty))) if empty else set()
    plain, marking = SearchHost(host._adj), SearchHost(host._adj)
    marking.marked.update(marked)
    for shape in ({}, {"blocked": blocked}, {"fixed": fixed, "blocked": blocked}):
        first = find_embedding(plain, plan, visit=lambda image: True, **shape)
        assert find_embedding(plain, plan, **shape) == first
        assert find_embedding(marking, plan, **shape) == first
    seen, marked_seen = [], []
    find_embedding(plain, plan, fixed=fixed, visit=lambda image: seen.append(tuple(image)))
    find_embedding(marking, plan, fixed=fixed, visit=lambda image: marked_seen.append(tuple(image)))
    assert marked_seen == seen
