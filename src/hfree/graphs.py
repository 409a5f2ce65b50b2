"""Small dense graphs with exact induced-subgraph search.

Vertices are the integers 0..vertex_count-1 and edges are unordered pairs
stored min-first. All algorithms here are exact and meant for desk-scale
inputs: connectivity tests brute-force over removal sets, and the induced
copy search is a plain backtracker with degree and adjacency pruning; its
one symmetry breaking, ordering twin images, serves vertex-set enumeration.

find_embedding is the one induced-copy search: find_induced_copy and
is_h_free, enumerate_induced_copies, the solver and the gadget contracts
all call it, and _toggle is the one way a search flips host pairs. Every
copy it reports is indexed by pattern vertex, entry p being the host
vertex that carries p, so reading one back needs no plan.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max). Rejects loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph.

    edges is a frozenset of (u, v) tuples with u < v; endpoints must lie in
    range. Parallel edges are impossible by construction, self-loops are
    rejected.
    """

    __slots__ = ("vertex_count", "edges", "_adj", "_hash")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        normalized = frozenset(edge_key(u, v) for u, v in edges)
        adj = [set() for _ in range(vertex_count)]
        for u, v in normalized:
            if not (0 <= u and v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            adj[u].add(v)
            adj[v].add(u)
        self.vertex_count = vertex_count
        self.edges = normalized
        self._adj = tuple(frozenset(s) for s in adj)
        self._hash = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def adjacency(self) -> list:
        """Mutable adjacency copy (list of sets), for search loops."""
        return [set(s) for s in self._adj]

    def non_edges(self) -> list:
        """All absent pairs, in lexicographic order."""
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in range(u + 1, self.vertex_count)
            if (u, v) not in self.edges
        ]

    def degree_sequence(self) -> tuple:
        return tuple(sorted(len(s) for s in self._adj))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertex_count, self.edges))
        return self._hash

    def __repr__(self):
        return f"Graph({self.vertex_count}, {sorted(self.edges)})"


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly g's non-edges."""
    return Graph(g.vertex_count, g.non_edges())


def _connected_without(g: Graph, removed) -> bool:
    """BFS connectivity of g minus a vertex set; empty remainder counts as connected."""
    removed = set(removed)
    remaining = [v for v in range(g.vertex_count) if v not in removed]
    if not remaining:
        return True
    seen = {remaining[0]}
    frontier = [remaining[0]]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in removed and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(remaining)


def is_connected(g: Graph) -> bool:
    """Connectivity; the 1-vertex and 0-vertex graphs count as connected."""
    return _connected_without(g, ())


def is_3_connected(g: Graph) -> bool:
    """True iff g has >= 3 vertices and stays connected after removing any
    set of at most 2 vertices (checked by brute force over removal sets)."""
    if g.vertex_count < 3:
        return False
    if not is_connected(g):
        return False
    verts = range(g.vertex_count)
    for v in verts:
        if not _connected_without(g, (v,)):
            return False
    for pair in combinations(verts, 2):
        if not _connected_without(g, pair):
            return False
    return True


class MatchPlan:
    """Precomputed vertex ordering and consistency lists for one pattern.

    The order starts at a maximum-degree vertex (or the given seed vertices)
    and then always prefers vertices with the most already-placed
    neighbors, so connected patterns extend through adjacency (candidates
    come from one placed neighbor).

    levels holds one (vertex, anchor, floor, degree, checks) entry per
    pattern vertex, in plan order. anchor is the first earlier vertex
    adjacent to vertex, whose neighbours are its candidates; floor is the
    earlier vertex its image must exceed; degree is vertex's own; checks
    holds one (earlier vertex, adjacent) test per earlier vertex. All of
    them name pattern vertices, not positions. Only break_twins sets
    floors: the previous twin (same neighbours apart from each other). That
    drops twin permutations only, so K_n and K_n - e embed once per copy.
    """

    __slots__ = ("pattern", "seed", "levels")

    def __init__(self, pattern: Graph, seed=(), break_twins=False):
        n = pattern.vertex_count
        order = list(seed)
        placed = set(seed)
        while len(order) < n:
            best = None
            best_key = None
            for v in range(n):
                if v in placed:
                    continue
                key = (len(pattern.neighbors(v) & placed), pattern.degree(v), -v)
                if best_key is None or key > best_key:
                    best, best_key = v, key
            order.append(best)
            placed.add(best)
        self.levels = []
        for i, v in enumerate(order):
            anchor = floor = None
            checks = []
            for w in order[:i]:
                adjacent = w in pattern.neighbors(v)
                checks.append((w, adjacent))
                if adjacent and anchor is None:
                    anchor = w
                # Twinship is an equivalence, so the latest earlier twin
                # chains each class into one increasing run.
                if break_twins and pattern.neighbors(v) - {w} == pattern.neighbors(w) - {v}:
                    floor = w
            # Test the twin first: in a dense host its pair is the likeliest to fail.
            checks.sort(key=lambda check: check[0] != floor)
            self.levels.append((v, anchor, floor, pattern.degree(v), checks))
        self.pattern = pattern
        self.seed = tuple(seed)


@lru_cache(maxsize=4096)
def match_plan(pattern: Graph, seed: tuple = (), break_twins: bool = False) -> MatchPlan:
    """The cached plan for pattern. Its vertex order starts with the seed
    vertices, so searches that pin those vertices never scan global
    candidates; break_twins orders twin images (see MatchPlan)."""
    return MatchPlan(pattern, seed, break_twins)


def _toggle(adj, pairs) -> None:
    """Flip each pair of a mutable adjacency: an edge goes, a non-edge
    comes. The one way searches modify a host; flipping the same pairs
    again undoes it."""
    for u, v in pairs:
        adj[u] ^= {v}
        adj[v] ^= {u}


def find_embedding(host_adj, plan: MatchPlan, blocked=None, fixed=None, visit=None):
    """Search for induced embeddings of plan.pattern into the host adjacency.

    host_adj is indexable by vertex and yields neighbor sets. Embeddings
    that map any pattern pair, edge or non-edge, onto a host pair in
    blocked are rejected; the packing bound uses this to collect
    element-disjoint copies. fixed is a tuple of host vertices for the
    plan's seed vertices: match_plan(pattern, (a, b)) with fixed=(x, y)
    searches only copies that put a on x and b on y; fixed longer than
    plan.seed is an error. An image lists the host vertex of each pattern
    vertex: image[p] carries p.

    Without visit, returns the first image found, or None. With visit, the
    search calls visit(image) on every embedding the plan admits (all of
    them, unless the plan breaks twins; the list is reused, copy it to keep
    it) and stops at the first call that returns true; it then returns that
    image, and None when no call did.
    """
    n = len(plan.levels)
    host_count = len(host_adj)
    pinned = len(fixed) if fixed else 0
    if pinned > len(plan.seed):
        raise ValueError(f"fixed pins {pinned} positions but the plan is seeded with {len(plan.seed)}")
    if n > host_count:
        return None
    image = [0] * n
    used = [False] * host_count
    blocking = bool(blocked)
    levels = plan.levels

    def extend(i: int):
        if i == n:
            return visit is None or visit(image)
        vertex, anchor, floor, needed, checks = levels[i]
        if i < pinned:
            candidates = (fixed[i],)
        elif anchor is None:
            # Sparse vertices first: pendant-style copies sit on low-degree
            # vertices and turn up long before dense hubs are explored.
            candidates = sorted(range(host_count), key=lambda h: len(host_adj[h]))
        else:
            candidates = host_adj[image[anchor]]
        if floor is not None:
            candidates = [h for h in candidates if h > image[floor]]
        for h in candidates:
            if used[h] or len(host_adj[h]) < needed:
                continue
            ok = True
            for w, adjacent in checks:
                other = image[w]
                if adjacent:
                    if other not in host_adj[h]:
                        ok = False
                        break
                elif other in host_adj[h]:
                    ok = False
                    break
                # edge_key(h, other), inlined on the hottest path
                if blocking and ((h, other) if h < other else (other, h)) in blocked:
                    ok = False
                    break
            if not ok:
                continue
            image[vertex] = h
            used[h] = True
            if extend(i + 1):
                return True
            used[h] = False
        return False

    if extend(0):
        return list(image)
    return None


def find_induced_copy(host: Graph, pattern: Graph):
    """One induced copy of pattern in host, as a tuple whose entry p is the
    host vertex carrying pattern vertex p, or None.

    The copy preserves adjacency and non-adjacency (induced, not just
    subgraph). Empty patterns embed trivially, as ().
    """
    image = find_embedding(host._adj, match_plan(pattern))
    return None if image is None else tuple(image)


def is_h_free(host: Graph, pattern: Graph) -> bool:
    """True iff host contains no induced copy of pattern."""
    return find_induced_copy(host, pattern) is None


def induced_subgraph(g: Graph, verts) -> Graph:
    """Subgraph induced by verts, relabelled 0..len(verts)-1 in sorted order."""
    verts = sorted(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for u, v in combinations(verts, 2)
        if (min(u, v), max(u, v)) in g.edges
    ]
    return Graph(len(verts), edges)


def enumerate_induced_copies(host: Graph, pattern: Graph) -> list:
    """Every vertex set spanning an induced copy of pattern, once each, as
    sorted tuples in lexicographic order.

    The plan breaks twins, so the matcher sees a set once per automorphism
    of the pattern that is not a twin permutation: once for K_n and K_n - e.
    Meant for small hosts; the copy count can be binomial in the host size.
    """
    found = set()

    def visit(image):
        found.add(tuple(sorted(image)))
        return False

    find_embedding(host._adj, match_plan(pattern, break_twins=True), visit=visit)
    return sorted(found)
