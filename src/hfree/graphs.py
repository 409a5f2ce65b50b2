"""Small dense graphs with exact induced-subgraph search.

Vertices are the integers 0..vertex_count-1 and edges are unordered pairs
stored min-first. All algorithms here are exact and meant for desk-scale
inputs: connectivity tests brute-force over removal sets, and the induced
copy search is a backtracker with degree and adjacency pruning, compiled
per pattern plan into nested Python loops, that looks ahead from the level
before the last to the last one's candidates; its one symmetry breaking,
ordering twin images, serves vertex-set enumeration, and the pattern's
automorphisms prune its root walks (below).

find_embedding is the one induced-copy search: find_induced_copy and
is_h_free, enumerate_induced_copies, the solver, the gadget contracts
and gadgets.has_c4_subgraph (three is_h_free calls) all call it, each on
a SearchHost: the host's neighbour sets with the degree buckets, sorted
rows and dead-root marks the compiled search walks beside them, kept in
step by the one rule SearchHost states. Every copy it reports is
indexed by pattern vertex, entry p being the host vertex that carries p,
so reading one back needs no plan.

A level with no placed neighbour to draw candidates from (the root, and
later levels of patterns that are not connected) tries host vertices by
degree, ties broken by vertex: it walks the degree buckets from the
level's own degree up, which is the stable sort by degree less the
vertices the level's degree test would reject. An anchored level tries
its anchor image's neighbours in ascending order, walking the anchor
image's sorted row; the sets answer the membership tests. So the
matcher's order has a closed form: a call's first copy is the least
embedding under one key, level by level in plan order, where a level
without an anchor, the root among them, keys its image by (degree,
vertex), and an anchored level by the vertex. That depends on the
host's edges alone, not on the order in which its sets iterate or on
the toggles that made them.

The root walk also prunes through the pattern's symmetry: if no copy
puts the first pattern vertex p0 on x, no copy puts any vertex q of p0's
orbit under the pattern's automorphisms on x either (compose the copy
with an automorphism sending p0 to q). So the root walks of plans
without twin floors, neither pinned nor visiting, reject at each later
level in that orbit the roots the walk has exhausted so far and the
host's marked vertices. The cut branches hold no copy, so every copy and
its order stay those of the full search. A plan whose first vertex is
alone in its orbit compiles as before.

A graph's state is its rows, one frozenset of neighbours per vertex,
and its edge set is derived from them on demand. Two operations build
rows only, through _of_rows, and make graphs that are valid by
construction: complement, and _glue, which hangs copies of a guard graph
on sites of a host. A graph they make that is only checked and rendered
never builds its set of pair tuples.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import lru_cache
from itertools import chain, combinations, islice


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max). Rejects loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph.

    Its state is its rows, _adj: one neighbour set per vertex. edges is the
    frozenset of (u, v) tuples with u < v; the constructor keeps the set it
    builds anyway, and a graph built from rows alone (complement) derives it
    on first read. Endpoints must lie in range. Parallel edges are
    impossible by construction, self-loops are rejected.
    """

    __slots__ = ("vertex_count", "_edges", "_adj", "_hash")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        pairs = set()
        rows = [[] for _ in range(vertex_count)]
        for pair in edges:
            u, v = pair
            # Only a pair that is not already a valid key is normalized.
            if type(pair) is not tuple or not 0 <= u < v < vertex_count:
                pair = u, v = edge_key(u, v)
                if not (0 <= u and v < vertex_count):
                    raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if pair not in pairs:
                pairs.add(pair)
                rows[u].append(v)
                rows[v].append(u)
        for row in rows:
            row.sort()
        self.vertex_count = vertex_count
        self._edges = frozenset(pairs)
        self._adj = tuple(map(frozenset, rows))
        self._hash = None

    @property
    def edges(self) -> frozenset:
        """The (u, v) pairs with u < v, built from the rows on first read."""
        if self._edges is None:
            self._edges = frozenset((u, v) for u, near in enumerate(self._adj) for v in near if u < v)
        return self._edges

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        u, v = edge_key(u, v)
        return 0 <= u and v < self.vertex_count and v in self._adj[u]

    def adjacency(self) -> list:
        """Mutable adjacency copy (list of sets), for search loops. Its sets
        iterate like the graph's, so equal graphs iterate alike whichever
        route built them."""
        return [set(s) for s in self._adj]

    def non_edges(self) -> list:
        """All absent pairs, in lexicographic order."""
        n = self.vertex_count
        return [(u, v) for u, near in enumerate(self._adj) for v in range(u + 1, n) if v not in near]

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


def _of_rows(vertex_count: int, rows: tuple) -> Graph:
    """The graph whose state is rows, one frozenset per vertex, taken as
    they are. Only operations whose rows are valid by construction (no
    loops, every pair in both rows, in range) call it."""
    graph = object.__new__(Graph)
    graph.vertex_count = vertex_count
    graph._edges = None
    graph._adj = rows
    graph._hash = None
    return graph


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly g's non-edges.

    Each neighbour set is one set difference, everyone less the union of
    g's neighbours and the vertex itself. In that one-argument form it
    iterates exactly like the constructor's sorted row (a two-argument
    difference does not), so equal graphs iterate alike whichever route
    built them, and the complement skips the constructor's per-pair fill,
    which costs far more on a dense complement. It builds rows only: the
    edge set is derived from them when something reads it.
    """
    everyone = frozenset(range(g.vertex_count))
    return _of_rows(g.vertex_count, tuple(everyone.difference(near | {v}) for v, near in enumerate(g._adj)))


def _glue(host: Graph, guard: Graph, terminals, sites, copies: int) -> Graph:
    """host plus copies copies of guard per site, each glued by its
    terminals (s, t) onto the site (u, v), s onto u and t onto v, with
    every other guard vertex fresh.

    Fresh vertices are numbered after the host's: site by site in the
    given order, copy by copy, and a copy's inner guard vertices in
    ascending order, as planting the guard copy by copy numbers them. Rows
    are filled directly: the host's sorted rows, then each terminal row
    gains its block of fresh neighbours per site, larger than any before,
    so every row is sorted and becomes a frozenset as the constructor
    makes it; a fresh vertex's row is whole when its copy is made, and is
    frozen then. Terminals that are adjacent in guard are refused, so every
    guard edge touches a fresh vertex and no pair is made twice; so is a
    site that is not 0 <= u < v < host.vertex_count.
    """
    s, t = terminals
    size = guard.vertex_count
    if not (0 <= s < size and 0 <= t < size) or s == t:
        raise ValueError(f"terminals ({s}, {t}) are not two vertices of the guard")
    if t in guard.neighbors(s):
        raise ValueError(f"terminals ({s}, {t}) are adjacent in the guard")
    n = host.vertex_count
    inner = [w for w in range(size) if w != s and w != t]
    place = {w: i for i, w in enumerate(inner)}
    width = len(inner)
    # per terminal, its inner neighbours' offsets in a copy; per inner
    # vertex, whether it sees s and t and its inner neighbours' offsets
    at_s = sorted(place[w] for w in guard.neighbors(s))
    at_t = sorted(place[w] for w in guard.neighbors(t))
    shapes = [
        (s in near, t in near, sorted(place[x] for x in near - {s, t}))
        for near in map(guard.neighbors, inner)
    ]
    rows = [sorted(near) for near in host._adj]
    fresh = []
    starts = [n + width * copy for copy in range(copies)]
    for u, v in sites:
        if not 0 <= u < v < n:
            raise ValueError(f"site ({u}, {v}) is not a pair u < v of the host's {n} vertices")
        blocks = [len(fresh) + start for start in starts]
        rows[u] += [b + i for b in blocks for i in at_s]
        rows[v] += [b + i for b in blocks for i in at_t]
        ends = [([u] * sees_s + [v] * sees_t, near) for sees_s, sees_t, near in shapes]
        fresh += [frozenset(head + [b + i for i in near]) for b in blocks for head, near in ends]
    return _of_rows(n + len(fresh), (*map(frozenset, rows), *fresh))


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

    levels holds one (vertex, anchor, floor, degree, near) entry per
    pattern vertex, in plan order. near lists vertex's neighbours placed
    before it, in plan order, so each pattern edge appears once, at its
    later end; anchor is near[0] (None when near is empty), whose image's
    neighbours are its candidates; floor is the earlier vertex its image
    must exceed; degree is vertex's own. All of them name pattern vertices,
    not positions. Only break_twins sets floors: the previous twin (same
    neighbours apart from each other). That drops twin permutations only,
    so K_n and K_n - e embed once per copy.

    reach is the eccentricity of the first vertex in the pattern, the
    farthest any copy's image lies from its root's, or None when the
    pattern is empty or not connected.

    searches caches the functions find_embedding runs for this plan, one
    per call shape (pinned positions, blocking or not, visiting or not),
    each generated from levels by _compile_search on the first such call.
    The orbit of the first vertex under the pattern's automorphisms, which
    the root-walking shapes prune by (see _orbit), is computed on the first
    compile that needs it and kept with the plan.
    """

    __slots__ = ("seed", "levels", "reach", "searches", "_pattern", "_orbit")

    def __init__(self, pattern: Graph, seed=(), break_twins=False):
        n, adj = pattern.vertex_count, pattern._adj
        order = list(seed)
        # Per vertex, how many of its neighbours are placed.
        counts = [len(near.intersection(seed)) for near in adj]
        unplaced = set(range(n)).difference(seed)
        while unplaced:
            best = max(unplaced, key=lambda v: (counts[v], len(adj[v]), -v))
            unplaced.remove(best)
            order.append(best)
            for w in adj[best]:
                counts[w] += 1
        position = {v: i for i, v in enumerate(order)}
        self.levels = []
        for i, v in enumerate(order):
            near = tuple(sorted((w for w in adj[v] if position[w] < i), key=position.__getitem__))
            # Twinship is an equivalence, so the latest earlier twin chains
            # each class into one increasing run.
            twins = [w for w in order[:i] if adj[v] - {w} == adj[w] - {v}] if break_twins else ()
            floor = twins[-1] if twins else None
            self.levels.append((v, near[0] if near else None, floor, len(adj[v]), near))
        # Rings of growing distance around the first vertex; on a connected
        # pattern they cover every vertex within n - 1 passes.
        self.reach, ring, ball = None, set(order[:1]), set(order[:1])
        for rings in range(n):
            if len(ball) == n:
                self.reach = rings
                break
            ring = set().union(*map(pattern.neighbors, ring)) - ball
            ball |= ring
        self.seed = tuple(seed)
        self.searches = {}
        self._pattern = pattern
        self._orbit = None


@lru_cache(maxsize=4096)
def match_plan(pattern: Graph, seed: tuple = (), break_twins: bool = False) -> MatchPlan:
    """The cached plan for pattern. Its vertex order starts with the seed
    vertices, so searches that pin those vertices never scan global
    candidates; break_twins orders twin images (see MatchPlan)."""
    return MatchPlan(pattern, seed, break_twins)


class SearchHost:
    """A host adjacency with what the compiled search walks beside it.

    adj is the host's neighbour sets, indexable by vertex, held as given
    and flipped in place by toggle. buckets lists per degree d the
    vertices of degree d, ascending, so their concatenation is the stable
    sort by degree; rows lists each vertex's neighbours, ascending; marked
    holds vertices proven to root no copy. One rule keeps them in step:
    buckets are the fresh buckets of adj less the marked vertices, and
    rows are adj's sets, sorted. The host builds both once and keeps the
    rule through toggle, leave_out and put_back; stale buckets or rows give
    wrong answers, so a caller that flips adj some other way builds a new
    host for its next search.

    A plain find_embedding call that returns a copy has exhausted every
    root its walk met before the copy's root, so those carry the plan's
    first pattern vertex in no copy; walked lists them. A caller may mark
    such roots (leave_out) for plans whose every unpinned level after the
    first has an anchor, as in any plan of a connected pattern: only the
    root walk reads the buckets then, and it and the orbit pruning find
    the copy the full walk finds. A wrong mark can hide a copy. Keeping
    each mark proven as the host changes is the caller's part, and the
    solver's docstring says how it does so.
    """

    __slots__ = ("adj", "buckets", "rows", "marked")

    def __init__(self, adj):
        self.adj = adj
        self.buckets = buckets = [[] for _ in adj]
        for v, near in enumerate(adj):
            buckets[len(near)].append(v)
        self.rows = [sorted(near) for near in adj]
        self.marked = set()

    def toggle(self, pairs) -> None:
        """Flip each pair: an edge goes, a non-edge comes; flipping the same
        pairs again undoes it. Each end moves to or from its place in the
        other's row and, unless marked, to the bucket of its new degree."""
        adj, buckets, rows, marked = self.adj, self.buckets, self.rows, self.marked
        for u, v in pairs:
            near_u, near_v = adj[u], adj[v]
            row_u, row_v = rows[u], rows[v]
            i, j = bisect_left(row_u, v), bisect_left(row_v, u)
            du, dv = len(near_u), len(near_v)
            if v in near_u:
                del row_u[i], row_v[j]
                step = -1
            else:
                row_u.insert(i, v)
                row_v.insert(j, u)
                step = 1
            if u not in marked:
                row = buckets[du]
                del row[bisect_left(row, u)]
                insort(buckets[du + step], u)
            if v not in marked:
                row = buckets[dv]
                del row[bisect_left(row, v)]
                insort(buckets[dv + step], v)
            near_u ^= {v}
            near_v ^= {u}

    def leave_out(self, vertices) -> None:
        """Mark the unmarked vertices given and take them out of the buckets."""
        self.marked.update(vertices)
        adj, buckets = self.adj, self.buckets
        for v in vertices:
            row = buckets[len(adj[v])]
            del row[bisect_left(row, v)]

    def put_back(self, vertices) -> None:
        """Clear the marks given, each vertex back in the bucket of its degree."""
        self.marked.difference_update(vertices)
        adj, buckets = self.adj, self.buckets
        for v in vertices:
            insort(buckets[len(adj[v])], v)

    def walked(self, plan: MatchPlan, root: int) -> list:
        """The roots a plain find_embedding call of plan walks before root,
        in its order: the buckets from the degree of the plan's first
        pattern vertex up to root's, then root's own bucket up to root,
        which must be in it."""
        degree, low = len(self.adj[root]), plan.levels[0][3]
        row = self.buckets[degree]
        walked = row[:bisect_left(row, root)]
        if degree > low:
            walked[:0] = chain.from_iterable(self.buckets[low:degree])
        return walked


# CPython refuses more than 20 statically nested blocks in one function, so
# a long plan's loops go out in chunks, each a function that calls the next.
_CHUNK_LOOPS = 16
# Levels up to this many earlier vertices spell out one test per earlier
# vertex, which runs fastest; later levels test the set of earlier images,
# so the source grows linearly with the pattern and each test costs the
# candidate's degree, not the pattern's size.
_SPELLED = 8


def _compile_search(plan: MatchPlan, pinned: int, blocking: bool, visiting: bool):
    """The search function _search_source writes for this call shape."""
    namespace = {"chain": chain, "islice": islice}
    exec(compile(_search_source(plan, pinned, blocking, visiting), "<match plan>", "exec"), namespace)
    return namespace["search"]


def _search_source(plan: MatchPlan, pinned: int, blocking: bool, visiting: bool) -> str:
    """The source of plan.levels compiled into nested loops, one per
    unpinned level.

    It defines search(A, F, B, visit, I, K, M, S): the host's sets, fixed,
    blocked, visit, the image list it fills by pattern vertex, and the
    host's buckets, marks and sorted rows (see SearchHost). It returns
    True once it found an embedding (or visit accepted one).

    Level i binds v<p> for its pattern vertex p: to F[i] when pinned, else
    in a loop over the candidates a level-by-level backtracker takes, in the
    same order: the anchor image's sorted row S, ascending, or, with no
    anchor, the host vertices by degree, ties by vertex, walking the
    buckets K from the level's degree up. That walk leaves out exactly the
    vertices the level's degree test would reject, so such a level tests
    no degree. One test per level rejects a candidate on degree (where
    its adjacency tests do not imply it), floor, adjacency, non-adjacency,
    blocked pairs, and equality with a non-adjacent earlier image (an
    adjacent one differs already). In a root walk (nothing pinned, no
    visit) of a plan without floors, the root loop adds each root it
    exhausts to a set D, and each later level whose pattern vertex lies in
    the root's orbit (_orbit) also rejects a candidate in D or in the
    host's marks M: no copy puts the root's pattern vertex there, so by
    an automorphism no copy puts an orbit vertex there either. A floor
    breaks that argument, since the composed copy need not respect it, and
    a visit that declines copies exhausts roots that carry them. Plans
    whose root is alone in its orbit emit neither. Levels past _SPELLED
    earlier vertices keep the earlier images in a set U instead, added to on the way down
    and taken from on the way back: the
    candidate must be outside U, and its neighbours must meet U in exactly
    its adjacent earlier images. Each chunk after the first takes U as its
    argument and reads back from I the few earlier images it names.

    One lookahead prunes dead branches. Let g be the level before the last.
    When the last level's anchor comes before g, g is unpinned and its
    pattern vertex is adjacent to the last one, the last image must lie in
    a set L that the images before g fix: the anchor image's neighbours
    that neighbour every other image adjacent to the last vertex and
    neither equal nor neighbour any image not adjacent to it. So on the
    first candidate of g that passes its test, the loop computes L once
    (each image before g that changes resets it). If L is empty, no
    candidate of g leads anywhere and the loop ends; a candidate with no
    neighbour in L is skipped. The cut branches hold no embedding and
    nothing else moves, so embeddings come in the same order as without
    it. L stays lazy: on sparse hosts g's loop mostly has no candidate
    that passes and the last loop is short, so computing L as g's loop
    starts would cost more than it prunes.
    """
    levels = plan.levels
    order = [level[0] for level in levels]
    # Orbit pruning: the later levels whose pattern vertex shares the root's
    # orbit reject the roots this call exhausted (D) and the marked ones (M).
    pruned = ()
    if not pinned and not visiting and levels and all(level[2] is None for level in levels):
        pruned = _orbit(plan) - {order[0]}
    # The lookahead from level g to the last level: its candidates among
    # the anchor image's neighbours, as far as the images before g decide.
    g, ahead = len(levels) - 2, []
    if g >= pinned:
        near = levels[-1][4]
        if len(near) > 1 and near[-1] == order[g]:
            inside = near[:-1]
            outside = [w for w in order[:-1] if w not in near]
            ahead = [*inside, *outside]
            lookahead = " & ".join(f"A[v{w}]" for w in inside)
            if len(inside) > 1:
                lookahead = f"({lookahead})"
            if outside:
                images = ", ".join(f"v{w}" for w in outside)
                lookahead += f".difference({''.join(f'A[v{w}], ' for w in outside)}{{{images}}})"
    starts = [0, *range(pinned + _CHUNK_LOOPS, len(levels), _CHUNK_LOOPS)]
    ends = starts[1:] + [len(levels)]
    chunks = []
    for k, (start, end) in enumerate(zip(starts, ends)):
        base = depth = 1 if k == 0 else 2
        lines = []
        if k:
            # Every level here is past _SPELLED, so only its anchor, floor
            # and adjacent earlier vertices are named, and the lookahead's.
            named = sorted({
                w for _, _, floor, _, near in levels[start:end] for w in (floor, *near)
            }.union(ahead if start <= g < end else ()).intersection(order[:start]))
            lines.append(f" def c{k}(U):")
            if named:
                lines.append(f"  {''.join(f'v{w}, ' for w in named)}= {''.join(f'I[{w}], ' for w in named)}")
        closing = []
        for i in range(start, end):
            vertex, anchor, floor, needed, near = levels[i]
            v = f"v{vertex}"
            pad = " " * depth
            if i < pinned:
                lines.append(f"{pad}{v} = F[{i}]")
                anchor, fail = None, "return False"
            else:
                if i == 0 and pruned:
                    lines.append(f"{pad}D = set()")
                if i == g and ahead:
                    lines.append(f"{pad}L = None")
                if anchor is not None:
                    lines.append(f"{pad}for {v} in S[v{anchor}]:")
                else:
                    lines.append(f"{pad}for {v} in chain.from_iterable(islice(K, {needed}, None)):")
                fail = "continue"
                depth += 1
                pad = " " * depth
            # The loop draws from the anchor image's neighbours, so only the
            # other near images are tested.
            tested = near if anchor is None else near[1:]
            # A candidate that passes the adjacency tests neighbours every
            # near image, all distinct, so its degree is len(near) at least;
            # a walk of the buckets from the level's degree needs no test.
            least = len(near) if anchor is not None else needed if i >= pinned else 0
            terms = [f"len(N) < {needed}"] if needed > least else []
            if floor is not None:
                terms.append(f"{v} <= v{floor}")
            if vertex in pruned:
                terms.append(f"{v} in D or {v} in M")
            terms.extend(f"v{w} not in N" for w in tested)
            if i > _SPELLED:
                terms.append(f"{v} in U or len(N & U) != {len(near)}")
                if blocking:
                    terms.append(f"any((({v}, w) if {v} < w else (w, {v})) in B for w in U)")
            else:
                apart = [w for w in order[:i] if w not in near]
                terms.extend(f"{v} == v{w}" for w in apart)
                terms.extend(f"v{w} in N" for w in apart)
                if blocking:
                    terms.extend(f"(({v}, v{w}) if {v} < v{w} else (v{w}, {v})) in B" for w in order[:i])
            if terms:
                lines.append(f"{pad}N = A[{v}]")
                lines.append(f"{pad}if {' or '.join(terms)}: {fail}")
            if i == g and ahead:
                # Level g has a term that reads N, so N is set. With an
                # anchor it tests a degree above least (the last vertex is
                # a neighbour too); without one it is adjacent to no earlier
                # vertex, and it comes after the last level's anchor, so it
                # tests a non-adjacent earlier image (or U) against N.
                lines.append(f"{pad}if L is None:")
                lines.append(f"{pad} L = {lookahead}")
                lines.append(f"{pad} if not L: break")
                lines.append(f"{pad}if L.isdisjoint(N): continue")
            if i + 1 < len(levels) and i == _SPELLED:
                lines.append(f"{pad}U = {{{''.join(f'v{w}, ' for w in order[:i + 1])}}}")
            elif i + 1 < len(levels) and i > _SPELLED:
                lines.append(f"{pad}U.add({v})")
                closing.append(f"{pad}U.discard({v})")
        pad = " " * depth
        placed = order[start:end]
        if placed:
            lines.append(f"{pad}{''.join(f'I[{p}], ' for p in placed)}= {''.join(f'v{p}, ' for p in placed)}")
        if end < len(levels):
            lines.append(f"{pad}if c{k + 1}(U): return True")
        elif visiting:
            lines.append(f"{pad}if visit(I): return True")
        else:
            lines.append(f"{pad}return True")
        lines.extend(reversed(closing))
        if k == 0 and pruned:
            lines.append(f"  D.add(v{order[0]})")
        lines.append(" " * base + "return False")
        chunks.append(lines)
    # The later chunks are closures over the search's arguments.
    source = ["def search(A, F, B, visit, I, K, M, S):", *(line for lines in chunks[1:] + chunks[:1] for line in lines)]
    return "\n".join(source)


def _orbit(plan: MatchPlan) -> frozenset:
    """The orbit of the plan's first pattern vertex p0 under the pattern's
    automorphisms, computed on first use and kept in the plan.

    Colour refinement proposes the candidates: every automorphism keeps
    each colour, so the orbit lies in p0's colour class. Rounds run while
    that class shrinks; stopping before the colouring is stable only leaves
    more candidates. A candidate joins when an automorphism sends p0 to it
    (_sends_first_to).
    """
    if plan._orbit is None:
        adj = plan._pattern._adj
        first = plan.levels[0][0]
        colours, cell = [0] * len(adj), None
        while True:
            names = {}
            colours = [
                names.setdefault((colour, tuple(sorted(colours[w] for w in near))), len(names))
                for colour, near in zip(colours, adj)
            ]
            shrunk = [v for v in (cell or range(len(adj))) if colours[v] == colours[first]]
            if cell is not None and len(shrunk) == len(cell):
                break
            cell = shrunk
        plan._orbit = frozenset(q for q in cell if q == first or _sends_first_to(plan, q))
    return plan._orbit


def _sends_first_to(plan: MatchPlan, q: int) -> bool:
    """Whether the pattern embeds in itself with the plan's first vertex on
    q: an automorphism, since an injective map of the vertices onto
    themselves that keeps every edge keeps every non-edge too.

    A level-by-level backtracker over plan.levels with an explicit stack:
    each level's image is unused and neighbours the images of its placed
    neighbours, drawn from its anchor's image's neighbours (any vertex
    when it has no anchor); its degree test only prunes. It walks the
    pattern's rows instead of compiling the plan's pinned search, which
    would cost about as much as compiling the plan itself: 0.19 s for a
    1100-vertex path, where this walk takes milliseconds.
    """
    adj, levels = plan._pattern._adj, plan.levels
    image, used = {}, set()
    tries = [iter((q,))]
    while tries:
        vertex, _, _, degree, _ = levels[len(tries) - 1]
        used.discard(image.pop(vertex, None))
        for x in tries[-1]:
            if x not in used and len(adj[x]) == degree and all(image[w] in adj[x] for w in adj[vertex] if w in image):
                break
        else:
            tries.pop()
            continue
        image[vertex] = x
        used.add(x)
        if len(tries) == len(levels):
            return True
        anchor = levels[len(tries)][1]
        tries.append(iter(range(len(adj)) if anchor is None else adj[image[anchor]]))
    return False


def find_embedding(host: SearchHost, plan: MatchPlan, *, blocked=None, fixed=None, visit=None):
    """Search for induced embeddings of the plan's pattern into the host.

    Embeddings that map any pattern pair, edge or non-edge, onto a host
    pair in blocked are rejected; the packing bound uses this to collect
    element-disjoint copies. fixed is a tuple of host vertices for the
    plan's seed vertices: match_plan(pattern, (a, b)) with fixed=(x, y)
    searches only copies that put a on x and b on y; fixed longer than
    plan.seed is an error. An image lists the host vertex of each pattern
    vertex: image[p] carries p. Every option is keyword-only.

    Without visit, returns the first image found, or None. With visit, the
    search calls visit(image) on every embedding the plan admits (all of
    them, unless the plan breaks twins; the list is reused, copy it to keep
    it) and stops at the first call that returns true; it then returns that
    image, and None when no call did.

    The search runs the nested loops _compile_search generated from the
    plan for this call shape, cached in plan.searches, over the host's
    sets, buckets, rows and marks. They try candidates in the order of a
    level-by-level backtracker over plan.levels: the solver branches on
    the first copy found, so that order is part of the contract. It has a
    closed form: the first image is the least embedding the call admits
    under the key that takes, level by level in plan order, (degree,
    vertex) for a level without an anchor and the vertex for an anchored
    one. How the host's sets iterate does not move it. Marks are read only
    by the root walks of plans without twin floors (see _compile_search).
    """
    pinned = len(fixed) if fixed else 0
    if pinned > len(plan.seed):
        raise ValueError(f"fixed pins {pinned} positions but the plan is seeded with {len(plan.seed)}")
    n = len(plan.levels)
    if n > len(host.adj):
        return None
    shape = (pinned, bool(blocked), visit is not None)
    search = plan.searches.get(shape)
    if search is None:
        search = plan.searches[shape] = _compile_search(plan, *shape)
    image = [0] * n
    if search(host.adj, fixed, blocked, visit, image, host.buckets, host.marked, host.rows):
        return list(image)
    return None


def find_induced_copy(host: Graph, pattern: Graph):
    """One induced copy of pattern in host, as a tuple whose entry p is the
    host vertex carrying pattern vertex p, or None.

    The copy preserves adjacency and non-adjacency (induced, not just
    subgraph). Empty patterns embed trivially, as ().
    """
    image = find_embedding(SearchHost(host._adj), match_plan(pattern))
    return None if image is None else tuple(image)


def is_h_free(host: Graph, pattern: Graph) -> bool:
    """True iff host contains no induced copy of pattern."""
    return find_induced_copy(host, pattern) is None


def induced_subgraph(g: Graph, verts) -> Graph:
    """Subgraph induced by the distinct vertices of verts, relabelled in
    sorted order. It reads g's rows, so a graph built from rows builds no
    edge set."""
    verts = sorted(set(verts))
    if verts and not (0 <= verts[0] and verts[-1] < g.vertex_count):
        raise ValueError(f"vertices {verts[0]}..{verts[-1]} out of range for {g.vertex_count} vertices")
    index = {v: i for i, v in enumerate(verts)}
    adj = g._adj
    return Graph(len(verts), [(index[u], index[v]) for u, v in combinations(verts, 2) if v in adj[u]])


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

    find_embedding(SearchHost(host._adj), match_plan(pattern, break_twins=True), visit=visit)
    return sorted(found)
