"""Exact search for sandwich edge-modification instances.

An instance fixes a host graph, a forbidden pattern, a mode, and the set of
free elements: deletable edges in deletion mode, fillable non-edges in
completion mode. A solution is any subset of the free elements whose
application leaves the host with no induced copy of the pattern. Everything
outside the free set is immutable.

The solver branches on the free elements of one induced copy at a time.
That is complete because a copy, once induced, can only be destroyed by
modifying one of its own internal pairs: deletions elsewhere never add
edges inside it and completions elsewhere never remove them. A copy none of
whose internal pairs is free (or all of whose free pairs are already
committed to stay) therefore kills its whole branch. The search is one
loop over an explicit stack with a frame per modified pair, so no
recursion limit caps the size of a solution.

Both lower bounds come from one greedy packing of copies whose breaker
pairs (the internal pairs a modification can flip) are pairwise disjoint:
each such copy needs a pair of its own. Under a tight budget the search
packs the copies through the last modified pair, which every copy that
modification created holds internally; pinned at two vertices, those
searches stay cheap even on hosts with huge pendant bundles. Minimization
packs once in the unmodified host, and iterative deepening starts at the
count. Those packing calls are matcher calls, not search nodes.

A search also remembers, in one set of marks, which host vertices root no
copy: no copy puts the plan's first pattern vertex on them. Each root
call skips the marked roots and reports every root whose subtree it
exhausts, and a node that branches marks them. A modification at
p = (a, b) can only create copies that hold both a and b, and such a copy
lies within the first pattern vertex's eccentricity r of its root, so
after a toggle every mark within distance r of both a and b in the new
host is cleared. Each frame logs
the marks its root call added and those its toggle cleared, and popping
it restores its parent's marks exactly. Skipping a root with no copy
cannot change which copy comes first, so copies, verdicts and node counts
are those of the full scan. Patterns that are not connected keep the
full scan.

No root call sorts the host by degree: each search keeps the degree
buckets of its adjacency (graphs._buckets) current through every toggle,
and the matcher walks them in the sort's order. Minimization's root
packing passes the buckets of its own unmodified adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .graphs import Graph, _buckets, _toggle, edge_key, find_embedding, is_h_free, match_plan
from .patterns import Pattern

DELETION = "deletion"
COMPLETION = "completion"
DEFAULT_NODE_LIMIT = 10_000_000

# Packing bounds only matter when the budget is tight; above this slack the
# search relies on dead-copy pruning alone and skips the extra matcher calls.
_PACKING_SLACK = 16


class SearchLimitError(RuntimeError):
    """Node budget exhausted before the search reached a verdict.

    Deliberately distinct from an absent-solution result: callers must never
    read an aborted search as a certificate.
    """


@dataclass(frozen=True)
class SandwichInstance:
    graph: Graph
    pattern: Pattern
    mode: str
    free: frozenset

    def __post_init__(self):
        if self.mode not in (DELETION, COMPLETION):
            raise ValueError(f"mode must be {DELETION!r} or {COMPLETION!r}")
        graph, free = self.graph, self.free
        # One test by the graph passes a frozenset of valid pairs as it is;
        # anything else is normalized pair by pair, naming the smallest pair
        # at fault.
        if type(free) is not frozenset or not graph._holds(free, self.mode == DELETION):
            n = graph.vertex_count
            free = frozenset(edge_key(u, v) for u, v in free)
            for u, v in sorted(free):
                if u < 0 or v >= n:
                    raise ValueError(f"free pair ({u}, {v}) out of range")
                edge = v in graph.neighbors(u)
                if self.mode == DELETION and not edge:
                    raise ValueError(f"free pair ({u}, {v}) is not an edge")
                if self.mode == COMPLETION and edge:
                    raise ValueError(f"free pair ({u}, {v}) is already an edge")
        object.__setattr__(self, "free", free)


@dataclass(frozen=True)
class BudgetedInstance:
    instance: SandwichInstance
    budget: int

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def apply(instance: SandwichInstance, pairs) -> Graph:
    """Host graph after deleting (or filling) the given free pairs."""
    chosen = frozenset(edge_key(u, v) for u, v in pairs)
    stray = chosen - instance.free
    if stray:
        raise ValueError(f"pairs outside the free set: {sorted(stray)}")
    # free pairs are edges in deletion and non-edges in completion
    return Graph(instance.graph.vertex_count, instance.graph.edges ^ chosen)


def is_solution(instance: SandwichInstance, pairs) -> bool:
    return is_h_free(apply(instance, pairs), instance.pattern.graph)


def _breakers(instance: SandwichInstance):
    """The internal pattern pairs a modification can flip (edges in deletion,
    non-edges in completion), and the pattern pairs a modified pair can newly
    sit on; both lexicographic."""
    edges, non_edges = sorted(instance.pattern.edges), instance.pattern.non_edges
    return (edges, non_edges) if instance.mode == DELETION else (non_edges, edges)


def _mapped_pairs(image, breakers) -> list:
    return [edge_key(image[u], image[v]) for u, v in breakers]


def _packing(adj, shapes, breakers, buckets):
    """Greedy packing of induced copies with pairwise disjoint breaker pairs.

    For each next copy, tries the (plan, fixed) shapes in order and yields
    the first copy found, as (image, its breaker pairs); later copies avoid
    the breaker pairs of every copy yielded so far. A copy dies only when
    one of its own breaker pairs flips, so a solution holds a distinct pair
    of each copy: their count is a lower bound on what it must modify.
    buckets are adj's degree buckets (see graphs._buckets).
    """
    used = set()
    while True:
        for plan, fixed in shapes:
            image = find_embedding(adj, plan, blocked=used, fixed=fixed, buckets=buckets)
            if image is not None:
                break
        else:
            return
        pairs = _mapped_pairs(image, breakers)
        yield image, pairs
        used.update(pairs)


def _ball(adj, v, radius) -> set:
    """The vertices within distance radius of v."""
    ball = ring = {v}
    for _ in range(radius):
        grown = ball.union(*map(adj.__getitem__, ring))
        ring, ball = grown - ball, grown
        if not ring:
            break
    return ball


def _search(instance: SandwichInstance, budget: int, node_limit: int):
    """A solution of at most budget pairs, or None.

    Each stack frame is [candidates, tried, died_at, revived_at]: one
    node's sorted usable pairs, how many it has tried, and where the node's
    entries start in dead and revived; chosen[i] is the pair frame i is
    trying. A failed candidate stays blocked for the rest of its frame, and
    nothing else blocks it, so an exhausted frame unblocks its candidates.

    marked holds the vertices proven to root no copy, the one set of marks
    every root call skips. dead logs the marks each root call set and
    revived those each toggle cleared, in stack order, so popping a frame
    and undoing its parent's toggle restore the parent's marks exactly. A
    node that branches on nothing sets no marks, and the first root call
    of a search reports none: a search that ends within one toggle then
    pays for no ball.

    buckets are adj's degree buckets, built once and moved by each toggle
    of adj (_toggle), so every matcher call walks them instead of sorting
    the host.
    """
    adj = instance.graph.adjacency()
    buckets = _buckets(adj)
    pattern = instance.pattern
    plan = match_plan(pattern.graph)
    reach = plan.reach
    marked = set()
    dead, revived = [], []
    report = None if reach is None else dead  # no marks on patterns that are not connected
    free = instance.free
    breakers, positions = _breakers(instance)
    seeded = None  # plans pinned at each of `positions`, made at first use
    chosen = []
    blocked = set()
    stack = []

    for _ in range(node_limit):  # one pass per search node
        died_at = len(dead)
        image = find_embedding(adj, plan, roots=marked or None, dead=report if stack else None, buckets=buckets)
        if image is None:
            return frozenset(chosen)
        remaining = budget - len(chosen)
        candidates = []
        if remaining > 0:
            candidates = sorted(p for p in _mapped_pairs(image, breakers) if p in free and p not in blocked)
            if candidates and remaining <= _PACKING_SLACK and chosen:
                # Every copy the last modification created holds its pair
                # at one of `positions`, pinned there in both orientations.
                # Each packed copy needs a modification of its own, so one
                # with no usable free pair, or more than `remaining` of
                # them, kills the branch.
                seeded = seeded or [match_plan(pattern.graph, position) for position in positions]
                u, v = chosen[-1]
                shapes = [(anchored, fixed) for anchored in seeded for fixed in ((u, v), (v, u))]
                for count, (_, pairs) in enumerate(_packing(adj, shapes, breakers, buckets), 1):
                    if count > remaining or not any(p in free and p not in blocked for p in pairs):
                        candidates = []
                        break
        if candidates:
            marked.update(dead[died_at:])
        else:
            del dead[died_at:]
        stack.append([candidates, 0, died_at, len(revived)])
        while stack[-1][1] == len(stack[-1][0]):
            # Exhausted: unblock its candidates and clear its marks, then
            # undo and block the pair its parent tried, marking again what
            # that toggle revived.
            candidates, _, died_at, _ = stack.pop()
            blocked.difference_update(candidates)
            marked.difference_update(dead[died_at:])
            del dead[died_at:]
            if not stack:
                return None
            pair = chosen.pop()
            _toggle(adj, (pair,), buckets)
            revived_at = stack[-1][3]
            marked.update(revived[revived_at:])
            del revived[revived_at:]
            blocked.add(pair)
        frame = stack[-1]
        pair = frame[0][frame[1]]
        frame[1] += 1
        _toggle(adj, (pair,), buckets)
        if marked:
            # A new copy holds both ends of the pair, so its root lies
            # within reach of each of them in the new host.
            hit = marked.intersection(_ball(adj, pair[0], reach))
            if hit:
                hit.intersection_update(_ball(adj, pair[1], reach))
                marked -= hit
                revived += hit
        chosen.append(pair)
    raise SearchLimitError(f"exceeded {node_limit} search nodes")


def solve_sandwich(instance: SandwichInstance, budget=None, node_limit: int = DEFAULT_NODE_LIMIT):
    """One solution of size at most `budget` (any size when None), or None
    when provably no such solution exists. Raises SearchLimitError instead
    of guessing when the node budget runs out."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if node_limit < 0:
        raise ValueError("node_limit must be nonnegative")
    cap = len(instance.free) if budget is None else min(budget, len(instance.free))
    return _search(instance, cap, node_limit)


def solve_budgeted(budgeted: BudgetedInstance, node_limit: int = DEFAULT_NODE_LIMIT):
    return solve_sandwich(budgeted.instance, budget=budgeted.budget, node_limit=node_limit)


def _root_packing(instance: SandwichInstance, limit: int) -> list:
    """Up to `limit` copies of the packing in the unmodified host."""
    shapes = [(match_plan(instance.pattern.graph), None)]
    adj = instance.graph.adjacency()
    packing = _packing(adj, shapes, _breakers(instance)[0], _buckets(adj))
    return [image for image, _ in islice(packing, limit)]


def solve_min(instance: SandwichInstance, node_limit: int = DEFAULT_NODE_LIMIT):
    """Minimum-size solution via iterative deepening on the budget, or None.

    The unbudgeted pass settles existence first. Deepening then starts at a
    greedy packing of root copies with disjoint breaker pairs, a lower bound
    on the optimum, and runs only below the size of the solution the first
    pass found, so it returns as soon as the packing meets that size. Every
    budget it skips provably fails, so it returns the set that deepening
    from budget 0 would. node_limit caps each search on its own, not their
    total; the packing's matcher calls are not search nodes.
    """
    best = solve_sandwich(instance, node_limit=node_limit)
    if best is None:
        return None
    # A non-empty best proves budget 0 fails: the host holds a copy.
    low = len(_root_packing(instance, len(best))) if len(best) > 1 else len(best)
    for bound in range(low, len(best)):
        candidate = solve_sandwich(instance, budget=bound, node_limit=node_limit)
        if candidate is not None:
            return candidate
    return best
