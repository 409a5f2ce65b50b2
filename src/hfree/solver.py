"""Exact search for sandwich edge-modification instances.

An instance fixes a host graph, a forbidden pattern, a mode, and the set of
free elements: deletable edges in deletion mode, fillable non-edges in
completion mode. A solution is any subset of the free elements whose
application leaves the host with no induced copy of the pattern. Everything
outside the free set is immutable. SandwichInstance checks its free pairs,
and solve_sandwich its budget, the decision version's k.

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
each such copy needs a pair of its own. Under a tight budget a node
inherits its parent's packing. A copy dies only when one of its own
breaker pairs flips, and the breaker pairs of packed copies are disjoint,
so the parent's toggle killed at most one of them, the one holding the
toggled pair; every other one is still induced in the node's host, with
the same breaker pairs. The node keeps those, and extends the packing
with copies through the toggled pair, which every copy the toggle created
holds internally, avoiding the kept copies' pairs; pinned at two
vertices, those searches stay cheap even on hosts with huge pendant
bundles. A search's first node packs nothing, nor does a node whose
budget is not tight, so its children start from an empty packing.
Minimization packs once in the unmodified host, and iterative deepening
starts at the count. Those packing calls are matcher calls, not search
nodes.

No root call sorts the host by degree: each search keeps one
graphs.SearchHost, whose degree buckets and sorted rows every toggle
keeps current, and the matcher walks them. Minimization's root packing
wraps the unmodified graph's own sets once. So every call's first copy
is the least embedding under the matcher's key (see
graphs.find_embedding), a function of the node's host alone.

A search also remembers, in the host's marks, which host vertices root
no copy: no copy puts the plan's first pattern vertex on them. A root
call that returns a copy has exhausted every root its bucket walk met
before the copy's root (SearchHost.walked), and a node that branches
leaves them out, so later root calls walk only the live roots and the
matcher rejects them below the root too, at every level whose pattern
vertex shares the root's orbit under the pattern's automorphisms. A
modification at p = (a, b) can only create copies that hold both a and
b, and such a copy lies within the first pattern vertex's eccentricity r
of its root, so after a toggle every mark within distance r of both a
and b in the new host is put back. Each frame keeps the marks its node
added and those its toggle cleared, and popping it restores its
parent's marks and buckets exactly. Leaving out a root with no copy, or
rejecting it where no copy can put an orbit vertex, cannot change which
copy comes first, so copies, verdicts and node counts are those of the
full scan. Patterns that are not connected keep the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .graphs import Graph, SearchHost, edge_key, find_embedding, is_h_free, match_plan
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
        present = self.mode == DELETION
        n, rows = graph.vertex_count, graph._adj
        # A frozenset passes as it is when it is the graph's own edge set in
        # deletion mode, or when one pass over the rows finds every pair a
        # valid key of the mode's kind (two ints); anything else is
        # normalized pair by pair, naming the smallest pair at fault.
        if type(free) is frozenset and (
            (present and free is graph._edges)
            or all(type(u) is int and type(v) is int and 0 <= u < v < n and (v in rows[u]) == present for u, v in free)
        ):
            return
        free = frozenset(edge_key(u, v) for u, v in free)
        for u, v in sorted(free):
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"free pair ({u}, {v}) is not a pair of integers")
            if u < 0 or v >= n:
                raise ValueError(f"free pair ({u}, {v}) out of range")
            edge = v in rows[u]
            if present and not edge:
                raise ValueError(f"free pair ({u}, {v}) is not an edge")
            if edge and not present:
                raise ValueError(f"free pair ({u}, {v}) is already an edge")
        object.__setattr__(self, "free", free)


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


def _packing(host, shapes, breakers, used=None):
    """Greedy packing of induced copies with pairwise disjoint breaker pairs.

    For each next copy, tries the (plan, fixed) shapes in order and yields
    the first copy found, as (image, its breaker pairs); later copies avoid
    used, the breaker pairs of copies packed before the call (none when
    None; in the search, those a tight node kept of its parent's packing),
    and those of every copy yielded so far. used grows in place. A
    copy dies only when one of its own breaker pairs flips, so a solution
    holds a distinct pair of each copy: their count is a lower bound on
    what it must modify. host is a graphs.SearchHost.
    """
    used = set() if used is None else used
    while True:
        for plan, fixed in shapes:
            image = find_embedding(host, plan, blocked=used, fixed=fixed)
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

    Each stack frame is [candidates, tried, died, revived, packed]: one
    node's sorted usable pairs, how many it has tried, the marks the node
    set, those its current toggle cleared, and the breaker pairs of each
    copy in the node's packing (empty unless its budget is tight); chosen[i]
    is the pair frame i is trying. A failed candidate stays blocked for the
    rest of its frame, and nothing else blocks it, so an exhausted frame
    unblocks its candidates.

    A tight node prunes when the copies it keeps of its parent's packing
    outnumber its remaining budget or one of them has no usable pair left
    (free and not blocked); else it extends the packing and prunes the same
    way on each copy it adds.

    host is the one graphs.SearchHost of the search: every toggle goes
    through it, and its marks hold the vertices proven to root no copy.
    Popping a frame puts back its died, and undoing its parent's toggle
    leaves out the parent's revived again, which restores the parent's
    marks and buckets exactly. Only a node that branches sets marks, and
    the search's first node sets none: a search that ends within one
    toggle then pays for no ball.
    """
    host = SearchHost(instance.graph.adjacency())
    adj, marked = host.adj, host.marked
    pattern = instance.pattern
    plan = match_plan(pattern.graph)
    reach = plan.reach
    free = instance.free
    breakers, positions = _breakers(instance)
    seeded = None  # plans pinned at each of `positions`, made at first use
    chosen = []
    blocked = set()
    stack = []

    def usable(pairs):
        return any(p in free and p not in blocked for p in pairs)

    for _ in range(node_limit):  # one pass per search node
        image = find_embedding(host, plan)
        if image is None:
            return frozenset(chosen)
        remaining = budget - len(chosen)
        candidates = []
        packed = []
        if remaining > 0:
            candidates = sorted(p for p in _mapped_pairs(image, breakers) if p in free and p not in blocked)
            if candidates and remaining <= _PACKING_SLACK and chosen:
                # The parent's packed copies live on, less the one holding
                # the pair it toggled; every copy that toggle created holds
                # its pair at one of `positions`, pinned there in both
                # orientations. Each packed copy needs a modification of its
                # own, so one with no usable free pair, or more than
                # `remaining` of them, kills the branch.
                pair = chosen[-1]
                packed = [pairs for pairs in stack[-1][4] if pair not in pairs]
                if len(packed) > remaining or not all(map(usable, packed)):
                    candidates = []
                else:
                    seeded = seeded or [match_plan(pattern.graph, position) for position in positions]
                    u, v = pair
                    shapes = [(anchored, fixed) for anchored in seeded for fixed in ((u, v), (v, u))]
                    used = set(chain.from_iterable(packed))
                    for _, pairs in _packing(host, shapes, breakers, used):
                        packed.append(pairs)
                        if len(packed) > remaining or not usable(pairs):
                            candidates = []
                            break
        died = ()
        if candidates and stack and reach is not None:  # no marks on patterns that are not connected
            died = host.walked(plan, image[plan.levels[0][0]])
            host.leave_out(died)
        stack.append([candidates, 0, died, (), packed])
        while stack[-1][1] == len(stack[-1][0]):
            # Exhausted: unblock its candidates and clear its marks, then
            # undo and block the pair its parent tried, leaving out again
            # what that toggle revived.
            candidates, _, died, _, _ = stack.pop()
            blocked.difference_update(candidates)
            if died:
                host.put_back(died)
            if not stack:
                return None
            pair = chosen.pop()
            host.toggle((pair,))
            frame = stack[-1]
            if frame[3]:
                host.leave_out(frame[3])
                frame[3] = ()
            blocked.add(pair)
        frame = stack[-1]
        pair = frame[0][frame[1]]
        frame[1] += 1
        host.toggle((pair,))
        if marked:
            # A new copy holds both ends of the pair, so its root lies
            # within reach of each of them in the new host.
            hit = marked.intersection(_ball(adj, pair[0], reach))
            if hit:
                hit.intersection_update(_ball(adj, pair[1], reach))
                host.put_back(hit)
                frame[3] = hit
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


def _root_packing(instance: SandwichInstance, limit: int) -> list:
    """Up to `limit` copies of the packing in the unmodified host."""
    shapes = [(match_plan(instance.pattern.graph), None)]
    host = SearchHost(instance.graph._adj)  # read only: the packing flips no pair
    packing = _packing(host, shapes, _breakers(instance)[0])
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
