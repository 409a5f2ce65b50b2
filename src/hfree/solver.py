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

Under a tight budget the search also bounds from below: every copy created
by the previous modification contains the modified pair internally, so a
greedy packing of element-disjoint copies anchored at that pair counts
obstructions the remaining budget must still pay for. Anchored searches pin
two vertices and stay cheap even on hosts with huge pendant bundles.

Minimization packs once more, in the unmodified host: copies whose breaker
pairs (the internal pairs a modification can flip) are pairwise disjoint
each need a pair of their own, so iterative deepening starts at their
count. Those packing calls are matcher calls, not search nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _toggle, edge_key, find_embedding, match_plan
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
        normalized = frozenset(edge_key(u, v) for u, v in self.free)
        object.__setattr__(self, "free", normalized)
        n = self.graph.vertex_count
        for u, v in normalized:
            if u < 0 or v >= n:
                raise ValueError(f"free pair ({u}, {v}) out of range")
            if self.mode == DELETION and (u, v) not in self.graph.edges:
                raise ValueError(f"free pair ({u}, {v}) is not an edge")
            if self.mode == COMPLETION and (u, v) in self.graph.edges:
                raise ValueError(f"free pair ({u}, {v}) is already an edge")


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
    from .graphs import is_h_free

    return is_h_free(apply(instance, pairs), instance.pattern.graph)


def _breakers(instance: SandwichInstance):
    """The internal pattern pairs a modification can flip (edges in deletion,
    non-edges in completion), and the pattern pairs a modified pair can newly
    sit on; both lexicographic."""
    edges, non_edges = sorted(instance.pattern.edges), instance.pattern.non_edges
    return (edges, non_edges) if instance.mode == DELETION else (non_edges, edges)


def _mapped_pairs(image, breakers) -> list:
    return [edge_key(image[u], image[v]) for u, v in breakers]


def _search(instance: SandwichInstance, budget: int, node_limit: int):
    """A solution of at most budget pairs, or None.

    Each stack frame is [candidates, tried]: one node's sorted usable pairs
    and how many it has tried; chosen[i] is the pair frame i is trying. A
    failed candidate stays blocked for the rest of its frame, and nothing
    else blocks it, so an exhausted frame unblocks its candidates.
    """
    adj = instance.graph.adjacency()
    pattern = instance.pattern
    plan = match_plan(pattern.graph)
    free = instance.free
    breakers, positions = _breakers(instance)
    chosen = []
    blocked = set()
    stack = []

    def anchored_bound(pair, limit: int):
        """Count element-disjoint copies through `pair`, stopping past `limit`.

        Deletion exposes copies with the pair as an internal non-edge,
        completion with the pair as an internal edge, so the search pins the
        pair onto each such pattern position in both orientations. Each
        counted copy needs one further modification of its own and the
        matcher-level blocking keeps those pair sets disjoint, so the count
        is a valid lower bound. Returns None when a copy with no usable free
        pair turns up: that branch is dead outright.
        """
        u, v = pair
        used = set()
        count = 0
        while count <= limit:
            pairs = None
            for a, b in positions:
                seeded = match_plan(pattern.graph, (a, b))
                for x, y in ((u, v), (v, u)):
                    image = find_embedding(adj, seeded, blocked=used, fixed=(x, y))
                    if image is not None:
                        pairs = _mapped_pairs(image, breakers)
                        break
                if pairs is not None:
                    break
            if pairs is None:
                return count
            if not any(p in free and p not in blocked for p in pairs):
                return None
            used.update(pairs)
            count += 1
        return count

    for _ in range(node_limit):  # one pass per search node
        image = find_embedding(adj, plan)
        if image is None:
            return frozenset(chosen)
        remaining = budget - len(chosen)
        candidates = []
        if remaining > 0:
            candidates = sorted(p for p in _mapped_pairs(image, breakers) if p in free and p not in blocked)
            if candidates and remaining <= _PACKING_SLACK and chosen:
                bound = anchored_bound(chosen[-1], remaining)
                if bound is None or bound > remaining:
                    candidates = []
        stack.append([candidates, 0])
        while stack[-1][1] == len(stack[-1][0]):
            # Exhausted: unblock its candidates, then undo and block the
            # pair its parent tried.
            blocked.difference_update(stack.pop()[0])
            if not stack:
                return None
            pair = chosen.pop()
            _toggle(adj, (pair,))
            blocked.add(pair)
        candidates, tried = frame = stack[-1]
        frame[1] = tried + 1
        _toggle(adj, (candidates[tried],))
        chosen.append(candidates[tried])
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
    """Up to `limit` induced copies in the unmodified host whose breaker
    pairs are pairwise disjoint, found greedily in matcher order.

    A host copy dies only when one of its own breaker pairs flips, so every
    solution holds a distinct pair of each copy: the count is a lower bound
    on the optimum.
    """
    adj = instance.graph.adjacency()
    plan = match_plan(instance.pattern.graph)
    breakers = _breakers(instance)[0]
    used = set()
    copies = []
    while len(copies) < limit:
        image = find_embedding(adj, plan, blocked=used)
        if image is None:
            break
        copies.append(image)
        used.update(_mapped_pairs(image, breakers))
    return copies


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
