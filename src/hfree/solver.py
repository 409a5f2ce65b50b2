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
committed to stay) therefore kills its whole branch.

Under a tight budget the search also bounds from below: every copy created
by the previous modification contains the modified pair internally, so a
greedy packing of element-disjoint copies anchored at that pair counts
obstructions the remaining budget must still pay for. Anchored searches pin
two vertices and stay cheap even on hosts with huge pendant bundles.
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


class _Search:
    def __init__(self, instance: SandwichInstance, budget: int, node_limit: int):
        self.adj = instance.graph.adjacency()
        self.n = instance.graph.vertex_count
        self.plan = match_plan(instance.pattern.graph)
        self.free = instance.free
        self.deletion = instance.mode == DELETION
        self.budget = budget
        self.node_limit = node_limit
        self.nodes = 0
        self.chosen = []
        self.blocked = set()
        # Internal pairs that can destroy a copy, in original pattern labels.
        self.breakers = self.plan.pattern_edges if self.deletion else self.plan.pattern_non_edges

    def _mapped_pairs(self, image, plan=None):
        host_of = dict(zip((plan or self.plan).order, image))
        return [edge_key(host_of[u], host_of[v]) for u, v in self.breakers]

    def _anchored_bound(self, pair, limit: int):
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
        positions = self.plan.pattern_non_edges if self.deletion else self.plan.pattern_edges
        pattern = self.plan.pattern
        used = set()
        count = 0
        while count <= limit:
            pairs = None
            for a, b in positions:
                plan = match_plan(pattern, (a, b))
                for x, y in ((u, v), (v, u)):
                    image = find_embedding(self.adj, self.n, plan, blocked=used, fixed=(x, y))
                    if image is not None:
                        pairs = self._mapped_pairs(image, plan)
                        break
                if pairs is not None:
                    break
            if pairs is None:
                return count
            if not any(p in self.free and p not in self.blocked for p in pairs):
                return None
            used.update(pairs)
            count += 1
        return count

    def _extend(self) -> bool:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise SearchLimitError(f"exceeded {self.node_limit} search nodes")
        image = find_embedding(self.adj, self.n, self.plan)
        if image is None:
            return True
        remaining = self.budget - len(self.chosen)
        if remaining <= 0:
            return False
        candidates = sorted(
            p for p in self._mapped_pairs(image) if p in self.free and p not in self.blocked
        )
        if not candidates:
            return False
        if remaining <= _PACKING_SLACK and self.chosen:
            bound = self._anchored_bound(self.chosen[-1], remaining)
            if bound is None or bound > remaining:
                return False
        newly_blocked = []
        found = False
        for pair in candidates:
            _toggle(self.adj, (pair,))
            self.chosen.append(pair)
            if self._extend():
                found = True
                break
            _toggle(self.adj, (pair,))
            self.chosen.pop()
            self.blocked.add(pair)
            newly_blocked.append(pair)
        for pair in newly_blocked:
            self.blocked.remove(pair)
        return found


def solve_sandwich(instance: SandwichInstance, budget=None, node_limit: int = DEFAULT_NODE_LIMIT):
    """One solution of size at most `budget` (any size when None), or None
    when provably no such solution exists. Raises SearchLimitError instead
    of guessing when the node budget runs out."""
    if budget is not None and budget < 0:
        raise ValueError("budget must be nonnegative")
    if node_limit < 0:
        raise ValueError("node_limit must be nonnegative")
    cap = len(instance.free) if budget is None else min(budget, len(instance.free))
    search = _Search(instance, cap, node_limit)
    if search._extend():
        return frozenset(search.chosen)
    return None


def solve_budgeted(budgeted: BudgetedInstance, node_limit: int = DEFAULT_NODE_LIMIT):
    return solve_sandwich(budgeted.instance, budget=budgeted.budget, node_limit=node_limit)


def solve_min(instance: SandwichInstance, node_limit: int = DEFAULT_NODE_LIMIT):
    """Minimum-size solution via iterative deepening on the budget, or None.

    The unbudgeted pass settles existence first; deepening then only runs
    below the size of the solution it found.
    """
    best = solve_sandwich(instance, node_limit=node_limit)
    if best is None:
        return None
    for bound in range(len(best)):
        candidate = solve_sandwich(instance, budget=bound, node_limit=node_limit)
        if candidate is not None:
            return candidate
    return best
