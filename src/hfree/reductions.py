"""Reductions from exact-3CNF to sandwich edge modification, and the
deletion/completion duality.

Both general reductions work for any 3-connected pattern with at least two
non-edges. The encodings are mirror images:

* deletion: a variable gadget is a pattern copy with both of its two
  lexicographically smallest non-edges filled in; the two added edges are
  the only deletable ones and deleting both re-exposes the copy, so at most
  one side fires. Deleting the first marks the variable true. A clause
  gadget is an intact copy whose three smallest edges are deletable, so at
  least one goes. Chains of connector copies carry each clause deletion to
  the matching variable edge: a connector is a copy whose smallest non-edge
  position is occupied by the incoming edge, so once that edge is deleted
  the copy stands exposed and only its outgoing edge can break it.

* completion: a variable gadget is a copy missing its two smallest edges
  (filling both re-exposes it), a clause gadget is an intact copy that
  forces one of two fills, with a second copy hanging off the branch pair
  to split it further, and a connector is a copy missing one edge, glued
  over the incoming fillable pair so that filling it forces the outgoing
  fill.

The gap lifts drop the free/fixed distinction and protect what used to be
fixed by sheer weight: every formerly fixed element gets a bundle of
pendant copies that all spring open if it is touched, so any solution
within the lifted budget keeps its hands off. Pendant interiors meet the
rest of the graph in only two vertices, which a 3-connected pattern cannot
straddle. The lifts are rows of one table, `gadgets.LIFTS`: the general
rows glue copies of the pattern itself, the named rows small guards of
their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import CnfFormula
from .graphs import Graph, edge_key
from .patterns import Pattern, complement_pattern, require
from .solver import COMPLETION, DELETION, SandwichInstance


@dataclass(frozen=True)
class Polynomial:
    """p(x) = scale * x**degree + shift with scale, degree >= 1, shift >= 0.

    The lift soundness arguments need p nondecreasing with p(x) >= x, which
    this shape guarantees on nonnegative inputs.
    """

    scale: int = 1
    degree: int = 1
    shift: int = 0

    def __post_init__(self):
        if self.scale < 1 or self.degree < 1 or self.shift < 0:
            raise ValueError("need scale >= 1, degree >= 1, shift >= 0")

    def __call__(self, x: int) -> int:
        return self.scale * x**self.degree + self.shift

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'scale,degree,shift', got {text!r}")
        return cls(int(parts[0]), int(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class ReductionTrace:
    """Where every labeled pair of a formula reduction ended up.

    variable_pairs[i] holds the (true, false) pair for variable i+1;
    clause_pairs[j] holds the three chain-start pairs of clause j in literal
    order; chain_pairs[j][pos] lists the chain's own free pairs from clause
    to variable. Completion clauses also record the branch pair that splits
    literal 1 from literals 2 and 3.
    """

    mode: str
    variable_count: int
    clause_count: int
    variable_pairs: tuple
    clause_pairs: tuple
    chain_pairs: tuple
    clause_branch_pairs: tuple = ()


class _GraphBuilder:
    def __init__(self):
        self.vertex_count = 0
        self.edges = set()
        self.free = set()

    def fresh(self) -> int:
        v = self.vertex_count
        self.vertex_count += 1
        return v

    def add_edge(self, u: int, v: int, free: bool = False) -> tuple:
        pair = edge_key(u, v)
        self.edges.add(pair)
        if free:
            self.free.add(pair)
        return pair

    def mark_free(self, u: int, v: int) -> tuple:
        pair = edge_key(u, v)
        self.free.add(pair)
        return pair

    def plant(self, graph: Graph, premapped=None) -> list:
        """Add a copy of graph, reusing the premapped vertices and allocating
        fresh ones for the rest. Existing edges are never duplicated and
        nothing is ever removed, so gluing is append-only."""
        premapped = premapped or {}
        mapping = [premapped[v] if v in premapped else self.fresh() for v in range(graph.vertex_count)]
        for a, b in graph.edges:
            self.add_edge(mapping[a], mapping[b])
        return mapping

    def pair_of(self, mapping, pattern_pair) -> tuple:
        a, b = pattern_pair
        return edge_key(mapping[a], mapping[b])


def _chain_geometry(pattern: Pattern):
    """The pattern's smallest non-edge and the smallest edge disjoint from it."""
    non_edge = pattern.non_edges[0]
    banned = set(non_edge)
    for edge in sorted(pattern.edges):
        if edge[0] not in banned and edge[1] not in banned:
            return non_edge, edge
    raise ValueError("pattern has no edge disjoint from its smallest non-edge")


def _build_chain(builder, copy_graph, slot, out_pair, steps, start_pair, end_pair, mark_free):
    """Connector chain carrying start_pair to end_pair.

    Each step plants copy_graph with its slot pair glued (smaller pattern
    index to smaller host index) onto the incoming pair; the outgoing pair
    becomes the next incoming one. The final step also glues its outgoing
    pair onto end_pair, adding no new free element there.
    """
    incoming = start_pair
    free_pairs = []
    for step in range(steps):
        premapped = {slot[0]: incoming[0], slot[1]: incoming[1]}
        last = step == steps - 1
        if last:
            premapped[out_pair[0]] = end_pair[0]
            premapped[out_pair[1]] = end_pair[1]
        mapping = builder.plant(copy_graph, premapped)
        outgoing = builder.pair_of(mapping, out_pair)
        if not last:
            mark_free(outgoing)
            free_pairs.append(outgoing)
        incoming = outgoing
    return tuple(free_pairs)


def reduce_3sat_to_sandwich_del(formula: CnfFormula, pattern: Pattern):
    """Exact-3CNF to sandwich deletion. Satisfiable iff some subset of the
    deletable edges leaves the graph pattern-free."""
    require(pattern, three_connected=True, min_non_edges=2, min_edges=3)
    if not formula.is_exact_3cnf():
        raise ValueError("formula must be exact-3CNF; normalize it first")
    slot, out_edge = _chain_geometry(pattern)
    builder = _GraphBuilder()
    p = pattern.vertex_count

    variable_pairs = []
    for _ in range(formula.variable_count):
        mapping = builder.plant(pattern.graph)
        true_pair = builder.add_edge(*builder.pair_of(mapping, pattern.non_edges[0]), free=True)
        false_pair = builder.add_edge(*builder.pair_of(mapping, pattern.non_edges[1]), free=True)
        variable_pairs.append((true_pair, false_pair))

    clause_pairs = []
    for _ in formula.clauses:
        mapping = builder.plant(pattern.graph)
        triple = []
        for edge in sorted(pattern.edges)[:3]:
            pair = builder.pair_of(mapping, edge)
            builder.mark_free(*pair)
            triple.append(pair)
        clause_pairs.append(tuple(triple))

    chain_pairs = []
    for j, clause in enumerate(formula.clauses):
        per_clause = []
        for pos, lit in enumerate(clause):
            target = variable_pairs[abs(lit) - 1][0 if lit > 0 else 1]
            chain = _build_chain(
                builder,
                pattern.graph,
                slot,
                out_edge,
                p + 2,
                clause_pairs[j][pos],
                target,
                lambda pair: builder.mark_free(*pair),
            )
            per_clause.append(chain)
        chain_pairs.append(tuple(per_clause))

    n, m = formula.variable_count, formula.clause_count
    assert len(builder.free) == 2 * n + 3 * m + 3 * m * (p + 1), "free element count off"
    instance = SandwichInstance(
        Graph(builder.vertex_count, builder.edges), pattern, DELETION, frozenset(builder.free)
    )
    trace = ReductionTrace(
        DELETION, n, m, tuple(variable_pairs), tuple(clause_pairs), tuple(chain_pairs)
    )
    return instance, trace


def reduce_3sat_to_sandwich_comp(formula: CnfFormula, pattern: Pattern):
    """Exact-3CNF to sandwich completion. Satisfiable iff some subset of the
    fillable non-edges leaves the graph pattern-free."""
    require(pattern, three_connected=True, min_non_edges=2, min_edges=3)
    if not formula.is_exact_3cnf():
        raise ValueError("formula must be exact-3CNF; normalize it first")
    out_pair, removed_edge = _chain_geometry(pattern)
    connector_graph = Graph(pattern.graph.vertex_count, pattern.edges - {removed_edge})
    smallest_edge = sorted(pattern.edges)[0]
    branch_copy = Graph(pattern.graph.vertex_count, pattern.edges - {smallest_edge})
    two_smallest = sorted(pattern.edges)[:2]
    variable_copy = Graph(pattern.graph.vertex_count, pattern.edges - set(two_smallest))
    builder = _GraphBuilder()
    p = pattern.vertex_count

    variable_pairs = []
    for _ in range(formula.variable_count):
        mapping = builder.plant(variable_copy)
        true_pair = builder.mark_free(*builder.pair_of(mapping, two_smallest[0]))
        false_pair = builder.mark_free(*builder.pair_of(mapping, two_smallest[1]))
        variable_pairs.append((true_pair, false_pair))

    clause_pairs = []
    branch_pairs = []
    for _ in formula.clauses:
        first = builder.plant(pattern.graph)
        lit1_pair = builder.mark_free(*builder.pair_of(first, pattern.non_edges[0]))
        branch_pair = builder.mark_free(*builder.pair_of(first, pattern.non_edges[1]))
        second = builder.plant(
            branch_copy, {smallest_edge[0]: branch_pair[0], smallest_edge[1]: branch_pair[1]}
        )
        lit2_pair = builder.mark_free(*builder.pair_of(second, pattern.non_edges[0]))
        lit3_pair = builder.mark_free(*builder.pair_of(second, pattern.non_edges[1]))
        clause_pairs.append((lit1_pair, lit2_pair, lit3_pair))
        branch_pairs.append(branch_pair)

    chain_pairs = []
    for j, clause in enumerate(formula.clauses):
        per_clause = []
        for pos, lit in enumerate(clause):
            target = variable_pairs[abs(lit) - 1][0 if lit > 0 else 1]
            chain = _build_chain(
                builder,
                connector_graph,
                removed_edge,
                out_pair,
                p + 2,
                clause_pairs[j][pos],
                target,
                lambda pair: builder.mark_free(*pair),
            )
            per_clause.append(chain)
        chain_pairs.append(tuple(per_clause))

    n, m = formula.variable_count, formula.clause_count
    assert len(builder.free) == 2 * n + 4 * m + 3 * m * (p + 1), "free element count off"
    instance = SandwichInstance(
        Graph(builder.vertex_count, builder.edges), pattern, COMPLETION, frozenset(builder.free)
    )
    trace = ReductionTrace(
        COMPLETION,
        n,
        m,
        tuple(variable_pairs),
        tuple(clause_pairs),
        tuple(chain_pairs),
        tuple(branch_pairs),
    )
    return instance, trace


def assignment_from_solution(trace: ReductionTrace, pairs) -> tuple:
    """Read the encoded assignment off a solution: variable i is true iff
    its true-side pair was modified."""
    pairs = frozenset(edge_key(u, v) for u, v in pairs)
    return tuple(trace.variable_pairs[i][0] in pairs for i in range(trace.variable_count))


def solution_from_assignment(formula: CnfFormula, trace: ReductionTrace, assignment) -> frozenset:
    """The canonical solution encoding a satisfying assignment: one side per
    variable, plus the chain of the first true literal in every clause."""
    chosen = set()
    for i, value in enumerate(assignment):
        chosen.add(trace.variable_pairs[i][0 if value else 1])
    for j, clause in enumerate(formula.clauses):
        pos = next(
            (
                t
                for t, lit in enumerate(clause)
                if assignment[abs(lit) - 1] == (lit > 0)
            ),
            None,
        )
        if pos is None:
            raise ValueError(f"assignment does not satisfy clause {j}")
        chosen.add(trace.clause_pairs[j][pos])
        if trace.mode == COMPLETION and pos in (1, 2):
            chosen.add(trace.clause_branch_pairs[j])
        chosen.update(trace.chain_pairs[j][pos])
    return frozenset(chosen)


def complement_instance(instance: SandwichInstance) -> SandwichInstance:
    """Complement the graph and the pattern and flip the mode; the free
    pairs stay put. Applying this twice gives back the original instance."""
    from .graphs import complement

    flipped = COMPLETION if instance.mode == DELETION else DELETION
    return SandwichInstance(
        complement(instance.graph),
        complement_pattern(instance.pattern),
        flipped,
        instance.free,
    )
