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

These two and the three wired reductions in `gadgets` share one skeleton,
`_wire`, which labels every instance with one `ReductionTrace`, so
`assignment_from_solution` and `solution_from_assignment` carry solutions
both ways for all five; the formula targets are the rows of
`gadgets.FORMULA_TARGETS`. The counting translations in `minones` follow
the same shape with an `EdgeGroupMap` in place of the trace.

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
from itertools import product

from .cnf import CnfFormula, _read_int
from .graphs import Graph, complement, edge_key
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
        try:
            scale, degree, shift = (_read_int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"expected 'scale,degree,shift', got {text!r}") from None
        return cls(scale, degree, shift)


@dataclass(frozen=True)
class ReductionTrace:
    """Where every labeled pair of a formula reduction ended up.

    variable_solutions[i] holds the (true, false) solutions of variable
    i+1's gadget, each led by the pair that marks it; variable_pairs[i] is
    that (true, false) marker pair. clause_pairs[j] holds clause j's three
    literal pairs in literal order (the chain-start pairs of the general
    reductions) and connections[j][pos] what wiring literal pos returned:
    a chain's own free pairs, or a wiring copy's vertices.
    clause_solutions[j] maps each satisfying truth pattern of clause j's
    literals to the pairs that complete the clause. The extents list each
    gadget's vertices.
    """

    variable_pairs: tuple
    variable_solutions: tuple
    clause_pairs: tuple
    clause_solutions: tuple
    connections: tuple
    variable_extents: tuple
    clause_extents: tuple


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


def _build_chain(builder, copy_graph, slot, out_pair, steps, start_pair, end_pair):
    """Connector chain carrying start_pair to end_pair.

    Each step plants copy_graph with its slot pair glued (smaller pattern
    index to smaller host index) onto the incoming pair; the outgoing pair
    becomes the next incoming one and is marked free. The final step also
    glues its outgoing pair onto end_pair, adding no new free element there.
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
            builder.mark_free(*outgoing)
            free_pairs.append(outgoing)
        incoming = outgoing
    return tuple(free_pairs)


# the truth values of a clause's three literals that satisfy it
_SATISFYING = tuple(values for values in product((False, True), repeat=3) if any(values))


def _wire(formula, pattern, mode, variable_gadget, clause_gadget, connect, clause_solution):
    """The skeleton shared by every formula reduction.

    Plants variable_gadget(builder, x) for every variable x, which returns
    the gadget's (true, false) solutions, each led by its marker pair; then
    clause_gadget(builder) for every clause, which returns labels holding
    the clause's three "literals" pairs; then wires every literal
    occurrence with connect(builder, solutions, clause, pos, lit,
    occurrence), where occurrence counts the variable's earlier ones.
    clause_solution(clause, connections, values) gives the pairs completing
    a clause whose literals take the truth values `values`; the trace keeps
    them for each of the seven satisfying patterns.
    """
    builder = _GraphBuilder()
    variables, variable_extents, clauses, clause_extents = [], [], [], []
    for x in range(1, formula.variable_count + 1):
        start = builder.vertex_count
        variables.append(variable_gadget(builder, x))
        variable_extents.append(tuple(range(start, builder.vertex_count)))
    for _ in formula.clauses:
        start = builder.vertex_count
        clauses.append(clause_gadget(builder))
        clause_extents.append(tuple(range(start, builder.vertex_count)))
    occurrences = [0] * (formula.variable_count + 1)
    connections = []
    for clause, lits in zip(clauses, formula.clauses):
        per_clause = []
        for pos, lit in enumerate(lits):
            x = abs(lit)
            per_clause.append(connect(builder, variables[x - 1], clause, pos, lit, occurrences[x]))
            occurrences[x] += 1
        connections.append(tuple(per_clause))
    graph = Graph(builder.vertex_count, builder.edges)
    instance = SandwichInstance(graph, pattern, mode, frozenset(builder.free))
    trace = ReductionTrace(
        variable_pairs=tuple((true[0], false[0]) for true, false in variables),
        variable_solutions=tuple(variables),
        clause_pairs=tuple(clause["literals"] for clause in clauses),
        clause_solutions=tuple(
            {values: clause_solution(clause, wiring, values) for values in _SATISFYING}
            for clause, wiring in zip(clauses, connections)
        ),
        connections=tuple(connections),
        variable_extents=tuple(variable_extents),
        clause_extents=tuple(clause_extents),
    )
    return instance, trace


def reduce_3sat_to_sandwich_del(formula: CnfFormula, pattern: Pattern):
    """Exact-3CNF to sandwich deletion. Satisfiable iff some subset of the
    deletable edges leaves the graph pattern-free."""
    require(pattern, three_connected=True, min_non_edges=2, min_edges=3)
    if not formula.is_exact_3cnf():
        raise ValueError("formula must be exact-3CNF; normalize it first")
    slot, out_edge = _chain_geometry(pattern)
    clause_edges = sorted(pattern.edges)[:3]
    p = pattern.vertex_count

    def variable_gadget(builder, _x):
        mapping = builder.plant(pattern.graph)
        return tuple(
            (builder.add_edge(*builder.pair_of(mapping, pair), free=True),) for pair in pattern.non_edges[:2]
        )

    def clause_gadget(builder):
        mapping = builder.plant(pattern.graph)
        literals = tuple(builder.mark_free(*builder.pair_of(mapping, edge)) for edge in clause_edges)
        return {"literals": literals}

    def connect(builder, sides, clause, pos, lit, _occurrence):
        start, end = clause["literals"][pos], sides[lit < 0][0]
        return _build_chain(builder, pattern.graph, slot, out_edge, p + 2, start, end)

    def clause_solution(clause, chains, values):
        # the chain of the first true literal
        pos = values.index(True)
        return (clause["literals"][pos], *chains[pos])

    instance, trace = _wire(
        formula, pattern, DELETION, variable_gadget, clause_gadget, connect, clause_solution
    )
    n, m = formula.variable_count, formula.clause_count
    assert len(instance.free) == 2 * n + 3 * m + 3 * m * (p + 1), "free element count off"
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
    p = pattern.vertex_count

    def variable_gadget(builder, _x):
        mapping = builder.plant(variable_copy)
        return tuple((builder.mark_free(*builder.pair_of(mapping, edge)),) for edge in two_smallest)

    def clause_gadget(builder):
        # the three literal pairs, and the branch pair splitting literal 1
        # from literals 2 and 3
        first = builder.plant(pattern.graph)
        lit1_pair = builder.mark_free(*builder.pair_of(first, pattern.non_edges[0]))
        branch_pair = builder.mark_free(*builder.pair_of(first, pattern.non_edges[1]))
        second = builder.plant(
            branch_copy, {smallest_edge[0]: branch_pair[0], smallest_edge[1]: branch_pair[1]}
        )
        lit2_pair = builder.mark_free(*builder.pair_of(second, pattern.non_edges[0]))
        lit3_pair = builder.mark_free(*builder.pair_of(second, pattern.non_edges[1]))
        return {"literals": (lit1_pair, lit2_pair, lit3_pair), "branch": branch_pair}

    def connect(builder, sides, clause, pos, lit, _occurrence):
        start, end = clause["literals"][pos], sides[lit < 0][0]
        return _build_chain(builder, connector_graph, removed_edge, out_pair, p + 2, start, end)

    def clause_solution(clause, chains, values):
        # the chain of the first true literal, past the branch pair for
        # literals 2 and 3
        pos = values.index(True)
        branch = (clause["branch"],) if pos else ()
        return (clause["literals"][pos], *branch, *chains[pos])

    instance, trace = _wire(
        formula, pattern, COMPLETION, variable_gadget, clause_gadget, connect, clause_solution
    )
    n, m = formula.variable_count, formula.clause_count
    assert len(instance.free) == 2 * n + 4 * m + 3 * m * (p + 1), "free element count off"
    return instance, trace


def assignment_from_solution(trace: ReductionTrace, pairs) -> tuple:
    """Read the encoded assignment off a solution: variable i is true iff
    its true-side pair was modified."""
    pairs = frozenset(edge_key(u, v) for u, v in pairs)
    return tuple(true in pairs for true, _ in trace.variable_pairs)


def solution_from_assignment(formula: CnfFormula, trace: ReductionTrace, assignment) -> frozenset:
    """The canonical solution encoding a satisfying assignment: the
    matching solution of every variable gadget, plus the pairs that
    complete every clause under the truth values of its literals."""
    chosen = set()
    for i, value in enumerate(assignment):
        chosen.update(trace.variable_solutions[i][0 if value else 1])
    for j, clause in enumerate(formula.clauses):
        values = tuple(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        if not any(values):
            raise ValueError(f"assignment does not satisfy clause {j}")
        chosen.update(trace.clause_solutions[j][values])
    return frozenset(chosen)


def complement_instance(instance: SandwichInstance) -> SandwichInstance:
    """Complement the graph and the pattern and flip the mode; the free
    pairs stay put. Applying this twice gives back the original instance."""
    flipped = COMPLETION if instance.mode == DELETION else DELETION
    return SandwichInstance(
        complement(instance.graph),
        complement_pattern(instance.pattern),
        flipped,
        instance.free,
    )
