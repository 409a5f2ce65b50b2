"""Hand-built gadget reductions for the square, the pentagon, and the house.

The general chain reduction needs a 3-connected pattern, which C4 and C5
are not, so these constructions replace chains with direct wiring: every
clause-to-variable link is a single induced copy of the pattern whose only
free elements are the clause literal pair and the variable output pair.
The gadget libraries are small enough to certify outright. Each one comes
with an exhaustive contract (its exact solution set over all subsets of
its free pairs, plus structural facts) that is machine-checked the first
time a process uses it; a failed check raises GadgetContractError rather
than emitting a wrong instance.

Variable gadgets for deletion pair two mirrored all-or-nothing chains, one
per truth value, coupled so that at least one chain fires and at most one
can. For completion, the variable gadget is a ladder of squares whose
missing diagonals admit exactly two fillings, one per orientation.

The house constructions piggyback on the square ones: an apex vertex on
an edge turns every induced square through that edge into a house, and a
pendant square-with-roof bundle protects what must not be touched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cnf import CnfFormula, duplicate_for_min_occurrences, normalize_3cnf, occurrence_counts
from .graphs import Graph, edge_key, is_h_free
from .patterns import cycle_graph, house_graph, named_pattern, require
from .reductions import (
    Polynomial, _GraphBuilder, _wire, reduce_3sat_to_sandwich_comp, reduce_3sat_to_sandwich_del,
)
from .solver import BudgetedInstance, COMPLETION, DELETION, SandwichInstance


class GadgetContractError(RuntimeError):
    """A gadget failed its exhaustive solution-set or structural check."""


@dataclass(frozen=True)
class GadgetContract:
    """Outcome of one gadget's exhaustive certification."""

    name: str
    vertex_count: int
    free_count: int
    checked_subsets: int
    facts: tuple


def has_c4_subgraph(graph: Graph) -> bool:
    """True when some four-cycle exists as a subgraph, induced or not.

    Equivalent to two vertices sharing two common neighbours. The specific
    reductions keep their free pairs C4-subgraph-free so that every induced
    square in any reachable graph still contains a fixed element.
    """
    for u in range(graph.vertex_count):
        nu = graph.neighbors(u)
        for v in range(u + 1, graph.vertex_count):
            if len(nu & graph.neighbors(v)) >= 2:
                return True
    return False


def _all_solutions(vertex_count, edges, free, pattern, mode):
    """Every subset of free whose application leaves the graph pattern-free.

    Exhaustive over 2**len(free); callers keep free small.
    """
    free = sorted(edge_key(u, v) for u, v in free)
    edges = set(edges)
    out = []
    for r in range(len(free) + 1):
        for subset in itertools.combinations(free, r):
            if mode == DELETION:
                modified = edges - set(subset)
            else:
                modified = edges | set(subset)
            if is_h_free(Graph(vertex_count, modified), pattern):
                out.append(frozenset(subset))
    return out


# ---------------------------------------------------------------------------
# square (C4) deletion


def _c4del_variable(builder: _GraphBuilder) -> dict:
    """Two mirrored chains a-b-g-v-u of deletable edges, each welded rigid.

    Three diamonds per side force the chain to fire front to back and back
    to front, so each side deletes all four of its edges or none. A square
    across the two (a, b) ends makes at least one side fire; a clique
    across the two (v, u) ends kills any deletion plan that fires both.
    """
    sides = {}
    for truth in (True, False):
        a, b, g, v, u, x1, x2, x3 = (builder.fresh() for _ in range(8))
        chain = (
            builder.add_edge(a, b, free=True),
            builder.add_edge(b, g, free=True),
            builder.add_edge(g, v, free=True),
            builder.add_edge(v, u, free=True),
        )
        for p, q, x, r in ((a, b, x1, g), (b, g, x2, v), (g, v, x3, u)):
            builder.add_edge(p, x)
            builder.add_edge(q, x)
            builder.add_edge(p, r)
        sides[truth] = {"a": a, "b": b, "v": v, "u": u, "chain": chain}
    builder.add_edge(sides[True]["b"], sides[False]["a"])
    builder.add_edge(sides[False]["b"], sides[True]["a"])
    for p in (sides[True]["v"], sides[True]["u"]):
        for q in (sides[False]["v"], sides[False]["u"]):
            builder.add_edge(p, q)
    return sides


def _c4del_clause(builder: _GraphBuilder) -> dict:
    """K6 whose hexagon s1-t1-s2-t2-s3-t3 is deletable.

    Alone it is square-free, so nothing is forced; the wiring adds one
    induced square per literal that forces (s_i, t_i) out unless the
    variable side fired. Deleting all three literal edges leaves an
    octahedron whose squares no deletion can clear.
    """
    s1, t1, s2, t2, s3, t3 = (builder.fresh() for _ in range(6))
    order = (s1, t1, s2, t2, s3, t3)
    for u, v in itertools.combinations(order, 2):
        builder.add_edge(u, v)
    for i in range(6):
        builder.mark_free(order[i], order[(i + 1) % 6])
    return {
        "vertices": order,
        "literals": tuple((order[2 * i], order[2 * i + 1]) for i in range(3)),
        "spacers": tuple(edge_key(order[2 * i + 1], order[(2 * i + 2) % 6]) for i in range(3)),
    }


@lru_cache(maxsize=None)
def check_c4_deletion_gadgets() -> tuple:
    """Certify both C4-deletion gadgets; raises GadgetContractError."""
    square = cycle_graph(4)

    builder = _GraphBuilder()
    sides = _c4del_variable(builder)
    fire_true = frozenset(sides[True]["chain"])
    fire_false = frozenset(sides[False]["chain"])
    sols = _all_solutions(builder.vertex_count, builder.edges, builder.free, square, DELETION)
    if sorted(sols, key=sorted) != sorted((fire_true, fire_false), key=sorted):
        raise GadgetContractError("square deletion variable gadget: solutions are not the two chains")
    if has_c4_subgraph(Graph(builder.vertex_count, builder.free)):
        raise GadgetContractError("square deletion variable gadget: free pairs span a square")
    variable = GadgetContract(
        "c4-deletion variable", builder.vertex_count, len(builder.free), 2 ** len(builder.free),
        ("exactly two solutions, one full chain per truth value",
         "free pairs span no square subgraph"),
    )

    builder = _GraphBuilder()
    labels = _c4del_clause(builder)
    sols = set(_all_solutions(builder.vertex_count, builder.edges, builder.free, square, DELETION))
    literals = frozenset(labels["literals"])
    lits = labels["literals"]
    spaced = {(0, 1): 0, (1, 2): 1, (0, 2): 2}
    facts = (
        frozenset() in sols,
        all(frozenset((lit,)) in sols for lit in literals),
        not any(sol >= literals for sol in sols),
        frozenset(lits[1:]) not in sols,
        all(frozenset((lits[i], lits[k], labels["spacers"][s])) in sols
            for (i, k), s in spaced.items()),
        all(any(sol & literals == frozenset((lit,)) for sol in sols) for lit in literals),
        all(any(sol & literals == literals - {lit} for sol in sols) for lit in literals),
    )
    if not all(facts):
        raise GadgetContractError("square deletion clause gadget: solution-set facts failed")
    if has_c4_subgraph(Graph(builder.vertex_count, builder.free)):
        raise GadgetContractError("square deletion clause gadget: free pairs span a square")
    clause = GadgetContract(
        "c4-deletion clause", builder.vertex_count, len(builder.free), 2 ** len(builder.free),
        ("the empty set and every single literal pair are solutions",
         "no solution removes all three literal pairs",
         "removing two literal pairs forces the spacer between them",
         "free pairs span no square subgraph"),
    )
    return variable, clause


# ---------------------------------------------------------------------------
# pentagon (C5) deletion


def _c5del_variable(builder: _GraphBuilder) -> dict:
    """Pentagon analogue of the mirrored chain pair.

    Each side is a path A0..A4 of deletable edges; pentagons through fresh
    P_i and D_i vertices force the chain both ways. A pentagon across the
    (A0, A1) ends plays the or-role and one across the (A3, A4) ends the
    not-both role.
    """
    sides = {}
    for truth in (True, False):
        A = [builder.fresh() for _ in range(5)]
        chain = tuple(builder.add_edge(A[i], A[i + 1], free=True) for i in range(4))
        for i in (1, 2, 3):
            p = builder.fresh()
            d = builder.fresh()
            builder.add_edge(A[i - 1], p)
            builder.add_edge(p, A[i])
            builder.add_edge(A[i + 1], d)
            builder.add_edge(d, A[i - 1])
        sides[truth] = {"A": tuple(A), "v": A[3], "u": A[4], "chain": chain}
    w = builder.fresh()
    builder.add_edge(sides[True]["A"][1], sides[False]["A"][0])
    builder.add_edge(sides[False]["A"][1], w)
    builder.add_edge(w, sides[True]["A"][0])
    z = builder.fresh()
    builder.add_edge(sides[True]["A"][3], sides[False]["A"][3])
    builder.add_edge(sides[False]["A"][3], sides[True]["A"][4])
    builder.add_edge(sides[True]["A"][4], sides[False]["A"][4])
    builder.add_edge(sides[False]["A"][4], z)
    builder.add_edge(z, sides[True]["A"][3])
    return sides


def _c5del_clause(builder: _GraphBuilder) -> dict:
    """Five vertices, a rigid 5-cycle, and three deletable chords.

    The chords are the literal pairs; vertex s12 serves literals 1 and 2.
    Any proper subset of the chords may go, but deleting all three bares
    the rigid pentagon.
    """
    s12, t1, t2, s3, t3 = (builder.fresh() for _ in range(5))
    for u, v in ((s12, s3), (s3, t1), (t1, t2), (t2, t3), (t3, s12)):
        builder.add_edge(u, v)
    literals = (
        builder.add_edge(s12, t1, free=True),
        builder.add_edge(s12, t2, free=True),
        builder.add_edge(s3, t3, free=True),
    )
    return {
        "vertices": (s12, t1, t2, s3, t3),
        "ends": ((s12, t1), (s12, t2), (s3, t3)),
        "literals": literals,
    }


@lru_cache(maxsize=None)
def check_c5_deletion_gadgets() -> tuple:
    """Certify both C5-deletion gadgets; raises GadgetContractError."""
    pentagon = cycle_graph(5)

    builder = _GraphBuilder()
    sides = _c5del_variable(builder)
    want = sorted((frozenset(sides[True]["chain"]), frozenset(sides[False]["chain"])), key=sorted)
    sols = _all_solutions(builder.vertex_count, builder.edges, builder.free, pentagon, DELETION)
    if sorted(sols, key=sorted) != want:
        raise GadgetContractError("pentagon deletion variable gadget: solutions are not the two chains")
    variable = GadgetContract(
        "c5-deletion variable", builder.vertex_count, len(builder.free), 2 ** len(builder.free),
        ("exactly two solutions, one full chain per truth value",),
    )

    builder = _GraphBuilder()
    labels = _c5del_clause(builder)
    sols = set(_all_solutions(builder.vertex_count, builder.edges, builder.free, pentagon, DELETION))
    literals = set(labels["literals"])
    proper = set()
    for r in range(3):
        proper.update(frozenset(s) for s in itertools.combinations(sorted(literals), r))
    if sols != proper:
        raise GadgetContractError("pentagon deletion clause gadget: solutions are not the proper chord subsets")
    clause = GadgetContract(
        "c5-deletion clause", builder.vertex_count, len(builder.free), 2 ** len(builder.free),
        ("solutions are exactly the proper subsets of the three chords",),
    )
    return variable, clause


# ---------------------------------------------------------------------------
# square (C4) completion


def _c4comp_ladder(builder: _GraphBuilder, width: int) -> dict:
    """Ring ladder of 4*width squares whose diagonals are fillable.

    Top and bottom rails are cycles t_0..t_{L-1} and b_0..b_{L-1} joined by
    rungs; each square must gain a diagonal, and satellite vertices veto
    mixed orientations on neighbouring squares, so the only two fillings
    are the all-clockwise and all-counterclockwise ones. Occurrence j of
    the variable plugs into rail positions 4j and 4j+1, leaving two spare
    squares between consecutive taps.
    """
    length = 4 * width
    t = [builder.fresh() for _ in range(length)]
    b = [builder.fresh() for _ in range(length)]
    for i in range(length):
        j = (i + 1) % length
        builder.add_edge(t[i], t[j])
        builder.add_edge(b[i], b[j])
        builder.add_edge(t[i], b[i])
    for i in range(length):
        j = (i + 1) % length
        u = builder.fresh()
        d = builder.fresh()
        for rail, sat in ((t, u), (b, d)):
            builder.add_edge(sat, rail[(i - 1) % length])
            builder.add_edge(sat, rail[i])
            builder.add_edge(sat, rail[j])
    fills_true = tuple(builder.mark_free(t[i], b[(i + 1) % length]) for i in range(length))
    fills_false = tuple(builder.mark_free(t[(i + 1) % length], b[i]) for i in range(length))
    return {"top": tuple(t), "bottom": tuple(b), "true": fills_true, "false": fills_false}


def _c4comp_clause(builder: _GraphBuilder) -> dict:
    """Eight vertices and five fillable pairs realizing a three-way or.

    The outer square forces (v1, v2) or (v3, v4); each of those spawns a
    square forcing a literal pair, (u1, v1) or (u2, v2) on one side and
    (u3, v3) alone on the other since (u4, v4) stays forbidden. Filling a
    literal pair is in turn only survivable when the wired rail diagonal
    has the right orientation.
    """
    v1, v2, v3, v4, u1, u2, u3, u4 = (builder.fresh() for _ in range(8))
    for p, q in ((v1, v4), (v4, v2), (v2, v3), (v3, v1), (v1, u2),
                 (u2, u1), (u1, v2), (v3, u4), (u4, u3), (u3, v4)):
        builder.add_edge(p, q)
    gates = (builder.mark_free(v1, v2), builder.mark_free(v3, v4))
    literals = (
        builder.mark_free(u1, v1),
        builder.mark_free(u2, v2),
        builder.mark_free(u3, v3),
    )
    return {
        "vertices": (v1, v2, v3, v4, u1, u2, u3, u4),
        "taps": ((v1, u1), (v2, u2), (v3, u3)),
        "gates": gates,
        "literals": literals,
    }


@lru_cache(maxsize=None)
def check_c4_completion_gadgets() -> tuple:
    """Certify the completion ladder and clause gadget.

    The ladder check enumerates one diagonal choice per square (a square
    left without either diagonal stays an induced C4, so nothing outside
    that refinement can be a solution) and expects the two orientations.
    """
    square = cycle_graph(4)

    builder = _GraphBuilder()
    labels = _c4comp_ladder(builder, 2)
    graph = Graph(builder.vertex_count, builder.edges)
    sols = []
    checked = 0
    for choice in itertools.product((0, 1, 2), repeat=8):
        fills = set()
        for i, pick in enumerate(choice):
            if pick != 1:
                fills.add(labels["true"][i])
            if pick != 0:
                fills.add(labels["false"][i])
        checked += 1
        if is_h_free(Graph(graph.vertex_count, set(graph.edges) | fills), square):
            sols.append(frozenset(fills))
    want = sorted((frozenset(labels["true"]), frozenset(labels["false"])), key=sorted)
    if sorted(sols, key=sorted) != want:
        raise GadgetContractError("square completion ladder: solutions are not the two orientations")
    if has_c4_subgraph(Graph(builder.vertex_count, builder.free)):
        raise GadgetContractError("square completion ladder: fillable pairs span a square")
    ladder = GadgetContract(
        "c4-completion ladder", builder.vertex_count, len(builder.free), checked,
        ("exactly two solutions, one orientation per truth value",
         "fillable pairs span no square subgraph"),
    )

    builder = _GraphBuilder()
    labels = _c4comp_clause(builder)
    sols = set(_all_solutions(builder.vertex_count, builder.edges, builder.free, square, COMPLETION))
    gate12, gate34 = labels["gates"]
    lit1, lit2, lit3 = labels["literals"]
    predicted = set()
    for r in range(6):
        for subset in itertools.combinations(sorted(builder.free), r):
            subset = frozenset(subset)
            ok = (gate12 in subset or gate34 in subset)
            ok = ok and (gate12 not in subset or (lit1 in subset or lit2 in subset))
            ok = ok and (gate34 not in subset or lit3 in subset)
            ok = ok and (lit1 not in subset or gate12 in subset)
            ok = ok and (lit2 not in subset or gate12 in subset)
            ok = ok and (lit3 not in subset or gate34 in subset)
            if ok:
                predicted.add(subset)
    if sols != predicted:
        raise GadgetContractError("square completion clause gadget: solution-set facts failed")
    if not all(any(lit in sol for lit in labels["literals"]) for sol in sols):
        raise GadgetContractError("square completion clause gadget: a solution asserts no literal")
    if has_c4_subgraph(Graph(builder.vertex_count, builder.free)):
        raise GadgetContractError("square completion clause gadget: fillable pairs span a square")
    clause = GadgetContract(
        "c4-completion clause", builder.vertex_count, len(builder.free), 2 ** len(builder.free),
        ("every solution fills a gate pair and each gate drags in a literal pair",
         "literal fills require their gate, and (u4, v4) is never needed",
         "fillable pairs span no square subgraph"),
    )
    return ladder, clause


# ---------------------------------------------------------------------------
# formula reductions


@dataclass(frozen=True)
class SpecificTrace:
    """Labels tying a wired-gadget instance back to its formula.

    variable_pairs[i] holds the (true, false) pair for variable i+1, as in
    ReductionTrace: a single free pair whose membership in a solution
    means the variable takes that value. Extents list each gadget's
    vertices, and connector_extents the vertex sets of the wiring copies,
    which the locality checks sweep.
    """

    mode: str
    variable_count: int
    clause_count: int
    variable_pairs: tuple
    variable_solutions: tuple
    clause_literal_pairs: tuple
    variable_extents: tuple
    clause_extents: tuple
    connector_extents: tuple


def _require_exact_3cnf(formula: CnfFormula):
    if any(len(clause) != 3 for clause in formula.clauses):
        raise ValueError("formula must be exact-3CNF; normalize it first")
    # Two taps from one clause into the same variable gadget close a rigid
    # square through the clause internals, so direct wiring cannot host
    # clauses that repeat a variable.
    for j, clause in enumerate(formula.clauses):
        if len({abs(lit) for lit in clause}) != 3:
            raise ValueError(f"clause {j} repeats a variable; wired reductions need three distinct variables per clause")


def _wire_specific(formula, pattern, mode, variable_gadget, clause_gadget, connect, *, solutions, marker):
    """A wired reduction built by _wire and labeled with a SpecificTrace.

    connect returns its connector's vertices; solutions(variable) is a
    variable gadget's (true, false) solution pair, whose index marker is
    the side's marker pair."""
    instance, variables, clauses, connectors, variable_extents, clause_extents = _wire(
        formula, named_pattern(pattern), mode, variable_gadget, clause_gadget, connect
    )
    variable_solutions = tuple(solutions(v) for v in variables)
    trace = SpecificTrace(
        mode=mode,
        variable_count=formula.variable_count,
        clause_count=len(formula.clauses),
        variable_pairs=tuple((true[marker], false[marker]) for true, false in variable_solutions),
        variable_solutions=variable_solutions,
        clause_literal_pairs=tuple(tuple(edge_key(*p) for p in c["literals"]) for c in clauses),
        variable_extents=variable_extents,
        clause_extents=clause_extents,
        connector_extents=tuple(tuple(sorted(ends)) for per_clause in connectors for ends in per_clause),
    )
    return instance, trace


def _chains(sides) -> tuple:
    return sides[True]["chain"], sides[False]["chain"]


def reduce_3sat_to_c4del(formula: CnfFormula):
    """Exact-3CNF to induced-square deletion with direct wiring.

    Satisfiable if and only if some subset of the free edges can be deleted
    leaving no induced C4. Each literal occurrence is wired by two rigid
    edges forming an induced square with the clause literal edge and the
    variable output edge, so keeping the literal edge forces the variable
    side to fire.
    """
    _require_exact_3cnf(formula)
    check_c4_deletion_gadgets()

    def connect(builder, sides, clause, pos, lit, _occurrence):
        side = sides[lit > 0]
        s, t = clause["literals"][pos]
        v, u = side["v"], side["u"]
        builder.add_edge(min(s, t), min(v, u))
        builder.add_edge(max(s, t), max(v, u))
        return s, t, v, u

    return _wire_specific(
        formula, "c4", DELETION, lambda builder, _: _c4del_variable(builder), _c4del_clause, connect,
        solutions=_chains, marker=3,
    )


def reduce_3sat_to_c5del(formula: CnfFormula):
    """Exact-3CNF to induced-pentagon deletion with direct wiring.

    Same shape as the square version, but each wiring copy routes through
    a fresh vertex: the pentagon is the clause chord, one rigid edge to the
    variable side, the variable output edge, and a two-edge rigid path
    back.
    """
    _require_exact_3cnf(formula)
    check_c5_deletion_gadgets()

    def connect(builder, sides, clause, pos, lit, _occurrence):
        side = sides[lit > 0]
        s, t = clause["ends"][pos]
        v, u = side["v"], side["u"]
        w = builder.fresh()
        builder.add_edge(t, v)
        builder.add_edge(u, w)
        builder.add_edge(w, s)
        return s, t, v, u, w

    return _wire_specific(
        formula, "c5", DELETION, lambda builder, _: _c5del_variable(builder), _c5del_clause, connect,
        solutions=_chains, marker=3,
    )


def reduce_3sat_to_c4comp(formula: CnfFormula):
    """Exact-3CNF to induced-square completion via ring ladders.

    Every variable must occur at least twice (pad the formula with
    duplicate clauses first); occurrence j of a variable taps rail
    positions 4j and 4j+1 of its ladder. A negative literal wires the
    clause tap across a true-orientation diagonal and a positive literal
    across a false-orientation one, so the literal pair can only be filled
    when the ladder disagrees with that diagonal.
    """
    _require_exact_3cnf(formula)
    check_c4_completion_gadgets()
    counts = occurrence_counts(formula)
    if min(counts.values()) < 2:
        raise ValueError("every variable must occur at least twice; duplicate clauses first")

    def connect(builder, ladder, clause, pos, lit, occurrence):
        slot = 4 * occurrence
        v_i, u_i = clause["taps"][pos]
        if lit > 0:
            top, bottom = ladder["top"][slot + 1], ladder["bottom"][slot]
        else:
            top, bottom = ladder["top"][slot], ladder["bottom"][slot + 1]
        builder.add_edge(top, v_i)
        builder.add_edge(bottom, u_i)
        return top, bottom, v_i, u_i

    return _wire_specific(
        formula, "c4", COMPLETION, lambda builder, x: _c4comp_ladder(builder, counts[x]), _c4comp_clause,
        connect, solutions=lambda ladder: (ladder["true"], ladder["false"]), marker=0,
    )


def solution_from_specific(trace: SpecificTrace, assignment, formula: CnfFormula) -> frozenset:
    """Canonical solution realizing a satisfying assignment.

    Fires the matching chain or orientation per variable. Deletion clauses
    drop the literal pairs of false literals plus, in the K6 gadget, the
    hexagon spacer between two dropped pairs; completion clauses fill one
    true literal's pair and its gate.
    """
    chosen = set()
    for i, value in enumerate(assignment):
        chosen.update(trace.variable_solutions[i][0 if value else 1])
    for j, clause in enumerate(formula.clauses):
        values = [(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause]
        if not any(values):
            raise ValueError(f"assignment does not satisfy clause {j}")
        vs = trace.clause_extents[j]
        if trace.mode == DELETION:
            dead = [pos for pos, value in enumerate(values) if not value]
            for pos in dead:
                chosen.add(trace.clause_literal_pairs[j][pos])
            if len(dead) == 2 and len(vs) == 6:
                spacer = {(0, 1): 1, (1, 2): 3, (0, 2): 5}[tuple(dead)]
                chosen.add(edge_key(vs[spacer], vs[(spacer + 1) % 6]))
        else:
            pos = values.index(True)
            chosen.add(trace.clause_literal_pairs[j][pos])
            if pos in (0, 1):
                chosen.add(edge_key(vs[0], vs[1]))
            else:
                chosen.add(edge_key(vs[2], vs[3]))
    return frozenset(chosen)


# ---------------------------------------------------------------------------
# house translations


def _require_square_instance(instance: SandwichInstance, mode: str):
    if instance.mode != mode or instance.pattern.graph != cycle_graph(4):
        raise ValueError(f"expected a square {mode} instance")
    if has_c4_subgraph(Graph(instance.graph.vertex_count, instance.free)):
        raise ValueError("free pairs span a square; the house translation would be unsound")


def reduce_c4comp_to_house_comp(instance: SandwichInstance) -> SandwichInstance:
    """Square completion to house completion by putting an apex on every edge.

    Each original edge gains a degree-two roof vertex, so an induced square
    through that edge becomes an induced house and houses arise no other
    way: a square through an apex would need the roofed edge as a chord,
    and the free pairs span no square of their own.
    """
    _require_square_instance(instance, COMPLETION)
    builder = _GraphBuilder()
    builder.plant(instance.graph)
    for u, v in sorted(instance.graph.edges):
        apex = builder.fresh()
        builder.add_edge(u, apex)
        builder.add_edge(v, apex)
    graph = Graph(builder.vertex_count, builder.edges)
    return SandwichInstance(graph, named_pattern("house"), COMPLETION, instance.free)


# ---------------------------------------------------------------------------
# gap lifts

# Every lift plants the host and then guards each formerly fixed site (a
# fixed edge for deletion, a fixed non-edge for completion) with p(k) +
# extra copies of a guard graph glued onto the site by its two terminals.
# Touching the site springs every copy open at once and the copies share
# nothing else, so no solution within budget k = |free| can afford it.
# The general rows take any 3-connected pattern and build the guard from
# it: the pattern over its smallest non-edge, or the pattern less its
# smallest edge over that edge. The named rows number their guards with
# terminals 0 and 1 and the other vertices in the order they are created.
#
#   family: (required pattern, mode, extra copies, (guard, terminals), output pattern)
LIFTS = {
    "general-del": (None, DELETION, 0, None, None),
    "general-comp": (None, COMPLETION, 0, None, None),
    # a vertex seeing both ends; two of them form a square once the edge goes
    "c4-del": (cycle_graph(4), DELETION, 2, (Graph(3, [(0, 2), (1, 2)]), (0, 1)), None),
    # a three-path and a two-path between the ends, which close into a
    # pentagon once the edge goes
    "c5-del": (
        cycle_graph(5), DELETION, 1,
        (Graph(5, [(0, 2), (2, 3), (3, 1), (0, 4), (4, 1)]), (0, 1)), None,
    ),
    # a three-path between the ends, which closes into a square once filled
    "c4-comp": (cycle_graph(4), COMPLETION, 1, (Graph(4, [(0, 2), (2, 3), (3, 1)]), (0, 1)), None),
    # the same three-path with a roof on its middle edge, closing into a house
    "house-comp": (
        house_graph(), COMPLETION, 1,
        (Graph(5, [(0, 2), (2, 3), (3, 1), (4, 2), (4, 3)]), (0, 1)), None,
    ),
    # the square-to-house translation: a square-with-roof a, b with a seeing
    # one end and b seeing both ends and a; two of them form a house once
    # the edge goes, while an untouched guard forms none
    "house-del": (
        cycle_graph(4), DELETION, 2,
        (Graph(4, [(0, 2), (0, 3), (1, 3), (2, 3)]), (0, 1)), "house",
    ),
}
LIFT_FAMILIES = tuple(LIFTS)


def lift_specific(instance: SandwichInstance, family: str, polynomial: Polynomial) -> BudgetedInstance:
    """Lift an instance by its family's row of LIFTS, at budget k = |free|.

    The general families accept any 3-connected pattern; the named ones
    check that the instance carries the matching pattern and mode. The
    house-del family is the square-to-house translation, so it expects a
    square deletion instance and emits a house one.
    """
    if family not in LIFTS:
        raise ValueError(f"unknown lift family {family!r}")
    want, mode, extra, guard, output = LIFTS[family]
    pattern = instance.pattern
    if want is None:
        if instance.mode != mode:
            raise ValueError(f"expected a {mode} instance")
        if mode == DELETION:
            require(pattern, three_connected=True, min_non_edges=1)
            guard = pattern.graph, pattern.non_edges[0]
        else:
            require(pattern, three_connected=True, min_edges=1)
            removed = min(pattern.edges)
            guard = Graph(pattern.vertex_count, pattern.edges - {removed}), removed
    elif family == "house-del":
        _require_square_instance(instance, mode)
    elif instance.mode != mode or pattern.graph != want:
        raise ValueError(f"family {family!r} needs a matching pattern and mode")
    graph, (s, t) = guard
    k = len(instance.free)
    sites = instance.graph.edges if mode == DELETION else set(instance.graph.non_edges())
    builder = _GraphBuilder()
    builder.plant(instance.graph)
    copies = polynomial(k) + extra
    for u, v in sorted(sites - instance.free):
        glue = {s: u, t: v}
        for _ in range(copies):
            builder.plant(graph, glue)
    lifted = Graph(builder.vertex_count, builder.edges)
    free = lifted.edges if mode == DELETION else frozenset(lifted.non_edges())
    out = named_pattern(output) if output else pattern
    return BudgetedInstance(SandwichInstance(lifted, out, mode, free), k)


# ---------------------------------------------------------------------------
# formula targets

# The square-completion ladder needs every variable in two clauses, and
# duplicating a clause leaves the satisfying set alone. Rows look the
# reductions up by name at call time, so a wrapper rebound onto a module
# name (as benchmarks/tracing.py does) sees every call.


def _ladder(f, _pattern):
    return reduce_3sat_to_c4comp(duplicate_for_min_occurrences(f, 2))


def _house(f, pattern):
    instance, trace = _ladder(f, pattern)
    return reduce_c4comp_to_house_comp(instance), trace


#   `hfree reduce` target: (reduction of an exact-3CNF formula and pattern, takes a pattern)
FORMULA_TARGETS = {
    "sat2del": (lambda f, pattern: reduce_3sat_to_sandwich_del(f, pattern), True),
    "sat2comp": (lambda f, pattern: reduce_3sat_to_sandwich_comp(f, pattern), True),
    "c4del": (lambda f, _: reduce_3sat_to_c4del(f), False),
    "c5del": (lambda f, _: reduce_3sat_to_c5del(f), False),
    "c4comp": (_ladder, False),
    "house-comp": (_house, False),
}


def reduce_formula(target: str, formula: CnfFormula, pattern=None):
    """Normalize formula to exact-3CNF and build target's row of
    FORMULA_TARGETS from it: the instance and a trace whose variable_pairs
    label it. Only the general targets read pattern."""
    build, _ = FORMULA_TARGETS[target]
    return build(normalize_3cnf(formula), pattern)
