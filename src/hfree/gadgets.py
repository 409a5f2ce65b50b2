"""Hand-built gadget reductions for the square, the pentagon, and the house.

The general chain reduction needs a 3-connected pattern, which C4 and C5
are not, so these constructions replace chains with direct wiring: every
clause-to-variable link is a single induced copy of the pattern whose only
free elements are the clause literal pair and the variable output pair.
The gadget libraries are small enough to certify outright. Every contract
is an exact solution set, predicted from the builder's labels and
machine-checked the first time a process uses it: the free pairs must be
edges in deletion and non-edges in completion, the subsets of them (for
the ladder, one diagonal choice per square) that leave the gadget
pattern-free must be exactly the predicted ones, the subsets tried must
touch every free pair, and the free pairs must span no square. A
failed check raises GadgetContractError rather than emitting a wrong
instance. A contract walks its subsets in reflected Gray-code order, so
each step flips one pair of an adjacency whose degree buckets the
contract owns and keeps current, as the solver does.

Variable gadgets for deletion pair two mirrored all-or-nothing chains, one
per truth value, coupled so that at least one chain fires and at most one
can. For completion, the variable gadget is a ladder of squares whose
missing diagonals admit exactly two fillings, one per orientation.

The house constructions piggyback on the square ones: an apex vertex on
an edge turns every induced square through that edge into a house, and a
pendant square-with-roof bundle protects what must not be touched.

The wired reductions are built by `reductions._wire`, as the general ones
are, and return the same `ReductionTrace`. Each gadget builder returns the
labels its reduction reads: a variable gadget its (true, false) solutions,
a clause gadget its literal pairs plus whatever its canonical solutions
need (the K6 spacers, the completion gates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cnf import CnfFormula, duplicate_for_min_occurrences, normalize_3cnf, occurrence_counts
from .graphs import Graph, _buckets, _toggle, edge_key, find_embedding, is_h_free, match_plan
from .patterns import (
    complete_graph, complete_minus_edge, cycle_graph, house_graph, named_pattern, require,
)
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

    Four vertices that carry a four-cycle induce a square, K4 - e or K4,
    so this asks the matcher for each of the three. The specific
    reductions keep their free pairs C4-subgraph-free so that every induced
    square in any reachable graph still contains a fixed element.
    """
    return not (
        is_h_free(graph, cycle_graph(4))
        and is_h_free(graph, complete_minus_edge(4))
        and is_h_free(graph, complete_graph(4))
    )


# ---------------------------------------------------------------------------
# square (C4) deletion


def _c4del_variable(builder: _GraphBuilder) -> tuple:
    """Two mirrored chains a-b-g-v-u of deletable edges, each welded rigid.

    Three diamonds per side force the chain to fire front to back and back
    to front, so each side deletes all four of its edges or none. A square
    across the two (a, b) ends makes at least one side fire; a clique
    across the two (v, u) ends kills any deletion plan that fires both.
    Returns the (true, false) chains, each led by the (v, u) edge that the
    wiring taps.
    """
    sides = {}
    for truth in (True, False):
        a, b, g, v, u, x1, x2, x3 = (builder.fresh() for _ in range(8))
        ab, bg, gv, vu = (builder.add_edge(p, q, free=True) for p, q in ((a, b), (b, g), (g, v), (v, u)))
        for p, q, x, r in ((a, b, x1, g), (b, g, x2, v), (g, v, x3, u)):
            builder.add_edge(p, x)
            builder.add_edge(q, x)
            builder.add_edge(p, r)
        sides[truth] = {"a": a, "b": b, "v": v, "u": u, "chain": (vu, ab, bg, gv)}
    builder.add_edge(sides[True]["b"], sides[False]["a"])
    builder.add_edge(sides[False]["b"], sides[True]["a"])
    for p in (sides[True]["v"], sides[True]["u"]):
        for q in (sides[False]["v"], sides[False]["u"]):
            builder.add_edge(p, q)
    return sides[True]["chain"], sides[False]["chain"]


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
        "literals": tuple((order[2 * i], order[2 * i + 1]) for i in range(3)),
        "spacers": tuple(edge_key(order[2 * i + 1], order[(2 * i + 2) % 6]) for i in range(3)),
    }


# the hexagon spacer between two literal pairs, by their positions
_SPACED = {(0, 1): 0, (1, 2): 1, (0, 2): 2}


# ---------------------------------------------------------------------------
# pentagon (C5) deletion


def _c5del_variable(builder: _GraphBuilder) -> tuple:
    """Pentagon analogue of the mirrored chain pair.

    Each side is a path A0..A4 of deletable edges; pentagons through fresh
    P_i and D_i vertices force the chain both ways. A pentagon across the
    (A0, A1) ends plays the or-role and one across the (A3, A4) ends the
    not-both role. Returns the (true, false) chains, each led by the
    (A3, A4) edge that the wiring taps.
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
        sides[truth] = {"A": tuple(A), "chain": (chain[3], *chain[:3])}
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
    return sides[True]["chain"], sides[False]["chain"]


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
    return {"literals": literals}


# ---------------------------------------------------------------------------
# square (C4) completion


def _c4comp_ladder(builder: _GraphBuilder, width: int) -> tuple:
    """Ring ladder of 4*width squares whose diagonals are fillable.

    Top and bottom rails are cycles t_0..t_{L-1} and b_0..b_{L-1} joined by
    rungs; each square must gain a diagonal, and satellite vertices veto
    mixed orientations on neighbouring squares, so the only two fillings
    are the all-clockwise and all-counterclockwise ones. Occurrence j of
    the variable plugs into rail positions 4j and 4j+1, leaving two spare
    squares between consecutive taps. Returns the (true, false) fillings;
    diagonal i of either runs from the top rail to the bottom one.
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
    return fills_true, fills_false


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
    return {"taps": ((v1, u1), (v2, u2), (v3, u3)), "gates": gates, "literals": literals}


# ---------------------------------------------------------------------------
# gadget contracts


def _chains(labels) -> set:
    """A variable gadget's two solutions, one per truth value."""
    return set(map(frozenset, labels))


def _hexagon_runs(labels) -> set:
    """The empty set and every run of one to three consecutive hexagon edges."""
    ring = [pair for both in zip(labels["literals"], labels["spacers"]) for pair in both]
    runs = {frozenset()}
    for start in range(6):
        runs.update(frozenset(ring[(start + i) % 6] for i in range(length)) for length in (1, 2, 3))
    return runs


def _proper_chord_subsets(labels) -> set:
    return {frozenset(s) for r in range(3) for s in itertools.combinations(labels["literals"], r)}


def _gated_literals(labels) -> set:
    """One gate or both, each with literal pairs under it: (v1, v2) with
    literal 1, 2 or both, and (v3, v4) with literal 3."""
    (gate12, gate34), (lit1, lit2, lit3) = labels["gates"], labels["literals"]
    left = ({gate12, lit1}, {gate12, lit2}, {gate12, lit1, lit2}, set())
    right = ({gate34, lit3}, set())
    return {frozenset(a | b) for a in left for b in right} - {frozenset()}


def _free_pairs(_labels, free) -> tuple:
    """One binary digit per free pair, in sorted order: left or toggled."""
    return tuple(((), (pair,)) for pair in sorted(free))


def _diagonal_choices(labels, _free) -> tuple:
    """One digit per ladder square: its true diagonal, both, or its false
    one, in that order, so each move flips one pair. A square left without
    either diagonal stays an induced C4, so nothing outside these choices
    can be a solution."""
    return tuple(((t,), (t, f), (f,)) for t, f in zip(*labels))


def _gray_walk(digits):
    """Walk every choice of one state per digit in reflected mixed-radix
    Gray-code order (Knuth, TAOCP Vol. 4A, 7.2.1.1). Yields the first
    choice's pairs, then the one pair each later step flips; a digit's
    consecutive states must differ in exactly one pair."""
    links = [[pair for a, b in zip(states, states[1:]) for pair in set(a) ^ set(b)] for states in digits]
    if any(len(link) != len(states) - 1 for link, states in zip(links, digits)):
        raise ValueError("consecutive states of a digit must differ in exactly one pair")
    yield tuple(pair for states in digits for pair in states[0])
    state = [0] * len(digits)
    step = [1] * len(digits)
    while True:
        for j, link in enumerate(links):
            k = state[j] + step[j]
            if 0 <= k <= len(link):
                break
            step[j] = -step[j]
        else:
            return
        yield (link[min(k, state[j])],)
        state[j] = k


# Every contract is an exact solution set. _certify builds the gadget, checks
# that its free pairs are of the mode's kind, walks the candidate subsets of
# them on one adjacency (_gray_walk, one flipped pair per step, through
# degree buckets the contract owns), and checks that the subsets leaving it
# pattern-free are exactly the set the row predicts from the builder's
# labels, that the candidates touch every free pair, and that the free pairs
# span no square subgraph. Rows call their builders by module name at run
# time, so a builder rebound there is the one certified.
#
#   contract: (builder, pattern, mode, predicted solutions, facts,
#              digits: (labels, free pairs) -> one tuple of states per digit,
#              each state a tuple of pairs; a candidate picks one per digit)
_CONTRACTS = {
    "c4-deletion variable": (
        lambda builder: _c4del_variable(builder), cycle_graph(4), DELETION, _chains,
        ("exactly two solutions, one full chain per truth value",), _free_pairs,
    ),
    "c4-deletion clause": (
        lambda builder: _c4del_clause(builder), cycle_graph(4), DELETION, _hexagon_runs,
        ("solutions are the empty set and every run of one to three consecutive hexagon edges",
         "no solution removes all three literal pairs",
         "one that removes two literal pairs removes the spacer between them"),
        _free_pairs,
    ),
    "c5-deletion variable": (
        lambda builder: _c5del_variable(builder), cycle_graph(5), DELETION, _chains,
        ("exactly two solutions, one full chain per truth value",), _free_pairs,
    ),
    "c5-deletion clause": (
        lambda builder: _c5del_clause(builder), cycle_graph(5), DELETION, _proper_chord_subsets,
        ("solutions are exactly the proper subsets of the three chords",), _free_pairs,
    ),
    "c4-completion ladder": (
        lambda builder: _c4comp_ladder(builder, 2), cycle_graph(4), COMPLETION, _chains,
        ("exactly two solutions, one orientation per truth value",), _diagonal_choices,
    ),
    "c4-completion clause": (
        lambda builder: _c4comp_clause(builder), cycle_graph(4), COMPLETION, _gated_literals,
        ("every solution fills a gate pair and each gate drags in a literal pair",
         "literal fills require their gate, and (u4, v4) is never needed"),
        _free_pairs,
    ),
}


def _survivors(adj, plan, digits) -> tuple:
    """Walk every choice of digits on adj (see _gray_walk), which it leaves
    at the last choice. Returns the choices that leave adj free of plan's
    pattern, the pairs the walk touched and the number of choices."""
    buckets = _buckets(adj)
    current, covered, solutions = set(), set(), set()
    checked = 0
    for flips in _gray_walk(digits):
        _toggle(adj, flips, buckets)
        current.symmetric_difference_update(flips)
        covered.update(flips)
        checked += 1
        if find_embedding(adj, plan, buckets=buckets) is None:
            solutions.add(frozenset(current))
    return solutions, covered, checked


def _certify(name: str) -> GadgetContract:
    """Check one row of _CONTRACTS; raises GadgetContractError."""
    build, pattern, mode, predict, facts, digits = _CONTRACTS[name]
    builder = _GraphBuilder()
    labels = build(builder)
    n, free = builder.vertex_count, frozenset(builder.free)
    kind = "an edge" if mode == DELETION else "a non-edge"
    if any((pair in builder.edges) != (mode == DELETION) for pair in free):
        raise GadgetContractError(f"{name} gadget: a free pair is not {kind}")
    adj = Graph(n, builder.edges).adjacency()
    solutions, covered, checked = _survivors(adj, match_plan(pattern), digits(labels, free))
    if solutions != predict(labels):
        raise GadgetContractError(f"{name} gadget: solutions are not the predicted set")
    if covered != free:
        raise GadgetContractError(f"{name} gadget: the candidates do not cover the free pairs")
    if has_c4_subgraph(Graph(n, free)):
        raise GadgetContractError(f"{name} gadget: free pairs span a square")
    return GadgetContract(name, n, len(free), checked, facts + ("free pairs span no square subgraph",))


@lru_cache(maxsize=None)
def check_c4_deletion_gadgets() -> tuple:
    """Certify both C4-deletion gadgets; raises GadgetContractError."""
    return _certify("c4-deletion variable"), _certify("c4-deletion clause")


@lru_cache(maxsize=None)
def check_c5_deletion_gadgets() -> tuple:
    """Certify both C5-deletion gadgets; raises GadgetContractError."""
    return _certify("c5-deletion variable"), _certify("c5-deletion clause")


@lru_cache(maxsize=None)
def check_c4_completion_gadgets() -> tuple:
    """Certify the completion ladder and clause gadget; raises GadgetContractError."""
    return _certify("c4-completion ladder"), _certify("c4-completion clause")


# ---------------------------------------------------------------------------
# formula reductions


def _require_exact_3cnf(formula: CnfFormula):
    if not formula.is_exact_3cnf():
        raise ValueError("formula must be exact-3CNF; normalize it first")
    # Two taps from one clause into the same variable gadget close a rigid
    # square through the clause internals, so direct wiring cannot host
    # clauses that repeat a variable.
    for j, clause in enumerate(formula.clauses):
        if len({abs(lit) for lit in clause}) != 3:
            raise ValueError(f"clause {j} repeats a variable; wired reductions need three distinct variables per clause")


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
        s, t = clause["literals"][pos]
        v, u = sides[lit < 0][0]
        builder.add_edge(min(s, t), min(v, u))
        builder.add_edge(max(s, t), max(v, u))
        return s, t, v, u

    def clause_solution(clause, _connections, values):
        # drop the literal pairs of false literals, and the spacer between
        # two dropped ones
        dead = tuple(pos for pos, value in enumerate(values) if not value)
        spacer = (clause["spacers"][_SPACED[dead]],) if dead in _SPACED else ()
        return tuple(clause["literals"][pos] for pos in dead) + spacer

    return _wire(
        formula, named_pattern("c4"), DELETION, lambda builder, _: _c4del_variable(builder), _c4del_clause,
        connect, clause_solution,
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
        s, t = clause["literals"][pos]
        v, u = sides[lit < 0][0]
        w = builder.fresh()
        builder.add_edge(t, v)
        builder.add_edge(u, w)
        builder.add_edge(w, s)
        return s, t, v, u, w

    def clause_solution(clause, _connections, values):
        # drop the chords of false literals
        return tuple(pair for pair, value in zip(clause["literals"], values) if not value)

    return _wire(
        formula, named_pattern("c5"), DELETION, lambda builder, _: _c5del_variable(builder), _c5del_clause,
        connect, clause_solution,
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
    if any(count < 2 for count in counts.values()):
        raise ValueError("every variable must occur at least twice; duplicate clauses first")

    def connect(builder, fills, clause, pos, lit, occurrence):
        v_i, u_i = clause["taps"][pos]
        # a diagonal of the orientation that falsifies the literal
        top, bottom = fills[lit > 0][4 * occurrence]
        builder.add_edge(top, v_i)
        builder.add_edge(bottom, u_i)
        return top, bottom, v_i, u_i

    def clause_solution(clause, _connections, values):
        # fill the first true literal's pair and the gate above it
        pos = values.index(True)
        return clause["literals"][pos], clause["gates"][0 if pos < 2 else 1]

    return _wire(
        formula, named_pattern("c4"), COMPLETION, lambda builder, x: _c4comp_ladder(builder, counts[x]),
        _c4comp_clause, connect, clause_solution,
    )


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


#   `hfree reduce` target: (reduction of an exact-3CNF formula and pattern,
#   takes a pattern, the `hfree verify equivalence` target that checks it)
FORMULA_TARGETS = {
    "sat2del": (lambda f, pattern: reduce_3sat_to_sandwich_del(f, pattern), True, "general-del"),
    "sat2comp": (lambda f, pattern: reduce_3sat_to_sandwich_comp(f, pattern), True, "general-comp"),
    "c4del": (lambda f, _: reduce_3sat_to_c4del(f), False, "c4-del"),
    "c5del": (lambda f, _: reduce_3sat_to_c5del(f), False, "c5-del"),
    "c4comp": (_ladder, False, "c4-comp"),
    "house-comp": (_house, False, "house-comp-via-c4"),
}


def _check_pattern_rule(target: str, pattern, name: str) -> None:
    """The pattern column of FORMULA_TARGETS: the general targets need a
    pattern and the others fix their own. Errors call the target by name,
    the caller's own spelling of it."""
    general = FORMULA_TARGETS[target][1]
    if general and pattern is None:
        raise ValueError(f"target {name!r} needs a pattern")
    if not general and pattern is not None:
        raise ValueError(f"target {name!r} fixes its own pattern")


def reduce_formula(target: str, formula: CnfFormula, pattern=None):
    """Normalize formula to exact-3CNF and build target's row of
    FORMULA_TARGETS from it: the instance and a trace whose variable_pairs
    label it. The general targets need pattern; the others refuse one."""
    _check_pattern_rule(target, pattern, target)
    build = FORMULA_TARGETS[target][0]
    return build(normalize_3cnf(formula), pattern)
