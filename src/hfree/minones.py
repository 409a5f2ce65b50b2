"""Minimum-ones constraint instances and their exchange with deletion.

Instances pair a variable count with constraints that are satisfied unless
a forbidden local count occurs: the ternary kind rejects exactly one true
argument, the unary kind pins its variable to true, and the wide kinds do
the same bookkeeping at clique scale, one pair per clique order n, with
arities t and t - 1 for t = n(n-1)/2.

The forward construction turns an instance over the small kinds into a
quarantined deletion problem whose pattern is the complete graph minus one
edge. Each variable owns a clique with two deletable edges, each ternary
constraint owns a clique with three, and chains of gluing cliques connect
them so that deleting any edge of a variable's labeled group forces the
whole group. Pendant cliques pad every group to one uniform size, so the
minimum deletion cost is exactly that size times the minimum number of
ones. The reverse construction maps every edge of a graph to a variable
and writes down the obstruction census as wide constraints, giving an
exact solution-set correspondence.

Both translations return (instance, EdgeGroupMap): the deletable edges
grouped by the variable that owns them, one-edge groups for the census.
deletion_from_assignment and assignment_from_deletion carry solutions
across either one: a variable is true exactly when its whole group is
deleted.
"""

from dataclasses import dataclass
from itertools import combinations

from .gadgets import lift_specific
from .graphs import Graph, edge_key, enumerate_induced_copies
from .patterns import complete_graph, complete_minus_edge, named_pattern
from .reductions import Polynomial, _GraphBuilder, _build_chain
from .solver import DELETION, SandwichInstance

BRUTE_FORCE_VARIABLE_LIMIT = 24


def constraint_arity(kind: str) -> int:
    """Argument count demanded by a constraint kind.

    Kinds are "f1" (ternary, false iff exactly one argument is true), "f2"
    (unary, the argument itself), and "fn<n>" / "gn<n>" for n >= 5 without
    leading zeros, of arities t and t - 1 where t = n(n-1)/2 counts the
    edges of a clique.
    """
    if kind == "f1":
        return 3
    if kind == "f2":
        return 1
    order = kind[2:]
    if kind[:2] in ("fn", "gn") and order.isascii() and order.isdigit():
        n = int(order)
        if n >= 5 and order == str(n):
            t = n * (n - 1) // 2
            return t if kind[:2] == "fn" else t - 1
    raise ValueError(f"unknown constraint kind {kind!r}")


def eval_constraint(kind: str, args, assignment) -> bool:
    """Truth value of one constraint under an assignment.

    Arguments are variable indices and repeats count per position, so the
    ternary kind applied to (x, x, y) with only x true sees two ones and
    is satisfied.
    """
    if len(args) != constraint_arity(kind):
        raise ValueError(f"constraint {kind!r} takes {constraint_arity(kind)} arguments, got {len(args)}")
    values = [1 if assignment[x] else 0 for x in args]
    if kind == "f2":
        return bool(values[0])
    if kind.startswith("gn"):
        # false only when every argument is zero
        return any(values)
    # "f1" and "fn<n>": false only when exactly one argument is one
    return sum(values) != 1


@dataclass(frozen=True)
class MinOnesInstance:
    """Variables 0..variable_count-1 and a tuple of (kind, args) constraints."""

    variable_count: int
    constraints: tuple

    def __post_init__(self):
        if self.variable_count < 0:
            raise ValueError("variable count must be nonnegative")
        normalized = tuple((kind, _checked_args(kind, args, self.variable_count)) for kind, args in self.constraints)
        object.__setattr__(self, "constraints", normalized)


def _checked_args(kind: str, args, variable_count: int) -> tuple:
    """args as a tuple, once kind takes that many and each names one of
    variable_count variables; parse_minones checks each line by it."""
    args = tuple(args)
    want = constraint_arity(kind)
    if len(args) != want:
        raise ValueError(f"constraint {kind!r} takes {want} arguments, got {len(args)}")
    if any(not 0 <= x < variable_count for x in args):
        raise ValueError(f"constraint {kind!r} names a variable out of range")
    return args


def satisfies_instance(inst: MinOnesInstance, assignment) -> bool:
    if len(assignment) != inst.variable_count:
        raise ValueError("assignment length does not match variable count")
    return all(eval_constraint(kind, args, assignment) for kind, args in inst.constraints)


def minones_brute_force(inst: MinOnesInstance):
    """Satisfying assignment with the fewest ones, or None.

    Scans weight classes upward, so the first hit is optimal; inside one
    weight class the true-set is the lexicographically first. Refuses
    instances with more than 24 variables.
    """
    if inst.variable_count > BRUTE_FORCE_VARIABLE_LIMIT:
        raise ValueError(f"brute force is capped at {BRUTE_FORCE_VARIABLE_LIMIT} variables")
    for ones in range(inst.variable_count + 1):
        for chosen in combinations(range(inst.variable_count), ones):
            assignment = [0] * inst.variable_count
            for x in chosen:
                assignment[x] = 1
            assignment = tuple(assignment)
            if satisfies_instance(inst, assignment):
                return assignment, ones
    return None


@dataclass(frozen=True)
class EdgeGroupMap:
    """Deletable edges grouped by the variable that owns them.

    groups[x] holds every edge whose deletion stands for variable x being
    true: in the clique complex, every present edge labeled by x, including
    the in/out edges of its own clique; in the obstruction census, the one
    edge that x indicates. The groups are pairwise disjoint and all share
    the single size group_size.
    """

    groups: tuple
    group_size: int

    def __post_init__(self):
        groups = tuple(frozenset(group) for group in self.groups)
        object.__setattr__(self, "groups", groups)
        for group in groups:
            if len(group) != self.group_size:
                raise ValueError(f"group of size {len(group)} breaks the uniform size {self.group_size}")
        if len(frozenset().union(*groups)) != sum(len(group) for group in groups):
            raise ValueError("groups must be pairwise disjoint")


def reduce_minones_to_quarantined(inst: MinOnesInstance, n: int = 5, pendant_base=None):
    """Clique complex whose deletion optimum is group_size times the ones optimum.

    Accepts only "f1"/"f2" constraints. Duplicate ternary constraints (same
    argument multiset) collapse to one clique. A pinned variable's clique
    is built with its in edge already missing, which leaves pattern copies
    that only deleting the variable's whole group can clear.

    pendant_base sets the padding target: every variable's group is padded
    with pendant cliques to exactly pendant_base + 2 labeled edges, which
    is asserted. The default base 9 * variable_count**2 matches the cost
    accounting; smaller bases are for desk-scale property checks only.
    Returns the k<n>e deletion instance, whose free edges are the union of
    the groups and whose quarantine is every other edge, and the
    EdgeGroupMap.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    for kind, _ in inst.constraints:
        if kind not in ("f1", "f2"):
            raise ValueError(f"constraint kind {kind!r} has no clique translation here")
    ternary = []
    seen = set()
    for kind, args in inst.constraints:
        if kind == "f1" and tuple(sorted(args)) not in seen:
            seen.add(tuple(sorted(args)))
            ternary.append(args)
    pinned = {args[0] for kind, args in inst.constraints if kind == "f2"}

    count = inst.variable_count
    occurrences = [0] * count
    for args in ternary:
        for x in args:
            occurrences[x] += 1
    base = 9 * count * count if pendant_base is None else pendant_base
    for x in range(count):
        if 3 * occurrences[x] > base:
            raise ValueError(f"variable {x} fills {occurrences[x]} positions, too many for padding base {base}")

    builder = _GraphBuilder()
    clique = complete_graph(n)
    groups = [set() for _ in range(count)]
    in_out = []
    for x in range(count):
        verts = builder.plant(clique)
        in_pair = edge_key(verts[0], verts[1])
        out_pair = edge_key(verts[2], verts[3])
        in_out.append((in_pair, out_pair))
        groups[x].add(out_pair)
        if x not in pinned:
            groups[x].add(in_pair)
    for args in ternary:
        verts = builder.plant(clique)
        # the three lexicographically smallest edges of the clique, one
        # slot per argument position
        for position, x in enumerate(args):
            slot = edge_key(verts[0], verts[position + 1])
            groups[x].add(slot)
            # Three cliques glued from the out edge to the slot, each
            # sharing one edge (local pairs 0,1 and 2,3) with the next, so
            # one deletion anywhere forces the whole chain.
            groups[x].update(_build_chain(builder, clique, (0, 1), (2, 3), 3, in_out[x][1], slot))
    for x in range(count):
        pendants = base - 3 * occurrences[x] + (1 if x in pinned else 0)
        for _ in range(pendants):
            verts = builder.plant(clique, {0: in_out[x][0][0], 1: in_out[x][0][1]})
            groups[x].add(edge_key(verts[2], verts[3]))
    for x in sorted(pinned):
        builder.edges.discard(in_out[x][0])

    graph = Graph(builder.vertex_count, builder.edges)
    group_map = EdgeGroupMap(tuple(groups), base + 2)
    free = frozenset().union(*group_map.groups)
    return SandwichInstance(graph, named_pattern(f"k{n}e"), DELETION, free), group_map


def lift_quarantine(instance: SandwichInstance, polynomial=None):
    """The quarantine converted into pendant copies: the lifted instance and
    its budget, as lift_specific returns them.

    The quarantine is every edge of the deletion instance outside its free
    set. Delegates to the general deletion lift, which glues pattern copies
    over their single missing edge onto every quarantined edge. The
    default copy count per quarantined edge is the square of the total
    edge count, which dominates any solution the free edges can pay for;
    pass a smaller polynomial only for desk-scale checks.
    """
    if polynomial is None:
        edges = instance.graph.edge_count
        polynomial = Polynomial(1, 1, edges * edges - len(instance.free))
    return lift_specific(instance, "general-del", polynomial)


def reduce_knexdel_to_minones(g: Graph, n: int = 5):
    """One variable per edge; the constraints record the obstruction census.

    Every induced copy of the complete-minus-edge pattern contributes a
    wide "gn" constraint over its t - 1 edges (at least one must go), and
    every induced n-clique contributes an "fn" constraint over its t edges
    (none or at least two, since a clique short one edge is exactly the
    pattern). Deleting an edge set leaves the graph pattern-free exactly
    when the indicator assignment satisfies the instance. Returns the
    instance and an EdgeGroupMap of one-edge groups, variable i owning the
    i-th edge in sorted order.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    edge_vars = tuple(sorted(g.edges))
    index = {pair: i for i, pair in enumerate(edge_vars)}
    # Copies come as sorted vertex tuples, so their pairs, like edge_vars,
    # are in lexicographic order and the members come out sorted.
    constraints = [
        (f"{kind}{n}", tuple(index[pair] for pair in combinations(verts, 2) if pair in index))
        for kind, pattern in (("gn", complete_minus_edge(n)), ("fn", complete_graph(n)))
        for verts in enumerate_induced_copies(g, pattern)
    ]
    groups = EdgeGroupMap(tuple(frozenset({pair}) for pair in edge_vars), 1)
    return MinOnesInstance(len(edge_vars), tuple(constraints)), groups


def deletion_from_assignment(groups: EdgeGroupMap, assignment) -> frozenset:
    """Edges to delete for an assignment: the groups of its true variables."""
    if len(assignment) != len(groups.groups):
        raise ValueError("assignment length does not match the group map")
    return frozenset().union(*(group for group, value in zip(groups.groups, assignment) if value))


def assignment_from_deletion(groups: EdgeGroupMap, pairs) -> tuple:
    """Assignment read off a deletion set: a variable is true when its group
    is deleted. A group deleted only in part, or a deleted edge outside
    every group, is rejected."""
    deleted = {edge_key(u, v) for u, v in pairs}
    assignment = []
    for group in groups.groups:
        hit = len(group & deleted)
        if hit not in (0, len(group)):
            raise ValueError("a variable's group was deleted only in part")
        assignment.append(1 if hit else 0)
        deleted -= group
    if deleted:
        raise ValueError(f"{len(deleted)} deleted edges lie outside every group")
    return tuple(assignment)
