"""Forbidden patterns and the small named library used throughout.

A Pattern is built from its graph alone: it refuses an empty graph,
stores the lexicographic non-edge list, the fact the reductions check
before building anything, and reads its vertex count off the graph.
Whether it is 3-connected (at least 3 vertices, survives removal of any
2) is computed each time it is read, by `require` and `hfree pattern
info`, so building a pattern runs no connectivity check.

named_pattern reads every pattern name from files and flags: the fixed
names (house, wheel4, octahedron) from one table, the families cN, pN, kN
and kNe from another through one regex, N in ASCII digits. Names are
case-insensitive and recorded canonically: "C05" is recorded as "c5".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .graphs import Graph, complement, is_3_connected


@dataclass(frozen=True)
class Pattern:
    """A graph with at least one vertex and its non-edges; the vertex count
    is the graph's, and `three_connected` is computed on each read."""

    graph: Graph
    name: str = field(default="", compare=False)
    non_edges: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if self.graph.vertex_count < 1:
            raise ValueError("pattern graph must have at least one vertex")
        object.__setattr__(self, "non_edges", tuple(self.graph.non_edges()))

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @property
    def three_connected(self) -> bool:
        return is_3_connected(self.graph)

    @property
    def edges(self):
        return self.graph.edges

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count


def require(pattern: Pattern, three_connected: bool = False, min_non_edges: int = 0, min_edges: int = 0) -> None:
    """Validate reduction preconditions, in a fixed order so error messages
    are stable: connectivity first, then non-edge count, then edge count."""
    if three_connected and not pattern.three_connected:
        raise ValueError(f"pattern {pattern.name or pattern.graph!r} is not 3-connected")
    if len(pattern.non_edges) < min_non_edges:
        raise ValueError(
            f"pattern needs {min_non_edges} non-edges, has {len(pattern.non_edges)}"
        )
    if pattern.edge_count < min_edges:
        raise ValueError(f"pattern needs {min_edges} edges, has {pattern.edge_count}")


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_minus_edge(n: int) -> Graph:
    """K_n with the lexicographically smallest edge (0, 1) removed."""
    if n < 3:
        raise ValueError("need at least 3 vertices for a meaningful missing edge")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)])


def wheel_graph(rim: int) -> Graph:
    """Cycle of the given length plus a hub adjacent to every rim vertex."""
    if rim < 3:
        raise ValueError("wheel rim needs at least 3 vertices")
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges.extend((i, rim) for i in range(rim))
    return Graph(rim + 1, edges)


def house_graph() -> Graph:
    """Complement of the 5-vertex path: a 4-cycle with a triangle roof."""
    return complement(path_graph(5))


def octahedron_graph() -> Graph:
    """K_2,2,2: the complement of a perfect matching on 6 vertices."""
    matching = {(0, 1), (2, 3), (4, 5)}
    return Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if (i, j) not in matching])


def complement_pattern(pattern: Pattern) -> Pattern:
    """Pattern on the complement graph.

    Names stay resolvable: a "co-" prefix is added, and complementing twice
    strips it again, so instances written to disk keep a loadable name.
    """
    if pattern.name.startswith("co-"):
        name = pattern.name[3:]
    elif pattern.name:
        name = "co-" + pattern.name
    else:
        name = ""
    return Pattern(complement(pattern.graph), name)


# A family name is a letter, the order and an optional "e"; kNe is keyed "ke".
_FIXED = {"house": house_graph, "wheel4": lambda: wheel_graph(4), "octahedron": octahedron_graph}
_FAMILIES = {"c": cycle_graph, "p": path_graph, "k": complete_graph, "ke": complete_minus_edge}
_FAMILY_NAME = re.compile(r"([a-z])([0-9]+)(e?)")


def named_pattern(name: str) -> Pattern:
    """Look up a pattern by name; a "co-" prefix takes the complement."""
    key = name.strip().lower()
    if key.startswith("co-"):
        return complement_pattern(named_pattern(key[3:]))
    if key in _FIXED:
        return Pattern(_FIXED[key](), key)
    match = _FAMILY_NAME.fullmatch(key)
    family = match and _FAMILIES.get(match[1] + match[3])
    if family is None:
        raise ValueError(f"unknown pattern name: {name!r}")
    n = int(match[2])
    return Pattern(family(n), f"{match[1]}{n}{match[3]}")
