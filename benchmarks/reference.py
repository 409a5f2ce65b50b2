"""Oracles the benchmark checks hfree's answers against, written without hfree.

Graphs here are plain data: a vertex count and an iterable of (u, v) pairs.
Patterns are re-declared from their textbook definitions rather than taken
from `hfree.patterns`, so a bug there cannot hide behind a matching bug in
the reference. Every sweep is exhaustive and meant for hosts of at most
eight vertices.
"""

from __future__ import annotations

from itertools import combinations, permutations, product


def _complement_pairs(n, edges):
    edges = {tuple(sorted(e)) for e in edges}
    return [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges]


_P5 = [(0, 1), (1, 2), (2, 3), (3, 4)]

PATTERNS = {
    "c4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "c5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "p5": (5, _P5),
    "house": (5, _complement_pairs(5, _P5)),
    "wheel4": (5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
    "octahedron": (6, _complement_pairs(6, [(0, 1), (2, 3), (4, 5)])),
    "k5e": (5, [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (0, 1)]),
}


class InducedOracle:
    """Decides whether a small host has an induced copy of one pattern.

    Every relabelling of the pattern is stored as a bitmask over the
    position pairs of a sorted vertex subset, so a host subset matches when
    its own induced bitmask is in the set.
    """

    def __init__(self, name: str):
        p, edges = PATTERNS[name]
        edge_set = {tuple(sorted(e)) for e in edges}
        self.size = p
        self.pairs = list(combinations(range(p), 2))
        self.masks = set()
        for sigma in permutations(range(p)):
            mask = 0
            for bit, (i, j) in enumerate(self.pairs):
                if tuple(sorted((sigma[i], sigma[j]))) in edge_set:
                    mask |= 1 << bit
            self.masks.add(mask)

    def has_copy(self, n: int, edges) -> bool:
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        pairs = self.pairs
        masks = self.masks
        for verts in combinations(range(n), self.size):
            mask = 0
            for bit, (i, j) in enumerate(pairs):
                if adj[verts[i]] >> verts[j] & 1:
                    mask |= 1 << bit
            if mask in masks:
                return True
        return False


_ORACLES = {}


def oracle(name: str) -> InducedOracle:
    if name not in _ORACLES:
        _ORACLES[name] = InducedOracle(name)
    return _ORACLES[name]


def naive_minimum(n: int, edges, free, deletion: bool, pattern: str, cap=None):
    """Size of the smallest free subset whose application leaves the host
    free of the pattern, trying sizes upward; None when no subset of size
    at most `cap` (default: all of them) works."""
    edges = {tuple(sorted(e)) for e in edges}
    free = sorted(tuple(sorted(p)) for p in free)
    check = oracle(pattern)
    top = len(free) if cap is None else min(cap, len(free))
    for size in range(top + 1):
        for chosen in combinations(free, size):
            modified = edges - set(chosen) if deletion else edges | set(chosen)
            if not check.has_copy(n, modified):
                return size
    return None


def satisfiable(variable_count: int, clauses) -> bool:
    """Truth-table satisfiability of a DIMACS-style clause list."""
    for bits in product((False, True), repeat=variable_count):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause) for clause in clauses):
            return True
    return False


def minones_optimum(variable_count: int, constraints):
    """Fewest ones over assignments meeting every "f1" (not exactly one of
    three true) and "f2" (argument true) constraint, or None."""
    best = None
    for bits in product((0, 1), repeat=variable_count):
        ok = all(
            (sum(bits[x] for x in args) != 1) if kind == "f1" else bits[args[0]] == 1
            for kind, args in constraints
        )
        if ok and (best is None or sum(bits) < best):
            best = sum(bits)
    return best


def hfi_counts(text: str) -> tuple:
    """(vertices, edges, free pairs) read off hfi text line by line."""
    vertices = edges = free = 0
    for line in text.splitlines():
        if line.startswith("vertices "):
            vertices = int(line.split()[1])
        elif line.startswith("edge "):
            edges += 1
            free += line.endswith(" free")
        elif line.startswith("nonedge "):
            free += 1
    return vertices, edges, free


def minones_counts(text: str) -> tuple:
    """(variables, constraints) read off minones text line by line."""
    variables = constraints = 0
    for line in text.splitlines()[1:]:
        if line.startswith("nvars "):
            variables = int(line.split()[1])
        elif line:
            constraints += 1
    return variables, constraints
