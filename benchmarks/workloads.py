"""Seeded inputs and reference checks for the three benchmark workloads.

Each workload turns a seed into a population of inputs and hands out
rounds: stratified draws from that population, so every round has the same
mix of item kinds and the heavy items appear a fixed number of times. The
random populations of every seed are those of seed 0 renamed at random, and
certify and ladders rounds walk through them in turn, in an order shuffled
by the seed: a seed changes what hfree sees but not how much work a round
holds. Items
call hfree through module attributes (`verify.verify_gap`, not a bound
name), so the tracer's rebinding reaches them.

certify  the checks that compare hfree against brute force. Seed 0 builds
         exactly the acceptance corpora of tests/test_acceptance.py (formula
         seed 101, gap seed 73, duality seed 47).
ladders  the solver alone on sparse hosts: disjoint squares and houses
         for growing k, existence on hundreds of squares, opt-scaling, and
         small random instances against a naive sweep.
translate  `hfree.cli.main` round trips through files with no solving;
         every output's sha256 was recorded at the commit that added the
         benchmark and must not change.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import hfree.cli as cli
import hfree.formats as formats
import hfree.solver as solver
import hfree.verify as verify
from hfree.cnf import formula
from hfree.graphs import Graph
from hfree.minones import MinOnesInstance
from hfree.patterns import named_pattern
from hfree.reductions import Polynomial
from hfree.solver import COMPLETION, DELETION, SandwichInstance

import reference
from harness import PASS, SKIPPED, WRONG, Item

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "translate_digests.json"


def _renamer(base: int, seed: int):
    """The random source that renames population `base` for `seed`, or
    None for seed 0, whose inputs are used as drawn.

    Every seed renames seed 0's inputs rather than drawing its own: graphs
    get their vertices permuted, formulas their variables permuted and their
    polarities flipped, counting instances their variables permuted. A
    renamed input has the same answer as its original and close to the same
    cost, while fresh draws per seed moved a certify round's time by up to a
    fifth (a gap family's 40 draws took 0.42 s for one seed, 1.13 s for
    another)."""
    return random.Random(f"rename:{base}:{seed}") if seed else None


def _permutation(rng, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def rename_graph(g: Graph, perm) -> Graph:
    return Graph(g.vertex_count, ((perm[u], perm[v]) for u, v in g.edges))


def rename_instance(rng, instance: SandwichInstance) -> SandwichInstance:
    perm = _permutation(rng, instance.graph.vertex_count)
    free = frozenset((perm[u], perm[v]) for u, v in instance.free)
    return SandwichInstance(rename_graph(instance.graph, perm), instance.pattern, instance.mode, free)


def rename_formula(rng, f):
    """Variables permuted and each variable's polarity flipped at random;
    satisfiability is unchanged."""
    perm = _permutation(rng, f.variable_count)
    sign = [rng.choice((1, -1)) for _ in range(f.variable_count)]

    def lit(x):
        v = abs(x) - 1
        return (perm[v] + 1) * sign[v] * (1 if x > 0 else -1)

    return formula(f.variable_count, [tuple(lit(x) for x in clause) for clause in f.clauses])


def rename_minones(rng, inst: MinOnesInstance) -> MinOnesInstance:
    perm = _permutation(rng, inst.variable_count)
    return MinOnesInstance(
        inst.variable_count, tuple((kind, tuple(perm[x] for x in args)) for kind, args in inst.constraints)
    )


def _sampler(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _cycle(pool, count: int, position: int) -> list:
    """Draw number `position` of `count` entries when draws walk through
    `pool` in turn. Rounds draw this way, not at random: every seed takes
    the same population indices in a round, renamed its own way and
    shuffled into its own order, so no seed draws a lighter or a heavier
    run (one gap input that random draws took in some runs and not in
    others moved peak memory by 2 MB)."""
    pool = list(pool)
    return [pool[(position * count + j) % len(pool)] for j in range(count)]


def random_graph(rng, vertex_count, density) -> Graph:
    edges = {pair for pair in combinations(range(vertex_count), 2) if rng.random() < density}
    return Graph(vertex_count, edges)


def spans_square(vertex_count, pairs) -> bool:
    """Some four-cycle is a subgraph of the pairs (two vertices share two
    neighbours)."""
    adj = [set() for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return any(len(adj[u] & adj[v]) >= 2 for u, v in combinations(range(vertex_count), 2))


def _report_status(report, expected: dict) -> str:
    if report.verdict == "skipped":
        return SKIPPED
    if report.verdict != "pass":
        return WRONG
    return PASS if all(str(report.details.get(k)) == str(v) for k, v in expected.items()) else WRONG


def _naive(instance: SandwichInstance, cap=None):
    return reference.naive_minimum(
        instance.graph.vertex_count,
        instance.graph.edges,
        instance.free,
        instance.mode == DELETION,
        instance.pattern.name,
        cap,
    )


# ---------------------------------------------------------------------------
# certify

GENERAL_PATTERNS = ("wheel4", "octahedron")
GAP_POLY = Polynomial(1, 1, 1)
GAP_SPECS = {
    "general-del": (("wheel4", "k5e"), DELETION),
    "general-comp": (("wheel4", "k5e"), COMPLETION),
    "c4-del": (("c4",), DELETION),
    "c5-del": (("c5",), DELETION),
    "c4-comp": (("c4",), COMPLETION),
    "house-comp": (("house",), COMPLETION),
    "house-del": (("c4",), DELETION),
}
# Items per round. The mix is chosen so that p50 and p90 fall inside dense
# bands of similar items rather than between kinds: the duality checks
# (0.2 to 0.9 ms each) hold the middle of the distribution and the c4-comp
# equivalence checks (50 to 110 ms) sit at p90. Duality checks are drawn
# evenly over their (pattern, budget) cells. Random house-del draws range
# from 0.2 ms to 2.6 s and rigid kernels from 1 ms to 0.35 s depending on
# their anchor count, so the rigid NO case of every family is pinned with all
# its anchors (for house-del, the worst case of the acceptance corpus) and
# house-del gets no random draws. A two-clause formula can take several times
# as long as a one-clause one, so each target draws a fixed number of each:
# half its formulas (rounded down) have two clauses.
EQUIVALENCE_PLAN = (  # (target, pattern, formulas per round)
    ("general-del", "wheel4", 3),
    ("general-del", "octahedron", 3),
    ("general-comp", "wheel4", 3),
    ("general-comp", "octahedron", 3),
    ("c4-del", None, 3),
    ("c5-del", None, 3),
    ("c4-comp", None, 20),
    ("house-comp-via-c4", None, 1),
)
FORCED_ROUTES = tuple((t, p) for t in ("general-del", "general-comp") for p in GENERAL_PATTERNS)
GAP_RANDOM_PER_ROUND = 5
DUALITY_PER_CELL = 10
DUALITY_PATTERNS = ("house", "c5", "p5")


def formula_population(seed: int):
    """104 random formulas (at most 3 variables, 2 clauses; every other one
    with distinct variables per clause) then 4 forced-UNSAT pairs."""
    rng = random.Random(101)
    out = []
    for i in range(104):
        distinct = i % 2 == 0
        n = 3 if distinct else rng.randint(1, 3)
        clauses = []
        for _ in range(rng.randint(1, 2)):
            chosen = rng.sample(range(1, 4), 3) if distinct else [rng.randint(1, n) for _ in range(3)]
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        out.append(formula(n, clauses))
    for n, v in ((1, 1), (2, 2), (3, 1), (3, 3)):
        out.append(formula(n, [(v, v, v), (-v, -v, -v)]))
    renamer = _renamer(101, seed)
    return tuple(rename_formula(renamer, f) for f in out) if renamer else tuple(out)


def rigid_kernel_instance(rng, family, anchors=None) -> SandwichInstance:
    """A NO instance: the pattern sits rigid and every free pair touches one
    fresh vertex."""
    names, mode = GAP_SPECS[family]
    pattern = named_pattern(rng.choice(names))
    kernel = pattern.graph
    w = kernel.vertex_count
    if anchors is None:
        anchors = rng.sample(range(w), rng.randint(0, min(4, w)))
    free = frozenset((u, w) for u in anchors)
    edges = set(kernel.edges) | (set(free) if mode == DELETION else set())
    return SandwichInstance(Graph(w + 1, edges), pattern, mode, free)


def gap_population(seed: int) -> dict:
    """50 instances per lift family: 40 random draws with at most 6 free
    pairs (the house-del ones with square-free free pairs), then 10
    rigid-kernel NO instances."""
    rng = random.Random(73)
    renamer = _renamer(73, seed)
    corpus = {}
    for family, (names, mode) in GAP_SPECS.items():
        bucket = []
        while len(bucket) < 40:
            g = random_graph(rng, rng.randint(4, 6), rng.choice((0.35, 0.55, 0.75)))
            pool = sorted(g.edges) if mode == DELETION else sorted(set(g.non_edges()))
            free = frozenset(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
            if family == "house-del" and spans_square(g.vertex_count, free):
                continue
            bucket.append(SandwichInstance(g, named_pattern(rng.choice(names)), mode, free))
        bucket.extend(rigid_kernel_instance(rng, family) for _ in range(10))
        corpus[family] = tuple(rename_instance(renamer, i) for i in bucket) if renamer else tuple(bucket)
    return corpus


def full_rigid_kernel(family) -> SandwichInstance:
    """The rigid-kernel NO instance with the most anchors. For house-del it
    is the slowest gap check of the acceptance corpus (house-del item 46)."""
    return rigid_kernel_instance(random.Random(0), family, anchors=(0, 1, 2, 3))


def duality_population(seed: int):
    """204 (graph, pattern name, budget) triples on 4 to 7 vertices."""
    rng = random.Random(47)
    renamer = _renamer(47, seed)
    out = []
    for i in range(204):
        g = random_graph(rng, rng.randint(4, 7), rng.choice((0.3, 0.5, 0.7)))
        if renamer:
            g = rename_graph(g, _permutation(renamer, g.vertex_count))
        out.append((g, DUALITY_PATTERNS[i % 3], i % 4))
    return tuple(out)


class Certify:
    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.formulas = formula_population(seed)
        self.gaps = gap_population(seed)
        self.dualities = duality_population(seed)
        self.rigid = {family: full_rigid_kernel(family) for family in GAP_SPECS}
        self._references = {}

    def _reference(self, key, compute):
        """References are pure functions of the input, so each is computed
        once per run."""
        if key not in self._references:
            self._references[key] = compute()
        return self._references[key]

    def _equivalence(self, index, target, pattern) -> Item:
        f = self.formulas[index]

        def call():
            return verify.verify_sat_equivalence(f, target, named_pattern(pattern) if pattern else None)

        def check(report):
            sat = self._reference(("sat", index), lambda: reference.satisfiable(f.variable_count, f.clauses))
            return _report_status(report, {"sat": "yes" if sat else "no"})

        return Item(f"eq/{target}/{pattern or '-'}/{index}", call, check)

    def _gap(self, name, instance, family) -> Item:
        def check(report):
            solvable = self._reference(("gap", name), lambda: _naive(instance) is not None)
            return _report_status(report, {"side": "yes" if solvable else "no"})

        return Item(name, lambda: verify.verify_gap(instance, family, GAP_POLY), check)

    def _duality(self, index) -> Item:
        g, pattern, budget = self.dualities[index]

        def call():
            return verify.verify_duality(g, named_pattern(pattern), budget)

        def check(report):
            solvable = self._reference(
                ("dual", index),
                lambda: reference.naive_minimum(g.vertex_count, g.edges, g.edges, True, pattern, budget)
                is not None,
            )
            return _report_status(report, {"deletion": "yes" if solvable else "no"})

        return Item(f"dual/{pattern}/{index}", call, check)

    def round(self, r: int) -> list:
        rng = _sampler(self.name, self.seed, r)
        items = [self._gap(f"gap/{family}/rigid", instance, family) for family, instance in self.rigid.items()]
        for target, pattern, count in EQUIVALENCE_PLAN:
            pool = range(104) if pattern else range(0, 104, 2)
            by_clauses = [[i for i in pool if len(self.formulas[i].clauses) == k] for k in (1, 2)]
            for bucket, drawn in zip(by_clauses, (count - count // 2, count // 2)):
                items.extend(self._equivalence(i, target, pattern) for i in _cycle(bucket, drawn, r))
        target, pattern = FORCED_ROUTES[r % len(FORCED_ROUTES)]
        items.append(self._equivalence(104 + r % 4, target, pattern))
        for family, bucket in self.gaps.items():
            if family != "house-del":
                for i in _cycle(range(40), GAP_RANDOM_PER_ROUND, r):
                    items.append(self._gap(f"gap/{family}/{i}", bucket[i], family))
        cells = {}
        for i in range(len(self.dualities)):
            cells.setdefault((i % 3, i % 4), []).append(i)
        for cell in cells.values():
            items.extend(self._duality(i) for i in _cycle(cell, DUALITY_PER_CELL, r))
        rng.shuffle(items)
        return items

    def final_checks(self) -> list:
        return []


# ---------------------------------------------------------------------------
# ladders

# Node cap for every solve call of the ladders. At the commit that added
# the benchmark the passing rungs stay under it (squares at k=8 need 21,845
# nodes in their largest call) while squares at k=10 and houses at k=7
# exceed it and count as failed until the solver scales.
NODE_CAP = 25_000
MIN_RUNGS = (("c4", 2), ("c4", 4), ("c4", 6), ("c4", 8), ("c4", 10),
             ("house", 2), ("house", 4), ("house", 6), ("house", 7))
# Existence on 1100 squares recurses past Python's default limit at the
# commit that added the benchmark; it stays in as a failing item.
EXISTENCE_RUNGS = (600, 1100)
# Houses at k=6 (about 0.3 s, between the five heavier rungs and all other
# items) run ten times a round. Batches of small instances fall in two
# bands: c4 completion, c5, house completion and p5 take 0.3 to 1.5 ms a
# batch, c4 deletion, house deletion and k5e 0.5 to 6 ms. With 20 batches of
# each light kind and 6 of each heavy one, of the 122 items a round p50
# falls well inside the light band and p90 inside the band of house-6
# solves, rather than between two kinds of item (with equal counts p50 sat
# at the light band's top edge and spread by a fifth between runs of one
# seed). A batch of 5 instances, rather than one, keeps p50 from hinging on
# which instances a seed draws.
RUNG_REPEATS = {("house", 6): 10}
SMALL_BATCH = 5
SCALING_PER_ROUND = 4
SMALL_BATCHES = {  # (pattern, mode): batches per round
    ("c4", DELETION): 6, ("c5", DELETION): 20, ("house", DELETION): 6,
    ("c4", COMPLETION): 20, ("house", COMPLETION): 20, ("k5e", DELETION): 6, ("p5", DELETION): 20,
}
RANDOM_SPECS = tuple(SMALL_BATCHES)


def disjoint_copies(pattern_name: str, k: int) -> SandwichInstance:
    """k disjoint copies of a pattern with every edge deletable; the
    optimum is k by construction."""
    pattern = named_pattern(pattern_name)
    p = pattern.vertex_count
    edges = [(u + i * p, v + i * p) for i in range(k) for u, v in pattern.edges]
    g = Graph(p * k, edges)
    return SandwichInstance(g, pattern, DELETION, g.edges)


def _hits_every_copy(solution, instance: SandwichInstance, k: int) -> bool:
    """A deletion set is a solution of k disjoint connected copies exactly
    when it removes an edge of each copy."""
    p = instance.pattern.vertex_count
    if not solution <= instance.free:
        return False
    return len({u // p for u, _ in solution}) == k


def _solves(solution, instance: SandwichInstance) -> bool:
    """The solution is a set of free pairs whose application leaves the host
    without an induced copy of the pattern, by the reference oracle."""
    if not solution <= instance.free:
        return False
    edges = set(instance.graph.edges)
    modified = edges - solution if instance.mode == DELETION else edges | solution
    return not reference.oracle(instance.pattern.name).has_copy(instance.graph.vertex_count, modified)


def desk_base(constraints, variable_count) -> int:
    """Smallest pendant base the clique complex accepts, floored at 6."""
    seen = set()
    occurrences = [0] * variable_count
    for kind, args in constraints:
        if kind == "f1" and tuple(sorted(args)) not in seen:
            seen.add(tuple(sorted(args)))
            for x in args:
                occurrences[x] += 1
    return max(6, 3 * max(occurrences, default=0))


def scaling_population(seed: int):
    """48 counting instances on 1 to 3 variables whose quarantined instance
    stays under verify's 40-edge guard."""
    rng = random.Random(211)
    renamer = _renamer(211, seed)
    out = []
    while len(out) < 48:
        nvars = rng.randint(1, 3)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                constraints.append(("f1", tuple(rng.randrange(nvars) for _ in range(3))))
            else:
                constraints.append(("f2", (rng.randrange(nvars),)))
        base = desk_base(constraints, nvars)
        if (base + 2) * nvars <= verify.SCALING_FREE_GUARD:
            inst = MinOnesInstance(nvars, tuple(constraints))
            out.append((rename_minones(renamer, inst) if renamer else inst, base))
    return tuple(out)


def small_population(seed: int) -> dict:
    """Per (pattern, mode), 60 random sandwich instances of one shape (6
    vertices, 8 free pairs) with their naive optimum. Only hosts that hold a
    copy are kept, so the solver always has to search; one shape keeps the
    solve times close, so p50 does not hinge on which hosts a seed draws."""
    rng = random.Random(83)
    renamer = _renamer(83, seed)
    out = {}
    for spec in RANDOM_SPECS:
        name, mode = spec
        bucket = []
        while len(bucket) < 60:
            g = random_graph(rng, 6, 0.75 if mode == DELETION else 0.35)
            pool = sorted(g.edges) if mode == DELETION else sorted(set(g.non_edges()))
            if len(pool) < 8:
                continue
            instance = SandwichInstance(g, named_pattern(name), mode, frozenset(rng.sample(pool, 8)))
            if renamer:
                instance = rename_instance(renamer, instance)
            optimum = _naive(instance)
            if optimum != 0:
                bucket.append((instance, optimum))
        out[spec] = tuple(bucket)
    return out


class Ladders:
    name = "ladders"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rungs = {(name, k): disjoint_copies(name, k) for name, k in MIN_RUNGS}
        self.existence = {k: disjoint_copies("c4", k) for k in EXISTENCE_RUNGS}
        self.scaling = scaling_population(seed)
        self.small = small_population(seed)

    def _min_rung(self, name, k) -> Item:
        instance = self.rungs[(name, k)]

        def check(solution):
            ok = solution is not None and len(solution) == k and _hits_every_copy(solution, instance, k)
            return PASS if ok else WRONG

        return Item(f"min/{name}/{k}", lambda: solver.solve_min(instance, node_limit=NODE_CAP), check)

    def _existence(self, k) -> Item:
        instance = self.existence[k]

        def check(solution):
            return PASS if solution is not None and _hits_every_copy(solution, instance, k) else WRONG

        return Item(f"exist/c4/{k}", lambda: solver.solve_sandwich(instance, node_limit=NODE_CAP), check)

    def _scaling(self, index) -> Item:
        inst, base = self.scaling[index]

        def check(report):
            ones = reference.minones_optimum(inst.variable_count, inst.constraints)
            group = base + 2
            expected = {"ones": "none", "cost": "none"} if ones is None else {"ones": ones, "cost": group * ones}
            return _report_status(report, {"group_size": group, **expected})

        return Item(
            f"scaling/{index}", lambda: verify.verify_opt_scaling(inst, 5, pendant_base=base), check
        )

    def _small(self, spec, indices) -> Item:
        """One item solving a batch of small instances."""
        batch = [self.small[spec][i] for i in indices]

        def call():
            return [solver.solve_min(instance, node_limit=NODE_CAP) for instance, _ in batch]

        def optimal(solution, instance, optimum):
            if solution is None or optimum is None:
                return solution is optimum
            return len(solution) == optimum and _solves(solution, instance)

        def check(solutions):
            ok = len(solutions) == len(batch) and all(
                optimal(solution, instance, optimum) for solution, (instance, optimum) in zip(solutions, batch)
            )
            return PASS if ok else WRONG

        name, mode = spec
        return Item(f"small/{name}/{mode}/{'+'.join(map(str, indices))}", call, check)

    def round(self, r: int) -> list:
        rng = _sampler(self.name, self.seed, r)
        items = [self._min_rung(name, k) for name, k in MIN_RUNGS for _ in range(RUNG_REPEATS.get((name, k), 1))]
        items.extend(self._existence(k) for k in EXISTENCE_RUNGS)
        items.extend(self._scaling(i) for i in _cycle(range(len(self.scaling)), SCALING_PER_ROUND, r))
        for spec, bucket in self.small.items():
            for b in range(SMALL_BATCHES[spec]):
                position = r * SMALL_BATCHES[spec] + b
                items.append(self._small(spec, _cycle(range(len(bucket)), SMALL_BATCH, position)))
        rng.shuffle(items)
        return items

    def final_checks(self) -> list:
        return []


# ---------------------------------------------------------------------------
# translate

# The pool is fixed; the seed only chooses which pool entries a round uses,
# so every output has a digest recorded in translate_digests.json.
POOL_SEED = 2016
POOL_FORMULAS = 24
POOL_LIFTS = 6
POOL_MINONES = 12
POOL_GRAPHS = 12
FORMULAS_PER_ROUND = 2
COUNTING_PER_ROUND = 2
LIFT_POLY = "1,1,1"
REDUCE_TARGETS = (
    ("sat2del-wheel4", ["reduce", "sat2del", "--pattern", "wheel4"]),
    ("sat2del-octahedron", ["reduce", "sat2del", "--pattern", "octahedron"]),
    ("sat2comp-wheel4", ["reduce", "sat2comp", "--pattern", "wheel4"]),
    ("sat2comp-octahedron", ["reduce", "sat2comp", "--pattern", "octahedron"]),
    ("c4del", ["reduce", "c4del"]),
    ("c5del", ["reduce", "c5del"]),
    ("c4comp", ["reduce", "c4comp"]),
    ("house-comp", ["reduce", "house-comp"]),
)


def dimacs(f) -> str:
    lines = [f"p cnf {f.variable_count} {len(f.clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in f.clauses)
    return "\n".join(lines) + "\n"


def hfi(instance: SandwichInstance) -> str:
    """hfi text for an instance, written by the benchmark itself."""
    lines = ["hfi 1", f"mode {instance.mode}", f"pattern {instance.pattern.name}",
             f"vertices {instance.graph.vertex_count}"]
    for u, v in sorted(instance.graph.edges):
        free = instance.mode == DELETION and (u, v) in instance.free
        lines.append(f"edge {u} {v}" + (" free" if free else ""))
    if instance.mode == COMPLETION:
        lines.extend(f"nonedge {u} {v} free" for u, v in sorted(instance.free))
    return "\n".join(lines) + "\n"


def minones_text(inst: MinOnesInstance) -> str:
    lines = ["minones 1", f"nvars {inst.variable_count}"]
    lines.extend(f"{kind} " + " ".join(map(str, args)) for kind, args in inst.constraints)
    return "\n".join(lines) + "\n"


def translate_pool():
    """(formulas, lift instances by family, counting instances, graphs).

    Every input of one kind has the same shape, so rounds cost about the
    same whichever pool entries a seed picks: formulas have 4 variables, 3
    clauses and every variable twice or more (so the c4comp ladder needs no
    duplicated clauses), lift sources 5 vertices and 2 free pairs, counting
    instances 2 variables, and graphs 6 vertices.
    """
    rng = random.Random(POOL_SEED)
    formulas = []
    while len(formulas) < POOL_FORMULAS:
        clauses = [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 5), 3)) for _ in range(3)]
        counts = [sum(abs(lit) == v for clause in clauses for lit in clause) for v in range(1, 5)]
        if min(counts) >= 2:
            formulas.append(formula(4, clauses))
    lifts = {}
    for family, (names, mode) in GAP_SPECS.items():
        bucket = []
        while len(bucket) < POOL_LIFTS:
            g = random_graph(rng, 5, 0.55)
            pool = sorted(g.edges) if mode == DELETION else sorted(set(g.non_edges()))
            if len(pool) < 2:
                continue
            free = frozenset(rng.sample(pool, 2))
            if family == "house-del" and spans_square(g.vertex_count, free):
                continue
            bucket.append(SandwichInstance(g, named_pattern(rng.choice(names)), mode, free))
        lifts[family] = tuple(bucket)
    counting = []
    while len(counting) < POOL_MINONES:
        constraints = [("f1", tuple(rng.randrange(2) for _ in range(3))) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            constraints.append(("f2", (rng.randrange(2),)))
        counting.append(MinOnesInstance(2, tuple(constraints)))
    graphs = []
    while len(graphs) < POOL_GRAPHS:
        g = random_graph(rng, 6, 0.75)
        graphs.append(SandwichInstance(g, named_pattern("k5e"), DELETION, g.edges))
    return tuple(formulas), lifts, tuple(counting), tuple(graphs)


def translate_jobs(pool, formula_ids, lift_ids, counting_ids, graph_ids):
    """(key, input name, input text or None, argv, output name) in run order.
    An input text of None means the input is an earlier job's output."""
    formulas, lifts, counting, graphs = pool
    jobs = []
    for i in formula_ids:
        source, text = f"f{i:02d}.cnf", dimacs(formulas[i])
        for n, (name, argv) in enumerate(REDUCE_TARGETS):
            jobs.append((f"f{i:02d}/{name}", source, text if n == 0 else None, argv, f"f{i:02d}-{name}.hfi"))
        for name, _ in REDUCE_TARGETS:
            jobs.append((f"f{i:02d}/complement-{name}", f"f{i:02d}-{name}.hfi", None,
                         ["complement"], f"f{i:02d}-{name}-co.hfi"))
        jobs.append((f"f{i:02d}/house-del", f"f{i:02d}-c4del.hfi", None,
                     ["reduce", "house-del", "--poly", LIFT_POLY], f"f{i:02d}-house-del.hfi"))
    for family, i in lift_ids:
        key = f"lift-{family}-{i}"
        jobs.append((f"lift/{family}/{i}", f"{key}.hfi", hfi(lifts[family][i]),
                     ["lift", "--family", family, "--poly", LIFT_POLY], f"{key}-out.hfi"))
    for i in counting_ids:
        jobs.append((f"minones2graph/{i}", f"m{i:02d}.txt", minones_text(counting[i]),
                     ["reduce", "minones2graph"], f"m{i:02d}-graph.hfi"))
    for i in graph_ids:
        jobs.append((f"graph2minones/{i}", f"g{i:02d}.hfi", hfi(graphs[i]),
                     ["reduce", "graph2minones"], f"g{i:02d}-minones.txt"))
    return jobs


def output_record(text: str) -> list:
    """[sha256, counts...] of one output: hfi gives vertices, edges and free
    pairs, minones text gives variables and constraints."""
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    counts = reference.minones_counts(text) if text.startswith("minones") else reference.hfi_counts(text)
    return [digest, *counts]


class Translate:
    name = "translate"

    def __init__(self, seed: int, workdir: Path, digests=None):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pool = translate_pool()
        if digests is None:
            digests = json.loads(DIGESTS.read_text(encoding="ascii"))
        self.digests = digests
        self.round0 = []

    def items_for(self, jobs) -> list:
        """Write the jobs' input files and return one item per CLI call."""
        items = []
        for key, source, text, argv, target in jobs:
            src = self.workdir / source
            out = self.workdir / target
            if text is not None:
                src.write_text(text, encoding="ascii")
            full = [*argv, "-i", str(src), "-o", str(out)]

            def call(full=full):
                return cli.main(full)

            def check(code, key=key, out=out):
                if code != 0:
                    return WRONG
                got = output_record(out.read_text(encoding="ascii"))
                return PASS if got == self.digests.get(key) else WRONG

            items.append(Item(f"translate/{key}", call, check))
        return items

    def round(self, r: int) -> list:
        rng = _sampler(self.name, self.seed, r)
        formulas, lifts, counting, graphs = self.pool
        jobs = translate_jobs(
            self.pool,
            rng.sample(range(len(formulas)), FORMULAS_PER_ROUND),
            [(family, rng.randrange(len(bucket))) for family, bucket in lifts.items()],
            rng.sample(range(len(counting)), COUNTING_PER_ROUND),
            rng.sample(range(len(graphs)), COUNTING_PER_ROUND),
        )
        if r == 0:
            self.round0 = [(key, self.workdir / target) for key, _, _, _, target in jobs]
        return self.items_for(jobs)

    def final_checks(self) -> list:
        """Re-parse every output of round 0 with hfree's own parsers and
        compare the counts with the recorded ones."""
        problems = []
        for key, path in self.round0:
            text = path.read_text(encoding="ascii")
            want = self.digests.get(key, [None])[1:]
            if text.startswith("minones"):
                inst = formats.parse_minones(text)
                got = [inst.variable_count, len(inst.constraints)]
            else:
                instance = formats.parse_instance(text).instance
                got = [instance.graph.vertex_count, len(instance.graph.edges), len(instance.free)]
            if got != want:
                problems.append(f"{key}: re-parsed counts {got}, recorded {want}")
        return problems


WORKLOADS = {w.name: w for w in (Certify, Ladders, Translate)}
