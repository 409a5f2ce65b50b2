"""Acceptance scoreboard for the toolkit's headline guarantees.

Every test prints one `criterion N ...: PASS/FAIL` line (run with -s to
see the scoreboard). Corpora are seeded and cached at module level, and
the later criteria deliberately reuse the earlier corpora: the structural
scans and size identities run against exactly the instances whose
equivalence was just checked.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache

from hfree.cnf import duplicate_for_min_occurrences, formula, sat_brute_force
from hfree.gadgets import (
    has_c4_subgraph,
    lift_specific,
    reduce_3sat_to_c4comp,
    reduce_3sat_to_c4del,
)
from hfree.graphs import Graph, edge_key, is_h_free
from hfree.minones import (
    MinOnesInstance,
    assignment_from_deletion,
    minones_brute_force,
    reduce_knexdel_to_minones,
    reduce_minones_to_quarantined,
    satisfies_instance,
)
from hfree.patterns import named_pattern
from hfree.reductions import (
    Polynomial,
    reduce_3sat_to_sandwich_comp,
    reduce_3sat_to_sandwich_del,
)
from hfree.solver import (
    COMPLETION,
    DELETION,
    SandwichInstance,
    solve_min,
    solve_sandwich,
)
from hfree.verify import verify_duality, verify_gadget_contracts, verify_gap

GENERAL_PATTERNS = ("wheel4", "octahedron")
GAP_POLY = Polynomial(1, 1, 1)


def record(number, name, passed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {name}: {'PASS' if passed else 'FAIL'}{suffix}")
    assert passed, f"criterion {number} {name}"


def random_graph(rng, vertex_count, density):
    edges = {
        pair
        for pair in itertools.combinations(range(vertex_count), 2)
        if rng.random() < density
    }
    return Graph(vertex_count, edges)


@lru_cache(maxsize=None)
def formula_corpus():
    """104 formulas, at most 3 variables and 2 clauses; every other one
    keeps the variables of each clause pairwise distinct so the wired
    reductions can consume it too."""
    rng = random.Random(101)
    out = []
    for i in range(104):
        distinct = i % 2 == 0
        n = 3 if distinct else rng.randint(1, 3)
        clauses = []
        for _ in range(rng.randint(1, 2)):
            if distinct:
                chosen = rng.sample(range(1, 4), 3)
            else:
                chosen = [rng.randint(1, n) for _ in range(3)]
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        out.append(formula(n, clauses))
    # Random draws here are almost never unsatisfiable, so force the NO
    # side with repeated-literal forcing pairs (the general reductions
    # accept clauses with repeated variables).
    for n, v in ((1, 1), (2, 2), (3, 1), (3, 3)):
        out.append(formula(n, [(v, v, v), (-v, -v, -v)]))
    return tuple(out)


GAP_SPECS = {
    "general-del": (("wheel4", "k5e"), DELETION),
    "general-comp": (("wheel4", "k5e"), COMPLETION),
    "c4-del": (("c4",), DELETION),
    "c5-del": (("c5",), DELETION),
    "c4-comp": (("c4",), COMPLETION),
    "house-comp": (("house",), COMPLETION),
    "house-del": (("c4",), DELETION),
}


def rigid_kernel_instance(rng, family):
    """A guaranteed NO instance: the pattern itself sits rigid in the
    graph, and every free pair touches a fresh vertex, so no solution can
    break the induced copy on the kernel vertices."""
    names, mode = GAP_SPECS[family]
    pattern = named_pattern(rng.choice(names))
    kernel = pattern.graph
    w = kernel.vertex_count
    anchors = rng.sample(range(w), rng.randint(0, min(4, w)))
    if mode == DELETION:
        edges = set(kernel.edges) | {(u, w) for u in anchors}
        free = frozenset((u, w) for u in anchors)
        return SandwichInstance(Graph(w + 1, edges), pattern, mode, free)
    free = frozenset((u, w) for u in anchors)
    return SandwichInstance(Graph(w + 1, set(kernel.edges)), pattern, mode, free)


@lru_cache(maxsize=None)
def gap_corpus():
    """50 sandwich instances per lift family, each with at most 6 free
    pairs: 40 random draws plus 10 rigid-kernel NO instances. The house
    translation input additionally keeps its free edges
    square-subgraph-free, which is what the translation demands."""
    rng = random.Random(73)
    corpus = {}
    for family, (names, mode) in GAP_SPECS.items():
        bucket = []
        while len(bucket) < 40:
            g = random_graph(rng, rng.randint(4, 6), rng.choice((0.35, 0.55, 0.75)))
            pool = sorted(g.edges) if mode == DELETION else sorted(set(g.non_edges()))
            size = rng.randint(0, min(6, len(pool)))
            free = frozenset(rng.sample(pool, size))
            if family == "house-del" and has_c4_subgraph(Graph(g.vertex_count, free)):
                continue
            bucket.append(SandwichInstance(g, named_pattern(rng.choice(names)), mode, free))
        bucket.extend(rigid_kernel_instance(rng, family) for _ in range(10))
        corpus[family] = tuple(bucket)
    return corpus


def test_criterion_01_general_deletion_equivalence():
    ok = True
    checked = unsat = 0
    for f in formula_corpus():
        sat = sat_brute_force(f) is not None
        unsat += 0 if sat else 1
        for name in GENERAL_PATTERNS:
            instance, _ = reduce_3sat_to_sandwich_del(f, named_pattern(name))
            ok = ok and (solve_sandwich(instance) is not None) == sat
            checked += 1
    record(1, "general deletion equivalence", ok, f"{checked} reductions, {unsat} unsat")


def test_criterion_02_general_completion_equivalence():
    ok = True
    checked = unsat = 0
    for f in formula_corpus():
        sat = sat_brute_force(f) is not None
        unsat += 0 if sat else 1
        for name in GENERAL_PATTERNS:
            instance, _ = reduce_3sat_to_sandwich_comp(f, named_pattern(name))
            ok = ok and (solve_sandwich(instance) is not None) == sat
            checked += 1
    record(2, "general completion equivalence", ok, f"{checked} reductions, {unsat} unsat")


def test_criterion_03_gap_lifts():
    ok = True
    sides = Counter()
    for family, instances in gap_corpus().items():
        for instance in instances:
            report = verify_gap(instance, family, GAP_POLY)
            ok = ok and report.verdict == "pass"
            sides[report.details.get("side")] += 1
    record(3, "gap lifts", ok, f"7 families x 50, yes={sides['yes']} no={sides['no']}")


def test_criterion_04_gadget_contracts():
    report = verify_gadget_contracts()
    record(
        4,
        "gadget contracts",
        report.verdict == "pass",
        f"{report.details['contracts']} contracts, {report.details['subsets']} subsets",
    )


def four_cycles(g):
    """Both vertex pairs of every four-cycle subgraph appear as (u, v), so
    each cycle is seen twice; the scan only needs coverage."""
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        common = sorted(g.neighbors(u) & g.neighbors(v))
        for a, b in itertools.combinations(common, 2):
            yield (edge_key(u, a), edge_key(u, b), edge_key(v, a), edge_key(v, b))


def test_criterion_05_structural_scans():
    ok = True
    dels = comps = 0
    for f in formula_corpus():
        if any(len({abs(lit) for lit in clause}) != 3 for clause in f.clauses):
            continue
        instance, _ = reduce_3sat_to_c4del(f)
        for cycle in four_cycles(instance.graph):
            if all(pair in instance.free for pair in cycle):
                ok = False
        dels += 1
        comp, _ = reduce_3sat_to_c4comp(duplicate_for_min_occurrences(f, 2))
        if has_c4_subgraph(Graph(comp.graph.vertex_count, comp.free)):
            ok = False
        comps += 1
    record(5, "structural scans", ok, f"{dels} deletion + {comps} completion instances")


def test_criterion_06_complement_duality():
    rng = random.Random(47)
    names = ("house", "c5", "p5")
    ok = True
    trials = 204
    for i in range(trials):
        g = random_graph(rng, rng.randint(4, 7), rng.choice((0.3, 0.5, 0.7)))
        report = verify_duality(g, named_pattern(names[i % 3]), i % 4)
        ok = ok and report.verdict == "pass"
    record(6, "complement duality", ok, f"{trials} graphs, budgets 0..3")


def desk_instances():
    """Every counting instance on at most 2 variables with at most 2
    constraints, arguments in all orders."""
    out = []
    for nvars in (1, 2):
        pool = [("f1", args) for args in itertools.product(range(nvars), repeat=3)]
        pool += [("f2", (x,)) for x in range(nvars)]
        out.append(MinOnesInstance(nvars, ()))
        out.extend(MinOnesInstance(nvars, (c,)) for c in pool)
        out.extend(
            MinOnesInstance(nvars, pair)
            for pair in itertools.combinations_with_replacement(pool, 2)
        )
    return out


def desk_base(inst):
    """Smallest pendant base the construction accepts for this instance,
    floored at 6 so the scale factor is 8 wherever that is buildable. A
    variable filling d argument positions needs base >= 3d, so a fixed
    base of 6 cannot express every two-constraint instance."""
    seen = set()
    occurrences = [0] * inst.variable_count
    for kind, args in inst.constraints:
        if kind == "f1" and tuple(sorted(args)) not in seen:
            seen.add(tuple(sorted(args)))
            for x in args:
                occurrences[x] += 1
    return max(6, 3 * max(occurrences, default=0))


def test_criterion_07_minones_scaling():
    ok = True
    count = at_eight = 0
    for inst in desk_instances():
        base = desk_base(inst)
        instance, groups = reduce_minones_to_quarantined(inst, 5, pendant_base=base)
        scale = groups.group_size
        ok = ok and scale == base + 2
        if base == 6:
            ok = ok and scale == 8
            at_eight += 1
        solution = solve_min(instance)
        answer = minones_brute_force(inst)
        cost = len(solution) if solution is not None else None
        want = scale * answer[1] if answer is not None else None
        ok = ok and cost == want
        count += 1
    sizes = []
    for nvars in (1, 2, 3):
        constraints = (("f1", tuple(i % nvars for i in range(3))), ("f2", (0,)))
        _, groups = reduce_minones_to_quarantined(MinOnesInstance(nvars, constraints), 5)
        sizes.append(groups.group_size)
    ok = ok and sizes == [11, 38, 83]
    record(
        7,
        "counting scale factor",
        ok,
        f"{count} desk instances, {at_eight} at scale 8, faithful sizes {sizes}",
    )


def test_criterion_08_deletion_to_counting_bijection():
    rng = random.Random(59)
    k5e = named_pattern("k5e")
    ok = True
    checked = minima = 0
    for i in range(100):
        g = random_graph(rng, rng.randint(4, 7), (0.4, 0.6, 0.8)[i % 3])
        inst, groups = reduce_knexdel_to_minones(g, 5)
        pool = sorted(g.edges)
        for size in range(4):
            for chosen in itertools.combinations(pool, size):
                remaining = Graph(g.vertex_count, g.edges - set(chosen))
                free = is_h_free(remaining, k5e.graph)
                ok = ok and free == satisfies_instance(inst, assignment_from_deletion(groups, chosen))
                checked += 1
        answer = minones_brute_force(inst)
        solution = solve_min(SandwichInstance(g, k5e, DELETION, frozenset(g.edges)))
        ok = ok and answer is not None and solution is not None
        ok = ok and len(solution) == answer[1]
        minima += 1
    record(8, "deletion to counting bijection", ok, f"{checked} subsets, {minima} minima")


def lift_size_expectation(instance, family, poly):
    """Exact vertex and edge counts of a lifted instance: one row per
    family of (protected sites, copies per site, vertices and edges added
    by each copy)."""
    k = len(instance.free)
    pv = instance.pattern.vertex_count
    pe = instance.pattern.edge_count
    fixed_edges = len(instance.graph.edges - instance.free)
    fixed_non = len(set(instance.graph.non_edges()) - instance.free)
    sites, copies, dv, de = {
        "general-del": (fixed_edges, poly(k), pv - 2, pe),
        "general-comp": (fixed_non, poly(k), pv - 2, pe - 1),
        "c4-del": (fixed_edges, poly(k) + 2, 1, 2),
        "c5-del": (fixed_edges, poly(k) + 1, 3, 5),
        "c4-comp": (fixed_non, poly(k) + 1, 2, 3),
        "house-comp": (fixed_non, poly(k) + 1, 3, 5),
        "house-del": (fixed_edges, poly(k) + 2, 2, 4),
    }[family]
    return (
        instance.graph.vertex_count + sites * copies * dv,
        instance.graph.edge_count + sites * copies * de,
    )


def test_criterion_09_size_bounds():
    ok = True
    outputs = 0
    for f in formula_corpus():
        for name in GENERAL_PATTERNS:
            pattern = named_pattern(name)
            instance, _ = reduce_3sat_to_sandwich_del(f, pattern)
            n, m, p = f.variable_count, f.clause_count, pattern.vertex_count
            ok = ok and len(instance.free) == 2 * n + 3 * m + 3 * m * (p + 1)
            outputs += 1
    lifts = 0
    for family, instances in gap_corpus().items():
        for instance in instances[:10]:
            for poly in (GAP_POLY, Polynomial(2, 1, 0)):
                lifted = lift_specific(instance, family, poly)
                want = lift_size_expectation(instance, family, poly)
                got = (lifted.instance.graph.vertex_count, lifted.instance.graph.edge_count)
                ok = ok and got == want
                lifts += 1
    record(9, "size bounds", ok, f"{outputs} reductions, {lifts} lifts")


@lru_cache(maxsize=None)
def consistency_extras():
    """Instances with 8 to 14 free pairs, where the naive sweep is still
    exhaustive but no longer trivial."""
    rng = random.Random(83)
    specs = (
        ("c4", DELETION),
        ("c5", DELETION),
        ("house", DELETION),
        ("c4", COMPLETION),
        ("house", COMPLETION),
        ("k5e", DELETION),
    )
    out = []
    while len(out) < 12:
        name, mode = specs[len(out) % len(specs)]
        g = random_graph(rng, 7, 0.5)
        pool = sorted(g.edges) if mode == DELETION else sorted(set(g.non_edges()))
        if len(pool) < 8:
            continue
        size = rng.randint(8, min(14, len(pool)))
        free = frozenset(rng.sample(pool, size))
        out.append(SandwichInstance(g, named_pattern(name), mode, free))
    return tuple(out)


def naive_minimum(instance):
    pool = sorted(instance.free)
    for size in range(len(pool) + 1):
        for chosen in itertools.combinations(pool, size):
            if instance.mode == DELETION:
                candidate = Graph(instance.graph.vertex_count, instance.graph.edges - set(chosen))
            else:
                candidate = Graph(instance.graph.vertex_count, instance.graph.edges | set(chosen))
            if is_h_free(candidate, instance.pattern.graph):
                return size
    return None


def test_criterion_10_oracle_self_consistency():
    ok = True
    count = 0
    corpus = [inst for bucket in gap_corpus().values() for inst in bucket]
    corpus.extend(consistency_extras())
    for instance in corpus:
        if len(instance.free) > 14:
            continue
        expected = naive_minimum(instance)
        solution = solve_min(instance)
        got = len(solution) if solution is not None else None
        ok = ok and got == expected
        ok = ok and (solve_sandwich(instance) is not None) == (expected is not None)
        count += 1
    record(10, "oracle self-consistency", ok, f"{count} instances vs naive sweeps")
