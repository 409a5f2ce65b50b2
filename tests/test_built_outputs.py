"""Built instances pass the validating constructors again, unchanged.

Every output of the builders, the hfi parser, solver.apply and the
complement on the acceptance corpora must be accepted by Graph(...) and
SandwichInstance(...) and compare equal to what they build, with
neighbour sets that agree with the edge set. complement fills its
neighbour sets without the constructor's pair-by-pair loop, so a bug
there shows here.
"""

from test_acceptance import GAP_POLY, GENERAL_PATTERNS, desk_base, desk_instances, formula_corpus, gap_corpus

from hfree.formats import parse_instance, render_instance
from hfree.gadgets import FORMULA_TARGETS, lift_specific, reduce_formula
from hfree.graphs import Graph
from hfree.minones import reduce_minones_to_quarantined
from hfree.patterns import named_pattern
from hfree.reductions import complement_instance
from hfree.solver import SandwichInstance, apply


def check_graph(g):
    assert isinstance(g.edges, frozenset)
    assert Graph(g.vertex_count, g.edges) == g
    listed = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        listed[u].add(v)
        listed[v].add(u)
    assert g.adjacency() == listed


def check_instance(instance):
    check_graph(instance.graph)
    assert isinstance(instance.free, frozenset)
    fields = (instance.graph, instance.pattern, instance.mode, instance.free)
    assert SandwichInstance(*fields) == instance


def built_instances():
    """Every reduce target on every third formula of the formula corpus
    (both kinds of formula, and a forced-unsatisfiable one), every lift
    family on the gap corpus, and minones2graph on the desk instances."""
    for f in formula_corpus()[::3]:
        wired = all(len({abs(lit) for lit in clause}) == 3 for clause in f.clauses)
        for target, (_, general, _) in FORMULA_TARGETS.items():
            if general:
                for name in GENERAL_PATTERNS:
                    yield reduce_formula(target, f, named_pattern(name))[0]
            elif wired:
                yield reduce_formula(target, f)[0]
    for family, instances in gap_corpus().items():
        for instance in instances:
            yield lift_specific(instance, family, GAP_POLY).instance
    for inst in desk_instances():
        yield reduce_minones_to_quarantined(inst, 5, pendant_base=desk_base(inst))[0]


def test_built_outputs_pass_the_public_checks():
    built = list(built_instances())
    # the complement of a large sparse output is dense, so only graphs of
    # desk size are complemented
    sources = [instance for bucket in gap_corpus().values() for instance in bucket]
    sources += [instance for instance in built if instance.graph.vertex_count <= 32]
    complemented = [complement_instance(instance) for instance in sources]
    for instance in built + complemented:
        check_instance(instance)
        parsed = parse_instance(render_instance(instance)).instance
        check_instance(parsed)
        assert parsed == instance
        check_graph(apply(instance, sorted(instance.free)[::2]))
    assert (len(built), len(complemented)) == (642, 540)
