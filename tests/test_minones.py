import itertools
import random

import pytest

from hfree.cnf import formula, satisfies
from hfree.graphs import Graph, is_h_free
from hfree.minones import (
    EdgeGroupMap,
    MinOnesInstance,
    assignment_from_deletion,
    constraint_arity,
    deletion_from_assignment,
    eval_constraint,
    lift_quarantine,
    minones_brute_force,
    reduce_knexdel_to_minones,
    reduce_minones_to_quarantined,
    satisfies_instance,
)
from hfree.patterns import complete_graph, complete_minus_edge, cycle_graph, named_pattern
from hfree.reductions import Polynomial
from hfree.solver import DELETION, SandwichInstance, solve_min, solve_sandwich

from test_acceptance import desk_base, desk_instances, random_graph

K5E = named_pattern("k5e").graph


def test_constraint_arity():
    assert constraint_arity("f1") == 3
    assert constraint_arity("f2") == 1
    assert constraint_arity("fn5") == 10
    assert constraint_arity("gn5") == 9
    assert constraint_arity("fn6") == 15
    for kind in ("f3", "fn4", "gn", "fnx", "", "fn05", "gn007"):
        with pytest.raises(ValueError, match="unknown constraint kind"):
            constraint_arity(kind)


def test_eval_constraint_oracle_values():
    assert eval_constraint("f1", (0, 1, 2), (1, 0, 0)) is False
    assert eval_constraint("f1", (0, 1, 2), (1, 1, 0)) is True
    assert eval_constraint("f1", (0, 1, 2), (0, 0, 0)) is True
    assert eval_constraint("f2", (0,), (0,)) is False
    assert eval_constraint("f2", (0,), (1,)) is True
    zeros = tuple(0 for _ in range(9))
    assert eval_constraint("gn5", tuple(range(9)), zeros) is False
    assert eval_constraint("gn5", tuple(range(9)), (1,) + zeros[1:]) is True
    tens = tuple(range(10))
    assert eval_constraint("fn5", tens, (0,) * 10) is True
    assert eval_constraint("fn5", tens, (1,) + (0,) * 9) is False
    assert eval_constraint("fn5", tens, (1, 1) + (0,) * 8) is True


def test_eval_constraint_rejects_wrong_arity():
    with pytest.raises(ValueError, match="takes 3 arguments"):
        eval_constraint("f1", (0, 1), (0, 0))
    with pytest.raises(ValueError, match="takes 9 arguments"):
        eval_constraint("gn5", tuple(range(10)), (0,) * 10)


def test_ternary_constraint_matches_its_cnf_expansion():
    cnf = formula(3, [(-1, 2, 3), (1, -2, 3), (1, 2, -3)])
    for bits in itertools.product((0, 1), repeat=3):
        assert eval_constraint("f1", (0, 1, 2), bits) == satisfies(cnf, tuple(map(bool, bits)))


def test_repeated_arguments_count_per_position():
    assert eval_constraint("f1", (0, 0, 1), (1, 0)) is True
    assert eval_constraint("f1", (0, 0, 1), (0, 1)) is False


def test_brute_force_examples():
    inst = MinOnesInstance(3, (("f1", (0, 1, 2)), ("f2", (0,))))
    assignment, ones = minones_brute_force(inst)
    assert ones == 2 and satisfies_instance(inst, assignment)
    assert minones_brute_force(MinOnesInstance(2, ())) == ((0, 0), 0)
    assert minones_brute_force(MinOnesInstance(1, (("f2", (0,)),))) == ((1,), 1)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="capped at 24"):
        minones_brute_force(MinOnesInstance(25, ()))


def test_instance_validation():
    with pytest.raises(ValueError, match="takes 3 arguments"):
        MinOnesInstance(3, (("f1", (0, 1)),))
    with pytest.raises(ValueError, match="out of range"):
        MinOnesInstance(2, (("f1", (0, 1, 2)),))
    with pytest.raises(ValueError, match="nonnegative"):
        MinOnesInstance(-1, ())
    with pytest.raises(ValueError, match="uniform size"):
        EdgeGroupMap((frozenset({(0, 1)}), frozenset()), 1)
    with pytest.raises(ValueError, match="disjoint"):
        EdgeGroupMap((frozenset({(0, 1)}), frozenset({(0, 1)})), 1)


def test_pinned_variable_complex():
    inst = MinOnesInstance(1, (("f2", (0,)),))
    instance, groups = reduce_minones_to_quarantined(inst, 5)
    assert groups.group_size == 11
    assert instance.free == groups.groups[0]
    solution = solve_min(instance)
    assert solution == groups.groups[0]


def test_empty_instance_complex():
    instance, groups = reduce_minones_to_quarantined(MinOnesInstance(1, ()), 5)
    assert groups.group_size == 11
    assert solve_min(instance) == frozenset()


def test_faithful_group_size_at_three_variables():
    inst = MinOnesInstance(3, (("f1", (0, 1, 2)), ("f2", (0,))))
    instance, groups = reduce_minones_to_quarantined(inst, 5)
    assert groups.group_size == 9 * 9 + 2 == 83
    assert all(len(group) == 83 for group in groups.groups)
    assert instance.pattern.name == "k5e" and instance.mode == DELETION
    assert len(instance.free) == 3 * 83 < instance.graph.edge_count


def test_construction_rejections():
    wide = MinOnesInstance(10, (("gn5", tuple(range(9))),))
    with pytest.raises(ValueError, match="no clique translation"):
        reduce_minones_to_quarantined(wide, 5)
    with pytest.raises(ValueError, match="n >= 5"):
        reduce_minones_to_quarantined(MinOnesInstance(1, ()), 4)
    with pytest.raises(ValueError, match="need n >= 5"):
        reduce_knexdel_to_minones(complete_graph(4), 4)
    crowded = MinOnesInstance(2, (("f1", (0, 0, 1)), ("f1", (0, 1, 1))))
    with pytest.raises(ValueError, match="too many for padding base"):
        reduce_minones_to_quarantined(crowded, 5, pendant_base=3)


def test_duplicate_ternary_constraints_collapse():
    once = MinOnesInstance(3, (("f1", (0, 1, 2)),))
    twice = MinOnesInstance(3, (("f1", (0, 1, 2)), ("f1", (2, 0, 1))))
    assert reduce_minones_to_quarantined(once, 5)[0] == reduce_minones_to_quarantined(twice, 5)[0]


def test_optimum_scales_by_group_size():
    pool = [("f1", t) for t in itertools.product((0, 1), repeat=3)]
    pool += [("f2", (0,)), ("f2", (1,))]
    cases = [()] + [(c,) for c in pool] + list(itertools.combinations(pool, 2))
    for constraints in cases:
        inst = MinOnesInstance(2, tuple(constraints))
        _, ones = minones_brute_force(inst)
        instance, groups = reduce_minones_to_quarantined(inst, 5, pendant_base=desk_base(inst))
        solution = solve_min(instance)
        assert solution is not None
        assert len(solution) == groups.group_size * ones, constraints


def test_group_forcing():
    inst = MinOnesInstance(3, (("f1", (0, 1, 2)),))
    instance, groups = reduce_minones_to_quarantined(inst, 5, pendant_base=desk_base(inst))
    graph, pattern = instance.graph, instance.pattern
    quarantine = graph.edges - instance.free
    for x in range(3):
        group = groups.groups[x]
        lost = min(group)
        stripped = Graph(graph.vertex_count, graph.edges - {lost})
        # with the rest of the group quarantined there is no way out
        pinned = SandwichInstance(stripped, pattern, DELETION, stripped.edges - quarantine - group)
        assert solve_sandwich(pinned) is None
        free = SandwichInstance(stripped, pattern, DELETION, stripped.edges - quarantine)
        assert group - {lost} <= solve_min(free)


def test_knexdel_frozen_examples():
    inst, groups = reduce_knexdel_to_minones(complete_graph(6), 5)
    kinds = [kind for kind, _ in inst.constraints]
    assert inst.variable_count == len(groups.groups) == 15
    assert kinds.count("fn5") == 6 and kinds.count("gn5") == 0

    inst, _ = reduce_knexdel_to_minones(complete_minus_edge(5), 5)
    kinds = [kind for kind, _ in inst.constraints]
    assert inst.variable_count == 9
    assert kinds == ["gn5"]

    inst, _ = reduce_knexdel_to_minones(cycle_graph(7), 5)
    assert inst.constraints == ()
    assert minones_brute_force(inst)[1] == 0


def test_knexdel_bijection_random():
    rng = random.Random(743)
    for _ in range(10):
        g = random_graph(rng, rng.randint(5, 7), 0.75)
        inst, groups = reduce_knexdel_to_minones(g, 5)
        pool = sorted(g.edges)
        subsets = [frozenset(c) for size in range(3) for c in itertools.combinations(pool, size)]
        if len(pool) >= 3:
            subsets += [frozenset(rng.sample(pool, 3)) for _ in range(25)]
        for chosen in subsets:
            indicator = assignment_from_deletion(groups, chosen)
            assert is_h_free(Graph(g.vertex_count, g.edges - chosen), K5E) == satisfies_instance(
                inst, indicator
            )


def test_knexdel_minimum_agreement():
    rng = random.Random(744)
    for _ in range(5):
        g = random_graph(rng, 7, 0.8)
        inst, _ = reduce_knexdel_to_minones(g, 5)
        result = minones_brute_force(inst)
        solution = solve_min(SandwichInstance(g, named_pattern("k5e"), DELETION, g.edges))
        assert result is not None and solution is not None
        assert result[1] == len(solution)


def test_lift_round_trip():
    g = Graph(6, complete_graph(6).edges - {(0, 1)})
    source = SandwichInstance(g, named_pattern("k5e"), DELETION, {(0, 2), (0, 3), (0, 4), (0, 5)})
    source_opt = solve_min(source)
    lifted, budget = lift_quarantine(source, Polynomial(1, 1, 1))
    assert budget == 4
    lifted_opt = solve_min(lifted)
    assert len(lifted_opt) == len(source_opt) == 2
    assert lifted_opt <= g.edges


def test_lift_sizes_and_identity():
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    k5e = named_pattern("k5e")
    lifted, budget = lift_quarantine(SandwichInstance(square, k5e, DELETION, {(1, 2), (0, 3)}))
    # m = 4 edges, so 16 pendant pattern copies per quarantined edge,
    # each contributing 3 fresh vertices and 9 fresh edges
    assert lifted.graph.vertex_count == 4 + 3 * 2 * 16
    assert lifted.graph.edge_count == 4 + 9 * 2 * 16
    assert budget == 2

    untouched, budget = lift_quarantine(SandwichInstance(square, k5e, DELETION, square.edges))
    assert untouched.graph == square
    assert budget == 4


def test_transfer_group_directions():
    inst = MinOnesInstance(2, (("f1", (0, 1, 1)), ("f2", (0,))))
    instance, groups = reduce_minones_to_quarantined(inst, 5, pendant_base=desk_base(inst))
    deleted = deletion_from_assignment(groups, (1, 0))
    assert deleted == groups.groups[0]
    assert assignment_from_deletion(groups, deleted) == (1, 0)
    with pytest.raises(ValueError, match="only in part"):
        assignment_from_deletion(groups, set(sorted(deleted)[:3]))
    with pytest.raises(ValueError, match="outside every group"):
        assignment_from_deletion(groups, {min(instance.graph.edges - instance.free)})
    with pytest.raises(ValueError, match="does not match the group map"):
        deletion_from_assignment(groups, (1,))


def test_transfer_indicator_directions():
    square = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    _, groups = reduce_knexdel_to_minones(square, 5)
    # one-edge groups in sorted edge order
    assert groups.group_size == 1
    assert groups.groups == tuple(frozenset({pair}) for pair in sorted(square.edges))
    chosen = frozenset({(0, 2), (2, 3)})
    indicator = assignment_from_deletion(groups, chosen)
    assert indicator == (0, 1, 0, 1)
    assert deletion_from_assignment(groups, indicator) == chosen
    with pytest.raises(ValueError, match="outside every group"):
        assignment_from_deletion(groups, {(0, 3)})


def test_transfer_pair_on_solver_output():
    """The deletion the solver finds reads back as an optimal assignment,
    and every assignment survives the round trip through its deletion."""
    for inst in desk_instances():
        instance, groups = reduce_minones_to_quarantined(inst, 5, pendant_base=desk_base(inst))
        answer = minones_brute_force(inst)
        solution = solve_min(instance)
        if answer is None:
            assert solution is None
        else:
            assignment = assignment_from_deletion(groups, solution)
            assert satisfies_instance(inst, assignment)
            assert sum(assignment) == answer[1]
        for assignment in itertools.product((0, 1), repeat=inst.variable_count):
            assert assignment_from_deletion(groups, deletion_from_assignment(groups, assignment)) == assignment
