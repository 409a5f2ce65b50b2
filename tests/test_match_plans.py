"""The matcher's plans and the source it compiles from them.

Golden texts pin the generated source of three call shapes, and one
sha256 pins the source of every call shape of every stock pattern and its
complement, so a change to the plan or the compiler that moves the code
the matcher runs shows here first. A golden mismatch prints the shape and
a unified diff of its source. The plan structure tests check each level's
near list against the pattern's edges, and the order, anchors, floors and
degrees against a reference construction written out below.
"""

import difflib
import hashlib
import itertools
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree import graphs
from hfree.graphs import Graph, MatchPlan, edge_key
from hfree.patterns import named_pattern, path_graph

from test_graphs import STOCK_NAMES

GOLDEN = pathlib.Path(__file__).with_name("match_sources")
SWEEP_NAMES = (*STOCK_NAMES, *(f"co-{name}" for name in STOCK_NAMES))


def _house_packing_plan():
    house = named_pattern("house").graph
    return MatchPlan(house, house.non_edges()[0])


# Each golden shape: its file, its plan and (pinned, blocking, visiting).
GOLDEN_SHAPES = [
    # The square's root walk, with the orbit terms D and M.
    ("c4_root.txt", lambda: MatchPlan(named_pattern("c4").graph), (0, False, False)),
    # The packing shape: a house plan seeded at its first non-edge, both
    # seed vertices pinned, under blocked pairs.
    ("house_packing.txt", _house_packing_plan, (2, True, False)),
    # A path past _SPELLED and _CHUNK_LOOPS: chunked, with the set U.
    ("p20_root.txt", lambda: MatchPlan(path_graph(20)), (0, False, False)),
]

SWEEP_DIGEST = "bf24d182bc483d92af1e1a99d69c6d34e61f776054d4bcf7a42eb73d40816ca3"


def _mismatch(label, expected, actual):
    """The failure text for one differing shape: its label and a unified
    diff from the pinned source to the generated one."""
    diff = difflib.unified_diff(
        expected.splitlines(), actual.splitlines(), "pinned", "generated", lineterm="",
    )
    return f"generated source differs for {label}:\n" + "\n".join(diff)


def test_generated_source_of_the_golden_shapes_is_pinned():
    for name, plan, shape in GOLDEN_SHAPES:
        expected = (GOLDEN / name).read_text()
        actual = graphs._search_source(plan(), *shape) + "\n"
        assert actual == expected, _mismatch(f"{name} {shape}", expected, actual)


def _call_shapes():
    """(label, plan, pinned, blocking, visiting) for every call shape of
    every stock pattern and its complement: unseeded and seeded at the
    first non-edge and the first edge, twins broken and not, each seed
    prefix pinned, with and without blocked pairs and visit."""
    for name in SWEEP_NAMES:
        pattern = named_pattern(name).graph
        seeds = [(), *pattern.non_edges()[:1], *sorted(pattern.edges)[:1]]
        for seed, twins in itertools.product(seeds, (False, True)):
            plan = MatchPlan(pattern, seed, twins)
            for pinned in range(len(seed) + 1):
                for blocking, visiting in itertools.product((False, True), repeat=2):
                    label = f"{name} seed={seed} twins={twins} pinned={pinned} blocking={blocking} visiting={visiting}"
                    yield label, plan, pinned, blocking, visiting


def test_generated_source_of_every_stock_call_shape_is_pinned():
    digest, count = hashlib.sha256(), 0
    for label, plan, *shape in _call_shapes():
        digest.update(f"{label}\n{graphs._search_source(plan, *shape)}\n".encode())
        count += 1
    assert count == 1760
    # A digest holds no source to diff against: on a mismatch, the golden
    # shapes above show how the generated code moved.
    assert digest.hexdigest() == SWEEP_DIGEST, f"the source of some of the {count} shapes changed"


def _reference_levels(pattern, seed, break_twins):
    """(vertex, anchor, floor, degree) per level, built as plans were when
    they kept one adjacency test per pair of pattern vertices. Each next
    vertex has the most placed neighbours, then the highest degree, then
    the lowest number; its anchor is its first earlier neighbour, and under
    break_twins its floor is its latest earlier twin."""
    n = pattern.vertex_count
    order, placed = list(seed), set(seed)
    while len(order) < n:
        key = lambda v: (len(pattern.neighbors(v) & placed), pattern.degree(v), -v)
        best = max((v for v in range(n) if v not in placed), key=key)
        order.append(best)
        placed.add(best)
    levels = []
    for i, v in enumerate(order):
        anchor = floor = None
        for w in order[:i]:
            if anchor is None and w in pattern.neighbors(v):
                anchor = w
            if break_twins and pattern.neighbors(v) - {w} == pattern.neighbors(w) - {v}:
                floor = w
        levels.append((v, anchor, floor, pattern.degree(v)))
    return levels


def _assert_plan_structure(pattern, seed, break_twins):
    plan = MatchPlan(pattern, seed, break_twins)
    assert [level[:4] for level in plan.levels] == _reference_levels(pattern, seed, break_twins)
    position = {level[0]: i for i, level in enumerate(plan.levels)}
    for vertex, anchor, _, _, near in plan.levels:
        # Earlier neighbours only, in plan order, led by the anchor.
        assert [position[w] for w in near] == sorted(position[w] for w in near)
        assert all(position[w] < position[vertex] for w in near)
        assert anchor == (near[0] if near else None)
    # Every edge appears once, at its later end.
    entries = [edge_key(vertex, w) for vertex, _, _, _, near in plan.levels for w in near]
    assert len(entries) == pattern.edge_count
    assert set(entries) == pattern.edges


@pytest.mark.parametrize("name", SWEEP_NAMES)
def test_stock_plans_match_the_reference_construction(name):
    pattern = named_pattern(name).graph
    for seed in ((), *pattern.non_edges()[:1], *sorted(pattern.edges)[:1], (pattern.vertex_count - 1,)):
        for break_twins in (False, True):
            _assert_plan_structure(pattern, seed, break_twins)


@settings(max_examples=200)
@given(n=st.integers(0, 9), data=st.data())
def test_random_plans_match_the_reference_construction(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    seed = data.draw(st.lists(st.integers(0, n - 1), max_size=min(n, 3), unique=True)) if n else []
    _assert_plan_structure(Graph(n, edges), tuple(seed), data.draw(st.booleans()))


def test_a_long_path_plan_holds_one_entry_per_edge():
    pattern = path_graph(1100)
    tracemalloc.start()
    try:
        plan = MatchPlan(pattern)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(level[4]) for level in plan.levels) == 1099
    assert retained < 1 << 20
