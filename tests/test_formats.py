import itertools
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfree.formats import (
    FormatError,
    InstanceFile,
    parse_instance,
    parse_minones,
    render_instance,
    render_minones,
)
from hfree.graphs import Graph, complement
from hfree.minones import MinOnesInstance, constraint_arity
from hfree.patterns import named_pattern
from hfree.reductions import complement_instance
from hfree.solver import COMPLETION, DELETION, SandwichInstance

from test_patterns import pattern_spellings

round_trips = settings(max_examples=100)


def deletion_example():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return SandwichInstance(graph, named_pattern("c4"), DELETION, {(0, 1), (2, 3)})


def test_deletion_round_trip():
    instance = deletion_example()
    text = render_instance(instance, budget=2, labels=[("x1-true", (0, 1))])
    parsed = parse_instance(text)
    assert parsed == InstanceFile(instance, 2, (("x1-true", (0, 1)),))
    assert render_instance(parsed.instance, parsed.budget, parsed.labels) == text


def test_completion_round_trip():
    graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    instance = SandwichInstance(graph, named_pattern("house"), COMPLETION, {(0, 4), (1, 3)})
    text = render_instance(instance)
    assert "nonedge 0 4 free" in text.splitlines()
    parsed = parse_instance(text)
    assert parsed.instance == instance and parsed.budget is None and parsed.labels == ()
    assert render_instance(parsed.instance) == text


def test_comments_and_blanks_are_skipped():
    text = render_instance(deletion_example())
    noisy = "c written by hand\n\n" + text.replace("mode", "c timestamp 2026\nmode", 1)
    assert parse_instance(noisy).instance == deletion_example()


def test_pattern_defaulting():
    instance = deletion_example()
    bare = SandwichInstance(instance.graph, named_pattern("c4"), DELETION, instance.free)
    text = "\n".join(
        line for line in render_instance(bare).splitlines() if not line.startswith("pattern")
    )
    assert parse_instance(text, default_pattern=named_pattern("c4")).instance == bare
    with pytest.raises(FormatError, match="names no pattern"):
        parse_instance(text)


def test_instance_parse_errors():
    good = render_instance(deletion_example())
    cases = [
        ("hfi 1", "hfi 2", "expected 'hfi 1'"),
        ("mode deletion", "mode removal", "mode must be"),
        ("edge 0 1 free", "edge 0 1 maybe", "expected 'edge u v"),
        ("edge 0 1 free", "edge 0 0 free", "endpoints must differ"),
        ("edge 0 1 free", "edge 0 9 free", "out of range"),
        ("edge 0 1 free", "edge 0 x free", "must be integers"),
        ("edge 0 1 free", "edge 1_0 +2 free", "must be integers"),
        ("edge 0 1 free", "edge 0 \u0662 free", "must be integers"),
        ("edge 0 1 free", "edge 0 1 free\nlabel a 0 +1", "must be integers"),
        ("edge 0 1 free", "edge 0 1 free\nedge 1 0", "duplicate edge"),
        ("edge 0 1 free", "edge 0 1 free\nnonedge 0 2 free", "belong to completion"),
        ("mode deletion\npattern c4\nvertices 4\nedge 0 1 free",
         "mode completion\npattern c4\nvertices 4\nedge 0 1\nnonedge 0 2 free\nnonedge 0 2 free",
         r"line 7: duplicate nonedge \(0, 2\)"),
        ("edge 0 1 free", "edge 0 1 free\nbudget 1\nbudget 2", "budget given twice"),
        ("vertices 4", "vertices 4\nvertices 9", "line 5: vertices given twice"),
        ("vertices 4", "mode deletion\nvertices 4", "line 4: mode given twice"),
        ("vertices 4", "pattern c5\nvertices 4", "line 4: pattern given twice"),
        ("edge 0 1 free", "edge 0 1 free\nbudget -1", "nonnegative integer"),
        ("edge 0 1 free", "edge 0 1 free\nbudget +1", "nonnegative integer"),
        ("edge 0 1 free", "edge 0 1 free\nbudget \u00b2", "nonnegative integer"),
        ("vertices 4", "vertices -0", "line 4: vertices takes one count"),
        ("vertices 4", "vertices 4_0", "line 4: vertices takes one count"),
        ("vertices 4", "vertices \u00b2", "line 4: vertices takes one count"),
        ("edge 0 1 free", "edge 0 1 free\nhub 0", "unknown directive"),
        ("vertices 4", "verts 4", "unknown directive"),
        ("pattern c4", "pattern c4 c5", "line 3: pattern takes one name"),
        ("edge 0 1 free", "edge 0 1 free\nlabel a 0", "expected 'label name u v' after vertices"),
        ("vertices 4", "label a 0 1\nvertices 4", "line 4: expected 'label name u v' after vertices"),
    ]
    for old, new, message in cases:
        with pytest.raises(FormatError, match=message):
            parse_instance(good.replace(old, new, 1))
    with pytest.raises(FormatError, match="before mode and vertices"):
        parse_instance("hfi 1\nedge 0 1\n")
    with pytest.raises(FormatError, match="free edges belong to deletion"):
        parse_instance("hfi 1\nmode completion\npattern c4\nvertices 3\nedge 0 1 free\n")
    with pytest.raises(FormatError, match="must be marked free"):
        parse_instance("hfi 1\nmode completion\npattern c4\nvertices 3\nnonedge 0 1\n")
    with pytest.raises(FormatError, match="duplicate label entry"):
        parse_instance(good + "label a 0 1\nlabel a 1 0\n")
    with pytest.raises(FormatError, match="empty instance file"):
        parse_instance("c nothing here\n")
    for text in ("hfi 1\nmode deletion\npattern c4\n", "hfi 1\npattern c4\nvertices 3\n"):
        with pytest.raises(FormatError, match="needs mode and vertices lines"):
            parse_instance(text)


def test_render_rejects_bad_labels():
    with pytest.raises(FormatError, match="single token"):
        render_instance(deletion_example(), labels=[("two words", (0, 1))])
    with pytest.raises(FormatError, match="duplicate label entry"):
        render_instance(deletion_example(), labels=[("a", (0, 1)), ("a", (1, 0))])
    with pytest.raises(FormatError, match="budget must be nonnegative"):
        render_instance(deletion_example(), budget=-1)


def test_free_pair_consistency_is_checked():
    text = render_instance(deletion_example()).replace("edge 1 2", "edge 1 2 free", 1)
    assert (1, 2) in parse_instance(text).instance.free
    conflicted = "hfi 1\nmode completion\npattern c4\nvertices 3\nedge 0 1\nnonedge 1 0 free\n"
    with pytest.raises(FormatError, match="already an edge"):
        parse_instance(conflicted)


def test_minones_round_trip():
    inst = MinOnesInstance(
        12,
        (
            ("f1", (0, 1, 2)),
            ("f2", (3,)),
            ("gn5", tuple(range(9))),
            ("fn5", tuple(range(2, 12))),
        ),
    )
    text = render_minones(inst)
    assert text.splitlines()[:3] == ["minones 1", "nvars 12", "f1 0 1 2"]
    assert "gn 5 0 1 2 3 4 5 6 7 8" in text.splitlines()
    assert parse_minones(text) == inst
    assert render_minones(parse_minones(text)) == text
    # the clique order is read as an integer, so its spelling is not kept
    padded = parse_minones(text.replace("fn 5", "fn 05"))
    assert padded == inst
    assert "fn 5 2 3 4 5 6 7 8 9 10 11" in render_minones(padded).splitlines()


def test_minones_parse_errors():
    with pytest.raises(FormatError, match="expected 'minones 1'"):
        parse_minones("minones 2\nnvars 1\n")
    with pytest.raises(FormatError, match="before nvars"):
        parse_minones("minones 1\nf2 0\n")
    with pytest.raises(FormatError, match="unknown constraint 'f9'"):
        parse_minones("minones 1\nnvars 3\nf9 0 1 2\n")
    with pytest.raises(FormatError, match="unsupported constraint kind 'fn4'"):
        parse_minones("minones 1\nnvars 9\nfn 4 0 1 2 3 4 5\n")
    with pytest.raises(FormatError, match="clique order first"):
        parse_minones("minones 1\nnvars 9\ngn x 1 2\n")
    with pytest.raises(FormatError, match="fn needs its clique order first"):
        parse_minones("minones 1\nnvars 9\nfn \u0665 0 1 2 3 4 5 6 7 8 9\n")
    with pytest.raises(FormatError, match="gn needs its clique order first"):
        parse_minones("minones 1\nnvars 9\ngn -5 0 1 2 3 4 5 6 7 8\n")
    with pytest.raises(FormatError, match="arguments must be integers"):
        parse_minones("minones 1\nnvars 3\nf1 0 +1 0_2\n")
    for count in ("\u00b2", "+3", "-3", "3_0"):
        with pytest.raises(FormatError, match="line 2: nvars takes one count"):
            parse_minones(f"minones 1\nnvars {count}\n")
    with pytest.raises(FormatError, match="takes 3 arguments"):
        parse_minones("minones 1\nnvars 3\nf1 0 1\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_minones("minones 1\nnvars 2\nf1 0 1 2\n")
    with pytest.raises(FormatError, match="nvars given twice"):
        parse_minones("minones 1\nnvars 2\nnvars 2\n")
    with pytest.raises(FormatError, match="empty constraint file"):
        parse_minones("")
    with pytest.raises(FormatError, match="constraint file needs an nvars line"):
        parse_minones("minones 1\nc no variables\n")


@st.composite
def sandwich_instances(draw):
    """An instance on up to 7 vertices under a named pattern, in either mode."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {pair for pair in pairs if draw(st.booleans())}
    mode = draw(st.sampled_from([DELETION, COMPLETION]))
    pool = sorted(edges) if mode == DELETION else [pair for pair in pairs if pair not in edges]
    free = {pair for pair in pool if draw(st.booleans())}
    return SandwichInstance(Graph(n, edges), named_pattern(draw(pattern_spellings())), mode, frozenset(free))


@round_trips
@given(data=st.data())
def test_instance_text_round_trips(data):
    instance = data.draw(sandwich_instances())
    budget = data.draw(st.none() | st.integers(0, 10**6))
    pairs = list(itertools.combinations(range(instance.graph.vertex_count), 2))
    names = st.text(string.ascii_letters + string.digits + "-_", min_size=1, max_size=5)
    labels = data.draw(st.lists(st.tuples(names, st.sampled_from(pairs)), unique=True, max_size=6)) if pairs else []
    parsed = parse_instance(render_instance(instance, budget, labels))
    assert parsed == InstanceFile(instance, budget, tuple(sorted(labels)))
    assert parsed.instance.pattern.name == instance.pattern.name


@st.composite
def rendered_instances(draw):
    """An instance on up to 12 vertices, in either mode, over a built graph
    or a complement, whose rows of free pairs are each empty, full or
    mixed; with a budget and labels."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    graph = Graph(n, [pair for pair in pairs if draw(st.booleans())])
    if draw(st.booleans()):
        graph = complement(graph)
    mode = draw(st.sampled_from([DELETION, COMPLETION]))
    pool = [(u, v) for u, v in pairs if (v in graph.neighbors(u)) == (mode == DELETION)]
    free = set()
    for u in range(n):
        row = [pair for pair in pool if pair[0] == u]
        kind = draw(st.sampled_from(["none", "all", "some"]))
        if kind == "all":
            free.update(row)
        elif kind == "some":
            free.update(pair for pair in row if draw(st.booleans()))
    pattern = named_pattern(draw(st.sampled_from(["c4", "house", "co-p5", "wheel4"])))
    budget = draw(st.none() | st.integers(0, 10**6))
    names = st.text(string.ascii_letters + string.digits + "-_", min_size=1, max_size=4)
    pair = st.sampled_from(pairs).flatmap(lambda p: st.sampled_from([p, p[::-1]])) if pairs else st.nothing()
    entries = st.lists(st.tuples(names, pair), unique_by=lambda e: (e[0], frozenset(e[1])), max_size=5)
    labels = draw(entries) if pairs else []
    return SandwichInstance(graph, pattern, mode, frozenset(free)), budget, labels


def reference_render(instance, budget, labels):
    """hfi text written from sorted edge tuples, one f-string per pair."""
    lines = ["hfi 1", f"mode {instance.mode}", f"pattern {instance.pattern.name}"]
    lines.append(f"vertices {instance.graph.vertex_count}")
    for u, v in sorted(instance.graph.edges):
        free = instance.mode == DELETION and (u, v) in instance.free
        lines.append(f"edge {u} {v} free" if free else f"edge {u} {v}")
    if instance.mode == COMPLETION:
        lines += [f"nonedge {u} {v} free" for u, v in sorted(instance.free)]
    if budget is not None:
        lines.append(f"budget {budget}")
    entries = sorted((name, tuple(sorted(pair))) for name, pair in labels)
    lines += [f"label {name} {u} {v}" for name, (u, v) in entries]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True)
@given(case=rendered_instances())
def test_render_matches_a_pair_by_pair_writer(case):
    instance, budget, labels = case
    # Rendered first, while a complement's edge set is still unbuilt.
    text = render_instance(instance, budget, labels)
    assert text == reference_render(instance, budget, labels)


@pytest.mark.parametrize("flip", [False, True])
def test_render_with_every_edge_free_matches_a_pair_by_pair_writer(flip):
    """A deletion instance whose every edge is free, over a built graph or
    a complement, renders as the pair-by-pair writer does."""
    pairs = list(itertools.combinations(range(9), 2))
    graph = Graph(9, pairs[::3])
    if flip:
        graph = complement(graph)
    free = frozenset((u, v) for u, v in pairs if v in graph.neighbors(u))
    instance = SandwichInstance(graph, named_pattern("house"), DELETION, free)
    assert render_instance(instance, 4) == reference_render(instance, 4, ())


def test_a_rendered_complement_builds_no_edge_set():
    """complement_instance and render_instance read the complement's rows
    only, so its set of pair tuples is never built."""
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    completion = SandwichInstance(path, named_pattern("house"), COMPLETION, {(0, 4), (1, 3)})
    for instance in (deletion_example(), completion):
        flipped = complement_instance(instance)
        text = render_instance(flipped)
        assert flipped.graph._edges is None
        assert parse_instance(text).instance == flipped


@st.composite
def minones_instances(draw):
    """An instance over f1, f2 and the wide kinds fnN and gnN for N in 5..7."""
    wide = st.tuples(st.sampled_from(["fn", "gn"]), st.integers(5, 7)).map(lambda kind: f"{kind[0]}{kind[1]}")
    kinds = draw(st.lists(st.sampled_from(["f1", "f2"]) | wide, max_size=6))
    count = draw(st.integers(1 if kinds else 0, 12))
    variables = st.integers(0, count - 1)
    constraints = tuple(
        (kind, tuple(draw(st.lists(variables, min_size=constraint_arity(kind), max_size=constraint_arity(kind)))))
        for kind in kinds
    )
    return MinOnesInstance(count, constraints)


@round_trips
@given(inst=minones_instances())
def test_minones_text_round_trips(inst):
    assert parse_minones(render_minones(inst)) == inst
