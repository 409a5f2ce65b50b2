import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfree.patterns
from hfree.graphs import Graph, is_3_connected
from hfree.patterns import _FIXED, complement_pattern, make_pattern, named_pattern, require, wheel_graph


def test_make_pattern_derives_fields():
    p = make_pattern(wheel_graph(4))
    assert p.vertex_count == 5
    assert p.non_edges == ((0, 2), (1, 3))
    assert p.three_connected
    assert p.edge_count == 8


def test_named_patterns():
    assert named_pattern("wheel4") == make_pattern(wheel_graph(4))
    assert named_pattern("octahedron").non_edges == ((0, 1), (2, 3), (4, 5))
    assert named_pattern("octahedron").three_connected
    assert named_pattern("house").edge_count == 6
    assert not named_pattern("house").three_connected
    assert named_pattern("c4").vertex_count == 4
    assert named_pattern("p5").edge_count == 4
    assert named_pattern("k5").edge_count == 10
    assert named_pattern("k5e").edge_count == 9
    assert named_pattern("k5e").non_edges == ((0, 1),)
    assert named_pattern("K5E").name == "k5e"
    # orders are read as integers, so the recorded name is canonical
    assert named_pattern("c05").name == "c5"
    assert named_pattern("K05E").name == "k5e"
    assert named_pattern("co-c04").name == "co-c4"
    for name in ("pentagon", "ke5", "c5e", "k5ee"):
        with pytest.raises(ValueError, match="unknown pattern name"):
            named_pattern(name)
    # known families below their smallest order
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        named_pattern("c2")
    with pytest.raises(ValueError, match="need at least 3 vertices"):
        named_pattern("k2e")
    with pytest.raises(ValueError, match="wheel rim needs at least 3 vertices"):
        wheel_graph(2)


# Unicode digits that int() accepts but the ASCII instance format cannot carry.
@pytest.mark.parametrize("name", ["c\u0664", "k\uff15", "p\u0663", "k\uff15e", "co-c\u0664"])
def test_pattern_names_take_ascii_digits_only(name):
    with pytest.raises(ValueError, match="unknown pattern name"):
        named_pattern(name)


def test_require_checks_in_fixed_order():
    house = named_pattern("house")
    with pytest.raises(ValueError, match="not 3-connected"):
        require(house, three_connected=True, min_non_edges=99)
    with pytest.raises(ValueError, match="needs 5 non-edges, has 4"):
        require(house, min_non_edges=5)
    with pytest.raises(ValueError, match="needs 7 edges"):
        require(house, min_edges=7)
    require(named_pattern("wheel4"), three_connected=True, min_non_edges=2, min_edges=3)


def test_three_connectivity_is_computed_when_read(monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return is_3_connected(graph)

    monkeypatch.setattr(hfree.patterns, "is_3_connected", counted)
    names = [*_FIXED, "c4", "c5", "p5", "k5", "k5e", "c7"]
    built = [named_pattern(name) for name in names]
    built += [named_pattern("co-" + name) for name in names]
    built += [complement_pattern(p) for p in built]
    built += [make_pattern(p.graph, p.name) for p in built]
    assert calls == []
    for p in built:
        assert p.three_connected == is_3_connected(p.graph), p.name
    # one check per read: nothing is kept on the pattern
    assert len(calls) == len(built)
    with pytest.raises(ValueError, match="not 3-connected"):
        require(named_pattern("house"), three_connected=True)


def test_make_pattern_rejects_empty():
    with pytest.raises(ValueError):
        make_pattern(Graph(0))


# smallest order each family builds
_SMALLEST_ORDER = {"c": 3, "p": 1, "k": 1, "ke": 3}


@st.composite
def pattern_spellings(draw):
    """A name named_pattern accepts: a fixed name, or a family order with up
    to two leading zeros, under up to two "co-" prefixes, in mixed case."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(["house", "wheel4", "octahedron"]))
    else:
        family = draw(st.sampled_from(sorted(_SMALLEST_ORDER)))
        order = draw(st.integers(_SMALLEST_ORDER[family], 7))
        key = f"{family[0]}{'0' * draw(st.integers(0, 2))}{order}{family[1:]}"
    key = "co-" * draw(st.integers(0, 2)) + key
    upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
    return "".join(ch.upper() if up else ch for ch, up in zip(key, upper))


@settings(max_examples=200)
@given(spelling=pattern_spellings())
def test_recorded_names_resolve_to_the_same_pattern(spelling):
    pattern = named_pattern(spelling)
    again = named_pattern(pattern.name)
    assert again == pattern and again.name == pattern.name
