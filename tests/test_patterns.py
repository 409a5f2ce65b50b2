import pytest

from hfree.graphs import Graph
from hfree.patterns import make_pattern, named_pattern, require, wheel_graph


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


def test_make_pattern_rejects_empty():
    with pytest.raises(ValueError):
        make_pattern(Graph(0))
