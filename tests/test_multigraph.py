import pytest

from pottsmotive.errors import EdgeNotFoundError, InvalidParameterError
from pottsmotive.multigraph import (
    EdgeKind,
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    disjoint_union,
    format_edge_list,
    parse_edge_list,
    polygon,
)


def test_polygon_shapes():
    g1 = polygon(1)
    assert g1.vertex_count == 1 and g1.edge_count == 1
    assert g1.endpoints("1") == (0, 0)
    g2 = polygon(2)
    assert g2.vertex_count == 2 and g2.edge_count == 2
    assert g2.endpoints("1") == (0, 1) and g2.endpoints("2") == (1, 0)
    g3 = polygon(3)
    assert g3.vertex_count == 3 and g3.edge_count == 3
    degree = [0, 0, 0]
    for _, u, v in g3.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree == [2, 2, 2]


def test_polygon_rejects_zero():
    with pytest.raises(InvalidParameterError):
        polygon(0)


def test_banana_shapes():
    assert banana(1).edge_count == 1
    assert banana(2).edge_count == 2
    g = banana(3)
    assert g.vertex_count == 2 and g.edge_count == 3
    assert all((u, v) == (0, 1) for _, u, v in g.edges)
    with pytest.raises(InvalidParameterError):
        banana(0)


def test_delete_edge(triangle, loop, two_banana):
    path = triangle.delete_edge("2")
    assert path.vertex_count == 3 and path.edge_count == 2
    assert path.edge_ids() == ("1", "3")
    lonely = loop.delete_edge("1")
    assert lonely.vertex_count == 1 and lonely.edge_count == 0
    assert two_banana.delete_edge("1").edge_count == 1
    with pytest.raises(EdgeNotFoundError):
        triangle.delete_edge("nope")


def test_contract_edge(triangle, two_banana, loop):
    contracted = triangle.contract_edge("1")
    assert contracted.vertex_count == 2 and contracted.edge_count == 2
    assert sorted(contracted.edge_ids()) == ["2", "3"]
    assert {contracted.endpoints("2"), contracted.endpoints("3")} <= {(0, 1), (1, 0)}
    squeezed = two_banana.contract_edge("1")
    assert squeezed.vertex_count == 1
    assert squeezed.endpoints("2") == (0, 0)
    # loop convention: contraction equals deletion
    assert loop.contract_edge("1") == loop.delete_edge("1")
    with pytest.raises(EdgeNotFoundError):
        triangle.contract_edge("nope")


def test_contract_keeps_other_ids_and_components(triangle):
    for eid in triangle.edge_ids():
        survivors = set(triangle.edge_ids()) - {eid}
        assert set(triangle.contract_edge(eid).edge_ids()) == survivors
        assert triangle.contract_edge(eid).components() == triangle.components()


def test_split_edge(loop, single_edge, triangle):
    tri = loop.split_edge("1", 3)
    assert tri.vertex_count == 3 and tri.edge_count == 3
    assert all(u != v for _, u, v in tri.edges)
    assert tri.components() == 1
    assert triangle.split_edge("2", 1) == triangle
    path = single_edge.split_edge("1", 2)
    assert path.vertex_count == 3 and path.edge_count == 2
    assert loop.split_edge("1", 0) == loop.contract_edge("1")
    with pytest.raises(EdgeNotFoundError):
        single_edge.split_edge("zz", 2)


def test_split_edge_counts(triangle):
    for m in range(1, 5):
        g = triangle.split_edge("1", m)
        assert g.edge_count == triangle.edge_count + m - 1
        assert g.vertex_count == triangle.vertex_count + m - 1


def test_double_edge(single_edge):
    assert single_edge.double_edge("1", 1).edge_count == 2
    b4 = single_edge.double_edge("1", 3)
    assert b4.vertex_count == 2 and b4.edge_count == 4
    assert single_edge.double_edge("1", 0) == single_edge
    with pytest.raises(EdgeNotFoundError):
        single_edge.double_edge("zz", 1)


def test_classify_edge(triangle, loop):
    assert triangle.classify_edge("1") is EdgeKind.REGULAR
    assert loop.classify_edge("1") is EdgeKind.LOOP
    chained = chain_polygons(FamilySpec(2, 1, 2))
    kinds = [chained.classify_edge(e) for e in chained.edge_ids()]
    assert kinds.count(EdgeKind.BRIDGE) == 1
    assert kinds.count(EdgeKind.REGULAR) == 6


def test_components(triangle, two_edges):
    assert triangle.components() == 1
    assert two_edges.components() == 2
    assert MultiGraph(3, ()).components() == 3


def test_bridge_deletion_increases_components():
    g = chain_polygons(FamilySpec(2, 1, 2))
    for eid in g.edge_ids():
        delta = g.delete_edge(eid).components() - g.components()
        assert (delta == 1) == (g.classify_edge(eid) is EdgeKind.BRIDGE)


def test_surgery_component_invariants(triangle, loop, two_edges, path2):
    corpus = [
        triangle,
        loop,
        two_edges,
        path2,
        banana(3),
        chain_polygons(FamilySpec(2, 1, 2)),
        chain_bananas(FamilySpec(1, 2, 2)),
    ]
    for g in corpus:
        for eid in g.edge_ids():
            u, v = g.endpoints(eid)
            if u != v:
                assert g.contract_edge(eid).components() == g.components()
            delta = g.delete_edge(eid).components() - g.components()
            assert (delta == 1) == (g.classify_edge(eid) is EdgeKind.BRIDGE)
            assert delta in (0, 1)


def test_chain_polygons_examples():
    assert chain_polygons(FamilySpec(2, 0, 1)).edge_count == 3
    two_tri = chain_polygons(FamilySpec(2, 1, 2))
    assert two_tri.edge_count == 7
    shared = chain_polygons(FamilySpec(1, 0, 2))
    assert shared.edge_count == 4
    assert shared.vertex_count == 3  # two 2-gons sharing one vertex


def test_chain_bananas_examples():
    assert chain_bananas(FamilySpec(1, 0, 1)).edge_count == 2
    g = chain_bananas(FamilySpec(0, 2, 2))
    assert g.edge_count == 4 and g.components() == 1
    assert chain_bananas(FamilySpec(2, 1, 2)).edge_count == 7


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("n", range(1, 5))
def test_chain_edge_count_formula(m, k, n):
    spec = FamilySpec(m, k, n)
    expected = n * (m + 1) + k * (n - 1)
    assert spec.edge_count == expected
    assert chain_polygons(spec).edge_count == expected
    assert chain_bananas(spec).edge_count == expected
    assert chain_polygons(spec).components() == 1
    assert chain_bananas(spec).components() == 1


def test_family_spec_validation():
    with pytest.raises(InvalidParameterError):
        FamilySpec(-1, 0, 1)
    with pytest.raises(InvalidParameterError):
        FamilySpec(0, -1, 1)
    with pytest.raises(InvalidParameterError):
        FamilySpec(0, 0, 0)


def test_graph_validation():
    with pytest.raises(InvalidParameterError):
        MultiGraph(1, (("1", 0, 1),))
    with pytest.raises(InvalidParameterError):
        MultiGraph(2, (("1", 0, 1), ("1", 1, 0)))


def test_disjoint_union(single_edge):
    g = disjoint_union(single_edge, single_edge)
    assert g.vertex_count == 4 and g.edge_count == 2
    assert g.components() == 2
    assert len(set(g.edge_ids())) == 2


def test_disjoint_union_renames_until_free():
    # "1" collides with g1, and its renaming "1b" with an id of g2 itself
    g1 = MultiGraph(2, (("1", 0, 1),))
    g2 = MultiGraph(2, (("1b", 0, 1), ("1", 0, 1)))
    g = disjoint_union(g1, g2)
    assert g.edge_ids() == ("1", "1b", "1bb")
    with pytest.raises(InvalidParameterError):
        disjoint_union(g1, g2, suffix="")


def test_edge_list_round_trip(triangle):
    text = format_edge_list(triangle)
    assert text.splitlines()[0] == "V 3"
    assert parse_edge_list(text) == triangle


def test_edge_list_parse_errors():
    with pytest.raises(InvalidParameterError):
        parse_edge_list("3\n1 0 1\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("V 2\n1 0\n")
    with pytest.raises(InvalidParameterError):
        parse_edge_list("V 2\n1 0 five\n")
    # "²".isdigit() holds, yet int("²") fails
    with pytest.raises(InvalidParameterError, match="malformed vertex line"):
        parse_edge_list("V \u00b2\n1 0 0\n")
    # int() takes a sign, an underscore and other scripts' digits; the
    # format takes ASCII digits only
    for endpoints in ("+0 1", "0_0 1", "0 \u0663", "-1 0"):
        with pytest.raises(InvalidParameterError, match="malformed edge line"):
            parse_edge_list(f"V 4\n1 {endpoints}\n")
    for count in ("\u0663", "+3", "3_0"):
        with pytest.raises(InvalidParameterError, match="malformed vertex line"):
            parse_edge_list(f"V {count}\n1 0 0\n")
