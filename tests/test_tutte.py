import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive import _countpure, pointcount, tutte
from pottsmotive.errors import InvalidArgumentError, ResourceLimitError
from pottsmotive.mpoly import MPoly, Q, edge_var
from pottsmotive.multigraph import (
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    polygon,
)
from pottsmotive.tutte import (
    connecting_split,
    doubling_residual_poly,
    forest_complement_from_dual,
    forest_complement_poly,
    forest_poly,
    forest_poly_from_tutte,
    leading_part,
    leading_part_by_forests,
    normalized_tutte,
    reduced_leading_part,
    split_residual_poly,
    tutte_delcon,
    tutte_poly,
)

T1, T2, T3 = edge_var("1"), edge_var("2"), edge_var("3")


def test_tutte_base_cases():
    assert tutte_poly(MultiGraph(1, ())) == Q
    assert tutte_poly(banana(1)) == Q * T1 + Q**2
    assert tutte_poly(polygon(1)) == Q * T1 + Q


def test_tutte_triangle_and_banana(triangle, two_banana):
    expected_tri = (
        Q**3
        + Q**2 * (T1 + T2 + T3)
        + Q * (T1 * T2 + T1 * T3 + T2 * T3 + T1 * T2 * T3)
    )
    assert tutte_delcon(triangle) == expected_tri
    assert tutte_delcon(two_banana) == Q**2 + Q * (T1 + T2 + T1 * T2)


def test_tutte_two_disjoint_edges(two_edges):
    ids = two_edges.edge_ids()
    ta, tb = edge_var(ids[0]), edge_var(ids[1])
    assert tutte_poly(two_edges) == Q**2 * (Q + ta) * (Q + tb)


def test_subset_and_delcon_agree(run_checks):
    run_checks("tutte/subset-vs-delcon/*")


def _delcon_last_edge(g):
    # the textbook recursion on MultiGraph surgery, pivoting on the last edge
    # instead of the first
    if g.edge_count == 0:
        return Q**g.vertex_count
    eid = g.edges[-1][0]
    return _delcon_last_edge(g.delete_edge(eid)) + edge_var(eid) * _delcon_last_edge(
        g.contract_edge(eid)
    )


def test_delcon_pivot_order_irrelevant(triangle, square, path2, two_edges, loop):
    for g in (triangle, square, path2, two_edges, loop, banana(3)):
        assert _delcon_last_edge(g) == tutte_delcon(g)


def test_delcon_identity_every_edge(run_checks):
    run_checks("tutte/delcon-edge/*")


def test_torus_identity(run_checks):
    run_checks("tutte/torus-at-q1/*")


def test_budget():
    # one edge over the symbolic budget: every route refuses before building,
    # the forest routes too, although their pruned walk of banana(21) would
    # visit only 22 subsets
    g = banana(21)
    routes = (
        tutte_poly,
        tutte_delcon,
        forest_poly,
        forest_complement_poly,
        forest_complement_from_dual,
        leading_part_by_forests,
        lambda g: connecting_split(g, "1"),
        lambda g: split_residual_poly(g, "1"),
    )
    for route in routes:
        with pytest.raises(ResourceLimitError, match="symbolic budget of 20"):
            route(g)


def test_normalized_tutte(single_edge, loop):
    assert normalized_tutte(single_edge) == T1 + Q
    assert normalized_tutte(loop) == T1 + 1
    assert normalized_tutte(MultiGraph(2, ())) == MPoly.const(1)


def test_forest_poly(triangle, single_edge, loop):
    assert forest_poly(triangle) == T1 * T2 + T1 * T3 + T2 * T3
    assert forest_poly(single_edge) == T1
    assert forest_poly(loop) == MPoly.const(1)


def test_forest_poly_routes_agree(run_checks):
    run_checks("tutte/forest-poly-routes/*")


def test_forest_complement_poly(triangle, single_edge, two_banana):
    assert forest_complement_poly(triangle) == T1 + T2 + T3
    assert forest_complement_poly(single_edge) == MPoly.const(1)
    assert forest_complement_poly(two_banana) == T1 + T2


def test_forest_complement_reversal(run_checks):
    run_checks("tutte/complement-poly-routes/*")


def test_leading_part(triangle, loop, two_banana):
    assert leading_part(triangle) == Q**3 + Q**2 * (T1 + T2 + T3) + Q * (
        T1 * T2 + T1 * T3 + T2 * T3
    )
    assert leading_part(loop) == Q
    assert leading_part(two_banana) == Q**2 + Q * (T1 + T2)


def test_leading_part_properties(run_checks):
    run_checks("tutte/leading-part-degree/*", "tutte/leading-part-forests/*")


def test_reduced_leading_part(triangle, single_edge):
    assert reduced_leading_part(triangle) == Q**2 + Q * (T1 + T2 + T3) + (
        T1 * T2 + T1 * T3 + T2 * T3
    )
    assert reduced_leading_part(single_edge) == Q + T1
    assert reduced_leading_part(triangle).substitute("q", 0) == forest_poly(triangle)


def test_connecting_split_triangle(triangle):
    zc, zn = connecting_split(triangle, "3")
    assert zc == Q * T1 * T2
    assert zn == Q**3 + Q**2 * T1 + Q**2 * T2


def test_connecting_split_simple(single_edge, two_banana):
    zc, zn = connecting_split(single_edge, "1")
    assert zc.is_zero
    assert zn == Q**2
    zc, zn = connecting_split(two_banana, "2")
    assert zc == Q * T1
    assert zn == Q**2


def test_connecting_split_identities(run_checks):
    run_checks("tutte/connecting-split/*")


def test_connecting_split_rejects_loop(loop):
    with pytest.raises(InvalidArgumentError):
        connecting_split(loop, "1")


def test_split_residual_poly(triangle, single_edge, two_banana):
    one = MPoly.const(1)
    assert split_residual_poly(triangle, "3") == (one - Q) * (Q * T1 * T2)
    assert split_residual_poly(single_edge, "1").is_zero
    assert split_residual_poly(two_banana, "2") == (one - Q) * (Q * T1)
    for g, eid in ((triangle, "1"), (two_banana, "2")):
        assert split_residual_poly(g, eid) == tutte_delcon(
            g.delete_edge(eid)
        ) - Q * tutte_delcon(g.contract_edge(eid))


def test_doubling_residual_poly(triangle, single_edge, loop):
    assert doubling_residual_poly(triangle, "3") == Q * (Q - 1) * (Q + T1 + T2)
    assert doubling_residual_poly(single_edge, "1") == (Q - 1) * Q
    assert doubling_residual_poly(loop, "1").is_zero


def test_doubling_residual_matches_split(run_checks):
    run_checks("tutte/connecting-split/*")


# ids deliberately out of canonical variable order, with the suffixes that
# splitting and doubling produce
EDGE_IDS = ["10", "2", "1.1", "7", "1", "3p1", "12", "x"]


@st.composite
def multigraphs(draw):
    """Multigraphs with up to 8 edges; loops, parallel edges and isolated
    vertices all occur."""
    vertices = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.permutations(EDGE_IDS))[: draw(st.integers(0, len(EDGE_IDS)))]
    vertex = st.integers(min_value=0, max_value=vertices - 1)
    ends = draw(
        st.lists(st.tuples(vertex, vertex), min_size=len(ids), max_size=len(ids))
    )
    return MultiGraph(vertices, tuple((eid, u, v) for eid, (u, v) in zip(ids, ends)))


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_routes_agree_on_random_multigraphs(g, data):
    z = tutte_poly(g)
    assert z == tutte_delcon(g) == _delcon_last_edge(g)
    assert len(z.terms) == 2**g.edge_count
    assert forest_poly(g) == forest_poly_from_tutte(g)
    assert forest_complement_poly(g) == forest_complement_from_dual(g)
    assert leading_part_by_forests(g) == leading_part(g)
    links = [eid for eid, u, v in g.edges if u != v]
    if links:
        eid = data.draw(st.sampled_from(links))
        zc, zn = connecting_split(g, eid)
        assert tutte_delcon(g.delete_edge(eid)) == zc + zn
        assert Q * tutte_delcon(g.contract_edge(eid)) == Q * zc + zn


def _forest_terms_of_z(g):
    # the spanning forests are the subsets A with k(A) + |A| = V
    z = tutte_poly(g)
    assert z.variables[0] == "q"
    forests = {e: c for e, c in z.terms.items() if e[0] + sum(e[1:]) == g.vertex_count}
    return MPoly(z.variables, forests)


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_pruned_forest_walk_matches_the_full_walk(g):
    assert leading_part_by_forests(g) == _forest_terms_of_z(g)


def test_pruned_forest_walk_matches_the_full_walk_at_14_edges():
    g = chain_bananas(FamilySpec(1, 2, 4))
    assert g.edge_count == 14
    assert leading_part_by_forests(g) == _forest_terms_of_z(g)


def test_vertex_labels_beyond_a_byte():
    # vertices 0, 5 and 299 carry a triangle with a parallel edge, 150 a loop
    # that no other edge touches; the other 296 vertices are isolated
    g = MultiGraph(
        300,
        (("1", 0, 5), ("2", 5, 299), ("3", 299, 0), ("4", 0, 299), ("5", 150, 150)),
    )
    z = tutte_poly(g)
    assert z == tutte_delcon(g) == _delcon_last_edge(g)
    assert min(e[0] for e in z.terms) == 298
    assert forest_poly(g) == forest_poly_from_tutte(g)
    assert forest_complement_poly(g) == forest_complement_from_dual(g)
    assert leading_part_by_forests(g) == leading_part(g)
    for eid in ("1", "2", "3", "4"):
        zc, zn = connecting_split(g, eid)
        assert tutte_delcon(g.delete_edge(eid)) == zc + zn
        assert Q * tutte_delcon(g.contract_edge(eid)) == Q * zc + zn


def _assert_columns_expand_to_the_rebuild(polys, rebuilt):
    # each k-list poly goes to the kernel as its own list, the exponent
    # columns; expanded, they are the dense arrays of the rebuild, and the
    # kernel counts both alike
    names, system = pointcount._dense_system(polys)
    rebuilt_names, dense = pointcount._dense_system(rebuilt)
    assert names == rebuilt_names
    assert all(data is p._ks for (_, data), p in zip(system, polys))
    expanded = [(shape, _countpure._dense_columns(shape, ks)) for shape, ks in system]
    assert expanded == dense
    for q in (2, 3, 4):
        assert _countpure.count_common_zeros(
            system, len(names), q
        ) == _countpure.count_common_zeros(dense, len(names), q)


def _assert_subset_poly_agrees(g):
    # z is read before its terms are built; r is a validated rebuild from
    # the terms of a second, separately built Z_G
    z, w = tutte_delcon(g), tutte_delcon(g)
    assert z._ks is not None
    r = MPoly(w.variables, dict(w.terms))
    assert z.render() == r.render()
    assert z and not z.is_zero
    _assert_columns_expand_to_the_rebuild([z], [r])
    with pytest.raises(AttributeError):
        object.__getattribute__(z, "terms")  # none of the above built them
    assert z == w and z == r and r == z and hash(z) == hash(r)
    assert z.substitute("q", 0) == r.substitute("q", 0)
    links = [eid for eid, u, v in g.edges if u != v]
    for eid in links[:2]:
        pair = [tutte_delcon(g.delete_edge(eid)), tutte_delcon(g.contract_edge(eid))]
        rebuilt = [MPoly(p.variables, dict(p.terms)) for p in pair]
        _assert_columns_expand_to_the_rebuild(pair, rebuilt)
        assert (pair[0] == pair[1]) == (rebuilt[0] == rebuilt[1])


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_subset_poly_agrees_with_its_terms(g):
    _assert_subset_poly_agrees(g)


def test_subset_poly_agrees_with_its_terms_beyond_a_byte():
    g = MultiGraph(
        300,
        (("1", 0, 5), ("2", 5, 299), ("3", 299, 0), ("4", 0, 299), ("5", 150, 150)),
    )
    _assert_subset_poly_agrees(g)


# The kernel against itself and the reference counter on exponent columns:
# the column form of a system of k-list polys, its expansion to the dense
# form, and brute_force, at every ladder field within these budgets, and
# with q fixed at every element of each field, x outside F_p included.
KERNEL_POINTS = 10**5  # q^nvars per field for the kernel's two forms
BRUTE_WORK = 2 * 10**4  # points times monomials for brute_force


def _assert_column_form_counts(polys):
    names, system = pointcount._dense_system(polys)
    assert all(data is p._ks for (_, data), p in zip(system, polys))
    dense = [(shape, _countpure._dense_columns(shape, ks)) for shape, ks in system]
    nvars = len(names)
    monomials = sum(len(ks) for _, ks in system)
    kernel = _countpure.count_common_zeros
    for q in pointcount.FIELD_LADDER:
        if q**nvars > KERNEL_POINTS:
            break
        count = kernel(system, nvars, q)
        assert count == kernel(dense, nvars, q)
        if q**nvars * monomials <= BRUTE_WORK:
            assert count == _countpure.brute_force(system, nvars, q)
        slices = [kernel(system, nvars, q, first=a) for a in range(q)]
        assert slices == [kernel(dense, nvars, q, first=a) for a in range(q)]
        assert sum(slices) == count


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_column_form_of_z_matches_dense_and_brute_force(g):
    _assert_column_form_counts([tutte_delcon(g)])


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_column_form_of_the_delcon_pair_matches_dense_and_brute_force(g, data):
    links = [eid for eid, u, v in g.edges if u != v]
    if links:
        eid = data.draw(st.sampled_from(links))
        _assert_column_form_counts(
            [tutte_delcon(g.delete_edge(eid)), tutte_delcon(g.contract_edge(eid))]
        )


@pytest.mark.parametrize("q", pointcount.FIELD_LADDER)
def test_column_form_reaches_every_ladder_field(q):
    # one link: Z = q^2 + q*t, two variables counted at every element of
    # every ladder field, against the dense form and brute_force
    names, system = pointcount._dense_system([tutte_delcon(banana(1))])
    assert system == [((3, 2), [2, 1])]
    dense = [((3, 2), [0, 0, 0, 1, 1, 0])]
    count = _countpure.count_common_zeros(system, 2, q)
    assert count == _countpure.count_common_zeros(dense, 2, q)
    assert count == _countpure.brute_force(system, 2, q) == _countpure.brute_force(dense, 2, q)
    assert count == 2 * q - 1  # q = 0, or t = -q
    for a in range(q):
        slice_count = _countpure.count_common_zeros(system, 2, q, first=a)
        assert slice_count == _countpure.count_common_zeros(dense, 2, q, first=a)
        assert slice_count == (q if a == 0 else 1)


def test_delcon_without_a_vertex_is_unpacked():
    g = MultiGraph(0, ())
    z = tutte_delcon(g)
    assert z._ks is None and z == tutte_poly(g) == MPoly.const(1)


def test_delcon_memo_does_not_leak_between_calls():
    first = MultiGraph(3, (("1", 0, 1), ("2", 1, 2), ("3", 2, 0), ("4", 0, 1)))
    second = MultiGraph(3, (("a", 0, 1), ("b", 1, 2), ("c", 2, 0), ("d", 0, 1)))
    z_first = tutte_delcon(first)
    z_second = tutte_delcon(second)
    assert z_first.variables == ("q", "t1", "t2", "t3", "t4")
    assert z_second.variables == ("q", "ta", "tb", "tc", "td")
    assert z_first == tutte_poly(first)
    assert z_second == tutte_poly(second)
    assert tutte_delcon(first) == z_first


def test_routes_stay_independent(monkeypatch, triangle):
    def forbidden(*args):
        raise AssertionError("the other route was called")

    monkeypatch.setattr(tutte, "tutte_delcon", forbidden)
    tutte_poly(triangle)
    forest_poly(triangle)
    forest_complement_poly(triangle)
    leading_part_by_forests(triangle)
    connecting_split(triangle, "1")
    monkeypatch.undo()
    monkeypatch.setattr(tutte, "_subsets", forbidden)
    tutte_delcon(triangle)


def test_delcon_recursion_makes_no_multigraph_surgery(monkeypatch, triangle):
    def forbidden(*args):
        raise AssertionError("tutte_delcon called MultiGraph surgery")

    graphs = (triangle, banana(3), chain_polygons(FamilySpec(1, 1, 2)))
    expected = [tutte_poly(g) for g in graphs]
    for name in ("delete_edge", "contract_edge", "classify_edge"):
        monkeypatch.setattr(MultiGraph, name, forbidden)
    assert [tutte_delcon(g) for g in graphs] == expected


@pytest.mark.parametrize(
    "g",
    [
        chain_polygons(FamilySpec(0, 3, 4)),
        chain_bananas(FamilySpec(1, 2, 4)),
        polygon(12),
    ],
    ids=["chain-polygons-0-3-4", "chain-bananas-1-2-4", "polygon-12"],
)
def test_delcon_matches_subsets_beyond_the_random_graphs(g):
    # 12-14 edges with loops, bridges and parallel pairs, past the 8 edges of
    # the hypothesis strategy
    assert g.edge_count >= 12
    assert tutte_delcon(g) == tutte_poly(g)


@pytest.mark.parametrize(
    "g",
    [
        MultiGraph(0, ()),
        MultiGraph(1, (("1", 0, 0), ("2", 0, 0))),
        MultiGraph(3, (("1", 1, 1), ("2", 2, 2), ("3", 1, 1))),
        MultiGraph(4, (("1", 0, 1),)),
        MultiGraph(2, ()),
        MultiGraph(5, (("1", 0, 1), ("2", 1, 0), ("3", 2, 3), ("4", 3, 4), ("5", 4, 2))),
    ],
    ids=["no-vertex", "loops", "loops-and-isolated", "isolated", "no-edge", "two-components"],
)
def test_delcon_edge_cases_match_subsets(g):
    # delcon builds its result without validation; it must be the very
    # polynomial the validating subset route builds
    z = tutte_delcon(g)
    assert z == tutte_poly(g)  # equal variables and equal terms
    again = MPoly(z.variables, z.terms)
    assert (again.variables, again.terms) == (z.variables, z.terms)


# Every packed poly of this module (both routes to Z_G, its q-quotient, its
# lowest parts and the connecting halves) against a validated rebuild: the
# readers, the list passes, the dense conversion and the sums of the split.


def _assert_packed_polys_agree(g, links, assert_packed, assert_packed_sum):
    makers = [
        lambda: tutte_poly(g),
        lambda: tutte_delcon(g),
        lambda: normalized_tutte(g),
        lambda: leading_part(g),
        lambda: reduced_leading_part(g),
    ]
    for eid in links:
        makers += [
            lambda eid=eid: connecting_split(g, eid)[0],
            lambda eid=eid: connecting_split(g, eid)[1],
            lambda eid=eid: connecting_split(g, eid)[1].divide_exact_by_q_power(1),
        ]
    for make in makers:
        assert_packed(make)
    z = tutte_delcon(g)
    assert_packed_sum(z, leading_part(g))
    for eid in links:
        zc, zn = connecting_split(g, eid)
        assert_packed_sum(zc, zn)
        assert_packed_sum(Q * zc, zn)
        assert_packed_sum(zc, zc)


@given(multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_packed_polys_agree_with_their_rebuilds(
    assert_packed, assert_packed_sum, g, data
):
    links = [eid for eid, u, v in g.edges if u != v]
    chosen = [data.draw(st.sampled_from(links))] if links else []
    _assert_packed_polys_agree(g, chosen, assert_packed, assert_packed_sum)


@pytest.mark.parametrize(
    "g",
    [
        MultiGraph(0, ()),
        MultiGraph(1, (("1", 0, 0), ("2", 0, 0))),
        MultiGraph(3, (("1", 1, 1), ("2", 2, 2), ("3", 1, 1))),
        MultiGraph(4, (("1", 0, 1),)),
        MultiGraph(2, ()),
        MultiGraph(
            300,
            (("1", 0, 5), ("2", 5, 299), ("3", 299, 0), ("4", 0, 299), ("5", 150, 150)),
        ),
    ],
    ids=["no-vertex", "loops", "loops-and-isolated", "isolated", "no-edge", "300-vertices"],
)
def test_packed_polys_agree_on_edge_cases(assert_packed, assert_packed_sum, g):
    links = [eid for eid, u, v in g.edges if u != v]
    _assert_packed_polys_agree(g, links, assert_packed, assert_packed_sum)


def test_derived_polys_stay_packed():
    # a loop and a parallel pair: the lowest part drops the loop, Zn the
    # edge parallel to the split one, and Zc is 0 at a bridge
    g = MultiGraph(3, (("1", 0, 1), ("2", 0, 1), ("3", 1, 2), ("4", 2, 2)))
    lead = leading_part(g)
    assert lead._ks is not None and lead.variables == ("q", "t1", "t2", "t3")
    reduced = reduced_leading_part(g)
    assert reduced._ks is not None and reduced == lead.divide_exact_by_q_power(1)
    assert normalized_tutte(g)._ks is not None
    zc, zn = connecting_split(g, "1")
    assert zc._ks is not None and zn._ks is not None
    assert zn.variables == ("q", "t3", "t4")
    assert (Q * zc + zn)._ks is not None
    bridge_zc, _ = connecting_split(g, "3")
    assert bridge_zc.is_zero


# Deletion and contraction build their graphs without validation, and one
# step of the edge identity, Z_{G-e} + t_e Z_{G/e}, stays packed: a list
# pass for the product and slices for the widening of the sum.


def _assert_surgery_is_valid(g):
    for eid in g.edge_ids():
        for r in (g.delete_edge(eid), g.contract_edge(eid)):
            again = MultiGraph(r.vertex_count, r.edges)
            assert r == again and again == r and hash(r) == hash(again)
            assert type(r.edges) is tuple
            assert all(
                (type(e), type(u), type(v)) == (str, int, int) for e, u, v in r.edges
            )


def _assert_delcon_step_stays_packed(g):
    z, lead = tutte_delcon(g), leading_part(g)
    for eid, u, v in g.edges:
        t, deleted, contracted = edge_var(eid), g.delete_edge(eid), g.contract_edge(eid)
        step = tutte_delcon(deleted) + t * tutte_delcon(contracted)
        assert step._ks is not None
        assert (step.variables, step._ks) == (z.variables, z._ks)
        if u != v:  # a loop would add its own terms to the lowest part
            low = leading_part(deleted) + t * leading_part(contracted)
            assert low._ks is not None
            assert (low.variables, low._ks) == (lead.variables, lead._ks)


@given(multigraphs())
@settings(max_examples=60, deadline=None)
def test_surgery_and_the_delcon_step_on_random_multigraphs(g):
    _assert_surgery_is_valid(g)
    _assert_delcon_step_stays_packed(g)


@pytest.mark.parametrize(
    "g",
    [
        MultiGraph(1, (("1", 0, 0), ("2", 0, 0))),
        MultiGraph(3, (("1", 1, 1), ("2", 2, 2), ("3", 1, 1))),
        MultiGraph(4, (("1", 0, 1),)),
        MultiGraph(5, (("1", 0, 1), ("2", 1, 0), ("3", 2, 3), ("4", 3, 4), ("5", 4, 2))),
        MultiGraph(
            300,
            (("1", 0, 5), ("2", 5, 299), ("3", 299, 0), ("4", 0, 299), ("5", 150, 150)),
        ),
        chain_polygons(FamilySpec(2, 1, 2)),
    ],
    ids=["loops", "loops-and-isolated", "isolated", "two-components", "300-vertices", "chain-polygon-212"],
)
def test_surgery_and_the_delcon_step_on_edge_cases(g):
    _assert_surgery_is_valid(g)
    _assert_delcon_step_stays_packed(g)
