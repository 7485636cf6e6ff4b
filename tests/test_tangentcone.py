import pytest

from pottsmotive import tangentcone as tc
from pottsmotive.classpoly import T, RationalClass
from pottsmotive.errors import InvalidArgumentError
from pottsmotive.grothendieck import SplitSeeds
from pottsmotive.mpoly import MPoly, Q, edge_var
from pottsmotive.multigraph import EdgeKind, MultiGraph, banana, polygon
from pottsmotive.tutte import forest_poly

T1, T2, T3 = edge_var("1"), edge_var("2"), edge_var("3")


def test_cone_polys_triangle(triangle):
    p, q_red, y = tc.cone_polys(triangle)
    e1 = T1 + T2 + T3
    e2 = T1 * T2 + T1 * T3 + T2 * T3
    assert p == Q**3 + Q**2 * e1 + Q * e2
    assert q_red == Q**2 + Q * e1 + e2
    assert y == e2


def test_cone_polys_loop_and_banana(loop, two_banana):
    assert tc.cone_polys(loop) == (Q, MPoly.const(1), MPoly.const(1))
    p, q_red, y = tc.cone_polys(two_banana)
    assert p == Q**2 + Q * (T1 + T2)
    assert q_red == Q + T1 + T2
    assert y == T1 + T2


def test_cone_poly_relations(triangle, square, path2, loop):
    for g in (triangle, square, path2, loop, banana(3)):
        p, q_red, y = tc.cone_polys(g)
        assert p == Q ** g.components() * q_red
        assert y == forest_poly(g)


def test_v_class_seeds(run_checks):
    run_checks("cone/polygon-seeds-oracle")


def test_v_class_single_vertex():
    assert tc.v_class(MultiGraph(1, ())) == T


def test_v_is_w_minus_y(run_checks):
    run_checks("cone/complement-difference/*")


def test_cone_edge_rule(triangle):
    base = tc.v_class(triangle)
    looped = MultiGraph(3, triangle.edges + (("4", 0, 0),))
    tailed = MultiGraph(4, triangle.edges + (("4", 0, 3),))
    doubled = triangle.double_edge("1", 1)
    assert tc.v_class(looped) == tc.cone_edge_rule(base, EdgeKind.LOOP)
    assert tc.v_class(tailed) == tc.cone_edge_rule(base, EdgeKind.BRIDGE)
    assert tc.v_class(doubled) == tc.cone_edge_rule(base, EdgeKind.LOOP)
    assert tc.cone_edge_rule(T * (T + 1), EdgeKind.LOOP) == (T + 1) * T * (T + 1)
    with pytest.raises(InvalidArgumentError):
        tc.cone_edge_rule(base, EdgeKind.REGULAR)


def test_cone_split_scale(loop):
    split_once = loop.split_edge("1", 2)  # the 2-banana
    assert tc.v_class(split_once) == tc.cone_split_scale(tc.v_class(loop), 1)
    assert tc.cone_split_scale(T * (T + 1), 0) == T * (T + 1)
    # a bridge: splitting the single edge gives the 2-path
    edge = banana(1)
    assert tc.v_class(edge.split_edge("1", 2)) == tc.cone_split_scale(
        tc.v_class(edge), 1
    )


def test_split_residual_cone_poly(triangle):
    assert tc.split_residual_cone_poly(triangle, "3") == T1 * T2


def test_cone_split_check(triangle, two_banana, square):
    assert tc.cone_split_check(triangle, "1")
    assert tc.cone_split_check(two_banana, "1")
    assert tc.cone_split_check(square, "1")
    with pytest.raises(InvalidArgumentError):
        tc.cone_split_check(polygon(1), "1")


def test_cone_recursion_v_matches_closed_form(run_checks):
    run_checks(
        "cone/polygon-closed-vs-recursion",
        "classes/cone-closed-term-matches-recursion",
    )


def test_cone_v_oracle_square(square):
    assert tc.v_class(square) == tc.polygon_cone_class(3)


def test_cone_recursion_y_against_oracle(loop):
    # the q = 0 slice classes of the polygon splitting family: the m-th
    # member is the (m+1)-gon, whose slice is the forest-polynomial locus
    seeds = SplitSeeds(
        tc.y_class(polygon(1)),
        tc.y_class(polygon(2)),
        tc.y_class(polygon(3)),
    )
    assert seeds.s0 == T + 1
    assert seeds.s1 == (T + 1) * T
    for m in range(4):
        assert tc.cone_split_recursion_y(seeds, m) == tc.y_class(polygon(m + 1))
        assert tc.cone_closed_term_y(seeds, m) == tc.cone_split_recursion_y(seeds, m)


def test_cone_closed_term_y_long_range():
    seeds = SplitSeeds(
        tc.y_class(polygon(1)),
        tc.y_class(polygon(2)),
        tc.y_class(polygon(3)),
    )
    for m in range(13):
        assert tc.cone_closed_term_y(seeds, m) == tc.cone_split_recursion_y(seeds, m)


def test_cone_closed_form_y_polygon_coefficients():
    seeds = SplitSeeds(T + 1, T**2 + T, T**3 + 2 * T**2 + T)
    a, b, c = tc.cone_closed_form_y(seeds)
    assert a == RationalClass(T, T + 1)
    assert b == RationalClass(T)
    assert c == RationalClass(T**2 + T + 1, T + 1)
    assert not a.is_polynomial and not c.is_polynomial


def test_banana_cone_class(two_banana):
    assert tc.banana_cone_class(0) == T**2
    assert tc.banana_cone_class(1) == tc.v_class(two_banana)
    assert tc.banana_cone_class(2) == tc.v_class(banana(3))


def test_polygon_cone_class_values():
    assert tc.polygon_cone_class(0) == T * (T + 1)
    assert tc.polygon_cone_class(1) == T**2 * (T + 1)
    assert tc.polygon_cone_class(2) == T * (T + 1) * (T**2 + T - 1)
