import functools
import random

import pytest

from pottsmotive import _countpure, pointcount, tangentcone, tutte
from pottsmotive import grothendieck as gr
from pottsmotive.classpoly import ONE, T, ZERO, ClassPoly, RationalClass
from pottsmotive.errors import ExactDivisionError, InvalidArgumentError, ResourceLimitError
from pottsmotive.multigraph import (
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    disjoint_union,
    polygon,
)

TRIANGLE_CLASS = T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2
TWO_BANANA_CLASS = T**3 + T**2 - 1


def test_class_ring_examples():
    assert T * T == T**2
    assert (T + 1) ** 2 - T**2 == 2 * T + 1
    assert ClassPoly((1, 2, 1)) == (T + 1) ** 2
    assert str(TRIANGLE_CLASS) == "T^4 + 2*T^3 - 2*T^2 - 2*T + 2"


def test_scale_T_power():
    assert (T + 1).scale_T_power(2) == T**3 + T**2
    assert ZERO.scale_T_power(3) == ZERO


def test_div_exact_examples():
    assert (T**2 - 1).divexact(T - 1) == T + 1
    assert ((T - 1) ** 3 - ClassPoly.const(-1)).divexact(T) == T**2 - 3 * T + 3
    with pytest.raises(ExactDivisionError):
        (T**2 + 1).divexact(T - 1)
    assert (2 * T + 2).divexact(ClassPoly.const(2)) == T + 1
    with pytest.raises(ExactDivisionError):
        T.divexact(2 * T)


def test_eval_int():
    assert TRIANGLE_CLASS.eval_int(2) == 22
    assert TRIANGLE_CLASS.eval_int(1) == 1


def test_rational_class():
    r = RationalClass(T**2 - 1, T - 1)
    assert r.is_polynomial and r.as_class() == T + 1
    nonpoly = RationalClass(-(T - 1), T)
    assert not nonpoly.is_polynomial
    with pytest.raises(ExactDivisionError):
        nonpoly.as_class()
    assert RationalClass(T * (T - 1), T) == RationalClass(T - 1)
    # equal, but stored over different denominators: a hash of the stored
    # fields would differ
    assert RationalClass(ONE, T) == RationalClass(T + 1, T * (T + 1))
    with pytest.raises(TypeError):
        hash(RationalClass(ONE, T))


# -- seed classes and one-step formulas -------------------------------------------


def test_polygon_seed_values():
    assert gr.polygon_class(0) == T**2
    assert gr.polygon_class(1) == TWO_BANANA_CLASS
    assert gr.polygon_class(2) == TRIANGLE_CLASS


def test_split_step_triangle_from_oracle_inputs():
    # loop -> 2-banana -> triangle family, over the 2-banana with edge "2"
    g = banana(2)
    z_g = gr.graph_class(g)
    z_con = gr.graph_class(g.contract_edge("2"))
    z_del = pointcount.complement_class(
        tutte.tutte_delcon(g.delete_edge("2")), g.edge_count
    )
    residual = pointcount.locus_complement_class(
        [tutte.split_residual_poly(g, "2")], g.edge_count
    )
    assert residual == T**2 - T
    assert gr.split_step(z_g, z_con, z_del, residual) == TRIANGLE_CLASS


def test_split_step_two_path_family():
    # single edge: the contraction is a vertex, the deletion two vertices,
    # the residual class is zero, and the result is the 2-path class T^3
    assert gr.split_step(T**2, T, T, ZERO) == T**3
    assert gr.split_step(ZERO, ZERO, ZERO, ZERO) == ZERO


def test_split_step_two_path_matches_oracle():
    path2 = banana(1).split_edge("1", 2)
    assert gr.graph_class(path2) == T**3


def test_residual_class_from_seeds():
    seeds = gr.SplitSeeds(T**2, TWO_BANANA_CLASS, TRIANGLE_CLASS)
    z_del = T**2  # single edge in ambient dimension 2
    assert gr.residual_class_from_seeds(seeds, z_del) == T**2 - T
    assert gr.residual_class_from_seeds(gr.SplitSeeds(ZERO, ZERO, ZERO), ZERO) == ZERO
    # single-edge family: zero residual
    assert gr.residual_class_from_seeds(gr.SplitSeeds(T, T**2, T**3), T) == ZERO


def test_split_recursion_seeds_and_square():
    seeds = gr.POLYGON_SEEDS
    for m in range(3):
        assert gr.split_recursion(seeds, m) == [T**2, TWO_BANANA_CLASS, TRIANGLE_CLASS][m]
    square_class = gr.split_recursion(seeds, 3)
    assert square_class == gr.polygon_class(3)
    assert square_class == gr.graph_class(polygon(4))


def test_split_recursion_matches_closed_form(run_checks):
    run_checks(
        "classes/split-closed-term-matches-recursion",
        "classes/cone-closed-term-matches-recursion",
    )


def test_split_closed_form_polygon_coefficients():
    a, b, c = gr.split_closed_form(gr.POLYGON_SEEDS)
    assert a == RationalClass(-(T - 1), T)
    assert b.as_class() == 2 * T**2 - T
    assert c == RationalClass(-((T - 1) ** 2) * (T + 1), T)


def test_split_closed_form_zero_seeds():
    a, b, c = gr.split_closed_form(gr.SplitSeeds(ZERO, ZERO, ZERO))
    assert a.as_class() == ZERO and b.as_class() == ZERO and c.as_class() == ZERO


def test_double_step():
    residual = pointcount.locus_complement_class(
        [tutte.doubling_residual_poly(banana(1), "1")], 1
    )
    assert residual == T - 1
    assert gr.double_step(T**2, residual) == TWO_BANANA_CLASS
    assert gr.double_step(T**2, ZERO) == T**3  # loop case: plain T multiple
    assert gr.double_step(ZERO, ZERO) == ZERO


def test_double_closed_form_banana():
    seeds = gr.DoubleSeeds(T**2, TWO_BANANA_CLASS)
    for m in range(9):
        expected = ClassPoly.monomial(m) + (T - 1) * (T + 1) ** (m + 1)
        assert gr.double_closed_form(seeds, m) == expected
        assert gr.banana_class(m) == expected
    assert gr.double_closed_form(seeds, 0) == T**2
    assert gr.double_closed_form(seeds, 1) == TWO_BANANA_CLASS


def test_double_closed_form_fixed_q_banana():
    seeds = gr.DoubleSeeds(T, T**2 + T + 1)
    for m in range(9):
        assert gr.double_closed_form(seeds, m) == (T + 1) ** (m + 1) - ClassPoly.monomial(m)
        assert gr.banana_class_fixed_q(m) == gr.double_closed_form(seeds, m)


def test_double_recurrence(run_checks):
    run_checks("classes/banana-recurrence")


def test_polygon_class_fixed_q_values():
    assert gr.polygon_class_fixed_q(0) == T
    assert gr.polygon_class_fixed_q(1) == T**2 + T + 1
    assert gr.polygon_class_fixed_q(2) == T**3 + 2 * T**2 - 2


def test_fixed_q_recursion_also_holds():
    seeds = gr.SplitSeeds(
        gr.polygon_class_fixed_q(0),
        gr.polygon_class_fixed_q(1),
        gr.polygon_class_fixed_q(2),
    )
    for m in range(9):
        assert gr.split_recursion(seeds, m) == gr.polygon_class_fixed_q(m)


def _schoolbook_terms(coeffs, seeds, last):
    """Terms 0..last of the recurrence, the window stepped with ClassPoly
    + and *."""
    window = list(seeds)
    terms = list(seeds)
    while len(terms) <= last:
        window = window[1:] + [sum((c * x for c, x in zip(coeffs, window)), ZERO)]
        terms.append(window[-1])
    return terms[: last + 1]


@pytest.mark.parametrize(
    "coeffs, seeds",
    [
        (gr._SPLIT_COEFFS, gr.POLYGON_SEEDS),
        (gr._SPLIT_COEFFS, tangentcone.POLYGON_CONE_SEEDS),
        (tangentcone._Y_COEFFS, gr.POLYGON_SEEDS),
        (tangentcone._Y_COEFFS, tangentcone.POLYGON_CONE_SEEDS),
    ],
)
def test_packed_recurrence_matches_schoolbook(coeffs, seeds):
    seeds = (seeds.s0, seeds.s1, seeds.s2)
    for m, term in enumerate(_schoolbook_terms(coeffs, seeds, 119)):
        assert gr.linear_recurrence(coeffs, seeds, m) == term


def _random_class(rng):
    big = 10**20
    kind = rng.randrange(4)
    if kind == 0:
        return ZERO
    if kind == 1:
        return ClassPoly.const(rng.randint(-big, big))
    return ClassPoly([rng.randint(-big, big) for _ in range(rng.randint(2, 5))])


def test_packed_recurrence_matches_schoolbook_on_random_systems():
    rng = random.Random(16)
    for _ in range(60):
        order = rng.randint(1, 4)
        coeffs = [_random_class(rng) for _ in range(order)]
        seeds = [_random_class(rng) for _ in range(order)]
        terms = _schoolbook_terms(coeffs, seeds, 40)
        # the seeds, the first stepped terms, and two further indices
        for m in {*range(order + 2), rng.randrange(order + 2, 41), 40}:
            assert gr.linear_recurrence(coeffs, seeds, m) == terms[m]


def _fresh_polygon_block(m):
    head = ClassPoly.monomial(m + 1)
    power = (T - 1) ** m
    mid = T * (ClassPoly.monomial(m) - power)
    tail = (power - (-1) ** m).divexact(T)
    return head + mid + tail


def _fresh_banana_block(m):
    return (T + 1) ** (m + 1) - ClassPoly.monomial(m)


def test_memoised_blocks_match_a_fresh_computation():
    ms = range(61)
    assert len(ms) > 2 * gr._BLOCKS  # the memo evicts on the way
    # ascending, then descending (recently kept blocks), then ascending again
    # (blocks evicted and rebuilt)
    for order in (ms, reversed(ms), ms):
        for m in order:
            assert gr.polygon_class_fixed_q(m) == _fresh_polygon_block(m)
            assert gr.banana_class_fixed_q(m) == _fresh_banana_block(m)
            for spec in (FamilySpec(m, 1, 2), FamilySpec(m, 0, 1)):
                shift = spec.k * (spec.n - 1)
                assert gr.chain_polygon_class_fixed_q(spec) == (
                    _fresh_polygon_block(m) ** spec.n
                ).scale_T_power(shift)
                assert gr.chain_banana_class_fixed_q(spec) == (
                    _fresh_banana_block(m) ** spec.n
                ).scale_T_power(shift)
    for block in (gr._polygon_block, gr._banana_block):
        assert block.cache_info().currsize == gr._BLOCKS
    for fn in (gr.polygon_class_fixed_q, gr.banana_class_fixed_q):
        with pytest.raises(InvalidArgumentError):
            fn(-1)
        fn(2)
        # a float index fails in the class arithmetic, as it does unmemoised,
        # rather than being served the block kept for 2
        with pytest.raises((TypeError, AttributeError)):
            fn(2.0)


def test_chain_classes():
    assert gr.chain_polygon_class_fixed_q(FamilySpec(2, 0, 1)) == T**3 + 2 * T**2 - 2
    assert gr.chain_polygon_class_fixed_q(FamilySpec(1, 1, 2)) == (
        (T**2 + T + 1) ** 2
    ).scale_T_power(1)
    assert gr.chain_banana_class_fixed_q(FamilySpec(1, 0, 2)) == (T**2 + T + 1) ** 2


@pytest.mark.parametrize(
    "spec", [FamilySpec(0, 2**63, 2), FamilySpec(1, 0, 2**63), FamilySpec(2**63, 0, 1)]
)
def test_unrepresentable_chain_classes_are_refused(spec):
    for fn in (gr.chain_polygon_class_fixed_q, gr.chain_banana_class_fixed_q):
        with pytest.raises(ResourceLimitError):
            fn(spec)


def test_chain_classes_match_oracle(run_checks):
    run_checks("classes/chain-*-oracle")


def test_fibration_reduce():
    assert gr.fibration_reduce(TRIANGLE_CLASS, 3) == T**3 + 2 * T**2 - 2
    for m in range(9):
        assert gr.fibration_reduce(gr.polygon_class(m), m + 1) == gr.polygon_class_fixed_q(m)
        assert gr.fibration_reduce(gr.banana_class(m), m + 1) == gr.banana_class_fixed_q(m)
    assert gr.fibration_reduce(ClassPoly.monomial(4), 4) == ZERO
    with pytest.raises(ExactDivisionError):
        gr.fibration_reduce(T**2 + 1, 2)


def test_disjoint_union_class(two_edges):
    assert gr.disjoint_union_class(T**2, 1, T**2, 1) == T**3
    assert gr.graph_class(two_edges) == T**3
    loops = disjoint_union(polygon(1), polygon(1))
    assert gr.graph_class(loops) == T**3
    # an all-torus factor has fixed-q class 0, so the union class is the
    # plain torus of the combined edge count
    assert gr.disjoint_union_class(T**2, 1, ClassPoly.monomial(2), 2) == ClassPoly.monomial(3)


def test_join_transform():
    assert gr.join_transform(T**2, "append-edge") == T**3
    assert gr.join_transform((T**2 + T + 1) ** 2, "vertex-join") == (T**2 + T + 1) ** 2
    assert gr.join_transform(ZERO, "append-edge") == ZERO
    with pytest.raises(InvalidArgumentError):
        gr.join_transform(T, "glue")


def test_join_against_oracle(triangle):
    from pottsmotive.multigraph import MultiGraph

    tail = MultiGraph(4, triangle.edges + (("4", 0, 3),))
    looped = MultiGraph(3, triangle.edges + (("4", 0, 0),))
    base = gr.graph_class(triangle)
    assert gr.graph_class(tail) == gr.join_transform(base, "append-edge")
    assert gr.graph_class(looped) == gr.join_transform(base, "append-edge")


def test_delcon_identity_check(run_checks):
    run_checks(
        "oracle/delcon-class/loop/*",
        "oracle/delcon-class/edge/*",
        "oracle/delcon-class/2-banana/*",
        "oracle/delcon-class/triangle/*",
    )


# -- the union and join formulas against counted chains -----------------------------

CHAINS = [
    ("banana", FamilySpec(1, 0, 2)),
    ("banana", FamilySpec(1, 1, 2)),
    ("banana", FamilySpec(0, 0, 2)),
    ("banana", FamilySpec(0, 1, 2)),
    ("banana", FamilySpec(0, 0, 3)),
    ("polygon", FamilySpec(1, 0, 2)),
    ("polygon", FamilySpec(1, 1, 2)),
]
CHAIN_IDS = [f"{family}-{spec.m},{spec.k},{spec.n}" for family, spec in CHAINS]
BUILDERS = {"banana": (chain_bananas, banana), "polygon": (chain_polygons, polygon)}
FIXED_Q = {"banana": gr.chain_banana_class_fixed_q, "polygon": gr.chain_polygon_class_fixed_q}


@functools.cache
def _counted_chain(family, spec):
    return gr.graph_class(BUILDERS[family][0](spec))


@pytest.mark.parametrize("family, spec", CHAINS, ids=CHAIN_IDS)
def test_union_and_join_compose_the_counted_chain(family, spec):
    block = BUILDERS[family][1](spec.m + 1)
    z_block, e_block = gr.graph_class(block), block.edge_count
    z, e = z_block, e_block
    for _ in range(spec.n - 1):
        # the next block side by side, then joined to the chain at a shared
        # vertex (k = 0) or by a bridge and k - 1 appended edges
        z = gr.disjoint_union_class(z, e, z_block, e_block)
        if spec.k == 0:
            z = gr.join_transform(z, "vertex-join")
        else:
            z = gr.join_transform(z, "bridge-join")
            for _ in range(spec.k - 1):
                z = gr.join_transform(z, "append-edge")
        e += e_block + spec.k
    assert e == spec.edge_count
    assert z == _counted_chain(family, spec)


@pytest.mark.parametrize("family, spec", CHAINS, ids=CHAIN_IDS)
def test_chain_fixed_q_class_lifts_to_the_counted_class(family, spec):
    lifted = ClassPoly.monomial(spec.edge_count) + (T - 1) * FIXED_Q[family](spec)
    assert lifted == _counted_chain(family, spec)


# -- criterion 06 on the reference counter ------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [
        polygon(3),
        banana(3),
        # a loop at 0 and the parallel pair 2, 3 between 0 and 1
        MultiGraph(2, (("1", 0, 0), ("2", 0, 1), ("3", 0, 1))),
    ],
    ids=["triangle", "3-banana", "loop-and-pair"],
)
def test_delcon_identity_on_the_reference_counter(monkeypatch, graph):
    calls = []

    def reference(polys, nvars, q):
        calls.append(q)
        return _countpure.brute_force(polys, nvars, q)

    monkeypatch.setattr(_countpure, "count_common_zeros", reference)
    for eid in graph.edge_ids():
        assert gr.delcon_identity_check(graph, eid)
    assert calls  # the counts went through the full enumeration
