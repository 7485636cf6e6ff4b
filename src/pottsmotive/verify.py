"""The check registry behind the `verify` CLI subcommand and the test suite.

Each suite replays the structural identities of one layer of the package on
a small fixed corpus of graphs, using the point-counting oracle wherever a
class is involved.  A suite is a generator of named checks `(name, thunk)`
in report order; a thunk takes no arguments and returns `(ok, detail)`.
`checks` chains the suites, `run_suite` runs each check once through
`_check` and collects one pass/fail result per name, and the tests run the
same thunks under the same names.  The registry is lazy: a value that
several checks of one graph take as an argument (such as its Z_G) is made
between them, outside the thunks.  All checks are deterministic.

Many checks rebuild the same Z_G or repeat the same count: a graph's Z_G
recurs in every edge's deletion-contraction check, and a subgraph's in the
checks of its parent.  For the length of one `run_suite` call, the memo of
_runmemo shares both: each graph's Z_G and each kernel count of a
pointcount.complement_counter (converted system, field, fixed element) are made
once per run.  It is not process-wide: it ends with the run, even when the
run raises, so the tests that run the thunks one by one, or that swap in
the reference counter, count afresh.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterator

from . import grothendieck as gr
from . import _runmemo, motivic, pointcount, tangentcone, tutte
from .classpoly import T
from .errors import InvalidArgumentError
from .mpoly import MPoly, Q, edge_var
from .multigraph import (
    EdgeKind,
    FamilySpec,
    MultiGraph,
    banana,
    chain_bananas,
    chain_polygons,
    disjoint_union,
    polygon,
)

LOOP = polygon(1)
SINGLE_EDGE = banana(1)
TWO_BANANA = banana(2)
TRIANGLE = polygon(3)
SQUARE = polygon(4)
PATH_2 = MultiGraph(3, (("1", 0, 1), ("2", 1, 2)))
TWO_EDGES = disjoint_union(SINGLE_EDGE, SINGLE_EDGE)
TWO_LOOPS = disjoint_union(LOOP, LOOP)
TRIANGLE_LOOP = MultiGraph(3, TRIANGLE.edges + (("4", 0, 0),))
TRIANGLE_TAIL = MultiGraph(4, TRIANGLE.edges + (("4", 0, 3),))


def corpus() -> list[tuple[str, MultiGraph]]:
    return [
        ("loop", LOOP),
        ("edge", SINGLE_EDGE),
        ("2-banana", TWO_BANANA),
        ("triangle", TRIANGLE),
        ("square", SQUARE),
        ("path-2", PATH_2),
        ("two-edges", TWO_EDGES),
        ("two-loops", TWO_LOOPS),
        ("3-banana", banana(3)),
        ("triangle-loop", TRIANGLE_LOOP),
        ("triangle-tail", TRIANGLE_TAIL),
        ("polygon-chain-212", chain_polygons(FamilySpec(2, 1, 2))),
        ("banana-chain-102", chain_bananas(FamilySpec(1, 0, 2))),
    ]


Check = tuple[str, Callable[[], tuple[bool, str]]]


def _check(results: list, name: str, fn) -> None:
    # any exception, a package error or a fault such as the kernel's
    # ValueError, fails this check alone and the report still comes out
    try:
        ok, detail = fn()
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    results.append({"name": name, "ok": bool(ok), "detail": detail})


def _eq(a, b) -> tuple[bool, str]:
    return (a == b, f"{a} vs {b}" if a != b else "equal")


# -- suite: tutte ---------------------------------------------------------------


def suite_tutte(max_dim: int = 5) -> Iterator[Check]:
    for name, g in corpus():
        yield (
            f"tutte/subset-vs-delcon/{name}",
            lambda g=g: _eq(tutte.tutte_poly(g), tutte.tutte_delcon(g)),
        )
        yield (
            f"tutte/torus-at-q1/{name}",
            lambda g=g: _eq(
                tutte.tutte_delcon(g).substitute("q", 1),
                _edge_torus_product(g),
            ),
        )
        yield (
            f"tutte/forest-poly-routes/{name}",
            lambda g=g: _eq(tutte.forest_poly(g), tutte.forest_poly_from_tutte(g)),
        )
        yield (
            f"tutte/complement-poly-routes/{name}",
            lambda g=g: _eq(
                tutte.forest_complement_poly(g),
                tutte.forest_complement_from_dual(g),
            ),
        )
        yield (
            f"tutte/leading-part-forests/{name}",
            lambda g=g: _eq(tutte.leading_part(g), tutte.leading_part_by_forests(g)),
        )
        yield (
            f"tutte/leading-part-degree/{name}",
            lambda g=g: (
                tutte.leading_part(g).is_homogeneous()
                and tutte.leading_part(g).total_degree() == g.vertex_count,
                "homogeneous of degree V",
            ),
        )
        yield (
            f"tutte/q0-slice-is-forest-poly/{name}",
            lambda g=g: _eq(
                tutte.reduced_leading_part(g).substitute("q", 0),
                tutte.forest_poly(g),
            ),
        )
        for eid in g.edge_ids():
            yield (
                f"tutte/delcon-edge/{name}/{eid}",
                lambda g=g, e=eid: _eq(
                    tutte.tutte_delcon(g),
                    tutte.tutte_delcon(g.delete_edge(e))
                    + edge_var(e) * tutte.tutte_delcon(g.contract_edge(e)),
                ),
            )
            u, v = g.endpoints(eid)
            if u != v:
                yield (
                    f"tutte/connecting-split/{name}/{eid}",
                    lambda g=g, e=eid: _split_identities(g, e),
                )
            if g.classify_edge(eid) is EdgeKind.REGULAR:
                yield (
                    f"tutte/leading-delcon/{name}/{eid}",
                    lambda g=g, e=eid: _eq(
                        tutte.leading_part(g),
                        tutte.leading_part(g.delete_edge(e))
                        + edge_var(e) * tutte.leading_part(g.contract_edge(e)),
                    ),
                )


def _edge_torus_product(g: MultiGraph) -> MPoly:
    out = MPoly.const(1)
    for eid in g.edge_ids():
        out = out * (MPoly.const(1) + edge_var(eid))
    return out


def _split_identities(g: MultiGraph, eid: str):
    zc, zn = tutte.connecting_split(g, eid)
    z_del = tutte.tutte_delcon(g.delete_edge(eid))
    z_con = tutte.tutte_delcon(g.contract_edge(eid))
    ok = (
        z_del == zc + zn
        and Q * z_con == Q * zc + zn
        and tutte.split_residual_poly(g, eid) == z_del - Q * z_con
        and tutte.doubling_residual_poly(g, eid) == (Q - 1) * zn.divide_exact_by_q_power(1)
    )
    return ok, "split identities"


# -- suite: oracle ---------------------------------------------------------------


def suite_oracle(max_dim: int = 5) -> Iterator[Check]:
    for name, g in corpus():
        dim = g.edge_count + 1
        if dim > max_dim:
            continue
        z = tutte.tutte_delcon(g)
        complement = pointcount.complement_counter([z], dim)
        yield (
            f"oracle/complement-plus-zeros/{name}",
            lambda c=complement, d=dim: _eq(c(5) + (5**d - c(5)), 5**d),
        )
        yield f"oracle/f2-count-is-1/{name}", lambda c=complement: _eq(c(2), 1)
        yield (
            f"oracle/class-at-1/{name}",
            lambda g=g: _eq(gr.graph_class(g).eval_int(1), 1),
        )
        yield f"oracle/roundtrip/{name}", lambda z=z, d=dim: _roundtrip(z, d)
        for eid in g.edge_ids():
            yield (
                f"oracle/delcon-class/{name}/{eid}",
                lambda g=g, e=eid: (
                    gr.delcon_identity_check(g, e),
                    "class deletion-contraction",
                ),
            )
        yield (
            f"oracle/fixed-q-independent/{name}",
            lambda g=g, z=z: _fixed_q_independent(g, z),
        )
    yield "oracle/seed-loop", lambda: _eq(gr.graph_class(LOOP), T**2)
    yield (
        "oracle/seed-2-banana",
        lambda: _eq(gr.graph_class(TWO_BANANA), T**3 + T**2 - 1),
    )
    yield (
        "oracle/seed-triangle",
        lambda: _eq(gr.graph_class(TRIANGLE), T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2),
    )


def _roundtrip(z: MPoly, dim: int):
    report = pointcount.complement_report(z, dim)
    ok = all(report.interpolated.eval_int(p - 1) == n for p, n in report.samples)
    return ok, "interpolation reproduces all samples"


def _fixed_q_independent(g: MultiGraph, z: MPoly):
    # every element but 0 and 1, F_4 and F_8 included: a fixed-q report
    # counts those fields at x, so its fit rests on this independence
    complement = pointcount.complement_counter([z], g.edge_count, fixed_q=True)
    for q in (3, 4, 5, 7, 8):
        counts = {complement(q, a) for a in range(2, q)}
        if len(counts) > 1:
            return False, f"fixed-q counts differ at p={q}: {sorted(counts)}"
    return True, "independent of the fixed q"


# -- suite: classes ----------------------------------------------------------------


def suite_classes(max_dim: int = 5) -> Iterator[Check]:
    seeds = gr.POLYGON_SEEDS
    yield (
        "classes/polygon-recursion-vs-closed",
        lambda: _eq(
            [gr.split_recursion(seeds, m) for m in range(9)],
            [gr.polygon_class(m) for m in range(9)],
        ),
    )
    yield (
        "classes/split-closed-term-matches-recursion",
        lambda: _eq(
            [gr.split_closed_term(seeds, m) for m in range(13)],
            [gr.split_recursion(seeds, m) for m in range(13)],
        ),
    )
    cone_seeds = tangentcone.POLYGON_CONE_SEEDS
    yield (
        "classes/cone-closed-term-matches-recursion",
        lambda: _eq(
            [gr.split_closed_term(cone_seeds, m) for m in range(13)],
            [gr.split_recursion(cone_seeds, m) for m in range(13)],
        ),
    )
    bseeds = gr.DoubleSeeds(T**2, T**3 + T**2 - 1)
    yield (
        "classes/banana-closed-form",
        lambda: _eq(
            [gr.double_closed_form(bseeds, m) for m in range(9)],
            [gr.banana_class(m) for m in range(9)],
        ),
    )
    yield (
        "classes/banana-recurrence",
        lambda: (
            all(
                gr.double_closed_form(bseeds, m + 2)
                == (2 * T + 1) * gr.double_closed_form(bseeds, m + 1)
                - T * (T + 1) * gr.double_closed_form(bseeds, m)
                for m in range(9)
            ),
            "order-2 recurrence",
        ),
    )
    yield (
        "classes/fibration-polygon",
        lambda: _eq(
            [gr.fibration_reduce(gr.polygon_class(m), m + 1) for m in range(9)],
            [gr.polygon_class_fixed_q(m) for m in range(9)],
        ),
    )
    yield (
        "classes/fibration-banana",
        lambda: _eq(
            [gr.fibration_reduce(gr.banana_class(m), m + 1) for m in range(9)],
            [gr.banana_class_fixed_q(m) for m in range(9)],
        ),
    )
    yield (
        "classes/disjoint-union-two-edges",
        lambda: _eq(gr.disjoint_union_class(T**2, 1, T**2, 1), T**3),
    )
    yield (
        "classes/join-transforms",
        lambda: _eq(
            (
                gr.join_transform(T**2, "vertex-join"),
                gr.join_transform(T**2, "bridge-join"),
                gr.join_transform(T**2, "append-edge"),
            ),
            (T**2, T**3, T**3),
        ),
    )
    if max_dim >= 3:
        yield "classes/residual-from-seeds-vs-oracle", _residual_against_oracle
        yield "classes/doubling-residual-vs-oracle", _doubling_against_oracle
    if max_dim >= 4:
        yield (
            "classes/oracle-two-edges-class",
            lambda: _eq(gr.graph_class(TWO_EDGES), T**3),
        )
        yield (
            "classes/oracle-two-loops-class",
            lambda: _eq(gr.graph_class(TWO_LOOPS), T**3),
        )
    if max_dim >= 5:
        yield (
            "classes/chain-banana-oracle",
            lambda: _eq(
                pointcount.fixed_q_class(
                    tutte.tutte_delcon(chain_bananas(FamilySpec(1, 0, 2))), 4
                ),
                gr.chain_banana_class_fixed_q(FamilySpec(1, 0, 2)),
            ),
        )
        yield (
            "classes/chain-polygon-oracle",
            lambda: _eq(
                pointcount.fixed_q_class(
                    tutte.tutte_delcon(chain_polygons(FamilySpec(1, 1, 2))), 5
                ),
                gr.chain_polygon_class_fixed_q(FamilySpec(1, 1, 2)),
            ),
        )


def _residual_against_oracle():
    # the loop -> 2-banana -> triangle splitting family sits over the
    # 2-banana with either of its edges
    g = TWO_BANANA
    eid = "2"
    seeds = gr.SplitSeeds(
        gr.graph_class(g.contract_edge(eid)),
        gr.graph_class(g),
        gr.graph_class(g.split_edge(eid, 2)),
    )
    z_del = gr.complement_class(
        tutte.tutte_delcon(g.delete_edge(eid)), g.edge_count
    )
    derived = gr.residual_class_from_seeds(seeds, z_del)
    counted = pointcount.locus_complement_class(
        [tutte.split_residual_poly(g, eid)], g.edge_count
    )
    return _eq(derived, counted)


def _doubling_against_oracle():
    g = SINGLE_EDGE
    eid = "1"
    residual = pointcount.locus_complement_class(
        [tutte.doubling_residual_poly(g, eid)], g.edge_count
    )
    doubled = gr.double_step(gr.graph_class(g), residual)
    return _eq(doubled, gr.graph_class(g.double_edge(eid, 1)))


# -- suite: cone -------------------------------------------------------------------


def suite_cone(max_dim: int = 5) -> Iterator[Check]:
    for name, g in corpus():
        yield (
            f"cone/q0-slice-vs-forests/{name}",
            lambda g=g: (
                tangentcone.cone_polys(g)[2] == tutte.forest_poly(g),
                "slice equals forest sum",
            ),
        )
        if g.edge_count + 1 <= max_dim:
            yield (
                f"cone/complement-difference/{name}",
                lambda g=g: (
                    tangentcone.v_class(g)
                    == tangentcone.w_class(g) - tangentcone.y_class(g),
                    "cone = component minus slice",
                ),
            )
    yield (
        "cone/polygon-seeds-oracle",
        lambda: _eq(
            (
                tangentcone.v_class(LOOP),
                tangentcone.v_class(TWO_BANANA),
                tangentcone.v_class(TRIANGLE),
            ),
            (
                tangentcone.POLYGON_CONE_SEEDS.s0,
                tangentcone.POLYGON_CONE_SEEDS.s1,
                tangentcone.POLYGON_CONE_SEEDS.s2,
            ),
        ),
    )
    yield (
        "cone/polygon-closed-vs-recursion",
        lambda: _eq(
            [
                gr.split_recursion(tangentcone.POLYGON_CONE_SEEDS, m)
                for m in range(7)
            ],
            [tangentcone.polygon_cone_class(m) for m in range(7)],
        ),
    )
    yield (
        "cone/exponential-coefficients",
        lambda: _eq(
            tuple(
                r.as_class()
                for r in gr.split_closed_form(tangentcone.POLYGON_CONE_SEEDS)
            ),
            (T - 1, 2 * T**2, -(T**2 - 1)),
        ),
    )
    yield (
        "cone/loop-split-scale",
        lambda: _eq(
            tangentcone.v_class(LOOP.split_edge("1", 2)),
            tangentcone.cone_split_scale(tangentcone.v_class(LOOP), 1),
        ),
    )
    yield (
        "cone/edge-rule-loop",
        lambda: _eq(
            tangentcone.v_class(TRIANGLE_LOOP),
            tangentcone.cone_edge_rule(tangentcone.v_class(TRIANGLE), EdgeKind.LOOP),
        ),
    )
    yield (
        "cone/edge-rule-bridge",
        lambda: _eq(
            tangentcone.v_class(TRIANGLE_TAIL),
            tangentcone.cone_edge_rule(tangentcone.v_class(TRIANGLE), EdgeKind.BRIDGE),
        ),
    )
    yield (
        "cone/edge-rule-parallel",
        lambda: _eq(
            tangentcone.v_class(TRIANGLE.double_edge("1", 1)),
            tangentcone.cone_edge_rule(tangentcone.v_class(TRIANGLE), EdgeKind.LOOP),
        ),
    )
    for name, g, eid in (
        ("2-banana", TWO_BANANA, "1"),
        ("triangle", TRIANGLE, "1"),
    ):
        if g.edge_count + 2 <= max_dim + 1:
            yield (
                f"cone/split-identity/{name}",
                lambda g=g, e=eid: (
                    tangentcone.cone_split_check(g, e),
                    "regular-edge splitting identity",
                ),
            )
    for name, g, eid in (("triangle", TRIANGLE, "1"), ("2-banana", TWO_BANANA, "1")):
        yield (
            f"cone/component-delcon/{name}",
            lambda g=g, e=eid: _component_delcon(g, e),
        )


def _component_delcon(g: MultiGraph, eid: str):
    # deletion-contraction for the q-reduced component and for its q = 0
    # slice, both through the oracle, for a regular edge
    dim = g.edge_count
    w_g = tangentcone.w_class(g)
    w_con = tangentcone.w_class(g.contract_edge(eid))
    w_int = pointcount.locus_complement_class(
        [
            tutte.reduced_leading_part(g.delete_edge(eid)),
            tutte.reduced_leading_part(g.contract_edge(eid)),
        ],
        dim,
    )
    ok_w = w_g == (T + 1) * w_int - w_con
    y_del = tutte.reduced_leading_part(g.delete_edge(eid)).substitute("q", 0)
    y_con = tutte.reduced_leading_part(g.contract_edge(eid)).substitute("q", 0)
    y_g = tangentcone.y_class(g)
    y_con_cls = tangentcone.y_class(g.contract_edge(eid))
    y_int = pointcount.locus_complement_class([y_del, y_con], dim - 1)
    ok_y = y_g == (T + 1) * y_int - y_con_cls
    return ok_w and ok_y, "component and slice deletion-contraction"


# -- suite: chi ---------------------------------------------------------------------


def suite_chi(max_dim: int = 5) -> Iterator[Check]:
    def _grid(rows_fn):
        bad = []
        for m in range(5):
            for k in range(4):
                for n in range(1, 5):
                    row = rows_fn(FamilySpec(m, k, n))
                    if not row["agree"]:
                        bad.append((m, k, n))
        return not bad, f"disagreements: {bad}" if bad else "all 80 cases agree"

    yield "chi/polygon-grid", lambda: _grid(motivic.chain_polygon_chi_table_row)
    yield "chi/banana-grid", lambda: _grid(motivic.chain_banana_chi_table_row)
    samples = [
        gr.polygon_class(m) for m in range(6)
    ] + [gr.banana_class_fixed_q(m) for m in range(6)]
    yield (
        "chi/virtual-poincare-at-minus-1",
        lambda: (
            all(
                motivic.virtual_poincare(c).substitute("u", -1)
                == MPoly.const(motivic.chi_c_real(c))
                for c in samples
            ),
            "u = -1 value equals chi_c",
        ),
    )
    yield (
        "chi/e-polynomial-at-1-1",
        lambda: (
            all(
                motivic.e_polynomial(c).substitute("x", 1).substitute("y", 1)
                == MPoly.const(motivic.chi_complex(c))
                for c in samples
            ),
            "x = y = 1 value equals chi",
        ),
    )
    yield (
        "chi/ring-homomorphisms",
        lambda: (
            all(
                motivic.chi_c_real(a * b) == motivic.chi_c_real(a) * motivic.chi_c_real(b)
                and motivic.chi_complex(a + b)
                == motivic.chi_complex(a) + motivic.chi_complex(b)
                for a in samples[:4]
                for b in samples[4:8]
            ),
            "products and sums",
        ),
    )


SUITES = {
    "tutte": suite_tutte,
    "oracle": suite_oracle,
    "classes": suite_classes,
    "cone": suite_cone,
    "chi": suite_chi,
}


def checks(suite: str = "all", max_dim: int = 5) -> Iterator[Check]:
    """The named checks of one suite, or of every suite for "all", in report
    order.  max_dim is the largest ambient dimension the oracle checks
    count in."""
    # below 1 every oracle check would be skipped and the suite would pass
    # without having counted anything
    if max_dim < 1:
        raise InvalidArgumentError(f"max_dim must be at least 1, got {max_dim}")
    if suite == "all":
        return chain.from_iterable(s(max_dim) for s in SUITES.values())
    if suite not in SUITES:
        raise InvalidArgumentError(
            f"unknown suite {suite!r}; expected one of {sorted(SUITES)} or 'all'"
        )
    return SUITES[suite](max_dim)


def run_suite(name: str, max_dim: int = 5) -> list[dict]:
    """One {name, ok, detail} result per check of checks(name, max_dim), in
    report order, with Z_G and kernel counts shared for this run only."""
    results: list[dict] = []
    with _runmemo.run():
        for check_name, fn in checks(name, max_dim):
            _check(results, check_name, fn)
    return results
