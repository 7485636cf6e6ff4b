"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (integer or polynomial equality); there are no
tolerances anywhere.  Oracle-side values are recomputed from finite-field
counts inside the test, never copied from the formulas they are checking.
Criteria 04, 06, 07 and 08 are identities of the `verify` check registry and
run those checks by name.
"""

from pottsmotive import grothendieck as gr
from pottsmotive import motivic as mv
from pottsmotive import pointcount as pc
from pottsmotive import tutte
from pottsmotive.classpoly import T
from pottsmotive.multigraph import FamilySpec, banana, polygon
from pottsmotive.verify import (
    LOOP,
    PATH_2,
    SINGLE_EDGE,
    SQUARE,
    TRIANGLE,
    TWO_BANANA,
    TWO_EDGES,
)

CORPUS = [
    LOOP,
    SINGLE_EDGE,
    TWO_BANANA,
    TRIANGLE,
    SQUARE,
    polygon(5),
    PATH_2,
    TWO_EDGES,
    banana(3),
    banana(4),
    banana(5),
]


def _criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS {description}")


def _z_class(g, primes=None, check_prime=None):
    complement = pc.complement_counter([tutte.tutte_delcon(g)], g.edge_count + 1)
    return pc.count_report(complement, g.edge_count + 1, primes, check_prime).interpolated


def test_criterion_01_seed_classes():
    def body():
        primes, check = (2, 3, 5, 7, 11), 13
        assert _z_class(LOOP, primes, check) == T**2
        assert _z_class(TWO_BANANA, primes, check) == T**3 + T**2 - 1
        assert _z_class(TRIANGLE, primes, check) == (
            T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2
        )

    _criterion(1, "seed classes: loop, 2-banana, triangle", body)


def test_criterion_02_polygon_closed_form():
    def body():
        square = _z_class(SQUARE, (2, 3, 5, 7, 11, 13), 17)
        assert square == gr.polygon_class(3)
        pentagon = _z_class(polygon(5), (2, 3, 5, 7, 11, 13, 17), 19)
        assert pentagon == gr.polygon_class(4)

    _criterion(2, "polygon closed form vs oracle for the square and pentagon", body)


def test_criterion_03_fixed_q_independence():
    def body():
        z = tutte.tutte_delcon(TRIANGLE)
        fixed = gr.polygon_class_fixed_q(2)
        complement = pc.complement_counter([z], 3, fixed_q=True)
        for p in (5, 7, 11):
            counts = {complement(p, q0) for q0 in range(2, p)}
            assert counts == {fixed.eval_int(p - 1)}

    _criterion(3, "fixed-q counts of the triangle: q-independent, match T^3+2T^2-2", body)


def test_criterion_04_fibration_reduction(run_checks):
    _criterion(
        4,
        "fibration reduction, polygons and bananas, m = 0..8",
        lambda: run_checks("classes/fibration-*"),
    )


def test_criterion_05_recursions_against_oracle():
    def body():
        polys = [_z_class(polygon(m + 1)) for m in range(5)]
        for m in range(2):
            assert polys[m + 3] == (2 * T - 2) * polys[m + 2] - (
                T * T - 3 * T + 1
            ) * polys[m + 1] - T * (T - 1) * polys[m]
        bans = [_z_class(banana(m + 1)) for m in range(5)]
        for m in range(3):
            assert bans[m + 2] == (2 * T + 1) * bans[m + 1] - T * (T + 1) * bans[m]

    _criterion(5, "splitting and doubling recurrences on oracle classes, m = 0..4", body)


def test_criterion_06_delcon_identity(run_checks):
    graphs = ("loop", "edge", "2-banana", "triangle", "path-2", "two-edges")
    _criterion(
        6,
        "class deletion-contraction identity on every edge of six graphs",
        lambda: run_checks(*(f"oracle/delcon-class/{name}/*" for name in graphs)),
    )


def test_criterion_07_splitting_and_doubling_loci(run_checks):
    _criterion(
        7,
        "splitting and doubling residual loci balance via the oracle",
        lambda: run_checks(
            "classes/residual-from-seeds-vs-oracle",
            "classes/doubling-residual-vs-oracle",
        ),
    )


def test_criterion_08_tangent_cone(run_checks):
    graphs = ("loop", "edge", "2-banana", "triangle", "path-2")
    _criterion(
        8,
        "tangent cone: complement difference, seeds, and recursion",
        lambda: run_checks(
            *(f"cone/complement-difference/{name}" for name in graphs),
            "cone/polygon-seeds-oracle",
            "cone/polygon-closed-vs-recursion",
        ),
    )


def test_criterion_09_chi_tables():
    def body():
        for m in range(5):
            for k in range(4):
                for n in range(1, 5):
                    spec = FamilySpec(m, k, n)
                    assert mv.chi_c_chain_polygons(spec) == mv.chi_c_real_locus(
                        gr.chain_polygon_class_fixed_q(spec), spec.edge_count
                    )
                    assert mv.chi_c_chain_bananas(spec) == mv.chi_c_real_locus(
                        gr.chain_banana_class_fixed_q(spec), spec.edge_count
                    )
        # exponential growth of the banana-chain values at m = 4, k = 0
        values = [abs(mv.chi_c_chain_bananas(FamilySpec(4, 0, n))) for n in range(1, 5)]
        assert values == [17**n - 1 for n in range(1, 5)]

    _criterion(9, "chi_c closed forms over the 80-case grids, with 17^N growth", body)


def test_criterion_10_universal_torus_check():
    def body():
        for g in CORPUS:
            z = tutte.tutte_delcon(g)
            assert pc.complement_counter([z], g.edge_count + 1)(2) == 1
        for g in CORPUS:
            if g.edge_count + 1 <= 5:
                assert _z_class(g).eval_int(1) == 1
        # the larger corpus members, through their closed forms
        assert gr.polygon_class(3).eval_int(1) == 1
        assert gr.polygon_class(4).eval_int(1) == 1
        assert gr.banana_class(3).eval_int(1) == 1
        assert gr.banana_class(4).eval_int(1) == 1

    _criterion(10, "F_2 complement count and class value at T = 1 are both 1", body)
