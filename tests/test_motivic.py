from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive import motivic as mv
from pottsmotive.classpoly import T, ClassPoly
from pottsmotive.errors import ResourceLimitError
from pottsmotive.grothendieck import (
    chain_banana_class_fixed_q,
    chain_polygon_class_fixed_q,
)
from pottsmotive.mpoly import MPoly
from pottsmotive.multigraph import FamilySpec

TRIANGLE_FIXED_Q = T**3 + 2 * T**2 - 2


def test_chi_complex():
    assert mv.chi_complex(T**2) == 0
    assert mv.chi_complex(T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2) == 2
    assert mv.chi_complex(ClassPoly.const(1)) == 1


def test_chi_c_real():
    assert mv.chi_c_real(T**2) == 4
    assert mv.chi_c_real(TRIANGLE_FIXED_Q) == -2
    assert mv.chi_c_real(T + 1) == -1  # the affine line


def test_virtual_poincare():
    u = MPoly.var("u")
    assert mv.virtual_poincare(T) == u - 1
    assert mv.virtual_poincare(T**2) == u**2 - 2 * u + 1
    tri = T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2
    assert mv.virtual_poincare(tri).substitute("u", -1) == MPoly.const(
        mv.chi_c_real(tri)
    )


def test_e_polynomial():
    x, y = MPoly.var("x"), MPoly.var("y")
    assert mv.e_polynomial(T) == x * y - 1
    assert mv.e_polynomial((T + 1) ** 3) == (x * y) ** 3
    tri = T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2
    assert mv.e_polynomial(tri).substitute("x", 1).substitute("y", 1) == MPoly.const(
        mv.chi_complex(tri)
    )


def test_chi_c_real_locus():
    assert mv.chi_c_real_locus(TRIANGLE_FIXED_Q, 3) == 1
    assert mv.chi_c_real_locus(ClassPoly.monomial(4), 4) == 1 - 16


def test_chain_polygon_chi_examples():
    assert mv.chi_c_chain_polygons(FamilySpec(2, 1, 1)) == 1
    assert mv.chi_c_chain_polygons(FamilySpec(0, 0, 1)) == 1
    # single banana block of multiplicity m+1 collapses to (-2)^m
    for m in range(5):
        assert mv.chi_c_chain_bananas(FamilySpec(m, 0, 1)) == (-2) ** m
    assert mv.chi_c_chain_bananas(FamilySpec(2, 0, 1)) == 4


def test_chain_chi_closed_forms_match_class_route():
    for m in range(5):
        for k in range(4):
            for n in range(1, 5):
                spec = FamilySpec(m, k, n)
                assert mv.chi_c_chain_polygons(spec) == mv.chi_c_real_locus(
                    chain_polygon_class_fixed_q(spec), spec.edge_count
                )
                assert mv.chi_c_chain_bananas(spec) == mv.chi_c_real_locus(
                    chain_banana_class_fixed_q(spec), spec.edge_count
                )


def test_chain_rows():
    row = mv.chain_polygon_chi_table_row(FamilySpec(2, 1, 1))
    assert row["agree"] and row["chi_c_locus"] == 1 and row["edges"] == 3
    row_b = mv.chain_banana_chi_table_row(FamilySpec(2, 0, 1))
    assert row_b["agree"] and row_b["closed_form"] == 4
    # both evaluated columns of every row agree with the public evaluations
    # of its full class, over the benchmark's chi grid
    for m in range(10):
        for k in range(8):
            for n in range(1, 9):
                spec = FamilySpec(m, k, n)
                for row_fn, class_fn in (
                    (mv.chain_polygon_chi_table_row, chain_polygon_class_fixed_q),
                    (mv.chain_banana_chi_table_row, chain_banana_class_fixed_q),
                ):
                    row, cls = row_fn(spec), class_fn(spec)
                    assert row["class_at_T=-2"] == mv.chi_c_real(cls)
                    assert row["chi_c_locus"] == mv.chi_c_real_locus(cls, spec.edge_count)
                    assert row["agree"]


@pytest.mark.parametrize(
    "spec", [FamilySpec(0, 2**63, 2), FamilySpec(1, 0, 2**63), FamilySpec(2**63, 0, 1)]
)
def test_unrepresentable_rows_are_refused(spec):
    # refused before the closed form, which would compute 2^(k(n-1)) or
    # its n-th power
    for row_fn in (mv.chain_polygon_chi_table_row, mv.chain_banana_chi_table_row):
        with pytest.raises(ResourceLimitError):
            row_fn(spec)


def test_decision_bound():
    assert mv.decision_bound(9, 2) == Fraction(-4, 3)
    assert mv.decision_bound(3**10, 5) == Fraction(1, 3)
    assert mv.decision_bound(0, 3) is None
    assert mv.decision_bound(-5, 3) is None
    approx = mv.decision_bound(10, 0)
    assert isinstance(approx, float)
    assert abs(approx - (2.0959032742893846 - 4) / 3) < 1e-12


classes = st.builds(
    ClassPoly,
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
)


@given(classes, classes)
@settings(max_examples=100, deadline=None)
def test_evaluations_are_ring_homomorphisms(a, b):
    assert mv.chi_complex(a * b) == mv.chi_complex(a) * mv.chi_complex(b)
    assert mv.chi_complex(a + b) == mv.chi_complex(a) + mv.chi_complex(b)
    assert mv.chi_c_real(a * b) == mv.chi_c_real(a) * mv.chi_c_real(b)
    assert mv.chi_c_real(a + b) == mv.chi_c_real(a) + mv.chi_c_real(b)
    assert mv.virtual_poincare(a * b) == mv.virtual_poincare(a) * mv.virtual_poincare(b)
    assert mv.e_polynomial(a + b) == mv.e_polynomial(a) + mv.e_polynomial(b)


@given(classes)
@settings(max_examples=100, deadline=None)
def test_poincare_specializes_to_chi_c(c):
    assert mv.virtual_poincare(c).substitute("u", -1) == MPoly.const(mv.chi_c_real(c))
    assert mv.e_polynomial(c).substitute("x", 1).substitute("y", 1) == MPoly.const(
        mv.chi_complex(c)
    )


def _substitute_by_horner(c, image):
    # the MPoly Horner loop both evaluations ran before the Taylor shift,
    # kept as their reference
    acc = MPoly.zero()
    for coeff in reversed(c.coeffs):
        acc = acc * image + coeff
    return acc


# the zero class, constants, negative coefficients and degrees up to 40
shifted_classes = st.one_of(
    st.just(ClassPoly.zero()),
    st.integers(min_value=-50, max_value=50).map(ClassPoly.const),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=41).map(ClassPoly),
)


@given(shifted_classes)
@settings(max_examples=150, deadline=None)
def test_shifted_evaluations_match_the_horner_substitution(c):
    u, x, y = MPoly.var("u"), MPoly.var("x"), MPoly.var("y")
    assert mv.virtual_poincare(c) == _substitute_by_horner(c, u - 1)
    assert mv.e_polynomial(c) == _substitute_by_horner(c, x * y - 1)
    assert mv.virtual_poincare(c).render() == _substitute_by_horner(c, u - 1).render()

