"""Motivic evaluations of classes in T: the complex Euler characteristic,
the compactly supported Euler characteristic of the real points, the virtual
Poincare polynomial, and the E-polynomial, plus the closed-form compactly
supported Euler characteristics of the two chained graph families and the
decision-complexity lower bound they feed.

These are ring homomorphisms out of Z[T]:
  complex Euler characteristic   T -> 0
  real chi_c                     T -> -2
  virtual Poincare               T -> u - 1
  E-polynomial                   T -> xy - 1
The substitutions evaluate the CLASS; they describe the variety precisely
when its class is a polynomial in T, which the counting oracle certifies.

The last two share one Taylor shift: the coefficients a_i of c(s - 1),
computed once per call by Horner's rule over ClassPoly, are read as the
polynomial sum a_i u^i or sum a_i (xy)^i and built as one MPoly.

A chi table row needs the chain class only at T = -2, so it evaluates the
block class there first and applies the chain shape block^n T^{k(n-1)} to
the integer, as b^n (-2)^{k(n-1)}: the same value, since T -> -2 is a ring
map, without building the n-th power of the block.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classpoly import T, ZERO, ClassPoly
from .grothendieck import banana_class_fixed_q, chain_shape, polygon_class_fixed_q
from .mpoly import MPoly
from .multigraph import FamilySpec


def chi_complex(c: ClassPoly) -> int:
    """Topological Euler characteristic of the complex points: c(0)."""
    return c.eval_int(0)


def chi_c_real(c: ClassPoly) -> int:
    """Euler characteristic with compact support of the real points: c(-2)."""
    return c.eval_int(-2)


_T_MINUS_1 = T - 1


def _shifted(c: ClassPoly) -> tuple:
    """Coefficients of c(s - 1), ascending in s."""
    acc = ZERO
    for coeff in reversed(c.coeffs):
        acc = acc * _T_MINUS_1 + coeff
    return acc.coeffs


def virtual_poincare(c: ClassPoly) -> MPoly:
    """Virtual Poincare polynomial: substitute T -> u - 1 (the affine line
    has virtual Poincare polynomial u).  Its value at u = -1 is chi_c."""
    return MPoly(("u",), {(i,): a for i, a in enumerate(_shifted(c))})


def e_polynomial(c: ClassPoly) -> MPoly:
    """E-polynomial (virtual Hodge polynomial): substitute T -> xy - 1.
    Its value at x = y = 1 is the complex Euler characteristic."""
    return MPoly(("x", "y"), {(i, i): a for i, a in enumerate(_shifted(c))})


def chi_c_real_locus(c: ClassPoly, edge_count: int) -> int:
    """chi_c of the real zero locus itself from the complement class:
    (-1)^edges - chi_c(complement), since the real affine line has
    chi_c = -1."""
    return _locus_from_complement(chi_c_real(c), edge_count)


def _locus_from_complement(at_minus_2: int, edge_count: int) -> int:
    return (-1) ** edge_count - at_minus_2


def chi_c_chain_polygons(spec: FamilySpec) -> int:
    """Closed form for chi_c of the real fixed-q zero locus of a polygon
    chain: (-1)^(mn+kn-k) ((-1)^n - 2^(kn-k-n) (3^(m+1)+1-2^(m+3))^n),
    evaluated exactly (the inner base is even, so the halving is exact)."""
    m, k, n = spec.m, spec.k, spec.n
    half = (3 ** (m + 1) + 1 - 2 ** (m + 3)) // 2
    sign = -1 if (m * n + k * n - k) % 2 else 1
    return sign * ((-1) ** n - 2 ** (k * (n - 1)) * half**n)


def chi_c_chain_bananas(spec: FamilySpec) -> int:
    """Closed form for chi_c of the real fixed-q zero locus of a banana
    chain: (-1)^(mn+kn+n-k) (1 - 2^(k(n-1)) (2^m+1)^n)."""
    m, k, n = spec.m, spec.k, spec.n
    sign = -1 if (m * n + k * n + n - k) % 2 else 1
    return sign * (1 - 2 ** (k * (n - 1)) * (2**m + 1) ** n)


def chain_polygon_chi_table_row(spec: FamilySpec) -> dict:
    """One row of the chi table for the polygon chain family."""
    at_minus_2 = _chain_at_minus_2(polygon_class_fixed_q(spec.m), spec)
    return _chi_row(spec, at_minus_2, chi_c_chain_polygons(spec))


def chain_banana_chi_table_row(spec: FamilySpec) -> dict:
    """One row of the chi table for the banana chain family."""
    at_minus_2 = _chain_at_minus_2(banana_class_fixed_q(spec.m), spec)
    return _chi_row(spec, at_minus_2, chi_c_chain_bananas(spec))


def _chain_at_minus_2(block: ClassPoly, spec: FamilySpec) -> int:
    """chi_c_real of the chain class, as the chain shape applied to the
    block's value at T = -2."""
    return chain_shape(chi_c_real(block), spec, lambda x, e: x * (-2) ** e)


def _chi_row(spec: FamilySpec, at_minus_2: int, closed: int) -> dict:
    locus = _locus_from_complement(at_minus_2, spec.edge_count)
    return {
        "m": spec.m,
        "k": spec.k,
        "N": spec.n,
        "edges": spec.edge_count,
        "class_at_T=-2": at_minus_2,
        "chi_c_locus": locus,
        "closed_form": closed,
        "agree": locus == closed,
    }


def decision_bound(chi_c: int, n: int):
    """Lower bound (1/3)(log_3 chi_c - n - 4) on the decision complexity of a
    real semialgebraic set in n variables.  None when chi_c <= 0 (the
    logarithm is undefined there); an exact Fraction when chi_c is a power
    of 3, a float otherwise."""
    if chi_c <= 0:
        return None
    exponent = 0
    value = chi_c
    while value % 3 == 0:
        value //= 3
        exponent += 1
    if value == 1:
        return Fraction(exponent - n - 4, 3)
    return (math.log(chi_c, 3) - n - 4) / 3
