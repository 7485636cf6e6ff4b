"""Differential tests of the class ring: products and powers, which run on
Kronecker substitution, against a schoolbook reference written here."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pottsmotive.classpoly import ONE, T, ZERO, ClassPoly, _pack, _unpack
from pottsmotive.errors import ResourceLimitError

BIG = 2**200

# small coefficients, word-sized ones, and ones above 2^200 of either sign
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.integers(BIG, 4 * BIG).flatmap(lambda c: st.sampled_from([c, -c])),
)
# lengths 0 to 9: the zero class, constants, one and two coefficients, the
# short factors under four coefficients and the packed products above them
POLYS = st.lists(COEFFS, max_size=9).map(ClassPoly)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def repeated_product(a, n):
    out = (1,)
    for _ in range(n):
        out = schoolbook(out, a)
    return out


@settings(max_examples=60, deadline=None)
@given(POLYS, POLYS)
@example(ZERO, T + 1)
@example(T - 1, ZERO)
@example(ClassPoly.const(-7), ClassPoly((1, 2, 3, 4, 5)))
@example(ClassPoly.monomial(3, BIG), ClassPoly.monomial(2, -BIG))
@example(T + 1, ClassPoly((BIG, -1, 0, 0, 2, -BIG)))
@example(ClassPoly((-BIG, 3, 0, BIG)), ClassPoly((2, -BIG, BIG, 0, -1)))
def test_product_matches_schoolbook(a, b):
    assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)
    assert (b * a).coeffs == (a * b).coeffs


@settings(max_examples=40, deadline=None)
@given(POLYS.filter(lambda p: len(p.coeffs) <= 5), st.integers(0, 6))
@example(ZERO, 0)
@example(ZERO, 3)
@example(ClassPoly.const(-BIG), 1)
@example(ClassPoly.const(-BIG), 5)
@example(ClassPoly((BIG, -BIG)), 4)
@example(ClassPoly((-1, 2, 0, -3)), 0)
@example(ClassPoly((-1, 2, 0, -3)), 1)
def test_power_matches_repeated_product(a, n):
    assert (a**n).coeffs == repeated_product(a.coeffs, n)


@settings(max_examples=25, deadline=None)
@given(POLYS, COEFFS)
@example(ZERO, 5)
@example(T + 1, 0)
@example(ClassPoly((1, -2, 3)), -BIG)
def test_integer_times_class_in_both_orders(a, k):
    expected = schoolbook((k,), a.coeffs)
    assert (k * a).coeffs == expected
    assert (a * k).coeffs == expected


@settings(max_examples=25, deadline=None)
@given(POLYS, POLYS)
def test_sum_and_difference(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    padded_a = a.coeffs + (0,) * (n - len(a.coeffs))
    padded_b = b.coeffs + (0,) * (n - len(b.coeffs))
    assert (a + b).coeffs == _trim(x + y for x, y in zip(padded_a, padded_b))
    assert (a - b).coeffs == _trim(x - y for x, y in zip(padded_a, padded_b))
    assert a - a == ZERO and (a - b) + b == a


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [Fraction(1, 2), 1.5, 2.0])
def test_foreign_operand_raises_type_error(op, other):
    # neither a class nor an int: no silent truncation, in either order
    with pytest.raises(TypeError):
        op(T, other)
    with pytest.raises(TypeError):
        op(other, T)


@pytest.mark.parametrize("sign", [-1, 1])
def test_binomial_powers_match_comb(sign):
    # (T + sign)^m = sum comb(m, i) sign^(m - i) T^i
    for m in range(81):
        expected = tuple(math.comb(m, i) * sign ** (m - i) for i in range(m + 1))
        assert ((T + sign) ** m).coeffs == expected


def test_results_hold_plain_ints():
    for p in ((T - 1) ** 9, (T + 1) ** 5 * (T - 2) ** 4, 3 * (T + 1), T**0):
        assert all(type(c) is int for c in p.coeffs)
    assert T**0 == ONE and ZERO**0 == ONE
    with pytest.raises(ValueError):
        T ** -1


def test_unrepresentable_classes_are_refused():
    huge = 2**63
    for build in (
        lambda: ClassPoly.monomial(huge),
        lambda: ClassPoly.monomial(10**20, 3),
        lambda: T.scale_T_power(huge),
        lambda: (T + 1) ** huge,
        lambda: T ** (10**20),
    ):
        with pytest.raises(ResourceLimitError):
            build()
    # zero and constant classes keep at most one coefficient
    assert ZERO.scale_T_power(huge) == ZERO
    assert ZERO**huge == ZERO and ONE**huge == ONE


@pytest.mark.parametrize("w", [1, 2, 9])
def test_unpack_round_trips_the_extreme_digits(w):
    half = 1 << (8 * w - 1)
    cs = [-half, half - 1, 0, -1, 1 - half]
    assert _unpack(_pack(cs, w), len(cs), w) == cs


@pytest.mark.parametrize("value", [1 << 16, -(1 << 16) - 1, 1 << 15, -(1 << 15) - (1 << 8) - 1])
def test_unpack_with_a_carry_raises(value):
    # two one-byte digits hold -128..127 each; these values need a third
    with pytest.raises(AssertionError):
        _unpack(value, 2, 1)


def _render_by_appending(p, var="T"):
    # the printer that appended each term to one string, kept as the
    # reference for the bytes of render()
    if not p.coeffs:
        return "0"
    chunks = []
    for power in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[power]
        if not c:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            head = var if power == 1 else f"{var}^{power}"
            body = head if mag == 1 else f"{mag}*{head}"
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


# sparse classes, with gaps of zero coefficients and units of both signs
RENDERED = st.lists(st.one_of(st.just(0), st.sampled_from([1, -1]), COEFFS), max_size=12).map(
    ClassPoly
)


@settings(max_examples=300, deadline=None)
@given(RENDERED, st.sampled_from(["T", "s", "q0"]))
@example(ZERO, "T")
@example(ONE, "T")
@example(-T, "T")
@example(ClassPoly((-1, 0, 0, 1)), "T")
def test_render_matches_the_appending_printer(p, var):
    assert p.render(var) == _render_by_appending(p, var)
    assert str(p) == _render_by_appending(p)
