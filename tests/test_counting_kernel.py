"""Differential tests of the counting kernel against a plain full
enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive import _countpure

# the one kernel, under the backend name that the test ids have always carried
KERNEL = pytest.mark.parametrize("kernel", [_countpure], ids=["pure"])


def brute_force(polys, nvars, prime):
    def monomials(shape, coeffs):
        out = []
        for flat, c in enumerate(coeffs):
            if not c:
                continue
            exps = []
            rest = flat
            for extent in reversed(shape):
                exps.append(rest % extent)
                rest //= extent
            exps.reverse()
            out.append((c, exps))
        return out

    def value(terms, point):
        total = 0
        for c, exps in terms:
            term = c
            for v, e in zip(point, exps):
                term *= v**e
            total += term
        return total % prime

    systems = [monomials(s, c) for s, c in polys]
    count = 0
    for point in itertools.product(range(prime), repeat=nvars):
        if all(value(terms, point) == 0 for terms in systems):
            count += 1
    return count


CASES = [
    # q*(1+t): the loop partition polynomial; shape (2, 2) over (q, t)
    ([((2, 2), [0, 0, 1, 1])], 2, 2, 1 * 4 - 1),
    ([((2, 2), [0, 0, 1, 1])], 2, 3, 9 - 4),
    # q alone in dimension 2
    ([((2, 1), [0, 1])], 2, 3, 3),
    # {q, t}: one point
    ([((2, 1), [0, 1]), ((1, 2), [0, 1])], 2, 5, 1),
    # empty system
    ([], 3, 5, 125),
    # constant 7 vanishes mod 7
    ([((1,), [7])], 1, 7, 7),
    # constant 3 never vanishes mod 5
    ([((1,), [3])], 1, 5, 0),
]


@KERNEL
@pytest.mark.parametrize("polys,nvars,prime,expected", CASES)
def test_fixed_cases(kernel, polys, nvars, prime, expected):
    assert kernel.count_common_zeros(polys, nvars, prime) == expected


@KERNEL
def test_mismatched_shape_rejected(kernel):
    with pytest.raises(ValueError):
        kernel.count_common_zeros([((2,), [0, 1])], 2, 3)


@st.composite
def dense_polys(draw, nvars):
    shape = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(nvars))
    size = 1
    for extent in shape:
        size *= extent
    coeffs = draw(
        st.lists(
            st.integers(min_value=-6, max_value=6), min_size=size, max_size=size
        )
    )
    return (shape, coeffs)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_match_brute_force(data):
    nvars = data.draw(st.integers(min_value=0, max_value=3))
    npolys = data.draw(st.integers(min_value=1, max_value=3))
    prime = data.draw(st.sampled_from([2, 3, 5]))
    polys = [data.draw(dense_polys(nvars)) for _ in range(npolys)]
    expected = brute_force(polys, nvars, prime)
    assert _countpure.count_common_zeros(polys, nvars, prime) == expected


# The closed-form leaves.  A three-variable polynomial is laid out as
# [A0, C0, B0, D0, A1, C1, B1, D1] for A + B*y + C*z + D*y*z with
# A = A0 + A1*x and so on; a two-variable one as [A0, B0, A1, B1] for
# A + B*z with A = A0 + A1*y.
LEAF_CASES = [
    pytest.param([((2, 2, 2), [0, 1, 1, 0, 1, 0, 0, 0])], 3, 5, 25, id="D-zero"),
    pytest.param([((2, 2, 2), [0, 0, 0, 0, 1, 0, 0, 0])], 3, 5, 25, id="D-B-C-zero"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 0, 0, 0, 0])], 3, 5, 20, id="D-constant"),
    pytest.param([((2, 2, 2), [0, 0, 0, 0, 0, 0, 0, 1])], 3, 5, 61, id="D-one-root"),
    # k + x*y + x*z + y*z: D = 1 and Q = k - x^2, discriminant 4k
    pytest.param([((2, 2, 2), [0, 0, 0, 1, 0, 1, 1, 0])], 3, 5, 25, id="disc-zero"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0])], 3, 5, 30, id="disc-square"),
    pytest.param([((2, 2, 2), [2, 0, 0, 1, 0, 1, 1, 0])], 3, 5, 20, id="disc-nonsquare"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0])], 3, 2, 4, id="trilinear-p2"),
    pytest.param([((2, 2, 2), [3, 0, 0, 0, 0, 0, 0, 0])], 3, 7, 0, id="trilinear-constant"),
    pytest.param([((1, 2, 2), [1, 0, 0, 1])], 3, 7, 42, id="trilinear-narrow"),
    pytest.param([((2, 2), [3, 0, 0, 0])], 2, 7, 0, id="bilinear-constant"),
    # pairs: y and y + z; B1 vanishes identically
    pytest.param([((2, 2), [0, 0, 1, 0]), ((2, 2), [0, 1, 1, 0])], 2, 7, 1, id="B1-zero"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [1, 0, 0, 1])], 2, 7, 6, id="R-zero"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((1, 2), [-1, 1])], 2, 7, 1, id="B1-one-root"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [0, 1, 1, 0])], 2, 2, 1, id="pair-p2"),
    pytest.param([((2, 2), [3, 0, 0, 0]), ((2, 2), [0, 1, 0, 0])], 2, 7, 0, id="pair-constant"),
    pytest.param([((2, 2), [0, 1, 0, 0]), ((2, 2), [3, 0, 0, 0])], 2, 7, 0, id="pair-constant-second"),
]


@KERNEL
@pytest.mark.parametrize("polys,nvars,prime,expected", LEAF_CASES)
def test_leaf_closed_forms(kernel, polys, nvars, prime, expected):
    assert brute_force(polys, nvars, prime) == expected
    assert kernel.count_common_zeros(polys, nvars, prime) == expected


# (variables, prime) pairs with at most 7^4 points keep the enumeration fast
SMALL_SYSTEMS = [
    (n, p) for n in (2, 3, 4) for p in (2, 3, 5, 7, 11, 13) if p**n <= 7**4
]


@st.composite
def multilinear_polys(draw, nvars):
    shape = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars))
    size = 1
    for extent in shape:
        size *= extent
    # many zero coefficients reach the degenerate branches of the leaves
    coeff = st.one_of(st.just(0), st.integers(min_value=-13, max_value=13))
    return (shape, draw(st.lists(coeff, min_size=size, max_size=size)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_multilinear_systems_match_brute_force(data):
    nvars, prime = data.draw(st.sampled_from(SMALL_SYSTEMS))
    npolys = data.draw(st.integers(min_value=1, max_value=2))
    polys = [data.draw(multilinear_polys(nvars)) for _ in range(npolys)]
    expected = brute_force(polys, nvars, prime)
    assert _countpure.count_common_zeros(polys, nvars, prime) == expected
