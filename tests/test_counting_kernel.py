"""Tests of the counting kernel: its field tables on their own, and the
kernel against the reference counter, a plain full enumeration."""

import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive import _countpure, pointcount
from pottsmotive._countpure import brute_force
from pottsmotive.multigraph import MultiGraph, banana, polygon
from pottsmotive.pointcount import FIELD_LADDER
from pottsmotive.tutte import tutte_delcon

# the one kernel, under the backend name that the test ids have always carried
KERNEL = pytest.mark.parametrize("kernel", [_countpure], ids=["pure"])
# the fields the hypothesis tests draw from: the three extension fields and
# the primes below 10
SMALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", FIELD_LADDER)
def test_field_axioms(q):
    F = _countpure.field(q)
    add, mul = F.add, F.mul
    assert type(add) is list  # every field on the ladder has tables
    elements = range(q)
    for a in elements:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][F.neg[a]] == 0
        for b in elements:
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
            for c in elements:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", FIELD_LADDER)
def test_field_inverses_and_frobenius(q):
    F = _countpure.field(q)
    for a in range(1, q):
        assert F.mul[a][F.inv[a]] == 1
    for a in range(q):
        power = 1
        for _ in range(q):
            power = F.mul[power][a]
        assert power == a  # x^q = x


@pytest.mark.parametrize("q", FIELD_LADDER)
def test_multiplicative_group_is_cyclic(q):
    F = _countpure.field(q)

    def order(a):
        power, n = a, 1
        while power != 1:
            power, n = F.mul[power][a], n + 1
        return n

    assert max(order(a) for a in range(1, q)) == q - 1


@pytest.mark.parametrize("q", FIELD_LADDER)
def test_quadratic_root_table(q):
    F = _countpure.field(q)
    for b in range(q):
        for c in range(q):
            roots = sum(
                F.add[F.add[F.mul[x][x]][F.mul[b][x]]][c] == 0 for x in range(q)
            )
            assert F.roots[b][c] == roots


def test_integers_map_to_the_prime_field():
    # an integer coefficient c is the element c % char
    assert _countpure.count_common_zeros([((2,), [-3, 1])], 1, 4) == 1
    assert _countpure.count_common_zeros([((1,), [6])], 1, 8) == 8
    assert _countpure.count_common_zeros([((1,), [6])], 1, 9) == 9
    assert _countpure.count_common_zeros([((1,), [4])], 1, 9) == 0


@pytest.mark.parametrize("q", [6, 16, 25, 1, 0])
def test_unsupported_table_field_refused(q):
    with pytest.raises(ValueError):
        _countpure.field(q)


@pytest.mark.parametrize("p", [41, 2**31 - 1])
def test_modular_field_computes_the_table_operations(p):
    F = _countpure.field(p)
    rng = random.Random(p)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(1, p)
        assert F.add[a][b] == (a + b) % p and F.mul[a][b] == a * b % p
        assert F.neg[a] == -a % p and F.mul[b][F.inv[b]] == 1


def test_modular_field_root_count():
    F = _countpure.field(41)
    for b, c in itertools.product(range(41), repeat=2):
        roots = sum((x * x + b * x + c) % 41 == 0 for x in range(41))
        assert F.roots[b][c] == roots


def test_prime_fields_above_the_tables_are_kept_across_counts():
    _countpure._modular_field.cache_clear()
    dense = [((3, 2, 2), [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1])]
    for p in (41, 43):
        first = _countpure.count_common_zeros(dense, 3, p)
        assert first == _countpure.count_common_zeros(dense, 3, p)
        assert first == brute_force(dense, 3, p)
    assert _countpure.field(41) is _countpure.field(41)
    info = _countpure._modular_field.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    # the bound holds however many primes come through
    for p in (47, 53, 59, 61, 67, 71, 73, 79, 83):
        _countpure.field(p)
    assert _countpure._modular_field.cache_info().currsize == 8


def test_large_prime_field_fills_only_the_entries_read():
    p = 2**31 - 1  # p = 3 mod 4, so -1 and every -s^2 are non-squares
    _countpure._modular_field.cache_clear()  # a field no earlier test has read
    F = _countpure.field(p)
    entries = [(0, 0), (1, p - 1), (12345, 67890), (p - 2, p - 3), (2**30, 2**30 + 7)]
    for a, b in entries:
        assert F.add[a][b] == (a + b) % p and F.mul[a][b] == a * b % p
        assert F.neg[a] == -a % p
        if b:
            assert F.inv[b] * b % p == 1
        # x^2 + bx + a(-b - a) is (x - a)(x + b + a)
        other = (-b - a) % p
        assert F.roots[b][a * other % p] == (1 if a == other else 2)
        s = (a + 1) % p or 1
        assert F.roots[0][s * s % p] == 0  # x^2 + s^2 has no root
    # a second read gives the stored entry, and no row grew to length p
    assert F.mul[12345][67890] == 12345 * 67890 % p
    assert max(len(row) for row in F.mul.values()) <= len(entries)
    assert len(F.add) == len(F.mul) == len({a for a, _ in entries})


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
    # above the tables: the field computes its rows with %
    ([((2, 2), [0, 0, 1, 1])], 2, 41, 2 * 41 - 1),
    ([((2, 2), [1, 0, 0, 1]), ((2, 2), [0, 1, 1, 0])], 2, 43, 2),
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
    q = data.draw(st.sampled_from(SMALL_FIELDS))
    polys = [data.draw(dense_polys(nvars)) for _ in range(npolys)]
    expected = brute_force(polys, nvars, q)
    assert _countpure.count_common_zeros(polys, nvars, q) == expected


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
    # characteristic 2.  With D = 1 and B = C = x, Q = A - x^2 = A + x^2:
    # A = 1 gives (x + 1)^2, b = 0 and one root; A = 1 + x gives
    # x^2 + x + 1, with two roots or none as the absolute trace of 1 is 0
    # (in F_4) or 1 (in F_2 and F_8)
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0])], 3, 4, 16, id="F4-b-zero"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0])], 3, 8, 64, id="F8-b-zero"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 1, 1, 1, 0])], 3, 4, 20, id="F4-trace-0"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 1, 1, 1, 0])], 3, 8, 56, id="F8-trace-1"),
    pytest.param([((2, 2, 2), [1, 0, 0, 1, 1, 1, 1, 0])], 3, 2, 2, id="F2-trace-1"),
    pytest.param([((2, 2, 2), [0, 0, 0, 0, 0, 0, 0, 1])], 3, 4, 37, id="F4-D-one-root"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [0, 1, 1, 0])], 2, 4, 1, id="F4-pair"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [0, 1, 1, 0])], 2, 8, 1, id="F8-pair"),
    pytest.param([((3,), [1, 1, 1])], 1, 4, 2, id="F4-univariate"),
    # F_9: 2 is not a square mod 3 but is one in F_9, so 2 - x^2 has two
    # roots there and none in F_3
    pytest.param([((2, 2, 2), [2, 0, 0, 1, 0, 1, 1, 0])], 3, 9, 90, id="F9-disc-square"),
    pytest.param([((2, 2, 2), [2, 0, 0, 1, 0, 1, 1, 0])], 3, 3, 6, id="F3-disc-nonsquare"),
    pytest.param([((2, 2, 2), [0, 0, 0, 1, 0, 1, 1, 0])], 3, 9, 81, id="F9-disc-zero"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [0, 1, 1, 0])], 2, 9, 2, id="F9-pair"),
    pytest.param([((2, 2), [1, 0, 0, 1]), ((2, 2), [1, 0, 0, 1])], 2, 9, 8, id="F9-R-zero"),
    pytest.param([((3,), [1, 0, 1])], 1, 9, 2, id="F9-univariate"),
]


@KERNEL
@pytest.mark.parametrize("polys,nvars,prime,expected", LEAF_CASES)
def test_leaf_closed_forms(kernel, polys, nvars, prime, expected):
    assert brute_force(polys, nvars, prime) == expected
    assert kernel.count_common_zeros(polys, nvars, prime) == expected


# (variables, field size) pairs with at most 7^4 points keep the enumeration
# fast
SMALL_SYSTEMS = [(n, q) for n in (2, 3, 4) for q in SMALL_FIELDS if q**n <= 7**4]


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
    nvars, q = data.draw(st.sampled_from(SMALL_SYSTEMS))
    npolys = data.draw(st.integers(min_value=1, max_value=2))
    polys = [data.draw(multilinear_polys(nvars)) for _ in range(npolys)]
    expected = brute_force(polys, nvars, q)
    assert _countpure.count_common_zeros(polys, nvars, q) == expected


# Four multilinear variables (w, x, y, z) are counted in one loop over w.
# The 16 coefficients are L + w*H: L the first eight and H the last eight,
# each in the three-variable layout above.  F_11 has 11^4 points, above
# SMALL_SYSTEMS.
TRILINEAR = [1, 2, 0, 1, 3, 1, 1, 1]  # nonzero mod 2 and mod 3
FOUR_VARIABLE_CASES = {
    "H-zero": ((2, 2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0] + [0] * 8),
    "L-zero": ((2, 2, 2, 2), [0] * 8 + TRILINEAR),
    "general": ((2, 2, 2, 2), [1, 0, 0, 1, 0, 1, 1, 0] + TRILINEAR),
    # L = -2H, so the w = 2 slice vanishes identically (w = 0 in
    # characteristic 2)
    "slice-vanishes": ((2, 2, 2, 2), [-2 * c for c in TRILINEAR] + TRILINEAR),
    "first-narrow": ((1, 2, 2, 2), TRILINEAR),
    "third-narrow": ((2, 2, 1, 2), [1, 0, 0, 1, 0, 3, 1, 1]),
    # the constant 5, laid out in the full shape, so every slice is 5
    "constant": ((2, 2, 2, 2), [5] + [0] * 15),
}


@pytest.mark.parametrize("q", [8, 9, 11])
@pytest.mark.parametrize("case", FOUR_VARIABLE_CASES)
def test_four_variable_loop_matches_brute_force(case, q):
    polys = [FOUR_VARIABLE_CASES[case]]
    assert _countpure.count_common_zeros(polys, 4, q) == brute_force(polys, 4, q)


def test_four_variable_loop_does_not_recurse(monkeypatch):
    # one _count call, and no slice is specialized on its way to the leaf
    count, calls = _countpure._count, []

    def counted(*args):
        calls.append(args)
        return count(*args)

    def never(*args):
        raise AssertionError("specialized a four-variable multilinear polynomial")

    monkeypatch.setattr(_countpure, "_count", counted)
    monkeypatch.setattr(_countpure, "_specialize", never)
    polys = [FOUR_VARIABLE_CASES["general"]]
    assert _countpure.count_common_zeros(polys, 4, 11) == brute_force(polys, 4, 11)
    assert len(calls) == 1


# -- fixing the first variable -------------------------------------------------
# A fixed-q slice is counted from the system of Z_G with q first, its
# exponent columns, the kernel fixing q at a field element: at x in F_4 and F_8, which no integer
# coefficient reaches.


def _random_graph():
    rng = random.Random(11)
    return MultiGraph(
        3, tuple((str(i + 1), rng.randrange(3), rng.randrange(3)) for i in range(3))
    )


SLICED_GRAPHS = {"triangle": polygon(3), "3-banana": banana(3), "random": _random_graph()}
SLICED_FIELDS = (3, 4, 8, 9, 11)


def _z_system(graph):
    names, dense = pointcount._dense_system([tutte_delcon(graph)])
    assert names[0] == "q"
    return dense, len(names)


@KERNEL
@pytest.mark.parametrize("q", SLICED_FIELDS)
@pytest.mark.parametrize("graph", SLICED_GRAPHS)
def test_slices_sum_to_the_full_count(kernel, graph, q):
    polys, nvars = _z_system(SLICED_GRAPHS[graph])
    slices = [kernel.count_common_zeros(polys, nvars, q, first=a) for a in range(q)]
    assert sum(slices) == brute_force(polys, nvars, q)


@KERNEL
@pytest.mark.parametrize("q", SLICED_FIELDS)
@pytest.mark.parametrize("graph", SLICED_GRAPHS)
def test_slice_counts_are_frobenius_invariant(kernel, graph, q):
    # integer coefficients: a and a^p are conjugate, so their slices have
    # the same number of points
    polys, nvars = _z_system(SLICED_GRAPHS[graph])
    F = _countpure.field(q)
    for a in range(q):
        frobenius = 1
        for _ in range(F.char):
            frobenius = F.mul[frobenius][a]
        assert kernel.count_common_zeros(
            polys, nvars, q, first=a
        ) == kernel.count_common_zeros(polys, nvars, q, first=frobenius)


SLICE_CASES = [
    # 1 + q at q = 0: the constant 1, no zero
    ([((2,), [1, 1])], 1, 3, 0, 0),
    # 1 + q at q = 1 in F_2: vanishes, so the one point of F_2^0 is a zero
    ([((2,), [1, 1])], 1, 2, 1, 1),
    # q*(1+t) at q = x of F_4: 1 + t, one zero; at q = 0: all four
    ([((2, 2), [0, 0, 1, 1])], 2, 4, 2, 1),
    ([((2, 2), [0, 0, 1, 1])], 2, 4, 0, 4),
    # q + t over F_8 at q = x: t = x
    ([((2, 2), [0, 1, 1, 0])], 2, 8, 2, 1),
    # {q + t, q + 2s} in F_9 at q = 4 (the element x + 1): t = s
    ([((2, 2, 1), [0, 1, 1, 0]), ((2, 1, 2), [0, 2, 1, 0])], 3, 9, 4, 1),
]


@KERNEL
@pytest.mark.parametrize("polys,nvars,q,first,expected", SLICE_CASES)
def test_fixed_first_cases(kernel, polys, nvars, q, first, expected):
    assert kernel.count_common_zeros(polys, nvars, q, first=first) == expected


@KERNEL
@pytest.mark.parametrize("first", [-1, 4])
def test_first_outside_the_field_rejected(kernel, first):
    with pytest.raises(ValueError):
        kernel.count_common_zeros([((2, 2), [0, 0, 1, 1])], 2, 4, first=first)
    with pytest.raises(ValueError):
        kernel.count_common_zeros([((), [1])], 0, 4, first=0)


def test_kernel_signature_keeps_three_positional_arguments():
    # benchmark tracing unpacks (polys, nvars, q) from the positional
    # arguments of every kernel call, so first is keyword-only
    params = inspect.signature(_countpure.count_common_zeros).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("polys", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("nvars", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("q", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("first", inspect.Parameter.KEYWORD_ONLY),
    ]
    assert params["first"].default is None
    with pytest.raises(TypeError):
        _countpure.count_common_zeros([((2,), [0, 1])], 1, 3, 2)


# -- reductions before a branch, and the closed forms summed in place ---------
# Frobenius orbits: with every coefficient in F_p, the slices at v and v^p
# have equal counts, so a loop takes one value per orbit, weighted by its
# size.  Splitting off the first variable x of one polynomial L + x*H:
# N = q*N(L) when H == 0, and q^(n-1) + (q-1)*N(H) when L == c*H.  The
# closed forms count L + w*H summed over weighted values (w, weight).

# the fields these tests draw from: the extension fields, where the orbits
# are not trivial, and two primes
REDUCTION_FIELDS = (4, 5, 7, 8, 9)
COEFF = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6))


def _frobenius(F, a):
    power = 1
    for _ in range(F.char):
        power = F.mul[power][a]
    return power


@pytest.mark.parametrize("q", FIELD_LADDER)
def test_frobenius_orbits_partition_the_field(q):
    F = _countpure.field(q)
    covered = []
    for v, size in F.orbits:
        orbit = [v]
        while _frobenius(F, orbit[-1]) != v:
            orbit.append(_frobenius(F, orbit[-1]))
        # closed under x -> x^p, of the recorded size, v its least element
        assert len(orbit) == size and min(orbit) == v
        covered += orbit
    assert sorted(covered) == list(range(q))
    assert all(size == 1 for v, size in F.orbits if v < F.char)  # F_p is fixed


def test_orbit_counts_of_the_extension_fields():
    assert [len(_countpure.field(q).orbits) for q in (4, 8, 9)] == [3, 4, 6]
    assert _countpure.field(41).orbits is None  # above the tables: every element


def _reference(polys, nvars, q, first=None):
    """brute_force, or with first every polynomial evaluated term by term
    at every point (first, ...), first an element of F_q."""
    if first is None:
        return brute_force(polys, nvars, q)
    F = _countpure.field(q)
    add, mul = F.add, F.mul
    systems = []
    for shape, coeffs in polys:
        exponents = itertools.product(*(range(extent) for extent in shape))
        systems.append([(c % F.char, e) for c, e in zip(coeffs, exponents) if c % F.char])
    count = 0
    for rest in itertools.product(range(q), repeat=nvars - 1):
        point = (first,) + rest
        for terms in systems:
            total = 0
            for c, exps in terms:
                for v, e in zip(point, exps):
                    for _ in range(e):
                        c = mul[c][v]
                total = add[total][c]
            if total:
                break
        else:
            count += 1
    return count


@st.composite
def reduction_polys(draw, nvars):
    """Extents of 1 or 2, so that the closed forms and the splits are
    reached, and now and then one of 3, so that the branch loop is too."""
    shape = [draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars)]
    if draw(st.booleans()):
        shape[draw(st.integers(min_value=0, max_value=nvars - 1))] = 3
    size = math.prod(shape)
    return (tuple(shape), draw(st.lists(COEFF, min_size=size, max_size=size)))


# (variables, field) pairs whose full enumeration stays within 9^4 points
UNFIXED_SYSTEMS = [(n, q) for n in (3, 4, 5) for q in REDUCTION_FIELDS if q**n <= 9**4]


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_reduced_systems_match_brute_force(data):
    nvars, q = data.draw(st.sampled_from(UNFIXED_SYSTEMS))
    npolys = data.draw(st.integers(min_value=1, max_value=3))
    polys = [data.draw(reduction_polys(nvars)) for _ in range(npolys)]
    assert _countpure.count_common_zeros(polys, nvars, q) == brute_force(polys, nvars, q)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_reduced_systems_with_a_fixed_first_variable_match(data):
    nvars = data.draw(st.integers(min_value=3, max_value=5))
    q = data.draw(st.sampled_from(REDUCTION_FIELDS))
    p = _countpure.field(q).char
    # an element inside F_p, or, in F_4, F_8 and F_9, one outside it
    inside = p == q or data.draw(st.booleans())
    first = data.draw(st.integers(0, p - 1) if inside else st.integers(p, q - 1))
    npolys = data.draw(st.integers(min_value=1, max_value=3))
    polys = [data.draw(reduction_polys(nvars)) for _ in range(npolys)]
    expected = _reference(polys, nvars, q, first)
    assert _countpure.count_common_zeros(polys, nvars, q, first=first) == expected


# x -> x^3 fixes 2 in F_9 (an element of F_3) and swaps 3 and 6
@pytest.mark.parametrize("first", [2, 3, 6])
def test_fixed_first_variable_in_f9(first):
    polys = [
        ((2, 2, 2, 3), [1, 0, 2, 0, 1, 1, 2, 1, 0, 0, 1, 2] + [0, 1, 1, 2, 0, 0, 1, 0, 2, 1, 0, 1])
    ]
    count = _countpure.count_common_zeros(polys, 4, 9, first=first)
    assert count == _reference(polys, 4, 9, first)


# one polynomial L + x*H, x its first variable, in five variables: the
# rest has one variable of extent 3, so no closed form takes it whole
SPLIT_REST = (2, 3, 1, 2)
SPLIT_H = [1, 0, 2, 1, 0, 1, 1, 1, 0, 3, 1, 0]
SPLIT_NODES = {
    "absent": ((1,) + SPLIT_REST, SPLIT_H),
    "H-zero": ((2,) + SPLIT_REST, SPLIT_H + [0] * 12),
    "factor": ((2,) + SPLIT_REST, [3 * h for h in SPLIT_H] + SPLIT_H),
    # L == 3*H but for one coefficient: no factor, so the node branches
    "near-miss": ((2,) + SPLIT_REST, [3 * h for h in SPLIT_H[:-1]] + [1] + SPLIT_H),
}


def _recording_specialize(monkeypatch, nvars):
    """Record the values at which _specialize fixes the first variable of
    an nvars-variable polynomial."""
    specialize, values = _countpure._specialize, []

    def recording(shape, coeffs, v, F):
        if len(shape) == nvars:
            values.append(v)
        return specialize(shape, coeffs, v, F)

    monkeypatch.setattr(_countpure, "_specialize", recording)
    return values


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("node", SPLIT_NODES)
def test_split_node_never_specializes_its_first_variable(monkeypatch, node, q):
    polys = [SPLIT_NODES[node]]
    expected = brute_force(polys, 5, q)
    values = _recording_specialize(monkeypatch, 5)
    assert _countpure.count_common_zeros(polys, 5, q) == expected
    if node == "near-miss":
        assert values  # no split: the node branches on x
    else:
        assert values == []


@st.composite
def split_polys(draw, nvars):
    """L + x*H in nvars variables, x its first: x absent, H zero, L == c*H,
    or L one coefficient away from c*H."""
    rest = [draw(st.integers(min_value=1, max_value=2)) for _ in range(nvars - 1)]
    rest[draw(st.integers(min_value=0, max_value=nvars - 2))] = 3
    size = math.prod(rest)
    high = draw(st.lists(COEFF, min_size=size, max_size=size))
    kind = draw(st.sampled_from(("absent", "H-zero", "factor", "near-miss")))
    if kind == "absent":
        return ((1, *rest), high)
    if kind == "H-zero":
        return ((2, *rest), high + [0] * size)
    c = draw(st.integers(min_value=-4, max_value=4))
    low = [c * h for h in high]
    if kind == "near-miss":
        low[draw(st.integers(min_value=0, max_value=size - 1))] += 1
    return ((2, *rest), low + high)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_split_first_variable_matches_brute_force(data):
    nvars, q = data.draw(st.sampled_from([(4, q) for q in REDUCTION_FIELDS] + [(5, 4), (5, 5)]))
    polys = [data.draw(split_polys(nvars))]
    assert _countpure.count_common_zeros(polys, nvars, q) == brute_force(polys, nvars, q)


# two quadratics in three variables: no leaf takes them, so the top node
# branches on its first variable
BRANCHING = [((3, 3, 1), [1, 2, 0, 1, 0, 1, 1, 0, 1]), ((3, 1, 3), [0, 1, 1, 1, 0, 2, 1, 0, 0])]


def test_integer_system_branches_once_per_frobenius_orbit(monkeypatch):
    expected = brute_force(BRANCHING, 3, 8)
    values = _recording_specialize(monkeypatch, 3)
    assert _countpure.count_common_zeros(BRANCHING, 3, 8) == expected
    assert sorted(set(values)) == [0, 1, 2, 3]  # 0, 1 and one of each 3-cycle


def test_slice_outside_the_prime_field_branches_at_every_element(monkeypatch):
    # fixed at x, the coefficients leave F_2, so the next variable takes all
    # eight values; fixed at 1, they stay in F_2, and it takes four
    values = _recording_specialize(monkeypatch, 2)
    for first, branches in ((2, list(range(8))), (1, [0, 1, 2, 3])):
        values.clear()
        expected = _reference(BRANCHING, 3, 8, first)
        assert _countpure.count_common_zeros(BRANCHING, 3, 8, first=first) == expected
        assert sorted(set(values)) == branches


# The three-variable form, laid out [A0, C0, B0, D0, A1, C1, B1, D1] for
# A + B*y + C*z + D*y*z with A = A0 + A1*x, and Q = A*D - B*C = Q0 + Q1*x +
# Q2*x^2.  Each case pins one branch; H = TRILINEAR makes the slices at
# other values of w take other branches.
CLOSED_FORM_BRANCHES = {
    "D-zero": [1, 1, 0, 0, 1, 0, 1, 0],
    "D-never-zero": [0, 1, 1, 1, 1, 0, 0, 0],
    "D-one-root": [1, 0, 1, 0, 0, 1, 0, 1],
    "Q-zero": [1, 1, 1, 1, 0, 0, 0, 0],  # A*D == B*C == 1
    "Q2-zero-Q1-not": [0, 0, 0, 1, 1, 0, 0, 0],  # Q = x
    "Q-constant": [1, 0, 0, 1, 0, 0, 0, 0],  # Q = 1
    "all-zero": [0] * 8,
}


def _table_trilinear_zeros(f, F):
    """Zeros of the three-variable form f, its coefficients elements of
    F_q, by evaluation at every point."""
    a0, c0, b0, d0, a1, c1, b1, d1 = f
    add, mul = F.add, F.mul
    count = 0
    for x, y, z in itertools.product(range(F.size), repeat=3):

        def at(k0, k1):
            return add[k0][mul[k1][x]]

        a, b, c, d = at(a0, a1), at(b0, b1), at(c0, c1), at(d0, d1)
        count += not add[add[a][mul[b][y]]][add[mul[c][z]][mul[mul[d][y]][z]]]
    return count


@pytest.mark.parametrize("q", [4, 5, 8, 9])
@pytest.mark.parametrize("case", CLOSED_FORM_BRANCHES)
def test_trilinear_sum_matches_every_slice(case, q):
    F = _countpure.field(q)
    low = [c % F.char for c in CLOSED_FORM_BRANCHES[case]]
    high = [c % F.char for c in TRILINEAR]
    # the leaf: one value, H = 0
    assert _countpure._trilinear_zeros(low, (0,) * 8, _countpure._LEAF, F) == (
        _table_trilinear_zeros(low, F)
    )
    # each slice alone, then the sum weighted by orbits, against the
    # four-variable count
    for w in range(q):
        slice_ = [F.add[l][F.mul[w][h]] for l, h in zip(low, high)]
        assert _countpure._trilinear_zeros(low, high, [(w, 1)], F) == (
            _table_trilinear_zeros(slice_, F)
        )
    polys = [((2, 2, 2, 2), low + high)]
    assert _countpure._trilinear_zeros(low, high, F.orbits, F) == brute_force(polys, 4, q)


# The pair form: f = A + B*z and g = C + D*z laid out [A0, B0, A1, B1] and
# [C0, D0, C1, D1], A = A0 + A1*y and so on, and R = C*B - A*D.
PAIR_BRANCHES = {
    "B-zero": ([1, 0, 1, 0], [0, 1, 1, 1]),
    "B-never-zero": ([1, 2, 0, 0], [1, 0, 1, 1]),
    "B-one-root": ([0, 1, 1, 1], [1, 1, 0, 1]),
    "R-zero": ([1, 1, 0, 0], [1, 1, 0, 0]),
    "all-zero": ([0, 0, 0, 0], [0, 0, 0, 0]),
}


@pytest.mark.parametrize("q", [4, 5, 8, 9])
@pytest.mark.parametrize("case", PAIR_BRANCHES)
def test_pair_leaf_and_sum_match_brute_force(monkeypatch, case, q):
    f, g = PAIR_BRANCHES[case]
    pair = [((2, 2), f), ((2, 2), g)]
    assert _countpure.count_common_zeros(pair, 2, q) == brute_force(pair, 2, q)
    # in three variables, g + w*f: its slice at w = -1 vanishes where g == f
    polys = [((2, 2, 2), f + [0] * 4), ((2, 2, 2), g + f)]
    expected = brute_force(polys, 3, q)
    values = _recording_specialize(monkeypatch, 3)
    assert _countpure.count_common_zeros(polys, 3, q) == expected
    assert values == []  # summed in place, not specialized


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_three_variable_pairs_with_a_vanishing_slice(data):
    # f = L + w*H with L == -c*H, so that the slice of f at w = c vanishes
    q = data.draw(st.sampled_from(REDUCTION_FIELDS))
    high = data.draw(st.lists(COEFF, min_size=4, max_size=4))
    c = data.draw(st.integers(min_value=0, max_value=4))
    f = ((2, 2, 2), [-c * h for h in high] + high)
    g = data.draw(reduction_polys(3).filter(lambda p: max(p[0]) <= 2))
    polys = [f, g] if data.draw(st.booleans()) else [g, f]
    assert _countpure.count_common_zeros(polys, 3, q) == brute_force(polys, 3, q)
