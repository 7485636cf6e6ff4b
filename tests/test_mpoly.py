import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive.errors import ExactDivisionError, InvalidArgumentError
from pottsmotive.mpoly import MPoly, Q, _packed, _subset_poly, _widen, edge_var

T1 = edge_var("1")
T2 = edge_var("2")


def test_add_mul_sub_examples():
    assert Q + T1 == MPoly(("q", "t1"), {(1, 0): 1, (0, 1): 1})
    prod = (Q + T1) * (Q + T2)
    assert prod == Q * Q + Q * T1 + Q * T2 + T1 * T2
    p = Q * T1 + 3
    assert (p - p).is_zero


def test_integer_mixing():
    assert 2 * Q - Q == Q
    assert (Q + 1) * (Q - 1) == Q**2 - 1
    assert 1 - (1 - Q) == Q


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [Fraction(1, 2), 1.5, 2.0])
def test_foreign_operand_raises_type_error(op, other):
    # neither a polynomial nor an int: no silent truncation, in either order
    with pytest.raises(TypeError):
        op(Q, other)
    with pytest.raises(TypeError):
        op(other, Q)


def test_substitute_examples():
    assert (Q * T1 + Q).substitute("t1", 0) == Q
    # only an int is substituted: no polynomial, and no silent truncation
    for value in (MPoly.const(1), Fraction(1, 2), 1.5):
        with pytest.raises(TypeError):
            (Q + T1).substitute("t1", value)


def test_substitute_absent_variable():
    assert (Q + T1).substitute("t9", 5) == Q + T1


def test_lowest_homogeneous_part():
    assert (Q**2 + Q * T1 + Q).lowest_homogeneous_part() == Q
    homog = Q * T1 + T2 * Q
    assert homog.lowest_homogeneous_part() == homog
    with pytest.raises(InvalidArgumentError):
        MPoly.zero().lowest_homogeneous_part()


def test_divide_exact_by_q_power():
    assert (Q * T1 + Q**2).divide_exact_by_q_power(1) == T1 + Q
    assert (Q**3 + Q**2 * T1).divide_exact_by_q_power(2) == Q + T1
    with pytest.raises(ExactDivisionError):
        (Q + T1).divide_exact_by_q_power(1)
    assert MPoly.zero().divide_exact_by_q_power(3).is_zero


def test_rendering_golden():
    p = Q**3 + Q**2 * T1 + Q**2 * T2 + Q * T1 * T2
    assert str(p) == "q^3 + q^2*t1 + q^2*t2 + q*t1*t2"
    assert str(MPoly.zero()) == "0"
    assert str(Q - 1) == "q - 1"
    assert str(-2 * Q**2 + 3) == "-2*q^2 + 3"
    assert str(edge_var("10") * edge_var("2")) == "t2*t10"


def test_variable_order_canonical():
    # q always leads, edge variables in numeric order
    p = edge_var("10") + edge_var("2") + Q
    assert p.variables == ("q", "t2", "t10")


def test_construction_prunes_and_validates():
    assert ((Q + T1) - T1).variables == ("q",)
    assert (Q * T1 - Q * T1).variables == ()
    p = MPoly(("q", "t1"), {(1, 0): 0, (0, 1): 2})
    assert p.variables == ("t1",)
    assert p.terms == {(1,): 2}
    with pytest.raises(InvalidArgumentError):
        MPoly(("q", "q"), {(1, 0): 1})
    with pytest.raises(InvalidArgumentError):
        MPoly(("q", "t1"), {(1,): 1})


def test_validating_constructor_keeps_its_checks():
    # the first bad tuple in dict order is the one named
    with pytest.raises(
        InvalidArgumentError,
        match=re.escape("exponent tuple (2,) does not match variables ('q', 't1')"),
    ):
        MPoly(("q", "t1"), {(1, 0): 1, (2,): 3, (1, 1, 1): 2})
    with pytest.raises(
        InvalidArgumentError, match=re.escape("duplicate variable names in ('q', 'q')")
    ):
        MPoly(("q", "q"), {(1, 0): 1})
    p = MPoly(["t2", "q", "t1"], {(1, 0, 0): True, (0, 0, 1): 2.0, (1, 0, 1): 0})
    assert p.variables == ("t1", "t2") and p.terms == {(0, 1): 1, (1, 0): 2}
    assert all(type(c) is int for c in p.terms.values())
    assert MPoly(("q", "t1"), {(0, 0): 5}).variables == ()
    assert MPoly(("q", "t1"), {}).variables == ()


def test_variable_order_is_total():
    # numerically equal names still get one fixed order
    a = MPoly(("t01", "t1"), {(1, 0): 1, (0, 1): 2})
    b = MPoly(("t1", "t01"), {(0, 1): 1, (1, 0): 2})
    assert a == b
    assert str(a) == str(b)


def test_degrees():
    p = Q**2 * T1 + T1 * T2
    assert p.total_degree() == 3
    with pytest.raises(InvalidArgumentError):
        MPoly.zero().total_degree()


names = st.sampled_from(["q", "t1", "t2"])
exponents = st.integers(min_value=0, max_value=3)
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw):
    terms = draw(
        st.lists(st.tuples(exponents, exponents, exponents, coeffs), max_size=5)
    )
    return MPoly(
        ("q", "t1", "t2"),
        {(a, b, c): coeff for a, b, c, coeff in terms if coeff},
    )


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys(), st.permutations(range(3)))
@settings(max_examples=100, deadline=None)
def test_variable_order_of_input_is_irrelevant(p, perm):
    names = tuple(p.variables)
    full = ("q", "t1", "t2")
    dense = {
        tuple(dict(zip(names, e)).get(n, 0) for n in full): c
        for e, c in p.terms.items()
    }
    shuffled = MPoly(
        tuple(full[i] for i in perm),
        {tuple(e[i] for i in perm): c for e, c in dense.items()},
    )
    canonical = MPoly(full, dense)
    assert shuffled == canonical == p
    assert hash(shuffled) == hash(canonical)
    assert shuffled.variables == canonical.variables


def _substitute_by_terms(p, name, value):
    # one monomial at a time, the way substitution is defined
    out = MPoly.zero()
    for exps, c in p.terms.items():
        powers = dict(zip(p.variables, exps))
        e = powers.pop(name, 0)
        out = out + MPoly(tuple(powers), {tuple(powers.values()): c * value**e})
    return out


@given(polys(), names, st.integers(min_value=-4, max_value=4))
@settings(max_examples=200, deadline=None)
def test_substitute_matches_termwise_definition(p, name, value):
    assert p.substitute(name, value) == _substitute_by_terms(p, name, value)
    assert_valid(p.substitute(name, value))


# -- the trusted constructor -----------------------------------------------

VARIABLES = ("q", "t1", "t2", "t10")


@st.composite
def term_dicts(draw):
    """Terms over VARIABLES that use only a random subset of them, so two
    draws can have disjoint or shared variables."""
    used = draw(st.sets(st.sampled_from(range(len(VARIABLES)))))
    exps = st.tuples(
        *(exponents if i in used else st.just(0) for i in range(len(VARIABLES)))
    )
    return draw(st.dictionaries(exps, coeffs, max_size=4))


@st.composite
def poly_pairs(draw):
    a, b = draw(term_dicts()), draw(term_dicts())
    # b may cancel some of a's terms, which can drop a variable from a + b
    for e in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[e] = -a[e]
    return MPoly(VARIABLES, a), MPoly(VARIABLES, b)


def assert_valid(r):
    # validating the result again changes nothing
    again = MPoly(r.variables, r.terms)
    assert r.variables == again.variables
    assert r.terms == again.terms
    assert all(type(c) is int for c in r.terms.values())
    assert all(type(e) is tuple for e in r.terms)


@given(poly_pairs(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=300, deadline=None)
def test_ring_results_are_already_valid(pair, k):
    a, b = pair
    results = [a + b, b + a, a - b, b - a, -a, a * b, k * a, a * k, 0 * a, a + k]
    for r in results:
        assert_valid(r)
    assert (a - b) + b == a
    assert a * b - b * a == 0


@st.composite
def subset_polys(draw):
    """k-list polys over up to 4 edge variables, with k from 1 to 4."""
    names = draw(st.lists(st.sampled_from(VARIABLES[1:]), unique=True))
    names = ("q",) + tuple(n for n in VARIABLES[1:] if n in names)
    size = 2 ** (len(names) - 1)
    ks = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return _subset_poly(names, ks)


@given(subset_polys(), st.data(), term_dicts(), st.integers(min_value=-3, max_value=3))
@settings(max_examples=300, deadline=None)
def test_subset_polys_are_already_valid(p, data, terms, k):
    a = MPoly(VARIABLES, terms)
    rebuilt = MPoly(p.variables, dict(p.terms))
    assert_valid(p)
    assert p == rebuilt and rebuilt == p and hash(p) == hash(rebuilt)
    assert p and rebuilt and not p.is_zero
    assert bool(a) == (not a.is_zero) == bool(a.terms)
    # two k-lists over the same variables compare as their terms do
    size = len(p._ks)
    other = _subset_poly(
        p.variables, data.draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    )
    assert (p == other) == (rebuilt == MPoly(p.variables, dict(other.terms)))
    for r in (p + a, a + p, p - a, -p, p * a, a * p, k * p, p + k, p * p):
        assert_valid(r)
    assert p * a == rebuilt * a and p * p == rebuilt * rebuilt


def _render_by_appending(p):
    # the printer that appended each term to one string, kept as the
    # reference for the bytes of render()
    if not p.terms:
        return "0"
    chunks = []
    for exps, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


@given(term_dicts(), st.integers(min_value=-(10**30), max_value=10**30))
@settings(max_examples=300, deadline=None)
def test_render_matches_the_appending_printer(terms, big):
    p = MPoly(VARIABLES, terms)
    for r in (p, -p, p + big, p * big):
        assert r.render() == _render_by_appending(r)


@given(subset_polys())
@settings(max_examples=300, deadline=None)
def test_subset_render_matches_the_appending_printer(p):
    # render() of a k-list poly reads the list, the reference its terms
    assert p.render() == _render_by_appending(p)


# -- k-lists with holes --------------------------------------------------------


@st.composite
def k_lists(draw):
    """Edge variables and a list over their subsets with entries from -1 (a
    hole) to 3, so that q or an edge variable may not occur."""
    names = draw(st.lists(st.sampled_from(VARIABLES[1:]), unique=True))
    names = ("q",) + tuple(n for n in VARIABLES[1:] if n in names)
    size = 2 ** (len(names) - 1)
    return names, draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))


@given(k_lists())
@settings(max_examples=300, deadline=None)
def test_packed_readers_and_passes_match_the_rebuild(assert_packed, lists):
    names, ks = lists
    assert_packed(lambda: _packed(names, list(ks)))


@given(k_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_packed_sums_match_the_rebuild(assert_packed_sum, lists, data):
    names, ks = lists
    size = len(ks)
    other = data.draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
    # a hole wherever ks has a monomial makes the supports disjoint
    apart = [-1 if k >= 0 else o for k, o in zip(ks, other)]
    a = _packed(names, ks)
    for b in (_packed(names, apart), _packed(names, other)):
        assert_packed_sum(a, b)


def test_packed_compacts_and_falls_back():
    # t1 has no monomial: compacted away
    p = _packed(("q", "t1", "t2"), [2, 1, -1, -1])
    assert p.variables == ("q", "t2") and p._ks == [2, 1]
    assert p == Q**2 + Q * edge_var("2")
    # no entry above 0: q drops, and the poly is plain
    p = _packed(("q", "t1"), [0, -1])
    assert p._ks is None and p == MPoly.const(1)
    assert _packed(("q", "t1"), [-1, -1]).is_zero
    # a monomial without q prints without a leading "*"
    assert str(_packed(("q", "t1", "t2"), [1, 0, 0, -1])) == "q + t1 + t2"
    assert str(_packed(("q", "t1"), [0, 1])) == "q*t1 + 1"


def test_divide_of_a_k_list_names_the_first_term_it_cannot_divide():
    p = _packed(("q", "t1", "t2"), [-1, 2, 1, 3])
    with pytest.raises(ExactDivisionError, match=re.escape("the term (1, 1, 0)")):
        p.divide_exact_by_q_power(2)
    assert p.divide_exact_by_q_power(1) == _packed(("q", "t1", "t2"), [-1, 1, 0, 2])


# -- products with a unit monomial, and widening -------------------------------

# edge names that sort before, between and after those of VARIABLES, "t2"
# before "t10" in the numeric-aware order, and two that VARIABLES shares
MONOMIAL_NAMES = ("t0", "t1", "t2", "t5", "t10", "t11")


@st.composite
def monomials(draw):
    """c q^a t^B, mostly with c = 1 and exponents 1 (the list pass), else
    one of the products that take the generic path."""
    a = draw(st.integers(0, 2))
    names = draw(st.lists(st.sampled_from(MONOMIAL_NAMES), unique=True, max_size=3))
    exps = tuple(draw(st.sampled_from((1, 1, 1, 2))) for _ in names)
    c = draw(st.sampled_from((1, 1, 1, -1, 2)))
    return MPoly(("q",) + tuple(names), {(a,) + exps: c})


def _list_pass_applies(p, m):
    # p packed, m one term with coefficient 1, each edge variable new to p
    # and of exponent 1
    if p._ks is None or len(m.terms) != 1:
        return False
    ((exps, c),) = m.terms.items()
    edges = [(n, e) for n, e in zip(m.variables, exps) if n != "q"]
    return c == 1 and all(e == 1 and n not in p.variables for n, e in edges)


def _assert_product(assert_packed, make, m):
    p, r = make(), make()
    r = MPoly(r.variables, dict(r.terms))
    fast = _list_pass_applies(p, m)
    for mine, reference in ((p * m, r * m), (m * p, m * r)):
        assert mine == reference and reference == mine
        assert mine.variables == reference.variables
        assert mine.render() == reference.render()
        assert (mine._ks is not None) == fast
        again = MPoly(mine.variables, dict(mine.terms))
        assert (again.variables, again.terms) == (mine.variables, mine.terms)
    if fast:
        assert_packed(lambda: make() * m)


@given(k_lists(), monomials())
@settings(max_examples=300, deadline=None)
def test_monomial_products_match_the_rebuild(assert_packed, lists, m):
    names, ks = lists
    _assert_product(assert_packed, lambda: _packed(names, list(ks)), m)


@pytest.mark.parametrize(
    "m",
    [
        edge_var("5"),
        Q**2 * edge_var("0") * edge_var("11"),
        MPoly.const(1),
        _packed(("q", "t5"), [-1, 1]),  # a packed monomial
        _subset_poly(("q",), [2]),
        2 * edge_var("5"),  # coefficient
        -edge_var("5"),
        MPoly.const(3),
        edge_var("5") ** 2,  # exponent above 1
        edge_var("1"),  # a variable the poly has
        Q * edge_var("2") * edge_var("5"),
        edge_var("5") + 1,  # two terms
        _packed(("q", "t5"), [1, 1]),
    ],
    ids=[
        "t5", "q2-t0-t11", "one", "packed-q-t5", "packed-q2", "coefficient-2",
        "coefficient-minus-1", "constant-3", "t5-squared", "shared-t1",
        "shared-t2", "two-terms", "packed-two-terms",
    ],
)
def test_monomial_product_and_its_fallbacks(assert_packed, m):
    # every entry kind: a hole, a monomial without q, and q^2
    _assert_product(assert_packed, lambda: _packed(("q", "t1", "t2"), [1, -1, 0, 2]), m)


def _widen_per_entry(ks, names, wide, bit):
    # the index of each subset of wide over names, built entry by entry
    present = set(names)
    index = [0]
    for name in wide[1:]:
        if name in present:
            index = [2 * i + b if i >= 0 else -1 for i in index for b in (0, 1)]
        else:
            pair = (-1, 0) if bit else (0, -1)
            index = [i if p == 0 else -1 for i in index for p in pair]
    return [ks[i] if i >= 0 else -1 for i in index]


@st.composite
def widenings(draw):
    """A k-list over some of up to 7 edge names and the names it widens to,
    with one inserted name or several."""
    pool = ("t0", "t1", "t2", "t5", "t10", "t11", "tx")
    wide = tuple(n for n in pool if draw(st.booleans()))
    names = tuple(n for n in wide if draw(st.booleans()))
    size = 2 ** len(names)
    ks = draw(st.lists(st.integers(-1, 3), min_size=size, max_size=size))
    return ks, ("q",) + names, ("q",) + wide


@given(widenings(), st.sampled_from((0, 1)))
@settings(max_examples=300, deadline=None)
def test_widen_matches_the_per_entry_widening(widening, bit):
    ks, names, wide = widening
    assert _widen(list(ks), names, wide, bit) == _widen_per_entry(ks, names, wide, bit)


@pytest.mark.parametrize("inserted", [(0,), (3,), (7,), (0, 7), (1, 4, 6), (0, 2, 3, 5)])
@pytest.mark.parametrize("bit", [0, 1])
def test_widen_inserts_runs_and_offsets(inserted, bit):
    # 8 names, so that both the copy per run and the copy per offset occur
    wide = ("q",) + tuple(f"t{i}" for i in range(8))
    names = tuple(n for i, n in enumerate(wide) if i - 1 not in inserted)
    ks = list(range(2 ** (len(names) - 1)))
    assert _widen(ks, names, wide, bit) == _widen_per_entry(ks, names, wide, bit)
