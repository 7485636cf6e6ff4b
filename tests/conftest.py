from fnmatch import fnmatch

import pytest

from pottsmotive import _countpure, pointcount, verify
from pottsmotive.errors import ExactDivisionError, InvalidArgumentError
from pottsmotive.mpoly import MPoly, Q
from pottsmotive.multigraph import MultiGraph, banana, disjoint_union, polygon


@pytest.fixture
def loop():
    return polygon(1)


@pytest.fixture
def single_edge():
    return banana(1)


@pytest.fixture
def two_banana():
    return banana(2)


@pytest.fixture
def triangle():
    return polygon(3)


@pytest.fixture
def square():
    return polygon(4)


@pytest.fixture
def path2():
    return MultiGraph(3, (("1", 0, 1), ("2", 1, 2)))


@pytest.fixture
def two_edges():
    return disjoint_union(banana(1), banana(1))


@pytest.fixture
def run_checks():
    """Run the `verify` registry checks whose report names match any of the
    shell-style patterns; every pattern must match at least one check."""

    def run(*patterns):
        unmatched = set(patterns)
        for name, fn in verify.checks("all"):
            hits = {p for p in patterns if fnmatch(name, p)}
            if hits:
                ok, detail = fn()
                assert ok, f"{name}: {detail}"
                unmatched -= hits
        assert not unmatched, f"no check matches {sorted(unmatched)}"

    return run


@pytest.fixture
def conversions(monkeypatch):
    """Counts of the calls to the dense conversion and to the kernel,
    through counting wrappers on both module attributes."""
    calls = {"dense": 0, "kernel": 0}
    dense, kernel = pointcount._dense_system, _countpure.count_common_zeros

    def counted_dense(*args):
        calls["dense"] += 1
        return dense(*args)

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(pointcount, "_dense_system", counted_dense)
    monkeypatch.setattr(_countpure, "count_common_zeros", counted_kernel)
    return calls


@pytest.fixture
def primality_tests(monkeypatch):
    """The numbers the kernel's primality test is run on, in call order,
    through a counting wrapper on the module attribute."""
    calls = []
    is_prime = _countpure._is_prime

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(_countpure, "_is_prime", counted)
    return calls


# -- packed polys against a validated rebuild -----------------------------------

BRUTE_WORK = 2 * 10**4  # points times monomials for one brute_force count


def _rebuilt(p):
    return MPoly(p.variables, dict(p.terms))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ExactDivisionError, InvalidArgumentError) as e:
        return type(e), str(e)


def _assert_same(mine, reference, from_packed):
    # a pass's result on a packed poly against the same pass on its rebuild
    if isinstance(reference, tuple):  # the error both raised
        assert mine == reference
        return
    assert mine == reference and reference == mine
    assert mine.variables == reference.variables
    assert mine.render() == reference.render()
    if from_packed:  # a list pass leaves packed while q remains
        assert (mine._ks is not None) == ("q" in mine.variables)
    again = _rebuilt(mine)
    assert (again.variables, again.terms) == (mine.variables, mine.terms)


def _assert_dense_system(p, r):
    # the kernel's input from the list equals the one from the rebuild's
    # terms, once columns are expanded, and counts as brute_force does
    names, system = pointcount._dense_system([p])
    _, dense = pointcount._dense_system([r])
    (shape, data), = system
    assert _countpure._is_columns(shape, data) == (-1 not in p._ks)
    if _countpure._is_columns(shape, data):
        assert data is p._ks
        data = _countpure._dense_columns(shape, data)
    assert [(shape, data)] == dense
    for q in (2, 3, 4, 5):
        if q ** len(names) * len(r.terms) > BRUTE_WORK:
            break
        count = _countpure.count_common_zeros(system, len(names), q)
        assert count == _countpure.brute_force(dense, len(names), q)


def _assert_packed(make):
    """Every reader and list pass of the poly that make() builds, against
    the same on a validated rebuild of a second one's terms."""
    p, w = make(), make()
    r = _rebuilt(w)
    packed = p._ks is not None
    assert p.variables == r.variables and p.render() == r.render()
    assert bool(p) == bool(r) and p.is_zero == r.is_zero
    assert p.is_homogeneous() == r.is_homogeneous()
    assert _outcome(p.total_degree) == _outcome(r.total_degree)
    if packed:
        _assert_dense_system(p, r)
        with pytest.raises(AttributeError):
            object.__getattribute__(p, "terms")  # none of the above built them
    assert p == r and r == p and hash(p) == hash(r)
    passes = [MPoly.lowest_homogeneous_part, lambda x: Q * x, lambda x: x * Q]
    passes += [lambda x, c=c: x.substitute("q", c) for c in range(-1, 3)]
    passes += [lambda x, k=k: x.divide_exact_by_q_power(k) for k in range(4)]
    for f in passes:
        _assert_same(_outcome(f, p), _outcome(f, r), packed)


def _edge_subsets(p):
    # the edge subset A of each term q^k t^A
    return {
        frozenset(n for n, e in zip(p.variables, exps) if e and n != "q")
        for exps in p.terms
    }


def _assert_packed_sum(a, b):
    """a + b and b + a against the sums of the rebuilds; the sum of two
    packed polys with disjoint supports stays packed."""
    ra, rb = _rebuilt(a), _rebuilt(b)
    disjoint = not (_edge_subsets(ra) & _edge_subsets(rb))
    both = a._ks is not None and b._ks is not None
    for mine, reference in ((a + b, ra + rb), (b + a, rb + ra)):
        _assert_same(mine, reference, False)
        if both:
            assert (mine._ks is not None) == disjoint


@pytest.fixture(scope="session")
def assert_packed():
    return _assert_packed


@pytest.fixture(scope="session")
def assert_packed_sum():
    return _assert_packed_sum
