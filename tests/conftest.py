from fnmatch import fnmatch

import pytest

from pottsmotive import _countpure, pointcount, verify
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
