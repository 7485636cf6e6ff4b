"""Every `potts verify` check, run by pytest under its report name, and the
memo that `run_suite` keeps for the length of one run."""

from itertools import islice

import pytest

from pottsmotive import _countpure, _runmemo, pointcount, tutte, verify
from pottsmotive.errors import InvalidArgumentError, ResourceLimitError
from pottsmotive.multigraph import MultiGraph, polygon
from pottsmotive.verify import TRIANGLE

CHECKS = list(verify.checks("all"))


@pytest.mark.parametrize("check", [pytest.param(fn, id=name) for name, fn in CHECKS])
def test_check(check):
    ok, detail = check()
    assert ok, detail


def test_registry_names_unique_and_counted():
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)
    # perfbench/workloads.py pins this count as VERIFY_CHECKS
    assert len(names) == 344


@pytest.mark.parametrize("max_dim", [0, -1])
def test_checks_refuse_max_dim_below_one(max_dim):
    with pytest.raises(InvalidArgumentError):
        verify.checks("all", max_dim)


# -- the run memo -------------------------------------------------------------------


def test_run_suite_matches_each_check_run_alone():
    # run_suite shares Z_G and kernel counts among its checks; each thunk
    # run on its own, outside any run, builds and counts everything afresh
    alone = []
    for name, fn in verify.checks("all", 5):
        assert _runmemo.current is None
        ok, detail = fn()
        alone.append({"name": name, "ok": bool(ok), "detail": detail})
    assert verify.run_suite("all", 5) == alone


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call that reaches the kernel, through a counter rebound on the
    module attribute."""
    calls = []
    kernel = _countpure.count_common_zeros

    def counted(polys, nvars, q, **kwargs):
        calls.append(q)
        return kernel(polys, nvars, q, **kwargs)

    monkeypatch.setattr(_countpure, "count_common_zeros", counted)
    return calls


def test_fixed_q_independence_check_reports_differing_counts(monkeypatch):
    # a kernel whose slice counts depend on the element q is fixed to
    kernel = _countpure.count_common_zeros

    def by_element(polys, nvars, q, *, first=None):
        return kernel(polys, nvars, q, first=first) + (first or 0)

    monkeypatch.setattr(_countpure, "count_common_zeros", by_element)
    check = dict(verify.checks("oracle"))["oracle/fixed-q-independent/triangle"]
    ok, detail = check()
    assert not ok
    # F_3 has the one element 2 besides 0 and 1; F_4 has 2 and 3
    assert detail.startswith("fixed-q counts differ at p=4: [")


def _recorded(monkeypatch, module, name):
    """The argument tuples of every call to module.name, through a
    recording wrapper on the module attribute."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_full_run_shares_its_counts_and_z_builds(monkeypatch, kernel_calls):
    # pinned so that any change in sharing shows up: each check run alone
    # makes 1,132 kernel counts, 670 Z_G builds and 162 subset walks.  A
    # system is keyed in dense form, so a Z_G that reaches the kernel once
    # as exponent columns and once dense shares one count
    builds = _recorded(monkeypatch, tutte, "_delcon")
    walks = _recorded(monkeypatch, tutte, "_walk")
    verify.run_suite("all", 5)
    assert (len(kernel_calls), len(builds), len(walks)) == (483, 83, 51)
    # 51 walks of 38 distinct edge lists, some both in full and acyclic
    assert len(set(walks)) == 51 and len({w[:2] for w in walks}) == 38


def test_subset_walks_are_shared_within_a_run_only(monkeypatch):
    walks = _recorded(monkeypatch, tutte, "_walk")
    for _ in range(2):
        tutte.tutte_poly(TRIANGLE)
        tutte.leading_part_by_forests(TRIANGLE)
        tutte.connecting_split(TRIANGLE, "1")
    assert len(walks) == 6
    walks.clear()
    with _runmemo.run():
        z = tutte.tutte_poly(TRIANGLE)
        assert tutte.tutte_poly(TRIANGLE)._ks is z._ks
        for _ in range(2):
            tutte.leading_part_by_forests(TRIANGLE)
            tutte.connecting_split(TRIANGLE, "1")
    assert len(walks) == 3
    tutte.tutte_poly(TRIANGLE)
    assert len(walks) == 4


def test_subset_walks_are_kept_per_vertex_count():
    # one edge list on 2 and on 3 vertices: the isolated vertex adds a
    # component to every subset, so the two walks must not share an entry
    small, large = MultiGraph(2, (("1", 0, 1),)), MultiGraph(3, (("1", 0, 1),))
    with _runmemo.run():
        pairs = [(tutte.tutte_poly(g), tutte.leading_part_by_forests(g)) for g in (small, large)]
    assert pairs == [(tutte.tutte_delcon(g), tutte.leading_part(g)) for g in (small, large)]


def test_eq_names_both_sides_only_when_they_differ():
    assert verify._eq(TRIANGLE, TRIANGLE) == (True, "equal")
    z = tutte.tutte_delcon(polygon(2))
    assert verify._eq(z, 1) == (False, f"{z} vs 1")
    assert verify._eq(2, 3) == (False, "2 vs 3")


def _two_counters(z, ambient_dim, **kwargs):
    """Two counters of one polynomial, each converting it on its own."""
    return [pointcount.complement_counter([z], ambient_dim, **kwargs) for _ in range(2)]


def test_memo_shares_z_and_counts_within_a_run(kernel_calls):
    with _runmemo.run():
        z = tutte.tutte_delcon(TRIANGLE)
        assert tutte.tutte_delcon(MultiGraph(3, TRIANGLE.edges)) is z
        first, second = _two_counters(z, 4)
        n = first(5)
        assert first(5) == n
        # a second counter on an equal system meets the same key
        assert second(5) == n
        assert kernel_calls == [5]
        second(7)
        assert kernel_calls == [5, 7]
        first, second = _two_counters(z, 3, fixed_q=True)
        assert first(5, 2) == second(5, 2)
        second(5, 3)
        assert kernel_calls == [5, 7, 5, 5]


def test_oracle_checks_of_a_graph_convert_its_z_once(monkeypatch, conversions):
    # complement-plus-zeros and f2-count-is-1 share one counter, built
    # between the checks; outside a run each count still reaches the kernel
    monkeypatch.setattr(verify, "corpus", lambda: [("triangle", TRIANGLE)])
    checks = dict(islice(verify.suite_oracle(5), 2))
    assert list(checks) == [
        "oracle/complement-plus-zeros/triangle",
        "oracle/f2-count-is-1/triangle",
    ]
    for check in checks.values():
        ok, detail = check()
        assert ok, detail
    assert conversions == {"dense": 1, "kernel": 3}


def test_nested_run_restores_the_outer_memo():
    with _runmemo.run():
        outer = _runmemo.current
        with _runmemo.run():
            assert _runmemo.current == {}
        assert _runmemo.current is outer
    assert _runmemo.current is None


def _count_twice():
    z = tutte.tutte_delcon(TRIANGLE)
    assert tutte.tutte_delcon(TRIANGLE) is not z
    for complement in _two_counters(z, 4):
        complement(5)


def test_memo_ends_when_the_run_returns(kernel_calls):
    verify.run_suite("oracle", 4)
    assert _runmemo.current is None
    kernel_calls.clear()
    _count_twice()
    assert kernel_calls == [5, 5]


def test_memo_ends_when_the_run_raises(monkeypatch, kernel_calls):
    def failing_suite(max_dim=5):
        yield "memo/count", lambda: (
            pointcount.complement_counter([tutte.tutte_delcon(TRIANGLE)], 4)(5) > 0,
            "counted",
        )
        raise RuntimeError("suite broke partway")

    monkeypatch.setitem(verify.SUITES, "tutte", failing_suite)
    with pytest.raises(RuntimeError):
        verify.run_suite("tutte")
    assert kernel_calls == [5]
    assert _runmemo.current is None
    kernel_calls.clear()
    _count_twice()
    assert kernel_calls == [5, 5]


def test_refusals_are_never_memoised(monkeypatch, kernel_calls):
    with _runmemo.run():
        z = tutte.tutte_delcon(TRIANGLE)
        first, second = _two_counters(z, 4)
        n = first(5)
        # a counter reads the budget when it is built
        monkeypatch.setenv("POTTS_BUDGET", str(5**4 - 1))
        capped = pointcount.complement_counter([z], 4)
        monkeypatch.delenv("POTTS_BUDGET")
        with pytest.raises(ResourceLimitError):
            capped(5)
        with pytest.raises(InvalidArgumentError):
            second(6)
        # a kernel fault is raised again, not kept
        for complement in _two_counters(z, 3, fixed_q=True):
            with pytest.raises(ValueError):
                complement(5, 7)
        assert second(5) == n
    # the first count and the kernel's two refusals of element 7; the last
    # count was the kept one
    assert kernel_calls == [5, 5, 5]


def test_refused_graph_is_refused_again_within_a_run():
    too_big = polygon(tutte.DEFAULT_EDGE_BUDGET + 1)
    with _runmemo.run():
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                tutte.tutte_delcon(too_big)


def test_unknown_suite_is_an_invalid_argument():
    with pytest.raises(InvalidArgumentError, match="unknown suite"):
        verify.checks("unknown")
    with pytest.raises(InvalidArgumentError):
        verify.run_suite("unknown")
    assert _runmemo.current is None


def test_check_records_any_exception_as_its_failure():
    results = []

    def fault():
        raise ValueError("no first variable")

    verify._check(results, "fault", fault)
    assert results == [
        {"name": "fault", "ok": False, "detail": "ValueError: no first variable"}
    ]
