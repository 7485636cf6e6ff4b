"""Every `potts verify` check, run by pytest under its report name."""

import pytest

from pottsmotive import verify
from pottsmotive.errors import InvalidArgumentError

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
