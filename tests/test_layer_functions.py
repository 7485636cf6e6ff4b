"""The layers perfbench traces (grothendieck, motivic, tangentcone, tutte)
are measured by wrapping every public plain function of each module.  A
public entry point that is not a plain function, such as one decorated with
functools.lru_cache, would run untraced and drop out of the layer's calls
and self time."""

import inspect

import pytest

from pottsmotive import grothendieck, motivic, tangentcone, tutte


@pytest.mark.parametrize("module", [grothendieck, motivic, tangentcone, tutte])
def test_public_entry_points_are_plain_functions(module):
    entry_points = [
        (name, value)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not inspect.isclass(value)
        and getattr(value, "__module__", None) == module.__name__
    ]
    assert entry_points
    for name, value in entry_points:
        assert inspect.isfunction(value), f"{module.__name__}.{name} is {type(value)}"
