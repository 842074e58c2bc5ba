"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import cylspec
from cylspec import (
    assembly,
    cross_section,
    errors,
    liouville,
    profiles,
    schrodinger,
    weighted_operator,
)

_MODULES = (assembly, cross_section, errors, liouville, profiles, schrodinger, weighted_operator)


def test_public_names_are_the_union_of_the_module_lists():
    names = cylspec.__all__
    assert len(names) == len(set(names))
    for module in _MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
    assert set(names) == {name for module in _MODULES for name in module.__all__}
    for name in names:
        owner = next(m for m in _MODULES if name in m.__all__)
        assert getattr(cylspec, name) is getattr(owner, name), name
