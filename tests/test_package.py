"""The package namespace is the union of its modules' public names."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _fresh(code: str):
    # the JSON a new interpreter prints, the package not yet loaded
    src = str(Path(cylspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", "import json\n" + code], check=True, capture_output=True, env=env)
    return json.loads(run.stdout)


def test_lazy_namespace_in_a_fresh_interpreter():
    union = sorted(name for module in _MODULES for name in module.__all__)
    star = "ns = {}\nexec('from cylspec import *', ns)\nprint(json.dumps(sorted(set(ns) - {'__builtins__'})))"
    assert _fresh(star) == union
    assert _fresh("import cylspec\nprint(json.dumps(dir(cylspec)))") == union
    unknown = "import cylspec\ntry:\n    cylspec.no_such_name\nexcept AttributeError:\n    print('true')"
    assert _fresh(unknown) is True
