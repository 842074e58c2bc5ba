"""The traced benchmark wraps package functions by name.

bench/spans.py lists (module, attribute) pairs in TARGETS and its tracer
looks each one up with getattr, so a refactor that moves or drops one of
those names breaks every traced run.  This test reads that list without
importing the bench package and checks that every name still resolves.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(elt.elts[1].value, elt.elts[2].value) for elt in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for owner, attr in targets:
        mod, _, cls = owner.partition(":")
        obj = importlib.import_module(mod)
        if cls:
            obj = getattr(obj, cls)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"
