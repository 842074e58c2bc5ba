"""The traced benchmark wraps package functions by name.

bench/spans.py lists (module, attribute) pairs in TARGETS and its tracer
looks each one up with getattr, so a refactor that moves or drops one of
those names breaks every traced run.  A refactor can also keep every
name but route the work around it, so that a span reads zero calls.
These tests check that every name still resolves, and that the spans of
the layers a run passes through record calls on a golden config of each
analysis.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import shutil
from pathlib import Path

import pytest

from cylspec.cli import main

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _targets():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(elt.elts[1].value, elt.elts[2].value) for elt in node.value.elts]
    raise AssertionError("bench/spans.py defines no TARGETS")


def _owner(owner: str):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for owner, attr in targets:
        assert callable(getattr(_owner(owner), attr, None)), f"{owner}.{attr}"


# the layers each analysis passes through, run on a golden config
_LAYERS = {
    "zero_branch": (
        "liouville.values",
        "liouville.inverse",
        "schrodinger.bound_states",
        "schrodinger.count_below",
        "schrodinger.eigh_tridiagonal",
    ),
    "periodic_certificate": (
        "liouville.values",
        "liouville.inverse",
        "schrodinger.band_structure",
        "schrodinger.discriminant",
    ),
}


@pytest.mark.parametrize("case", sorted(_LAYERS))
def test_traced_layers_record_calls(case, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    for name, owner, attr, items in spans.TARGETS:
        target = _owner(owner)
        monkeypatch.setattr(target, attr, tracer.wrap(name, getattr(target, attr), items))

    cfg = tmp_path / "config.json"
    shutil.copy(GOLDEN / case / "config.json", cfg)
    assert main(["run", str(cfg), "--jobs", "2"]) == 0
    summary = tracer.summary()
    for name in _LAYERS[case]:
        assert summary.get(name, {}).get("calls", 0) > 0, name
