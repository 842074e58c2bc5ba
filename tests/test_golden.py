"""Golden reports: every artifact of four fixed configs, byte for byte.

Each directory under tests/golden holds a `config.json` and the files
that `cylspec run config.json --oracle --dump-potentials` wrote for it.
A refactor that claims to leave the output unchanged must reproduce
them exactly, also under `--jobs 2`: the flag is kept only so that
existing command lines still run, and must not change a byte.  The bytes
are pinned to numpy 2.4.6 and scipy 1.17.1; other versions may move
the last digits of LAPACK and elementary-function results.  Regenerate
them only with a CHANGES.md entry that gives the largest deviation
from the files they replace.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from cylspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
RUNS = [(case, jobs) for jobs in (1, 2) for case in CASES]


def _first_difference(got, want, path):
    """The first JSON path where two parsed documents differ in keys, key
    order or value, or None when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for i, (kg, kw) in enumerate(zip(got, want)):
            if kg != kw:
                return f"{path}: key {i} is {kg!r}, expected {kw!r}"
        if len(got) != len(want):
            return f"{path}: {len(got)} keys, expected {len(want)}"
        pairs = [(f"{path}.{k}" if path else k, got[k], want[k]) for k in got]
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, expected {len(want)}"
        pairs = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{path}: {got!r}, expected {want!r}"
    for sub, g, w in pairs:
        diff = _first_difference(g, w, sub)
        if diff:
            return diff
    return None


def _first_line_difference(got: bytes, want: bytes) -> str:
    """The first line where two texts differ, with both versions."""
    got_lines, want_lines = got.decode().splitlines(), want.decode().splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return f"line {i}: {g!r}, expected {w!r}"
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    return "the lines are equal, the bytes are not"


@pytest.mark.parametrize(
    "case, jobs", RUNS, ids=[c if j == 1 else f"{c}-jobs{j}" for c, j in RUNS]
)
def test_artifacts_match_golden_bytes(case, jobs, tmp_path):
    src = GOLDEN / case
    shutil.copy(src / "config.json", tmp_path / "config.json")
    argv = ["run", str(tmp_path / "config.json"), "--oracle", "--dump-potentials"]
    assert main(argv + ["--jobs", str(jobs)]) == 0
    expected = sorted(p.name for p in src.iterdir() if p.name != "config.json")
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "config.json")
    assert written == expected
    for name in expected:
        got, want = (tmp_path / name).read_bytes(), (src / name).read_bytes()
        where = name
        if name.endswith(".json") and got != want:
            diff = _first_difference(json.loads(got), json.loads(want), "")
            where = f"{name}: {diff or 'parsed documents are equal, the bytes are not'}"
        elif got != want:
            where = f"{name}: {_first_line_difference(got, want)}"
        assert got == want, where
