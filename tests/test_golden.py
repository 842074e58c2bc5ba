"""Golden reports: every artifact of four fixed configs, byte for byte.

Each directory under tests/golden holds a `config.json` and the files
that `cylspec run config.json --oracle --dump-potentials` wrote for it.
A refactor that claims to leave the output unchanged must reproduce
them exactly.  The bytes are pinned to numpy 2.4.6 and scipy 1.17.1;
other versions may move the last digits of LAPACK and elementary-function
results.  Regenerate them only with a CHANGES.md entry that gives the largest
deviation from the files they replace.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from cylspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_bytes(case, tmp_path):
    src = GOLDEN / case
    shutil.copy(src / "config.json", tmp_path / "config.json")
    assert main(["run", str(tmp_path / "config.json"), "--oracle", "--dump-potentials"]) == 0
    expected = sorted(p.name for p in src.iterdir() if p.name != "config.json")
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "config.json")
    assert written == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (src / name).read_bytes(), name
