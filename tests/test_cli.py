"""End-to-end CLI tests on temporary config files.

Reports must be byte-identical across reruns and across job counts, so
several tests compare raw file bytes rather than parsed content.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cylspec
from cylspec.cli import dumps_canonical, main


def _stabilizing_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "task": "stabilizing_analysis",
        "cross_section": {
            "kind": "synthetic",
            "dirichlet": [5.0, 80.0],
            "neumann": [0.0, 2.0, 85.0],
        },
        "profile": {
            "epsilon": {
                "family": "sech2_bump",
                "base": 1.0,
                "amplitude": 0.5,
                "center": 0.0,
                "width": 1.0,
            },
            "mu": {"family": "constant", "value": 1.0},
        },
        "numerics": {"e_max": 40.0, "window_halfwidth": 15.0, "grid": 2000},
    }
    cfg.update(overrides)
    return cfg


def _periodic_cfg(**overrides):
    cfg = {
        "schema_version": 1,
        "task": "periodic_analysis",
        "cross_section": {
            "kind": "synthetic",
            "dirichlet": [5.0, 9.0, 60.0],
            "neumann": [0.0, 55.0],
        },
        "profile": {
            "epsilon": {
                "family": "cosine_periodic",
                "mean": 1.0,
                "amplitude": 0.05,
                "period": 1.0,
            },
            "mu": {"family": "constant", "value": 1.0},
        },
        "numerics": {"e_max": 40.0},
    }
    cfg.update(overrides)
    return cfg


def _write_cfg(tmp_path: Path, cfg, name="config.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_stabilizing_run_writes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["task"] == "stabilizing_analysis"
    assert report["classification"] == "stabilizing"
    assert report["friedlander_validated"] is True
    assert report["essential_bounds"]["product_sup"] == pytest.approx(1.5, abs=1e-9)
    assert report["central_gap"] is not None

    rows = (tmp_path / "bound_states.csv").read_text().splitlines()
    assert rows[0].split(",")[:3] == ["flavor", "mode_constant", "indices"]
    assert len(rows) >= 2  # the bump profile traps at least one state
    first = rows[1].split(",")
    energy, maxwell = float(first[4]), float(first[5])
    assert maxwell == pytest.approx(math.sqrt(energy), rel=1e-12)
    assert not (tmp_path / "band_edges.csv").exists()


def test_reports_are_deterministic_across_jobs(tmp_path):
    blobs = []
    for sub, jobs in (("a", None), ("b", None), ("c", 2), ("d", 4)):
        d = tmp_path / sub
        d.mkdir()
        cfg = _write_cfg(d, _stabilizing_cfg())
        argv = ["run", str(cfg)]
        if jobs:
            argv += ["--jobs", str(jobs)]
        assert main(argv) == 0
        blobs.append((d / "report.json").read_bytes())
    assert all(b == blobs[0] for b in blobs[1:])


def test_oracle_flag_writes_comparison(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--oracle"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    oracle = report["oracle"]
    assert oracle["kind"] == "weighted_vs_transform"
    assert oracle["max_rel_deviation"] < 1e-3
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "flavor"
    assert len(lines) >= 2


def test_oracle_check_task_implies_oracle(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg(task="oracle_check"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "oracle.csv").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert "oracle" in report


def test_dump_potentials(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--dump-potentials"]) == 0
    lines = (tmp_path / "potentials.csv").read_text().splitlines()
    assert len(lines) > 801  # at least one mode sampled on the standard grid


def test_periodic_run_with_certificate(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        _periodic_cfg(numerics={"e_max": 40.0, "finite_gap_certificate": True}),
    )
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["classification"] == "periodic"
    cert = report["finite_gap_certificate"]
    assert cert["verified"] is True
    assert cert["coverage_start"] < 40.0
    edges = (tmp_path / "band_edges.csv").read_text().splitlines()
    assert edges[0].split(",")[2] == "kind"
    kinds = {ln.split(",")[2] for ln in edges[1:]}
    assert "band" in kinds
    assert not (tmp_path / "bound_states.csv").exists()


def test_periodic_mode_above_e_max_is_reported_without_bands(tmp_path):
    # the potential of mode el/51 lies wholly above e_max = 40
    two_pi2 = 2.0 * math.pi**2
    cfg = _periodic_cfg(
        cross_section={"kind": "synthetic", "dirichlet": [two_pi2, 51.0, 200.0], "neumann": [0.0, 200.0]},
        numerics={"e_max": 40.0},
    )
    cfg["profile"]["epsilon"]["amplitude"] = 0.3
    assert main(["run", str(_write_cfg(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    modes = {(m["flavor"], m["mode_constant"]): m for m in report["modes"]}
    assert modes[("el", 51.0)]["bands"] == []
    assert modes[("el", two_pi2)]["bands"] != []


def test_synthetic_csv_inputs_match_inline(tmp_path):
    inline_dir = tmp_path / "inline"
    csv_dir = tmp_path / "fromcsv"
    inline_dir.mkdir()
    csv_dir.mkdir()

    cfg_inline = _write_cfg(inline_dir, _stabilizing_cfg())
    (csv_dir / "d.csv").write_text("5.0\n80.0\n")
    (csv_dir / "n.csv").write_text("0.0\n\n2.0\n85.0\n")
    cfg_csv = _write_cfg(
        csv_dir,
        _stabilizing_cfg(
            cross_section={
                "kind": "synthetic",
                "dirichlet_csv": "d.csv",
                "neumann_csv": "n.csv",
            }
        ),
    )
    assert main(["run", str(cfg_inline)]) == 0
    assert main(["run", str(cfg_csv)]) == 0
    assert (inline_dir / "report.json").read_bytes() == (csv_dir / "report.json").read_bytes()


def test_custom_output_paths(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        _stabilizing_cfg(outputs={"report": "out/rep.json", "bound_states_csv": "out/pts.csv"}),
    )
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "rep.json").exists()
    assert (tmp_path / "out" / "pts.csv").exists()


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2


def test_wrong_schema_version(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg(schema_version=2))
    assert main(["run", str(cfg)]) == 2


def test_unknown_task(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg(task="resolvent_analysis"))
    assert main(["run", str(cfg)]) == 2


def test_negative_e_max(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg(numerics={"e_max": -3.0}))
    assert main(["run", str(cfg)]) == 2


def test_task_classification_mismatch(tmp_path):
    bad = _periodic_cfg(task="stabilizing_analysis")
    cfg = _write_cfg(tmp_path, bad)
    assert main(["run", str(cfg)]) == 2
    bad2 = _stabilizing_cfg(task="periodic_analysis")
    cfg2 = _write_cfg(tmp_path, bad2, name="config2.json")
    assert main(["run", str(cfg2)]) == 2


def test_unknown_profile_family(tmp_path):
    c = _stabilizing_cfg()
    c["profile"]["epsilon"] = {"family": "lorentzian", "base": 1.0}
    cfg = _write_cfg(tmp_path, c)
    assert main(["run", str(cfg)]) == 2


def test_missing_csv_input(tmp_path):
    c = _stabilizing_cfg(
        cross_section={"kind": "synthetic", "dirichlet_csv": "ghost.csv", "neumann": [0.0, 2.0, 85.0]}
    )
    cfg = _write_cfg(tmp_path, c)
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize(
    "path, value",
    [
        (("numerics", "e_max"), "abc"),
        (("numerics", "e_max"), None),
        (("numerics", "grid"), "fine"),
        (("cross_section", "width"), "wide"),
        (("profile", "epsilon", "amplitude"), "big"),
    ],
    ids=["e_max-text", "e_max-null", "grid", "width", "amplitude"],
)
def test_malformed_number_is_bad_input(tmp_path, capsys, path, value):
    c = _stabilizing_cfg(cross_section={"kind": "rectangle", "width": 1.0, "height": 1.0})
    *parents, key = path
    doc = c
    for name in parents:
        doc = doc[name]
    doc[key] = value
    assert main(["run", str(_write_cfg(tmp_path, c))]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_bad_jobs_values(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--jobs", "0"]) == 2
    monkeypatch.setenv("CYLSPEC_JOBS", "two")
    assert main(["run", str(cfg)]) == 2


def test_jobs_env_fallback(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    monkeypatch.setenv("CYLSPEC_JOBS", "2")
    assert main(["run", str(cfg)]) == 0


def test_cli_import_leaves_out_scipy_integrate():
    # the traced benchmark still finds schrodinger.solve_ivp, resolved on
    # first access
    code = (
        "import sys, cylspec.cli, cylspec.schrodinger as s; "
        "assert 'scipy.integrate' not in sys.modules, 'imported at start-up'; "
        "assert callable(s.solve_ivp)"
    )
    src = str(Path(cylspec.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def test_canonical_floats_round_trip():
    vals = [0.1, 1.0, -2.5, 1e-17, 3.141592653589793, 1e300]
    blob = dumps_canonical(vals)
    assert json.loads(blob) == vals


def test_canonical_special_values():
    assert dumps_canonical(float("nan")) == "null"
    assert dumps_canonical(float("inf")) == "null"
    assert dumps_canonical(2.0) == "2.0"
    assert dumps_canonical({"b": 1, "a": [True, None]}) == '{"b":1,"a":[true,null]}'
