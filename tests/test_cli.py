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
from cylspec import assembly, cli, liouville, profiles, schrodinger
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


def test_oracle_solves_on_the_settled_window(tmp_path):
    # the magnetic tails of this off-centre bump settle far outside the
    # configured halfwidth 12; on the configured window the weighted
    # route's fourth state sat 1.1 % off, on the settled one 3.4e-6
    cfg = _stabilizing_cfg(
        cross_section={
            "kind": "synthetic",
            "dirichlet": [6.0, 300.0],
            "neumann": [0.0, 2.0, 300.0],
            "boundary_components": 2,
        },
        numerics={"e_max": 10.0, "window_halfwidth": 12.0},
    )
    cfg["profile"]["epsilon"].update(amplitude=0.8, center=0.3, width=3.0)
    assert main(["run", str(_write_cfg(tmp_path, cfg)), "--oracle"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert max(m["window_halfwidth"] for m in report["modes"]) > 12.0
    assert report["oracle"]["max_rel_deviation"] <= 1e-5


def test_dump_potentials(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--dump-potentials"]) == 0
    lines = (tmp_path / "potentials.csv").read_text().splitlines()
    assert len(lines) > 801  # at least one mode sampled on the standard grid


@pytest.mark.parametrize("make_cfg", [_stabilizing_cfg, _periodic_cfg])
def test_empty_budget_dumps_header_only_potentials(tmp_path, make_cfg):
    # every transverse constant lies past the budget cut, so no mode is solved
    section = {"kind": "synthetic", "dirichlet": [500.0, 600.0], "neumann": [0.0, 500.0]}
    cfg = _write_cfg(tmp_path, make_cfg(cross_section=section))
    assert main(["run", str(cfg), "--oracle", "--dump-potentials"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["modes"] == []
    assert (tmp_path / "potentials.csv").read_text() == "flavor,mode_constant,y,value\n"


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


def test_explicit_classification_matches_the_derived_one(tmp_path):
    blobs = []
    for sub, cls in (("derived", None), ("explicit", {"kind": "periodic", "period": 1.0})):
        d = tmp_path / sub
        d.mkdir()
        cfg = _periodic_cfg()
        cfg["profile"]["classification"] = cls
        assert main(["run", str(_write_cfg(d, cfg))]) == 0
        blobs.append((d / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


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
    for task in ("resolvent_analysis", "oracle_check", ["periodic_analysis"]):
        cfg = _write_cfg(tmp_path, _stabilizing_cfg(task=task))
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


def test_uncertified_result_exits_3(tmp_path, capsys, monkeypatch):
    # no step count meets a floor below rounding, so the discriminant
    # cannot be certified: exit 3, and no report
    monkeypatch.setattr(schrodinger, "NOISE_FLOOR", 1e-30)
    assert main(["run", str(_write_cfg(tmp_path, _periodic_cfg()))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "e_max = 40.0" in err
    assert not (tmp_path / "report.json").exists()


def test_missing_csv_input(tmp_path):
    c = _stabilizing_cfg(
        cross_section={"kind": "synthetic", "dirichlet_csv": "ghost.csv", "neumann": [0.0, 2.0, 85.0]}
    )
    cfg = _write_cfg(tmp_path, c)
    assert main(["run", str(cfg)]) == 2


_NEUMANN = [0.0, 2.0, 85.0]


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("numerics", "e_max"), "abc", "'e_max'"),
        (("numerics", "e_max"), None, "'e_max'"),
        (("numerics", "grid"), "fine", "'grid'"),
        (("cross_section", "width"), "wide", "'width'"),
        (("profile", "epsilon", "amplitude"), "big", "'amplitude'"),
        (("numerics", "grid"), 3000.7, "'grid'"),
        (("cross_section", "dirichlet_count"), 40.5, "'dirichlet_count'"),
        (("numerics", "e_max"), True, "'e_max'"),
        (("numerics", "e_max"), "12.5", "'e_max'"),
        (("numerics", "window_halfwidth"), math.inf, "'window_halfwidth'"),
        (("profile", "mu", "value"), True, "'value'"),
        (("numerics", "finite_gap_certificate"), "false", "'finite_gap_certificate'"),
        (("numerics", "finite_gap_certificate"), 1, "'finite_gap_certificate'"),
        (("numerics", "finite_gap_certificate"), None, "'finite_gap_certificate'"),
        (
            ("cross_section",),
            {"kind": "synthetic", "dirichlet": [math.nan, 400.0], "neumann": _NEUMANN},
            "'dirichlet'",
        ),
        (
            ("cross_section",),
            {"kind": "synthetic", "dirichlet_csv": "d.csv", "neumann": _NEUMANN},
            "d.csv:2",
        ),
        (("numerics",), "e_max", "numerics must be a JSON object"),
        (("cross_section",), "kind", "cross_section must be a JSON object"),
        (("profile", "classification"), "kind", "classification must be a JSON object"),
        (
            ("profile", "classification"),
            {"kind": "stabilizing", "eps_limit": 1.25, "mu_limit": 1.0},
            "declared limit 1.25 does not match the family tail 1.0",
        ),
        (("profile", "classification"), {"kind": "spiral"}, "unknown classification kind 'spiral'"),
        (("outputs",), [], "outputs must be a JSON object"),
        (("outputs",), {"report": None}, "'report'"),
        (("outputs",), {"report": ""}, "'report'"),
    ],
    ids=[
        "e_max-text", "e_max-null", "grid", "width", "amplitude", "grid-fraction",
        "count-fraction", "e_max-bool", "e_max-numeric-text", "halfwidth-inf", "value-bool",
        "certificate-text", "certificate-number", "certificate-null",
        "dirichlet-nan", "dirichlet-csv-nan",
        "numerics-text", "cross_section-text", "classification-text",
        "classification-limit", "classification-kind", "outputs-list",
        "output-null", "output-empty",
    ],
)
def test_malformed_number_is_bad_input(tmp_path, capsys, path, value, named):
    c = _stabilizing_cfg(cross_section={"kind": "rectangle", "width": 1.0, "height": 1.0})
    (tmp_path / "d.csv").write_text("5.0\nnan\n400.0\n")
    *parents, key = path
    doc = c
    for name in parents:
        doc = doc[name]
    doc[key] = value
    assert main(["run", str(_write_cfg(tmp_path, c))]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("make_cfg", [_stabilizing_cfg, _periodic_cfg])
def test_profile_bounds_computed_once_per_run(tmp_path, monkeypatch, make_cfg):
    # every module that binds the name, so a call from any of them counts
    calls = []
    bounds = profiles.essential_bounds

    def counted(profile):
        calls.append(profile)
        return bounds(profile)

    for mod in (profiles, assembly, liouville, cli):
        monkeypatch.setattr(mod, "essential_bounds", counted)
    assert main(["run", str(_write_cfg(tmp_path, make_cfg()))]) == 0
    assert len(calls) == 1


def test_bad_jobs_values(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--jobs", "0"]) == 2


def test_unwritable_output_is_bad_input(tmp_path, capsys, monkeypatch):
    # the report path names an existing directory: exit 2 with a message
    # naming that path, and no temporary file left behind
    (tmp_path / "sub").mkdir()
    cfg = _write_cfg(tmp_path, _periodic_cfg(outputs={"report": "sub"}))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "sub") in err and ".tmp" not in err
    assert not list(tmp_path.glob("*.tmp"))

    # the paths are checked before any compute: with --oracle nothing is
    # written, and the analysis driver is never called
    def never(*args, **kwargs):
        raise AssertionError("analysis ran before the outputs were checked")

    monkeypatch.setattr(cli, "run_periodic_analysis", never)
    assert main(["run", str(cfg), "--oracle"]) == 2
    assert str(tmp_path / "sub") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name, "sub"]
    assert not list((tmp_path / "sub").iterdir())


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


def test_cli_import_leaves_out_scipy_special():
    # only disk sections need Bessel zeros
    code = (
        "import sys, cylspec.cli; "
        "assert 'scipy.special' not in sys.modules, 'imported at start-up'"
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
