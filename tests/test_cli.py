"""End-to-end CLI tests on temporary config files.

Reports must be byte-identical across reruns and whatever `--jobs`
says, so several tests compare raw file bytes rather than parsed
content.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import cylspec
from cylspec import assembly, cli, liouville, profiles, schrodinger
from cylspec.cli import dumps_canonical, main
from cylspec.errors import ValidationError
from cylspec.profiles import Constant, CosinePeriodic, GaussianBump, ProfileSum, Sech2Bump

REPO = Path(__file__).resolve().parents[1]


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


def test_custom_output_paths(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        _stabilizing_cfg(outputs={"report": "out/rep.json", "bound_states_csv": "out/pts.csv"}),
    )
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "out" / "rep.json").exists()
    assert (tmp_path / "out" / "pts.csv").exists()


def test_artifacts_get_the_mode_a_plain_open_gives(tmp_path):
    # not the owner-only mode of a temporary file
    old = os.umask(0o022)
    try:
        cfg = _write_cfg(tmp_path, _periodic_cfg())
        assert main(["run", str(cfg)]) == 0
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    plain = (tmp_path / "plain.txt").stat().st_mode
    assert (tmp_path / "report.json").stat().st_mode == plain
    assert (tmp_path / "band_edges.csv").stat().st_mode == plain


def test_rerun_keeps_an_artifacts_mode(tmp_path):
    # as a plain open would: the replace does not reset a chmod
    cfg = _write_cfg(tmp_path, _periodic_cfg())
    assert main(["run", str(cfg)]) == 0
    (tmp_path / "report.json").chmod(0o640)
    assert main(["run", str(cfg)]) == 0
    assert stat.S_IMODE((tmp_path / "report.json").stat().st_mode) == 0o640


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


def test_certificate_needs_two_electric_modes(tmp_path, capsys):
    # only one Dirichlet constant lies in the budget below e_max = 110
    golden = Path(__file__).resolve().parent / "golden" / "periodic_certificate"
    cfg = json.loads((golden / "config.json").read_text())
    cfg["cross_section"]["dirichlet"] = [19.739208802178716, 400.0]
    t0 = time.perf_counter()
    assert main(["run", str(_write_cfg(tmp_path, cfg))]) == 2
    assert time.perf_counter() - t0 < 5.0  # about 0.06 s
    assert "finite_gap_certificate needs two distinct electric mode constants in budget" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "report.json").exists()


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


@pytest.mark.parametrize("key", ["dirichlet_csv", "neumann_csv"])
def test_csv_input_naming_a_directory_is_bad_input(tmp_path, capsys, key):
    (tmp_path / "sub").mkdir()
    (tmp_path / "d.csv").write_text("5.0\n80.0\n")
    (tmp_path / "n.csv").write_text("0.0\n2.0\n85.0\n")
    cross = {"kind": "synthetic", "dirichlet_csv": "d.csv", "neumann_csv": "n.csv", key: "sub"}
    assert main(["run", str(_write_cfg(tmp_path, _stabilizing_cfg(cross_section=cross)))]) == 2
    assert f"config cross_section.{key}: not a file:" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


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
        (("outputs",), [], "outputs must be a JSON object"),
        (("outputs",), {"report": None}, "'report'"),
        (("outputs",), {"report": ""}, "'report'"),
        (("task",), ["stabilizing_analysis"], "'task'"),
        (("cross_section", "kind"), ["rectangle"], "'kind'"),
        (("profile", "epsilon", "family"), ["sech2_bump"], "'family'"),
        (("schema_version",), True, "'schema_version'"),
        (("schema_version",), "1", "'schema_version'"),
        (
            ("cross_section",),
            {"kind": "synthetic", "dirichlet_csv": ["d.csv"], "neumann": _NEUMANN},
            "'dirichlet_csv'",
        ),
        (
            ("cross_section",),
            {"kind": "synthetic", "dirichlet": [5.0, 80.0], "neumann_csv": ""},
            "'neumann_csv'",
        ),
        # a count or grid past the 32-bit index range exits 2 before any allocation
        (("numerics", "grid"), 1e300, "'grid' must be below 2**31"),
        (("cross_section", "dirichlet_count"), 1e300, "'dirichlet_count' must be below 2**31"),
        (("cross_section", "neumann_count"), 2**40, "'neumann_count' must be below 2**31"),
        (
            ("cross_section",),
            {"kind": "synthetic", "dirichlet": [5.0, 80.0], "neumann": _NEUMANN,
             "boundary_components": 1e300},
            "'boundary_components' must be below 2**31",
        ),
    ],
    ids=[
        "e_max-text", "e_max-null", "grid", "width", "amplitude", "grid-fraction",
        "count-fraction", "e_max-bool", "e_max-numeric-text", "halfwidth-inf", "value-bool",
        "certificate-text", "certificate-number", "certificate-null",
        "dirichlet-nan", "dirichlet-csv-nan",
        "numerics-text", "cross_section-text", "outputs-list",
        "output-null", "output-empty", "task-list", "kind-list",
        "family-list", "schema_version-bool", "schema_version-text", "dirichlet_csv-list",
        "neumann_csv-empty", "grid-huge", "dirichlet_count-huge", "neumann_count-huge",
        "boundary_components-huge",
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


def _rectangle_cfg():
    return _stabilizing_cfg(cross_section={"kind": "rectangle", "width": 1.0, "height": 1.0})


def _disk_cfg():
    return _stabilizing_cfg(cross_section={"kind": "disk", "radius": 1.0})


def _named_outputs_cfg():
    return _stabilizing_cfg(outputs={"report": "r.json"})


def _sum_cfg():
    c = _stabilizing_cfg()
    c["profile"]["epsilon"] = {"family": "sum", "terms": [c["profile"]["epsilon"]]}
    return c


@pytest.mark.parametrize(
    "make_cfg, path, value, reader",
    [
        (_stabilizing_cfg, ("numerics",), {"finite_gap_certificate": False}, "stabilizing_analysis"),
        (_periodic_cfg, ("numerics",), {"window_halfwidth": 15.0}, "periodic_analysis"),
        (_periodic_cfg, ("numerics",), {"grid": 2000}, "periodic_analysis"),
        (_periodic_cfg, ("cross_section",), {"dirichlet_count": 3}, "a synthetic section"),
        (_stabilizing_cfg, ("cross_section",), {"neumann_count": 3}, "a synthetic section"),
        (_stabilizing_cfg, ("numerics",), {"gird": 500}, "stabilizing_analysis"),
        (_stabilizing_cfg, (), {"output": {"report": "x.json"}}, "stabilizing_analysis"),
        (_named_outputs_cfg, ("outputs",), {"band_edges_csv": "b.csv"}, "stabilizing_analysis"),
        (_rectangle_cfg, ("cross_section",), {"boundary_components": 2}, "a rectangle section"),
        (_disk_cfg, ("cross_section",), {"dirichlet": [5.0]}, "a disk section"),
        (_stabilizing_cfg, ("profile",), {"sigma": 1.0}, "stabilizing_analysis"),
        (
            _periodic_cfg,
            ("profile",),
            {"classification": {"kind": "periodic", "period": 1.0}},
            "periodic_analysis",
        ),
        (_stabilizing_cfg, ("profile", "mu"), {"amplitude": 0.5}, "a constant family"),
        (_sum_cfg, ("profile", "epsilon"), {"weight": 2.0}, "a sum family"),
    ],
    ids=[
        "certificate", "halfwidth", "grid", "dirichlet_count", "neumann_count", "numerics-typo",
        "root", "outputs", "rectangle", "disk", "profile", "classification", "leaf-family", "sum",
    ],
)
def test_key_the_run_would_drop_is_bad_input(tmp_path, capsys, make_cfg, path, value, reader):
    # a key the run does not read exits 2, naming the key and what does
    # not read it
    c = make_cfg()
    doc = c
    for name in path:
        doc = doc[name]
    doc.update(value)
    assert main(["run", str(_write_cfg(tmp_path, c))]) == 2
    (key,) = value
    assert f"'{key}' is not read by {reader}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


class _Read(Exception):
    """Raised in place of the analysis: the whole config was read."""


def _stop(*args, **kwargs):
    raise _Read


@pytest.fixture
def analysis_stopped(monkeypatch):
    for name in ("run_stabilizing_analysis", "run_periodic_analysis"):
        monkeypatch.setattr(cli, name, _stop)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


def _shipped_configs():
    """Every config the repo ships, with the flags it runs under: the
    goldens, the README's example, and each bench operation (the fault
    reproducer among them) on seeds 0 and 3."""
    for golden in sorted((REPO / "tests" / "golden").iterdir()):
        cfg = json.loads((golden / "config.json").read_text())
        yield pytest.param(cfg, ("--oracle", "--dump-potentials"), id=f"golden-{golden.name}")
    example = re.search(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
    yield pytest.param(json.loads(example), (), id="readme")
    workloads = _load_workloads()
    for name in workloads.NAMES:
        for seed in (0, 3):
            for op in workloads.build(name, seed).ops:
                yield pytest.param(op.config, op.flags, id=f"{name}-{op.name}-seed{seed}")


@pytest.mark.parametrize("config, flags", list(_shipped_configs()))
def test_every_shipped_config_reads_clean(tmp_path, analysis_stopped, config, flags):
    # every key is read and every path passes its check; nothing is solved
    with pytest.raises(_Read):
        main(["run", str(_write_cfg(tmp_path, config)), *flags])


def test_integral_schema_version_reads_as_an_integer(tmp_path, analysis_stopped):
    # as every integer setting does; true and "1" are malformed
    with pytest.raises(_Read):
        main(["run", str(_write_cfg(tmp_path, _stabilizing_cfg(schema_version=1.0)))])


def _family(doc):
    return cli._family(doc, "profile.epsilon")


def test_family_dict_round_trip():
    bump = {"base": 0.5, "amplitude": 0.1, "center": -2.0, "width": 0.7}
    cases = [
        ({"family": "constant", "value": 2.5}, Constant(2.5)),
        ({"family": "gaussian_bump", **bump}, GaussianBump(0.5, 0.1, -2.0, 0.7)),
        ({"family": "sech2_bump", **bump}, Sech2Bump(0.5, 0.1, -2.0, 0.7)),
        (
            {"family": "cosine_periodic", "mean": 1.0, "amplitude": 0.4, "period": 2.0},
            CosinePeriodic(1.0, 0.4, 2.0),
        ),
        (
            {
                "family": "sum",
                "terms": [{"family": "constant", "value": 1.0}, {"family": "gaussian_bump", **bump}],
            },
            ProfileSum((Constant(1.0), GaussianBump(0.5, 0.1, -2.0, 0.7))),
        ),
    ]
    for doc, fam in cases:
        assert _family(doc) == fam


def test_family_reader_rejects_unknown():
    with pytest.raises(ValidationError):
        _family({"family": "lorentzian", "amplitude": 1.0})
    with pytest.raises(ValidationError):
        _family({"value": 1.0})


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


def test_plane_wave_eigensolve_runs_once_on_the_main_thread(tmp_path, monkeypatch):
    # every mode's plane-wave matrices go to LAPACK in one stacked call,
    # not one call per mode
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        calls.append(threading.current_thread() is threading.main_thread())
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    cfg = tmp_path / "config.json"
    golden = Path(__file__).resolve().parent / "golden" / "periodic_certificate"
    shutil.copy(golden / "config.json", cfg)
    assert main(["run", str(cfg), "--jobs", "2"]) == 0
    assert len(json.loads((tmp_path / "report.json").read_text())["modes"]) > 1
    assert calls == [True]


def test_periodic_run_reads_each_potential_once_on_the_period_grid(tmp_path, monkeypatch):
    # the discriminant and plane-wave routes share one read of each
    # potential on the 4096-point period grid
    reads = []
    values = liouville.ModePotential.values

    def counted(self, ys):
        reads.append(np.size(ys))
        return values(self, ys)

    monkeypatch.setattr(liouville.ModePotential, "values", counted)
    golden = Path(__file__).resolve().parent / "golden" / "periodic_certificate"
    shutil.copy(golden / "config.json", tmp_path / "config.json")
    assert main(["run", str(tmp_path / "config.json")]) == 0
    modes = json.loads((tmp_path / "report.json").read_text())["modes"]
    assert len(modes) > 1 and reads.count(4096) == len(modes)


@pytest.mark.parametrize("case", ["disk_bump", "periodic_certificate"])
def test_jobs_starts_no_thread(case, tmp_path, monkeypatch):
    # the modes are solved in turn on the calling thread: `--jobs 2` is
    # accepted, starts no thread and writes the golden report
    def refuse(self):
        raise AssertionError(f"thread started: {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    golden = Path(__file__).resolve().parent / "golden" / case
    shutil.copy(golden / "config.json", tmp_path / "config.json")
    argv = ["run", str(tmp_path / "config.json"), "--oracle", "--dump-potentials", "--jobs", "2"]
    assert main(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == (golden / "report.json").read_bytes()


def test_bad_jobs_values(tmp_path):
    cfg = _write_cfg(tmp_path, _stabilizing_cfg())
    assert main(["run", str(cfg), "--jobs", "0"]) == 2


def _never(*args, **kwargs):
    raise AssertionError("analysis ran before the outputs were checked")


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
    monkeypatch.setattr(cli, "run_periodic_analysis", _never)
    assert main(["run", str(cfg), "--oracle"]) == 2
    assert str(tmp_path / "sub") in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name, "sub"]
    assert not list((tmp_path / "sub").iterdir())


def test_outputs_naming_one_file_are_bad_input(tmp_path, capsys, monkeypatch):
    # the CSV would overwrite the report: exit 2 naming both keys, before
    # the analysis driver runs and before anything is written
    golden = Path(__file__).resolve().parent / "golden" / "zero_branch"
    cfg = json.loads((golden / "config.json").read_text())
    cfg["outputs"] = {"report": "out.txt", "bound_states_csv": "./out.txt"}
    path = _write_cfg(tmp_path, cfg)
    monkeypatch.setattr(cli, "run_stabilizing_analysis", _never)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'bound_states_csv' and 'report' name one file" in err
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "outputs, named",
    [
        ({"report": "config.json"}, "'report' and 'config'"),
        ({"bound_states_csv": "d.csv"}, "'bound_states_csv' and 'cross_section.dirichlet_csv'"),
        ({"potentials_csv": "sub/../n.csv"}, "'potentials_csv' and 'cross_section.neumann_csv'"),
    ],
    ids=["config", "dirichlet_csv", "neumann_csv"],
)
def test_output_naming_an_input_is_bad_input(tmp_path, capsys, monkeypatch, outputs, named):
    # an output may not overwrite the config or an eigenvalue file it reads
    (tmp_path / "sub").mkdir()
    (tmp_path / "d.csv").write_text("5.0\n80.0\n")
    (tmp_path / "n.csv").write_text("0.0\n2.0\n85.0\n")
    cross = {"kind": "synthetic", "dirichlet_csv": "d.csv", "neumann_csv": "n.csv"}
    path = _write_cfg(tmp_path, _stabilizing_cfg(cross_section=cross, outputs=outputs))
    inputs = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    monkeypatch.setattr(cli, "run_stabilizing_analysis", _never)
    assert main(["run", str(path), "--dump-potentials"]) == 2
    assert f"{named} name one file" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == inputs


def _fresh(code: str, **env: str):
    # a new interpreter, with no BLAS thread count but the one given
    src = str(Path(cylspec.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    subprocess.run([sys.executable, "-c", code], check=True, env={**base, **env, "PYTHONPATH": src})


def test_cli_import_leaves_out_scipy_integrate():
    # the traced benchmark still finds schrodinger.solve_ivp, resolved on
    # first access
    code = (
        "import sys, cylspec.cli, cylspec.schrodinger as s; "
        "assert 'scipy.integrate' not in sys.modules, 'imported at start-up'; "
        "assert callable(s.solve_ivp)"
    )
    _fresh(code)


def test_cli_import_leaves_out_scipy_special():
    # only disk sections need Bessel zeros
    code = (
        "import sys, cylspec.cli; "
        "assert 'scipy.special' not in sys.modules, 'imported at start-up'"
    )
    _fresh(code)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("statement", ["import cylspec.cli", "from cylspec import cli"])
def test_cli_import_runs_one_thread(statement):
    # neither OpenBLAS copy (numpy's, scipy's) starts a worker
    _fresh(f"import os; {statement}; n = len(os.listdir('/proc/self/task')); assert n == 1, f'{{n}} threads'")


@pytest.mark.parametrize(
    "var, other", [("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")]
)
def test_cli_import_keeps_a_thread_count_the_caller_set(var, other):
    # either variable set by the caller turns the pin off
    _fresh(
        f"import os, cylspec.cli; assert os.environ[{var!r}] == '2'; assert {other!r} not in os.environ",
        **{var: "2"},
    )


def test_package_import_pins_nothing():
    _fresh(
        "import os, sys, cylspec; "
        "assert 'numpy' not in sys.modules; "
        "assert 'OPENBLAS_NUM_THREADS' not in os.environ"
    )


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
