"""Command-line entry point: run a JSON-configured analysis to disk.

One subcommand:

    cylspec run CONFIG.json [--jobs N] [--oracle] [--dump-potentials]

The config names a cross-section, a coefficient profile, a task, and
numeric knobs; artifacts (a JSON report plus CSV tables) land next to
the config file unless the config gives other paths.  Exit status: 0
on success, 2 for anything wrong with the inputs, 3 when a numeric
routine could not certify its result.

Reports must be byte-identical across reruns of the same config, so
everything is serialized through a canonical writer: floats at 17
significant digits (round-trip exact), fixed key order, no timestamps,
and files are written atomically via a temp file and rename.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .assembly import (
    DEFAULT_GRID,
    DEFAULT_HALFWIDTH,
    SpectrumReport,
    finite_gap_certificate,
    run_periodic_analysis,
    run_stabilizing_analysis,
)
from .cross_section import (
    CrossSectionSpectrum,
    Disk,
    Rectangle,
    Synthetic,
    build_spectrum,
    validate_friedlander,
)
from .errors import CylspecError, NumericalError, ValidationError
# build_transform and essential_bounds are not called here, but the traced
# benchmark (bench/spans.py) wraps them by name on this module
from .liouville import build_potential, build_transform  # noqa: F401
from .profiles import (
    CoefficientProfile,
    Periodic,
    Stabilizing,
    essential_bounds,  # noqa: F401
    family_from_dict,
    make_profile,
)
from .weighted_operator import WeightedOperatorSpec, weighted_eigenvalues

__all__ = ["main"]

_SCHEMA_VERSION = 1
_TASKS = ("stabilizing_analysis", "periodic_analysis", "oracle_check")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats readable and still round-trip exact
        return format(x, ".1f")
    return format(x, ".17g")


def _write_canonical(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _write_canonical(v, out)
        out.append("}")
    elif is_dataclass(obj):
        # an object in field order, keyed by field name
        _write_canonical({f.name: getattr(obj, f.name) for f in fields(obj)}, out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]):
    buf = []
    buf.append(",".join(header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_fmt_float(v))
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            else:
                cells.append(str(v))
        buf.append(",".join(cells))
    _atomic_write(path, "\n".join(buf) + "\n")


# ---------------------------------------------------------------------------
# config parsing (fail fast, everything checked before compute starts)
# ---------------------------------------------------------------------------


def _need(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ValidationError(f"config {ctx}: missing required key '{key}'")
    return cfg[key]


def _read(cfg: dict, key: str, ctx: str, kind=float, default=None):
    """cfg[key] converted by kind; without a default the key is required."""
    value = _need(cfg, key, ctx) if default is None else cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"config {ctx}: bad value for '{key}': {value!r}") from None


def _load_eigenvalue_csv(path: Path) -> list[float]:
    if not path.exists():
        raise ValidationError(f"eigenvalue file not found: {path}")
    values = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        s = line.strip()
        if not s:
            continue
        try:
            values.append(float(s))
        except ValueError:
            raise ValidationError(f"{path}:{ln}: not a number: {s!r}") from None
    if not values:
        raise ValidationError(f"eigenvalue file is empty: {path}")
    return values


def _parse_cross_section(cfg: dict, base: Path) -> CrossSectionSpectrum:
    kind = _need(cfg, "kind", "cross_section")
    d_count = _read(cfg, "dirichlet_count", "cross_section", int, 40)
    n_count = _read(cfg, "neumann_count", "cross_section", int, 40)
    if kind == "rectangle":
        spec = Rectangle(_read(cfg, "width", "rectangle"), _read(cfg, "height", "rectangle"))
        return build_spectrum(spec, d_count, n_count)
    if kind == "disk":
        spec = Disk(_read(cfg, "radius", "disk"))
        return build_spectrum(spec, d_count, n_count)
    if kind == "synthetic":
        dirichlet, neumann = (
            _load_eigenvalue_csv(base / str(cfg[f"{key}_csv"]))
            if f"{key}_csv" in cfg
            else _read(cfg, key, "synthetic", lambda xs: [float(x) for x in xs])
            for key in ("dirichlet", "neumann")
        )
        n_comp = _read(cfg, "boundary_components", "synthetic", int, 1)
        spec = Synthetic(
            dirichlet=tuple(dirichlet), neumann=tuple(neumann), boundary_components=n_comp
        )
        return build_spectrum(spec, len(dirichlet), len(neumann))
    raise ValidationError(f"unknown cross_section kind {kind!r}")


def _parse_profile(cfg: dict) -> CoefficientProfile:
    eps = family_from_dict(_need(cfg, "epsilon", "profile"))
    mu = family_from_dict(_need(cfg, "mu", "profile"))
    cls = None
    if "classification" in cfg and cfg["classification"] is not None:
        c = cfg["classification"]
        ckind = _need(c, "kind", "classification")
        if ckind == "stabilizing":
            cls = Stabilizing(
                eps_limit=_read(c, "eps_limit", "classification"),
                mu_limit=_read(c, "mu_limit", "classification"),
            )
        elif ckind == "periodic":
            cls = Periodic(period=_read(c, "period", "classification"))
        else:
            raise ValidationError(f"unknown classification kind {ckind!r}")
    return make_profile(eps, mu, classification=cls)


def _parse_config(path: Path) -> tuple[dict, float, float, int]:
    """The config, and its e_max, window halfwidth and grid."""
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    ver = _need(cfg, "schema_version", "root")
    if ver != _SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {ver!r}; this build reads {_SCHEMA_VERSION}")
    task = _need(cfg, "task", "root")
    if task not in _TASKS:
        raise ValidationError(f"unknown task {task!r}; expected one of {_TASKS}")
    num = _need(cfg, "numerics", "root")
    e_max = _read(num, "e_max", "numerics")
    if not e_max > 0:
        raise ValidationError("numerics.e_max must be positive")
    halfwidth = _read(num, "window_halfwidth", "numerics", float, DEFAULT_HALFWIDTH)
    if halfwidth <= 0:
        raise ValidationError("numerics.window_halfwidth must be positive")
    grid = _read(num, "grid", "numerics", int, DEFAULT_GRID)
    if grid < 16:
        raise ValidationError("numerics.grid too coarse")
    return cfg, e_max, halfwidth, grid


# ---------------------------------------------------------------------------
# report shaping
# ---------------------------------------------------------------------------


def _stabilizing_mode_dict(r) -> dict:
    return {
        "flavor": r.group.flavor,
        "mode_constant": r.group.mode_constant,
        "indices": r.group.indices,
        "multiplicity": r.group.multiplicity,
        "threshold": r.threshold,
        "lower_bound": r.lower_bound,
        "eigenvalues": r.bound.eigenvalues,
        "refinement_estimates": r.bound.refinement_estimate,
        "window_halfwidth": r.bound.window,
        "grid": r.bound.grid_size,
        "ac_interval": r.ac_interval,
    }


def _periodic_mode_dict(r) -> dict:
    s = r.structure
    return {
        "flavor": r.group.flavor,
        "mode_constant": r.group.mode_constant,
        "indices": r.group.indices,
        "multiplicity": r.group.multiplicity,
        "lower_bound": r.lower_bound,
        "period": s.period_b,
        "mean_potential": s.mean_potential,
        "bands": s.bands,
        "gaps": s.gaps,
        "closed_gap_points": s.closed_gap_points,
        "unresolved_gaps": s.unresolved_gaps,
        "eigenvalue_band_edges": s.eigenvalue_band_edges,
        "validation_max_dev": s.validation_max_dev,
    }


def _report_dict(rep: SpectrumReport, task: str) -> dict:
    mode_dict = _stabilizing_mode_dict if rep.classification == "stabilizing" else _periodic_mode_dict
    return {
        "schema_version": _SCHEMA_VERSION,
        "task": task,
        "classification": rep.classification,
        "e_max": rep.e_max,
        "boundary_components": rep.boundary_components,
        "budget": rep.budget,
        "modes": [mode_dict(m) for m in rep.modes],
        "squared_support": rep.squared_support,
        "squared_points": rep.squared_points,
        "squared_gaps": rep.squared_gaps,
        "central_gap": rep.central_gap,
        "maxwell_support": rep.maxwell_support,
        "maxwell_points": rep.maxwell_points,
    }


# ---------------------------------------------------------------------------
# oracle comparison (dual-route agreement as a runtime artifact)
# ---------------------------------------------------------------------------


def _oracle_stabilizing(profile, rep: SpectrumReport, halfwidth: float) -> tuple[dict, list]:
    """Compare the direct weighted discretization against the transform
    route on the lowest few distinct modes; both see the same halfwidth
    in their own axial variable."""
    rows = []
    worst = 0.0
    picked = [m for m in rep.modes if m.bound.count > 0][:3]
    for m in picked:
        prof = profile if m.group.flavor != "m" else profile.swapped()
        n_eigs = min(5, m.bound.count)
        spec = WeightedOperatorSpec(prof, m.group.mode_constant, halfwidth, 8000)
        wres = weighted_eigenvalues(spec, n_eigs)
        for i in range(n_eigs):
            a = wres.eigenvalues[i]
            bval = m.bound.eigenvalues[i]
            rel = abs(a - bval) / max(abs(bval), 1e-30)
            worst = max(worst, rel)
            rows.append([m.group.flavor, m.group.mode_constant, i + 1, a, bval, rel])
    summary = {
        "kind": "weighted_vs_transform",
        "modes_compared": len(picked),
        "max_rel_deviation": worst,
    }
    return summary, rows


def _oracle_periodic(rep: SpectrumReport) -> tuple[dict, list]:
    rows = []
    worst = 0.0
    for m in rep.modes:
        dev = m.structure.validation_max_dev
        worst = max(worst, dev)
        rows.append([m.group.flavor, m.group.mode_constant, "edge_max_abs_dev", dev])
    summary = {"kind": "discriminant_vs_eigenvalue_edges", "max_abs_deviation": worst}
    return summary, rows


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _write_bound_states_csv(path: Path, rep: SpectrumReport):
    rows = []
    for p in rep.squared_points:
        rows.append(
            [
                p.flavor,
                p.mode_constant,
                ";".join(str(i) for i in p.indices),
                p.multiplicity,
                p.energy,
                math.sqrt(max(p.energy, 0.0)),
                p.refinement_estimate,
                p.embedded,
                p.outside_support,
            ]
        )
    _write_csv(
        path,
        [
            "flavor",
            "mode_constant",
            "indices",
            "multiplicity",
            "energy",
            "maxwell_value",
            "refinement_estimate",
            "embedded",
            "outside_support",
        ],
        rows,
    )


def _write_band_edges_csv(path: Path, rep: SpectrumReport):
    rows = []
    for m in rep.modes:
        s = m.structure
        closed = [(e, e) for e in s.closed_gap_points]
        for kind, spans in (
            ("band", s.bands), ("gap", s.gaps), ("closed_gap_point", closed),
            ("unresolved_gap", s.unresolved_gaps),
        ):
            for i, (lo, hi) in enumerate(spans, start=1):
                rows.append([m.group.flavor, m.group.mode_constant, kind, i, lo, hi])
    _write_csv(
        path,
        ["flavor", "mode_constant", "kind", "index", "lower", "upper"],
        rows,
    )


def _write_potentials_csv(path: Path, rep: SpectrumReport, halfwidth: float):
    data = rep.transform
    if rep.classification == "periodic":
        ys = np.linspace(0.0, data.period_b, 801)
    else:
        ys = np.linspace(-halfwidth, halfwidth, 801)
    rows = []
    for m in rep.modes:  # one per (flavor, mode constant)
        pot = build_potential(
            data,
            m.group.flavor,
            m.group.mode_constant,
            n_boundary=rep.boundary_components,
        )
        vals = pot.on_grid(ys)
        for y, v in zip(ys, vals):
            rows.append([m.group.flavor, m.group.mode_constant, float(y), float(v)])
    _write_csv(path, ["flavor", "mode_constant", "y", "value"], rows)


# ---------------------------------------------------------------------------
# main pipeline
# ---------------------------------------------------------------------------


def _run(config_path: Path, jobs: int | None, with_oracle: bool, dump_potentials: bool) -> int:
    cfg, e_max, halfwidth, grid = _parse_config(config_path)
    base = config_path.parent
    task = cfg["task"]
    num = cfg["numerics"]
    outputs = cfg.get("outputs", {})

    spectrum = _parse_cross_section(_need(cfg, "cross_section", "root"), base)
    profile = _parse_profile(_need(cfg, "profile", "root"))
    friedlander_ok = validate_friedlander(spectrum)

    is_periodic = isinstance(profile.classification, Periodic)
    if task == "stabilizing_analysis" and is_periodic:
        raise ValidationError("task stabilizing_analysis requires stabilizing coefficients")
    if task == "periodic_analysis" and not is_periodic:
        raise ValidationError("task periodic_analysis requires periodic coefficients")

    if is_periodic:
        rep = run_periodic_analysis(profile, spectrum, e_max, jobs=jobs)
    else:
        rep = run_stabilizing_analysis(
            profile, spectrum, e_max, halfwidth=halfwidth, grid=grid, jobs=jobs
        )

    doc = _report_dict(rep, task)
    doc["friedlander_validated"] = friedlander_ok
    doc["essential_bounds"] = rep.bounds

    if is_periodic and bool(num.get("finite_gap_certificate", False)):
        el = sorted({m.group.mode_constant for m in rep.modes if m.group.flavor == "el"})
        if len(el) < 2:
            raise ValidationError(
                "finite_gap_certificate needs two distinct electric mode constants in budget"
            )
        by_c = {m.group.mode_constant: m for m in rep.modes if m.group.flavor == "el"}
        doc["finite_gap_certificate"] = finite_gap_certificate(
            by_c[el[0]].structure, by_c[el[1]].structure, e_max
        )

    run_oracle = with_oracle or task == "oracle_check"
    oracle_rows: list = []
    if run_oracle:
        if rep.classification == "stabilizing":
            summary, oracle_rows = _oracle_stabilizing(profile, rep, halfwidth)
            header = [
                "flavor",
                "mode_constant",
                "eigenvalue_index",
                "weighted_route",
                "transform_route",
                "rel_deviation",
            ]
        else:
            summary, oracle_rows = _oracle_periodic(rep)
            header = ["flavor", "mode_constant", "metric", "value"]
        doc["oracle"] = summary
        oracle_path = base / str(outputs.get("oracle_csv", "oracle.csv"))
        _write_csv(oracle_path, header, oracle_rows)

    report_path = base / str(outputs.get("report", "report.json"))
    _atomic_write(report_path, dumps_canonical(doc) + "\n")

    if rep.classification == "stabilizing":
        _write_bound_states_csv(base / str(outputs.get("bound_states_csv", "bound_states.csv")), rep)
    else:
        _write_band_edges_csv(base / str(outputs.get("band_edges_csv", "band_edges.csv")), rep)

    if dump_potentials:
        _write_potentials_csv(
            base / str(outputs.get("potentials_csv", "potentials.csv")), rep, halfwidth
        )

    print(f"report written: {report_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cylspec",
        description="spectral analysis of axially layered cylindrical media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an analysis described by a JSON config")
    runp.add_argument("config", type=Path)
    runp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel mode solves (default: CYLSPEC_JOBS or 1)",
    )
    runp.add_argument(
        "--oracle",
        action="store_true",
        help="also run the independent-route comparison and write its table",
    )
    runp.add_argument(
        "--dump-potentials",
        action="store_true",
        help="write sampled transformed potentials per mode",
    )
    args = parser.parse_args(argv)

    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("CYLSPEC_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                print(f"error: CYLSPEC_JOBS is not an integer: {env!r}", file=sys.stderr)
                return 2
    if jobs is not None and jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2

    try:
        return _run(args.config, jobs, args.oracle, args.dump_potentials)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CylspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
