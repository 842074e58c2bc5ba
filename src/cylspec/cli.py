"""Command-line entry point: run a JSON-configured analysis to disk.

One subcommand:

    cylspec run CONFIG.json [--jobs N] [--oracle] [--dump-potentials]

The config names a cross-section, a coefficient profile, a task, and
numeric knobs, each a finite JSON number (integral where an integer is
meant); artifacts (a JSON report plus CSV tables) land next to the
config unless it gives other paths.  Exit status: 0 on success, 2 for
anything wrong with the inputs or an output that cannot be written, 3
when a numeric routine could not certify its result.

Reports must be byte-identical across reruns of the same config, so
everything goes through a canonical writer: floats at 17 significant
digits (round-trip exact), no timestamps, atomic writes, and the keys
are the field names of the result dataclasses, in field order.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .liouville import build_transform  # noqa: F401
from .profiles import (
    CoefficientProfile,
    Periodic,
    Stabilizing,
    config_number,
    essential_bounds,  # noqa: F401
    family_from_dict,
    make_profile,
)
from .weighted_operator import WeightedOperatorSpec, weighted_eigenvalues

__all__ = ["main"]

_SCHEMA_VERSION = 1
# config "outputs" key -> default file name, beside the config
_OUTPUTS = {
    "report": "report.json",
    "oracle_csv": "oracle.csv",
    "bound_states_csv": "bound_states.csv",
    "band_edges_csv": "band_edges.csv",
    "potentials_csv": "potentials.csv",
}


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
        _write_canonical(_report_fields(obj), out)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _report_fields(obj) -> dict:
    """A dataclass's fields by name, in order; a field with metadata report
    "inline" gives its own fields in its place, one with "omit" none."""
    out = {}
    for f in fields(obj):
        mark = f.metadata.get("report")
        if mark == "inline":
            out.update(_report_fields(getattr(obj, f.name)))
        elif mark != "omit":
            out[f.name] = getattr(obj, f.name)
    return out


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)


def _atomic_write(path: Path, text: str):
    """Write through a temporary file beside path; an OSError from any
    step is raised again naming path, not the temporary file."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_csv(path: Path, header: list[str], rows: list[list]):
    """A string cell is written as it is, any other as the report writes it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else dumps_canonical(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config parsing (fail fast, everything checked before compute starts)
# ---------------------------------------------------------------------------


def _need(cfg: dict, key: str, ctx: str):
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {ctx} must be a JSON object, got {cfg!r}")
    if key not in cfg:
        raise ValidationError(f"config {ctx}: missing required key '{key}'")
    return cfg[key]


def _read(cfg: dict, key: str, ctx: str, kind=float, default=None):
    """cfg[key] as a finite number of kind (float or int), or as a list of
    finite floats for kind list; without a default the key is required."""
    value = _need(cfg, key, ctx) if default is None else cfg.get(key, default)
    where = f"config {ctx}: '{key}'"
    if kind is not list:
        return config_number(value, kind, where)
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list of numbers, got {value!r}")
    return [config_number(x, float, where) for x in value]


def _load_eigenvalue_csv(path: Path) -> list[float]:
    if not path.exists():
        raise ValidationError(f"eigenvalue file not found: {path}")
    values = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        s = line.strip()
        if s:
            try:
                x = float(s)
            except ValueError:
                raise ValidationError(f"{path}:{ln}: not a number: {s!r}") from None
            values.append(config_number(x, float, f"{path}:{ln}"))
    if not values:
        raise ValidationError(f"eigenvalue file is empty: {path}")
    return values


def _parse_cross_section(cfg: dict, base: Path) -> CrossSectionSpectrum:
    kind = _need(cfg, "kind", "cross_section")
    d_count = _read(cfg, "dirichlet_count", "cross_section", int, 40)
    n_count = _read(cfg, "neumann_count", "cross_section", int, 40)
    if kind == "rectangle":
        spec = Rectangle(_read(cfg, "width", "rectangle"), _read(cfg, "height", "rectangle"))
    elif kind == "disk":
        spec = Disk(_read(cfg, "radius", "disk"))
    elif kind == "synthetic":
        dirichlet, neumann = (
            _load_eigenvalue_csv(base / str(cfg[f"{key}_csv"]))
            if f"{key}_csv" in cfg
            else _read(cfg, key, "synthetic", list)
            for key in ("dirichlet", "neumann")
        )
        n_comp = _read(cfg, "boundary_components", "synthetic", int, 1)
        spec = Synthetic(
            dirichlet=tuple(dirichlet), neumann=tuple(neumann), boundary_components=n_comp
        )
        d_count, n_count = len(dirichlet), len(neumann)
    else:
        raise ValidationError(f"unknown cross_section kind {kind!r}")
    return build_spectrum(spec, d_count, n_count)


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


def _parse_config(path: Path) -> tuple[dict, float, float, int, bool]:
    """The config, and its e_max, window halfwidth, grid and certificate flag."""
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
    tasks = tuple(_ANALYSES)
    if task not in tasks:
        raise ValidationError(f"unknown task {task!r}; expected one of {tasks}")
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
    certificate = num.get("finite_gap_certificate", False)
    if not isinstance(certificate, bool):
        raise ValidationError(
            f"config numerics: 'finite_gap_certificate' must be true or false, got {certificate!r}"
        )
    return cfg, e_max, halfwidth, grid, certificate


# ---------------------------------------------------------------------------
# oracle comparison (dual-route agreement as a runtime artifact)
# ---------------------------------------------------------------------------


def _oracle_stabilizing(profile, rep: SpectrumReport) -> tuple[dict, list, list]:
    """Compare the direct weighted discretization against the transform
    route on the lowest few distinct modes; each solves on the halfwidth
    the mode settled on, in its own axial variable."""
    rows = []
    worst = 0.0
    picked = [m for m in rep.modes if m.bound.eigenvalues][:3]
    for m in picked:
        prof = profile if m.group.flavor != "m" else profile.swapped()
        n_eigs = min(5, len(m.bound.eigenvalues))
        spec = WeightedOperatorSpec(prof, m.group.mode_constant, m.bound.window_halfwidth, 8000)
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
    header = [
        "flavor",
        "mode_constant",
        "eigenvalue_index",
        "weighted_route",
        "transform_route",
        "rel_deviation",
    ]
    return summary, header, rows


def _oracle_periodic(profile, rep: SpectrumReport) -> tuple[dict, list, list]:
    """Each mode's discriminant band edges against its plane-wave
    eigenvalue edges, as band_structure measured them; profile is unused."""
    rows = []
    worst = 0.0
    for m in rep.modes:
        dev = m.structure.validation_max_dev
        worst = max(worst, dev)
        rows.append([m.group.flavor, m.group.mode_constant, "edge_max_abs_dev", dev])
    summary = {"kind": "discriminant_vs_eigenvalue_edges", "max_abs_deviation": worst}
    return summary, ["flavor", "mode_constant", "metric", "value"], rows


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _write_bound_states_csv(path: Path, rep: SpectrumReport):
    rows = []
    for p in rep.squared_points:
        rows.append(
            [
                p.group.flavor,
                p.group.mode_constant,
                ";".join(str(i) for i in p.group.indices),
                p.group.multiplicity,
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
    """Each solved potential on one period, or on the config halfwidth."""
    rows = []
    for pot in rep.potentials:  # one per (flavor, mode constant)
        if pot.period_b is not None:
            ys = np.linspace(0.0, pot.period_b, 801)
        else:
            ys = np.linspace(-halfwidth, halfwidth, 801)
        for y, v in zip(ys, pot.values(ys)):
            rows.append([pot.flavor, pot.mode_constant, float(y), float(v)])
    _write_csv(path, ["flavor", "mode_constant", "y", "value"], rows)


# task -> its coefficient class, its table's output key and writer, its oracle
_ANALYSES = {
    "stabilizing_analysis": (
        Stabilizing, "bound_states_csv", _write_bound_states_csv, _oracle_stabilizing
    ),
    "periodic_analysis": (Periodic, "band_edges_csv", _write_band_edges_csv, _oracle_periodic),
}


# ---------------------------------------------------------------------------
# main pipeline
# ---------------------------------------------------------------------------


def _run(config_path: Path, jobs: int | None, with_oracle: bool, dump_potentials: bool) -> int:
    cfg, e_max, halfwidth, grid, certificate = _parse_config(config_path)
    base = config_path.parent
    task = cfg["task"]
    kind, table_key, write_table, oracle = _ANALYSES[task]
    outputs = cfg.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ValidationError(f"config outputs must be a JSON object, got {outputs!r}")
    for key, name in outputs.items():
        if not (isinstance(name, str) and name):
            raise ValidationError(f"config outputs: '{key}' must be a file name, got {name!r}")
    # every path this run writes, checked before any compute
    written = ["report", table_key]
    if with_oracle:
        written.append("oracle_csv")
    if dump_potentials:
        written.append("potentials_csv")
    paths = {key: base / outputs.get(key, _OUTPUTS[key]) for key in written}
    for key, path in paths.items():
        if path.is_dir():
            raise ValidationError(f"config outputs: '{key}' names a directory: {path}")

    spectrum = _parse_cross_section(_need(cfg, "cross_section", "root"), base)
    profile = _parse_profile(_need(cfg, "profile", "root"))
    friedlander_ok = validate_friedlander(spectrum)

    if kind is Periodic:
        rep = run_periodic_analysis(profile, spectrum, e_max, jobs=jobs)
    else:
        rep = run_stabilizing_analysis(
            profile, spectrum, e_max, halfwidth=halfwidth, grid=grid, jobs=jobs
        )

    doc = {"schema_version": _SCHEMA_VERSION, "task": task, **_report_fields(rep)}
    doc["friedlander_validated"] = friedlander_ok
    doc["essential_bounds"] = rep.bounds

    if kind is Periodic and certificate:
        # groups are distinct in (flavor, constant) and sorted by constant
        el = [m.structure for m in rep.modes if m.group.flavor == "el"][:2]
        if len(el) < 2:
            raise ValidationError(
                "finite_gap_certificate needs two distinct electric mode constants in budget"
            )
        doc["finite_gap_certificate"] = finite_gap_certificate(*el)

    if with_oracle:
        doc["oracle"], header, rows = oracle(profile, rep)
        _write_csv(paths["oracle_csv"], header, rows)

    _atomic_write(paths["report"], dumps_canonical(doc) + "\n")
    write_table(paths[table_key], rep)
    if dump_potentials:
        _write_potentials_csv(paths["potentials_csv"], rep, halfwidth)

    print(f"report written: {paths['report']}")
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
        help="parallel mode solves (default: 1)",
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

    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2

    try:
        return _run(args.config, args.jobs, args.oracle, args.dump_potentials)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CylspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
