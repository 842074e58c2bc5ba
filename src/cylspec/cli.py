"""Command-line entry point: run a JSON-configured analysis to disk.

One subcommand:

    cylspec run CONFIG.json [--jobs N] [--oracle] [--dump-potentials]

The config names a cross-section, a coefficient profile, a task, and
numeric knobs (finite JSON numbers, integral where an integer is meant);
artifacts (a JSON report plus CSV tables) land beside it unless it names
other paths.  Exit status: 0 on success, 2 for anything wrong with the
inputs, a key the run does not read included, or an output that cannot
be written, 3 when a numeric routine could not certify its result.

Modes are solved in turn on the calling thread; `--jobs N` (N >= 1) is
still accepted so that existing command lines run, and changes nothing.
Importing this module pins BLAS to one thread (OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS default to 1) unless the caller already set either.

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

# every matrix a run factors is small: one BLAS thread, unless the caller chose
if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
import stat
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
    build_spectrum,
    validate_friedlander,
)
from .errors import CylspecError, NumericalError, ValidationError
# build_transform and essential_bounds are not called here, but the traced
# benchmark (bench/spans.py) wraps them by name on this module
from .liouville import build_transform  # noqa: F401
from .profiles import (
    CoefficientProfile,
    Constant,
    CosinePeriodic,
    GaussianBump,
    Periodic,
    ProfileSum,
    Sech2Bump,
    Stabilizing,
    essential_bounds,  # noqa: F401
    make_profile,
)
from .schrodinger import MIN_GRID
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
    """Write through a temporary file beside path, with the mode a plain
    open gives: an existing file keeps its mode, a new one gets the umask's;
    an OSError from any step is raised again naming path, not the temporary
    file."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        # mkstemp made the file 0600
        try:
            mode = stat.S_IMODE(path.stat().st_mode)
        except FileNotFoundError:
            umask = os.umask(0o077)  # read the umask by setting a strict one
            os.umask(umask)
            mode = 0o666 & ~umask
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
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
# config parsing: every key is read, and checked, before the analysis starts
# ---------------------------------------------------------------------------

# config tag -> what it builds, a leaf from its dataclass fields (see _fields)
_SECTIONS = {"rectangle": Rectangle, "disk": Disk, "synthetic": CrossSectionSpectrum}
_FAMILIES = {
    "constant": Constant, "gaussian_bump": GaussianBump, "sech2_bump": Sech2Bump,
    "cosine_periodic": CosinePeriodic, "sum": ProfileSum,
}


def _object(value, ctx: str) -> dict:
    """A copy of a config object, from which its reader takes each key it reads."""
    if not isinstance(value, dict):
        raise ValidationError(f"config {ctx} must be a JSON object, got {value!r}")
    return dict(value)


def _done(cfg: dict, ctx: str, reader: str):
    if cfg:
        raise ValidationError(f"config {ctx}: '{next(iter(cfg))}' is not read by {reader}")


def _need(cfg: dict, key: str, ctx: str):
    if key not in cfg:
        raise ValidationError(f"config {ctx}: missing required key '{key}'")
    return cfg.pop(key)


def _number(value, kind, where: str):
    """value as kind (float or int): a finite JSON number, integral for int
    and then inside the 32-bit index range LAPACK uses."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
        ok = ok and (kind is float or value == int(value))
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{where} must be a finite {kind.__name__}, got {value!r}")
    if kind is int and abs(value) >= 2**31:
        raise ValidationError(f"{where} must be below 2**31 in magnitude, got {value!r}")
    return kind(value)


def _read(cfg: dict, key: str, ctx: str, kind=float, default=None):
    """cfg[key] as kind: a finite number for float or int, true or false for
    bool, a non-empty string for str, a list of finite floats for list;
    without a default the key is required."""
    value = _need(cfg, key, ctx) if default is None else cfg.pop(key, default)
    where = f"config {ctx}: '{key}'"
    if kind is bool and not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false, got {value!r}")
    if kind is str and not (isinstance(value, str) and value):
        raise ValidationError(f"{where} must be a non-empty string, got {value!r}")
    if kind in (bool, str):
        return value
    if kind is not list:
        return _number(value, kind, where)
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(x, float, where) for x in value]


def _tag(cfg: dict, key: str, ctx: str, table: dict) -> str:
    tag = _read(cfg, key, ctx, str)
    if tag not in table:
        raise ValidationError(f"unknown {ctx} {key} {tag!r}; expected one of {tuple(table)}")
    return tag


def _fields(cls, cfg: dict, ctx: str, reader: str):
    """cls built from cfg, one float per dataclass field; no other key may be left."""
    kwargs = {f.name: _read(cfg, f.name, ctx) for f in fields(cls)}
    _done(cfg, ctx, reader)
    return cls(**kwargs)


def _load_eigenvalue_csv(path: Path, key: str) -> list[float]:
    if not path.is_file():
        raise ValidationError(f"config {key}: not a file: {path}")
    values = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        s = line.strip()
        if s:
            try:
                x = float(s)
            except ValueError:
                raise ValidationError(f"{path}:{ln}: not a number: {s!r}") from None
            values.append(_number(x, float, f"{path}:{ln}"))
    if not values:
        raise ValidationError(f"eigenvalue file is empty: {path}")
    return values


def _parse_cross_section(value, base: Path, inputs: dict) -> CrossSectionSpectrum:
    """The section's levels; each eigenvalue file it reads goes into inputs,
    its resolved path mapped to its config key."""
    cfg = _object(value, "cross_section")
    kind = _tag(cfg, "kind", "cross_section", _SECTIONS)
    if kind != "synthetic":
        d_count = _read(cfg, "dirichlet_count", "cross_section", int, 40)
        n_count = _read(cfg, "neumann_count", "cross_section", int, 40)
        spec = _fields(_SECTIONS[kind], cfg, "cross_section", f"a {kind} section")
        return build_spectrum(spec, d_count, n_count)
    lists = []
    for key in ("dirichlet", "neumann"):
        if f"{key}_csv" in cfg:
            path = base / _read(cfg, f"{key}_csv", "cross_section", str)
            inputs[path.resolve()] = ctx = f"cross_section.{key}_csv"
            lists.append(_load_eigenvalue_csv(path, ctx))
        else:
            lists.append(_read(cfg, key, "cross_section", list))
    n_comp = _read(cfg, "boundary_components", "cross_section", int, 1)
    _done(cfg, "cross_section", "a synthetic section")
    return CrossSectionSpectrum(*lists, n_comp)


def _family(value, ctx: str):
    """A coefficient family; each term of a sum is a family object itself."""
    cfg = _object(value, ctx)
    tag = _tag(cfg, "family", ctx, _FAMILIES)
    if tag != "sum":
        return _fields(_FAMILIES[tag], cfg, ctx, f"a {tag} family")
    terms = _need(cfg, "terms", ctx)
    if not (isinstance(terms, list) and terms):
        raise ValidationError(f"config {ctx}: 'terms' must be a non-empty list, got {terms!r}")
    _done(cfg, ctx, "a sum family")
    return ProfileSum([_family(t, f"{ctx}.terms[{i}]") for i, t in enumerate(terms)])


def _parse_profile(value, task: str) -> CoefficientProfile:
    cfg = _object(value, "profile")
    eps = _family(_need(cfg, "epsilon", "profile"), "profile.epsilon")
    mu = _family(_need(cfg, "mu", "profile"), "profile.mu")
    _done(cfg, "profile", task)
    return make_profile(eps, mu)


def _parse_config(path: Path) -> tuple[dict, str, float, float, int, bool]:
    """The config root with what is read here taken out, its task, and the
    task's numerics: e_max, window halfwidth, grid and certificate flag."""
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    cfg = _object(doc, "root")
    ver = _read(cfg, "schema_version", "root", int)
    if ver != _SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {ver!r}; this build reads {_SCHEMA_VERSION}")
    task = _tag(cfg, "task", "root", _ANALYSES)
    num = _object(_need(cfg, "numerics", "root"), "numerics")
    e_max = _read(num, "e_max", "numerics")
    if not e_max > 0:
        raise ValidationError("numerics.e_max must be positive")
    halfwidth, grid, certificate = DEFAULT_HALFWIDTH, DEFAULT_GRID, False
    if task == "periodic_analysis":
        certificate = _read(num, "finite_gap_certificate", "numerics", bool, False)
    else:
        halfwidth = _read(num, "window_halfwidth", "numerics", float, DEFAULT_HALFWIDTH)
        if halfwidth <= 0:
            raise ValidationError("numerics.window_halfwidth must be positive")
        grid = _read(num, "grid", "numerics", int, DEFAULT_GRID)
        if grid < MIN_GRID:
            raise ValidationError("numerics.grid too coarse")
    _done(num, "numerics", task)
    return cfg, task, e_max, halfwidth, grid, certificate


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


def _run(config_path: Path, with_oracle: bool, dump_potentials: bool) -> int:
    cfg, task, e_max, halfwidth, grid, certificate = _parse_config(config_path)
    base = config_path.parent
    kind, table_key, write_table, oracle = _ANALYSES[task]
    inputs = {config_path.resolve(): "config"}
    spectrum = _parse_cross_section(_need(cfg, "cross_section", "root"), base, inputs)
    profile = _parse_profile(_need(cfg, "profile", "root"), task)
    # a task reads its four output names whatever the flags say
    outputs = _object(cfg.pop("outputs", {}), "outputs")
    optional = {"oracle_csv": with_oracle, "potentials_csv": dump_potentials}
    wanted = {"report": True, table_key: True, **optional}
    paths = {key: base / _read(outputs, key, "outputs", str, _OUTPUTS[key]) for key in wanted}
    _done(outputs, "outputs", task)
    _done(cfg, "root", task)
    # every path this run writes, checked before the analysis: none may be
    # a directory, the file of another output, or a file the run reads
    for key, path in paths.items():
        if not wanted[key]:
            continue
        if path.is_dir():
            raise ValidationError(f"config outputs: '{key}' names a directory: {path}")
        other = inputs.setdefault(path.resolve(), key)
        if other != key:
            raise ValidationError(f"config outputs: '{key}' and '{other}' name one file: {path}")

    friedlander_ok = validate_friedlander(spectrum)

    if kind is Periodic:
        rep = run_periodic_analysis(profile, spectrum, e_max)
    else:
        rep = run_stabilizing_analysis(profile, spectrum, e_max, halfwidth=halfwidth, grid=grid)

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
        help="accepted so that existing command lines run; has no effect",
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
        return _run(args.config, args.oracle, args.dump_potentials)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CylspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
