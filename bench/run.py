"""Benchmark of `cylspec run`, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is taken from
`src/`.  One operation is one `cylspec run` in a fresh interpreter
(bench/child.py) plus the independent checks of its outputs
(bench/checks.py); it fails on a non-zero exit or a failed check.  A run
repeats whole rounds of its workload's operations until S seconds have
passed and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics: medians over rounds of the
round's summed wall time and CPU after import, of its peak RSS, and the
median set-up (fresh interpreter to `cylspec.cli` imported) over the
run's probes and operations.  --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics (medians over traced rounds)
from spans recorded by bench/spans.py; the difference of the two
medians of summed wall time is the tracing overhead.  --all runs both modes
on every workload plus the checker self-test, prints every metric with
its unit and writes a result file under .bench_work/.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
OP_TIMEOUT_S = 170

# (name, unit, better, bound); the time bounds are wide because the
# speed of a shared 2-core host drifts by tens of percent from one run
# to the next, see bench/README.md
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    ("cross_section.build_spectrum.wall_s", "s", "lower"),
    ("profiles.essential_bounds.calls", "count", "lower"),
    ("profiles.essential_bounds.wall_s", "s", "lower"),
    ("liouville.build_transform.calls", "count", "lower"),
    ("liouville.build_transform.wall_s", "s", "lower"),
    ("liouville.inverse.calls", "count", "lower"),
    ("liouville.inverse.points", "count", "lower"),
    ("liouville.inverse.busy_s", "s", "lower"),
    ("liouville.inverse.wait_s", "s", "lower"),
    ("liouville.values.calls", "count", "lower"),
    ("liouville.values.points", "count", "lower"),
    ("liouville.values.self_s", "s", "lower"),
    ("schrodinger.bound_states.calls", "count", "lower"),
    ("schrodinger.bound_states.self_s", "s", "lower"),
    ("schrodinger.count_below.calls", "count", "lower"),
    ("schrodinger.count_below.self_s", "s", "lower"),
    ("schrodinger.eigh_tridiagonal.calls", "count", "lower"),
    ("schrodinger.eigh_tridiagonal.rows", "count", "lower"),
    ("schrodinger.eigh_tridiagonal.busy_s", "s", "lower"),
    ("schrodinger.band_structure.calls", "count", "lower"),
    ("schrodinger.band_structure.self_s", "s", "lower"),
    ("schrodinger.discriminant.calls", "count", "lower"),
    ("schrodinger.discriminant.energies", "count", "lower"),
    ("schrodinger.discriminant.single_calls", "count", "lower"),
    ("schrodinger.discriminant.busy_s", "s", "lower"),
    ("schrodinger.discriminant.wait_s", "s", "lower"),
    ("schrodinger.solve_ivp.calls", "count", "lower"),
    ("schrodinger.solve_ivp.busy_s", "s", "lower"),
    ("weighted_operator.weighted_eigenvalues.calls", "count", "lower"),
    ("weighted_operator.weighted_eigenvalues.wall_s", "s", "lower"),
    ("assembly.run_analysis.wall_s", "s", "lower"),
    ("assembly.mode_groups", "count", "lower"),
    ("assembly.mode_solve.cpu_s", "s", "lower"),
    ("assembly.pool_efficiency", "ratio", "higher"),
    ("assembly.finite_gap_certificate.wall_s", "s", "lower"),
    ("cli.dumps_canonical.wall_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.other_s", "s", "lower"),
    ("schrodinger.refinement_estimate_max", "energy", "lower"),
    ("schrodinger.band_edge_dev_max", "energy", "lower"),
    ("weighted_operator.oracle_rel_dev", "ratio", "lower"),
    ("assembly.certificate_slack", "energy", "higher"),
)

# per-layer metric suffix -> field of a span summary (bench/spans.py)
_SPAN_FIELDS = {
    "calls": "calls",
    "wall_s": "wall_s",
    "self_s": "self_s",
    "busy_s": "cpu_s",
    "points": "items",
    "energies": "items",
    "rows": "items",
    "single_calls": "single_calls",
}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CYLSPEC_JOBS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(out: Path, trace: bool, args: list[str]) -> tuple[dict | None, str, float]:
    """Run child.py; returns (its record or None, stderr, spawn time)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(out), "1" if trace else "0", *args]
    out.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        err = proc.stderr.strip()
    except subprocess.TimeoutExpired:
        err = f"timed out after {OP_TIMEOUT_S} s"
    rec = json.loads(out.read_text()) if out.exists() else None
    return rec, err, t_spawn


class Run:
    """State of one benchmark run on one workload."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []  # distinct failure messages
        self.digests: dict[str, str] = {}  # op name -> sha256 of report.json

    def _note(self, msg: str):
        if msg not in self.notes:
            self.notes.append(msg)

    def probe_setup(self):
        for i in range(SETUP_PROBES):
            rec, err, t_spawn = _spawn(self.dir / f"probe{i}.json", False, [])
            if rec is None:
                raise RuntimeError(f"set-up probe failed: {err}")
            self.setups.append(rec["ready"] - t_spawn)

    def operation(self, op: workloads.Operation, trace: bool) -> dict | None:
        """Run and check one operation.

        Returns the child's record, with "ok" set and the parsed report
        attached when it passed; None when the child left no record.
        """
        opdir = self.dir / op.name
        opdir.mkdir(exist_ok=True)
        (opdir / "report.json").unlink(missing_ok=True)
        cfg_path = opdir / "config.json"
        cfg_path.write_text(json.dumps(op.config, indent=1))
        rec, err, t_spawn = _spawn(opdir / "measure.json", trace, ["run", str(cfg_path), *op.flags])
        self.attempted += 1
        tag = f"{self.workload.name}/{op.name}"
        if rec is None:
            self.failed += 1
            self._note(f"{tag}: no record: {err.splitlines()[-1] if err else ''}")
            return None
        self.setups.append(rec["ready"] - t_spawn)
        rec.update(ok=False, jobs=op.jobs)
        if rec["rc"] != 0:
            self.failed += 1
            self._note(f"{tag}: exit {rec['rc']}: {err.splitlines()[-1] if err else ''}")
            return rec
        raw = (opdir / "report.json").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        try:
            if self.digests.setdefault(op.name, digest) != digest:
                raise checks.CheckError("report.json differs from an earlier run of the same config")
            report = json.loads(raw)
            checks.check_report(op.kind, op.config, report)
        except (checks.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
            # a report missing a field or of the wrong shape fails its checks too
            self.failed += 1
            self.correct = False
            self._note(f"{tag}: check failed: {exc}")
            return rec
        rec.update(ok=True, report=report, report_bytes=len(raw))
        return rec

    def round(self, trace: bool) -> list[dict | None]:
        return [self.operation(op, trace) for op in self.workload.ops]


def _end_to_end(rounds: list[list[dict | None]], setups: list[float]) -> dict:
    def per_round(fn):
        vals = [fn([r for r in recs if r]) for recs in rounds if any(recs)]
        return statistics.median(vals) if vals else math.nan

    return {
        "run_s": per_round(lambda rs: sum(r["run_s"] for r in rs)),
        "cpu_s": per_round(lambda rs: sum(r["cpu_s"] for r in rs)),
        "peak_rss_mb": per_round(lambda rs: max(r["peak_rss_mb"] for r in rs)),
        "setup_s": statistics.median(setups),
    }


def _layers(recs: list[dict]) -> dict:
    """Per-layer metrics of one traced round."""
    spans: dict[str, dict] = {}
    for r in recs:
        for name, s in r["layers"].items():
            acc = spans.setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                acc[k] += v
    out = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in spans and field in _SPAN_FIELDS:
            out[name] = spans[span][_SPAN_FIELDS[field]]
        elif field == "wait_s":
            s = spans.get(span, {"wall_s": 0.0, "cpu_s": 0.0})
            out[name] = s["wall_s"] - s["cpu_s"]
        else:
            out[name] = 0
    reports = [r["report"] for r in recs if r["ok"]]
    modes = [m for rep in reports for m in rep["modes"]]
    solve_cpu = sum(spans.get(n, {}).get("cpu_s", 0.0) for n in ("schrodinger.bound_states",
                                                                  "schrodinger.band_structure"))
    analysis = [r["layers"].get("assembly.run_analysis", {}).get("wall_s", 0.0) for r in recs]
    capacity = sum(r["jobs"] * a for r, a in zip(recs, analysis))
    certs = [rep["finite_gap_certificate"] for rep in reports if "finite_gap_certificate" in rep]
    out.update({
        "assembly.mode_groups": len(modes),
        "assembly.mode_solve.cpu_s": solve_cpu,
        "assembly.pool_efficiency": solve_cpu / capacity if capacity else 0.0,
        "cli.report_bytes": sum(r["report_bytes"] for r in recs if r["ok"]),
        "cli.other_s": sum(r["run_s"] for r in recs) - sum(analysis),
        "schrodinger.refinement_estimate_max": max(
            (x for m in modes for x in m.get("refinement_estimates", ())), default=0.0),
        "schrodinger.band_edge_dev_max": max((m.get("validation_max_dev", 0.0) for m in modes), default=0.0),
        "weighted_operator.oracle_rel_dev": max(
            (rep["oracle"].get("max_rel_deviation", 0.0) for rep in reports if "oracle" in rep), default=0.0),
        "assembly.certificate_slack": min((c["delta"] - c["max_edge_deviation"] for c in certs), default=0.0),
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    run = Run(workloads.build(name, seed))
    run.probe_setup()
    start = time.monotonic()
    untraced: list[list] = []
    traced: list[list] = []
    while True:
        untraced.append(run.round(False))
        if trace:
            traced.append(run.round(True))
        if time.monotonic() - start >= seconds:
            break
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(untraced) + len(traced),
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "notes": run.notes,
        "end_to_end": _end_to_end(untraced, run.setups),
    }
    if trace:
        full = [[r for r in recs if r] for recs in traced]
        per_round = [_layers(recs) for recs in full if recs]
        result["per_layer"] = {k: statistics.median(p[k] for p in per_round) for k, _, _ in PER_LAYER} if per_round else {}
        traced_run = statistics.median(sum(r["run_s"] for r in recs) for recs in full) if full else math.nan
        result["trace_overhead_s"] = traced_run - result["end_to_end"]["run_s"]
    return result


def _metric_lines(result: dict) -> list[str]:
    lines = [f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"{result['rounds']} rounds, {result['attempted']} operations, {result['failed']} failed"]
    lines += [f"# {n}" for n in result["notes"]]
    for name, unit, _, _ in END_TO_END:
        lines.append(f"{result['workload']} {name} {result['end_to_end'][name]:.6g} {unit}")
    if result["trace"]:
        for name, unit, _ in PER_LAYER:
            lines.append(f"{result['workload']} {name} {result['per_layer'].get(name, math.nan):.6g} {unit}")
        lines.append(f"{result['workload']} trace_overhead_s {result['trace_overhead_s']:.6g} s")
    return lines


def _summary(result: dict) -> dict:
    if result["trace"]:
        table = [(n, u, result["per_layer"][n]) for n, u, _ in PER_LAYER]
    else:
        table = [(n, u, result["end_to_end"][n]) for n, u, _, _ in END_TO_END]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, u, v in table},
    }


# ---------------------------------------------------------------------------
# checker self-test
# ---------------------------------------------------------------------------

_SELF_TEST_CONFIGS = {
    "stabilizing": {
        "schema_version": 1,
        "task": "stabilizing_analysis",
        "cross_section": {"kind": "rectangle", "width": 1.0, "height": 1.0,
                          "dirichlet_count": 40, "neumann_count": 40},
        "profile": {"epsilon": {"family": "sech2_bump", "base": 1.0, "amplitude": 0.5,
                                "center": 0.0, "width": 1.0},
                    "mu": {"family": "constant", "value": 1.0}},
        "numerics": {"e_max": 30.0},
    },
    "periodic": {
        "schema_version": 1,
        "task": "periodic_analysis",
        "cross_section": {"kind": "synthetic", "dirichlet": [2.0 * workloads.PI2, 5000.0],
                          "neumann": [0.0, 5000.0]},
        "profile": {"epsilon": {"family": "cosine_periodic", "mean": 1.0, "amplitude": 0.3, "period": 1.0},
                    "mu": {"family": "constant", "value": 1.0}},
        "numerics": {"e_max": 120.0},
    },
}


def _shift_band_edge(rep):
    rep["modes"][0]["bands"][0][0] += 1e-4


def _drop_bound_state(rep):
    # remove the lowest electric state everywhere it appears, so that the
    # report stays self-consistent and only the independent route sees it
    mode = min((m for m in rep["modes"] if m["flavor"] == "el" and m["eigenvalues"]),
               key=lambda m: m["mode_constant"])
    e = mode["eigenvalues"].pop(0)
    mode["refinement_estimates"].pop(0)
    rep["squared_points"] = [p for p in rep["squared_points"] if p["energy"] != e]
    r = math.sqrt(e)
    rep["maxwell_points"] = [x for x in rep["maxwell_points"] if abs(x) != r]


def _flip_embedded(rep):
    rep["squared_points"][-1]["embedded"] ^= True


def _nudge_maxwell_point(rep):
    rep["maxwell_points"][-1] = math.nextafter(rep["maxwell_points"][-1], math.inf)


MUTATIONS = (
    ("band edge shifted by 1e-4", "periodic", _shift_band_edge),
    ("bound state dropped", "stabilizing", _drop_bound_state),
    ("embedded flag flipped", "stabilizing", _flip_embedded),
    ("maxwell point nudged by one ulp", "stabilizing", _nudge_maxwell_point),
)


def _check_benchmark_json() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END]
    want_layers = [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    want_workloads = [{"name": n, "why": workloads.WHY[n]} for n in workloads.GATED]
    for key, want in (("end_to_end", want_e2e), ("per_layer", want_layers), ("workloads", want_workloads)):
        if doc.get(key) != want:
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")
    return problems


def self_test() -> int:
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    wdir = WORK / "self-test"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    problems = _check_benchmark_json()
    reports = {}
    for kind, cfg in _SELF_TEST_CONFIGS.items():
        cfg_path = wdir / kind / "config.json"
        cfg_path.parent.mkdir()
        cfg_path.write_text(json.dumps(cfg))
        rec, err, _ = _spawn(wdir / kind / "measure.json", False, ["run", str(cfg_path)])
        if rec is None or rec["rc"] != 0:
            print(f"self-test: {kind} run failed: {err}")
            return 1
        reports[kind] = json.loads((cfg_path.parent / "report.json").read_text())
        try:
            checks.check_report(kind, cfg, reports[kind])
            print(f"self-test: unmutated {kind} report passes")
        except checks.CheckError as exc:
            problems.append(f"unmutated {kind} report rejected: {exc}")
    for label, kind, mutate in MUTATIONS:
        rep = copy.deepcopy(reports[kind])
        mutate(rep)
        try:
            checks.check_report(kind, _SELF_TEST_CONFIGS[kind], rep)
            problems.append(f"mutation not caught: {label}")
        except checks.CheckError as exc:
            print(f"self-test: caught {label}: {exc}")
    for p in problems:
        print(f"self-test: FAIL {p}")
    print(f"self-test: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _environment() -> dict:
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_all(seed: int, seconds: float) -> int:
    results = []
    for name in workloads.NAMES:
        for trace in (False, True):
            res = run_workload(name, seed, seconds, trace)
            print("\n".join(_metric_lines(res)), flush=True)
            results.append(res)
    status = self_test()
    doc = {"environment": _environment(), "seed": seed, "seconds": seconds, "results": results}
    out = WORK / f"results-seed{seed}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"# results written to {out.relative_to(ROOT)}")
    ok = status == 0 and all(r["correct"] for r in results)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, both modes, and the self-test")
    ap.add_argument("--self-test", action="store_true", help="check that the checkers catch mutations")
    args = ap.parse_args()
    if not (ROOT / "src" / "cylspec" / "cli.py").is_file():
        print(f"error: no cylspec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("give --workload, --all or --self-test")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(_metric_lines(result)))
    print(json.dumps(_summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
