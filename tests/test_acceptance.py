"""Acceptance suite: the eight headline checks, one test each.

Run `pytest tests/test_acceptance.py -v` to get a single pass/fail line
per check.  Each test prints its measured figures, visible with -s
or in the captured output on failure.  Everything here runs at desk
scale; the slowest entries are the twenty-band edge sweep and the
finite-gap certificate, each under a minute.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from cylspec.assembly import finite_gap_certificate, run_periodic_analysis, run_stabilizing_analysis
from cylspec.cross_section import Rectangle, build_spectrum
from cylspec.errors import InvalidWitnessError
from cylspec.liouville import build_potential, build_transform
from cylspec.profiles import Constant, CosinePeriodic, Sech2Bump, essential_bounds, make_profile
from cylspec.schrodinger import (
    band_structure,
    bound_states,
    search_witness,
    variational_upper_bound,
)
from cylspec.weighted_operator import WeightedOperatorSpec, weighted_eigenvalues

PI2 = math.pi * math.pi
LAMBDA_1 = 2.0 * PI2  # unit square, lowest Dirichlet
LAMBDA_2 = 5.0 * PI2  # next Dirichlet value (doubly degenerate)


def _bump_profile():
    # eps rises to 1.5 at the origin and settles back to 1
    return make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))


def _dip_profile():
    # eps*mu <= 1 everywhere: nothing may bind
    return make_profile(Sech2Bump(1.0, -0.3, 0.0, 1.0), Constant(1.0))


def _cosine_profile():
    return make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(1.0))


def _flat_profile():
    return make_profile(Constant(1.0), Constant(1.0))


@pytest.fixture(scope="module")
def square_small():
    return build_spectrum(Rectangle(1.0, 1.0), 60, 60)


@pytest.fixture(scope="module")
def square_large():
    return build_spectrum(Rectangle(1.0, 1.0), 220, 220)


@pytest.fixture(scope="module")
def excess_report(square_large):
    """Full stabilizing analysis of the rising-bump profile, shared by
    the embedded-eigenvalue and symmetry criteria."""
    return run_stabilizing_analysis(
        _bump_profile(), square_large, 60.0 * LAMBDA_1, halfwidth=15.0, grid=3000
    )


def test_01_dual_route_agreement():
    """Lowest 5 eigenvalues: direct weighted solve vs transform route."""
    t0 = time.perf_counter()
    prof = _bump_profile()
    data = build_transform(prof, essential_bounds(prof), window=(-15.0, 15.0))
    y_hi = data.forward(15.0)
    worst = 0.0
    for lam in (LAMBDA_1, LAMBDA_2):
        direct = weighted_eigenvalues(WeightedOperatorSpec(prof, lam, 15.0, 8000), 5)
        pot = build_potential(data, "el", lam)
        ys = np.linspace(-y_hi, y_hi, 8001)[1:-1]
        h = 2.0 * y_hi / 8000
        vals = np.asarray(pot.values(ys))
        evals = eigh_tridiagonal(
            2.0 / (h * h) + vals,
            np.full(len(ys) - 1, -1.0 / (h * h)),
            select="i",
            select_range=(0, 4),
            eigvals_only=True,
        )
        for a, b in zip(direct, evals):
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            assert rel <= 1e-3
    dt = time.perf_counter() - t0
    print(f"PASS dual-route agreement: max rel deviation {worst:.3e} (<= 1e-3), {dt:.1f}s")


def test_02_central_gap(square_small, excess_report):
    """No first-order spectrum inside +-sqrt(kappa_2 / sup eps mu)."""
    flat = run_stabilizing_analysis(_flat_profile(), square_small, 30.0)
    lo, hi = flat.central_gap
    assert hi == pytest.approx(math.pi, abs=1e-6)
    assert lo == pytest.approx(-math.pi, abs=1e-6)

    # a genuinely variable profile keeps the guaranteed (smaller) gap
    guard = math.sqrt(PI2 / 1.5)
    for a, b in excess_report.maxwell_support:
        assert b <= -guard + 1e-9 or a >= guard - 1e-9
    for p in excess_report.maxwell_points:
        assert abs(p) >= guard - 1e-9
    print(f"PASS central gap: flat profile gap (-pi, pi) to 1e-6; "
          f"bump profile clear of (+-{guard:.4f})")


def test_03_no_binding_when_product_stays_below_limit(square_small):
    """eps mu <= limit everywhere: every budgeted mode binds nothing."""
    report = run_stabilizing_analysis(_dip_profile(), square_small, 10.0 * LAMBDA_1)
    assert len(report.modes) >= 15
    for m in report.modes:
        assert not m.bound.eigenvalues, (
            f"mode {m.group.flavor}/{m.group.mode_constant:.4f} "
            f"unexpectedly bound {len(m.bound.eigenvalues)} state(s)"
        )
    assert report.squared_points == ()
    print(f"PASS no-binding dip profile: 0 bound states across "
          f"{len(report.modes)} mode groups up to e_max = {report.e_max:.1f}")


def test_04_embedded_eigenvalues_above_variational_cutoff(excess_report):
    """Every electric mode above the witness cutoff binds, embedded."""
    prof = _bump_profile()
    data = build_transform(prof, essential_bounds(prof), window=(-20.0, 20.0))
    w = search_witness(data)
    probe = build_potential(data, "el", 1.0)
    vb = variational_upper_bound(probe, w.delta1, w.delta2, w.y0)
    lam_star = vb.lambda_threshold
    assert math.isfinite(lam_star) and lam_star > 0

    el = [m for m in excess_report.modes if m.group.flavor == "el"]
    above = sorted(
        {m.group.mode_constant for m in el if m.group.mode_constant > lam_star}
    )
    assert len(above) >= 3
    points = {
        (p.group.flavor, p.group.mode_constant, p.energy): p for p in excess_report.squared_points
    }
    for m in el:
        lam = m.group.mode_constant
        if lam <= lam_star:
            continue
        assert m.bound.eigenvalues, f"mode el/{lam:.4f} above cutoff but empty"
        for e in m.bound.eigenvalues:
            assert e < m.threshold
            if e > excess_report.e_max:
                continue  # outside the analyzed window, not in the report
            pt = points[("el", lam, e)]
            assert pt.embedded, f"eigenvalue {e:.6f} of el/{lam:.4f} not embedded"

    # Richardson-extrapolated values are stable to 1e-6: compare the
    # (n, 2n) and (2n, 4n) extrapolations on the three lowest such modes
    worst = 0.0
    for lam in above[:3]:
        pot = build_potential(data, "el", lam)
        a = bound_states(pot, 15.0, 4000)
        b = bound_states(pot, 15.0, 8000)
        assert len(a.eigenvalues) == len(b.eigenvalues)
        for x, y in zip(a.eigenvalues, b.eigenvalues):
            worst = max(worst, abs(x - y))
            assert abs(x - y) <= 1e-6
    print(f"PASS embedded eigenvalues: cutoff {lam_star:.2f}, "
          f"{len(above)} distinct modes above it, "
          f"refinement agreement {worst:.2e} (<= 1e-6)")


def test_05_band_edges_match_and_approach_free_pattern():
    """Discriminant edges vs one-period eigensolves, and the n^2 law."""
    t0 = time.perf_counter()
    prof = _cosine_profile()
    data = build_transform(prof, essential_bounds(prof))
    pot = build_potential(data, "el", LAMBDA_1)
    bs = band_structure([pot], 3700.0)[0]
    assert bs.validation_max_dev <= 1e-6

    b = bs.period
    edges = bs.eigenvalue_band_edges
    assert len(edges) >= 20
    devs = []
    for n in range(10, 21):
        alpha_n = edges[n - 1][0]
        devs.append(abs(alpha_n - PI2 * (n - 1) ** 2 / (b * b) - bs.mean_potential))
    assert devs[-1] < 0.05
    assert np.mean(devs[:3]) > np.mean(devs[-3:])  # decreasing trend
    dt = time.perf_counter() - t0
    print(f"PASS band edges: route deviation {bs.validation_max_dev:.2e} (<= 1e-6); "
          f"edge-20 asymptotic deviation {devs[-1]:.4f} (< 0.05), "
          f"trend {devs[0]:.4f} -> {devs[-1]:.4f}, {dt:.1f}s")


def test_06_finite_gap_certificate(square_small):
    """Two lowest electric modes cover everything above K; gaps finite."""
    t0 = time.perf_counter()
    report = run_periodic_analysis(_cosine_profile(), square_small, 110.0)
    el = {}
    for m in report.modes:
        if m.group.flavor == "el":
            el.setdefault(m.group.mode_constant, m.structure)
    consts = sorted(el)
    cert = finite_gap_certificate(el[consts[0]], el[consts[1]])
    dt = time.perf_counter() - t0
    assert cert.verified, cert.reason
    assert cert.coverage_start < 110.0

    # the assembled squared spectrum may only have gaps below K
    for g in report.squared_gaps:
        assert g.upper <= cert.coverage_start + 1e-6
    uppers = [g.upper for g in report.squared_gaps]
    assert uppers == sorted(uppers)
    assert dt < 60.0
    print(f"PASS finite gaps: certificate verified, K = {cert.coverage_start:.3f}, "
          f"{len(report.squared_gaps)} gap(s) listed below K, {dt:.1f}s (< 60s)")


def test_07_symmetry_and_lower_bounds(excess_report):
    """First-order spectrum equals its negation; floors are strict."""
    sup = excess_report.maxwell_support
    for (a, b), (c, d) in zip(sup, reversed(sup)):
        assert a == -d and b == -c  # exact reflection, not approximate
    pts = excess_report.maxwell_points
    for p in pts:
        assert -p in pts

    checked = 0
    for m in excess_report.modes:
        for e in m.bound.eigenvalues:
            assert e >= m.lower_bound - 1e-8
            assert abs(e - m.lower_bound) > 1e-10
            checked += 1
    assert checked >= 3
    print(f"PASS symmetry and floors: support mirrored exactly; "
          f"{checked} eigenvalues all >= mode floor (strictly)")


def test_08_transform_fidelity():
    """Round trip, gauge-factor consistency, constant-coefficient case."""
    prof = _bump_profile()
    data = build_transform(prof, essential_bounds(prof), window=(-12.0, 12.0))
    zs = np.linspace(-12.0, 12.0, 1000)
    back = np.asarray(data.inverse(data.forward(zs)))
    rt = float(np.max(np.abs(back - zs)))
    assert rt <= 1e-10

    # the curvature term is phi''/phi for the gauge factor phi = (mu/eps)^{1/4},
    # here by a five-point second difference with eps and mu read at z(y)
    def phi(y):
        zs = np.asarray(data.inverse(y))
        return (np.asarray(prof.mu.eval(zs)) / np.asarray(prof.epsilon.eval(zs))) ** 0.25

    ys = np.linspace(-8.0, 8.0, 501)
    h = 1e-3
    d2 = 16.0 * (phi(ys - h) + phi(ys + h)) - (phi(ys - 2 * h) + phi(ys + 2 * h)) - 30.0 * phi(ys)
    fd = d2 / (12.0 * h * h) / phi(ys)
    curvature = np.asarray(build_potential(data, "el", 1.0).curvature_term(ys))
    curv_dev = float(np.max(np.abs(curvature - fd)))
    assert curv_dev <= 1e-8

    # constant coefficients: no gauge term at all, flat potential
    const = make_profile(Constant(2.0), Constant(1.0))
    cdata = build_transform(const, essential_bounds(const), window=(-5.0, 5.0))
    lam = 7.0
    cpot = build_potential(cdata, "el", lam)
    ys2 = np.linspace(cdata.y_lo + 0.1, cdata.y_hi - 0.1, 200)
    assert float(np.max(np.abs(np.asarray(cpot.curvature_term(ys2))))) <= 1e-13
    assert float(np.max(np.abs(np.asarray(cpot.values(ys2)) - lam / 2.0))) <= 1e-13
    print(f"PASS transform fidelity: round trip {rt:.2e} (<= 1e-10), "
          f"curvature vs gauge differences {curv_dev:.2e} (<= 1e-8), constant case exact")
