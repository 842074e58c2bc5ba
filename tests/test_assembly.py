"""Whole-spectrum assembly tests.

The budget oracle values below were computed by hand from the square's
transverse eigenvalues pi^2 (m^2 + n^2): nothing in the package feeds
them.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cylspec.assembly import (
    finite_gap_certificate,
    mode_budget,
    run_periodic_analysis,
    run_stabilizing_analysis,
)
from cylspec.cross_section import Rectangle, Synthetic, build_spectrum
from cylspec.errors import InsufficientDataError, ValidationError
from cylspec.liouville import LiouvilleData
from cylspec.profiles import (
    Constant,
    CosinePeriodic,
    Sech2Bump,
    essential_bounds,
    make_profile,
)
from cylspec.schrodinger import band_structure


def _unit_square(count=40):
    return build_spectrum(Rectangle(1.0, 1.0), count, count)


def _flat_profile():
    return make_profile(Constant(1.0), Constant(1.0))


# ---------------------------------------------------------------------------
# mode budget
# ---------------------------------------------------------------------------


def test_budget_unit_square_flat():
    pi2 = math.pi * math.pi
    budget = mode_budget(_unit_square(), essential_bounds(_flat_profile()), 30.0)
    # Dirichlet below 30: only 2 pi^2 = 19.74
    assert budget.electric_constants == pytest.approx((2 * pi2,), rel=1e-12)
    # Neumann below 30 after dropping the leading 0: pi^2 twice, 2 pi^2
    assert budget.magnetic_constants == pytest.approx((pi2, pi2, 2 * pi2), rel=1e-12)
    assert not budget.include_zero_branch
    assert budget.zero_multiplicity == 0


def test_budget_scales_with_product_sup():
    # sup(eps mu) = 1.5 raises the cut to 45, admitting 5 pi^2 = 49.3? no:
    # 49.3 > 45, so the electric list still stops at 2 pi^2
    pi2 = math.pi * math.pi
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    budget = mode_budget(_unit_square(), essential_bounds(prof), 30.0)
    assert budget.electric_constants == pytest.approx((2 * pi2,), rel=1e-12)
    # 4 pi^2 = 39.5 is doubly degenerate, from (2,0) and (0,2)
    assert budget.magnetic_constants == pytest.approx(
        (pi2, pi2, 2 * pi2, 4 * pi2, 4 * pi2), rel=1e-12
    )


def test_budget_insufficient_data():
    spec = Synthetic(dirichlet=(5.0, 9.0), neumann=(0.0, 3.0))
    spectrum = build_spectrum(spec, 2, 2)
    with pytest.raises(InsufficientDataError):
        mode_budget(spectrum, essential_bounds(_flat_profile()), 100.0)


def test_budget_zero_branch_multiplicity():
    spec = Synthetic(dirichlet=(5.0, 90.0), neumann=(0.0, 3.0, 95.0), boundary_components=3)
    spectrum = build_spectrum(spec, 2, 3)
    budget = mode_budget(spectrum, essential_bounds(_flat_profile()), 50.0)
    assert budget.include_zero_branch
    assert budget.zero_multiplicity == 4


# ---------------------------------------------------------------------------
# stabilizing assembly
# ---------------------------------------------------------------------------


def test_flat_profile_unit_square_central_gap():
    report = run_stabilizing_analysis(_flat_profile(), _unit_square(), 30.0)
    assert report.classification == "stabilizing"
    # no bound states anywhere for constant coefficients
    assert report.squared_points == ()
    # essential spectrum starts at kappa_2 = pi^2, so the first-order
    # operator leaves (-pi, pi) empty
    assert report.central_gap is not None
    lo, hi = report.central_gap
    assert hi == pytest.approx(math.pi, abs=1e-9)
    assert lo == pytest.approx(-math.pi, abs=1e-9)
    assert report.squared_support[0][0] == pytest.approx(math.pi**2, rel=1e-12)
    assert report.squared_support[-1][1] == pytest.approx(30.0, rel=1e-12)
    assert report.squared_gaps == ()


def test_maxwell_sets_are_symmetric():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 80.0), neumann=(0.0, 2.0, 85.0))
    report = run_stabilizing_analysis(prof, build_spectrum(spec, 2, 3), 40.0)
    sup = report.maxwell_support
    for (a, b), (c, d) in zip(sup, reversed(sup)):
        assert a == -d and b == -c  # bitwise mirror
    pts = report.maxwell_points
    assert list(pts) == sorted(pts)
    for p in pts:
        assert -p in pts
    # the squared spectrum never dips below zero
    for a, b in report.squared_support:
        assert a >= 0.0 and b >= a
    assert all(p.energy >= 0.0 for p in report.squared_points)
    # supports are disjoint ascending
    for (_, b), (c, _) in zip(report.squared_support, report.squared_support[1:]):
        assert c > b


def test_point_flags_match_thresholds():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 80.0), neumann=(0.0, 2.0, 85.0))
    report = run_stabilizing_analysis(prof, build_spectrum(spec, 2, 3), 40.0)
    assert len(report.squared_points) >= 2
    thresholds = {m.group.mode_constant: m.threshold for m in report.modes}
    for pt in report.squared_points:
        others = [t for c, t in thresholds.items() if c != pt.mode_constant]
        assert pt.embedded == (pt.energy >= min(others))
        assert pt.outside_support == (pt.energy < min(thresholds.values()))
        # bound-state energies always respect the universal floor
        mode = next(m for m in report.modes if m.group.mode_constant == pt.mode_constant)
        assert pt.energy >= mode.lower_bound


def test_zero_branch_present_for_multiply_connected():
    spec = Synthetic(dirichlet=(5.0, 80.0), neumann=(0.0, 2.0, 85.0), boundary_components=2)
    report = run_stabilizing_analysis(_flat_profile(), build_spectrum(spec, 2, 3), 20.0)
    zero_modes = [m for m in report.modes if m.group.flavor == "zero"]
    assert len(zero_modes) == 1
    z = zero_modes[0]
    assert z.group.multiplicity == 2
    assert z.threshold == 0.0
    assert z.bound.count == 0
    # essential spectrum reaches down to zero, so no central gap
    assert report.central_gap is None
    assert report.squared_support[0][0] == pytest.approx(0.0, abs=1e-12)


def test_group_multiplicities_collapse_equal_constants():
    report = run_stabilizing_analysis(_flat_profile(), _unit_square(), 30.0)
    pi2 = math.pi * math.pi
    mags = [m for m in report.modes if m.group.flavor == "m"]

    def group_at(c):
        return next(m.group for m in mags if abs(m.group.mode_constant - c) < 1e-9)

    assert group_at(pi2).multiplicity == 2
    assert group_at(pi2).indices == (2, 3)
    assert group_at(2 * pi2).multiplicity == 1


def test_stabilizing_rejects_periodic_profile():
    prof = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(1.0))
    with pytest.raises(ValidationError):
        run_stabilizing_analysis(prof, _unit_square(), 10.0)
    with pytest.raises(ValidationError):
        run_periodic_analysis(_flat_profile(), _unit_square(), 10.0)


def test_parallel_equals_serial():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 80.0), neumann=(0.0, 2.0, 85.0))
    spectrum = build_spectrum(spec, 2, 3)
    serial = run_stabilizing_analysis(prof, spectrum, 40.0)
    parallel = run_stabilizing_analysis(prof, spectrum, 40.0, jobs=3)
    assert serial.squared_points == parallel.squared_points
    assert serial.squared_support == parallel.squared_support
    assert serial.maxwell_points == parallel.maxwell_points


def test_inverse_work_does_not_grow_with_mode_groups(monkeypatch):
    # every mode potential reads the transform's shared per-grid sample,
    # so the number of inverse-map calls is fixed by the grids, not by the
    # number of mode groups or the thread count
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 9.0, 14.0, 80.0), neumann=(0.0, 2.0, 7.0, 11.0, 85.0))
    spectrum = build_spectrum(spec, 4, 5)
    calls = []
    inverse = LiouvilleData.inverse

    def counted(self, y, *args, **kwargs):
        calls.append(np.size(y))
        return inverse(self, y, *args, **kwargs)

    monkeypatch.setattr(LiouvilleData, "inverse", counted)

    def inverse_calls(e_max, jobs):
        calls.clear()
        report = run_stabilizing_analysis(prof, spectrum, e_max, grid=800, jobs=jobs)
        return len(calls), len(report.modes)

    few, n_few = inverse_calls(4.0, 1)
    many, n_many = inverse_calls(40.0, 1)
    threaded, _ = inverse_calls(40.0, 3)
    assert (n_few, n_many) == (2, 6)
    assert few == many == threaded


def test_energies_scale_with_epsilon():
    # eps -> 4 eps at constant mu doubles the travel time and quarters
    # the potential, V4(y) = V(y / 2) / 4, so on a window of twice the
    # halfwidth every bound state scales by exactly 1/4 up to the
    # discretization error the Richardson estimates bound; mu -> 4 mu at
    # constant eps does the same (eta is a difference of the two
    # logarithmic derivatives, the mode term divides by eps mu)
    spec = Synthetic(dirichlet=(5.0, 9.0, 80.0), neumann=(0.0, 2.0, 7.0, 85.0))
    spectrum = build_spectrum(spec, 3, 4)
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    rep = run_stabilizing_analysis(prof, spectrum, 12.0, halfwidth=10.0, grid=1000)
    for prof4 in (
        make_profile(Sech2Bump(4.0, 2.0, 0.0, 1.0), Constant(1.0)),
        make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(4.0)),
    ):
        rep4 = run_stabilizing_analysis(prof4, spectrum, 3.0, halfwidth=20.0, grid=1000)
        assert len(rep.squared_points) == len(rep4.squared_points) > 0
        for p, p4 in zip(rep.squared_points, rep4.squared_points):
            assert (p.flavor, p.mode_constant) == (p4.flavor, p4.mode_constant)
            tol = p4.refinement_estimate + p.refinement_estimate / 4.0
            assert abs(p4.energy - p.energy / 4.0) <= tol


# ---------------------------------------------------------------------------
# periodic assembly
# ---------------------------------------------------------------------------


def test_periodic_analysis_flat_cosine():
    prof = make_profile(CosinePeriodic(1.0, 0.2, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 200.0), neumann=(0.0, 198.0))
    report = run_periodic_analysis(prof, build_spectrum(spec, 2, 2), 60.0)
    assert report.classification == "periodic"
    assert len(report.modes) == 1
    bs = report.modes[0].structure
    assert bs.validation_max_dev <= 1e-6
    # support is the union of that single mode's bands
    assert report.squared_support == bs.bands
    # gap reports line up with the band gaps
    assert len(report.squared_gaps) == len(bs.gaps) + len(bs.unresolved_gaps)


# ---------------------------------------------------------------------------
# finite-gap certificate
# ---------------------------------------------------------------------------


class _FlatV:
    def __init__(self, offset, period):
        self.offset = offset
        self.period_b = period
        self.threshold = None
        self.lower_bound = offset

    def values(self, ys):
        arr = np.atleast_1d(np.asarray(ys, dtype=float))
        out = np.full_like(arr, self.offset)
        return out if np.ndim(ys) else float(out[0])


def test_certificate_flat_pair_verifies():
    low = band_structure(_FlatV(0.0, 1.0), 20.0)
    high = band_structure(_FlatV(2.0, 1.0), 20.0)
    cert = finite_gap_certificate(low, high)
    assert cert.verified
    assert cert.w_low == pytest.approx(0.0, abs=1e-12)
    assert cert.w_high == pytest.approx(2.0, abs=1e-12)
    assert cert.delta == pytest.approx(0.5, abs=1e-12)
    # K = pi^2 N^2 / b^2 + w_high + delta with N = 1 for this separation
    assert cert.n_asymptotic == 1
    assert cert.coverage_start == pytest.approx(math.pi**2 + 2.5, rel=1e-9)
    assert cert.max_edge_deviation <= 1e-6


def test_certificate_unverified_when_window_too_small():
    low = band_structure(_FlatV(0.0, 1.0), 20.0)
    high = band_structure(_FlatV(18.0, 1.0), 20.0)
    cert = finite_gap_certificate(low, high)
    assert not cert.verified
    assert cert.reason


def test_certificate_rejects_degenerate_separation():
    a = band_structure(_FlatV(1.0, 1.0), 15.0)
    b = band_structure(_FlatV(1.0, 1.0), 15.0)
    with pytest.raises(ValidationError):
        finite_gap_certificate(a, b)


def test_certificate_rejects_period_mismatch():
    a = band_structure(_FlatV(0.0, 1.0), 15.0)
    b = band_structure(_FlatV(2.0, 0.5), 15.0)
    with pytest.raises(ValidationError):
        finite_gap_certificate(a, b)
