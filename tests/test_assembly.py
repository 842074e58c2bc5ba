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
    _LADDER_GROWTH,
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
    GaussianBump,
    Sech2Bump,
    essential_bounds,
    make_profile,
)
from cylspec.schrodinger import SETTLE_TOL, BandStructure, band_structure, settle_residual


def _unit_square(count=40):
    return build_spectrum(Rectangle(1.0, 1.0), count, count)


def _flat_profile():
    return make_profile(Constant(1.0), Constant(1.0))


def _solved_potentials(report):
    """The report's potentials, checked to be those of its modes, in order."""
    pots = report.potentials
    assert [(p.flavor, p.mode_constant) for p in pots] == [
        (m.group.flavor, m.group.mode_constant) for m in report.modes
    ]
    return pots


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
        others = [t for c, t in thresholds.items() if c != pt.group.mode_constant]
        assert pt.embedded == (pt.energy >= min(others))
        assert pt.outside_support == (pt.energy < min(thresholds.values()))
        # bound-state energies always respect the universal floor
        mode = next(m for m in report.modes if m.group.mode_constant == pt.group.mode_constant)
        assert pt.energy >= mode.lower_bound


def test_zero_branch_present_for_multiply_connected():
    spec = Synthetic(dirichlet=(5.0, 80.0), neumann=(0.0, 2.0, 85.0), boundary_components=2)
    report = run_stabilizing_analysis(_flat_profile(), build_spectrum(spec, 2, 3), 20.0)
    zero_modes = [m for m in report.modes if m.group.flavor == "zero"]
    assert len(zero_modes) == 1
    z = zero_modes[0]
    assert z.group.multiplicity == 2
    assert z.threshold == 0.0
    assert z.bound.eigenvalues == ()
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
    with pytest.raises(ValidationError) as info:
        run_stabilizing_analysis(prof, _unit_square(), 10.0)
    assert str(info.value) == (
        "stabilizing analysis needs stabilizing coefficients; the profile is periodic"
    )
    with pytest.raises(ValidationError) as info:
        run_periodic_analysis(_flat_profile(), _unit_square(), 10.0)
    assert str(info.value) == (
        "periodic analysis needs periodic coefficients; the profile is stabilizing"
    )


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
            assert p.group == p4.group
            tol = p4.refinement_estimate + p.refinement_estimate / 4.0
            assert abs(p4.energy - p.energy / 4.0) <= tol


def test_swap_law_exchanges_electric_and_magnetic_groups():
    # with neumann = (0,) + dirichlet the electric modes of a profile and
    # the magnetic modes of its swap (eps <-> mu) solve the same problems,
    # so the two analyses agree group for group, to the last bit
    dirichlet = (3.0, 7.0, 200.0)
    spec = Synthetic(dirichlet=dirichlet, neumann=(0.0,) + dirichlet)
    spectrum = build_spectrum(spec, 3, 4)
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.3, 1.0), GaussianBump(1.0, 0.4, -0.2, 1.2))
    reports = [
        run_stabilizing_analysis(p, spectrum, 30.0, grid=1000) for p in (prof, prof.swapped())
    ]
    assert sum(len(m.bound.eigenvalues) for m in reports[0].modes) > 0
    for rep, other in (reports, reports[::-1]):
        electric = [m for m in rep.modes if m.group.flavor == "el"]
        magnetic = {m.group.mode_constant: m for m in other.modes if m.group.flavor == "m"}
        assert len(electric) == len(magnetic) == 2
        for el in electric:
            m = magnetic[el.group.mode_constant]
            assert (el.threshold, el.lower_bound) == (m.threshold, m.lower_bound)
            assert el.bound == m.bound


def test_ladder_settles_every_potential_at_the_first_step_it_can():
    # a wide bump settles slowly, so the ladder climbs from halfwidth 10;
    # mode constants far apart settle at different steps, and the zero
    # branch (N = 2) has the curvature term alone
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 2.5), Constant(1.0))
    spec = Synthetic(
        dirichlet=(0.05, 50.0, 200.0), neumann=(0.0, 0.02, 200.0), boundary_components=2
    )
    spectrum = build_spectrum(spec, 3, 3)
    report = run_stabilizing_analysis(prof, spectrum, 40.0, halfwidth=10.0, grid=500)
    settled = report.modes[0].bound.window_halfwidth
    step = round(math.log(settled / 10.0) / math.log(_LADDER_GROWTH))
    assert step >= 1 and settled == 10.0 * _LADDER_GROWTH**step
    pots = _solved_potentials(report)
    assert [p.flavor for p in pots] == ["zero", "m", "el", "el"]
    assert all(settle_residual(p, settled) < SETTLE_TOL for p in pots)
    earlier = 10.0 * _LADDER_GROWTH ** (step - 1)
    assert any(settle_residual(p, earlier) >= SETTLE_TOL for p in pots)


# ---------------------------------------------------------------------------
# periodic assembly
# ---------------------------------------------------------------------------


def test_periodic_analysis_flat_cosine():
    prof = make_profile(CosinePeriodic(1.0, 0.2, 1.0), Constant(1.0))
    spec = Synthetic(dirichlet=(5.0, 200.0), neumann=(0.0, 198.0))
    report = run_periodic_analysis(prof, build_spectrum(spec, 2, 2), 60.0)
    assert report.classification == "periodic"
    assert len(report.modes) == 1
    assert _solved_potentials(report)[0].period_b == report.modes[0].structure.period
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


# Hand-built band pairs on the period b = pi, where the free edge pattern
# of band n is ((n - 1)^2 + w, n^2 + w).  Means 0 and 2 give delta = 0.5,
# and the spacing condition (2N + 1) pi^2 > 3 b^2 holds from N = 2 on, so
# K = N^2 + 2.5.


def _hand_built(w, pairs, e_max):
    return BandStructure(
        period=math.pi,
        mean_potential=w,
        bands=tuple(pairs),
        gaps=(),
        closed_gap_points=(),
        unresolved_gaps=(),
        eigenvalue_band_edges=tuple(pairs),
        validation_max_dev=0.0,
        e_max=e_max,
    )


def _free_pairs(w, count):
    return [((n - 1) ** 2 + w, n**2 + w) for n in range(1, count + 1)]


def test_certificate_coverage_closed_at_both_ends():
    # K = 6.5 is the lower end of the last band of the upper family and
    # e_max = 11 its upper end; no band reaches below 6.5 to cover K
    low = _hand_built(0.0, [(0.0, 1.0), (1.0, 4.0)], 11.0)
    pairs = [(2.0, 3.0), (3.0, 6.0), (6.5, 11.0)]
    cert = finite_gap_certificate(low, _hand_built(2.0, pairs, 11.0))
    assert cert.n_asymptotic == 2 and cert.coverage_start == 6.5
    assert cert.verified, cert.reason
    # one ulp of daylight under K and the check fails there
    pairs[-1] = (math.nextafter(6.5, 7.0), 11.0)
    cert = finite_gap_certificate(low, _hand_built(2.0, pairs, 11.0))
    assert not cert.verified
    assert cert.reason == "coverage of [K, e_max] ends at energy 6.500000"
    # a gap narrower than any energy grid step, between grid points
    pairs[-1:] = [(6.5, 8.0002), (8.0008, 11.0)]
    cert = finite_gap_certificate(low, _hand_built(2.0, pairs, 11.0))
    assert cert.reason == "coverage of [K, e_max] ends at energy 8.000200"


def test_certificate_names_last_covered_energy():
    # both families' bands stop at 9 and 11, below the analyzed e_max 12
    low = _hand_built(0.0, _free_pairs(0.0, 3), 12.0)
    high = _hand_built(2.0, _free_pairs(2.0, 3), 12.0)
    cert = finite_gap_certificate(low, high)
    assert cert.n_asymptotic == 2 and cert.coverage_start == 6.5
    assert not cert.verified
    assert cert.reason == "coverage of [K, e_max] ends at energy 11.000000"


def test_certificate_does_not_depend_on_argument_order():
    # the certificate orders the two structures by mean potential itself
    low = _hand_built(0.0, _free_pairs(0.0, 6), 30.0)
    high = _hand_built(2.0, _free_pairs(2.0, 6), 30.0)
    cert = finite_gap_certificate(low, high)
    assert cert.verified, cert.reason
    assert finite_gap_certificate(high, low) == cert


def test_certificate_takes_first_index_after_which_deviations_stay_below():
    # deviations per band n: 0 at n = 2, 0.7 at n = 3, then 0.1, 0.2, 0.05
    lows, highs = _free_pairs(0.0, 6), _free_pairs(2.0, 6)
    lows[2] = (4.0, 9.7)
    lows[3] = (9.1, 16.0)
    highs[4] = (18.0, 27.2)
    lows[5] = (25.05, 36.0)
    cert = finite_gap_certificate(_hand_built(0.0, lows, 30.0), _hand_built(2.0, highs, 30.0))
    assert cert.n_asymptotic == 4
    assert cert.max_edge_deviation == pytest.approx(0.2, abs=1e-12)
    assert cert.coverage_start == 18.5
    assert cert.verified, cert.reason
