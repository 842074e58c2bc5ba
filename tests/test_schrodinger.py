"""1D solver tests against closed-form oracles.

The solvers only touch a small duck-typed surface of the potential
(values, threshold, lower_bound, period_b, window), so reflectionless
wells and a small cosine potential with known spectra stand in for the
full reduction stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

import cylspec.schrodinger as schrodinger
from cylspec.errors import (
    InvalidWitnessError,
    NumericalError,
    ValidationError,
    WindowError,
)
from cylspec.liouville import build_potential, build_transform
from cylspec.profiles import Constant, CosinePeriodic, Sech2Bump, make_profile
from cylspec.schrodinger import (
    band_structure,
    bound_states,
    count_below,
    discriminant,
    monodromy,
    search_witness,
    variational_upper_bound,
)


@dataclass(frozen=True)
class _Well:
    """V(y) = floor - strength / cosh(y)^2 on a symmetric window.

    For strength k(k+1) with integer k the levels sit exactly at
    floor - (k - j)^2, j = 0..k-1.
    """

    floor: float
    strength: float
    halfspan: float = 40.0

    period_b = None

    @property
    def threshold(self):
        return self.floor

    @property
    def lower_bound(self):
        return self.floor - max(self.strength, 0.0)

    @property
    def y_lo(self):
        return -self.halfspan

    @property
    def y_hi(self):
        return self.halfspan

    def values(self, ys):
        arr = np.atleast_1d(np.asarray(ys, dtype=float))
        out = self.floor - self.strength / np.cosh(arr) ** 2
        return out if np.ndim(ys) else float(out[0])


@dataclass(frozen=True)
class _PeriodicV:
    """V(y) = offset + amp * cos(2 pi y / period) with known period."""

    offset: float
    amp: float
    period: float

    threshold = None

    @property
    def period_b(self):
        return self.period

    @property
    def lower_bound(self):
        return self.offset - abs(self.amp)

    def values(self, ys):
        arr = np.atleast_1d(np.asarray(ys, dtype=float))
        out = self.offset + self.amp * np.cos(2.0 * np.pi * arr / self.period)
        return out if np.ndim(ys) else float(out[0])


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------


def test_barrier_has_no_bound_states():
    pot = _Well(floor=2.0, strength=-2.0)  # a bump, not a well
    res = bound_states(pot, 15.0, 2000)
    assert res.count == 0
    assert res.eigenvalues == ()
    assert res.margin is None


def test_reflectionless_single_level():
    pot = _Well(floor=5.0, strength=2.0)
    res = bound_states(pot, 15.0, 3000)
    assert res.count == 1
    e = res.eigenvalues[0]
    assert e == pytest.approx(4.0, abs=1e-6)
    assert res.refinement_estimate[0] < 1e-4
    assert res.threshold == 5.0
    assert res.margin == pytest.approx(1.0, abs=1e-5)


def test_reflectionless_two_levels():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 3000)
    assert res.count == 2
    assert res.eigenvalues[0] == pytest.approx(-4.0, abs=1e-6)
    assert res.eigenvalues[1] == pytest.approx(-1.0, abs=1e-6)


def test_refinement_estimate_bounds_true_error():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 1500)
    for got, exact, est in zip(res.eigenvalues, (-4.0, -1.0), res.refinement_estimate):
        assert abs(got - exact) <= 10.0 * est + 1e-12


def test_count_below_agrees_with_eigensolver():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 2000)
    n = res.grid_size
    assert count_below(pot, 0.0, 15.0, n) == res.count
    assert count_below(pot, -2.5, 15.0, n) == 1
    assert count_below(pot, -5.0, 15.0, n) == 0


def test_unsettled_window_rejected():
    pot = _Well(floor=1.0, strength=2.0)
    with pytest.raises(WindowError):
        bound_states(pot, 5.0, 2000)  # sech^2(5) ~ 2e-4, far from settled


def test_window_must_fit_transform():
    pot = _Well(floor=1.0, strength=2.0, halfspan=10.0)
    with pytest.raises(WindowError):
        bound_states(pot, 12.0, 2000)


def test_coarse_grid_rejected():
    pot = _Well(floor=5.0, strength=2.0)
    with pytest.raises(ValidationError):
        bound_states(pot, 15.0, 8)


def test_periodic_potential_rejected_by_bound_state_solver():
    pot = _PeriodicV(offset=0.0, amp=0.1, period=math.pi)
    with pytest.raises(ValidationError):
        bound_states(pot, 15.0, 2000)


# ---------------------------------------------------------------------------
# monodromy and discriminant
# ---------------------------------------------------------------------------


def test_monodromy_constant_potential_closed_form():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    m0 = monodromy(pot, c)
    assert np.allclose(m0, [[1.0, b], [0.0, 1.0]], atol=1e-9)
    for d in (0.5, 2.0, 9.0):
        s = math.sqrt(d)
        expect = np.array(
            [
                [math.cos(b * s), math.sin(b * s) / s],
                [-s * math.sin(b * s), math.cos(b * s)],
            ]
        )
        assert np.allclose(monodromy(pot, c + d), expect, atol=1e-9)
    # below the potential floor the solutions grow hyperbolically
    d = 1.5
    s = math.sqrt(d)
    m = monodromy(pot, c - d)
    assert m[0][0] + m[1][1] == pytest.approx(2.0 * math.cosh(b * s), abs=1e-8)


def test_discriminant_constant_potential():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    es = c + np.linspace(0.1, 40.0, 37)
    got = np.asarray(discriminant(pot, es))
    expect = 2.0 * np.cos(b * np.sqrt(es - c))
    assert np.allclose(got, expect, atol=1e-8)


def test_wronskian_preserved_at_random_energies():
    pot = _PeriodicV(offset=0.0, amp=0.3, period=math.pi)
    rng = np.random.default_rng(17)
    for e in rng.uniform(-1.0, 60.0, size=50):
        m = np.asarray(monodromy(pot, float(e)))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) <= 1e-9


def _cosine_mode(mean=1.0, amplitude=0.3, mode_constant=2.0 * math.pi**2):
    prof = make_profile(CosinePeriodic(mean, amplitude, 1.0), Constant(1.0))
    return build_potential(build_transform(prof), "el", mode_constant)


def test_discriminant_does_not_depend_on_the_batch():
    # below, across and above the potential's range, in more energies
    # than one propagator chunk holds
    pot = _cosine_mode()
    es = np.linspace(10.0, 300.0, 97)
    batch = np.asarray(discriminant(pot, es))
    alone = np.array([discriminant(pot, float(e)) for e in es])
    assert np.array_equal(batch, alone)


# ---------------------------------------------------------------------------
# band structure
# ---------------------------------------------------------------------------


def test_constant_potential_band_structure():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    bs = band_structure(pot, 30.0)
    assert len(bs.bands) == 1
    lo, hi = bs.bands[0]
    assert lo == pytest.approx(c, abs=1e-7)
    assert hi == pytest.approx(30.0, abs=1e-9)
    assert bs.gaps == ()
    assert bs.unresolved_gaps == ()
    assert bs.mean_potential == pytest.approx(c, abs=1e-12)
    # all gaps are closed; the touching points sit at c + (pi n / b)^2
    expected = [c + (math.pi * n / b) ** 2 for n in (1, 2)]
    assert len(bs.closed_gap_points) == len(expected)
    for got, ref in zip(sorted(bs.closed_gap_points), expected):
        assert got == pytest.approx(ref, abs=1e-5)
    assert bs.validation_max_dev <= 1e-6


def test_cosine_first_gap_width():
    q = 0.05
    pot = _PeriodicV(offset=0.0, amp=2.0 * q, period=math.pi)
    bs = band_structure(pot, 3.0)
    assert len(bs.bands) == 2
    assert len(bs.gaps) == 1
    g_lo, g_hi = bs.gaps[0]
    width = g_hi - g_lo
    # leading-order perturbation theory: width = 2q + O(q^2)
    assert width == pytest.approx(2.0 * q, rel=0.2)
    assert 0.5 * (g_lo + g_hi) == pytest.approx(1.0, abs=0.05)
    # band bottom dips just below the mean value 0
    assert -0.01 < bs.bands[0][0] < 0.0
    assert bs.validation_max_dev <= 1e-6


def test_eigenvalue_routes_interlace():
    pot = _PeriodicV(offset=0.0, amp=0.4, period=math.pi)
    bs = band_structure(pot, 9.0)
    per = list(bs.periodic_eigenvalues)
    anti = list(bs.antiperiodic_eigenvalues)
    assert per == sorted(per) and anti == sorted(anti)
    assert len(per) >= 3 and len(anti) >= 2
    # classical edge ordering: p0 < a0 <= a1 < p1 <= p2 < a2 ...
    assert per[0] < anti[0] <= anti[1] < per[1] <= per[2]
    # reference edges pair them in the same order
    edges = bs.eigenvalue_band_edges
    assert edges[0][0] == pytest.approx(per[0], rel=1e-12)
    assert edges[0][1] == pytest.approx(anti[0], rel=1e-12)
    assert edges[1][0] == pytest.approx(anti[1], rel=1e-12)
    assert edges[1][1] == pytest.approx(per[1], rel=1e-12)


def test_bands_are_exactly_where_discriminant_is_small():
    pot = _PeriodicV(offset=0.0, amp=0.4, period=math.pi)
    bs = band_structure(pot, 9.0)
    assert len(bs.bands) >= 2 and len(bs.gaps) >= 1
    for lo, hi in bs.bands:
        inner = np.linspace(lo, hi, 9)[1:-1]  # strictly interior
        vals = np.abs(np.asarray(discriminant(pot, inner)))
        assert np.all(vals <= 2.0 + 1e-9)
    for lo, hi in bs.gaps:
        mid = 0.5 * (lo + hi)
        assert abs(float(discriminant(pot, mid))) > 2.0


def test_gap_lengths_shrink_with_energy():
    pot = _PeriodicV(offset=0.0, amp=0.8, period=math.pi)
    bs = band_structure(pot, 40.0)
    widths = [hi - lo for lo, hi in bs.gaps]
    assert len(widths) >= 3
    assert widths[0] > widths[-1]
    assert all(b < a * 1.05 for a, b in zip(widths, widths[1:]))


def test_potential_above_e_max_has_no_bands():
    pot = _PeriodicV(offset=10.0, amp=0.1, period=math.pi)
    bs = band_structure(pot, 5.0)
    assert bs.bands == () and bs.gaps == () and bs.eigenvalue_band_edges == ()
    assert bs.mean_potential == pytest.approx(10.0, abs=1e-12)


def test_band_edges_scale_with_epsilon():
    # eps -> 4 eps at constant mu doubles the period and quarters the
    # potential, V4(y) = V(y / 2) / 4, so every energy scales by 1/4.  The
    # samples of V4 are exactly V / 4 and the step count is scale
    # invariant, so the two discriminants agree bitwise up to the energy
    # scale and only bisection (edge_tol) separates the edges: the
    # tolerance is edge_tol, below edge_tol plus the n-vs-2n estimate.
    pot, pot4 = _cosine_mode(), _cosine_mode(mean=4.0, amplitude=1.2)
    assert schrodinger._magnus_steps(pot) == schrodinger._magnus_steps(pot4)
    bs, bs4 = band_structure(pot, 60.0), band_structure(pot4, 15.0)
    edge_tol = 1e-10
    for name in ("bands", "gaps", "eigenvalue_band_edges"):
        got = np.asarray(getattr(bs4, name))
        ref = np.asarray(getattr(bs, name)) / 4.0
        assert got.shape == ref.shape and got.size > 0, name
        assert np.max(np.abs(got - ref)) <= edge_tol, name


def test_unresolved_discriminant_is_rejected(monkeypatch):
    # too few propagator steps for the potential: n against 2n exposes it
    monkeypatch.setattr(schrodinger, "_magnus_steps", lambda potential: 16)
    with pytest.raises(NumericalError, match="e_max = 60.0"):
        band_structure(_cosine_mode(), 60.0)


def test_band_structure_needs_periodicity():
    pot = _Well(floor=0.0, strength=2.0)
    with pytest.raises(ValidationError):
        band_structure(pot, 5.0)


# ---------------------------------------------------------------------------
# variational witness machinery (needs the real transform stack)
# ---------------------------------------------------------------------------


def _excess_data(window=(-20.0, 20.0)):
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    return build_transform(prof, window=window)


def test_witness_search_finds_admissible_pair():
    data = _excess_data()
    w = search_witness(data)
    assert w.delta1 > 0 and w.delta2 > 0
    assert w.objective == pytest.approx(2.0 * w.delta1 * w.delta2, rel=1e-12)
    assert abs(w.y0) < 0.1  # the bump peaks at z = 0 and y(0) = 0
    # delta2 must respect the pointwise margin at the witness itself
    assert w.delta2 < 1.0 - 1.0 / 1.5 + 1e-12


def test_variational_bound_beats_threshold_for_large_modes():
    data = _excess_data()
    w = search_witness(data)
    probe = build_potential(data, "el", 1.0)
    vb = variational_upper_bound(probe, w.delta1, w.delta2, w.y0)
    lam = 1.05 * vb.lambda_threshold
    pot = build_potential(data, "el", lam)
    out = variational_upper_bound(pot, w.delta1, w.delta2, w.y0)
    assert out.quotient < pot.threshold
    # the quotient can never undercut the universal floor
    assert out.quotient > pot.lower_bound


def test_variational_bound_dominates_ground_state():
    data = _excess_data()
    w = search_witness(data)
    probe = build_potential(data, "el", 1.0)
    lam = 1.5 * variational_upper_bound(probe, w.delta1, w.delta2, w.y0).lambda_threshold
    pot = build_potential(data, "el", lam)
    vb = variational_upper_bound(pot, w.delta1, w.delta2, w.y0)
    res = bound_states(pot, 15.0, 3000)
    assert res.count >= 1
    assert res.eigenvalues[0] <= vb.quotient + 1e-8


def test_margin_violation_rejected():
    data = _excess_data()
    pot = build_potential(data, "el", 5.0)
    # delta2 larger than the full inverse-product drop cannot hold
    with pytest.raises(InvalidWitnessError):
        variational_upper_bound(pot, 0.5, 0.9, 0.0)
    with pytest.raises(InvalidWitnessError):
        variational_upper_bound(pot, -0.1, 0.1, 0.0)


def test_cutoff_must_stay_inside_window():
    data = _excess_data(window=(-3.0, 3.0))
    pot = build_potential(data, "el", 5.0)
    with pytest.raises(WindowError):
        variational_upper_bound(pot, 2.5, 0.05, 0.0)


def test_witness_needs_product_excess():
    prof = make_profile(Sech2Bump(1.0, -0.3, 0.0, 1.0), Constant(1.0))
    data = build_transform(prof, window=(-15.0, 15.0))
    with pytest.raises(InvalidWitnessError):
        search_witness(data)
