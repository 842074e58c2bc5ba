"""Transverse eigenvalue tests.

The disk values are checked against an independent Bessel oracle: the
integral representation J_m(x) = (1/pi) * integral_0^pi cos(m t -
x sin t) dt evaluated with the trapezoid rule (spectrally accurate for
periodic analytic integrands), zeros bracketed by sign scan and
bisected.  Nothing here touches scipy.special.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cylspec.cross_section import (
    CrossSectionSpectrum,
    Disk,
    Rectangle,
    build_spectrum,
    validate_friedlander,
)
from cylspec.errors import InsufficientDataError, ValidationError

PI2 = math.pi * math.pi


def _dirichlet(spec, count):
    return list(build_spectrum(spec, count, 0).dirichlet)


def _neumann(spec, count):
    return list(build_spectrum(spec, 0, count).neumann)


def _bessel_j(m: int, x: float) -> float:
    t = np.linspace(0.0, math.pi, 4001)
    vals = np.cos(m * t - x * np.sin(t))
    return float(np.trapezoid(vals, t) / math.pi)


def _bessel_j_prime(m: int, x: float) -> float:
    if m == 0:
        return -_bessel_j(1, x)
    return 0.5 * (_bessel_j(m - 1, x) - _bessel_j(m + 1, x))


def _zeros_of(fun, x_max: float) -> list[float]:
    xs = np.linspace(0.05, x_max, 4000)
    vals = np.array([fun(x) for x in xs])
    out = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            out.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0:
            lo, hi = xs[i], xs[i + 1]
            flo = vals[i]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = fun(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            out.append(0.5 * (lo + hi))
    return out


# frozen from the series oracle below, first Dirichlet disk eigenvalue
FIRST_DISK_DIRICHLET = 5.783185962946785
# frozen from the oracle: square of the first positive zero of J_1'
FIRST_DISK_NEUMANN_NONZERO = 3.389957716671889


def test_rectangle_dirichlet_lowest_exact():
    sp = build_spectrum(Rectangle(1.0, 1.0), 6, 6)
    assert sp.dirichlet[0] == pytest.approx(2 * PI2, rel=1e-14)
    assert sp.dirichlet[1] == pytest.approx(5 * PI2, rel=1e-14)
    assert sp.dirichlet[2] == pytest.approx(5 * PI2, rel=1e-14)
    assert sp.dirichlet[1] == sp.dirichlet[2]


def test_rectangle_neumann_starts_at_zero():
    sp = build_spectrum(Rectangle(1.0, 1.0), 6, 6)
    assert sp.neumann[0] == 0.0
    assert sp.neumann[1] == pytest.approx(PI2, rel=1e-14)
    assert sp.neumann[2] == pytest.approx(PI2, rel=1e-14)


def test_rectangle_anisotropic_first():
    sp = build_spectrum(Rectangle(1.0, 2.0), 4, 4)
    assert sp.dirichlet[0] == pytest.approx(PI2 * (1.0 + 0.25), rel=1e-14)
    assert sp.neumann[1] == pytest.approx(PI2 / 4.0, rel=1e-14)


def _brute_levels(w, h, count, lowest, top=300):
    levels = sorted(
        PI2 * (m * m / w**2 + n * n / h**2)
        for m in range(lowest, top + 1)
        for n in range(lowest, top + 1)
    )
    # every level past the enumerated range lies above the ones kept
    assert levels[count - 1] < PI2 * (top + 1) ** 2 / max(w, h) ** 2
    return levels[:count]


# (width, height, count): random shapes, thin ones of aspect 25, and the
# level count of a 220-mode budget
_RECTANGLES = [
    (float(w), float(h), 25) for w, h in np.random.default_rng(11).uniform(0.5, 3.0, (5, 2))
] + [(2.5, 0.1, 220), (0.1, 2.5, 60), (1.0, 1.0, 220), (1.7, 0.6, 220)]


def test_rectangle_enumeration_against_brute_force():
    for w, h, count in _RECTANGLES:
        got = _dirichlet(Rectangle(w, h), count)
        assert got == _brute_levels(w, h, count, 1), (w, h, count)


def test_rectangle_neumann_brute_force():
    for w, h, count in _RECTANGLES:
        got = _neumann(Rectangle(w, h), count)
        assert got == _brute_levels(w, h, count, 0), (w, h, count)


def test_disk_dirichlet_against_bessel_oracle():
    radius = 1.0
    got = _dirichlet(Disk(radius), 10)
    assert got[0] == pytest.approx(FIRST_DISK_DIRICHLET, rel=1e-12)

    # oracle: pool zeros of J_m for m = 0..6, square, sort
    pooled = []
    for m in range(0, 7):
        for z in _zeros_of(lambda x: _bessel_j(m, x), 14.0):
            lam = (z / radius) ** 2
            pooled.append(lam)
            if m >= 1:
                pooled.append(lam)
    pooled.sort()
    assert np.allclose(got, pooled[:10], rtol=1e-10)


def test_disk_neumann_against_bessel_oracle():
    radius = 1.3
    got = _neumann(Disk(radius), 10)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(FIRST_DISK_NEUMANN_NONZERO / 1.3**2, rel=1e-12)

    pooled = [0.0]
    for m in range(0, 7):
        for z in _zeros_of(lambda x: _bessel_j_prime(m, x), 14.0):
            lam = (z / radius) ** 2
            pooled.append(lam)
            if m >= 1:
                pooled.append(lam)
    pooled.sort()
    assert np.allclose(got, pooled[:10], rtol=1e-10)


def test_disk_first_neumann_multiplicity_two():
    got = _neumann(Disk(1.0), 4)
    assert got[1] == got[2]  # the J_1' zero carries both angular signs


def test_scaling_law():
    base_d = _dirichlet(Disk(1.0), 8)
    scaled = _dirichlet(Disk(2.0), 8)
    assert np.allclose(np.array(scaled) * 4.0, base_d, rtol=1e-12)


def test_friedlander_rectangle_and_disk():
    assert validate_friedlander(build_spectrum(Rectangle(1.0, 1.0), 4, 4))
    assert validate_friedlander(build_spectrum(Rectangle(0.3, 2.7), 4, 4))
    assert validate_friedlander(build_spectrum(Disk(1.0), 4, 4))


def test_friedlander_synthetic_violation_detected():
    sp = CrossSectionSpectrum(dirichlet=(1.0,), neumann=(0.0, 2.0), boundary_components=1)
    assert validate_friedlander(sp) is False


def test_friedlander_needs_two_neumann_values():
    sp = CrossSectionSpectrum(dirichlet=(1.0,), neumann=(0.0,), boundary_components=1)
    with pytest.raises(InsufficientDataError):
        validate_friedlander(sp)


def test_synthetic_validation():
    # explicit lists, as a synthetic cross-section gives them, are checked
    # by the one spectrum type
    with pytest.raises(ValidationError):
        CrossSectionSpectrum(dirichlet=(2.0, 1.0), neumann=(0.0, 1.0), boundary_components=1)
    with pytest.raises(ValidationError):
        CrossSectionSpectrum(dirichlet=(1.0,), neumann=(0.5, 1.0), boundary_components=1)
    with pytest.raises(ValidationError):
        CrossSectionSpectrum(dirichlet=(-1.0,), neumann=(0.0,), boundary_components=1)
    sp = CrossSectionSpectrum(dirichlet=(1.0, 2.0), neumann=(0.0, 0.5), boundary_components=2)
    assert sp.boundary_components == 2


def test_spectrum_construction_guards():
    with pytest.raises(ValidationError):
        CrossSectionSpectrum(dirichlet=(0.0, 1.0), neumann=(0.0,), boundary_components=1)
    with pytest.raises(ValidationError):
        CrossSectionSpectrum(dirichlet=(1.0,), neumann=(0.1,), boundary_components=1)


def test_spectrum_validation():
    # each of these breaks an ordering a consumer reads (kappa_2, lambda_1,
    # the last value, a nonzero magnetic constant) or asks for no boundary
    bad = [
        ((5.0, 80.0), (0.0, 9.0, 3.0, 85.0), 1),  # unsorted Neumann list
        ((80.0, 5.0), (0.0, 2.0), 1),  # descending Dirichlet list
        ((5.0,), (0.0, 0.0, 2.0), 1),  # double Neumann zero
        ((5.0,), (0.0, 2.0), 0),  # no boundary component
    ]
    for dirichlet, neumann, components in bad:
        with pytest.raises(ValidationError):
            CrossSectionSpectrum(dirichlet, neumann, components)
    sp = CrossSectionSpectrum([1, 2], [0, 0.5], boundary_components=2)
    assert (sp.dirichlet, sp.neumann, sp.boundary_components) == ((1.0, 2.0), (0.0, 0.5), 2)
    assert all(type(v) is float for v in sp.dirichlet + sp.neumann)
    assert CrossSectionSpectrum((5.0,), (0.0, 2.0)).boundary_components == 1


def test_requested_counts_honored():
    for count in (0, 1, 7, 23):
        assert len(_dirichlet(Rectangle(1.1, 0.9), count)) == count
        assert len(_neumann(Disk(0.7), count)) == count
    with pytest.raises(ValidationError):
        build_spectrum(Disk(0.7), 3, -1)
