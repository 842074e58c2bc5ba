"""Travel-time transform tests.

The forward map is checked against a fixed-order Gauss-Legendre value
computed here with no adaptive machinery, plus a frozen constant for
one specific profile.  Transported derivatives are compared with
central finite differences in the transformed variable.
"""

from __future__ import annotations

import numpy as np
import pytest

from cylspec.errors import TopologyError, ValidationError
from cylspec.liouville import build_potential, build_transform
from cylspec.profiles import (
    Constant,
    CosinePeriodic,
    GaussianBump,
    Sech2Bump,
    make_profile,
)

# integral_0^1 sqrt(1 + exp(-s^2)) ds, frozen from two independent
# quadratures agreeing to 7e-16
TRAVEL_TIME_AT_ONE = 1.3194285584541168


def _gl_integral(fun, a, b, n=200):
    x, w = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(w, fun(mid + half * x)))


def _identity_profile():
    return make_profile(Constant(1.0), Constant(1.0))


def _bump_profile():
    return make_profile(GaussianBump(1.0, 1.0, 0.0, 1.0), Constant(1.0))


def test_identity_profile_gives_identity_map():
    data = build_transform(_identity_profile(), window=(-3.0, 5.0))
    zs = np.linspace(-3.0, 5.0, 41)
    assert np.allclose(data.forward(zs), zs, atol=1e-13)
    assert np.allclose(data.inverse(zs), zs, atol=1e-13)
    assert data.y_lo == pytest.approx(-3.0, abs=1e-13)
    assert data.y_hi == pytest.approx(5.0, abs=1e-13)
    assert float(data.eta(1.0)) == 0.0
    assert float(data.curvature_term(1.0)) == 0.0


def test_forward_matches_fixed_quadrature():
    prof = _bump_profile()
    data = build_transform(prof, window=(-4.0, 4.0))
    got = data.forward(1.0)
    assert got == pytest.approx(TRAVEL_TIME_AT_ONE, abs=1e-12)

    def integrand(s):
        return np.sqrt(1.0 + np.exp(-(s * s)))

    for z in (-3.2, -0.7, 0.4, 2.9):
        ref = _gl_integral(integrand, 0.0, z)
        assert data.forward(z) == pytest.approx(ref, abs=1e-11)


def test_round_trip_inverse():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    rng = np.random.default_rng(7)
    ys = rng.uniform(data.y_lo, data.y_hi, size=200)
    back = data.forward(data.inverse(ys))
    assert np.max(np.abs(back - ys)) <= 1e-10


def test_transported_derivatives_match_finite_differences():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    rng = np.random.default_rng(11)
    ys = rng.uniform(data.y_lo + 0.5, data.y_hi - 0.5, size=25)
    h = 1e-5
    for fun in (data.eps_tilde, data.mu_tilde):
        d1 = np.asarray(fun(ys, 1))
        fd1 = (np.asarray(fun(ys + h)) - np.asarray(fun(ys - h))) / (2 * h)
        assert np.allclose(d1, fd1, rtol=1e-6, atol=1e-6)
        # second order against first differences of the analytic first
        # derivative; a raw second difference would amplify the inverse
        # map's 1e-12 value noise by 1/h^2
        d2 = np.asarray(fun(ys, 2))
        fd2 = (np.asarray(fun(ys + h, 1)) - np.asarray(fun(ys - h, 1))) / (2 * h)
        assert np.allclose(d2, fd2, rtol=1e-5, atol=1e-6)


def test_eta_prime_matches_finite_differences():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    ys = np.linspace(-2.0, 2.0, 21)
    h = 1e-5
    etp = np.asarray(data.eta_prime(ys))
    fd = (np.asarray(data.eta(ys + h)) - np.asarray(data.eta(ys - h))) / (2 * h)
    assert np.allclose(etp, fd, rtol=1e-5, atol=1e-7)


def test_swap_flips_eta_exactly():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    sw = data.swapped()
    ys = np.linspace(-3.0, 3.0, 31)
    assert np.array_equal(np.asarray(sw.eta(ys)), -np.asarray(data.eta(ys)))
    # curvature picks up the sign of eta' only
    cv = np.asarray(data.curvature_term(ys))
    cv_sw = np.asarray(sw.curvature_term(ys))
    etp = np.asarray(data.eta_prime(ys))
    assert np.allclose(cv_sw - cv, 2 * etp, rtol=1e-12, atol=1e-12)


def test_transported_coefficients_compose_with_forward_map():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    zs = np.linspace(-5.5, 5.5, 101)
    ys = np.asarray(data.forward(zs))
    # eps~(y(z)) = eps(z); only the inverse map's tolerance separates them
    assert np.allclose(np.asarray(data.eps_tilde(ys)), np.asarray(prof.epsilon.eval(zs)), atol=1e-10)
    assert np.allclose(np.asarray(data.mu_tilde(ys)), np.asarray(prof.mu.eval(zs)), atol=1e-10)
    prod = np.asarray(prof.epsilon.eval(zs)) * np.asarray(prof.mu.eval(zs))
    assert np.allclose(np.asarray(data.product_tilde(ys)), prod, atol=1e-10)


def test_periodic_transported_coefficients_inherit_travel_period():
    prof = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(1.0))
    data = build_transform(prof)
    b = data.period_b
    ys = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(
        np.asarray(data.eps_tilde(ys + b)), np.asarray(data.eps_tilde(ys)), atol=1e-10
    )


def test_electric_potential_matches_gauge_reconstruction():
    # rebuild V from finite differences of log nu and the transported
    # product, fully independent of the closed-form eta path
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    c = 3.0
    pot = build_potential(data, "el", c)
    ys = np.linspace(-3.0, 3.0, 61)
    h = 1e-4
    lognu = lambda y: np.log(np.asarray(data.nu(y)))
    eta_fd = (lognu(ys + h) - lognu(ys - h)) / (2 * h)
    eta_p_fd = (lognu(ys + h) - 2 * lognu(ys) + lognu(ys - h)) / (h * h)
    v_fd = eta_fd**2 - eta_p_fd + c / np.asarray(data.product_tilde(ys))
    assert np.allclose(np.asarray(pot.values(ys)), v_fd, atol=5e-5)


def test_forward_slope_within_coefficient_bounds():
    prof = make_profile(GaussianBump(1.0, 1.0, 0.0, 1.0), Constant(1.0))
    data = build_transform(prof, window=(-4.0, 4.0))
    zs = np.linspace(-3.9, 3.9, 101)
    h = 1e-6
    slope = (np.asarray(data.forward(zs + h)) - np.asarray(data.forward(zs - h))) / (2 * h)
    assert np.all(slope >= np.sqrt(1.0) - 1e-6)
    assert np.all(slope <= np.sqrt(2.0) + 1e-6)


def test_periodic_extension():
    prof = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(1.0))
    data = build_transform(prof)
    b = data.period_b
    assert b is not None and b > 0
    rng = np.random.default_rng(13)
    zs = rng.uniform(-7.0, 7.0, size=50)
    lhs = np.asarray(data.forward(zs + 1.0))
    rhs = np.asarray(data.forward(zs)) + b
    assert np.allclose(lhs, rhs, atol=1e-11)
    ys = rng.uniform(-3 * b, 3 * b, size=50)
    back = np.asarray(data.forward(data.inverse(ys)))
    assert np.max(np.abs(back - ys)) <= 1e-10
    # potentials inherit the travel-time period
    pot = build_potential(data, "el", 2.0)
    vals = np.asarray(pot.values(ys))
    vals_shift = np.asarray(pot.values(ys + b))
    assert np.allclose(vals, vals_shift, atol=1e-9)


def test_window_validation():
    prof = _bump_profile()
    with pytest.raises(ValidationError):
        build_transform(prof)  # stabilizing needs a window
    with pytest.raises(ValidationError):
        build_transform(prof, window=(1.0, 2.0))  # must contain 0
    data = build_transform(prof, window=(-2.0, 2.0))
    with pytest.raises(ValidationError):
        data.forward(2.5)
    with pytest.raises(ValidationError):
        data.inverse(data.y_hi + 1.0)


def test_mode_potential_landmarks():
    prof = _bump_profile()  # eps in [1, 2], limit 1; mu = 1
    data = build_transform(prof, window=(-8.0, 8.0))
    pot = build_potential(data, "el", 3.0, index=1)
    assert pot.threshold == pytest.approx(3.0, rel=1e-15)
    assert pot.lower_bound == pytest.approx(1.5, rel=1e-15)
    assert pot.flavor == "el" and pot.index == 1
    # far from the bump the potential settles at the threshold
    assert float(pot.values(data.y_hi - 0.1)) == pytest.approx(3.0, abs=1e-6)

    swapped = build_potential(data, "m", 3.0)
    assert swapped.threshold == pytest.approx(3.0, rel=1e-15)
    assert swapped.lower_bound == pytest.approx(1.5, rel=1e-15)


def test_magnetic_potential_is_electric_on_swapped_profile():
    prof = make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )
    data = build_transform(prof, window=(-6.0, 6.0))
    pot_m = build_potential(data, "m", 4.0)
    ys = np.linspace(-2.5, 2.5, 41)
    # electric formula with eta -> -eta on the same transform
    et = np.asarray(data.eta(ys))
    etp = np.asarray(data.eta_prime(ys))
    prod = np.asarray(data.product_tilde(ys))
    expect = et * et + etp + 4.0 / prod
    assert np.allclose(np.asarray(pot_m.values(ys)), expect, rtol=1e-12, atol=1e-12)


def test_zero_flavor_rules():
    prof = _bump_profile()
    data = build_transform(prof, window=(-4.0, 4.0))
    with pytest.raises(TopologyError):
        build_potential(data, "zero", 0.0, n_boundary=1)
    with pytest.raises(ValidationError):
        build_potential(data, "zero", 1.0, n_boundary=2)
    pot = build_potential(data, "zero", 0.0, n_boundary=2)
    assert pot.threshold == 0.0
    assert pot.lower_bound == 0.0
    ys = np.linspace(-2.0, 2.0, 21)
    assert np.allclose(
        np.asarray(pot.values(ys)), np.asarray(data.curvature_term(ys)), atol=1e-14
    )


def test_unknown_flavor_rejected():
    data = build_transform(_bump_profile(), window=(-4.0, 4.0))
    with pytest.raises(ValidationError):
        build_potential(data, "both", 1.0)
    with pytest.raises(ValidationError):
        build_potential(data, "el", 0.0)


# ---------------------------------------------------------------------------
# the shared per-grid sample and the exact laws behind it
# ---------------------------------------------------------------------------


def _two_sided_profile():
    return make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )


def _periodic_two_sided_profile():
    return make_profile(CosinePeriodic(1.0, 0.3, 1.0), CosinePeriodic(1.5, 0.4, 1.0))


def test_swapped_inverse_is_bitwise_equal():
    data = build_transform(_two_sided_profile(), window=(-6.0, 6.0))
    ys = np.linspace(data.y_lo, data.y_hi, 301)
    assert np.array_equal(np.asarray(data.swapped().inverse(ys)), np.asarray(data.inverse(ys)))
    pdata = build_transform(_periodic_two_sided_profile())
    ys = np.linspace(-2.0 * pdata.period_b, 3.0 * pdata.period_b, 301)
    assert np.array_equal(
        np.asarray(pdata.swapped().inverse(ys)), np.asarray(pdata.inverse(ys))
    )


@pytest.mark.parametrize("c", [0.5, 3.0, 40.0])
def test_electric_potential_is_magnetic_of_swapped_profile(c):
    prof = _two_sided_profile()
    el = build_potential(build_transform(prof, window=(-6.0, 6.0)), "el", c)
    m = build_potential(build_transform(prof.swapped(), window=(-6.0, 6.0)), "m", c)
    ys = np.linspace(-3.0, 3.0, 61)
    assert np.array_equal(np.asarray(el.values(ys)), np.asarray(m.values(ys)))
    assert np.array_equal(el.on_grid(ys), m.on_grid(ys))
    assert el.threshold == m.threshold and el.lower_bound == m.lower_bound


@pytest.mark.parametrize("periodic", [False, True])
def test_shared_sample_matches_pointwise_values(periodic):
    if periodic:
        data = build_transform(_periodic_two_sided_profile())
        ys = np.linspace(0.0, data.period_b, 257)
    else:
        data = build_transform(_two_sided_profile(), window=(-6.0, 6.0))
        ys = np.linspace(-4.0, 4.0, 257)
    # the magnetic view fills the memo first, so the other two read it
    # with the triples exchanged
    pots = [
        build_potential(data, "m", 2.5),
        build_potential(data, "el", 2.5),
        build_potential(data, "zero", 0.0, n_boundary=2),
    ]
    for pot in pots:
        assert np.array_equal(pot.on_grid(ys), np.asarray(pot.values(ys)))
    assert len(data.samples) == 1
    assert data.swapped().samples is data.samples
    sample = data.sample(ys)
    assert np.array_equal(sample.ys, ys)
    assert np.array_equal(sample.z, np.asarray(data.inverse(ys)))
    with pytest.raises(ValueError):
        sample.e[0] = 0.0  # shared between modes, so read-only


def test_shared_sample_inverts_each_grid_once(monkeypatch):
    data = build_transform(_two_sided_profile(), window=(-6.0, 6.0))
    calls = []
    inverse = type(data).inverse

    def counted(self, y, *args, **kwargs):
        calls.append(np.size(y))
        return inverse(self, y, *args, **kwargs)

    monkeypatch.setattr(type(data), "inverse", counted)
    ys = np.linspace(-4.0, 4.0, 101)
    for c in (1.0, 2.0, 3.0):
        build_potential(data, "el", c).on_grid(ys)
        build_potential(data, "m", c).on_grid(ys)
        build_potential(data, "el", c).on_grid(ys.copy())  # same bytes
    assert calls == [101]
    build_potential(data, "el", 1.0).on_grid(ys[1:])  # another grid
    assert calls == [101, 100]
