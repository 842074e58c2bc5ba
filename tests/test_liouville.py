"""Travel-time transform tests.

The forward map is checked against a fixed-order Gauss-Legendre value
computed here with no adaptive machinery, plus a frozen constant for
one specific profile.  The curvature term of each flavor is compared
with phi''/phi, for the gauge factor phi = (mu/eps)^{1/4} (electric)
or (eps/mu)^{1/4} (magnetic), by finite differences in the transformed
variable, with eps and mu evaluated at z(y) directly rather than
through the transform's memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from cylspec import liouville
from cylspec.errors import TopologyError, ValidationError
from cylspec.liouville import build_potential, build_transform
from cylspec.profiles import (
    Constant,
    CosinePeriodic,
    GaussianBump,
    Sech2Bump,
    essential_bounds,
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


def _transform(prof, window=None):
    return build_transform(prof, essential_bounds(prof), window)


def _identity_profile():
    return make_profile(Constant(1.0), Constant(1.0))


def _bump_profile():
    return make_profile(GaussianBump(1.0, 1.0, 0.0, 1.0), Constant(1.0))


def _two_sided_profile():
    return make_profile(
        Sech2Bump(1.0, 0.8, 0.3, 0.6),
        GaussianBump(1.0, 0.5, -0.4, 1.1),
    )


def _periodic_two_sided_profile():
    return make_profile(CosinePeriodic(1.0, 0.3, 1.0), CosinePeriodic(1.5, 0.4, 1.0))


def _gauge(data, flavor):
    """phi(y) = (mu/eps)^{1/4} (electric) or (eps/mu)^{1/4} (magnetic) at z(y)."""
    prof = data.profile

    def phi(y):
        zs = np.asarray(data.inverse(y))
        ratio = np.asarray(prof.mu.eval(zs)) / np.asarray(prof.epsilon.eval(zs))
        return ratio ** (0.25 if flavor == "el" else -0.25)

    return phi


def _second_difference(f, ys, h):
    # five-point stencil: truncation O(h^4), so h can stay large enough
    # that the inverse map's 1e-13 value noise is not amplified by 1/h^2
    return (16.0 * (f(ys - h) + f(ys + h)) - (f(ys - 2 * h) + f(ys + 2 * h)) - 30.0 * f(ys)) / (
        12.0 * h * h
    )


def _gauge_curvature(data, flavor, ys, h=1e-3):
    """phi''/phi, which is eta^2 -/+ eta' for the electric/magnetic flavor."""
    phi = _gauge(data, flavor)
    return _second_difference(phi, ys, h) / phi(ys)


def test_identity_profile_gives_identity_map():
    data = _transform(_identity_profile(), (-3.0, 5.0))
    zs = np.linspace(-3.0, 5.0, 41)
    assert np.allclose(data.forward(zs), zs, atol=1e-13)
    assert np.allclose(data.inverse(zs), zs, atol=1e-13)
    assert data.y_lo == pytest.approx(-3.0, abs=1e-13)
    assert data.y_hi == pytest.approx(5.0, abs=1e-13)
    for flavor in ("el", "m"):
        assert float(build_potential(data, flavor, 1.0).curvature_term(1.0)) == 0.0


def test_forward_matches_fixed_quadrature():
    prof = _bump_profile()
    data = _transform(prof, (-4.0, 4.0))
    got = data.forward(1.0)
    assert got == pytest.approx(TRAVEL_TIME_AT_ONE, abs=1e-12)

    def integrand(s):
        return np.sqrt(1.0 + np.exp(-(s * s)))

    for z in (-3.2, -0.7, 0.4, 2.9):
        ref = _gl_integral(integrand, 0.0, z)
        assert data.forward(z) == pytest.approx(ref, abs=1e-11)


def test_round_trip_inverse():
    data = _transform(_two_sided_profile(), (-6.0, 6.0))
    rng = np.random.default_rng(7)
    ys = rng.uniform(data.y_lo, data.y_hi, size=200)
    back = data.forward(data.inverse(ys))
    assert np.max(np.abs(back - ys)) <= 1e-10


def test_transported_derivatives_match_finite_differences():
    # the curvature term holds every transported first and second
    # derivative of eps and mu
    data = _transform(_two_sided_profile(), (-6.0, 6.0))
    ys = np.linspace(-3.0, 3.0, 61)
    for flavor in ("el", "m"):
        cv = np.asarray(build_potential(data, flavor, 1.0).curvature_term(ys))
        assert np.allclose(cv, _gauge_curvature(data, flavor, ys), rtol=0.0, atol=1e-8), flavor


def test_eta_prime_matches_finite_differences():
    # the two flavors differ by the sign of eta' only, so half their
    # difference is eta' = (log phi_m)''
    data = _transform(_two_sided_profile(), (-6.0, 6.0))
    ys = np.linspace(-2.0, 2.0, 21)
    cv = {f: np.asarray(build_potential(data, f, 1.0).curvature_term(ys)) for f in ("el", "m")}
    phi = _gauge(data, "m")
    fd = _second_difference(lambda y: np.log(phi(y)), ys, 1e-3)
    assert np.allclose(0.5 * (cv["m"] - cv["el"]), fd, rtol=1e-5, atol=1e-7)


def test_swap_flips_eta_exactly():
    # eta -> -eta under the swap, so the two flavors' curvature terms
    # trade places bitwise
    for prof, window in ((_two_sided_profile(), (-6.0, 6.0)), (_periodic_two_sided_profile(), None)):
        data, sw = _transform(prof, window), _transform(prof.swapped(), window)
        ys = np.linspace(-3.0, 3.0, 31)
        for flavor, other in (("el", "m"), ("m", "el")):
            cv = np.asarray(build_potential(data, flavor, 1.0).curvature_term(ys))
            cv_sw = np.asarray(build_potential(sw, other, 1.0).curvature_term(ys))
            assert np.array_equal(cv_sw, cv), flavor


def _curvature_in_z(prof, zs, flavor):
    """phi_yy/phi written in z: with L = (log phi)_z and w = eps mu,
    dz/dy = 1/sqrt(w) gives (L_z + L^2 - L w_z / (2 w)) / w."""
    e, e1, e2 = (np.asarray(prof.epsilon.eval(zs, k)) for k in range(3))
    m, m1, m2 = (np.asarray(prof.mu.eval(zs, k)) for k in range(3))
    if flavor == "m":
        (e, e1, e2), (m, m1, m2) = (m, m1, m2), (e, e1, e2)
    slope = 0.25 * (m1 / m - e1 / e)
    slope_z = 0.25 * (m2 / m - (m1 / m) ** 2 - e2 / e + (e1 / e) ** 2)
    w, w_z = e * m, e1 * m + e * m1
    return (slope_z + slope * slope - slope * w_z / (2.0 * w)) / w


def test_transported_coefficients_compose_with_forward_map():
    prof = _two_sided_profile()
    data = _transform(prof, (-6.0, 6.0))
    zs = np.linspace(-5.5, 5.5, 101)
    ys = np.asarray(data.forward(zs))
    # V(y(z)) is a function of z alone; only the inverse map's tolerance
    # separates the two
    for flavor in ("el", "m"):
        cv = np.asarray(build_potential(data, flavor, 1.0).curvature_term(ys))
        assert np.allclose(cv, _curvature_in_z(prof, zs, flavor), rtol=0.0, atol=1e-10), flavor
    prod = np.asarray(prof.epsilon.eval(zs)) * np.asarray(prof.mu.eval(zs))
    assert np.allclose(np.asarray(data.product_tilde(ys)), prod, atol=1e-10)


def test_periodic_transported_coefficients_inherit_travel_period():
    data = _transform(_periodic_two_sided_profile())
    b = data.period_b
    ys = np.linspace(-2.0, 2.0, 41)
    for flavor in ("el", "m"):
        cv = build_potential(data, flavor, 1.0).curvature_term
        assert np.allclose(np.asarray(cv(ys + b)), np.asarray(cv(ys)), rtol=0.0, atol=1e-10)
    assert np.allclose(data.product_tilde(ys + b), data.product_tilde(ys), rtol=0.0, atol=1e-10)


def test_electric_potential_matches_gauge_reconstruction():
    # rebuild V from finite differences of the gauge factor and eps, mu
    # read at z(y), fully independent of the closed-form eta path
    prof = _two_sided_profile()
    data = _transform(prof, (-6.0, 6.0))
    c = 3.0
    pot = build_potential(data, "el", c)
    ys = np.linspace(-3.0, 3.0, 61)
    zs = np.asarray(data.inverse(ys))
    prod = np.asarray(prof.epsilon.eval(zs)) * np.asarray(prof.mu.eval(zs))
    v_fd = _gauge_curvature(data, "el", ys) + c / prod
    assert np.allclose(np.asarray(pot.values(ys)), v_fd, rtol=0.0, atol=1e-8)


# V at mode constant 3 on _two_sided_profile, where eps and mu both vary,
# so every eps and mu derivative term of the curvature is exercised; the
# golden configs all have constant mu
_PINNED_YS = (-1.7, -0.6, 0.0, 0.45, 1.9)
_PINNED_V = {
    "el": (2.3236748271515464, 1.441336154583014, 1.3903095106386545, 1.4829506438254647, 2.6357585037284568),
    "m": (2.393510736794225, 1.7821380004857252, 1.2045124027111176, 1.0147143169037451, 2.7968208009041855),
}


@pytest.mark.parametrize("flavor", sorted(_PINNED_V))
def test_potential_pinned_with_eps_and_mu_varying(flavor):
    pot = build_potential(_transform(_two_sided_profile(), (-6.0, 6.0)), flavor, 3.0)
    assert tuple(np.asarray(pot.values(np.array(_PINNED_YS))).tolist()) == _PINNED_V[flavor]
    assert tuple(pot.values(y) for y in _PINNED_YS) == _PINNED_V[flavor]


def test_forward_slope_within_coefficient_bounds():
    prof = make_profile(GaussianBump(1.0, 1.0, 0.0, 1.0), Constant(1.0))
    data = _transform(prof, (-4.0, 4.0))
    zs = np.linspace(-3.9, 3.9, 101)
    h = 1e-6
    slope = (np.asarray(data.forward(zs + h)) - np.asarray(data.forward(zs - h))) / (2 * h)
    assert np.all(slope >= np.sqrt(1.0) - 1e-6)
    assert np.all(slope <= np.sqrt(2.0) + 1e-6)


def test_periodic_extension():
    prof = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(1.0))
    data = _transform(prof)
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
        _transform(prof)  # stabilizing needs a window
    with pytest.raises(ValidationError):
        _transform(prof, (1.0, 2.0))  # must contain 0
    data = _transform(prof, (-2.0, 2.0))
    with pytest.raises(ValidationError):
        data.forward(2.5)
    with pytest.raises(ValidationError):
        data.inverse(data.y_hi + 1.0)


def test_mode_potential_landmarks():
    prof = _bump_profile()  # eps in [1, 2], limit 1; mu = 1
    data = _transform(prof, (-8.0, 8.0))
    pot = build_potential(data, "el", 3.0)
    assert pot.threshold == pytest.approx(3.0, rel=1e-15)
    assert pot.lower_bound == pytest.approx(1.5, rel=1e-15)
    assert pot.flavor == "el" and pot.mode_constant == 3.0
    # far from the bump the potential settles at the threshold
    assert float(pot.values(data.y_hi - 0.1)) == pytest.approx(3.0, abs=1e-6)

    swapped = build_potential(data, "m", 3.0)
    assert swapped.threshold == pytest.approx(3.0, rel=1e-15)
    assert swapped.lower_bound == pytest.approx(1.5, rel=1e-15)


def test_magnetic_potential_is_electric_on_swapped_profile():
    prof = _two_sided_profile()
    data = _transform(prof, (-6.0, 6.0))
    pot_m = build_potential(data, "m", 4.0)
    pot_el = build_potential(_transform(prof.swapped(), (-6.0, 6.0)), "el", 4.0)
    ys = np.linspace(-2.5, 2.5, 41)
    vals = np.asarray(pot_m.values(ys))
    assert np.array_equal(vals, np.asarray(pot_el.values(ys)))
    curv = np.asarray(pot_m.curvature_term(ys))
    prod = np.asarray(data.product_tilde(ys))
    assert np.allclose(vals, curv + 4.0 / prod, rtol=1e-12, atol=1e-12)


def test_zero_flavor_rules():
    prof = _bump_profile()
    data = _transform(prof, (-4.0, 4.0))
    with pytest.raises(TopologyError):
        build_potential(data, "zero", 0.0, n_boundary=1)
    with pytest.raises(ValidationError):
        build_potential(data, "zero", 1.0, n_boundary=2)
    pot = build_potential(data, "zero", 0.0, n_boundary=2)
    assert pot.threshold == 0.0
    assert pot.lower_bound == 0.0
    ys = np.linspace(-2.0, 2.0, 21)
    # the electric potential at mode constant 0
    curv = build_potential(data, "el", 1.0).curvature_term(ys)
    assert np.array_equal(np.asarray(pot.values(ys)), np.asarray(curv))


def test_unknown_flavor_rejected():
    data = _transform(_bump_profile(), (-4.0, 4.0))
    with pytest.raises(ValidationError):
        build_potential(data, "both", 1.0)
    with pytest.raises(ValidationError):
        build_potential(data, "el", 0.0)


# ---------------------------------------------------------------------------
# the shared per-grid sample and the exact laws behind it
# ---------------------------------------------------------------------------


def test_inverse_stops_iterating_converged_points(monkeypatch):
    data = _transform(_periodic_two_sided_profile())
    ys = np.linspace(0.0, data.period_b, 5000, endpoint=False)
    calls = []
    evaluate = data.antiderivative.eval

    def counted(z):
        calls.append(np.size(z))
        return evaluate(z)

    monkeypatch.setattr(data.antiderivative, "eval", counted)
    zs = data.inverse(ys)
    # Newton meets the tolerance in a few steps; iterating every point
    # until the last one converged took 44 evaluations
    assert len(calls) <= 6
    residual = np.abs(evaluate(zs) - ys)
    assert np.max(residual) <= liouville._INVERSE_TOL * max(1.0, data.period_b)


def test_swapped_inverse_is_bitwise_equal():
    prof = _two_sided_profile()
    data = _transform(prof, (-6.0, 6.0))
    sw = _transform(prof.swapped(), (-6.0, 6.0))
    ys = np.linspace(data.y_lo, data.y_hi, 301)
    assert np.array_equal(np.asarray(sw.inverse(ys)), np.asarray(data.inverse(ys)))
    pprof = _periodic_two_sided_profile()
    pdata, psw = _transform(pprof), _transform(pprof.swapped())
    ys = np.linspace(-2.0 * pdata.period_b, 3.0 * pdata.period_b, 301)
    assert np.array_equal(np.asarray(psw.inverse(ys)), np.asarray(pdata.inverse(ys)))


@pytest.mark.parametrize("c", [0.5, 3.0, 40.0])
def test_electric_potential_is_magnetic_of_swapped_profile(c):
    prof = _two_sided_profile()
    el = build_potential(_transform(prof, (-6.0, 6.0)), "el", c)
    m = build_potential(_transform(prof.swapped(), (-6.0, 6.0)), "m", c)
    ys = np.linspace(-3.0, 3.0, 61)
    assert np.array_equal(np.asarray(el.values(ys)), np.asarray(m.values(ys)))
    assert el.threshold == m.threshold and el.lower_bound == m.lower_bound


@pytest.mark.parametrize("periodic", [False, True])
def test_shared_sample_matches_pointwise_values(periodic):
    prof = _periodic_two_sided_profile() if periodic else _two_sided_profile()

    def fresh(p=prof):
        if periodic:
            data = _transform(p)
            return data, np.linspace(0.0, data.period_b, 257)
        return _transform(p, (-6.0, 6.0)), np.linspace(-4.0, 4.0, 257)

    def pots(data):
        return {
            "m": build_potential(data, "m", 2.5),
            "el": build_potential(data, "el", 2.5),
            "zero": build_potential(data, "zero", 0.0, n_boundary=2),
        }

    cold = {}
    for flavor in ("m", "el", "zero"):
        data, ys = fresh()  # a memo this flavor fills itself
        cold[flavor] = pots(data)[flavor].values(ys)
    # the magnetic potential fills the memo first, so the other two read
    # it with the triples in their own roles; then the other way round
    for first in ("m", "el"):
        data, ys = fresh()
        warm = pots(data)
        for flavor in (first, "m", "el", "zero"):
            assert np.array_equal(warm[flavor].values(ys), cold[flavor]), (first, flavor)
        assert len(data.samples) == 1  # one entry serves every flavor
        for raw in (data._raw(ys), warm["m"]._raw(ys)):
            for a in raw:
                with pytest.raises(ValueError):
                    a[0] = 0.0  # shared between modes, so read-only
    # a transform of the swapped profile is a separate memo, in which the
    # two branches trade places bitwise
    sw, ys = fresh(prof.swapped())
    swapped = pots(sw)
    assert np.array_equal(swapped["el"].values(ys), cold["m"])
    assert np.array_equal(swapped["m"].values(ys), cold["el"])
    assert len(sw.samples) == 1


def test_shared_sample_inverts_each_grid_once(monkeypatch):
    data = _transform(_two_sided_profile(), (-6.0, 6.0))
    calls = []
    inverse = type(data).inverse

    def counted(self, y, *args, **kwargs):
        calls.append(np.size(y))
        return inverse(self, y, *args, **kwargs)

    monkeypatch.setattr(type(data), "inverse", counted)
    ys = np.linspace(-4.0, 4.0, 101)
    for c in (1.0, 2.0, 3.0):
        build_potential(data, "el", c).values(ys)
        build_potential(data, "m", c).values(ys)
        build_potential(data, "el", c).values(ys.copy())  # same bytes
    assert calls == [101]
    build_potential(data, "el", 1.0).values(ys[1:])  # another grid
    assert calls == [101, 100]
