"""Coefficient profile tests.

Closed-form derivatives are checked against central finite differences
on seeded random points, and the certified bounds against dense-grid
maxima that the certification never sees.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cylspec import cli
from cylspec.errors import ValidationError
from cylspec.profiles import (
    Constant,
    CosinePeriodic,
    GaussianBump,
    Periodic,
    ProfileSum,
    Sech2Bump,
    Stabilizing,
    essential_bounds,
    locate_product_excess,
    make_profile,
)


def _fd_derivative(fam, z, order, h=1e-5):
    if order == 1:
        return (fam.eval(z + h) - fam.eval(z - h)) / (2 * h)
    return (fam.eval(z + h) - 2 * fam.eval(z) + fam.eval(z - h)) / (h * h)


@pytest.mark.parametrize(
    "fam",
    [
        GaussianBump(1.0, 0.5, 0.3, 0.8),
        Sech2Bump(2.0, -0.4, -1.0, 1.3),
        CosinePeriodic(1.5, 0.3, 0.7),
        ProfileSum((Constant(1.0), GaussianBump(0.0, 0.2, 0.5, 1.1), Sech2Bump(0.0, 0.1, -0.2, 0.9))),
    ],
)
def test_derivatives_match_finite_differences(fam):
    rng = np.random.default_rng(3)
    zs = rng.uniform(-3.0, 3.0, size=40)
    for order in (1, 2):
        got = np.asarray(fam.eval(zs, order))
        ref = np.array([_fd_derivative(fam, z, order) for z in zs])
        assert np.allclose(got, ref, rtol=5e-5, atol=5e-5)


def test_gaussian_second_derivative_at_center_exact():
    fam = GaussianBump(1.0, 0.5, 0.0, 1.0)
    # amplitude * (4u^2 - 2) / width^2 at u = 0
    assert float(fam.eval(0.0, 2)) == pytest.approx(-1.0, abs=1e-15)


def test_constant_rejects_higher_orders():
    with pytest.raises(ValidationError):
        Constant(1.0).eval(0.0, 3)
    with pytest.raises(ValidationError):
        GaussianBump(1.0, 0.1, 0.0, 1.0).eval(0.0, 3)


def test_classification_auto_derivation():
    p = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    assert isinstance(p.classification, Stabilizing)
    assert p.eps_limit == 1.0 and p.mu_limit == 1.0

    q = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(2.0))
    assert isinstance(q.classification, Periodic)
    assert q.period == 1.0


def test_periodic_component_period_must_divide():
    with pytest.raises(ValidationError):
        make_profile(CosinePeriodic(1.0, 0.1, 1.0), CosinePeriodic(1.0, 0.1, 0.7))
    # 0.5 divides 1.0, fine
    p = make_profile(CosinePeriodic(1.0, 0.1, 1.0), CosinePeriodic(1.0, 0.1, 0.5))
    assert p.period == 1.0


def test_longer_common_period_is_a_zero_amplitude_term():
    eps = CosinePeriodic(1.0, 0.3, 1.0)
    with pytest.raises(ValidationError, match="component period 0.4 does not divide"):
        make_profile(eps, CosinePeriodic(1.0, 0.1, 0.4))
    # 1.0 and 0.4 both divide 2.0, which a term of amplitude 0 makes the period
    mu = ProfileSum((CosinePeriodic(1.0, 0.1, 0.4), CosinePeriodic(0.0, 0.0, 2.0)))
    assert make_profile(eps, mu).period == 2.0


def test_positivity_floor_enforced():
    with pytest.raises(ValidationError):
        make_profile(Sech2Bump(1.0, -1.0, 0.0, 1.0), Constant(1.0))
    with pytest.raises(ValidationError):
        make_profile(CosinePeriodic(1.0, 1.0, 1.0), Constant(1.0))


def test_essential_bounds_exact_for_single_bump():
    p = make_profile(GaussianBump(1.0, 1.0, 0.0, 1.0), Constant(1.0))
    b = essential_bounds(p)
    assert b.eps_lower == 1.0
    assert b.eps_upper == 2.0
    assert b.mu_lower == b.mu_upper == 1.0
    assert b.product_sup == 2.0


def test_essential_bounds_exact_for_cosine():
    p = make_profile(CosinePeriodic(1.0, 0.3, 1.0), Constant(2.0))
    b = essential_bounds(p)
    assert b.product_sup == pytest.approx(2.6, rel=1e-14)
    assert b.eps_lower == pytest.approx(0.7, rel=1e-14)


def test_essential_bounds_cover_dense_sampling():
    rng = np.random.default_rng(5)
    eps = ProfileSum((Constant(1.0), GaussianBump(0.0, 0.4, 0.7, 0.9), Sech2Bump(0.0, 0.3, -0.5, 1.2)))
    mu = Sech2Bump(1.2, 0.25, 0.4, 0.8)
    p = make_profile(eps, mu)
    b = essential_bounds(p)
    zs = rng.uniform(-40.0, 40.0, size=200001)
    ev = np.asarray(eps.eval(zs))
    mv = np.asarray(mu.eval(zs))
    pad = 1e-12
    assert float(np.min(ev)) >= b.eps_lower - pad
    assert float(np.max(ev)) <= b.eps_upper + pad
    assert float(np.min(mv)) >= b.mu_lower - pad
    assert float(np.max(mv)) <= b.mu_upper + pad
    assert float(np.max(ev * mv)) <= b.product_sup + pad
    # the product bound carries Lipschitz padding: sound, and near-tight
    zf = np.linspace(-5.0, 5.0, 400001)
    prod = np.asarray(eps.eval(zf)) * np.asarray(mu.eval(zf))
    true_max = float(np.max(prod))
    assert b.product_sup >= true_max - pad
    assert b.product_sup <= true_max + 5e-3


def test_product_excess_witness_is_sound():
    p = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    res = locate_product_excess(p)
    assert res.exceeds_limit
    z = res.witness
    val = float(p.epsilon.eval(z)) * float(p.mu.eval(z))
    assert val > p.limit_product
    assert res.observed_max == pytest.approx(1.5, abs=1e-10)


def test_product_excess_absent_for_dip():
    p = make_profile(Sech2Bump(1.0, -0.3, 0.0, 1.0), Constant(1.0))
    res = locate_product_excess(p)
    assert not res.exceeds_limit
    assert res.witness is None


def test_swapped_exchanges_coefficients():
    p = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(2.0))
    q = p.swapped()
    zs = np.linspace(-2, 2, 9)
    assert np.array_equal(np.asarray(q.epsilon.eval(zs)), np.asarray(p.mu.eval(zs)))
    assert np.array_equal(np.asarray(q.mu.eval(zs)), np.asarray(p.epsilon.eval(zs)))
    assert q.eps_limit == p.mu_limit and q.mu_limit == p.eps_limit


def test_nested_sums_flatten():
    inner = ProfileSum((Constant(1.0), Constant(2.0)))
    outer = ProfileSum((inner, Constant(3.0)))
    assert all(not isinstance(t, ProfileSum) for t in outer.terms())
    assert float(outer.eval(0.0)) == pytest.approx(6.0, rel=1e-15)


# Inputs of the classification, the certified bounds, the product
# comparison and the dict shaper, with outputs pinned bit for bit as
# float hex strings: a refactor of the families must not move them.
_PIN_CASES = {
    "gaussian_eps": (GaussianBump(1.0, 0.6, 0.3, 0.9), Constant(1.5)),
    "gaussian_dip_mu": (Constant(2.0), GaussianBump(1.0, -0.4, -0.5, 1.2)),
    "sum3_eps_sech2_mu": (
        ProfileSum((Constant(1.0), GaussianBump(0.0, 0.4, 0.7, 0.9), Sech2Bump(0.0, 0.3, -0.5, 1.2))),
        Sech2Bump(1.2, 0.25, 0.4, 0.8),
    ),
    "sech2_eps_sum3_mu": (
        Sech2Bump(1.0, 0.5, 0.0, 1.0),
        ProfileSum((Constant(0.5), Sech2Bump(0.5, -0.2, 1.0, 0.6), GaussianBump(0.0, 0.35, -1.5, 0.7))),
    ),
    "constant_pair": (Constant(1.0), Constant(3.0)),
    "cosine2_eps_cosine_mu": (
        ProfileSum((Constant(1.0), CosinePeriodic(0.0, 0.2, 1.0), CosinePeriodic(0.0, 0.1, 0.5))),
        CosinePeriodic(2.0, 0.3, 1.0),
    ),
    "constant_eps_cosine2_mu": (
        Constant(1.5),
        ProfileSum((CosinePeriodic(1.0, 0.1, 0.5), CosinePeriodic(0.5, 0.2, 0.25))),
    ),
    "bump_plus_cosine_sum": (
        ProfileSum((GaussianBump(1.0, 0.2, 0.0, 1.0), CosinePeriodic(0.0, 0.1, 1.0))),
        Constant(1.0),
    ),
    "cosine_eps_bump_mu": (CosinePeriodic(1.0, 0.2, 1.0), Sech2Bump(1.0, 0.3, 0.0, 1.0)),
}

_PINNED = {
    "gaussian_eps": dict(
        dicts=(
            {"family": "gaussian_bump", "base": 1.0, "amplitude": 0.6, "center": 0.3, "width": 0.9},
            {"family": "constant", "value": 1.5},
        ),
        classification=("stabilizing", "0x1.0000000000000p+0", "0x1.8000000000000p+0"),
        excess=(True, "0x1.3333339b0a356p-2", "0x1.3333333333333p+1", "0x1.8000000000000p+0"),
        bounds=(
            "0x1.0000000000000p+0", "0x1.999999999999ap+0", "0x1.8000000000000p+0",
            "0x1.8000000000000p+0", "0x1.3333333333334p+1",
        ),
    ),
    "gaussian_dip_mu": dict(
        dicts=(
            {"family": "constant", "value": 2.0},
            {"family": "gaussian_bump", "base": 1.0, "amplitude": -0.4, "center": -0.5, "width": 1.2},
        ),
        classification=("stabilizing", "0x1.0000000000000p+1", "0x1.0000000000000p+0"),
        excess=(False, None, "0x1.0000000000000p+1", "0x1.0000000000000p+1"),
        bounds=(
            "0x1.0000000000000p+1", "0x1.0000000000000p+1", "0x1.3333333333333p-1",
            "0x1.0000000000000p+0", "0x1.0000000000000p+1",
        ),
    ),
    "sum3_eps_sech2_mu": dict(
        dicts=(
            {"family": "sum", "terms": [
                {"family": "constant", "value": 1.0},
                {"family": "gaussian_bump", "base": 0.0, "amplitude": 0.4, "center": 0.7, "width": 0.9},
                {"family": "sech2_bump", "base": 0.0, "amplitude": 0.3, "center": -0.5, "width": 1.2},
            ]},
            {"family": "sech2_bump", "base": 1.2, "amplitude": 0.25, "center": 0.4, "width": 0.8},
        ),
        classification=("stabilizing", "0x1.0000000000000p+0", "0x1.3333333333333p+0"),
        excess=(True, "0x1.cd6d3c9f2715ap-2", "0x1.1d9bc59487274p+1", "0x1.3333333333333p+0"),
        bounds=(
            "0x1.ffb7d085c79fcp-1", "0x1.8aa9d7e9650fcp+0", "0x1.3333333333333p+0",
            "0x1.7333333333333p+0", "0x1.1dc19a91bb591p+1",
        ),
    ),
    "sech2_eps_sum3_mu": dict(
        dicts=(
            {"family": "sech2_bump", "base": 1.0, "amplitude": 0.5, "center": 0.0, "width": 1.0},
            {"family": "sum", "terms": [
                {"family": "constant", "value": 0.5},
                {"family": "sech2_bump", "base": 0.5, "amplitude": -0.2, "center": 1.0, "width": 0.6},
                {"family": "gaussian_bump", "base": 0.0, "amplitude": 0.35, "center": -1.5, "width": 0.7},
            ]},
        ),
        classification=("stabilizing", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        excess=(True, "-0x1.4e3901c280626p+0", "0x1.7e0d66a9e3312p+0", "0x1.0000000000000p+0"),
        bounds=(
            "0x1.0000000000000p+0", "0x1.8000000000000p+0", "0x1.996baffd82d2bp-1",
            "0x1.59a4081e1d7d7p+0", "0x1.7e5e8e34aa82ep+0",
        ),
    ),
    "constant_pair": dict(
        dicts=(
            {"family": "constant", "value": 1.0},
            {"family": "constant", "value": 3.0},
        ),
        classification=("stabilizing", "0x1.0000000000000p+0", "0x1.8000000000000p+1"),
        excess=(False, None, "0x1.8000000000000p+1", "0x1.8000000000000p+1"),
        bounds=(
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.8000000000000p+1",
            "0x1.8000000000000p+1", "0x1.8000000000000p+1",
        ),
    ),
    "cosine2_eps_cosine_mu": dict(
        dicts=(
            {"family": "sum", "terms": [
                {"family": "constant", "value": 1.0},
                {"family": "cosine_periodic", "mean": 0.0, "amplitude": 0.2, "period": 1.0},
                {"family": "cosine_periodic", "mean": 0.0, "amplitude": 0.1, "period": 0.5},
            ]},
            {"family": "cosine_periodic", "mean": 2.0, "amplitude": 0.3, "period": 1.0},
        ),
        classification=("periodic", "0x1.0000000000000p+0"),
        bounds=(
            "0x1.b32af6f7d222ap-1", "0x1.4cd0eaf18dd8ep+0", "0x1.b333333333333p+0",
            "0x1.2666666666666p+1", "0x1.7ebf101adcff1p+1",
        ),
    ),
    "constant_eps_cosine2_mu": dict(
        dicts=(
            {"family": "constant", "value": 1.5},
            {"family": "sum", "terms": [
                {"family": "cosine_periodic", "mean": 1.0, "amplitude": 0.1, "period": 0.5},
                {"family": "cosine_periodic", "mean": 0.5, "amplitude": 0.2, "period": 0.25},
            ]},
        ),
        classification=("periodic", "0x1.0000000000000p-1"),
        bounds=(
            "0x1.8000000000000p+0", "0x1.8000000000000p+0", "0x1.4b2e0d860e0cbp+0",
            "0x1.ccd1f27abe1bep+0", "0x1.599d75dc0e94ep+1",
        ),
    ),
    "bump_plus_cosine_sum": dict(
        dicts=(
            {"family": "sum", "terms": [
                {"family": "gaussian_bump", "base": 1.0, "amplitude": 0.2, "center": 0.0, "width": 1.0},
                {"family": "cosine_periodic", "mean": 0.0, "amplitude": 0.1, "period": 1.0},
            ]},
            {"family": "constant", "value": 1.0},
        ),
        error=(
            "cannot classify profile: both families must be built from constants and bumps "
            "(stabilizing) or from constants and cosines (periodic)"
        ),
    ),
    "cosine_eps_bump_mu": dict(
        dicts=(
            {"family": "cosine_periodic", "mean": 1.0, "amplitude": 0.2, "period": 1.0},
            {"family": "sech2_bump", "base": 1.0, "amplitude": 0.3, "center": 0.0, "width": 1.0},
        ),
        error="mu: family Sech2Bump is not periodic",
    ),
}


def _hex(x):
    return None if x is None else float(x).hex()


@pytest.mark.parametrize("name", sorted(_PIN_CASES))
def test_pinned_classification_bounds_and_dicts(name):
    eps, mu = _PIN_CASES[name]
    want = _PINNED[name]
    for fam, doc in zip((eps, mu), want["dicts"]):
        assert cli._family(doc, "profile.epsilon") == fam
    if "error" in want:
        with pytest.raises(ValidationError) as info:
            make_profile(eps, mu)
        assert str(info.value) == want["error"]
        return
    p = make_profile(eps, mu)
    cls = p.classification
    if isinstance(cls, Stabilizing):
        assert ("stabilizing", _hex(cls.eps_limit), _hex(cls.mu_limit)) == want["classification"]
        r = locate_product_excess(p)
        got = (r.exceeds_limit, _hex(r.witness), _hex(r.observed_max), _hex(r.limit))
        assert got == want["excess"]
    else:
        assert ("periodic", _hex(cls.period)) == want["classification"]
    b = essential_bounds(p)
    got = tuple(_hex(x) for x in (b.eps_lower, b.eps_upper, b.mu_lower, b.mu_upper, b.product_sup))
    assert got == want["bounds"]
