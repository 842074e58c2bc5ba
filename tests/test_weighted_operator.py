"""Direct flux-form discretization tests.

This route never touches the travel-time transform, so its oracles are
closed-form box spectra plus one loose cross-check against the
transformed solver on a profile with genuine bound states.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylspec.errors import ValidationError
from cylspec.liouville import build_potential, build_transform
from cylspec.profiles import (
    Constant,
    GaussianBump,
    Sech2Bump,
    essential_bounds,
    make_profile,
)
from cylspec.schrodinger import bound_states
from cylspec.weighted_operator import (
    WeightedOperatorSpec,
    quadratic_form_value,
    weighted_eigenvalues,
)


def _const_profile(eps, mu):
    return make_profile(Constant(eps), Constant(mu))


def test_free_box_levels():
    L = 8.0
    spec = WeightedOperatorSpec(_const_profile(1.0, 1.0), 0.0, L, 4000)
    res = weighted_eigenvalues(spec, 4)
    for k, e in enumerate(res.eigenvalues, start=1):
        exact = (k * math.pi / (2 * L)) ** 2
        assert e == pytest.approx(exact, rel=1e-5)


def test_constant_coefficient_rescaling():
    # with eps = 4, mu = 1 every level of the free box divides by 4
    # after adding the mode term: E = ((k pi / 2L)^2 + c) / 4
    L = 6.0
    c = 2.0
    spec = WeightedOperatorSpec(_const_profile(4.0, 1.0), c, L, 5000)
    res = weighted_eigenvalues(spec, 3)
    for k, e in enumerate(res.eigenvalues, start=1):
        exact = ((k * math.pi / (2 * L)) ** 2 + c) / 4.0
        assert e == pytest.approx(exact, rel=1e-6)


def test_swapped_profile_swaps_roles():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.2, 0.8), Constant(2.0))
    a = weighted_eigenvalues(WeightedOperatorSpec(prof.swapped(), 3.0, 10.0, 2000), 2)
    b = weighted_eigenvalues(
        WeightedOperatorSpec(make_profile(Constant(2.0), Sech2Bump(1.0, 0.5, 0.2, 0.8)), 3.0, 10.0, 2000),
        2,
    )
    assert a.eigenvalues == b.eigenvalues


_bumps = st.builds(
    lambda shape, *args: shape(*args),
    st.sampled_from([GaussianBump, Sech2Bump]),
    st.floats(1.0, 2.0),  # base
    st.floats(-0.5, 1.0),  # amplitude
    st.floats(-2.0, 2.0),  # center
    st.floats(0.3, 2.0),  # width
)
_powers_of_two = st.integers(-2, 2).map(lambda k: 2.0**k)


def _scaled(bump, factor):
    return type(bump)(factor * bump.base, factor * bump.amplitude, bump.center, bump.width)


@given(_bumps, _bumps, _powers_of_two, _powers_of_two, st.sampled_from([0.0, 3.0]))
def test_eigenvalues_scale_with_eps_and_mu(eps, mu, alpha, beta, c):
    # eps -> alpha eps, mu -> beta mu divides the pencil by alpha beta;
    # for powers of two every entry, and so every eigenvalue, scales exactly
    spec = WeightedOperatorSpec(make_profile(eps, mu), c, 8.0, 400)
    scaled = WeightedOperatorSpec(make_profile(_scaled(eps, alpha), _scaled(mu, beta)), c, 8.0, 400)
    want = tuple(e / (alpha * beta) for e in weighted_eigenvalues(spec, 3).eigenvalues)
    assert weighted_eigenvalues(scaled, 3).eigenvalues == want


def test_second_order_convergence():
    L = 8.0
    exact = (math.pi / (2 * L)) ** 2
    errs = []
    for n in (500, 1000, 2000):
        spec = WeightedOperatorSpec(_const_profile(1.0, 1.0), 0.0, L, n)
        errs.append(abs(weighted_eigenvalues(spec, 1).eigenvalues[0] - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_agrees_with_transformed_solver_on_bound_states():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    lam = 5.0
    direct = weighted_eigenvalues(WeightedOperatorSpec(prof, lam, 14.0, 6000), 3)
    data = build_transform(prof, window=(-20.0, 20.0))
    pot = build_potential(data, "el", lam)
    via_transform = bound_states(pot, 12.0, 4000)
    assert via_transform.count >= 1
    for i, e in enumerate(via_transform.eigenvalues):
        assert direct.eigenvalues[i] == pytest.approx(e, rel=1e-3)


def test_rayleigh_quotient_respects_universal_floor():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.3, 0.7), Sech2Bump(1.0, 0.2, -0.5, 1.0))
    lam = 3.0
    spec = WeightedOperatorSpec(prof, lam, 10.0, 800)
    floor = lam / essential_bounds(prof).product_sup
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = rng.standard_normal(spec.grid - 1)
        fv = quadratic_form_value(spec, v)
        assert fv.quotient >= floor - 1e-12
        assert fv.mass > 0
        assert fv.form == pytest.approx(fv.quotient * fv.mass, rel=1e-12)
    # and the computed eigenvalues obey the same floor
    res = weighted_eigenvalues(spec, 5)
    assert all(e >= floor - 1e-10 for e in res.eigenvalues)


def test_eigenvector_quotient_matches_eigenvalue():
    # on the free box the exact eigenfunction's samples give a quotient
    # matching the discrete eigenvalue to discretization accuracy
    L = 8.0
    spec = WeightedOperatorSpec(_const_profile(1.0, 1.0), 0.0, L, 3000)
    zs = spec.interior()
    v = np.cos(math.pi * zs / (2 * L))
    fv = quadratic_form_value(spec, v)
    assert fv.quotient == pytest.approx((math.pi / (2 * L)) ** 2, rel=1e-5)


def test_validation_errors():
    prof = _const_profile(1.0, 1.0)
    with pytest.raises(ValidationError):
        WeightedOperatorSpec(prof, -1.0, 5.0, 100)
    with pytest.raises(ValidationError):
        WeightedOperatorSpec(prof, 1.0, 0.0, 100)
    with pytest.raises(ValidationError):
        WeightedOperatorSpec(prof, 1.0, 5.0, 8)
    spec = WeightedOperatorSpec(prof, 1.0, 5.0, 100)
    with pytest.raises(ValidationError):
        weighted_eigenvalues(spec, 0)
    with pytest.raises(ValidationError):
        weighted_eigenvalues(spec, 10_000)
    with pytest.raises(ValidationError):
        quadratic_form_value(spec, np.ones(7))
    with pytest.raises(ValidationError):
        quadratic_form_value(spec, np.zeros(spec.grid - 1))
