"""Direct flux-form discretization tests.

This route never touches the travel-time transform, so its oracles are
closed-form box spectra plus one loose cross-check against the
transformed solver on a profile with genuine bound states.  Scaling laws
that hold exactly on both routes are checked on both.
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
from cylspec.weighted_operator import WeightedOperatorSpec, _pencil, weighted_eigenvalues


def _const_profile(eps, mu):
    return make_profile(Constant(eps), Constant(mu))


def _quotient(spec, p):
    """Weighted Rayleigh quotient of p at the interior nodes, read as
    q^T A q / q^T q with q = sqrt(mass) p on the symmetrized pencil A that
    weighted_eigenvalues solves."""
    diag, off, mass = _pencil(spec)
    q = np.sqrt(mass) * p
    aq = diag * q
    aq[1:] += off * q[:-1]
    aq[:-1] += off * q[1:]
    return float(q @ aq / (q @ q))


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


@pytest.mark.parametrize("s", [0.5, 0.7, 1.3, 2.0])
def test_axial_stretch_rescales_the_spectrum_on_both_routes(s):
    # z -> s z, with the bump centres and widths and both windows scaled
    # by s on the same grid, scales d/dz by 1/s, so E_s(c) = E(c s^2) / s^2
    # on each route.  Only the rounding of the scaled samples separates the
    # two sides (none for powers of two), far below the refinement
    # estimates (4e-7 and more)
    def routes(t, c):
        prof = make_profile(
            Sech2Bump(1.0, 0.5, 0.3 * t, 0.8 * t), Sech2Bump(1.0, 0.2, -0.4 * t, 1.1 * t)
        )
        data = build_transform(prof, essential_bounds(prof), window=(-25.0 * t, 25.0 * t))
        states = bound_states(build_potential(data, "el", c), 14.0 * t, 1500).eigenvalues
        direct = weighted_eigenvalues(WeightedOperatorSpec(prof, c, 14.0 * t, 1500), len(states))
        return np.array(states), np.array(direct.eigenvalues)

    for got, ref in zip(routes(s, 3.0), routes(1.0, 3.0 * s * s)):
        assert got.shape == ref.shape and got.size > 0
        assert np.max(np.abs(got - ref / (s * s)) / np.abs(got)) <= 1e-11


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
    data = build_transform(prof, essential_bounds(prof), window=(-20.0, 20.0))
    pot = build_potential(data, "el", lam)
    via_transform = bound_states(pot, 12.0, 4000)
    assert len(via_transform.eigenvalues) >= 1
    for i, e in enumerate(via_transform.eigenvalues):
        assert direct.eigenvalues[i] == pytest.approx(e, rel=1e-3)


def test_rayleigh_quotient_respects_universal_floor():
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.3, 0.7), Sech2Bump(1.0, 0.2, -0.5, 1.0))
    lam = 3.0
    spec = WeightedOperatorSpec(prof, lam, 10.0, 800)
    floor = lam / essential_bounds(prof).product_sup
    rng = np.random.default_rng(23)
    for _ in range(20):
        assert _quotient(spec, rng.standard_normal(spec.grid - 1)) >= floor - 1e-12
    # and the computed eigenvalues obey the same floor
    res = weighted_eigenvalues(spec, 5)
    assert all(e >= floor - 1e-10 for e in res.eigenvalues)


def test_eigenvector_quotient_matches_eigenvalue():
    # on the free box the exact eigenfunction's samples give a quotient
    # matching the discrete eigenvalue to discretization accuracy
    L = 8.0
    spec = WeightedOperatorSpec(_const_profile(1.0, 1.0), 0.0, L, 3000)
    zs = spec.nodes()[1:-1]
    v = np.cos(math.pi * zs / (2 * L))
    assert _quotient(spec, v) == pytest.approx((math.pi / (2 * L)) ** 2, rel=1e-5)


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
