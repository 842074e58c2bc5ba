"""1D solver tests against closed-form oracles.

The solvers only touch a small duck-typed surface of the potential
(values, threshold, lower_bound, period_b, window), so reflectionless
wells and a small cosine potential with known spectra stand in for the
full reduction stack.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import cylspec.assembly as assembly
import cylspec.schrodinger as schrodinger
from cylspec.cli import main
from cylspec.errors import (
    InvalidWitnessError,
    NumericalError,
    ResolutionError,
    ValidationError,
    WindowError,
)
from cylspec.liouville import ModePotential, build_potential, build_transform
from cylspec.profiles import Constant, CosinePeriodic, Sech2Bump, essential_bounds, make_profile
from cylspec.schrodinger import (
    band_structure,
    bound_states,
    count_below,
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
class _NarrowWell(_Well):
    """_Well about `centre`, `width` wide."""

    centre: float = 0.0
    width: float = 1.0

    def values(self, ys):
        arr = np.atleast_1d(np.asarray(ys, dtype=float))
        out = self.floor - self.strength * (1.0 / np.cosh((arr - self.centre) / self.width)) ** 2
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


@dataclass(frozen=True)
class _ShiftedV(_PeriodicV):
    """_PeriodicV plus a higher harmonic (the second by default) shifted in
    phase: V is even about no point, so each Dirichlet eigenvalue sits
    strictly inside its gap."""

    amp2: float = 0.4
    phase: float = 1.0
    harmonic: int = 2

    @property
    def lower_bound(self):
        return self.offset - abs(self.amp) - abs(self.amp2)

    def values(self, ys):
        arr = np.atleast_1d(np.asarray(ys, dtype=float))
        w = 2.0 * np.pi * arr / self.period
        out = self.offset + self.amp * np.cos(w)
        out += self.amp2 * np.cos(self.harmonic * w + self.phase)
        return out if np.ndim(ys) else float(out[0])


@dataclass(frozen=True)
class _Translated:
    """A periodic stand-in read at y + shift."""

    pot: _PeriodicV
    shift: float

    threshold = None

    @property
    def period_b(self):
        return self.pot.period_b

    def values(self, ys):
        return self.pot.values(np.asarray(ys, dtype=float) + self.shift)


# ---------------------------------------------------------------------------
# bound states
# ---------------------------------------------------------------------------


def test_barrier_has_no_bound_states():
    pot = _Well(floor=2.0, strength=-2.0)  # a bump, not a well
    res = bound_states(pot, 15.0, 2000)
    assert res.eigenvalues == ()


def test_reflectionless_single_level():
    pot = _Well(floor=5.0, strength=2.0)
    res = bound_states(pot, 15.0, 3000)
    assert len(res.eigenvalues) == 1
    e = res.eigenvalues[0]
    assert e == pytest.approx(4.0, abs=1e-6)
    assert res.refinement_estimates[0] < 1e-4


def test_reflectionless_two_levels():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 3000)
    assert len(res.eigenvalues) == 2
    assert res.eigenvalues[0] == pytest.approx(-4.0, abs=1e-6)
    assert res.eigenvalues[1] == pytest.approx(-1.0, abs=1e-6)


def test_refinement_estimate_bounds_true_error():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 1500)
    for got, exact, est in zip(res.eigenvalues, (-4.0, -1.0), res.refinement_estimates):
        assert abs(got - exact) <= 10.0 * est + 1e-12


def test_count_below_agrees_with_eigensolver():
    pot = _Well(floor=0.0, strength=6.0)
    res = bound_states(pot, 15.0, 2000)
    diag, off = schrodinger._dirichlet_grid(pot, 15.0, res.grid)
    assert count_below(diag, off, 0.0) == len(res.eigenvalues)
    assert count_below(diag, off, -2.5) == 1
    assert count_below(diag, off, -5.0) == 0


def test_count_below_matches_the_float64_recurrence():
    # the pivot recurrence on numpy float64 scalars is the reference;
    # small integer matrices hit exact zero pivots, which count as negative
    def reference(diag, off, energy):
        cnt, q = 0, diag[0] - energy
        for i in range(len(diag)):
            if i:
                q = diag[i] - energy - off[i - 1] * off[i - 1] / q
            if q == 0.0:
                q = -1e-300
            cnt += bool(q < 0.0)
        return cnt

    rng = np.random.default_rng(3)
    for _ in range(500):
        n = int(rng.integers(1, 10))
        diag = rng.integers(-3, 4, n).astype(float)
        off = rng.integers(-2, 3, n - 1).astype(float)
        energy = np.float64(rng.integers(-3, 4))
        assert count_below(diag, off, energy) == reference(diag, off, energy)


def _seeded(pot, grid):
    """The fine matrix of `grid` and the coarse states that seed it."""
    coarse = schrodinger._dirichlet_grid(pot, 15.0, grid)
    fine = schrodinger._dirichlet_grid(pot, 15.0, 2 * grid)
    return fine, schrodinger._eigs_below(*coarse, pot.lower_bound, pot.threshold)


@pytest.mark.parametrize("centre", [0.0, 1.3])
def test_refined_states_match_bisection_within_their_enclosures(centre):
    # a start vector of ones is even, so on the symmetric well it has no
    # component on the odd states; with it the refinement finds no
    # certificate on either well
    pot = _NarrowWell(floor=0.0, strength=24.0, centre=centre)
    fine, seeds = _seeded(pot, 1000)
    values, radii = schrodinger._refined(*fine, seeds, 0.0)
    want = schrodinger._eigs_below(*fine, pot.lower_bound, 0.0)
    assert len(values) == len(want) == 5
    assert np.all(np.abs(values - want) <= radii + 4e-11)


def _fine_solves(monkeypatch, pot, grid):
    """bound_states on `grid`, and the eigh_tridiagonal calls it made."""
    calls, solve = [], schrodinger.eigh_tridiagonal
    with monkeypatch.context() as m:
        m.setattr(schrodinger, "eigh_tridiagonal", lambda *a, **k: calls.append(1) or solve(*a, **k))
        return bound_states(pot, 15.0, grid), len(calls)


def _bisected(monkeypatch, pot, grid):
    """bound_states with both grids solved by bisection."""
    with monkeypatch.context() as m:
        m.setattr(schrodinger, "_refined", lambda *args: None)
        return bound_states(pot, 15.0, grid)


def test_refinement_replaces_the_fine_bisection(monkeypatch):
    pot = _Well(floor=0.0, strength=6.0)
    res, solves = _fine_solves(monkeypatch, pot, 500)
    assert solves == 1
    want = _bisected(monkeypatch, pot, 500).eigenvalues
    assert np.max(np.abs(np.subtract(res.eigenvalues, want))) <= 1e-10


def test_a_state_on_the_fine_grid_only_is_bisected(monkeypatch):
    # the spike sits between two coarse nodes, on a fine one: only the
    # fine grid binds it, so the count differs from the number of seeds
    pot = _NarrowWell(floor=0.0, strength=100.0, centre=0.15, width=0.04)
    fine, seeds = _seeded(pot, 100)
    assert len(seeds) == 0 and count_below(*fine, 0.0) == 1
    res, solves = _fine_solves(monkeypatch, pot, 100)
    assert solves == 2
    assert res == _bisected(monkeypatch, pot, 100)
    assert res.refinement_estimates == (-res.eigenvalues[0],)  # the unmatched branch


def test_overlapping_enclosures_fall_back_to_bisection(monkeypatch):
    # two copies of the lowest coarse state: both converge to one state
    pot = _Well(floor=0.0, strength=6.0)
    fine, seeds = _seeded(pot, 500)
    assert schrodinger._refined(*fine, seeds[[0, 0]], 0.0) is None
    below = schrodinger._eigs_below
    # the coarse matrix, 499 rows against 999, gives its lowest state twice
    doubled = lambda diag, *args: below(diag, *args)[[0, 0]] if diag.size < 600 else below(diag, *args)
    monkeypatch.setattr(schrodinger, "_eigs_below", doubled)
    res, solves = _fine_solves(monkeypatch, pot, 500)
    assert solves == 2
    assert res == _bisected(monkeypatch, pot, 500)


def test_a_seed_at_the_step_cap_falls_back_to_bisection(monkeypatch):
    # one Rayleigh-quotient step does not settle the seeds of grid 500
    pot = _Well(floor=0.0, strength=6.0)
    monkeypatch.setattr(schrodinger, "_RQI_STEPS", 1)
    res, solves = _fine_solves(monkeypatch, pot, 500)
    assert solves == 2
    assert res == _bisected(monkeypatch, pot, 500)


@pytest.mark.parametrize("case", ["zero_branch", "rectangle_bump"])
def test_golden_modes_take_one_bisection_each(case, monkeypatch, tmp_path):
    modes, solves = [], []
    solve, states = schrodinger.eigh_tridiagonal, assembly.bound_states
    monkeypatch.setattr(schrodinger, "eigh_tridiagonal", lambda *a, **k: solves.append(1) or solve(*a, **k))
    monkeypatch.setattr(assembly, "bound_states", lambda *a: modes.append(1) or states(*a))
    config = Path(__file__).resolve().parent / "golden" / case / "config.json"
    shutil.copy(config, tmp_path / "config.json")
    assert main(["run", str(tmp_path / "config.json")]) == 0
    assert len(solves) == len(modes) > 0


_REFINE = """
import sys
import numpy as np
import cylspec.schrodinger as s

class Well:
    def values(self, ys):
        return -24.0 / np.cosh(ys - 0.3) ** 2

coarse, fine = (s._dirichlet_grid(Well(), 15.0, n) for n in (10_001, 20_002))
values, radii = s._refined(*fine, s._eigs_below(*coarse, -25.0, 0.0), 0.0)
sys.stdout.write(str(fine[0].size) + " " + values.tobytes().hex() + radii.tobytes().hex())
"""


def test_refinement_does_not_depend_on_the_blas_thread_count():
    src = str(Path(schrodinger.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = [
        subprocess.run(
            [sys.executable, "-c", _REFINE],
            env={**base, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert out[0] == out[1]
    rows, bits = out[0].split()
    assert int(rows) >= 20_001 and len(bits) == 2 * 5 * 16


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
# transfer matrix and discriminant
# ---------------------------------------------------------------------------


def _transfer_matrices(pot, energies, e_max):
    """M(E) = [[u, v], [u', v']](b), read from the rows (u, u', v, v')(b)
    of the propagator that band_structure takes for pot up to e_max."""
    u, du, v, dv = _accepted(pot, e_max)[1](energies)
    return np.stack([[u, v], [du, dv]]).transpose(2, 0, 1)


def test_transfer_matrix_constant_potential_closed_form():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    ds = (0.5, 2.0, 9.0)
    m0, *ms, below = _transfer_matrices(pot, [c, *(c + d for d in ds), c - 1.5], c + 9.0)
    assert np.allclose(m0, [[1.0, b], [0.0, 1.0]], atol=1e-9)
    for d, m in zip(ds, ms):
        s = math.sqrt(d)
        expect = np.array(
            [
                [math.cos(b * s), math.sin(b * s) / s],
                [-s * math.sin(b * s), math.cos(b * s)],
            ]
        )
        assert np.allclose(m, expect, atol=1e-9)
    # below the potential floor the solutions grow hyperbolically
    s = math.sqrt(1.5)
    assert below[0][0] + below[1][1] == pytest.approx(2.0 * math.cosh(b * s), abs=1e-8)


def test_discriminant_constant_potential():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    es = c + np.linspace(0.1, 40.0, 37)
    got = schrodinger.discriminant(_accepted(pot, c + 40.0)[1], es)
    expect = 2.0 * np.cos(b * np.sqrt(es - c))
    assert np.allclose(got, expect, atol=1e-8)


def test_wronskian_preserved_at_random_energies():
    pot = _PeriodicV(offset=0.0, amp=0.3, period=math.pi)
    rng = np.random.default_rng(17)
    for m in _transfer_matrices(pot, rng.uniform(-1.0, 60.0, size=50), 60.0):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1.0) <= 1e-9


def _cosine_mode(mean=1.0, amplitude=0.3, mode_constant=2.0 * math.pi**2):
    prof = make_profile(CosinePeriodic(mean, amplitude, 1.0), Constant(1.0))
    return build_potential(build_transform(prof, essential_bounds(prof)), "el", mode_constant)


def test_wronskian_failure_names_the_energy_and_the_entry_size():
    # below the band of a high mode the transfer matrix grows to about
    # 1e4, and the drift of det from 1 then exceeds _WRONSKIAN_TOL; the
    # message says where and how large the matrix was
    pot = _cosine_mode(mode_constant=37.0 * math.pi**2)
    v_min = float(np.min(pot.values(schrodinger._period_grid(pot))))
    with pytest.raises(NumericalError) as info:
        schrodinger.discriminant(
            schrodinger._propagator([pot], [512]), np.linspace(v_min - 1.0, 400.0, 257)
        )
    msg = str(info.value)
    assert msg.startswith("Wronskian drifted at E = 284.43: |det - 1| = ")
    entry = float(msg.rsplit(" ", 1)[1])
    assert 1e3 < entry < 1e5


def _accepted(pot, e_max):
    """(steps, propagator) that band_structure takes for pot up to e_max."""
    n = band_structure([pot], e_max)[0].steps
    return n, schrodinger._propagator([pot], [n])


def test_discriminant_does_not_depend_on_the_batch():
    # below, across and above the potential's range, in more energies
    # than one propagator chunk holds
    pot = _cosine_mode()
    es = np.linspace(10.0, 300.0, 97)
    prop = _accepted(pot, 300.0)[1]
    batch = schrodinger.discriminant(prop, es)
    alone = np.array([schrodinger.discriminant(prop, [e])[0] for e in es])
    assert np.array_equal(batch, alone)


def test_mode_columns_match_single_mode_calls():
    # three modes on two step counts, each energy on its own mode's
    # column: below every potential (hyperbolic steps only) and far above
    # them (oscillatory only), and more energies than one _POINT_BUDGET
    # chunk holds on either step count.  Every value must equal the one
    # the mode's own propagator gives, in a batch and alone
    pots = [_cosine_mode(), _SHIFTED, _PeriodicV(offset=7.0, amp=1.5, period=math.pi)]
    steps = [256, 512, 256]
    rng = np.random.default_rng(3)
    es = rng.uniform(-3.0, 60.0, 600)
    modes = rng.integers(0, len(pots), es.size)
    assert es.min() < -2.0 and es.max() > 30.0
    prop = schrodinger._propagator(pots, steps)
    for count in (False, True):
        got = prop(es, modes, count)
        for i, (pot, n) in enumerate(zip(pots, steps)):
            mine = modes == i
            assert np.sum(mine) > schrodinger._POINT_BUDGET // n
            alone = schrodinger._propagator([pot], [n])
            assert np.array_equal(got[:, mine], alone(es[mine], count=count))
            one_by_one = [alone([e], count=count)[:, 0] for e in es[mine]]
            assert np.array_equal(got[:, mine], np.stack(one_by_one, axis=1))


def test_propagator_is_sixth_order():
    # a wrong coefficient in Omega lowers the order, and more steps can
    # hide that from the n-vs-2n check: against 4096 steps, the error in
    # Delta must fall by at least 40 per doubling (64 at sixth order)
    pot = _ShiftedV(offset=0.0, amp=0.8, period=math.pi, amp2=0.3)
    es = np.linspace(-2.1, 60.0, 257)

    def trace(n):
        return schrodinger.discriminant(schrodinger._propagator([pot], [n]), es)

    ref = trace(4096)
    errs = [np.max(np.abs(trace(n) - ref) / np.maximum(1.0, np.abs(ref))) for n in (32, 64, 128)]
    assert errs[0] > 1e-9  # well above rounding, so the ratios measure the step
    assert errs[0] / errs[1] >= 40.0 and errs[1] / errs[2] >= 40.0


def test_step_matches_the_commutator_formula():
    # the closed-form Omega against the commutators of Blanes, Casas & Ros
    # taken literally on 2 x 2 matrices; terms beyond sixth order, which
    # the order test cannot see, must match too
    pot = _ShiftedV(offset=0.0, amp=3.0, period=math.pi, amp2=1.5)
    n = 16
    h = pot.period_b / n

    def comm(x, y):
        return x @ y - y @ x

    for e in (-5.0, 0.3, 7.0, 40.0):
        m = np.eye(2)
        for i in range(n):
            a = [
                np.array([[0.0, 1.0], [pot.values(h * (i + t)) - e, 0.0]])
                for t in schrodinger._GAUSS3
            ]
            a1 = h * a[1]
            a2 = math.sqrt(15.0) * h / 3.0 * (a[2] - a[0])
            a3 = 10.0 * h / 3.0 * (a[2] - 2.0 * a[1] + a[0])
            c1 = comm(a1, a2)
            c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
            m = expm(a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0) @ m
        sf = schrodinger._propagator([pot], [n])([e])[:, 0]
        got = np.array([[sf[0], sf[2]], [sf[1], sf[3]]])
        assert np.max(np.abs(got - m)) <= 1e-14 * np.max(np.abs(m))


_SHIFTED = _ShiftedV(offset=0.0, amp=0.6, period=math.pi)


@functools.cache
def _sine_galerkin_levels(pot, k_max=120):
    """Dirichlet eigenvalues of -u'' + V u on one period [0, b] in the
    basis sin(j pi y / b), j = 1..k_max, with Gauss-Legendre quadrature;
    independent of the propagator."""
    b = pot.period_b
    x, w = np.polynomial.legendre.leggauss(800)
    y, w = 0.5 * b * (x + 1.0), 0.5 * b * w
    j = np.arange(1, k_max + 1)
    sines = np.sin(np.outer(j, y) * (np.pi / b))
    h = (2.0 / b) * (sines * (w * np.asarray(pot.values(y)))) @ sines.T
    return np.linalg.eigvalsh(h + np.diag((j * np.pi / b) ** 2))


@functools.cache
def _count_case(name):
    pot, lo, hi = {"cosine": (_cosine_mode(), 0.0, 400.0), "shifted": (_SHIFTED, -1.0, 60.0)}[name]
    return pot, lo, hi, _accepted(pot, hi)[1]


@pytest.mark.parametrize("name", ["cosine", "shifted"])
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_dirichlet_count_matches_sine_galerkin(name, fractions):
    pot, lo, hi, prop = _count_case(name)
    levels = _sine_galerkin_levels(pot)
    es = lo + (hi - lo) * np.array(fractions)
    es = es[np.min(np.abs(es[:, None] - levels[None, :]), axis=1) > 1e-6]
    counts = schrodinger._dirichlet_angle(prop, es)[1]
    assert counts.tolist() == np.searchsorted(levels, es).tolist()
    # the angle, and so the count, does not depend on the batch
    angles = prop(es, count=True)[4]
    alone = [prop([e], count=True)[4, 0] for e in es]
    assert np.array_equal(angles, alone)
    assert counts.tolist() == [int(schrodinger._dirichlet_angle(prop, [e])[1][0]) for e in es]


# ---------------------------------------------------------------------------
# band structure
# ---------------------------------------------------------------------------


def test_constant_potential_band_structure():
    c, b = 0.7, 1.3
    pot = _PeriodicV(offset=c, amp=0.0, period=b)
    bs = band_structure([pot], 30.0)[0]
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
    bs = band_structure([pot], 3.0)[0]
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


def _fine_discriminant(pot, e_max):
    """Delta on twice the steps band_structure takes, so that a check
    reading it does not share the solver's step count."""
    prop = schrodinger._propagator([pot], [2 * _accepted(pot, e_max)[0]])
    return lambda es: schrodinger.discriminant(prop, es)


def test_eigenvalue_routes_interlace():
    pot = _PeriodicV(offset=0.0, amp=0.4, period=math.pi)
    bs = band_structure([pot], 9.0)[0]
    delta = _fine_discriminant(pot, 9.0)
    edges = bs.eigenvalue_band_edges
    assert len(edges) >= 3
    # classical edge ordering: p0 < a0 <= a1 < p1 <= p2 < a2 ..., band k
    # running (p, a) for k odd and (a, p) for k even
    flat = [e for pair in edges for e in pair]
    assert all(lo < hi for lo, hi in edges)
    assert all(hi <= lo for hi, lo in zip(flat[1::2], flat[2::2]))
    # a periodic eigenvalue has Delta = 2, an antiperiodic one Delta = -2
    for k, (lo, hi) in enumerate(edges, start=1):
        s = 1.0 if k % 2 else -1.0
        assert delta([lo, hi]) == pytest.approx([2.0 * s, -2.0 * s], abs=1e-6)


def test_bands_are_exactly_where_discriminant_is_small():
    pot = _PeriodicV(offset=0.0, amp=0.4, period=math.pi)
    bs = band_structure([pot], 9.0)[0]
    delta = _fine_discriminant(pot, 9.0)
    assert len(bs.bands) >= 2 and len(bs.gaps) >= 1
    for lo, hi in bs.bands:
        inner = np.linspace(lo, hi, 9)[1:-1]  # strictly interior
        assert np.all(np.abs(delta(inner)) <= 2.0 + 1e-9)
    for lo, hi in bs.gaps:
        assert abs(delta([0.5 * (lo + hi)])[0]) > 2.0


def test_gap_lengths_shrink_with_energy():
    pot = _PeriodicV(offset=0.0, amp=0.8, period=math.pi)
    bs = band_structure([pot], 40.0)[0]
    widths = [hi - lo for lo, hi in bs.gaps]
    assert len(widths) >= 3
    assert widths[0] > widths[-1]
    assert all(b < a * 1.05 for a, b in zip(widths, widths[1:]))


def test_potential_above_e_max_has_no_bands():
    pot = _PeriodicV(offset=10.0, amp=0.1, period=math.pi)
    bs = band_structure([pot], 5.0)[0]
    assert bs.bands == () and bs.gaps == () and bs.eigenvalue_band_edges == ()
    assert bs.mean_potential == pytest.approx(10.0, abs=1e-12)


def test_band_edges_scale_with_epsilon():
    # eps -> 4 eps at constant mu doubles the period and quarters the
    # potential, V4(y) = V(y / 2) / 4, so every energy scales by 1/4.  The
    # samples of V4 are exactly V / 4, and the n-vs-2n drift that picks
    # the step count is scale invariant, so both take the same steps and
    # the two discriminants agree bitwise up to the energy scale.  Only
    # the edge searches, each to its own EDGE_TOL bracket, separate the
    # edges, so the tolerance is EDGE_TOL.
    pot, pot4 = _cosine_mode(), _cosine_mode(mean=4.0, amplitude=1.2)
    assert _accepted(pot, 60.0)[0] == _accepted(pot4, 15.0)[0]
    bs, bs4 = band_structure([pot], 60.0)[0], band_structure([pot4], 15.0)[0]
    for name in ("bands", "gaps", "eigenvalue_band_edges"):
        got = np.asarray(getattr(bs4, name))
        ref = np.asarray(getattr(bs, name)) / 4.0
        assert got.shape == ref.shape and got.size > 0, name
        assert np.max(np.abs(got - ref)) <= schrodinger.EDGE_TOL, name


@pytest.mark.parametrize("s", [0.1, 0.37, 0.5])
@given(amp=st.floats(0.3, 1.0), amp2=st.floats(0.2, 0.6), phase=st.floats(0.3, 2.8))
def test_translation_leaves_band_edges_unchanged(s, amp, amp2, phase):
    # V(y + s b) has the same Delta as V, so the same bands on both routes
    pot = _ShiftedV(offset=0.0, amp=amp, period=math.pi, amp2=amp2, phase=phase)
    bs = band_structure([pot], 20.0)[0]
    moved = band_structure([_Translated(pot, s * math.pi)], 20.0)[0]
    tol = bs.validation_max_dev + moved.validation_max_dev + schrodinger.EDGE_TOL
    for name, bound in (("bands", tol), ("gaps", tol), ("eigenvalue_band_edges", 1e-9)):
        got, ref = np.asarray(getattr(moved, name)), np.asarray(getattr(bs, name))
        assert got.shape == ref.shape and got.size > 0, name
        assert np.max(np.abs(got - ref)) <= bound, name
    assert moved.closed_gap_points == bs.closed_gap_points == ()
    assert moved.unresolved_gaps == bs.unresolved_gaps == ()


def test_unresolved_discriminant_is_rejected(monkeypatch):
    # no step count meets a floor below rounding: once rounding dominates,
    # a doubling stops halving the n-vs-2n drift, and the rule gives up
    monkeypatch.setattr(schrodinger, "NOISE_FLOOR", 1e-30)
    t0 = time.perf_counter()
    with pytest.raises(NumericalError, match="e_max = 60.0.*no longer halves"):
        band_structure([_cosine_mode()], 60.0)[0]
    assert time.perf_counter() - t0 < 1.0


def test_step_count_drops_where_the_envelope_was_loose():
    # this mode took 512 steps under the (b^2 range V)^2 / n^6 envelope;
    # 256 already hold Delta to the noise floor
    assert _accepted(_cosine_mode(mode_constant=10.0 * math.pi**2), 110.0)[0] == 256


def test_step_count_is_the_least_power_of_two_that_meets_the_floor():
    # 24 ripples per period: 256 steps leave a drift of about 1e-9 where
    # the band structure is read, at the ends of the range, the band
    # edges and the gap midpoints that a search on that many steps finds
    pot = _ShiftedV(offset=0.0, amp=0.5, period=math.pi, amp2=2.0, harmonic=24)
    v_min = float(np.min(pot.values(schrodinger._period_grid(pot))))

    def drift(k):
        coarse = schrodinger._propagator([pot], [k])
        reads = schrodinger._discriminant_bands(coarse, [0], [v_min], 40.0)[0][5]
        fine = schrodinger.discriminant(schrodinger._propagator([pot], [2 * k]), reads)
        got = schrodinger.discriminant(coarse, reads)
        return np.max(np.abs(got - fine) / np.maximum(1.0, np.abs(fine)))

    n = band_structure([pot], 40.0)[0].steps
    assert n > 256
    assert drift(n // 2) > schrodinger.NOISE_FLOOR >= drift(n)


def test_edges_of_an_uneven_potential_match_the_eigenvalue_route():
    bs = band_structure([_SHIFTED], 30.0)[0]
    assert len(bs.bands) == 6 and len(bs.gaps) == 5
    assert bs.unresolved_gaps == () and bs.closed_gap_points == ()
    got = np.ravel(bs.bands)[:-1]  # the last band runs to e_max
    ref = np.ravel(bs.eigenvalue_band_edges)[:-1]
    assert np.max(np.abs(got - ref)) <= schrodinger.CROSS_TOL
    # each Dirichlet eigenvalue lies strictly inside its gap
    prop = _accepted(_SHIFTED, 30.0)[1]
    for k, (lo, hi) in enumerate(bs.gaps, start=1):
        assert schrodinger._dirichlet_angle(prop, [lo + 1e-6, hi - 1e-6])[1].tolist() == [k - 1, k]


def test_count_rejects_steps_that_turn_too_far(monkeypatch):
    # 256 steps over b = 1.3 turn by about h sqrt(E - 0.7) > pi / 2 near
    # E = 1e5, past the range where one step's angle is read from atan2
    monkeypatch.setattr(schrodinger, "_magnus_steps", lambda pot, v_min, e_max: 256)
    with pytest.raises(NumericalError, match="too long to count"):
        band_structure([_PeriodicV(offset=0.7, amp=0.0, period=1.3)], 1e5)[0]


def test_step_count_keeps_every_step_countable_up_to_e_max():
    # the floor n >= 2 b sqrt(e_max - min V) / pi keeps each step's turn
    # below pi / 2, so the same constant potential is counted to 1e5
    bs = band_structure([_PeriodicV(offset=0.7, amp=0.0, period=1.3)], 1e5)[0]
    assert len(bs.bands) == 1 and bs.gaps == () and bs.unresolved_gaps == ()
    assert bs.bands[0] == pytest.approx((0.7, 1e5), abs=1e-7)


def test_plane_wave_route_catches_a_dropped_band(monkeypatch):
    # e_max = 30 lies inside band 6 of the stand-in: a count that never
    # reaches the fifth Dirichlet eigenvalue loses the last gap
    angle = schrodinger._dirichlet_angle
    top = int(angle(_accepted(_SHIFTED, 30.0)[1], [30.0])[1][0])
    assert top == 5

    def capped(prop, es, modes=0):
        phi, below, trace = angle(prop, es, modes)
        return phi, np.minimum(below, top - 1), trace

    monkeypatch.setattr(schrodinger, "_dirichlet_angle", capped)
    with pytest.raises(ResolutionError, match="edge count mismatch"):
        band_structure([_SHIFTED], 30.0)[0]


def test_band_structure_work_is_bounded(monkeypatch):
    # a dense energy scan of this mode takes 10,736,640 step-energy
    # pairs; counting must take an eighth of that or less
    pairs = []
    product = schrodinger._magnus_product

    def counted(omega, es, cols, count=False):
        pairs.append(omega[0].shape[0] * np.size(es))
        return product(omega, es, cols, count)

    pot = _cosine_mode()
    monkeypatch.setattr(schrodinger, "_magnus_product", counted)
    band_structure([pot], 110.0)[0]
    assert sum(pairs) <= 10_736_640 // 8
    # the bracket searches stop a bracket once it is narrow enough, and
    # bisecting them all took 92 propagator calls
    assert len(pairs) <= 45


def test_step_check_reads_only_where_the_bands_are_read(monkeypatch, tmp_path):
    # the periodic golden config took 485,376 step-energy pairs while n was
    # checked against 2n at 257 evenly spaced energies; checking only the
    # energies the band structure is read at took 105,216, and 103,168
    # once n steps reuse the discriminant the search holds at all of them
    # but the fitted edges
    pairs = []
    product = schrodinger._magnus_product

    def counted(omega, es, cols, count=False):
        pairs.append(omega[0].shape[0] * np.size(es))
        return product(omega, es, cols, count)

    monkeypatch.setattr(schrodinger, "_magnus_product", counted)
    config = Path(__file__).resolve().parent / "golden" / "periodic_certificate" / "config.json"
    shutil.copy(config, tmp_path / "config.json")
    assert main(["run", str(tmp_path / "config.json")]) == 0
    assert 0 < sum(pairs) <= 103_168


def test_lockstep_rounds_share_their_magnus_products(monkeypatch, tmp_path):
    # the periodic golden config has two modes, both searched on 256 steps
    # and checked on 512; mode by mode they took 57 _magnus_product calls.
    # In lockstep a round is one propagator call for both modes: one stage,
    # or one step of a bracket search.  It makes one _magnus_product call
    # per step count among its energies, and one more per _POINT_BUDGET
    # chunk past the first.  Each round here has one step count, and at
    # 256 steps a chunk holds 128 energies, so only the line fits (17
    # energies at each of 11 edges) take two calls: calls <= rounds + 1.
    # The 29 rounds are 5 stages and 24 search steps (the steps of the
    # mode that needs most), so 30 calls, and the pairs do not change.
    # Delta at the fitted edges and at the gap midpoints is one stage
    pairs, rounds = [], []
    product, propagator = schrodinger._magnus_product, schrodinger._propagator

    def counted(omega, es, cols, count=False):
        pairs.append(omega[0].shape[0] * np.size(es))
        return product(omega, es, cols, count)

    def made(pots, steps):
        run = propagator(pots, steps)

        def counted_run(es, modes=0, count=False):
            rounds.append(np.size(es))
            return run(es, modes, count)

        return counted_run

    monkeypatch.setattr(schrodinger, "_magnus_product", counted)
    monkeypatch.setattr(schrodinger, "_propagator", made)
    config = Path(__file__).resolve().parent / "golden" / "periodic_certificate" / "config.json"
    shutil.copy(config, tmp_path / "config.json")
    assert main(["run", str(tmp_path / "config.json")]) == 0
    assert len(pairs) <= len(rounds) + 1
    assert len(pairs) <= 30
    assert 0 < sum(pairs) <= 103_168


def _miscounting(monkeypatch, high):
    """Make the first Dirichlet count on each propagator one higher at
    every energy of a potential pot on n steps with high(pot, n): the
    first count on 2n steps is the check of the n-step search at its
    read energies, e_max among them."""
    propagator = schrodinger._propagator

    def made(pots, steps):
        run, calls = propagator(pots, steps), []
        hit = np.array([bool(n) and high(pot, n) for pot, n in zip(pots, steps)])

        def first_count_high(es, modes=0, count=False):
            out = run(es, modes, count)
            if count and not calls:
                out[4, hit[np.broadcast_to(modes, out[4].shape)]] += math.pi
            calls.append(count)
            return out

        return first_count_high

    monkeypatch.setattr(schrodinger, "_propagator", made)


def test_step_count_doubles_when_twice_the_steps_count_otherwise(monkeypatch):
    # a count on 2n steps that differs from K rejects n even where Delta
    # agrees to the noise floor, and 2n steps are searched instead
    pot = _cosine_mode()
    assert band_structure([pot], 110.0)[0].steps == 256
    _miscounting(monkeypatch, lambda pot, n: n == 512)
    bs = band_structure([pot], 110.0)[0]
    assert bs.steps == 512
    assert len(bs.bands) == 3 and bs.validation_max_dev <= schrodinger.CROSS_TOL


def test_a_count_that_never_settles_is_rejected(monkeypatch):
    # Delta agrees at 256 and 512 steps but the count misses each time, as
    # it would with e_max on a Dirichlet eigenvalue to rounding
    _miscounting(monkeypatch, lambda pot, n: n >= 512)
    missed = "e_max = 110.0 changes from 256 to 512 and from 512 to 1024 steps"
    with pytest.raises(NumericalError, match=missed):
        band_structure([_cosine_mode()], 110.0)[0]


def _itp_steps(lo, hi):
    # the ITP bound: bisection's halvings below EDGE_TOL, plus n0
    halvings = math.floor(math.log2(abs(hi - lo) / schrodinger.EDGE_TOL)) + 1
    return halvings + schrodinger._ITP_N0


@pytest.mark.parametrize("rounding", [0.0, -1e-15])
def test_edge_search_finds_the_interior_root_past_a_zero_at_an_end(rounding):
    # f vanishes at the failing end 1 and at the root r, as sg Delta - 2
    # does across a gap whose Dirichlet eigenvalue sits on the far edge.
    # A rounding error of -1e-15 reads every point within 1e-9 of the end
    # as passing; the search must find the gap first and return r
    r = 1.0 - 1e-6
    calls = []

    def fun(es, i):
        f = (es - r) * (1.0 - es) + rounding
        calls.append(es.size)
        return f < 0.0, f

    lo, hi = schrodinger._itp(fun, [0.0], [1.0], [rounding - r], [rounding])
    assert hi[0] - lo[0] < schrodinger.EDGE_TOL
    assert abs(lo[0] - r) < 2e-9
    assert len(calls) <= _itp_steps(0.0, 1.0)
    # f is a shallow hump between r and the end; halving the value of an
    # end kept twice stops the estimate creeping along it (bisection
    # takes 34 steps here)
    assert len(calls) <= 20


def test_bracket_search_raises_when_a_bracket_cannot_narrow():
    # at 1e7 neighbouring doubles lie further apart than EDGE_TOL
    def fun(es, i):
        return es < 1e7 + 0.5, es - (1e7 + 0.5)

    with pytest.raises(NumericalError, match="EDGE_TOL"):
        schrodinger._itp(fun, [1e7], [1e7 + 1.0], [-0.5], [0.5])


def test_a_bracket_is_capped_by_its_own_group():
    # bracket 0 cannot narrow at 1e7 and must raise after its own cap,
    # bisection's 34 halvings plus n0, though bracket 1, 1e3 wide and in
    # another group, may take 10 more; in one group it takes that cap
    def fun(es, i):
        calls.append(es.size)
        root = np.where(i == 0, 1e7 + 0.5, 1e3 / 3.0)
        return es < root, es - root

    own, shared = _itp_steps(1e7, 1e7 + 1.0), _itp_steps(0.0, 1e3)
    assert shared > own
    for group, cap in (([0, 1], own), ([0, 0], shared)):
        calls = []
        lo, hi, f_lo, f_hi = [1e7, 0.0], [1e7 + 1.0, 1e3], [-0.5, -1e3 / 3.0], [0.5, 2e3 / 3.0]
        with pytest.raises(NumericalError, match=f"^1 band-edge brackets in .* after {cap} steps$"):
            schrodinger._itp(fun, lo, hi, f_lo, f_hi, group)
        assert len(calls) == cap


def test_band_structure_samples_the_potential_a_fixed_number_of_times(monkeypatch):
    reads = []
    values = ModePotential.values

    def counted(self, ys):
        reads.append(np.size(ys))
        return values(self, ys)

    pot = _cosine_mode()
    monkeypatch.setattr(ModePotential, "values", counted)
    band_structure([pot], 30.0)[0]
    few = len(reads)
    reads.clear()
    band_structure([pot], 110.0)[0]  # more bands, more energies
    assert len(reads) == few <= 3


def test_band_structure_does_not_depend_on_the_batch(monkeypatch):
    # six means on one period share a matrix size and so one stacked
    # eigensolve, and an empty list makes no call.  Searched in lockstep,
    # the 24-ripple mode settles at 512 steps while the others settle at
    # 256, one mode lies wholly above e_max, and the first has its count
    # check fail once, so it settles at 512 too
    miscounted = _PeriodicV(offset=0.0, amp=0.6, period=math.pi)
    pots = [
        miscounted,
        _ShiftedV(offset=2.5, amp=0.6, period=math.pi),
        _ShiftedV(offset=0.0, amp=0.5, period=math.pi, amp2=2.0, harmonic=24),
        _PeriodicV(offset=40.0, amp=1.0, period=math.pi),
        _PeriodicV(offset=7.0, amp=1.5, period=math.pi),
        _SHIFTED,
    ]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    _miscounting(monkeypatch, lambda pot, n: pot is miscounted and n == 512)
    stacked = band_structure(pots, 30.0)
    assert len(calls) == 1 and calls[0][0] == 2 * len(pots)
    assert band_structure([], 30.0) == [] and len(calls) == 1
    assert [bs.steps for bs in stacked] == [512, 256, 512, 0, 256, 256]
    assert stacked[3].bands == () and all(bs.bands for i, bs in enumerate(stacked) if i != 3)
    for pot, bs in zip(pots, stacked):
        assert band_structure([pot], 30.0)[0] == bs


def test_a_failing_batch_is_searched_once(monkeypatch):
    # the Wronskian check reads both failing modes in one lockstep call,
    # so the error does not depend on their order, and it is the error
    # one of them raises alone; the batch is searched once, not again
    # mode by mode
    good, a, b = (_cosine_mode(mode_constant=c * math.pi**2) for c in (2.0, 45.0, 50.0))
    alone = set()
    for pot in (a, b):
        with pytest.raises(NumericalError, match="Wronskian drifted") as info:
            band_structure([pot], 400.0)
        alone.add(str(info.value))
    searches = []
    search = schrodinger._discriminant_bands

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(schrodinger, "_discriminant_bands", counted)
    messages = []
    for batch in ([good, a, b], [good, b, a]):
        searches.clear()
        with pytest.raises(NumericalError) as info:
            band_structure(batch, 400.0)
        messages.append(str(info.value))
        assert len(searches) == 1
    assert messages[0] == messages[1]
    assert messages[0] in alone


def test_band_structure_rejects_mixed_periods(monkeypatch):
    # a period 20 times longer needs more plane waves below the same e_max,
    # so its matrices cannot share the stacked call; no eigensolve runs
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape))
    short = _PeriodicV(offset=0.0, amp=0.6, period=math.pi)
    long = _PeriodicV(offset=0.0, amp=0.6, period=20.0 * math.pi)
    with pytest.raises(ValidationError, match="differ in size"):
        band_structure([short, long], 30.0)
    assert calls == []


def test_band_structure_needs_periodicity():
    pot = _Well(floor=0.0, strength=2.0)
    with pytest.raises(ValidationError):
        band_structure([pot], 5.0)[0]


# ---------------------------------------------------------------------------
# variational witness machinery (needs the real transform stack)
# ---------------------------------------------------------------------------


def _excess_data(window=(-20.0, 20.0)):
    prof = make_profile(Sech2Bump(1.0, 0.5, 0.0, 1.0), Constant(1.0))
    return build_transform(prof, essential_bounds(prof), window=window)


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
    assert len(res.eigenvalues) >= 1
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
    data = build_transform(prof, essential_bounds(prof), window=(-15.0, 15.0))
    with pytest.raises(InvalidWitnessError):
        search_witness(data)
