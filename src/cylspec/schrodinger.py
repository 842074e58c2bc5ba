"""Spectral routines for -u'' + V(y) u on the line.

Two regimes, matching the two profile classifications.

Stabilizing V (V -> threshold at both ends): the essential spectrum is
[threshold, inf) and everything below it is a finite set of bound
states.  These are computed from the three-point discretization on a
truncation window [-L, L] with Dirichlet ends, as eigenvalues of a
symmetric tridiagonal matrix.  Counts are certified independently by a
Sturm / LDL^T pivot count (the number of negative pivots of T - E
equals the number of eigenvalues below E), and each eigenvalue is
Richardson-refined from grids n and 2n: the scheme's error is C h^2 +
O(h^4), so E = (4 E_2n - E_n)/3 cancels the leading term.

Periodic V with period b: the spectrum is a union of bands whose edges
are characterized by the discriminant Delta(E), the trace of the one-
period transfer matrix M(E).  M is the product of closed-form steps of a
sixth-order Magnus propagator (Blanes, Casas & Ros 2000) on exact
samples of V, on the fewest steps (256 or more, doubling) that agree
with twice as many to the noise floor.  `discriminant` evaluates Delta
on such a propagator, for that step rule and for the edge search, edge
fit and gap test below.  The step count depends on V and e_max alone,
and each energy is propagated on its own, so Delta does not depend on
the batch it is evaluated in; |Delta| <= 2 exactly on the bands, and
det M = 1 identically (it is a Wronskian, and checked as such).  Band
edges are found by counting (Eastham 1973; Pryce 1993): gap k of the
band union holds exactly one Dirichlet eigenvalue mu_k of one period,
and the Pruefer angle of the solution with u(0) = 0,
u'(0) = 1, carried through the same propagator, counts the mu_k below
any energy.  A bracket search on the angle brackets every mu_k below
e_max; between mu_{k-1} and mu_k band k is the only set where |Delta|
<= 2, so its edges are the roots of Delta = +/-2 there, bracketed the
same way and each refined by a line fitted through samples around it.
Both are ITP searches (Oliveira & Takahashi 2020): superlinear on
these smooth functions, and never more than a few steps behind
bisection.  The edges are cross-validated against an independent
plane-wave Galerkin eigensolve of the periodic and antiperiodic
problems on one period: edge n of the band union is a
periodic eigenvalue for n odd and an antiperiodic one for n even,
alternating.  Gaps where |Delta| only touches 2 are reported as closed
gap points, not errors.

The variational upper bound drives the embedded-eigenvalue existence
test: for a trapezoid cutoff zeta supported where the slowness product
exceeds its limit by a definite margin (witness delta_1, delta_2), the
Rayleigh quotient drops below the essential-spectrum edge as soon as
the mode constant exceeds alpha / (2 delta_1 delta_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal

from .errors import (
    InvalidWitnessError,
    NumericalError,
    ResolutionError,
    ValidationError,
    WindowError,
)
from .liouville import LiouvilleData, ModePotential
from .profiles import Stabilizing, locate_product_excess

__all__ = [
    "BoundStateResult",
    "settle_residual",
    "bound_states",
    "count_below",
    "BandStructure",
    "band_structure",
    "VariationalBound",
    "variational_upper_bound",
    "Witness",
    "search_witness",
]

_GL64_NODES, _GL64_WEIGHTS = leggauss(64)
# delta1 steps of the variational witness search
_WITNESS_STEPS = 400

# |V - threshold| a stabilizing potential must stay below at the window
# ends before its bound states are computed on that window
SETTLE_TOL = 5e-9


# ---------------------------------------------------------------------------
# bound states (stabilizing case)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundStateResult:
    eigenvalues: tuple[float, ...]
    refinement_estimates: tuple[float, ...]
    window_halfwidth: float  # halfwidth L of [-L, L]
    grid: int  # finer grid (2n) behind the reported values


def _require_window(potential: ModePotential, halfwidth: float):
    if potential.period_b is not None:
        raise ValidationError("bound states apply to stabilizing potentials only")
    if potential.threshold is None:
        raise ValidationError("potential carries no threshold")
    pad = 1e-9 * max(1.0, halfwidth)
    if potential.y_lo > -halfwidth + pad or potential.y_hi < halfwidth - pad:
        raise WindowError(
            f"transform window [{potential.y_lo:.3f}, {potential.y_hi:.3f}] "
            f"does not cover [-{halfwidth}, {halfwidth}]"
        )


def settle_residual(potential: ModePotential, halfwidth: float) -> float:
    """max |V - threshold| at the window ends y = -L and y = L."""
    ends = potential.values(np.array([-halfwidth, halfwidth]))
    return float(np.max(np.abs(ends - potential.threshold)))


def _dirichlet_grid(potential: ModePotential, halfwidth: float, n: int):
    # interior nodes of [-L, L] with n subintervals
    h = 2.0 * halfwidth / n
    ys = -halfwidth + h * np.arange(1, n)
    vals = potential.values(ys)
    diag = 2.0 / (h * h) + vals
    off = np.full(n - 2, -1.0 / (h * h))
    return diag, off


def _eigs_below(diag, off, lower_bound: float, cutoff: float):
    gersh = float(np.min(diag)) - (2.0 * abs(off[0]) if len(off) else 0.0)
    vl = min(gersh, lower_bound) - 1.0
    if vl >= cutoff:
        return np.array([])
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(vl, cutoff))
    return w[w < cutoff]


def bound_states(
    potential: ModePotential,
    halfwidth: float,
    grid: int,
) -> BoundStateResult:
    """Eigenvalues strictly below the essential-spectrum edge.

    Validates that the potential has settled at the window ends, solves
    on grids `grid` and `2*grid`, certifies the count with a Sturm
    pivot count, and Richardson-extrapolates each matched pair.
    """
    _require_window(potential, halfwidth)
    if grid < 16:
        raise ValidationError("grid too coarse")
    thr = potential.threshold
    settle = settle_residual(potential, halfwidth)
    if settle >= SETTLE_TOL:
        raise WindowError(
            f"potential not settled at the window ends "
            f"(|V - threshold| = {settle:.3e} >= {SETTLE_TOL:.1e}); enlarge the window"
        )

    floor = potential.lower_bound
    coarse = _dirichlet_grid(potential, halfwidth, grid)
    fine = _dirichlet_grid(potential, halfwidth, 2 * grid)
    e_coarse = _eigs_below(*coarse, floor, thr)
    e_fine = _eigs_below(*fine, floor, thr)

    # certification: the LDL^T pivot count of the same fine matrix must agree
    certified = count_below(*fine, thr)
    if certified != len(e_fine):
        raise NumericalError(
            f"eigensolver found {len(e_fine)} states below threshold, "
            f"Sturm count says {certified}"
        )

    m = min(len(e_coarse), len(e_fine))
    pairs = []
    for i in range(len(e_fine)):
        if i < m:
            refined = e_fine[i] + (e_fine[i] - e_coarse[i]) / 3.0
            est = abs(e_fine[i] - e_coarse[i]) / 3.0
        else:
            # unmatched near-threshold state; keep the fine value with a
            # conservative bound (it sits within this distance of the edge)
            refined = e_fine[i]
            est = thr - e_fine[i]
        if refined < thr:
            pairs.append((float(refined), float(est)))
    pairs.sort()
    return BoundStateResult(
        eigenvalues=tuple(v for v, _ in pairs),
        refinement_estimates=tuple(e for _, e in pairs),
        window_halfwidth=float(halfwidth),
        grid=2 * grid,
    )


def count_below(diag: np.ndarray, off: np.ndarray, energy: float) -> int:
    """Sturm count: eigenvalues of the symmetric tridiagonal T = (diag,
    off) below `energy`.

    Counts negative pivots of the LDL^T factorization of T - energy,
    independent of the LAPACK eigensolver, so the two certify each
    other.  The recurrence runs on Python floats, which round exactly as
    numpy's float64 scalars do and cost a fraction of their time.
    """
    d, o, energy = diag.tolist(), off.tolist(), float(energy)
    cnt = 0
    q = d[0] - energy
    if q == 0.0:
        q = -1e-300
    if q < 0.0:
        cnt += 1
    for i in range(1, len(d)):
        q = d[i] - energy - o[i - 1] * o[i - 1] / q
        if q == 0.0:
            q = -1e-300
        if q < 0.0:
            cnt += 1
    return cnt


# ---------------------------------------------------------------------------
# discriminant and band structure (periodic case)
# ---------------------------------------------------------------------------


# Gauss-Legendre points of one propagator step, as fractions of the step
_GAUSS3 = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
# step-energy pairs per propagator chunk: bounds its memory, not the batch
_POINT_BUDGET = 1 << 15
# |Delta| - 2 below this is not a certified gap; the propagator takes
# the least step count whose Delta agrees with twice the steps to it
NOISE_FLOOR = 1e-10
# width of the bracket a band edge or Dirichlet eigenvalue is narrowed to
EDGE_TOL = 1e-10
# ITP truncation kappa1 = _ITP_KAPPA1 / w0 (with kappa2 = 2), and the
# steps n0 a bracket may take beyond bisection's count (see _itp)
_ITP_KAPPA1 = 0.2
_ITP_N0 = 8
# least share of its width a new point keeps from an end that has not moved
_FRESH_END = 1.0 / 64.0
# a tangency of |Delta| within this of 2 is reported as a closed gap
CLOSURE_TOL = 1e-8
# band edges of the two routes must agree to this; narrower gaps merge
CROSS_TOL = 1e-6
# |det M - 1| above this: the transfer matrix has lost its Wronskian
_WRONSKIAN_TOL = 1e-9
# |Delta| - 2 at a gap's midpoint up to this is a touch: a closed gap point
_TOUCH_TOL = 1e-12
# half-width of the samples a line is fitted through at each band edge;
# where Delta is flat its rounding noise moves the bracketed root more
_FIT_SPAN = 1e-7


def _period_grid(potential: ModePotential) -> np.ndarray:
    if potential.period_b is None:
        raise ValidationError("band structure applies to periodic potentials only")
    return np.linspace(0.0, potential.period_b, 4096, endpoint=False)


def _magnus_steps(potential: ModePotential, v_min: float, e_max: float):
    """Steps n per period, and the propagator on them, for energies up to
    e_max; v_min is min V on the period grid.

    n starts at max(256, 2 b sqrt(e_max - min V) / pi) and doubles while
    Delta on n and 2n steps differ by more than NOISE_FLOOR, relative to
    max(1, |Delta|), at 257 energies on [min V - 1, e_max]; a doubling
    that does not halve that drift raises NumericalError.  The least n
    guards band edges, which move by the error in Delta over |Delta'|: at
    128 steps an edge of the cosine mode el 2 pi^2 moved by 1.7e-10.  The
    floor keeps each step's rotation below pi/2 up to e_max, for counting.
    Both, and the drift, are invariant under V(y) -> V(y/s)/s^2, b -> s b,
    E -> E/s^2, so a rescaled problem takes the same steps.
    """
    turn = 2.0 * potential.period_b * math.sqrt(max(e_max - v_min, 0.0)) / math.pi
    n = 256
    while n < turn:
        n *= 2
    probe = np.linspace(v_min - 1.0, e_max, 257)
    prop = _propagator(potential, n)
    coarse, last = discriminant(prop, probe), math.inf
    while True:
        fine_prop = _propagator(potential, 2 * n)
        fine = discriminant(fine_prop, probe)
        drift = np.abs(coarse - fine) / np.maximum(1.0, np.abs(fine))
        worst = int(np.argmax(drift))
        if drift[worst] <= NOISE_FLOOR:
            return n, prop
        if not drift[worst] < 0.5 * last:
            raise NumericalError(
                f"discriminant not resolved below e_max = {e_max}: {n} and {2 * n} steps "
                f"differ by {drift[worst]:.3e} at E = {probe[worst]:.6g}, above the noise "
                f"floor {NOISE_FLOOR:.0e}, and doubling no longer halves that; lower e_max"
            )
        n, prop, coarse, last = 2 * n, fine_prop, fine, drift[worst]


def _propagator(potential: ModePotential, n: int):
    """One-period transfer matrices of a periodic potential, V sampled once.

    Sixth-order Magnus propagator on n equal steps (Blanes, Casas & Ros,
    BIT 40, 2000): on a step of length h with A_i = [[0, 1], [V_i - E,
    0]] at its three Gauss points, alpha_1 = h A_2, alpha_2 = sqrt(15) h
    (A_3 - A_1) / 3, alpha_3 = 10 h (A_3 - 2 A_2 + A_1) / 3, C_1 =
    [alpha_1, alpha_2], C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60 and Omega =
    alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]
    / 240.  alpha_2 and alpha_3 are multiples of [[0, 0], [1, 0]] that do
    not depend on E, so the commutators leave Omega = [[p, j], [k, -p]]
    with p and k affine in E and j constant, all computed once per
    potential.  Omega is traceless, so exp(Omega) = C I + S Omega in
    closed form, with C, S = cosh, sinh(r)/r or cos, sin(r)/r of r^2 =
    |det Omega|.  The returned function maps a batch of energies to the
    states (u, u', v, v')(b) of the columns started at (1, 0) and (0, 1),
    as a 4 x m array; with count=True a fifth row holds the lifted
    Pruefer angle of the second column (see _magnus_product).  Every
    energy is propagated on its own, so a value does not depend on the
    batch it came in.  n must be a power of two.
    """
    h = potential.period_b / n
    v = potential.values(h * (np.arange(n)[:, None] + _GAUSS3).ravel()).reshape(n, 3)
    d = (math.sqrt(15.0) / 3.0) * h * (v[:, 2] - v[:, 0])  # alpha_2 = d K
    g = (10.0 / 3.0) * h * (v[:, 2] - 2.0 * v[:, 1] + v[:, 0])  # alpha_3 = g K
    # the commutators in closed form, with q = V_2 - E:
    #   p = -h d / 12 + h^2 g d / 7200 + (h^3 d / 180) q
    #   j = h - h^2 g / 180 + h^3 d^2 / 3600
    #   k = g / 12 + h g^2 / 3600 - h d^2 / 120 + (h + h^2 g / 180 + h^3 d^2 / 3600) q
    # kept as (p0, p1, j, k0, k1) with p = p0 - p1 E and k = k0 - k1 E
    hd, hhd = h * d, h * h * d * d / 3600.0
    p1 = h * h * hd / 180.0
    k1 = h + h * h * g / 180.0 + h * hhd
    omega = (
        -hd / 12.0 + h * g * hd / 7200.0 + p1 * v[:, 1],  # p0
        p1,
        h - h * h * g / 180.0 + h * hhd,  # j
        g / 12.0 + h * g * g / 3600.0 - hd * d / 120.0 + k1 * v[:, 1],  # k0
        k1,
    )
    chunk = max(1, _POINT_BUDGET // n)

    def run(energies, count=False):
        es = np.atleast_1d(np.asarray(energies, dtype=float))
        out = np.empty((5 if count else 4, es.size))
        for i in range(0, es.size, chunk):
            out[:, i : i + chunk] = _magnus_product(omega, es[i : i + chunk], count)
        return out

    return run


def _magnus_product(omega, es, count=False):
    """Transfer matrices of the steps, multiplied pairwise.

    With count=True the lifted angle phi = atan2(u, u') of the column
    started at (0, 1) is carried through the same tree.  A step turns it
    by atan2(m01, m11) exactly while its rotation r stays below pi; the
    guard keeps r below pi/2.  For a product L R (R first), the lifted
    turns of two vectors under L differ by less than pi (in the universal
    cover of SL(2, R)), so the turn of R's image under L is the value of
    atan2(P01, P11) - theta_R nearest theta_L.
    """
    p0, p1, j, k0, k1 = omega
    od = p0[:, None] - p1[:, None] * es  # diagonal of Omega, one row per step
    ol = k0[:, None] - k1[:, None] * es  # lower corner
    w = od * od + j[:, None] * ol  # -det Omega
    osc = w < 0.0  # each element takes one branch, not both
    # r takes w's buffer and s * od takes od's: the leaves are the peak memory
    r = np.sqrt(np.abs(w, out=w), out=w)
    c, s = np.empty_like(r), np.empty_like(r)
    for part, cos, sin in ((osc, np.cos, np.sin), (~osc, np.cosh, np.sinh)):
        rp = r[part]
        c[part], s[part] = cos(rp), sin(rp)
    s = np.divide(s, r, out=np.ones_like(r), where=r > 0.0)
    od *= s
    m00, m01, m10, m11 = c + od, s * j[:, None], s * ol, c - od
    if count:
        if np.any(osc & (r >= 0.5 * math.pi)):
            raise NumericalError(
                f"propagator steps too long to count zeros at E = {float(np.max(es)):.6g}; "
                "lower e_max"
            )
        phi = np.arctan2(m01, m11)
    while m00.shape[0] > 1:  # multiply step 2j+1 onto step 2j, pairwise
        l00, l01, l10, l11 = m00[1::2], m01[1::2], m10[1::2], m11[1::2]
        r00, r01, r10, r11 = m00[0::2], m01[0::2], m10[0::2], m11[0::2]
        m00, m01 = l00 * r00 + l01 * r10, l00 * r01 + l01 * r11
        m10, m11 = l10 * r00 + l11 * r10, l10 * r01 + l11 * r11
        if count:
            turn = phi[0::2] + phi[1::2]
            off = np.arctan2(m01, m11) - turn
            phi = turn + (off - 2.0 * math.pi * np.round(off / (2.0 * math.pi)))
    rows = (m00[0], m10[0], m01[0], m11[0]) + ((phi[0],) if count else ())
    return np.stack(rows)


def _checked_trace(sf, energies) -> np.ndarray:
    """Delta = u(b) + v'(b) of the states propagated at each energy, after
    the Wronskian check; a failure names the worst energy and the largest
    transfer-matrix entry there."""
    drift = np.abs(sf[0] * sf[3] - sf[2] * sf[1] - 1.0)
    if np.any(drift > _WRONSKIAN_TOL):
        worst = int(np.argmax(drift))
        e = float(np.atleast_1d(energies)[worst])
        entry = float(np.max(np.abs(sf[:4, worst])))
        raise NumericalError(
            f"Wronskian drifted at E = {e:.6g}: |det - 1| = {drift[worst]:.3e}, "
            f"with transfer-matrix entries up to {entry:.3e}"
        )
    return sf[0] + sf[3]


def _dirichlet_angle(prop, energies):
    """Lifted Pruefer angle phi(b) of the column started at (0, 1), the
    Dirichlet eigenvalues of one period below each energy, and Delta.

    The column has one zero in (0, b) per Dirichlet eigenvalue below E
    (Sturm oscillation), and its Pruefer angle passes each multiple of
    pi upwards, so the count is ceil(phi(b) / pi) - 1.
    """
    sf = prop(energies, count=True)
    count = np.maximum(0, np.ceil(sf[4] / math.pi) - 1).astype(int)
    return sf[4], count, _checked_trace(sf, energies)


def discriminant(prop, energies) -> np.ndarray:
    """Delta(E), the trace of the one-period transfer matrix, at each of
    a batch of energies, on a propagator that _magnus_steps built."""
    return _checked_trace(prop(energies), energies)


def _galerkin_pair(v_hat: np.ndarray, b: float, e_max: float) -> np.ndarray:
    """Periodic and antiperiodic Galerkin matrices of V, from its Fourier
    coefficients v_hat on the period grid, in the basis exp(i (2 pi k +
    theta) y / b), |k| <= k_modes, with theta = 0 and pi."""
    k_modes = max(32, int(math.ceil(b * math.sqrt(max(e_max, 1.0)) / math.pi)) + 16)
    ks = np.arange(-k_modes, k_modes + 1)
    conv = v_hat[(ks[:, None] - ks[None, :]) % v_hat.size]
    qs = [(2.0 * np.pi * ks + theta) / b for theta in (0.0, np.pi)]
    return np.stack([conv + np.diag(q * q).astype(complex) for q in qs])


def _galerkin_eigs(samples, e_max: float) -> list:
    """(periodic, antiperiodic) Galerkin eigenvalues for each (period b,
    Fourier coefficients of V on the period grid), from one stacked
    eigvalsh call, and from none for no samples.  Each matrix is solved
    on its own, so a pair does not depend on the batch it came in."""
    if not samples:
        return []
    pairs = [_galerkin_pair(v_hat, b, e_max) for b, v_hat in samples]
    if len({m.shape for m in pairs}) > 1:
        raise ValidationError("plane-wave matrices differ in size; stack one period only")
    eigs = np.linalg.eigvalsh(np.concatenate(pairs))
    return [(eigs[2 * j], eigs[2 * j + 1]) for j in range(len(pairs))]


@dataclass(frozen=True)
class BandStructure:
    """Band decomposition of one periodic mode up to e_max.

    `bands` and `gaps` come from the discriminant route alone; a gap is
    listed only when Delta demonstrably leaves [-2, 2] inside it.  Gaps
    too narrow for that test at double precision (the excess of |Delta|
    over 2 scales like the squared gap width) appear in
    `unresolved_gaps` with edges taken from the eigenvalue route, and
    the corresponding `bands` entries run through them.
    `eigenvalue_band_edges` lists (lower, upper) per band from the
    interlaced periodic / antiperiodic eigenvalues, which stay sharp at
    any width; asymptotic edge statements should read them.
    `validation_max_dev` cannot fall below the plane-wave route's
    rounding, about 1e-11: its Galerkin matrix has norm near (2 pi
    k_modes / b)^2.
    """

    period: float  # travel time b of one period
    mean_potential: float
    e_max: float = field(metadata={"report": "omit"})
    bands: tuple[tuple[float, float], ...] = ()
    gaps: tuple[tuple[float, float], ...] = ()
    closed_gap_points: tuple[float, ...] = ()
    unresolved_gaps: tuple[tuple[float, float], ...] = ()
    eigenvalue_band_edges: tuple[tuple[float, float], ...] = ()
    validation_max_dev: float = 0.0


def _itp(fun, lo, hi, f_lo, f_hi):
    """Lockstep ITP search (Oliveira & Takahashi, ACM TOMS 47, 2020) of
    a batch of brackets, each narrowed until it is below EDGE_TOL wide.

    fun(es, i) returns, for energies es in brackets i, whether each
    passes the test and the test function f, negative where it passes;
    f_lo and f_hi are f at the ends, which the callers already hold.
    Each new point replaces `lo` where it passes and `hi` where it does
    not, so `lo` passes and `hi` fails on return; a bracket may run
    either way round.  The point is the regula falsi estimate from f at
    the two ends, moved towards the midpoint by kappa1 w^2 (w the
    bracket's width, kappa1 = _ITP_KAPPA1 / w0 with w0 its first width)
    and held within the ITP radius of the midpoint, so that a bracket
    takes at most n0 steps more than bisection; a bracket still wider
    than EDGE_TOL after that many steps raises NumericalError.  The
    values at the ends are forced to the sides the test gave them, so
    the estimate never leaves the bracket, and the value at an end kept
    twice in a row is halved (the Illinois rule), so that the estimate
    does not creep along a curved f, such as the shallow hump of
    sg Delta - 2 across a narrow gap.

    Two rules keep the point off the ends.  It stays 0.45 EDGE_TOL
    inside, so that once the estimate is good the next step lands across
    the root and closes the bracket.  And it stays _FRESH_END of the
    width away from an end that has not moved yet.  Where a Dirichlet
    eigenvalue sits on the far edge of its gap, f is zero up to rounding
    at the gap-side end as well, and the estimate is drawn to that end;
    a truncation shrinking like w^2 could then step over the whole gap
    into the stretch next to the end where rounding decides the test.
    A gap whose excess over 2 clears NOISE_FLOOR is about 1e5 times
    wider than that stretch, so steps that close in on the end by a
    factor of 64 at most land in the gap first.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    if not lo.size:
        return lo, hi
    f_lo, f_hi = np.minimum(f_lo, 0.0), np.maximum(f_hi, 0.0)
    w0 = np.abs(hi - lo)
    lo0, hi0 = lo.copy(), hi.copy()
    moved = np.zeros(lo.size, dtype=int)  # +1: lo moved last, -1: hi did
    # the least number of halvings that takes each bracket below EDGE_TOL
    halvings = np.floor(np.log2(np.maximum(w0, EDGE_TOL) / EDGE_TOL)) + 1.0
    cap = int(np.max(halvings)) + _ITP_N0
    todo = np.flatnonzero(w0 >= EDGE_TOL)
    for j in range(cap):
        if not todo.size:
            return lo, hi
        a, b, fa, fb, w = lo[todo], hi[todo], f_lo[todo], f_hi[todo], w0[todo]
        mid, width = 0.5 * (a + b), np.abs(b - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (a * fb - b * fa) / (fb - fa)
        x = np.where(np.isfinite(x), x, mid)
        side = np.sign(mid - x)
        trunc = _ITP_KAPPA1 * width * width / w
        x = np.where(trunc <= np.abs(mid - x), x + side * trunc, mid)
        # the radius keeps the width within w0 2^(n0 - j - 1) / 2 after this
        # step: the cap then leaves brackets half of EDGE_TOL wide in exact
        # arithmetic, and the other half absorbs the rounding of the points
        radius = np.maximum(w * 2.0 ** (_ITP_N0 - j - 2) - 0.5 * width, 0.0)
        x = np.where(np.abs(x - mid) <= radius, x, mid - side * radius)
        # a point keeps 0.45 EDGE_TOL from each end, and a share of the
        # width from an end that has not moved yet
        keep_a = np.where(a == lo0[todo], _FRESH_END * width, 0.0)
        keep_b = np.where(b == hi0[todo], _FRESH_END * width, 0.0)
        share = np.clip(
            (x - a) / (b - a),
            np.maximum(keep_a, 0.45 * EDGE_TOL) / width,
            1.0 - np.maximum(keep_b, 0.45 * EDGE_TOL) / width,
        )
        x = a + share * (b - a)
        passes, fx = fun(x, todo)
        # Illinois: an end kept twice in a row has its value halved
        step = np.where(passes, 1, -1)
        fa = np.where(step + moved[todo] == -2, 0.5 * fa, fa)
        fb = np.where(step + moved[todo] == 2, 0.5 * fb, fb)
        moved[todo] = step
        lo[todo], f_lo[todo] = np.where(passes, x, a), np.where(passes, np.minimum(fx, 0.0), fa)
        hi[todo], f_hi[todo] = np.where(passes, b, x), np.where(passes, fb, np.maximum(fx, 0.0))
        todo = todo[np.abs(hi[todo] - lo[todo]) >= EDGE_TOL]
    if todo.size:
        ends = np.concatenate((lo[todo], hi[todo]))
        raise NumericalError(
            f"{todo.size} band-edge brackets in [{ends.min():.6g}, {ends.max():.6g}] still "
            f"wider than EDGE_TOL = {EDGE_TOL:.0e} after {cap} steps"
        )
    return lo, hi


def merge_intervals(intervals, tol):
    """Sorted union of closed intervals; neighbours at most tol apart join."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo - out[-1][1] <= tol:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _join_uncertified(pairs, certified):
    """(lower, upper) pairs with pair k joined to the one before it when
    the gap between them is not certified (certified[k - 1] is False)."""
    out = []
    for k, (lo, hi) in enumerate(pairs):
        if 0 < k <= certified.size and not certified[k - 1]:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def band_structure(potentials: list[ModePotential], e_max: float) -> list[BandStructure]:
    """Band decomposition of each periodic potential up to e_max.

    Each potential is read once on the period grid.  All the plane-wave
    pairs go to LAPACK in one stacked eigvalsh call: the potentials of
    one run share the period and e_max, so their matrices share one size,
    and one call per run costs less CPU and wall time than one per mode
    under a threaded BLAS, whose workers busy-wait after each call
    returns.  A mode's result does not depend on the batch it came in.
    """
    vss = [pot.values(_period_grid(pot)) for pot in potentials]
    v_hats = [np.fft.fft(vs) / vs.size for vs in vss]
    refs = _galerkin_eigs([(p.period_b, v_hat) for p, v_hat in zip(potentials, v_hats)], e_max)
    lows, means = [float(np.min(vs)) for vs in vss], [float(np.real(v[0])) for v in v_hats]
    del vss, v_hats  # held through the counting, they cost up to 22k more page faults a run
    return [_mode_bands(*args, e_max) for args in zip(potentials, lows, means, refs)]


def _mode_bands(potential: ModePotential, v_min, mean_v, reference, e_max: float) -> BandStructure:
    """Band decomposition of one periodic mode up to e_max, found by
    counting, from min V and mean V on the period grid and its (periodic,
    antiperiodic) Galerkin eigenvalues.

    Gap k of the band union holds exactly one Dirichlet eigenvalue mu_k
    of one period; the Pruefer count K = N_D(e_max) says how many lie
    below e_max, and an ITP search on phi(b, E) - k pi, with the count
    deciding the side of each point, brackets mu_1 .. mu_K.  Between
    mu_{k-1} and mu_k (mu_0 = e_start) band k is the only set where
    |Delta| <= 2; with s = (-1)^(k-1) its lower edge is the one crossing
    of s Delta = 2 and its upper edge the one crossing of s Delta = -2
    there, bracketed for all bands in one lockstep ITP search on
    sg Delta - 2.  Each count bracket reaches the gap side of its edges,
    also where mu_k sits on an edge, as it does for every even
    potential.  Band K+1 exists when e_max is not in gap K.  The
    plane-wave eigenvalues are the independent check and must agree edge
    by edge to CROSS_TOL.
    """
    b = potential.period_b
    empty = BandStructure(period=float(b), mean_potential=mean_v, e_max=float(e_max))
    if not e_max > v_min:  # the potential lies wholly above e_max
        return empty

    _, prop = _magnus_steps(potential, v_min, e_max)

    # below V every propagator step is hyperbolic with positive entries, so
    # their product (det 1) has Delta > 2; the check catches a V that dips
    # more than 1 below v_min between its samples.  The same call counts K,
    # and its angles and traces are the values at the ends of both searches.
    e_start = v_min - 1.0
    (phi_start, phi_top), (_, k_gaps), (delta_start, delta_top) = _dirichlet_angle(
        prop, [e_start, e_max]
    )
    if not delta_start > 2.0:
        raise ResolutionError("could not find the region below the first band")

    # --- brackets [mu_lo, mu_hi] of the Dirichlet eigenvalues below e_max
    ks = np.arange(1, k_gaps + 1)

    def below_mu(es, i):  # fewer than k below, and phi(b) - k pi, increasing
        phi, below, _ = _dirichlet_angle(prop, es)
        return below < ks[i], phi - math.pi * ks[i]

    mu_lo, mu_hi = _itp(
        below_mu,
        np.full(k_gaps, e_start),
        np.full(k_gaps, e_max),
        phi_start - math.pi * ks,
        phi_top - math.pi * ks,
    )

    # --- band edges: test sg Delta < 2 holds on the band side of an edge
    top = (-1.0) ** k_gaps * float(delta_top)  # s Delta(e_max) of band K+1
    n_bands = k_gaps + int(top < 2.0)
    n_upper = n_bands - int(n_bands > k_gaps and top > -2.0)  # upper edges below e_max
    # energies (row 0) and Delta (row 1) at the ends of the count brackets
    delta_mu = discriminant(prop, np.concatenate((mu_lo, mu_hi)))
    lo_ends = np.array([[e_start, *mu_lo, e_max], [delta_start, *delta_mu[:k_gaps], delta_top]])
    hi_ends = np.array([[e_start, *mu_hi, e_max], [delta_start, *delta_mu[k_gaps:], delta_top]])
    s = (-1.0) ** np.arange(n_bands)
    sg = np.concatenate((s, -s[:n_upper]))

    def on_band(es, i):  # sg Delta - 2, negative on the band side
        f = sg[i] * discriminant(prop, es) - 2.0
        return f < 0.0, f

    band_ends = np.concatenate((lo_ends[:, 1 : n_bands + 1], hi_ends[:, :n_upper]), axis=1)
    gap_ends = np.concatenate((lo_ends[:, :n_bands], hi_ends[:, 1 : n_upper + 1]), axis=1)
    band_side, gap_side = _itp(
        on_band, band_ends[0], gap_ends[0], sg * band_ends[1] - 2.0, sg * gap_ends[1] - 2.0
    )
    edges = 0.5 * (band_side + gap_side)
    # the root of a line through 17 samples averages the rounding noise of
    # Delta; a root outside the samples is not trusted
    offs = np.linspace(-_FIT_SPAN, _FIT_SPAN, 17)
    fit = discriminant(prop, (edges[:, None] + offs).ravel()).reshape(-1, offs.size)
    g = sg[:, None] * fit - 2.0
    slope, icept = np.polyfit(offs, g.T, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = -icept / slope
    edges = np.where(np.abs(shift) <= _FIT_SPAN, edges + shift, edges)
    lower = edges[:n_bands]
    upper = np.append(edges[n_bands:], [e_max] * (n_bands - n_upper))

    # a gap is certified when |Delta| exceeds 2 by more than the noise
    # floor at its midpoint; one that only touches 2 is a closed point
    mids = 0.5 * (upper[:-1] + lower[1:])
    excess = -s[:-1] * discriminant(prop, mids) - 2.0
    certified = excess > NOISE_FLOOR
    closed_points = mids[~certified & (excess <= _TOUCH_TOL) & (excess >= -CLOSURE_TOL)]
    bands = _join_uncertified(zip(lower, upper), certified)
    gaps = [(upper[k], lower[k + 1]) for k in np.flatnonzero(certified)]

    # --- independent eigenvalue route -----------------------------------
    per, anti = reference
    # band k runs from a periodic to an antiperiodic eigenvalue for k odd,
    # the other way round for k even
    odd = np.arange(per.size) % 2 == 0
    lo_ref, hi_ref = np.where(odd, per, anti), np.where(odd, anti, per)
    ref_pairs = [(float(lo), float(hi)) for lo, hi in zip(lo_ref, hi_ref) if lo <= e_max]
    if not ref_pairs or not bands:
        if ref_pairs or bands:
            raise ResolutionError(
                "one route finds spectrum below e_max and the other does not: "
                f"discriminant bands {len(bands)}, eigenvalue bands {len(ref_pairs)}"
            )
        return empty

    # --- edge-by-edge agreement, the reference merged across the gaps the
    # discriminant cannot certify ------------------------------------------
    def edges(pairs):  # every lower edge, and the upper ones below e_max
        out = []
        for lo, hi in merge_intervals(pairs, CROSS_TOL):
            out += [lo, hi] if hi < e_max - 1e-12 else [lo]
        return out

    ref_flat, got_flat = edges(_join_uncertified(ref_pairs, certified)), edges(bands)
    if len(ref_flat) != len(got_flat):
        raise ResolutionError(
            f"edge count mismatch: discriminant route found {len(got_flat)} edges, "
            f"eigenvalue route implies {len(ref_flat)}"
        )
    max_dev = max((abs(a - r) for a, r in zip(got_flat, ref_flat)), default=0.0)
    if max_dev > CROSS_TOL:
        raise ResolutionError(
            f"band-edge cross-validation failed: max deviation {max_dev:.3e} > {CROSS_TOL:.1e}"
        )
    # an uncertified gap wider than CROSS_TOL on the eigenvalue route is
    # reported with that route's edges
    unresolved = [
        (ref_pairs[k][1], min(ref_pairs[k + 1][0], e_max))
        for k in np.flatnonzero(~certified)
        if k + 1 < len(ref_pairs) and ref_pairs[k + 1][0] - ref_pairs[k][1] > CROSS_TOL
    ]

    return BandStructure(
        period=float(b),
        bands=tuple((float(lo), float(hi)) for lo, hi in bands),
        gaps=tuple((float(lo), float(hi)) for lo, hi in gaps),
        closed_gap_points=tuple(float(x) for x in closed_points),
        unresolved_gaps=tuple((float(lo), float(hi)) for lo, hi in unresolved),
        eigenvalue_band_edges=tuple(ref_pairs),
        e_max=float(e_max),
        mean_potential=mean_v,
        validation_max_dev=float(max_dev),
    )


# ---------------------------------------------------------------------------
# variational upper bound (embedded eigenvalue machinery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    delta1: float
    delta2: float
    y0: float
    objective: float  # 2 delta1 delta2


@dataclass(frozen=True)
class VariationalBound:
    quotient: float  # h[zeta] / ||zeta||^2
    alpha: float
    lambda_threshold: float  # alpha / (2 delta1 delta2)
    norm_sq: float
    delta1: float
    delta2: float
    y0: float


def _segment_integral(fun, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid + half * _GL64_NODES
    return half * float(np.dot(_GL64_WEIGHTS, fun(xs)))


def search_witness(data: LiouvilleData) -> Witness:
    """Grid search maximizing 2 delta1 delta2 subject to the margin
    condition 1/(eps~ mu~) <= 1/(eps* mu*) - delta2 on |y - y0| < 2 delta1."""
    profile = data.profile
    if not isinstance(profile.classification, Stabilizing):
        raise InvalidWitnessError("witness search applies to stabilizing profiles")
    cmp_res = locate_product_excess(profile)
    if not cmp_res.exceeds_limit:
        raise InvalidWitnessError(
            "eps*mu never exceeds its limit product; no variational witness exists"
        )
    limit = profile.limit_product
    y0 = float(data.forward(cmp_res.witness))
    d1_max = 0.49 * min(y0 - data.y_lo, data.y_hi - y0)
    if d1_max <= 0:
        raise InvalidWitnessError("witness point sits at the edge of the window")
    ys = np.linspace(y0 - 2.0 * d1_max, y0 + 2.0 * d1_max, 8001)
    prod = np.asarray(data.product_tilde(ys))
    dist = np.abs(ys - y0)
    order = np.argsort(dist)
    run_min = np.minimum.accumulate(prod[order])
    dist_sorted = dist[order]

    best = None
    for i in range(1, _WITNESS_STEPS + 1):
        d1 = d1_max * i / _WITNESS_STEPS
        j = int(np.searchsorted(dist_sorted, 2.0 * d1, side="right")) - 1
        min_prod = float(run_min[j])
        d2 = 1.0 / limit - 1.0 / min_prod
        if d2 <= 0:
            continue
        obj = 2.0 * d1 * d2
        if best is None or obj > best[0]:
            best = (obj, d1, d2)
    if best is None:
        raise InvalidWitnessError("no delta1 with a positive margin on the grid")
    _, d1, d2 = best
    d2 *= 1.0 - 1e-9  # strictness guard against re-validation on a finer grid
    return Witness(delta1=float(d1), delta2=float(d2), y0=y0, objective=2.0 * d1 * d2)


def variational_upper_bound(
    potential: ModePotential, delta1: float, delta2: float, y0: float
) -> VariationalBound:
    """Rayleigh quotient of the trapezoid cutoff, with its sufficiency bound.

    zeta ramps linearly from 0 to 1 over [y0 - 2 delta1, y0 - delta1],
    holds 1 on |y - y0| <= delta1, ramps back down; alpha collects
    |zeta'|^2 and the curvature term.  Whenever the mode constant
    exceeds alpha / (2 delta1 delta2), the quotient provably drops
    below the essential-spectrum edge.
    """
    if potential.threshold is None:
        raise ValidationError("variational test applies to stabilizing potentials")
    if not (delta1 > 0 and delta2 > 0):
        raise InvalidWitnessError("delta1 and delta2 must be positive")
    data = potential.data
    limit = data.profile.limit_product
    lo, hi = y0 - 2.0 * delta1, y0 + 2.0 * delta1
    if lo < data.y_lo or hi > data.y_hi:
        raise WindowError("cutoff support leaves the transform window")

    ys = np.linspace(lo, hi, 4001)
    margin = 1.0 / limit - delta2
    inv_prod = 1.0 / np.asarray(data.product_tilde(ys))
    slack = 1e-13 * max(1.0, 1.0 / limit)
    if np.any(inv_prod > margin + slack):
        worst = float(np.max(inv_prod - margin))
        raise InvalidWitnessError(
            f"margin condition fails on the cutoff support (excess {worst:.3e})"
        )

    def zeta(y):
        up = np.clip((y - lo) / delta1, 0.0, 1.0)
        down = np.clip((hi - y) / delta1, 0.0, 1.0)
        return np.minimum(up, down)

    def curv_weighted(y):
        return np.asarray(potential.curvature_term(y)) * zeta(y) ** 2

    def invprod_weighted(y):
        return zeta(y) ** 2 / np.asarray(data.product_tilde(y))

    segs = [(lo, y0 - delta1), (y0 - delta1, y0 + delta1), (y0 + delta1, hi)]
    curv = sum(_segment_integral(curv_weighted, a, b) for a, b in segs)
    qint = sum(_segment_integral(invprod_weighted, a, b) for a, b in segs)
    alpha = 2.0 / delta1 + curv
    norm_sq = 8.0 * delta1 / 3.0
    quotient = (alpha + potential.mode_constant * qint) / norm_sq
    return VariationalBound(
        quotient=float(quotient),
        alpha=float(alpha),
        lambda_threshold=float(alpha / (2.0 * delta1 * delta2)),
        norm_sq=float(norm_sq),
        delta1=float(delta1),
        delta2=float(delta2),
        y0=float(y0),
    )


def __getattr__(name):
    # nothing here integrates ODEs, but the traced benchmark (bench/spans.py)
    # wraps this name; importing scipy.integrate on first use keeps it out
    # of every run's start-up
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
