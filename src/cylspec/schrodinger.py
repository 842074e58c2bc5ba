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
O(h^4), so E = (4 E_2n - E_n)/3 cancels the leading term.  Grid n is
solved by LAPACK bisection.  The states of grid 2n are refined from
those of grid n by inverse iteration and Rayleigh-quotient steps
(LAPACK dgtsv), and each refined value comes with a residual
enclosure; k disjoint enclosures below the threshold, for a Sturm
count of k, hold exactly one state each.  When the count differs from
the number of coarse states, or the enclosures fail, grid 2n is solved
by bisection as well.

Periodic V with period b: the spectrum is a union of bands whose edges
are characterized by the discriminant Delta(E), the trace of the one-
period transfer matrix M(E).  M is the product of closed-form steps of a
sixth-order Magnus propagator (Blanes, Casas & Ros 2000) on exact
samples of V.  The band structure is searched on n steps (256 or more,
doubling) and n is accepted once twice as many steps agree where the
result is read: Delta to the noise floor at the ends of the range, at
every band edge and at every gap midpoint, and the Dirichlet count at
e_max exactly.  `discriminant` evaluates Delta on such a propagator.
Each energy is propagated on its own, so Delta does not depend on the
batch it is evaluated in, and all of a run's modes are searched in
lockstep on one propagator, each energy on its own mode's steps;
|Delta| <= 2 exactly on the bands, and
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
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

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
# Rayleigh-quotient steps a seed may take after its two fixed-shift solves
_RQI_STEPS = 8
# fewest grid subintervals bound_states and the config reader accept
MIN_GRID = 16


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


def _refined(diag, off, seeds, cutoff):
    """Eigenvalues of T = (diag, off) refined from seeds near them, with
    the radius of an enclosure of each, or None without a certificate.

    Each seed takes two inverse-iteration solves at the seed itself, then
    Rayleigh-quotient steps until the quotient moves by at most 8 u ||T||
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4), every solve one
    LAPACK dgtsv.  A unit x with quotient theta has an eigenvalue of T
    within r = ||T x - theta x|| of theta.  The result, sorted, is
    returned only when every [theta - r, theta + r] lies below cutoff and
    no two of them meet; a singular solve or a seed still moving after
    _RQI_STEPS steps gives None.  The start vector cos(phi i^2), phi the
    golden ratio, is neither even nor odd, so a symmetric well's states
    of either parity are reached.  Every reduction is an np.sum of a
    product, so the result does not depend on the BLAS thread count.
    """
    tol = 8.0 * np.finfo(float).eps * (np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    i = np.arange(diag.size, dtype=float)
    start = np.cos(0.5 * (1.0 + math.sqrt(5.0)) * i * i)
    start /= math.sqrt(np.sum(start * start))
    values, radii = [], []
    for seed in seeds:
        x, shift, theta = start, float(seed), math.nan
        for step in range(2 + _RQI_STEPS):
            *_, y, info = dgtsv(off, diag - shift, off, x)
            if info != 0:
                return None
            yy = np.sum(y * y)
            # the quotient of y, from (T - shift) y = x
            last, theta = theta, shift + np.sum(x * y) / yy
            x = y / math.sqrt(yy)
            if step >= 2 and abs(theta - last) <= tol:
                break
            if step >= 1:
                shift = theta
        else:
            return None
        tx = diag * x
        tx[1:] += off * x[:-1]
        tx[:-1] += off * x[1:]
        theta = np.sum(x * tx)
        values.append(theta)
        radii.append(math.sqrt(np.sum((tx - theta * x) ** 2)))
    order = np.argsort(values)
    values, radii = np.array(values)[order], np.array(radii)[order]
    below = np.all(values + radii < cutoff)
    if below and np.all(values[1:] - radii[1:] > values[:-1] + radii[:-1]):
        return values, radii
    return None


def bound_states(
    potential: ModePotential,
    halfwidth: float,
    grid: int,
) -> BoundStateResult:
    """Eigenvalues strictly below the essential-spectrum edge.

    Validates that the potential has settled at the window ends, solves
    grid `grid` by bisection, counts the states of grid `2*grid` with a
    Sturm pivot count, and Richardson-extrapolates each matched pair.
    When that count equals the number of coarse states, the fine states
    are refined from the coarse ones (_refined) and accepted only with
    k disjoint enclosures below the threshold for the k counted states,
    which places exactly one state in each.  Otherwise, and whenever the
    refinement fails, the fine grid is solved by bisection as well and
    must find the counted number of states.
    """
    _require_window(potential, halfwidth)
    if grid < MIN_GRID:
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
    # certification: the LDL^T pivot count of the fine matrix
    certified = count_below(*fine, thr)
    enclosed = _refined(*fine, e_coarse, thr) if certified == len(e_coarse) else None
    if enclosed is not None:
        e_fine = enclosed[0]
    else:
        e_fine = _eigs_below(*fine, floor, thr)
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


def _magnus_steps(potential: ModePotential, v_min: float, e_max: float) -> int:
    """Steps n per period that the band search starts from for energies
    up to e_max; v_min is min V on the period grid.

    n is the least power of two >= max(256, 2 b sqrt(e_max - min V) /
    pi).  The floor keeps each step's rotation below pi/2 up to e_max,
    for counting.  The least n guards band edges, which move by the error
    in Delta over |Delta'|: at 128 steps an edge of the cosine mode el 2
    pi^2 moved by 1.7e-10.  _search_bands doubles n from here until 2n
    steps agree with n at every energy the band structure is read at.
    The rule, and that agreement, are invariant under V(y) -> V(y/s)/s^2,
    b -> s b, E -> E/s^2, so a rescaled problem takes the same steps.
    """
    turn = 2.0 * potential.period_b * math.sqrt(max(e_max - v_min, 0.0)) / math.pi
    n = 256
    while n < turn:
        n *= 2
    return n


def _omega(potential: ModePotential, n: int):
    """The coefficients (p0, p1, j, k0, k1) of Omega on n steps of one
    period, with p = p0 - p1 E and k = k0 - k1 E (see _propagator)."""
    h = potential.period_b / n
    v = potential.values(h * (np.arange(n)[:, None] + _GAUSS3).ravel()).reshape(n, 3)
    d = (math.sqrt(15.0) / 3.0) * h * (v[:, 2] - v[:, 0])  # alpha_2 = d K
    g = (10.0 / 3.0) * h * (v[:, 2] - 2.0 * v[:, 1] + v[:, 0])  # alpha_3 = g K
    # the commutators in closed form, with q = V_2 - E:
    #   p = -h d / 12 + h^2 g d / 7200 + (h^3 d / 180) q
    #   j = h - h^2 g / 180 + h^3 d^2 / 3600
    #   k = g / 12 + h g^2 / 3600 - h d^2 / 120 + (h + h^2 g / 180 + h^3 d^2 / 3600) q
    hd, hhd = h * d, h * h * d * d / 3600.0
    p1 = h * h * hd / 180.0
    k1 = h + h * h * g / 180.0 + h * hhd
    return (
        -hd / 12.0 + h * g * hd / 7200.0 + p1 * v[:, 1],  # p0
        p1,
        h - h * h * g / 180.0 + h * hhd,  # j
        g / 12.0 + h * g * g / 3600.0 - hd * d / 120.0 + k1 * v[:, 1],  # k0
        k1,
    )


def _propagator(potentials, steps):
    """One-period transfer matrices of periodic potentials, each sampled once.

    Sixth-order Magnus propagator on n equal steps (Blanes, Casas & Ros,
    BIT 40, 2000): on a step of length h with A_i = [[0, 1], [V_i - E,
    0]] at its three Gauss points, alpha_1 = h A_2, alpha_2 = sqrt(15) h
    (A_3 - A_1) / 3, alpha_3 = 10 h (A_3 - 2 A_2 + A_1) / 3, C_1 =
    [alpha_1, alpha_2], C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60 and Omega =
    alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]
    / 240.  alpha_2 and alpha_3 are multiples of [[0, 0], [1, 0]] that do
    not depend on E, so the commutators leave Omega = [[p, j], [k, -p]]
    with p and k affine in E and j constant, all computed once per
    potential (_omega).  Omega is traceless, so exp(Omega) = C I + S
    Omega in closed form, with C, S = cosh, sinh(r)/r or cos, sin(r)/r
    of r^2 = |det Omega|.

    Potential i takes steps[i] steps, a power of two, or is left out
    (and not sampled) where steps[i] is 0.  The coefficients of the
    potentials on one step count are stacked into steps x modes arrays,
    one column per mode.  The returned function maps a batch of
    energies, each with the index i of its potential (one index for the
    whole batch by default), to the states (u, u', v, v')(b) of the
    columns started at (1, 0) and (0, 1), as a 4 x m array; with
    count=True a fifth row holds the lifted Pruefer angle of the second
    column (see _magnus_product).  The energies of the modes on one step
    count share each _magnus_product call, up to _POINT_BUDGET
    step-energy pairs.  Every energy is propagated on its own, on its
    own mode's column, so a value does not depend on the batch it came
    in, nor on the other modes in it.
    """
    members: dict[int, list[int]] = {}
    for i, n in enumerate(steps):
        if n:
            members.setdefault(int(n), []).append(i)
    stacks = []
    for n, modes in members.items():
        column = np.full(len(steps), -1)  # of each potential in this stack
        column[modes] = np.arange(len(modes))
        coeffs = zip(*(_omega(potentials[i], n) for i in modes))
        stacks.append((n, column, tuple(np.stack(a, axis=1) for a in coeffs)))

    def run(energies, modes=0, count=False):
        es = np.atleast_1d(np.asarray(energies, dtype=float))
        mode = np.broadcast_to(modes, es.shape)
        out = np.empty((5 if count else 4, es.size))
        for n, column, omega in stacks:
            at = np.flatnonzero(column[mode] >= 0)
            chunk = max(1, _POINT_BUDGET // n)
            for i in range(0, at.size, chunk):
                part = at[i : i + chunk]
                out[:, part] = _magnus_product(omega, es[part], column[mode[part]], count)
        return out

    return run


def _magnus_product(omega, es, cols, count=False):
    """Transfer matrices of the steps, multiplied pairwise, for energy es[i]
    on column cols[i] of the steps x modes coefficients omega.

    Each energy gathers its own mode's column of leaves, and every
    operation after that is elementwise or runs along the steps, so a
    column of the result does not depend on the others in the call.
    With count=True the lifted angle phi = atan2(u, u') of the column
    started at (0, 1) is carried through the same tree.  A step turns it
    by atan2(m01, m11) exactly while its rotation r stays below pi; the
    guard keeps r below pi/2.  For a product L R (R first), the lifted
    turns of two vectors under L differ by less than pi (in the universal
    cover of SL(2, R)), so the turn of R's image under L is the value of
    atan2(P01, P11) - theta_R nearest theta_L.
    """
    p0, p1, j, k0, k1 = omega
    # the leaves are the peak memory: each product takes the buffer of an
    # operand it no longer needs, so a call holds about seven at once
    od = p1[:, cols]
    od *= es
    od = np.subtract(p0[:, cols], od, out=od)  # diagonal of Omega, one row per step
    ol = k1[:, cols]
    ol *= es
    ol = np.subtract(k0[:, cols], ol, out=ol)  # lower corner
    j = j[:, cols]
    w = od * od
    w += j * ol  # -det Omega
    osc = w < 0.0  # each element takes one branch, not both
    r = np.sqrt(np.abs(w, out=w), out=w)
    c, s = np.empty_like(r), np.empty_like(r)
    for part, cos, sin in ((osc, np.cos, np.sin), (~osc, np.cosh, np.sinh)):
        rp = r[part]
        c[part], s[part] = cos(rp), sin(rp)
    s = np.divide(s, r, out=np.ones_like(r), where=r > 0.0)
    od *= s
    m00, m01, m10 = c + od, np.multiply(j, s, out=j), np.multiply(ol, s, out=ol)
    m11 = np.subtract(c, od, out=c)
    del od, s
    if count:
        if np.any(osc & (r >= 0.5 * math.pi)):
            raise NumericalError(
                f"propagator steps too long to count zeros at E = {float(np.max(es)):.6g}; "
                "lower e_max"
            )
        phi = np.arctan2(m01, m11)
    del r, osc
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


def _dirichlet_angle(prop, energies, modes=0):
    """Lifted Pruefer angle phi(b) of the column started at (0, 1), the
    Dirichlet eigenvalues of one period below each energy, and Delta,
    each energy on the potential of its mode index.

    The column has one zero in (0, b) per Dirichlet eigenvalue below E
    (Sturm oscillation), and its Pruefer angle passes each multiple of
    pi upwards, so the count is ceil(phi(b) / pi) - 1.
    """
    sf = prop(energies, modes, count=True)
    count = np.maximum(0, np.ceil(sf[4] / math.pi) - 1).astype(int)
    return sf[4], count, _checked_trace(sf, energies)


def discriminant(prop, energies, modes=0) -> np.ndarray:
    """Delta(E), the trace of the one-period transfer matrix, at each of
    a batch of energies, on a propagator that _propagator built; each
    energy on the potential of its mode index (one for all by default)."""
    return _checked_trace(prop(energies, modes), energies)


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
    # propagator steps per period the discriminant route accepted; 0 when
    # the potential lies wholly above e_max
    steps: int = field(default=0, metadata={"report": "omit"})


def _itp(fun, lo, hi, f_lo, f_hi, group=0):
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
    takes at most n0 steps more than bisection takes on the widest
    bracket of its group (one mode's brackets); a bracket still wider
    than EDGE_TOL after that many steps raises NumericalError.  No value
    a bracket sees depends on the other brackets, nor, through the cap,
    on another group's, so each group gets the result it gets alone.  The
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
    # the least number of halvings that takes each bracket below EDGE_TOL,
    # and the steps each may take: n0 more than its group's widest needs
    halvings = np.floor(np.log2(np.maximum(w0, EDGE_TOL) / EDGE_TOL)) + 1.0
    group = np.broadcast_to(group, lo.shape)
    widest = np.zeros(int(np.max(group)) + 1)
    np.maximum.at(widest, group, halvings)
    cap = widest[group].astype(int) + _ITP_N0
    todo = np.flatnonzero(w0 >= EDGE_TOL)
    j = 0
    while todo.size:
        spent = todo[cap[todo] <= j]
        if spent.size:
            ends = np.concatenate((lo[spent], hi[spent]))
            raise NumericalError(
                f"{spent.size} band-edge brackets in [{ends.min():.6g}, {ends.max():.6g}] still "
                f"wider than EDGE_TOL = {EDGE_TOL:.0e} after {j} steps"
            )
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
        j += 1
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
    returns.  The discriminant route searches every mode in lockstep
    (_search_bands): each stage, and each step of a bracket search, is
    one propagator call for all modes, on stacked columns of their
    Magnus coefficients.  A mode's result does not depend on the batch
    it came in.
    """
    vss = [pot.values(_period_grid(pot)) for pot in potentials]
    v_hats = [np.fft.fft(vs) / vs.size for vs in vss]
    refs = _galerkin_eigs([(p.period_b, v_hat) for p, v_hat in zip(potentials, v_hats)], e_max)
    lows, means = [float(np.min(vs)) for vs in vss], [float(np.real(v[0])) for v in v_hats]
    del vss, v_hats  # held through the counting, they cost up to 22k more page faults a run
    found = _search_bands(potentials, lows, e_max)
    return [
        _mode_bands(pot, mean, ref, e_max, found.get(i))
        for i, (pot, mean, ref) in enumerate(zip(potentials, means, refs))
    ]


def _discriminant_bands(prop, modes, v_min, e_max: float):
    """Band edges up to e_max of each of `modes` (its index on one
    propagator, with min V on the period grid in v_min), found by
    counting and searched in lockstep.  Per mode, in a list: K, the
    lower and upper edge of each band, the gap midpoints, the excess of
    |Delta| over 2 at each midpoint, the energies the result is read at
    and Delta at each.  Those energies are e_max, e_start = min V - 1,
    the fitted edges (every lower edge, then the upper ones below e_max)
    and the midpoints.

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
    potential.  Band K+1 exists when e_max is not in gap K.

    The brackets of all modes sit in flat arrays, with the mode of each,
    so that every stage is one propagator call for the whole batch: the
    angles at both ends, each step of the two searches (a bracket capped
    by its own mode's widest), Delta at the count brackets, the line
    fits, and Delta at the fitted edges and midpoints.  A line is fitted
    for one mode at a time, so its least-squares solve sees the columns
    it sees alone.
    """
    modes, e_start = np.asarray(modes), np.asarray(v_min, dtype=float) - 1.0
    # below V every propagator step is hyperbolic with positive entries, so
    # their product (det 1) has Delta > 2; the check catches a V that dips
    # more than 1 below v_min between its samples.  The same call counts K,
    # and its angles and traces are the values at the ends of both searches.
    span = np.column_stack((e_start, np.full(modes.size, float(e_max)))).ravel()
    phi, count, delta = _dirichlet_angle(prop, span, np.repeat(modes, 2))
    phi_start, phi_top, k_gaps = phi[0::2], phi[1::2], count[1::2]
    delta_start, delta_top = delta[0::2], delta[1::2]
    if not np.all(delta_start > 2.0):
        raise ResolutionError("could not find the region below the first band")

    # --- brackets [mu_lo, mu_hi] of the Dirichlet eigenvalues below e_max;
    # mode i owns brackets first[i]:first[i + 1]
    first = np.concatenate(([0], np.cumsum(k_gaps)))
    owner = np.repeat(np.arange(modes.size), k_gaps)
    ks = np.arange(owner.size) - first[owner] + 1

    def below_mu(es, i):  # fewer than k below, and phi(b) - k pi, increasing
        phi, below, _ = _dirichlet_angle(prop, es, modes[owner[i]])
        return below < ks[i], phi - math.pi * ks[i]

    mu_lo, mu_hi = _itp(
        below_mu,
        e_start[owner],
        np.full(owner.size, float(e_max)),
        phi_start[owner] - math.pi * ks,
        phi_top[owner] - math.pi * ks,
        owner,
    )
    delta_mu = discriminant(prop, np.concatenate((mu_lo, mu_hi)), modes[np.tile(owner, 2)])
    d_lo, d_hi = delta_mu[: owner.size], delta_mu[owner.size :]

    # --- band edges: test sg Delta < 2 holds on the band side of an edge
    shape, sgs, band_ends, gap_ends = [], [], [], []
    for i, k in enumerate(k_gaps.tolist()):
        mu = slice(first[i], first[i + 1])
        top = (-1.0) ** k * float(delta_top[i])  # s Delta(e_max) of band K+1
        n_bands = k + int(top < 2.0)
        n_upper = n_bands - int(n_bands > k and top > -2.0)  # upper edges below e_max
        # energies (row 0) and Delta (row 1) at the ends of the count brackets
        d0, d1 = delta_start[i], delta_top[i]
        lo_ends = np.array([[e_start[i], *mu_lo[mu], e_max], [d0, *d_lo[mu], d1]])
        hi_ends = np.array([[e_start[i], *mu_hi[mu], e_max], [d0, *d_hi[mu], d1]])
        s = (-1.0) ** np.arange(n_bands)
        shape.append((n_bands, n_upper))
        sgs.append(np.concatenate((s, -s[:n_upper])))
        band_ends.append(np.hstack((lo_ends[:, 1 : n_bands + 1], hi_ends[:, :n_upper])))
        gap_ends.append(np.hstack((lo_ends[:, :n_bands], hi_ends[:, 1 : n_upper + 1])))
    sg, edge_owner, cuts = _joined(sgs, np.arange(modes.size))
    band_ends, gap_ends = np.hstack(band_ends), np.hstack(gap_ends)

    def on_band(es, i):  # sg Delta - 2, negative on the band side
        f = sg[i] * discriminant(prop, es, modes[edge_owner[i]]) - 2.0
        return f < 0.0, f

    band_side, gap_side = _itp(
        on_band,
        band_ends[0],
        gap_ends[0],
        sg * band_ends[1] - 2.0,
        sg * gap_ends[1] - 2.0,
        edge_owner,
    )
    edges = 0.5 * (band_side + gap_side)
    # the root of a line through 17 samples averages the rounding noise of
    # Delta; a root outside the samples is not trusted
    offs = np.linspace(-_FIT_SPAN, _FIT_SPAN, 17)
    fit_at = (edges[:, None] + offs).ravel()
    fit = discriminant(prop, fit_at, np.repeat(modes[edge_owner], offs.size)).reshape(-1, offs.size)
    g = sg[:, None] * fit - 2.0
    found = []
    for (n_bands, n_upper), edge, g_mode in zip(shape, np.split(edges, cuts), np.split(g, cuts)):
        slope, icept = np.polyfit(offs, g_mode.T, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = -icept / slope
        fitted = np.where(np.abs(shift) <= _FIT_SPAN, edge + shift, edge)
        lower = fitted[:n_bands]
        upper = np.append(fitted[n_bands:], [e_max] * (n_bands - n_upper))
        found.append((fitted, lower, upper, 0.5 * (upper[:-1] + lower[1:])))

    es, of, cuts = _joined([np.concatenate((f[0], f[3])) for f in found], modes)
    out = []
    for i, ((fitted, lower, upper, mid), d_read) in enumerate(
        zip(found, np.split(discriminant(prop, es, of), cuts))
    ):
        s = (-1.0) ** np.arange(lower.size)
        excess = -s[:-1] * d_read[fitted.size :] - 2.0
        reads = np.concatenate(([e_max, e_start[i]], fitted, mid))
        delta = np.concatenate(([delta_top[i], delta_start[i]], d_read))
        out.append((k_gaps[i], lower, upper, mid, excess, reads, delta))
    return out


def _joined(parts, modes):
    """One array per mode end to end, the mode of each entry, and the
    points at which np.split takes a result back apart."""
    sizes = [p.size for p in parts]
    return np.concatenate(parts), np.repeat(modes, sizes), np.cumsum(sizes)[:-1]


def _search_bands(potentials, lows, e_max: float) -> dict:
    """Band edges up to e_max of each of the potentials (with min V on
    the period grid in lows), searched in lockstep: {index: (n, lower
    edges, upper edges, gap midpoints, excess of |Delta| over 2 at each
    midpoint)}, for every mode that reaches below e_max.

    The discriminant route searches on n steps (_discriminant_bands), n
    from _magnus_steps, and then evaluates Delta on 2n steps at every
    energy its result is read at: e_start = min V - 1, e_max, every
    fitted edge and every gap midpoint, where the search returns Delta
    on n steps.  n is accepted when the two agree there to NOISE_FLOOR,
    relative to max(1, |Delta|), and 2n steps count the same K below
    e_max; otherwise the 2n propagator is searched in turn.  An edge
    moves by the error in Delta there over |Delta'|, and at sixth order
    the error on 2n steps is about 1/64 of the drift, so the drift at
    the edge itself measures that error.  A doubling that does not halve
    the drift raises NumericalError.  Each round searches every mode not
    yet accepted, on one propagator whose modes each have their own n;
    the check of a round is one call on the 2n propagator, and only the
    modes it rejects go on to the next.
    """
    modes = [i for i, low in enumerate(lows) if e_max > low]  # the others lie wholly above e_max
    n = np.zeros(len(potentials), dtype=int)  # steps of each mode still searched
    for i in modes:
        n[i] = _magnus_steps(potentials[i], lows[i], e_max)
    last = np.full(len(potentials), math.inf)
    prop, found = _propagator(potentials, n), {}
    while modes:
        searched = _discriminant_bands(prop, modes, [lows[i] for i in modes], e_max)
        prop = _propagator(potentials, 2 * n)  # for the check, and the next round
        es, of, cuts = _joined([r[5] for r in searched], modes)
        _, counts, fine_delta = _dirichlet_angle(prop, es, of)
        undone = []
        for i, (k_gaps, lower, upper, mids, excess, read, delta), count, fine in zip(
            modes, searched, np.split(counts, cuts), np.split(fine_delta, cuts)
        ):
            drift = np.abs(delta - fine) / np.maximum(1.0, np.abs(fine))
            worst = int(np.argmax(drift))
            if drift[worst] <= NOISE_FLOOR and count[0] == k_gaps:
                found[i], n[i] = (int(n[i]), lower, upper, mids, excess), 0
                continue
            if drift[worst] > NOISE_FLOOR and not drift[worst] < 0.5 * last[i]:
                raise NumericalError(
                    f"discriminant not resolved below e_max = {e_max}: {n[i]} and {2 * n[i]} "
                    f"steps differ by {drift[worst]:.3e} at E = {read[worst]:.6g}, above the "
                    f"noise floor {NOISE_FLOOR:.0e}, and doubling no longer halves that; "
                    "lower e_max"
                )
            if last[i] <= NOISE_FLOOR:  # the count alone missed, twice in a row
                raise NumericalError(
                    f"the Dirichlet count at e_max = {e_max} changes from {n[i] // 2} to {n[i]} "
                    f"and from {n[i]} to {2 * n[i]} steps: e_max lies on a Dirichlet eigenvalue "
                    "to rounding; move e_max"
                )
            n[i], last[i] = 2 * n[i], drift[worst]
            undone.append(i)
        modes = undone
    return found


def _mode_bands(
    potential: ModePotential, mean_v, reference, e_max: float, searched
) -> BandStructure:
    """Band decomposition of one periodic mode up to e_max, from mean V on
    the period grid, its (periodic, antiperiodic) Galerkin eigenvalues,
    and what _search_bands found for it (None when it lies wholly above
    e_max).

    The plane-wave eigenvalues are the independent check of the
    accepted discriminant result and must agree edge by edge to
    CROSS_TOL.
    """
    b = potential.period_b
    empty = BandStructure(period=float(b), mean_potential=mean_v, e_max=float(e_max))
    if searched is None:
        return empty
    n, lower, upper, mids, excess = searched

    # a gap is certified when |Delta| exceeds 2 by more than the noise
    # floor at its midpoint; one that only touches 2 is a closed point
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
        return replace(empty, steps=n)

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
        steps=n,
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
