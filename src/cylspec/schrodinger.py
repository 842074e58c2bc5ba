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
period transfer matrix M(E).  M is the product of closed-form steps of
a fourth-order Magnus propagator on exact samples of V, with a step
count fixed by V alone and certified against twice as many steps, so
Delta is an elementwise function of E that does not depend on the batch
it is evaluated in; |Delta| <= 2 exactly on the bands, and det M = 1
identically (it is a Wronskian, and checked as such).  Band
edges are located as bracketed roots of Delta(E) = +/-2 on an adaptive
energy grid seeded by the first-order gap predictions 2|V_n| (Fourier
coefficients of V), then cross-validated against an independent
plane-wave Galerkin eigensolve of the periodic and antiperiodic
problems on one period: edge n of the band union is a periodic
eigenvalue for n odd and an antiperiodic one for n even, alternating.
Near-closures of gaps appear as tangencies of |Delta| with 2 and are
reported as zero-length gaps, not errors.

The variational upper bound drives the embedded-eigenvalue existence
test: for a trapezoid cutoff zeta supported where the slowness product
exceeds its limit by a definite margin (witness delta_1, delta_2), the
Rayleigh quotient drops below the essential-spectrum edge as soon as
the mode constant exceeds alpha / (2 delta_1 delta_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "bound_states",
    "count_below",
    "monodromy",
    "discriminant",
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
    count: int
    window: float  # halfwidth L of [-L, L]
    grid_size: int  # finer grid (2n) behind the reported values
    refinement_estimate: tuple[float, ...]
    threshold: float
    margin: float | None  # threshold - max eigenvalue, None when empty


def _grid_values(potential: ModePotential, ys) -> np.ndarray:
    # V on a solver grid: a ModePotential reads its transform's shared
    # sample, any other potential object is evaluated through values()
    on_grid = getattr(potential, "on_grid", None)
    return on_grid(ys) if on_grid is not None else np.asarray(potential.values(ys))


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


def _dirichlet_grid(potential: ModePotential, halfwidth: float, n: int):
    # interior nodes of [-L, L] with n subintervals
    h = 2.0 * halfwidth / n
    ys = -halfwidth + h * np.arange(1, n)
    vals = _grid_values(potential, ys)
    diag = 2.0 / (h * h) + vals
    off = np.full(n - 2, -1.0 / (h * h))
    return diag, off, h


def _eigs_below(potential: ModePotential, halfwidth: float, n: int, cutoff: float):
    diag, off, _ = _dirichlet_grid(potential, halfwidth, n)
    gersh = float(np.min(diag)) - (2.0 * abs(off[0]) if len(off) else 0.0)
    vl = min(gersh, potential.lower_bound) - 1.0
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
    ends = _grid_values(potential, np.array([-halfwidth, halfwidth]))
    settle = float(np.max(np.abs(ends - thr)))
    if settle >= SETTLE_TOL:
        raise WindowError(
            f"potential not settled at the window ends "
            f"(|V - threshold| = {settle:.3e} >= {SETTLE_TOL:.1e}); enlarge the window"
        )

    e_coarse = _eigs_below(potential, halfwidth, grid, thr)
    e_fine = _eigs_below(potential, halfwidth, 2 * grid, thr)

    # certification: the LDL^T pivot count on the fine grid must agree
    certified = count_below(potential, thr, halfwidth, 2 * grid)
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
    values = tuple(v for v, _ in pairs)
    estimates = tuple(e for _, e in pairs)
    margin = (thr - max(values)) if values else None
    return BoundStateResult(
        eigenvalues=values,
        count=len(values),
        window=float(halfwidth),
        grid_size=2 * grid,
        refinement_estimate=estimates,
        threshold=float(thr),
        margin=margin,
    )


def count_below(potential: ModePotential, energy: float, halfwidth: float, grid: int) -> int:
    """Sturm count: eigenvalues of the discretized operator below `energy`.

    Counts negative pivots of the LDL^T factorization of T - energy,
    independent of the LAPACK eigensolver, so the two certify each
    other.
    """
    _require_window(potential, halfwidth)
    diag, off, _ = _dirichlet_grid(potential, halfwidth, grid)
    cnt = 0
    q = diag[0] - energy
    if q == 0.0:
        q = -1e-300
    if q < 0.0:
        cnt += 1
    for i in range(1, len(diag)):
        q = diag[i] - energy - off[i - 1] * off[i - 1] / q
        if q == 0.0:
            q = -1e-300
        if q < 0.0:
            cnt += 1
    return cnt


# ---------------------------------------------------------------------------
# monodromy and band structure (periodic case)
# ---------------------------------------------------------------------------


# Gauss-Legendre points of one propagator step, as fractions of the step
_GAUSS2 = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# step-energy pairs per propagator chunk: bounds its memory, not the batch
_POINT_BUDGET = 1 << 15
# |Delta| - 2 below this is not a certified gap; the propagator's step
# count is chosen, and checked, to keep its error in Delta below it too
NOISE_FLOOR = 1e-10
# bisection width of a band edge
EDGE_TOL = 1e-10
# a tangency of |Delta| within this of 2 is reported as a closed gap
CLOSURE_TOL = 1e-8
# band edges of the two routes must agree to this; narrower gaps merge
CROSS_TOL = 1e-6
# |det M - 1| above this: the transfer matrix has lost its Wronskian
_WRONSKIAN_TOL = 1e-9
# golden-section steps that refine a tangency of |Delta| with 2
_GOLDEN_STEPS = 60


def _period_grid(potential: ModePotential) -> np.ndarray:
    return np.linspace(0.0, potential.period_b, 4096, endpoint=False)


def _magnus_steps(potential: ModePotential) -> int:
    """Propagator steps per period, from the potential alone.

    The propagator's error in Delta, relative to max(1, |Delta|), stayed
    below 0.83 (b^2 range V)^2 / n^4 on cosine and summed-cosine
    profiles in eps and mu with mode constants from 1 to 40 pi^2, largest
    at the low end of the energy range; n is the least power of two, at
    least 256, that puts (b^2 range V)^2 / n^4 below the noise floor.  It
    is invariant under V(y) -> V(y/s)/s^2, b -> s b, so a rescaled
    problem takes the same steps.  band_structure certifies n against 2n
    on its energy range.
    """
    vs = _grid_values(potential, _period_grid(potential))
    spread = (potential.period_b**2 * float(np.ptp(vs))) ** 2
    n = 256
    while spread > NOISE_FLOOR * float(n) ** 4:
        n *= 2
    return n


def _transfer_batch(potential: ModePotential, energies, steps: int | None = None):
    """One-period transfer matrices for a batch of energies.

    Fourth-order Magnus propagator on n equal steps (Iserles & Norsett
    1999): on a step of length h with V sampled at its two Gauss points,
    Omega = [[a, h], [h (mean V - E), -a]] with a = sqrt(3) h^2 (V1 - V2)
    / 12.  Omega is traceless, so exp(Omega) = C I + S Omega in closed
    form, with C, S = cosh, sinh(r)/r or cos, sin(r)/r of r^2 = |det
    Omega|.  Every energy is propagated on its own, so a value does not
    depend on the batch it came in.  Returns the states (u, u', v, v')(b)
    of the columns started at (1, 0) and (0, 1), as a 4 x m array.
    """
    if potential.period_b is None:
        raise ValidationError("monodromy applies to periodic potentials only")
    n = steps or _magnus_steps(potential)
    h = potential.period_b / n
    v = _grid_values(potential, h * (np.arange(n)[:, None] + _GAUSS2).ravel()).reshape(n, 2)
    a = (math.sqrt(3.0) / 12.0) * (h * h) * (v[:, 0] - v[:, 1])
    hv = h * (0.5 * (v[:, 0] + v[:, 1]))  # h * mean V
    es = np.atleast_1d(np.asarray(energies, dtype=float))
    out = np.empty((4, es.size))
    chunk = max(1, _POINT_BUDGET // n)
    for i in range(0, es.size, chunk):
        out[:, i : i + chunk] = _magnus_product(a, hv, h, es[i : i + chunk])
    return out


def _magnus_product(a, hv, h, es):
    hq = hv[:, None] - h * es  # h (mean V - E), one row per step
    w = (a * a)[:, None] + h * hq  # -det Omega
    r = np.sqrt(np.abs(w))
    c, s = np.empty_like(r), np.empty_like(r)
    osc = w < 0.0  # each element takes one branch, not both
    for part, cos, sin in ((osc, np.cos, np.sin), (~osc, np.cosh, np.sinh)):
        rp = r[part]
        c[part], s[part] = cos(rp), sin(rp)
    s = np.divide(s, r, out=np.ones_like(r), where=r > 0.0)
    sa = s * a[:, None]
    m00, m01, m10, m11 = c + sa, s * h, s * hq, c - sa
    while m00.shape[0] > 1:  # multiply step 2j+1 onto step 2j, pairwise
        l00, l01, l10, l11 = m00[1::2], m01[1::2], m10[1::2], m11[1::2]
        r00, r01, r10, r11 = m00[0::2], m01[0::2], m10[0::2], m11[0::2]
        m00, m01 = l00 * r00 + l01 * r10, l00 * r01 + l01 * r11
        m10, m11 = l10 * r00 + l11 * r10, l10 * r01 + l11 * r11
    return np.stack((m00[0], m10[0], m01[0], m11[0]))


def monodromy(potential: ModePotential, energy: float) -> np.ndarray:
    """2x2 transfer matrix over one period; det checked against 1."""
    sf = _transfer_batch(potential, [energy])
    det = sf[0, 0] * sf[3, 0] - sf[2, 0] * sf[1, 0]
    if abs(det - 1.0) > _WRONSKIAN_TOL:
        raise NumericalError(f"Wronskian drifted: det = {det!r}")
    return np.array([[sf[0, 0], sf[2, 0]], [sf[1, 0], sf[3, 0]]])


def discriminant(potential: ModePotential, energy):
    """Delta(E) = trace of the one-period transfer matrix."""
    sf = _transfer_batch(potential, energy)
    det = sf[0] * sf[3] - sf[2] * sf[1]
    bad = float(np.max(np.abs(det - 1.0)))
    if bad > _WRONSKIAN_TOL:
        raise NumericalError(f"Wronskian drifted: |det - 1| = {bad:.3e}")
    trace = sf[0] + sf[3]
    return trace if np.ndim(energy) else float(trace[0])


def _plane_wave_eigs(v_hat: np.ndarray, b: float, antiperiodic: bool, k_modes: int):
    """Galerkin eigenvalues in the basis exp(i (2 pi k + theta) y / b)."""
    ks = np.arange(-k_modes, k_modes + 1)
    theta = np.pi if antiperiodic else 0.0
    q = (2.0 * np.pi * ks + theta) / b
    n = v_hat.size
    idx = (ks[:, None] - ks[None, :]) % n
    h = v_hat[idx] + np.diag(q * q).astype(complex)
    return np.linalg.eigvalsh(h)


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
    """

    period_b: float
    bands: tuple[tuple[float, float], ...]
    gaps: tuple[tuple[float, float], ...]
    closed_gap_points: tuple[float, ...]
    unresolved_gaps: tuple[tuple[float, float], ...]
    eigenvalue_band_edges: tuple[tuple[float, float], ...]
    e_max: float
    mean_potential: float
    periodic_eigenvalues: tuple[float, ...]
    antiperiodic_eigenvalues: tuple[float, ...]
    validation_max_dev: float


def _bisect_root(delta, lo, hi, flo, target, tol):
    """Vectorized bisection for Delta(E) = target (one or per cell) on bracketing cells."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    sign_lo = np.sign(np.asarray(flo, dtype=float) - target)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        fm = delta(mid) - target
        same = np.sign(fm) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
        if float(np.max(hi - lo)) < tol:
            break
    return 0.5 * (lo + hi)


def _refine_extremum(delta, lo, hi, sgn):
    """Golden-section maximization of sgn * Delta on each [lo, hi], in lockstep."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = sgn * delta(c), sgn * delta(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc > fd  # the maximum lies in [a, d]: drop (d, b]
        b, a = np.where(left, d, b), np.where(left, a, c)
        probe = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fp = sgn * delta(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    e_peak = 0.5 * (a + b)
    return e_peak, sgn * delta(e_peak)


def _flatten_edges(pairs, merge_tol, cap):
    """Merge bands across gaps below merge_tol, list edges below cap."""
    merged = []
    for lo, hi in pairs:
        if merged and lo - merged[-1][1] <= merge_tol:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    flat = []
    for lo, hi in merged:
        flat.append(lo)
        if hi < cap - 1e-12:
            flat.append(hi)
    return flat


def band_structure(potential: ModePotential, e_max: float) -> BandStructure:
    """Band decomposition of a periodic mode up to e_max.

    Edges are roots of Delta(E) = +/-2 from bracketed bisection on an
    adaptive grid; the plane-wave eigensolve is the independent check
    and must agree edge-by-edge to CROSS_TOL.
    """
    if potential.period_b is None:
        raise ValidationError("band structure applies to periodic potentials only")
    b = potential.period_b

    vs = _grid_values(potential, _period_grid(potential))
    nv = vs.size
    v_hat = np.fft.fft(vs) / nv
    mean_v = float(np.real(v_hat[0]))
    empty = BandStructure(
        period_b=float(b),
        bands=(),
        gaps=(),
        closed_gap_points=(),
        unresolved_gaps=(),
        eigenvalue_band_edges=(),
        e_max=float(e_max),
        mean_potential=mean_v,
        periodic_eigenvalues=(),
        antiperiodic_eigenvalues=(),
        validation_max_dev=0.0,
    )
    v_min = float(np.min(vs))
    if not e_max > v_min:  # the potential lies wholly above e_max
        return empty

    def delta(es):
        return discriminant(potential, np.atleast_1d(np.asarray(es, dtype=float)))

    # --- adaptive scan grid -------------------------------------------
    n_max = int(math.ceil(b * math.sqrt(max(e_max - mean_v, 1.0)) / math.pi)) + 1
    centers = [(math.pi * n / b) ** 2 + mean_v for n in range(1, n_max + 1)]
    widths = [2.0 * abs(v_hat[n % nv]) for n in range(1, n_max + 1)]

    e_start = v_min - 1.0
    for _ in range(60):
        if float(delta(np.array([e_start]))[0]) > 2.0:
            break
        e_start -= max(1.0, 0.1 * abs(e_start))
    else:
        raise ResolutionError("could not find the region below the first band")

    # the propagator's step count must hold Delta to the noise floor on
    # the whole energy range: n steps against 2n
    probe = np.linspace(e_start, e_max, 257)
    sf = _transfer_batch(potential, probe, 2 * _magnus_steps(potential))
    fine = sf[0] + sf[3]
    drift = np.abs(delta(probe) - fine) / np.maximum(1.0, np.abs(fine))
    worst = int(np.argmax(drift))
    if drift[worst] > NOISE_FLOOR:
        raise NumericalError(
            f"discriminant not resolved below e_max = {e_max}: n and 2n propagator steps "
            f"differ by {drift[worst]:.3e} (relative) at E = {probe[worst]:.6g}, above the "
            f"noise floor {NOISE_FLOOR:.0e}; the potential varies too much for this mode, "
            "lower e_max to leave it out"
        )

    dense_hi = min(e_max, centers[min(2, len(centers) - 1)] + 2.0)
    pieces = [np.arange(e_start, dense_hi, 0.01)]
    if e_max > dense_hi:
        coarse_step = max(0.05, (e_max - dense_hi) / 20000.0)
        pieces.append(np.arange(dense_hi, e_max, coarse_step))
        for n in range(3, n_max + 1):
            c = centers[n - 1]
            spacing = math.pi**2 * (2 * n + 1) / b**2
            half = min(0.45 * spacing, max(2.0, 6.0 * widths[n - 1]))
            lo, hi = max(c - half, dense_hi), min(c + half, e_max)
            if hi <= lo:
                continue
            step = max(min(0.01, widths[n - 1] / 6.0 + 1e-12), (hi - lo) / 1500.0)
            pieces.append(np.arange(lo, hi, step))
    grid = np.unique(np.concatenate(pieces + [np.array([e_max])]))
    grid = grid[(grid >= e_start) & (grid <= e_max)]

    dvals = delta(grid)

    # --- crossings of Delta = +/-2 ------------------------------------
    edges = []
    crossing_cells = set()
    for target in (2.0, -2.0):
        f = dvals - target
        sign = np.sign(f)
        sign[sign == 0] = 1.0
        flips = np.nonzero(sign[:-1] != sign[1:])[0]
        if flips.size:
            roots = _bisect_root(delta, grid[flips], grid[flips + 1], dvals[flips], target, EDGE_TOL)
            edges.extend(float(r) for r in np.atleast_1d(roots))
            crossing_cells.update(int(i) for i in flips)

    # --- tangency sweep: near-closed gaps and sub-grid double crossings
    closed_points = []
    absd = np.abs(dvals)
    inner = absd[1:-1]
    peaks = np.nonzero((inner >= 2.0 - 1e-3) & (inner >= absd[:-2]) & (inner >= absd[2:]))[0] + 1
    peaks = np.array([i for i in peaks if not {i - 1, i} & crossing_cells], dtype=int)
    if peaks.size:
        dirs = np.where(dvals[peaks] > 0, 1.0, -1.0)
        e_peaks, tops = _refine_extremum(delta, grid[peaks - 1], grid[peaks + 1], dirs)
        hidden = []  # (lo, hi, target): a full gap hid between grid points
        for i, target, e_peak, peak in zip(peaks, 2.0 * dirs, e_peaks, tops):
            if peak > 2.0 + 1e-12:
                hidden += [(grid[i - 1], e_peak, target), (e_peak, grid[i + 1], target)]
            elif peak >= 2.0 - CLOSURE_TOL:
                closed_points.append(float(e_peak))
        if hidden:
            lo, hi, tg = (np.array(x) for x in zip(*hidden))
            f_lo = delta(lo)
            ok = (f_lo - tg) * (delta(hi) - tg) < 0
            if np.any(ok):
                roots = _bisect_root(delta, lo[ok], hi[ok], f_lo[ok], tg[ok], EDGE_TOL)
                edges.extend(float(r) for r in roots)

    def assemble(edge_list):
        cuts = [e_start] + sorted(edge_list) + [e_max]
        spans = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 0]
        inside = np.abs(delta([0.5 * (lo + hi) for lo, hi in spans])) <= 2.0
        bands_ = []
        gaps_ = []
        for (lo, hi), band in zip(spans, inside):
            if band:
                if bands_ and abs(bands_[-1][1] - lo) <= max(1e-12, 4.0 * EDGE_TOL):
                    bands_[-1] = (bands_[-1][0], hi)
                else:
                    bands_.append((lo, hi))
            elif bands_ and hi < e_max:
                gaps_.append((lo, hi))
        return bands_, gaps_

    bands, gaps = assemble(edges)

    # drop gaps whose midpoint excess is below the noise floor: the sign
    # change that produced them is not trustworthy at double precision
    uncertified = set()
    if gaps:
        excess = np.abs(delta([0.5 * (lo + hi) for lo, hi in gaps])) - 2.0
        uncertified = {e for gap, x in zip(gaps, excess) if x <= NOISE_FLOOR for e in gap}
    if uncertified:
        edges = [e for e in edges if e not in uncertified]
        bands, gaps = assemble(edges)

    # --- independent eigenvalue route -----------------------------------
    k_modes = max(32, int(math.ceil(b * math.sqrt(max(e_max, 1.0)) / math.pi)) + 16)
    per = _plane_wave_eigs(v_hat, b, antiperiodic=False, k_modes=k_modes)
    anti = _plane_wave_eigs(v_hat, b, antiperiodic=True, k_modes=k_modes)
    ref_pairs = []
    n = 1
    while n - 1 < min(per.size, anti.size):
        lo_ref, hi_ref = (per[n - 1], anti[n - 1]) if n % 2 else (anti[n - 1], per[n - 1])
        if lo_ref > e_max:
            break
        ref_pairs.append((float(lo_ref), float(hi_ref)))
        n += 1
    if not ref_pairs or not bands:
        if ref_pairs or bands:
            raise ResolutionError(
                "one route finds spectrum below e_max and the other does not: "
                f"discriminant bands {len(bands)}, eigenvalue bands {len(ref_pairs)}"
            )
        return empty

    # reconcile: every reference gap wider than CROSS_TOL must either be
    # matched by a found gap, recovered by a targeted sweep, or shown to
    # sit below the discriminant's resolving power
    unresolved: list[tuple[float, float]] = []
    merge_next: set[int] = set()  # ref band k merges with k+1
    added = False
    for k in range(len(ref_pairs)):
        g_lo = ref_pairs[k][1]
        g_hi = ref_pairs[k + 1][0] if k + 1 < len(ref_pairs) else math.inf
        if g_lo >= e_max:
            continue
        width = g_hi - g_lo
        if width <= CROSS_TOL:
            merge_next.add(k)
            continue
        tol_m = max(CROSS_TOL, 0.1 * min(width, 1.0))
        have_lo = any(abs(e - g_lo) <= tol_m for e in edges)
        have_hi = math.isinf(g_hi) or any(abs(e - g_hi) <= tol_m for e in edges)
        if have_lo and have_hi:
            continue
        pad = 0.5 * width if math.isfinite(width) else min(1.0, 0.5 * (e_max - g_lo))
        sweep_lo = max(g_lo - pad, e_start)
        sweep_hi = min(g_hi + pad, e_max)
        sweep = np.linspace(sweep_lo, sweep_hi, 1201)
        dsw = delta(sweep)
        s = 1.0 if float(dsw[np.argmax(np.abs(dsw))]) > 0 else -1.0
        f = s * dsw - 2.0
        if float(np.max(f)) > NOISE_FLOOR:
            sign = np.sign(f)
            sign[sign == 0] = 1.0
            flips = np.nonzero(sign[:-1] != sign[1:])[0]
            roots = _bisect_root(
                delta, sweep[flips], sweep[flips + 1], dsw[flips], 2.0 * s, EDGE_TOL
            )
            edges.extend(float(r) for r in np.atleast_1d(roots))
            added = True
        else:
            hi_rep = min(g_hi, e_max)
            unresolved.append((g_lo, hi_rep))
            merge_next.add(k)
    if added:
        bands, gaps = assemble(edges)

    # --- edge-by-edge agreement ------------------------------------------
    merged_ref = []
    for k, (lo_ref, hi_ref) in enumerate(ref_pairs):
        if merged_ref and (k - 1) in merge_next:
            merged_ref[-1] = (merged_ref[-1][0], hi_ref)
        else:
            merged_ref.append((lo_ref, hi_ref))
    if (len(ref_pairs) - 1) in merge_next:
        # unresolved gap past the last reference band: its lower edge is
        # invisible to the discriminant, so drop it from the comparison
        merged_ref[-1] = (merged_ref[-1][0], math.inf)
    ref_flat = _flatten_edges(merged_ref, CROSS_TOL, e_max)
    got_flat = _flatten_edges(bands, CROSS_TOL, e_max)
    if len(ref_flat) != len(got_flat):
        raise ResolutionError(
            f"edge count mismatch: discriminant route found {len(got_flat)} edges, "
            f"eigenvalue route implies {len(ref_flat)}; refine the energy grid"
        )
    max_dev = max((abs(a - r) for a, r in zip(got_flat, ref_flat)), default=0.0)
    if max_dev > CROSS_TOL:
        raise ResolutionError(
            f"band-edge cross-validation failed: max deviation {max_dev:.3e} > {CROSS_TOL:.1e}"
        )

    return BandStructure(
        period_b=float(b),
        bands=tuple((float(lo), float(hi)) for lo, hi in bands),
        gaps=tuple((float(lo), float(hi)) for lo, hi in gaps),
        closed_gap_points=tuple(sorted(closed_points)),
        unresolved_gaps=tuple((float(lo), float(hi)) for lo, hi in unresolved),
        eigenvalue_band_edges=tuple((float(lo), float(hi)) for lo, hi in ref_pairs),
        e_max=float(e_max),
        mean_potential=mean_v,
        periodic_eigenvalues=tuple(float(x) for x in per[per <= e_max + 1.0]),
        antiperiodic_eigenvalues=tuple(float(x) for x in anti[anti <= e_max + 1.0]),
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
        return np.asarray(data.curvature_term(y)) * zeta(y) ** 2

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
