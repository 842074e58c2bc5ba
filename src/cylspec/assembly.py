"""Assembly of the full cylinder spectrum from one-dimensional modes.

The squared field operator decomposes over the transverse modes: each
Dirichlet eigenvalue drives an electric-type axial problem, each
nonzero Neumann eigenvalue a magnetic-type one, and a cross-section
with multiple boundary components contributes 2(N-1) copies of the
mode-constant-zero problem.  This module decides which modes can carry
spectrum below a requested energy (mode_budget), runs the axial solver
per distinct mode constant, takes unions, and maps the result to the
symmetric +/- spectrum of the first-order operator by exact negation,
so the reported set is symmetric to the last bit.

Deduplication is by exact float equality of (flavor, mode constant):
duplicate transverse eigenvalues come out of identical arithmetic
(symmetric lattice pairs, double Bessel multiplicities), so they are
bitwise equal and a tolerance would only risk merging distinct modes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .cross_section import CrossSectionSpectrum
from .errors import InsufficientDataError, ValidationError
from .liouville import LiouvilleData, build_potential, build_transform
from .profiles import (
    CoefficientProfile,
    EssentialBounds,
    Periodic,
    Stabilizing,
    essential_bounds,
)
from .schrodinger import (
    SETTLE_TOL,
    BandStructure,
    BoundStateResult,
    band_structure,
    bound_states,
    merge_intervals,
    settle_residual,
)

__all__ = [
    "ModeBudget",
    "mode_budget",
    "ModeGroup",
    "StabilizingModeResult",
    "PeriodicModeResult",
    "SpectralPoint",
    "GapReport",
    "SpectrumReport",
    "run_stabilizing_analysis",
    "run_periodic_analysis",
    "FiniteGapCertificate",
    "finite_gap_certificate",
]


# ---------------------------------------------------------------------------
# mode budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeBudget:
    """Transverse modes that can carry squared-operator spectrum <= e_max.

    A mode with constant c contributes nothing below c / sup(eps mu),
    so the cut is c <= e_max * sup(eps mu).  Multiplicities are kept:
    the constants tuples repeat values exactly as the cross-section
    lists do.
    """

    e_max: float
    product_sup: float
    electric_constants: tuple[float, ...]
    magnetic_constants: tuple[float, ...]  # from the second Neumann value on
    include_zero_branch: bool
    zero_multiplicity: int


def mode_budget(
    spectrum: CrossSectionSpectrum, bounds: EssentialBounds, e_max: float
) -> ModeBudget:
    if not e_max > 0:
        raise ValidationError("e_max must be positive")
    cut = e_max * bounds.product_sup
    for name, values in (("Dirichlet", spectrum.dirichlet), ("Neumann", spectrum.neumann)):
        if values and values[-1] <= cut:
            raise InsufficientDataError(
                f"last {name} eigenvalue {values[-1]:.6g} is still inside the budget cut "
                f"{cut:.6g}; provide more transverse eigenvalues"
            )
    n = spectrum.boundary_components
    return ModeBudget(
        e_max=float(e_max),
        product_sup=float(bounds.product_sup),
        electric_constants=tuple(x for x in spectrum.dirichlet if x <= cut),
        magnetic_constants=tuple(x for x in spectrum.neumann[1:] if x <= cut),
        include_zero_branch=n >= 2,
        zero_multiplicity=max(0, 2 * n - 2),
    )


# ---------------------------------------------------------------------------
# per-mode results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeGroup:
    flavor: str  # 'el' | 'm' | 'zero'
    mode_constant: float
    indices: tuple[int, ...]  # 1-based positions in the transverse list
    multiplicity: int


@dataclass(frozen=True)
class StabilizingModeResult:
    group: ModeGroup = field(metadata={"report": "inline"})
    threshold: float
    lower_bound: float
    bound: BoundStateResult = field(metadata={"report": "inline"})
    ac_interval: tuple[float, float] | None  # clipped to e_max, None if empty


@dataclass(frozen=True)
class PeriodicModeResult:
    group: ModeGroup = field(metadata={"report": "inline"})
    lower_bound: float
    structure: BandStructure = field(metadata={"report": "inline"})


def _grouped_modes(budget: ModeBudget) -> list[ModeGroup]:
    groups: dict[tuple[str, float], list[int]] = {}
    for i, c in enumerate(budget.electric_constants, start=1):
        groups.setdefault(("el", c), []).append(i)
    for j, c in enumerate(budget.magnetic_constants, start=2):
        groups.setdefault(("m", c), []).append(j)
    out = [
        ModeGroup(flavor=f, mode_constant=c, multiplicity=len(ix), indices=tuple(ix))
        for (f, c), ix in groups.items()
    ]
    if budget.include_zero_branch:
        out.append(
            ModeGroup(
                flavor="zero",
                mode_constant=0.0,
                multiplicity=budget.zero_multiplicity,
                indices=(0,),
            )
        )
    out.sort(key=lambda g: (g.mode_constant, g.flavor))
    return out


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralPoint:
    energy: float  # squared-operator energy
    group: ModeGroup = field(metadata={"report": "inline"})
    embedded: bool  # inside the ac/band support of other modes
    outside_support: bool  # below every continuous-spectrum interval
    refinement_estimate: float


@dataclass(frozen=True)
class GapReport:
    lower: float
    upper: float
    possibly_closed: bool  # width below the reporting threshold


@dataclass(frozen=True)
class SpectrumReport:
    classification: str  # 'stabilizing' | 'periodic'
    e_max: float
    boundary_components: int
    budget: ModeBudget
    modes: tuple
    squared_support: tuple[tuple[float, float], ...]
    squared_points: tuple[SpectralPoint, ...]
    squared_gaps: tuple[GapReport, ...]
    central_gap: tuple[float, float] | None  # in the first-order variable
    maxwell_support: tuple[tuple[float, float], ...]
    maxwell_points: tuple[float, ...]
    bounds: EssentialBounds = field(metadata={"report": "omit"})  # of the profile
    # the ModePotentials the modes were solved on, in the order of modes
    potentials: tuple = field(repr=False, compare=False, metadata={"report": "omit"})


_MERGE_TOL = 1e-9
_GAP_REPORT_TOL = 1e-6


def _union_gaps(union):
    return [
        GapReport(lower=b, upper=c, possibly_closed=(c - b) < _GAP_REPORT_TOL)
        for (_, b), (c, _) in zip(union[:-1], union[1:])
    ]


def _symmetrize(intervals, points):
    """Map squared-operator support to the symmetric first-order one.

    Interval ends and points go through one sqrt each; negatives are
    exact negations of the same floats, so symmetry is bitwise.
    """
    pos = [(math.sqrt(max(a, 0.0)), math.sqrt(max(b, 0.0))) for a, b in intervals]
    mirrored = [(-b, -a) for a, b in pos]
    support = merge_intervals(mirrored + pos, 0.0)
    pts = []
    for e in points:
        r = math.sqrt(max(e, 0.0))
        pts.extend((-r, r))
    return tuple(support), tuple(sorted(pts))


# ---------------------------------------------------------------------------
# analysis drivers
# ---------------------------------------------------------------------------

# truncation halfwidth (in y) and grid of the stabilizing driver by default
DEFAULT_HALFWIDTH = 15.0
DEFAULT_GRID = 3000

# halfwidth ladder of the stabilizing driver: the settle search tries
# halfwidth * growth**k for k < steps, and the transform window is sized
# for the step past the last one
_LADDER_GROWTH = 1.3
_LADDER_STEPS = 6


def _settled_halfwidth(pots, initial: float) -> float:
    """Smallest halfwidth from the growth ladder at which every budgeted
    potential has settled: its settle_residual is below SETTLE_TOL, the
    test bound_states applies."""
    for k in range(_LADDER_STEPS):
        cand = initial * (_LADDER_GROWTH**k)
        if all(settle_residual(pot, cand) < SETTLE_TOL for pot in pots):
            return cand
    raise ValidationError(
        "could not settle the potential tails inside the transform window; "
        "the coefficients approach their limits too slowly for this halfwidth"
    )


def _prologue(profile: CoefficientProfile, spectrum: CrossSectionSpectrum, e_max: float, kind):
    """Check the classification, then bound, budget and group the modes."""
    if not isinstance(profile.classification, kind):
        want, got = kind.__name__.lower(), type(profile.classification).__name__.lower()
        raise ValidationError(f"{want} analysis needs {want} coefficients; the profile is {got}")
    bounds = essential_bounds(profile)
    budget = mode_budget(spectrum, bounds, e_max)
    return bounds, budget, _grouped_modes(budget)


def _potentials(data: LiouvilleData, groups):
    return [build_potential(data, g.flavor, g.mode_constant) for g in groups]


def _solve_groups(groups, pots, solve, jobs):
    """solve(group, potential) for every group, in group order, on a pool
    of `jobs` threads (one by default)."""
    with ThreadPoolExecutor(max_workers=jobs or 1) as pool:
        return list(pool.map(solve, groups, pots))


def _report(kind, spectrum, bounds, budget, pots, results, intervals, points, inf_sq):
    """Union the per-mode intervals and mirror them to the first-order
    operator; inf_sq is the bottom of the squared spectrum, which sets
    the central gap of a simply connected cross-section."""
    union = merge_intervals(intervals, _MERGE_TOL)
    central = None
    if spectrum.boundary_components == 1 and math.isfinite(inf_sq) and inf_sq > 0:
        r = math.sqrt(inf_sq)
        central = (-r, r)
    msupport, mpoints = _symmetrize(union, [p.energy for p in points])
    return SpectrumReport(
        classification=kind,
        e_max=budget.e_max,
        boundary_components=spectrum.boundary_components,
        budget=budget,
        modes=tuple(results),
        squared_support=tuple(union),
        squared_points=tuple(points),
        squared_gaps=tuple(_union_gaps(union)),
        central_gap=central,
        maxwell_support=msupport,
        maxwell_points=mpoints,
        bounds=bounds,
        potentials=tuple(pots),
    )


def run_stabilizing_analysis(
    profile: CoefficientProfile,
    spectrum: CrossSectionSpectrum,
    e_max: float,
    *,
    halfwidth: float = DEFAULT_HALFWIDTH,
    grid: int = DEFAULT_GRID,
    jobs: int | None = None,
) -> SpectrumReport:
    """Full squared-spectrum analysis for stabilizing coefficients."""
    bounds, budget, groups = _prologue(profile, spectrum, e_max, Stabilizing)
    lo_speed = math.sqrt(bounds.eps_lower * bounds.mu_lower)
    z_half = halfwidth * _LADDER_GROWTH**_LADDER_STEPS / lo_speed * 1.05 + 1.0
    data = build_transform(profile, bounds, window=(-z_half, z_half))
    pots = _potentials(data, groups)
    settled = _settled_halfwidth(pots, halfwidth)

    def solve(group: ModeGroup, pot) -> StabilizingModeResult:
        res = bound_states(pot, settled, grid)
        thr = pot.threshold
        ac = (thr, e_max) if thr < e_max else None
        return StabilizingModeResult(
            group=group,
            threshold=thr,
            lower_bound=pot.lower_bound,
            bound=res,
            ac_interval=ac,
        )

    results = _solve_groups(groups, pots, solve, jobs)
    thresholds = [r.threshold for r in results]
    # a state lies below its own mode's threshold, so it is embedded in
    # another mode's ac spectrum exactly when it reaches the lowest one
    bottom = min(thresholds, default=math.inf)

    points: list[SpectralPoint] = []
    for r in results:
        for e, est in zip(r.bound.eigenvalues, r.bound.refinement_estimates):
            if e > e_max:
                continue
            points.append(
                SpectralPoint(
                    energy=float(e),
                    group=r.group,
                    embedded=e >= bottom,
                    outside_support=e < bottom,
                    refinement_estimate=float(est),
                )
            )
    points.sort(key=lambda p: (p.energy, p.group.mode_constant, p.group.flavor))

    inf_sq = min(
        [t for t in thresholds if t <= e_max] + [p.energy for p in points],
        default=math.inf,
    )
    intervals = [r.ac_interval for r in results if r.ac_interval is not None]
    return _report(
        "stabilizing", spectrum, bounds, budget, pots, results, intervals, points, inf_sq
    )


def run_periodic_analysis(
    profile: CoefficientProfile,
    spectrum: CrossSectionSpectrum,
    e_max: float,
    *,
    jobs: int | None = None,
) -> SpectrumReport:
    """Full squared-spectrum analysis for periodic coefficients."""
    bounds, budget, groups = _prologue(profile, spectrum, e_max, Periodic)
    data = build_transform(profile, bounds)

    def solve(group: ModeGroup, pot) -> PeriodicModeResult:
        bs = band_structure(pot, e_max)
        return PeriodicModeResult(group=group, lower_bound=pot.lower_bound, structure=bs)

    pots = _potentials(data, groups)
    results = _solve_groups(groups, pots, solve, jobs)
    intervals = [band for r in results for band in r.structure.bands]
    inf_sq = min((r.structure.bands[0][0] for r in results if r.structure.bands), default=math.inf)
    return _report("periodic", spectrum, bounds, budget, pots, results, intervals, (), inf_sq)


# ---------------------------------------------------------------------------
# finite-gap certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteGapCertificate:
    verified: bool
    reason: str
    coverage_start: float  # K: no gaps of the union beyond this energy
    e_max: float
    n_asymptotic: int  # N: bands from this index on track the free pattern
    delta: float
    w_low: float
    w_high: float
    max_edge_deviation: float  # over bands n >= N, both structures


def finite_gap_certificate(low: BandStructure, high: BandStructure) -> FiniteGapCertificate:
    """Certify that the two-mode band union has no gaps in [K, e_max].

    The two structures must share the period, and e_max is the smaller
    of their analyzed ranges.  With w_k the mean potentials, delta =
    (w_high - w_low) / 4 splits the asymptotic edge patterns pi^2 n^2 /
    b^2 + w_k of the two structures; once both edge families deviate
    from their pattern by less than delta (from band N on, with (2N+1)
    pi^2 > (w_high - w_low + 2 delta) b^2 so the free spacing
    dominates), every point above K = pi^2 N^2 / b^2 + w_high + delta
    lies inside one of the two families' bands.  The conclusion is then
    checked exactly: [K, e_max] must lie inside one interval of the
    union of the two families' eigenvalue bands.
    """
    b = low.period
    if abs(high.period - b) > 1e-12 * max(1.0, b):
        raise ValidationError("band structures have different periods")
    w1, w2 = low.mean_potential, high.mean_potential
    if w2 < w1:
        low, high = high, low
        w1, w2 = w2, w1
    sep = w2 - w1
    if sep <= 0:
        raise ValidationError("mean potentials coincide; certificate needs distinct modes")
    delta = sep / 4.0
    e_max = min(low.e_max, high.e_max)

    n_spacing = 1
    while (2 * n_spacing + 1) * math.pi**2 <= (sep + 2.0 * delta) * b * b:
        n_spacing += 1

    pairs1 = low.eigenvalue_band_edges
    pairs2 = high.eigenvalue_band_edges
    n_avail = min(len(pairs1), len(pairs2))

    def deviation(n: int) -> float:
        d = 0.0
        for pairs, w in ((pairs1, w1), (pairs2, w2)):
            lo, hi = pairs[n - 1]
            d = max(d, abs(lo - (math.pi * (n - 1) / b) ** 2 - w))
            d = max(d, abs(hi - (math.pi * n / b) ** 2 - w))
        return d

    # N is the first index whose suffix maximum of deviations is below delta
    ok = False
    k_start = math.nan
    n_cert, max_dev, suffix_max = 0, math.inf, 0.0
    for n in range(n_avail, n_spacing - 1, -1):
        suffix_max = max(suffix_max, deviation(n))
        if suffix_max >= delta:
            break
        n_cert, max_dev = n, suffix_max
    if not n_cert:
        reason = "edge deviations never drop below delta in the analyzed range"
    else:
        k_start = (math.pi * n_cert / b) ** 2 + w2 + delta
        if k_start >= e_max:
            reason = f"coverage start {k_start:.6g} is not below e_max {e_max:.6g}"
        else:
            # [K, e_max] must lie in one interval of the union; coverage
            # ends at the top of the interval holding K, or at K itself
            union = merge_intervals(list(pairs1) + list(pairs2), 0.0)
            end = next((hi for lo, hi in union if lo <= k_start <= hi), k_start)
            ok = end >= e_max
            reason = "verified" if ok else f"coverage of [K, e_max] ends at energy {end:.6f}"
    return FiniteGapCertificate(
        verified=ok,
        reason=reason,
        coverage_start=k_start,
        e_max=float(e_max),
        n_asymptotic=n_cert,
        delta=delta,
        w_low=w1,
        w_high=w2,
        max_edge_deviation=max_dev,
    )
