"""Travel-time change of variable and the reduced 1D potentials.

Each transverse mode of the layered cylinder separates into a weighted
second-order operator on the axis.  The substitution

    y(z) = integral_0^z sqrt(eps(s) mu(s)) ds

(the optical travel time) together with the gauge factor

    nu(y) = eps~(y)^{1/4} mu~(y)^{-1/4},      g~(y) := g(z(y)),

turns every one of them into an unweighted Schrodinger operator
-d^2/dy^2 + V(y).  Writing eta = nu'/nu = (eps~'/eps~ - mu~'/mu~)/4,
the potentials are

    electric branch   V = eta^2 - eta' + lambda_k / (eps~ mu~)
    magnetic branch   V = eta^2 + eta' + kappa_l / (eps~ mu~)
    zero branch       V = eta^2 - eta'

The magnetic branch is exactly the electric one with the roles of eps
and mu exchanged (eta flips sign under the swap), so a single code path
serves all three flavors: a magnetic potential reads the eps and mu
data of the one transform in exchanged roles.

One function computes the curvature term eta^2 - eta' of every flavor
from eps, mu and their z-derivatives, with no finite differences: with
w = eps*mu and ' denoting d/dz,

    g~'(y)  = g'/sqrt(w)
    g~''(y) = g''/w - g' (eps' mu + eps mu') / (2 w^2)

which follow from dz/dy = 1/sqrt(w).

Every mode potential on a transform shares one change of variable, and
the inverse map is almost all of the cost of evaluating a potential.
So every read of the transformed coefficients goes through one memo:
each distinct y-grid is inverted once per transform, and the eps/mu
triples (value, d/dz, d^2/dz^2) at z(ys) are kept, read-only, for every
later read of the same grid.  The memo holds one orientation, that of
the transform's profile, and serves every flavor: each mode potential
orders the two triples by its own flavor.  (The Newton slope sqrt(eps
mu) and the integrand are symmetric in eps and mu, so a transform of
the swapped profile has bitwise the same z(y).)  In `cylspec run` the
memo holds the solver grids and a two-point grid per step of the settle
search; library calls that read at points of their own (the variational
witness search and bound) add those grids.  Past _MEMO_GRIDS grids the
memo drops the oldest, so reading point by point cannot grow it.

The forward map is materialized as an adaptive panel decomposition of
the integrand with a certified budget (1e-11 over the window).
Inversion starts from the chord of the map between its panel breaks and
runs Newton per point, bisecting a step that leaves the point's bracket
(the map is monotone: y'(z) = sqrt(w) >= sqrt(inf w) > 0); each point
stops as soon as it meets the residual tolerance, so a batch costs the
few evaluations of its slowest point.  For periodic coefficients the
map extends to the whole axis through y(z + a) = y(z) + b with
b = y(a), and so does its inverse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericalError, ValidationError
from .profiles import (
    CoefficientProfile,
    EssentialBounds,
    Periodic,
    Stabilizing,
    # not called here; the traced benchmark (bench/spans.py) wraps it by name
    essential_bounds,  # noqa: F401
)

__all__ = [
    "PanelAntiderivative",
    "LiouvilleData",
    "ModePotential",
    "build_transform",
    "build_potential",
]

_GL_NODES, _GL_WEIGHTS = leggauss(15)
_MAX_DEPTH = 48
# quadrature budget of the forward map over its window
_FORWARD_TOL = 1e-11
# residual of the inverse map, relative to max(1, travel time of the window)
_INVERSE_TOL = 1e-13
# grids the per-transform memo keeps; a run reads a few (3 on the
# stab-bump benchmark, 8 on gap-cert)
_MEMO_GRIDS = 64


class PanelAntiderivative:
    """Cumulative integral of a smooth positive function on [a, b].

    Panels are split until a 15-point Gauss value agrees with its
    two-half refinement within the panel's share of the total budget.
    Evaluation inside a panel reuses the 15-point rule on the partial
    interval, which stays far below the budget once the panel itself
    has converged.
    """

    def __init__(self, fun, a: float, b: float, tol: float):
        if not b > a:
            raise ValidationError(f"empty integration window [{a}, {b}]")
        self.fun = fun
        breaks = [a]
        values = []
        width_total = b - a
        # seed with 16 panels so narrow features are seen before acceptance
        seeds = np.linspace(a, b, 17)
        stack = [(seeds[i], seeds[i + 1], 0) for i in range(16)][::-1]
        while stack:
            lo, hi, depth = stack.pop()
            coarse = self._gl(lo, hi)
            mid = 0.5 * (lo + hi)
            fine = self._gl(lo, mid) + self._gl(mid, hi)
            budget = tol * (hi - lo) / width_total
            if abs(fine - coarse) <= max(budget, 1e-16 * abs(fine)):
                breaks.append(hi)
                values.append(fine)
            else:
                if depth >= _MAX_DEPTH:
                    raise NumericalError(
                        f"quadrature failed to converge on [{lo}, {hi}] "
                        f"(residual {abs(fine - coarse):.3e}, budget {budget:.3e})"
                    )
                stack.append((mid, hi, depth + 1))
                stack.append((lo, mid, depth + 1))
        self.breaks = np.asarray(breaks)
        self.cumulative = np.concatenate([[0.0], np.cumsum(values)])

    def _gl(self, lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(_GL_WEIGHTS, self.fun(mid + half * _GL_NODES)))

    def eval(self, z):
        """F(z) = integral from a to z, vectorized, z within [a, b]."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, zs, side="right") - 1, 0, len(self.breaks) - 2)
        lo = self.breaks[idx]
        half = 0.5 * (zs - lo)
        mid = lo + half
        nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = self.fun(nodes.ravel()).reshape(nodes.shape)
        partial = half * (vals @ _GL_WEIGHTS)
        out = self.cumulative[idx] + partial
        return out if np.ndim(z) else float(out[0])


@dataclass(frozen=True)
class LiouvilleData:
    """Materialized travel-time transform over a window (or one period)."""

    profile: CoefficientProfile
    z_lo: float
    z_hi: float
    antiderivative: PanelAntiderivative
    y_offset: float  # F(0), subtracted so that y(0) = 0
    period_b: float | None  # travel time of one period, periodic case only
    bounds: EssentialBounds
    # grid shape and bytes -> the eps/mu triples at z(ys), shared by
    # every mode potential on this transform; oldest first.  The lock is
    # for library callers that share a transform across their own threads
    samples: dict = field(default_factory=dict, repr=False, compare=False)
    samples_lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    # -- maps -----------------------------------------------------------

    @property
    def y_lo(self) -> float:
        return -self.y_offset

    @property
    def y_hi(self) -> float:
        return float(self.antiderivative.cumulative[-1]) - self.y_offset

    def _check_z(self, zs):
        tol = 1e-9 * max(1.0, abs(self.z_lo), abs(self.z_hi))
        if np.any(zs < self.z_lo - tol) or np.any(zs > self.z_hi + tol):
            raise ValidationError("z outside the transform window")

    def forward(self, z):
        """y(z) = integral_0^z sqrt(eps mu)."""
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        if self.period_b is not None:
            a = self.z_hi - self.z_lo
            k = np.floor(zs / a)
            out = k * self.period_b + self.antiderivative.eval(zs - k * a) - self.y_offset
        else:
            self._check_z(zs)
            out = self.antiderivative.eval(np.clip(zs, self.z_lo, self.z_hi)) - self.y_offset
        return out if np.ndim(z) else float(out[0])

    def inverse(self, y):
        """z(y) by per-point Newton; exact bracket from monotonicity."""
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        if self.period_b is not None:
            a = self.z_hi - self.z_lo
            k = np.floor(ys / self.period_b)
            base = self._invert_window(ys - k * self.period_b)
            out = k * a + base
        else:
            span = 1e-9 * max(1.0, abs(self.y_lo), abs(self.y_hi))
            if np.any(ys < self.y_lo - span) or np.any(ys > self.y_hi + span):
                raise ValidationError("y outside the transform window")
            out = self._invert_window(np.clip(ys, self.y_lo, self.y_hi))
        return out if np.ndim(y) else float(out[0])

    def _invert_window(self, ys):
        # Newton on F(z) = target per point, bisecting where a step leaves
        # the point's bracket; a point leaves the batch once it meets the
        # tolerance, so a converged point is never stepped again
        panels = self.antiderivative
        targets = ys + self.y_offset  # antiderivative values to hit
        tol = _INVERSE_TOL * max(1.0, float(panels.cumulative[-1]))
        # start from the chord of F between the panel breaks around each target
        out = np.interp(targets, panels.cumulative, panels.breaks)
        # the points not yet converged: indices, iterates, targets, brackets
        todo, z, t = np.arange(out.size), out, targets
        lo, hi = np.full_like(z, self.z_lo), np.full_like(z, self.z_hi)
        for _ in range(100):
            g = panels.eval(z) - t
            live = np.abs(g) > tol
            out[todo[~live]] = z[~live]
            if not live.any():
                return out
            todo, z, t, g, lo, hi = todo[live], z[live], t[live], g[live], lo[live], hi[live]
            below = g < 0
            lo = np.where(below, z, lo)
            hi = np.where(below, hi, z)
            slope = np.sqrt(self.profile.product(z))
            step = z - g / slope
            inside = (step > lo) & (step < hi)
            z = np.where(inside, step, 0.5 * (lo + hi))
        raise NumericalError("inverse map iteration did not converge")

    # -- transported coefficients ---------------------------------------

    def _raw(self, y):
        """eps and mu with their first two z-derivatives at z(y); each
        distinct grid among the latest _MEMO_GRIDS is inverted once."""
        ys = np.ascontiguousarray(np.atleast_1d(y), dtype=float)
        key = (ys.shape, ys.tobytes())
        with self.samples_lock:
            raw = self.samples.get(key)
            if raw is None:
                raw = self._coefficients(self.inverse(ys))
                for a in raw:
                    a.setflags(write=False)
                if len(self.samples) >= _MEMO_GRIDS:
                    del self.samples[next(iter(self.samples))]
                self.samples[key] = raw
        return raw

    def _coefficients(self, zs):
        e = np.asarray(self.profile.epsilon.eval(zs, 0))
        e1 = np.asarray(self.profile.epsilon.eval(zs, 1))
        e2 = np.asarray(self.profile.epsilon.eval(zs, 2))
        m = np.asarray(self.profile.mu.eval(zs, 0))
        m1 = np.asarray(self.profile.mu.eval(zs, 1))
        m2 = np.asarray(self.profile.mu.eval(zs, 2))
        return e, e1, e2, m, m1, m2

    def product_tilde(self, y):
        """eps~(y) mu~(y); equals eps(z) mu(z) at z = z(y) exactly."""
        e, _, _, m, _, _ = self._raw(y)
        out = e * m
        return out if np.ndim(y) else float(out[0])


def _curvature(raw):
    """eta^2 - eta' from the eps and mu triples (value, d/dz, d^2/dz^2)."""
    # the order of these operations sets V's last bits, which the goldens pin
    e, e1, e2, m, m1, m2 = raw
    w = e * m
    root = np.sqrt(w)
    dw = e1 * m + e * m1
    le = e1 / root / e
    lm = m1 / root / m
    et2 = e2 / w - e1 * dw / (2.0 * w * w)
    mt2 = m2 / w - m1 * dw / (2.0 * w * w)
    eta = 0.25 * (le - lm)
    eta_der = 0.25 * (et2 / e - le * le - mt2 / m + lm * lm)
    return eta * eta - eta_der


def build_transform(
    profile: CoefficientProfile,
    bounds: EssentialBounds,
    window: tuple[float, float] | None = None,
) -> LiouvilleData:
    """Materialize the travel-time map of a profile, given its essential bounds.

    Stabilizing profiles need an explicit window containing 0; periodic
    profiles are built over one period [0, a] and extend globally.
    """
    periodic = isinstance(profile.classification, Periodic)
    if periodic:
        z_lo, z_hi = 0.0, profile.period
    else:
        if window is None:
            raise ValidationError("stabilizing profiles need an explicit window")
        z_lo, z_hi = float(window[0]), float(window[1])
        if not (z_lo < 0.0 < z_hi):
            raise ValidationError("transform window must contain z = 0")

    def integrand(z):
        return np.sqrt(profile.product(z))

    panels = PanelAntiderivative(integrand, z_lo, z_hi, _FORWARD_TOL)
    offset = float(panels.eval(0.0)) if z_lo < 0.0 else 0.0
    period_b = float(panels.cumulative[-1]) if periodic else None
    return LiouvilleData(
        profile=profile,
        z_lo=z_lo,
        z_hi=z_hi,
        antiderivative=panels,
        y_offset=offset,
        period_b=period_b,
        bounds=bounds,
    )


@dataclass(frozen=True)
class ModePotential:
    """Potential of one reduced mode, with its spectral landmarks.

    threshold is the essential-spectrum edge mode_constant/(eps* mu*)
    in the stabilizing case (None for periodic); lower_bound is the
    universal floor mode_constant/sup(eps mu), below which the mode has
    no spectrum at all.
    """

    flavor: str  # "el" | "m" | "zero"
    mode_constant: float
    data: LiouvilleData  # the transform, shared by every flavor
    threshold: float | None
    lower_bound: float
    period_b: float | None

    def _raw(self, y):
        # the memo triples in this flavor's roles: the magnetic potential
        # is the electric one with eps and mu exchanged
        raw = self.data._raw(y)
        return raw[3:] + raw[:3] if self.flavor == "m" else raw

    def curvature_term(self, y):
        """eta^2 - eta' of this flavor, the mode-independent part of V."""
        out = _curvature(self._raw(y))
        return out if np.ndim(y) else float(out[0])

    def values(self, y):
        raw = self._raw(y)
        out = _curvature(raw) + self.mode_constant / (raw[0] * raw[3])
        return out if np.ndim(y) else float(out[0])

    __call__ = values

    @property
    def y_lo(self) -> float:
        return self.data.y_lo

    @property
    def y_hi(self) -> float:
        return self.data.y_hi


def build_potential(
    data: LiouvilleData,
    flavor: str,
    mode_constant: float,
) -> ModePotential:
    """Assemble the reduced potential for one mode.

    Every flavor reads the same transform; the magnetic potential reads
    its eps and mu in exchanged roles.  The zero flavor is the electric
    one at constant 0; whether a cross-section has that branch at all
    is the mode budget's call (ModeBudget.include_zero_branch).
    """
    cls = data.profile.classification
    if flavor in ("el", "m"):
        if not mode_constant > 0:
            kind = "electric" if flavor == "el" else "magnetic"
            raise ValidationError(f"{kind} flavor needs a positive mode constant")
    elif flavor == "zero":
        if mode_constant != 0.0:
            raise ValidationError("zero flavor carries mode constant 0")
    else:
        raise ValidationError(f"unknown flavor {flavor!r}")

    if isinstance(cls, Stabilizing):
        threshold = mode_constant / (cls.eps_limit * cls.mu_limit)
    else:
        threshold = None
    lower_bound = mode_constant / data.bounds.product_sup
    return ModePotential(
        flavor=flavor,
        mode_constant=float(mode_constant),
        data=data,
        threshold=threshold,
        lower_bound=float(lower_bound),
        period_b=data.period_b,
    )
