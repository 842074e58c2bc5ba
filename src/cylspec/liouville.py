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
    zero branch       V = eta^2 - eta'          (multi-component boundary)

The magnetic branch is exactly the electric one with the roles of eps
and mu exchanged (eta flips sign under the swap), so a single code path
serves all three flavors, driven by a swapped view of the transform.

Transported derivatives never touch finite differences: with
w = eps*mu and ' denoting d/dz,

    g~'(y)  = g'/sqrt(w)
    g~''(y) = g''/w - g' (eps' mu + eps mu') / (2 w^2)

which follow from dz/dy = 1/sqrt(w).

Every mode potential on a transform shares one change of variable, and
the inverse map is almost all of the cost of evaluating a potential.
So each distinct y-grid is inverted once per transform: `sample(ys)`
keeps z(ys) and the eps/mu triples (value, d/dz, d^2/dz^2) at z(ys) in
a memo shared by the transform and its swapped view, and
`ModePotential.on_grid` reads it.  The sample does not depend on the
flavor: the Newton slope sqrt(eps mu) and the integrand are symmetric
in eps and mu, so z(y) of the swapped view is bitwise that of the
original, and the magnetic view reads the same sample with the two
triples exchanged.  Every mode still forms eta and V in its own
orientation with the pointwise arithmetic, so `on_grid(ys)` is bitwise
equal to `values(ys)`.  Pointwise `values(y)` stays the exact uncached
route, which keeps the memo bounded by the grids the solvers use.

The forward map is materialized as an adaptive panel decomposition of
the integrand with a certified budget (1e-11 over the window);
inversion is a safeguarded Newton iteration bracketed by monotonicity
(y'(z) = sqrt(w) >= sqrt(inf w) > 0).  For periodic coefficients the
map extends to the whole axis through y(z + a) = y(z) + b with
b = y(a), and so does its inverse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericalError, TopologyError, ValidationError
from .profiles import (
    CoefficientProfile,
    EssentialBounds,
    Periodic,
    Stabilizing,
    essential_bounds,
)

__all__ = [
    "PanelAntiderivative",
    "SampledTransform",
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
        self.a = float(a)
        self.b = float(b)
        self.tol = float(tol)
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
class SampledTransform:
    """The inverse map on one y-grid and the eps/mu triples at z(ys).

    Arrays are read-only: one sample is shared by every mode potential
    on its transform.
    """

    ys: np.ndarray
    z: np.ndarray
    e: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    m: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def swapped(self) -> "SampledTransform":
        """The same sample with the eps and mu triples exchanged."""
        return SampledTransform(self.ys, self.z, self.m, self.m1, self.m2, self.e, self.e1, self.e2)


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
    # grid bytes -> SampledTransform in the orientation of the profile
    # given to build_transform; shared with the swapped view
    samples: dict = field(default_factory=dict, repr=False, compare=False)
    samples_lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    eps_mu_swapped: bool = False  # profile is the swap of the memo's one

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
        """z(y) by safeguarded Newton; exact bracket from monotonicity."""
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
        targets = ys + self.y_offset  # antiderivative values to hit
        total = float(self.antiderivative.cumulative[-1])
        lo = np.full_like(targets, self.z_lo)
        hi = np.full_like(targets, self.z_hi)
        z = self.z_lo + (self.z_hi - self.z_lo) * np.clip(targets / total, 0.0, 1.0)
        scale = max(1.0, total)
        for _ in range(100):
            g = self.antiderivative.eval(z) - targets
            below = g < 0
            lo = np.where(below, z, lo)
            hi = np.where(below, hi, z)
            if np.all(np.abs(g) <= _INVERSE_TOL * scale):
                break
            slope = np.sqrt(
                np.asarray(self.profile.epsilon.eval(z, 0))
                * np.asarray(self.profile.mu.eval(z, 0))
            )
            step = z - g / slope
            inside = (step > lo) & (step < hi)
            z = np.where(inside, step, 0.5 * (lo + hi))
        else:
            raise NumericalError("inverse map iteration did not converge")
        return z

    # -- transported coefficients ---------------------------------------

    def sample(self, ys) -> SampledTransform:
        """z(ys) and the eps/mu triples there, inverted once per grid.

        The memo is keyed on the grid's bytes, so only the exact same
        array reuses a sample; this view's orientation is applied on
        the way out.
        """
        ys = np.ascontiguousarray(ys, dtype=float)
        key = ys.tobytes()
        with self.samples_lock:
            base = self.samples.get(key)
            if base is None:
                z = self.inverse(ys)
                arrays = (ys.copy(), z) + self._coefficients(z)
                for a in arrays:
                    a.setflags(write=False)
                own = SampledTransform(*arrays)
                base = own.swapped() if self.eps_mu_swapped else own
                self.samples[key] = base
        return base.swapped() if self.eps_mu_swapped else base

    def _raw(self, y):
        return self._coefficients(np.atleast_1d(np.asarray(self.inverse(y), dtype=float)))

    def _coefficients(self, zs):
        e = np.asarray(self.profile.epsilon.eval(zs, 0))
        e1 = np.asarray(self.profile.epsilon.eval(zs, 1))
        e2 = np.asarray(self.profile.epsilon.eval(zs, 2))
        m = np.asarray(self.profile.mu.eval(zs, 0))
        m1 = np.asarray(self.profile.mu.eval(zs, 1))
        m2 = np.asarray(self.profile.mu.eval(zs, 2))
        return e, e1, e2, m, m1, m2

    def eps_tilde(self, y, order: int = 0):
        e, e1, e2, m, m1, m2 = self._raw(y)
        out = _transported(e, e1, e2, m, m1, order)
        return out if np.ndim(y) else float(out[0])

    def mu_tilde(self, y, order: int = 0):
        e, e1, e2, m, m1, m2 = self._raw(y)
        out = _transported(m, m1, m2, e, e1, order)
        return out if np.ndim(y) else float(out[0])

    def product_tilde(self, y):
        """eps~(y) mu~(y); equals eps(z) mu(z) at z = z(y) exactly."""
        e, _, _, m, _, _ = self._raw(y)
        out = e * m
        return out if np.ndim(y) else float(out[0])

    def nu(self, y):
        e, _, _, m, _, _ = self._raw(y)
        out = (e / m) ** 0.25
        return out if np.ndim(y) else float(out[0])

    def eta(self, y):
        out = self._eta_pair(y)[0]
        return out if np.ndim(y) else float(out[0])

    def eta_prime(self, y):
        out = self._eta_pair(y)[1]
        return out if np.ndim(y) else float(out[0])

    def _eta_pair(self, y):
        e, e1, e2, m, m1, m2 = self._raw(y)
        return _eta_from_raw(e, e1, e2, m, m1, m2)

    def curvature_term(self, y):
        """eta^2 - eta', the mode-independent part of the potential."""
        et, etp = self._eta_pair(y)
        out = et * et - etp
        return out if np.ndim(y) else float(out[0])

    def swapped(self) -> "LiouvilleData":
        """Same map with eps and mu exchanged (eta changes sign); it
        shares the grid samples, read with the triples exchanged."""
        return replace(
            self, profile=self.profile.swapped(), eps_mu_swapped=not self.eps_mu_swapped
        )


def _transported(g, g1, g2, other, other1, order: int):
    # g~(y) and derivatives of a transported coefficient; `other` is the
    # partner so that w = g * other is the wave slowness squared
    if order == 0:
        return g
    w = g * other
    if order == 1:
        return g1 / np.sqrt(w)
    if order == 2:
        return g2 / w - g1 * (g1 * other + g * other1) / (2.0 * w * w)
    raise ValidationError(f"derivative order {order} not available")


def _eta_from_raw(e, e1, e2, m, m1, m2):
    w = e * m
    sw = np.sqrt(w)
    et1 = e1 / sw
    mt1 = m1 / sw
    et2 = e2 / w - e1 * (e1 * m + e * m1) / (2.0 * w * w)
    mt2 = m2 / w - m1 * (e1 * m + e * m1) / (2.0 * w * w)
    le = et1 / e
    lm = mt1 / m
    eta_val = 0.25 * (le - lm)
    eta_der = 0.25 * (et2 / e - le * le - mt2 / m + lm * lm)
    return eta_val, eta_der


def build_transform(
    profile: CoefficientProfile,
    window: tuple[float, float] | None = None,
) -> LiouvilleData:
    """Materialize the travel-time map for a profile.

    Stabilizing profiles need an explicit window containing 0; periodic
    profiles are built over one period [0, a] and extend globally.
    """
    bounds = essential_bounds(profile)
    if isinstance(profile.classification, Periodic):
        a = profile.period
        z_lo, z_hi = 0.0, a
    else:
        if window is None:
            raise ValidationError("stabilizing profiles need an explicit window")
        z_lo, z_hi = float(window[0]), float(window[1])
        if not (z_lo < 0.0 < z_hi):
            raise ValidationError("transform window must contain z = 0")

    def integrand(z):
        return np.sqrt(
            np.asarray(profile.epsilon.eval(z, 0)) * np.asarray(profile.mu.eval(z, 0))
        )

    panels = PanelAntiderivative(integrand, z_lo, z_hi, _FORWARD_TOL)
    offset = float(panels.eval(0.0)) if z_lo < 0.0 else 0.0
    period_b = None
    if isinstance(profile.classification, Periodic):
        period_b = float(panels.cumulative[-1])
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
    data: LiouvilleData  # already swapped for the magnetic flavor
    threshold: float | None
    lower_bound: float
    period_b: float | None
    index: int | None = None

    def values(self, y):
        out = self._from_raw(*self.data._raw(y))
        return out if np.ndim(y) else float(out[0])

    __call__ = values

    def on_grid(self, ys) -> np.ndarray:
        """V on a grid from the transform's shared sample; bitwise equal
        to values(ys)."""
        s = self.data.sample(ys)
        return self._from_raw(s.e, s.e1, s.e2, s.m, s.m1, s.m2)

    def _from_raw(self, e, e1, e2, m, m1, m2):
        et, etp = _eta_from_raw(e, e1, e2, m, m1, m2)
        return et * et - etp + self.mode_constant / (e * m)

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
    *,
    index: int | None = None,
    n_boundary: int = 1,
) -> ModePotential:
    """Assemble the reduced potential for one mode.

    The magnetic flavor runs the electric construction on the swapped
    transform; the zero flavor is the electric one at constant 0 and
    exists only when the boundary has at least two components.
    """
    cls = data.profile.classification
    if flavor == "el":
        if not mode_constant > 0:
            raise ValidationError("electric flavor needs a positive mode constant")
        mode_data = data
    elif flavor == "m":
        if not mode_constant > 0:
            raise ValidationError("magnetic flavor needs a positive mode constant")
        mode_data = data.swapped()
    elif flavor == "zero":
        if mode_constant != 0.0:
            raise ValidationError("zero flavor carries mode constant 0")
        if n_boundary < 2:
            raise TopologyError(
                "zero-mode branch needs a multiply connected cross-section (N >= 2)"
            )
        mode_data = data
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
        data=mode_data,
        threshold=threshold,
        lower_bound=float(lower_bound),
        period_b=data.period_b,
        index=index,
    )
