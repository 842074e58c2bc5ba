"""Axial material profiles eps(z), mu(z) and their certified bounds.

Every profile in scope is built from four closed-form families

    constant          c
    gaussian_bump     base + A exp(-((z - c)/w)^2)
    sech2_bump        base + A sech((z - c)/w)^2
    cosine_periodic   mean + A cos(2 pi z / a)

and finite sums of compatible families.  All of them are smooth,
bounded, and bounded away from zero once validated, with first and
second derivatives available in closed form.  Derivatives are never
approximated by differences here: the coordinate transform downstream
consumes exact derivative values.

A coefficient pair is classified either as stabilizing (eps and mu
approach limits eps*, mu* with integrable decay; bump families) or as
periodic with a shared period a (cosine families).  The classification
decides which spectral analysis applies.  It is derived from the
families at construction, never declared: the limits are the family
tails, and the period is the longest cosine period, which every other
cosine period must divide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "Constant",
    "GaussianBump",
    "Sech2Bump",
    "CosinePeriodic",
    "ProfileSum",
    "ProfileFamily",
    "Stabilizing",
    "Periodic",
    "CoefficientProfile",
    "make_profile",
    "EssentialBounds",
    "essential_bounds",
    "ProductComparison",
    "locate_product_excess",
]

DEFAULT_POSITIVITY_FLOOR = 1e-9
# grid points of the Lipschitz-padded range samples of a sum and of eps*mu
_BOUND_SAMPLES = 20001
# grid points of the excess search of eps*mu over eps* mu*
_EXCESS_SAMPLES = 40001


class _Family:
    """A closed-form family: `eval` checks the derivative order and gives a
    float for a scalar z; the subclass's `_eval(z, order)` works on a
    float array.  A leaf is its own only term, with no limit and no bump
    window unless it says otherwise."""

    def eval(self, z, order: int = 0):
        if order not in (0, 1, 2):
            raise ValidationError(f"derivative order {order} not available")
        out = self._eval(np.asarray(z, dtype=float), order)
        if np.isscalar(z) or getattr(z, "ndim", 1) == 0:
            return float(out)
        return out

    def terms(self):
        return [self]

    def limit(self):
        return None

    def bump_window(self):
        return None


@dataclass(frozen=True)
class Constant(_Family):
    value: float

    def _eval(self, z, order):
        return np.full_like(z, self.value) if order == 0 else np.zeros_like(z)

    def limit(self):
        return self.value

    def bounds_exact(self):
        return (self.value, self.value)

    def derivative_sup(self):
        return 0.0


@dataclass(frozen=True)
class _Bump(_Family):
    """base + amplitude * shape((z - center) / width); the subclass gives
    the shape, the sup of its derivative and the reach of its window in
    widths."""

    base: float
    amplitude: float
    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValidationError("bump width must be positive")

    def limit(self):
        return self.base

    def bounds_exact(self):
        return (self.base + min(0.0, self.amplitude), self.base + max(0.0, self.amplitude))

    def derivative_sup(self):
        return abs(self.amplitude) * self._DSUP / self.width

    def bump_window(self):
        return (self.center - self._REACH * self.width, self.center + self._REACH * self.width)


@dataclass(frozen=True)
class GaussianBump(_Bump):
    _DSUP = math.sqrt(2.0) * math.exp(-0.5)  # sup_u |d/du exp(-u^2)|
    _REACH = 12.0

    def _eval(self, z, order):
        u = (z - self.center) / self.width
        g = np.exp(-u * u)
        if order == 0:
            return self.base + self.amplitude * g
        if order == 1:
            return self.amplitude * (-2.0 * u) * g / self.width
        return self.amplitude * (4.0 * u * u - 2.0) * g / self.width**2


@dataclass(frozen=True)
class Sech2Bump(_Bump):
    _DSUP = 4.0 / (3.0 * math.sqrt(3.0))  # sup_u |d/du sech^2 u|
    _REACH = 16.0

    def _eval(self, z, order):
        u = (z - self.center) / self.width
        s = 1.0 / np.cosh(u)
        s2 = s * s
        t = np.tanh(u)
        if order == 0:
            return self.base + self.amplitude * s2
        if order == 1:
            return self.amplitude * (-2.0 * s2 * t) / self.width
        return self.amplitude * (4.0 * s2 * t * t - 2.0 * s2 * s2) / self.width**2


@dataclass(frozen=True)
class CosinePeriodic(_Family):
    mean: float
    amplitude: float
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise ValidationError("period must be positive")

    def _eval(self, z, order):
        k = 2.0 * np.pi / self.period
        ph = k * z
        if order == 0:
            return self.mean + self.amplitude * np.cos(ph)
        if order == 1:
            return -self.amplitude * k * np.sin(ph)
        return -self.amplitude * k * k * np.cos(ph)

    def bounds_exact(self):
        return (self.mean - abs(self.amplitude), self.mean + abs(self.amplitude))

    def derivative_sup(self):
        return abs(self.amplitude) * 2.0 * np.pi / self.period


@dataclass(frozen=True)
class ProfileSum(_Family):
    terms_: tuple

    def __init__(self, terms):
        flat = []
        for t in terms:
            flat.extend(t.terms())
        if not flat:
            raise ValidationError("empty profile sum")
        object.__setattr__(self, "terms_", tuple(flat))

    def _eval(self, z, order):
        out = np.zeros_like(z)
        for t in self.terms_:
            out = out + t._eval(z, order)
        return out

    def terms(self):
        return list(self.terms_)

    def limit(self):
        parts = [t.limit() for t in self.terms_]
        if any(p is None for p in parts):
            return None
        return float(sum(parts))

    def bounds_exact(self):
        return None  # sums certified by sampling at the profile level

    def derivative_sup(self):
        return float(sum(t.derivative_sup() for t in self.terms_))

    def bump_window(self):
        wins = [t.bump_window() for t in self.terms_ if t.bump_window() is not None]
        if not wins:
            return None
        return (min(w[0] for w in wins), max(w[1] for w in wins))


ProfileFamily = Constant | GaussianBump | Sech2Bump | CosinePeriodic | ProfileSum


@dataclass(frozen=True)
class Stabilizing:
    eps_limit: float
    mu_limit: float


@dataclass(frozen=True)
class Periodic:
    period: float


def _sampling_window(fams, classification) -> tuple[float, float]:
    """One period, or the union of the families' bump windows, (-1, 1)
    standing in for a family without one."""
    if isinstance(classification, Periodic):
        return (0.0, classification.period)
    wins = [fam.bump_window() or (-1.0, 1.0) for fam in fams]
    return (min(w[0] for w in wins), max(w[1] for w in wins))


def _padded_range(f, lip: float, fams, classification, limit) -> tuple[float, float]:
    """A certified bracket of the range of f: one family of fams, or
    their product.

    f is sampled at _BOUND_SAMPLES points over the sampling window of
    fams, and the sampled range is padded by half a step times lip, a
    Lipschitz bound of f, so it always contains the true range over the
    window.  f at the window ends and at the bump centres inside it is
    folded in, and for stabilizing coefficients so is limit(), so tails
    beyond the window cannot escape the bracket.
    """
    lo, hi = _sampling_window(fams, classification)
    zs = np.linspace(lo, hi, _BOUND_SAMPLES)
    vals = f(zs)
    pad = 0.5 * (zs[1] - zs[0]) * lip
    vmin, vmax = float(np.min(vals)) - pad, float(np.max(vals)) + pad
    centres = [t.center for fam in fams for t in fam.terms() if isinstance(t, _Bump)]
    extra = [f(p) for p in [lo, hi] + [c for c in centres if lo <= c <= hi]]
    if isinstance(classification, Stabilizing):
        extra.append(limit())
    return (min(vmin, *extra), max(vmax, *extra))


def _certified_bounds(fam: ProfileFamily, classification) -> tuple[float, float]:
    """Closed form for leaves, a padded range for sums."""
    exact = fam.bounds_exact()
    if exact is not None:
        return exact
    return _padded_range(fam.eval, fam.derivative_sup(), (fam,), classification, fam.limit)


@dataclass(frozen=True)
class EssentialBounds:
    eps_lower: float
    eps_upper: float
    mu_lower: float
    mu_upper: float
    product_sup: float


@dataclass(frozen=True)
class CoefficientProfile:
    epsilon: ProfileFamily
    mu: ProfileFamily
    classification: Stabilizing | Periodic

    @property
    def period(self) -> float:
        if not isinstance(self.classification, Periodic):
            raise ValidationError("profile is not periodic")
        return self.classification.period

    @property
    def eps_limit(self) -> float:
        if not isinstance(self.classification, Stabilizing):
            raise ValidationError("profile is not stabilizing")
        return self.classification.eps_limit

    @property
    def mu_limit(self) -> float:
        if not isinstance(self.classification, Stabilizing):
            raise ValidationError("profile is not stabilizing")
        return self.classification.mu_limit

    @property
    def limit_product(self) -> float:
        return self.eps_limit * self.mu_limit

    def product(self, z):
        """eps(z) mu(z), a float for a scalar z."""
        return self.epsilon.eval(z, 0) * self.mu.eval(z, 0)

    def swapped(self) -> "CoefficientProfile":
        """Same material with the roles of eps and mu exchanged."""
        cls = self.classification
        if isinstance(cls, Stabilizing):
            cls = Stabilizing(cls.mu_limit, cls.eps_limit)
        return CoefficientProfile(self.mu, self.epsilon, cls)


def _validate_periodic_family(fam: ProfileFamily, a: float, label: str):
    for t in fam.terms():
        if isinstance(t, Constant):
            continue
        if not isinstance(t, CosinePeriodic):
            raise ValidationError(f"{label}: family {type(t).__name__} is not periodic")
        ratio = a / t.period
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValidationError(
                f"{label}: component period {t.period} does not divide the profile period {a}"
            )
    # the contract is exact periodicity, so check it numerically too
    zs = np.linspace(0.0, a, 1000)
    v0 = np.asarray(fam.eval(zs, 0))
    v1 = np.asarray(fam.eval(zs + a, 0))
    scale = max(1.0, float(np.max(np.abs(v0))))
    if np.max(np.abs(v1 - v0)) > 1e-12 * scale:
        raise ValidationError(f"{label}: profile fails the shared-period check")


def _derive_classification(eps: ProfileFamily, mu: ProfileFamily):
    # a bump term makes its family aperiodic; the profile period is the
    # longest cosine period among the families without one
    periods = []
    for fam in (eps, mu):
        terms = fam.terms()
        if not any(isinstance(t, _Bump) for t in terms):
            periods += [t.period for t in terms if isinstance(t, CosinePeriodic)]
    if periods:
        return Periodic(max(periods))
    if all(isinstance(t, (Constant, _Bump)) for t in eps.terms() + mu.terms()):
        return Stabilizing(eps.limit(), mu.limit())
    raise ValidationError(
        "cannot classify profile: both families must be built from constants and bumps "
        "(stabilizing) or from constants and cosines (periodic)"
    )


def make_profile(epsilon: ProfileFamily, mu: ProfileFamily) -> CoefficientProfile:
    """Classify and validate a coefficient pair.

    Raises ValidationError when the families fit neither classification,
    when a periodic family does not repeat with the derived period, or
    when either coefficient is not certified to stay above the floor.
    """
    classification = _derive_classification(epsilon, mu)
    if isinstance(classification, Periodic):
        _validate_periodic_family(epsilon, classification.period, "epsilon")
        _validate_periodic_family(mu, classification.period, "mu")

    for fam, label in ((epsilon, "epsilon"), (mu, "mu")):
        low, _ = _certified_bounds(fam, classification)
        if low < DEFAULT_POSITIVITY_FLOOR:
            raise ValidationError(
                f"{label}: certified lower bound {low:.3g} is below the floor "
                f"{DEFAULT_POSITIVITY_FLOOR:.3g}"
            )
    return CoefficientProfile(epsilon, mu, classification)


def essential_bounds(profile: CoefficientProfile) -> EssentialBounds:
    """(eps_0, eps_1, mu_0, mu_1, sup eps*mu), each bracket certified.

    Leaves get exact closed-form ranges.  When one coefficient is
    constant the product bound is exact as well; otherwise the product
    is sampled densely with Lipschitz padding, which can only widen the
    bracket, never miss a value.
    """
    eps, mu, cls = profile.epsilon, profile.mu, profile.classification
    e_lo, e_hi = _certified_bounds(eps, cls)
    m_lo, m_hi = _certified_bounds(mu, cls)
    if isinstance(eps, Constant):
        prod_sup = eps.value * m_hi
    elif isinstance(mu, Constant):
        prod_sup = mu.value * e_hi
    else:
        lip = eps.derivative_sup() * m_hi + mu.derivative_sup() * e_hi
        _, prod_sup = _padded_range(profile.product, lip, (eps, mu), cls, lambda: profile.limit_product)
    return EssentialBounds(e_lo, e_hi, m_lo, m_hi, float(prod_sup))


@dataclass(frozen=True)
class ProductComparison:
    """Verdict of the pointwise test eps(z) mu(z) <= eps* mu*."""

    exceeds_limit: bool
    witness: float | None
    observed_max: float
    limit: float


def locate_product_excess(profile: CoefficientProfile) -> ProductComparison:
    """Decide whether eps*mu stays below its limit product everywhere.

    A strict sample above the limit is a sound witness (returned after a
    local golden-section polish).  The everywhere-below verdict is a
    dense-grid certificate on the window containing all bump supports.
    """
    if not isinstance(profile.classification, Stabilizing):
        raise ValidationError("product comparison applies to stabilizing profiles only")
    limit = profile.limit_product
    window = _sampling_window((profile.epsilon, profile.mu), profile.classification)
    zs = np.linspace(*window, _EXCESS_SAMPLES)
    prod = profile.product(zs)
    i = int(np.argmax(prod))
    best = float(prod[i])
    if best <= limit * (1.0 + 1e-13):
        return ProductComparison(False, None, best, limit)

    # polish the witness: golden-section maximization on the bracketing cell
    a, b = zs[max(i - 1, 0)], zs[min(i + 1, zs.size - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = profile.product(c), profile.product(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = profile.product(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = profile.product(d)
    z0 = 0.5 * (a + b)
    return ProductComparison(True, float(z0), profile.product(z0), limit)

