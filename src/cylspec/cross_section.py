"""Transverse eigenvalue data for the cylinder cross-section.

The axial reduction consumes two scalar sequences attached to the
cross-section U: the Dirichlet Laplacian eigenvalues

    0 < lambda_1 < lambda_2 <= lambda_3 <= ...

and the Neumann eigenvalues

    0 = kappa_1 < kappa_2 <= kappa_3 <= ...

repeated according to multiplicity.  `CrossSectionSpectrum` is the one
type that holds them, and it checks both orderings on construction, so
explicit lists (for testing, or computed elsewhere) go straight into it.
Two shapes have closed forms, which `build_spectrum` evaluates:

  rectangle (w, h):  pi^2 (m^2/w^2 + n^2/h^2), m, n >= 1 (Dirichlet),
                     m, n >= 0 (Neumann);
  disk (R):          (j_{m,i}/R)^2 from zeros of the Bessel function J_m
                     (Dirichlet) and of its derivative J_m' (Neumann),
                     each order m >= 1 contributing twice (cos/sin pairs).

For any bounded connected section the second Neumann eigenvalue lies
strictly below the first Dirichlet one (kappa_2 < lambda_1); that
ordering is what places the boundary of the low-frequency spectral gap,
so it is validated rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError

__all__ = [
    "Rectangle",
    "Disk",
    "CrossSectionSpectrum",
    "build_spectrum",
    "validate_friedlander",
]


@dataclass(frozen=True)
class Rectangle:
    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValidationError("rectangle sides must be positive")


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError("disk radius must be positive")


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Transverse data consumed by the axial reduction: ascending lists,
    one value per entry, multiplicity by repetition."""

    dirichlet: tuple[float, ...]
    neumann: tuple[float, ...]
    boundary_components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dirichlet", tuple(float(v) for v in self.dirichlet))
        object.__setattr__(self, "neumann", tuple(float(v) for v in self.neumann))
        if self.boundary_components < 1:
            raise ValidationError("boundary_components must be >= 1")
        d, n = self.dirichlet, self.neumann
        if d and not (d[0] > 0 and all(a <= b for a, b in zip(d, d[1:]))):
            raise ValidationError("dirichlet list must be ascending and positive")
        if n:
            if n[0] != 0.0:
                raise ValidationError("neumann list must start at 0")
            if not all(a <= b for a, b in zip(n, n[1:])):
                raise ValidationError("neumann list must be ascending")
            if len(n) > 1 and not n[1] > 0:
                raise ValidationError("neumann 0 must be simple (kappa_2 > 0)")


def _rectangle_levels(width: float, height: float, count: int, lowest: int) -> list[float]:
    # the lowest count of pi^2 (m^2/w^2 + n^2/h^2) over m, n >= lowest; the
    # cap is the level m = n = count + 1, so the diagonal levels m = n <=
    # count + 1 alone put more than count levels under it
    pi2 = np.pi * np.pi
    cap = pi2 * (count + 1) ** 2 * (1.0 / width**2 + 1.0 / height**2)
    reach = np.sqrt(cap / pi2)  # m <= width * reach and n <= height * reach
    m = np.arange(lowest, int(width * reach) + 2)[:, None]
    n = np.arange(lowest, int(height * reach) + 2)
    v = pi2 * (m * m / width**2 + n * n / height**2)
    return np.sort(v[v <= cap])[:count].tolist()


def _disk_levels(radius: float, count: int, neumann: bool) -> list[float]:
    if count == 0:
        return []
    # imported here: only disk sections need Bessel zeros, and scipy.special
    # would add to every run's start-up
    from scipy.special import jn_zeros, jnp_zeros

    # pool zeros order by order; order m >= 1 enters with multiplicity 2
    zeros_of = jnp_zeros if neumann else jn_zeros
    vals: list[float] = [0.0] if neumann else []
    m = 0
    while True:
        z = zeros_of(m, count)
        levels = (z / radius) ** 2
        mult = 1 if m == 0 else 2
        for v in levels:
            vals.extend([float(v)] * mult)
        vals.sort()
        if len(vals) >= count:
            nxt = float(zeros_of(m + 1, 1)[0] / radius) ** 2
            if nxt > vals[count - 1]:
                return vals[:count]
        m += 1


def build_spectrum(
    spec: Rectangle | Disk, dirichlet_count: int, neumann_count: int
) -> CrossSectionSpectrum:
    """The lowest dirichlet_count Dirichlet and neumann_count Neumann
    eigenvalues of a rectangle or a disk (one boundary component)."""
    if dirichlet_count < 0 or neumann_count < 0:
        raise ValidationError("count must be non-negative")
    if isinstance(spec, Rectangle):
        d = _rectangle_levels(spec.width, spec.height, dirichlet_count, lowest=1)
        n = _rectangle_levels(spec.width, spec.height, neumann_count, lowest=0)
    elif isinstance(spec, Disk):
        d = _disk_levels(spec.radius, dirichlet_count, neumann=False)
        n = _disk_levels(spec.radius, neumann_count, neumann=True)
    else:
        raise ValidationError(f"unknown cross-section spec {spec!r}")
    return CrossSectionSpectrum(tuple(d), tuple(n))


def validate_friedlander(spectrum: CrossSectionSpectrum) -> bool:
    """True when kappa_2 < lambda_1.

    Holds for every bounded Lipschitz cross-section; for explicit lists
    violating it, cli only records False as `friedlander_validated`.
    """
    if len(spectrum.neumann) < 2 or len(spectrum.dirichlet) < 1:
        raise InsufficientDataError("need kappa_2 and lambda_1 to compare")
    return spectrum.neumann[1] < spectrum.dirichlet[0]
