"""Transverse eigenvalue data for the cylinder cross-section.

The axial reduction consumes two scalar sequences attached to the
cross-section U: the Dirichlet Laplacian eigenvalues

    0 < lambda_1 < lambda_2 <= lambda_3 <= ...

and the Neumann eigenvalues

    0 = kappa_1 < kappa_2 <= kappa_3 <= ...

repeated according to multiplicity.  Two shapes have closed forms:

  rectangle (w, h):  pi^2 (m^2/w^2 + n^2/h^2), m, n >= 1 (Dirichlet),
                     m, n >= 0 (Neumann);
  disk (R):          (j_{m,i}/R)^2 from zeros of the Bessel function J_m
                     (Dirichlet) and of its derivative J_m' (Neumann),
                     each order m >= 1 contributing twice (cos/sin pairs).

A synthetic spec carries explicit lists, used for testing and for
cross-sections computed elsewhere.  For any bounded connected section
the second Neumann eigenvalue lies strictly below the first Dirichlet
one (kappa_2 < lambda_1); that ordering is what places the boundary of
the low-frequency spectral gap, so it is validated rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jn_zeros, jnp_zeros

from .errors import InsufficientDataError, ValidationError

__all__ = [
    "Rectangle",
    "Disk",
    "Synthetic",
    "CrossSectionSpectrum",
    "dirichlet_eigenvalues",
    "neumann_eigenvalues",
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
class Synthetic:
    """Explicit eigenvalue lists, one value per entry, multiplicity by
    repetition."""

    dirichlet: tuple[float, ...]
    neumann: tuple[float, ...]
    boundary_components: int = 1

    def __post_init__(self):
        object.__setattr__(self, "dirichlet", tuple(float(v) for v in self.dirichlet))
        object.__setattr__(self, "neumann", tuple(float(v) for v in self.neumann))
        if self.boundary_components < 1:
            raise ValidationError("boundary_components must be >= 1")
        d, n = self.dirichlet, self.neumann
        if d and (d[0] <= 0 or any(b < a for a, b in zip(d, d[1:]))):
            raise ValidationError("dirichlet list must be ascending and positive")
        if n:
            if n[0] != 0.0:
                raise ValidationError("neumann list must start at 0")
            if any(b < a for a, b in zip(n, n[1:])):
                raise ValidationError("neumann list must be ascending")
            if len(n) > 1 and n[1] <= 0:
                raise ValidationError("neumann 0 must be simple (kappa_2 > 0)")


CrossSectionSpec = Rectangle | Disk | Synthetic


def _rectangle_levels(width: float, height: float, count: int, lowest: int) -> list[float]:
    # enumerate pi^2 (m^2/w^2 + n^2/h^2) over m, n >= lowest in ascending order
    pi2 = np.pi * np.pi
    cap = pi2 * (count + 1) ** 2 * (1.0 / width**2 + 1.0 / height**2)
    while True:
        vals = []
        m = lowest
        while pi2 * m * m / width**2 <= cap:
            n = lowest
            while True:
                v = pi2 * (m * m / width**2 + n * n / height**2)
                if v > cap:
                    break
                vals.append(v)
                n += 1
            m += 1
        if len(vals) >= count:
            vals.sort()
            return vals[:count]
        cap *= 2.0  # cap estimate too low for thin rectangles; widen and retry


def _disk_levels(radius: float, count: int, neumann: bool) -> list[float]:
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


def _levels(spec: CrossSectionSpec, count: int, neumann: bool) -> list[float]:
    kind = "neumann" if neumann else "dirichlet"
    if count < 0:
        raise ValidationError("count must be non-negative")
    if count == 0:
        return []
    if isinstance(spec, Rectangle):
        return _rectangle_levels(spec.width, spec.height, count, lowest=0 if neumann else 1)
    if isinstance(spec, Disk):
        return _disk_levels(spec.radius, count, neumann)
    if isinstance(spec, Synthetic):
        listed = getattr(spec, kind)
        if len(listed) < count:
            raise InsufficientDataError(
                f"synthetic {kind} list has {len(listed)} entries, {count} requested"
            )
        return list(listed[:count])
    raise ValidationError(f"unknown cross-section spec {spec!r}")


def dirichlet_eigenvalues(spec: CrossSectionSpec, count: int) -> list[float]:
    """First `count` Dirichlet eigenvalues of the cross-section, ascending,
    multiplicity by repetition."""
    return _levels(spec, count, neumann=False)


def neumann_eigenvalues(spec: CrossSectionSpec, count: int) -> list[float]:
    """First `count` Neumann eigenvalues, ascending from kappa_1 = 0."""
    return _levels(spec, count, neumann=True)


@dataclass(frozen=True)
class CrossSectionSpectrum:
    """Materialized transverse data consumed by the axial reduction."""

    dirichlet: tuple[float, ...]
    neumann: tuple[float, ...]
    boundary_components: int

    def __post_init__(self):
        if self.dirichlet and self.dirichlet[0] <= 0:
            raise ValidationError("lambda_1 must be positive")
        if self.neumann and self.neumann[0] != 0.0:
            raise ValidationError("kappa_1 must be exactly 0")


def build_spectrum(
    spec: CrossSectionSpec, dirichlet_count: int, neumann_count: int
) -> CrossSectionSpectrum:
    return CrossSectionSpectrum(
        dirichlet=tuple(dirichlet_eigenvalues(spec, dirichlet_count)),
        neumann=tuple(neumann_eigenvalues(spec, neumann_count)),
        boundary_components=getattr(spec, "boundary_components", 1),  # 1: rectangle, disk
    )


def validate_friedlander(spectrum: CrossSectionSpectrum) -> bool:
    """True when kappa_2 < lambda_1.

    Holds for every bounded Lipschitz cross-section; synthetic input
    violating it is inconsistent and gets rejected by the pipeline.
    """
    if len(spectrum.neumann) < 2 or len(spectrum.dirichlet) < 1:
        raise InsufficientDataError("need kappa_2 and lambda_1 to compare")
    return spectrum.neumann[1] < spectrum.dirichlet[0]
