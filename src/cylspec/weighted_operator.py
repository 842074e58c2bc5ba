"""Direct discretization of the weighted axial operator.

The operator acts as -(1/mu) d/dz((1/eps) dp/dz) + (c/(eps mu)) p on the
weighted space with norm integral(mu |p|^2 dz), for a fixed transverse
mode constant c.  This module solves it in the original axial variable
with a flux-form finite-difference scheme and deliberately shares no
machinery with the travel-time route: agreement between the two is the
package's main internal consistency check, so this side must stay
independent.  Do not route anything here through the coordinate
transform.

Discretization on [-halfwidth, halfwidth] with Dirichlet ends: the
quadratic form integral((1/eps)|p'|^2 + (c/eps)|p|^2) is sampled with
harmonic-mean face coefficients 2/(eps_i + eps_{i+1}) (the natural
choice for flux continuity across cells) and the weighted mass is the
diagonal mu_i h.  The generalized pencil (K, M) is symmetrized by
M^(-1/2) on both sides, which keeps it tridiagonal.

The discrete Rayleigh quotient obeys quotient >= c / sup(eps mu)
exactly, not just in the limit: every form term is nonnegative and
1/eps_i >= mu_i / sup(eps mu) pointwise.  Tests check that inequality
with random vectors on the pencil that weighted_eigenvalues solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ValidationError
from .profiles import CoefficientProfile

__all__ = [
    "WeightedOperatorSpec",
    "weighted_eigenvalues",
]


@dataclass(frozen=True)
class WeightedOperatorSpec:
    """Truncated weighted eigenproblem for one transverse mode."""

    profile: CoefficientProfile
    mode_constant: float
    halfwidth: float
    grid: int  # number of subintervals of [-halfwidth, halfwidth]

    def __post_init__(self):
        if self.mode_constant < 0:
            raise ValidationError("mode constant must be nonnegative")
        if not self.halfwidth > 0:
            raise ValidationError("halfwidth must be positive")
        if self.grid < 16:
            raise ValidationError("grid too coarse")

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.halfwidth, self.halfwidth, self.grid + 1)


def _pencil(spec: WeightedOperatorSpec):
    """Symmetrized tridiagonal (diag, offdiag) of M^-1/2 K M^-1/2."""
    zs = spec.nodes()
    h = 2.0 * spec.halfwidth / spec.grid
    eps = np.asarray(spec.profile.epsilon.eval(zs))
    mu = np.asarray(spec.profile.mu.eval(zs))
    # face conductances between consecutive nodes, harmonic mean of 1/eps
    c_face = 2.0 / (eps[:-1] + eps[1:])
    ei = eps[1:-1]
    mi = mu[1:-1]
    diag_k = (c_face[:-1] + c_face[1:]) / h + (spec.mode_constant / ei) * h
    off_k = -c_face[1:-1] / h
    mass = mi * h
    diag = diag_k / mass
    off = off_k / np.sqrt(mass[:-1] * mass[1:])
    return diag, off, mass


def weighted_eigenvalues(spec: WeightedOperatorSpec, count: int) -> tuple[float, ...]:
    """Lowest `count` Dirichlet eigenvalues of the truncated pencil."""
    if count < 1:
        raise ValidationError("count must be positive")
    if count > spec.grid - 1:
        raise ValidationError("count exceeds the discrete problem size")
    diag, off, _ = _pencil(spec)
    w = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, count - 1))
    return tuple(float(x) for x in w)
