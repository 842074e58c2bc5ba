"""Spectral analysis of electromagnetic fields in axially layered cylinders.

The field operator of a cylinder whose scalar material coefficients
depend only on the axial coordinate splits exactly over the transverse
Dirichlet and Neumann modes of the cross-section.  Each mode yields a
weighted second-order problem on the axis, unitarily equivalent to a
one-dimensional Schrodinger operator through a travel-time change of
variable, and the full spectrum is reassembled from these pieces with
its exact +/- symmetry.

Layers, bottom to top: cross_section (transverse eigenvalues), profiles
(coefficient families and their certified bounds), liouville (the
change of variable and mode potentials), schrodinger / weighted_operator
(two independent solver routes), assembly (mode budget, spectrum union,
finite-gap certificate), cli (JSON-configured batch runs).
"""

from . import assembly, cross_section, errors, liouville, profiles, schrodinger, weighted_operator
from .assembly import *  # noqa: F403
from .cross_section import *  # noqa: F403
from .errors import *  # noqa: F403
from .liouville import *  # noqa: F403
from .profiles import *  # noqa: F403
from .schrodinger import *  # noqa: F403
from .weighted_operator import *  # noqa: F403

__version__ = "0.1.0"

# each public name is written once, in its module's __all__
__all__ = [
    name
    for module in (assembly, cross_section, errors, liouville, profiles, schrodinger, weighted_operator)
    for name in module.__all__
]
