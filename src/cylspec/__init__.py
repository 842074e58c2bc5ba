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

The namespace loads lazily: `import cylspec` imports no numpy, so the
CLI can set its BLAS thread count first.  The first public name looked
up loads the seven library modules and copies their public names in.
"""

import importlib

__version__ = "0.1.0"

# the modules whose public names make up the package namespace
_MODULES = ("assembly", "cross_section", "errors", "liouville", "profiles", "schrodinger", "weighted_operator")


def _load() -> list[str]:
    # each public name is written once, in its module's __all__
    names = globals().get("__all__")
    if names is None:
        names = []
        for m in _MODULES:
            module = importlib.import_module(f"{__name__}.{m}")
            globals().update((name, getattr(module, name)) for name in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
    return names


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        # a submodule alone, so `from cylspec import cli` loads cli first
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(_load())
