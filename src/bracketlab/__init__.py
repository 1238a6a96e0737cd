"""bracketlab: biquandle brackets, their cocycle invariants, and categorification.

Each re-exported name is imported from its module when it is first read
(PEP 562), so a process that computes no homology never compiles ``graded``
or ``tangle``.  No copy is kept here: ``bracketlab.<name>`` is always what
the defining module holds now.
"""

from importlib import import_module

_EXPORTS = {
    "biquandle": (
        "AxiomFailure", "Biquandle", "Coloring", "Report", "counting_invariant", "enumerate_colorings",
        "verify_biquandle",
    ),
    "bracket": ("Bracket", "bracket_from_json", "bracket_invariant", "crossing_color_pair", "verify_bracket"),
    "cocycle": (
        "Cocycle", "FreeAbelianTarget", "UnitQuotientTarget", "canonical_cocycle", "cocycle_from_json",
        "cocycle_invariant", "cocycle_value", "verify_cocycle", "z_invariant", "z_invariant_multiset",
    ),
    "diagram": ("CrossingRecord", "DiagramError", "OrientedDiagram", "parse_diagram"),
    "graded": ("GradedComplex", "HomologyTable", "cohomology", "invariant_factors"),
    "homology": ("bh_multiset", "check_colorings", "khovanov_classical"),
    "rings": (
        "Coset", "PolyQuotientRing", "Ring", "RingError", "UnitSubgroup", "ZModRing", "ring_make",
        "subgroup_generate",
    ),
}
# The module that defines each re-exported name.
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
