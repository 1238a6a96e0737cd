"""bracketlab: biquandle brackets, their cocycle invariants, and categorification."""

from .biquandle import (
    AxiomFailure,
    Biquandle,
    Coloring,
    Report,
    counting_invariant,
    enumerate_colorings,
    verify_biquandle,
)
from .bracket import (
    Bracket,
    bracket_from_json,
    bracket_invariant,
    bracket_value,
    crossing_color_pair,
    verify_bracket,
)
from .cocycle import (
    Cocycle,
    FreeAbelianTarget,
    UnitQuotientTarget,
    canonical_cocycle,
    cocycle_from_json,
    cocycle_invariant,
    cocycle_value,
    verify_cocycle,
    z_invariant,
    z_invariant_multiset,
)
from .diagram import (
    CrossingRecord,
    DiagramError,
    OrientedDiagram,
    SmoothingState,
    parse_diagram,
    resolve_state,
)
from .graded import (
    GradedComplex,
    HomologyTable,
    cohomology,
    invariant_factors,
)
from .homology import (
    bh_invariant,
    bh_multiset,
    build_complex,
    check_euler_identity,
    check_theorem,
    khovanov_classical,
)
from .rings import (
    Coset,
    PolyQuotientRing,
    Ring,
    RingError,
    UnitSubgroup,
    ZModRing,
    ring_make,
    subgroup_generate,
)

__version__ = "0.1.0"
