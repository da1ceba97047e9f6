"""Exact-arithmetic toolkit for bounded complexes of graded free
k[a]-modules: decomposition into elementary pieces, spectral-sequence
pages three ways, windowed exact couples, recovery of the module
structure from pages, and link-diagram front ends.
"""

from .algebra import (
    BigradedTable,
    GradedModuleDescriptor,
    GradedRing,
    HomMatrix,
)
from .complexes import (
    ComplexError,
    FieldComplex,
    FilteredFieldComplex,
    FirstDifferential,
    GradedComplex,
    InternalError,
    complex_from_data,
    first_differential,
    gaussian_eliminate,
    homology_field,
    reduce_mod_a,
    specialize_a_to_1,
)
from .couples import (
    CorrespondenceResult,
    ExactCouple,
    InsufficientWindow,
    correspondence_check,
    couple_from_decomposition,
    couple_pages,
)
from .decompose import (
    Decomposition,
    decompose,
    hn_table,
    reassemble,
    thickness,
    torsion_width,
)
from .links import (
    DeltaBattery,
    LinkDiagram,
    Sl2Potential,
    TwoBraidSpec,
    build_sl2_cube,
    build_twobraid,
    delta_battery,
)
from .pages import (
    PageTable,
    assembled_pages,
    collapse_page,
    generic_pages,
    piece_pages,
    stabilization_page,
)
from .recover import (
    InconsistentPages,
    PageSequence,
    pages_from_decomposition,
    recover,
    roundtrip,
)

__version__ = "0.1.0"

__all__ = [
    "BigradedTable",
    "ComplexError",
    "CorrespondenceResult",
    "Decomposition",
    "DeltaBattery",
    "ExactCouple",
    "FieldComplex",
    "FilteredFieldComplex",
    "FirstDifferential",
    "GradedComplex",
    "GradedModuleDescriptor",
    "GradedRing",
    "HomMatrix",
    "InconsistentPages",
    "InsufficientWindow",
    "InternalError",
    "LinkDiagram",
    "PageSequence",
    "PageTable",
    "Sl2Potential",
    "TwoBraidSpec",
    "assembled_pages",
    "build_sl2_cube",
    "build_twobraid",
    "collapse_page",
    "complex_from_data",
    "correspondence_check",
    "couple_from_decomposition",
    "couple_pages",
    "decompose",
    "delta_battery",
    "first_differential",
    "gaussian_eliminate",
    "generic_pages",
    "hn_table",
    "homology_field",
    "pages_from_decomposition",
    "piece_pages",
    "reassemble",
    "recover",
    "reduce_mod_a",
    "roundtrip",
    "specialize_a_to_1",
    "stabilization_page",
    "thickness",
    "torsion_width",
    "__version__",
]
