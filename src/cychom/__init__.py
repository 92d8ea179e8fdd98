"""Exact integral homology of small differential graded rings.

Everything is computed over Z with exact integer arithmetic: Hochschild and
cyclic homology of finitely generated DG algebras, relative groups along
algebra maps, filtered ring tensor constructions with their graded
comparison, and the K-group tables of Z/p^n assembled from the relative
cyclic groups.
"""

from .cyclic import (
    CyclicComplexBundle,
    cyclic_bundle,
    hc,
    hc_relative,
    hh,
    relative_les_check,
    sbi_check,
)
from .dga import (
    DGAlgebra,
    DGAMorphism,
    koszul_resolution,
    load_algebra,
    reduction_map,
    validate,
)
from .filtered import (
    FilteredAbelianGroup,
    FilteredRing,
    adic_filtration,
    cyclic_bar,
    graded_comparison,
    load_filtered_ring,
)
from .hochschild import HochschildComplex
from .intlin import AbelianGroup, SparseIntMatrix, smith_decomposition
from .ktheory import goodwillie_range, k_table, relative_k

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CyclicComplexBundle",
    "DGAlgebra",
    "DGAMorphism",
    "FilteredAbelianGroup",
    "FilteredRing",
    "HochschildComplex",
    "SparseIntMatrix",
    "adic_filtration",
    "cyclic_bar",
    "cyclic_bundle",
    "goodwillie_range",
    "graded_comparison",
    "hc",
    "hc_relative",
    "hh",
    "k_table",
    "koszul_resolution",
    "load_algebra",
    "load_filtered_ring",
    "reduction_map",
    "relative_k",
    "relative_les_check",
    "sbi_check",
    "smith_decomposition",
    "validate",
]
