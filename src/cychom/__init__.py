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
    hc_mod,
    hc_relative,
    hc_tower_surjectivity,
    hh,
    relative_les_check,
    sbi_check,
)
from .dga import (
    DGAlgebra,
    DGAMorphism,
    base_ring,
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
    fixed_points_check,
    graded,
    graded_comparison,
    load_filtered_ring,
)
from .hochschild import HochschildComplex, hochschild_complex
from .intlin import AbelianGroup, SparseIntMatrix, smith_decomposition
from .ktheory import goodwillie_range, k_group, k_table, relative_k

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
    "base_ring",
    "cyclic_bar",
    "cyclic_bundle",
    "fixed_points_check",
    "goodwillie_range",
    "graded",
    "graded_comparison",
    "hc",
    "hc_mod",
    "hc_relative",
    "hc_tower_surjectivity",
    "hh",
    "hochschild_complex",
    "k_group",
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
