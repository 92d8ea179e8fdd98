"""Cyclic homology via the cyclic total complex of Hochschild chains.

Degree n of the cyclic total is the sum of the columns s = 0..n // 2,
column s holding the Hochschild chains of degree n - 2s, labelled
(s, n - s, label); column s = 0 is the Hochschild complex itself.  The
differential is D, the total Hochschild differential, within each column
plus the degree raising cyclic operator B from column s into column s - 1
(Loday, Cyclic Homology, 2.1.7).  Without column 0, degree n is degree
n - 2, block for block (the periodicity, Loday 2.2): the total and its
maps are built, and the Connes sequence read, degree n over n - 2.
Cyclic homology HC_i is the homology of this complex, relative cyclic
homology is homology of the mapping cone of an induced map, read in
fiber indexing by `rel_hc_table` alone (the relative group in degree i
is H_{i+1} of the cone; `hc_relative` is the last row of a table).

Total degrees are built up to bound + 1; columns beyond
s = (bound + 1) // 2 contribute only above that window, so the groups
through degree `bound` are exact, not truncations.

Every algebra-level Hochschild or cyclic group (`hh`, `hc`, `hh_groups`,
`hc_groups`) and the Connes check `sbi_check` is read off the
complex one private selector, `_chains`, returns: the critical cells of
the first-slot matching (hochschild module) when the algebra's table
passes its check, else the full build.  In the cyclic total complex the
cells of column s are paired as Hochschild words, and the flows follow
D + B, which never raises the column, so the reduction keeps the column
filtration the Connes sequence comes from.  Other algebras, such as the
one-generator models of Z/m, where t * t = 0 leaves nothing to pair, take
the full build, which also serves the induced maps, the relative groups
and the relative exactness check.

Along the tower Z/p^n -> Z/p^{n-1} -> ... -> Z/p, `reduction_tower`
builds each ring's bundle once and each reduction's induced cyclic map
between those shared bundles, so a ring that is the source of one
reduction and the target of the next is built, checked and presented
once.  Mod-q groups come from the integral groups by the universal
coefficient theorem (`hc_mod_table`); no tensor complex is built.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .complexes import (
    ChainComplex,
    ChainMap,
    ExactnessReport,
    _place,
    cone_les_check,
    exact_sequence_check,
    homology,
    homology_groups,
    mapping_cone,
    universal_coefficients,
)
from .dga import DGAlgebra, DGAMorphism, koszul_resolution, reduction_map
from .errors import BoundTooSmall, CompositionNonzero, DimensionMismatch
from .hochschild import (
    HochschildComplex,
    critical_complex,
    cyclic_operator,
    first_slot_matching,
    induced_map,
)
from .intlin import AbelianGroup, SparseIntMatrix


@dataclass(frozen=True)
class CyclicComplexBundle:
    """A DG algebra's Hochschild complex with the cyclic total complex on
    its columns; the algebra and the bound are `hochschild.algebra` and
    `hochschild.bound`."""

    hochschild: HochschildComplex
    total: ChainComplex


def cyclic_bundle(A: DGAlgebra, bound: int) -> CyclicComplexBundle:
    """The cyclic total complex of A through degree bound + 1 on the columns
    of A's Hochschild complex H: degree n is column 0, H_n, over degree
    n - 2 with labels (s, t, x) shifted to (s + 1, t + 1, x), and d_n is D_n
    on H_n, B_{n-2} from H_{n-2} into H_{n-1} and d_{n-2} on the rest."""
    H = HochschildComplex(A, bound)
    basis: Dict[int, List[Tuple]] = {}
    diffs: Dict[int, SparseIntMatrix] = {}
    for n in range(bound + 2):
        k, j = H.total.dim(n), H.total.dim(n - 1)
        shifted = [(s + 1, t + 1, x) for s, t, x in basis.get(n - 2, ())]
        basis[n] = [(0, n, lbl) for lbl in H.total.labels(n)] + shifted
        rows: Dict[int, Dict[int, int]] = defaultdict(dict)
        _place(rows, H.total.diff(n), 0, 0)
        if n >= 2:
            _place(rows, cyclic_operator(H, n - 2), 0, k)
            _place(rows, diffs[n - 2], j, k)
        diffs[n] = SparseIntMatrix(j + len(basis.get(n - 3, ())), len(basis[n]), rows)
    return CyclicComplexBundle(hochschild=H, total=ChainComplex(basis, diffs, 0, bound + 1))


def _chains(A: DGAlgebra, bound: int, cyclic: bool = False) -> ChainComplex:
    """A complex with the Hochschild homology of A (with cyclic=True, the
    cyclic homology) through degree bound, each cell labelled by its column
    first: the Morse complex of A's first-slot matching when A's table
    passes its check, else the full build's total complex."""
    M = first_slot_matching(A)
    if M is not None:
        return critical_complex(M, bound, cyclic)
    if cyclic:
        return cyclic_bundle(A, bound).total
    return HochschildComplex(A, bound).total


def hh(A: DGAlgebra, i: int) -> AbelianGroup:
    """Hochschild homology HH_i(A) over Z in degree i."""
    return homology(_chains(A, i), i)


def hc(A: DGAlgebra, i: int) -> AbelianGroup:
    """Cyclic homology HC_i(A) over Z in degree i."""
    return homology(_chains(A, i, cyclic=True), i)


def induced_cyclic_map(f: DGAMorphism, bound: int) -> ChainMap:
    """The map of cyclic total complexes induced by an algebra map, between
    the bundles of its source and target through bound (see cyclic_map)."""
    src, tgt = cyclic_bundle(f.source, bound), cyclic_bundle(f.target, bound)
    return cyclic_map(induced_map(f, src.hochschild, tgt.hochschild), src, tgt)


def cyclic_map(
    F: ChainMap, src: CyclicComplexBundle, tgt: CyclicComplexBundle
) -> ChainMap:
    """The map of cyclic total complexes that copies F, a map of the
    bundles' Hochschild complexes, onto every column: in degree n it is
    F_n on column 0 over the map in degree n - 2 on the rest.

    The ChainMap constructor checks the squares with the total
    differential, whose off-diagonal blocks are B: this is where the map is
    verified to intertwine B, in Hochschild degrees 0..bound - 1, the ones
    the cyclic total uses.
    """
    if (F.source, F.target) != (src.hochschild.total, tgt.hochschild.total):
        raise DimensionMismatch("F is not a map of the bundles' Hochschild complexes")
    comps: Dict[int, SparseIntMatrix] = {}
    for n in range(src.hochschild.bound + 2):
        rows: Dict[int, Dict[int, int]] = defaultdict(dict)
        _place(rows, F.component(n), 0, 0)
        if n >= 2:
            _place(rows, comps[n - 2], tgt.hochschild.total.dim(n), src.hochschild.total.dim(n))
        comps[n] = SparseIntMatrix(tgt.total.dim(n), src.total.dim(n), rows)
    return ChainMap(src.total, tgt.total, comps)


def hc_relative(f: DGAMorphism, i: int) -> AbelianGroup:
    """Relative cyclic homology of f in degree i (homotopy fiber indexing),
    the last row of rel_hc_groups(f, i)."""
    return rel_hc_groups(f, i)[i]


def relative_les_check(f: DGAMorphism, bound: int) -> ExactnessReport:
    """Exactness of HC_n(src) -> HC_n(tgt) -> H_n(cone) -> HC_{n-1}(src) -> ..."""
    F = induced_cyclic_map(f, bound + 1)
    return cone_les_check(F, range(1, bound + 2))


# ---------------------------------------------------------------------------
# tables: the groups in degrees 0..top, read from one build
# ---------------------------------------------------------------------------


def hh_groups(A: DGAlgebra, top: int) -> List[AbelianGroup]:
    """HH_0..HH_top of A, from one complex (see _chains)."""
    return homology_groups(_chains(A, top), range(top + 1))


def hc_groups(A: DGAlgebra, top: int) -> List[AbelianGroup]:
    """HC_0..HC_top of A, from one complex (see _chains)."""
    return homology_groups(_chains(A, top, cyclic=True), range(top + 1))


def hc_mod_table(hc: List[AbelianGroup], q: int) -> List[AbelianGroup]:
    """HC with mod-q coefficients in degrees 0..len(hc) - 1, read off the
    integral groups HC_0, HC_1, ... by universal coefficients (the cyclic
    total is zero below degree 0)."""
    below = [AbelianGroup.trivial()] + hc[:-1]
    return [universal_coefficients(h, b, q) for h, b in zip(hc, below)]


def rel_hc_table(F: ChainMap) -> List[AbelianGroup]:
    """Relative HC of the map F induces, in fiber indexing: the relative
    group in degree i is H_{i+1} of F's mapping cone, the homology of the
    homotopy fiber in degree i.  It reads every degree the cone answers
    exactly: 0..top for top = min(source max_degree - 1, target
    max_degree - 2), which is bound - 1 for bundles built through bound.
    The cone's own max_degree is one above its last complete degree."""
    top = min(F.source.max_degree - 1, F.target.max_degree - 2)
    return homology_groups(mapping_cone(F), range(1, top + 2))


def rel_hc_groups(f: DGAMorphism, top: int) -> List[AbelianGroup]:
    """Relative HC of f in degrees 0..top, from one induced cyclic map."""
    if top < 0:
        raise BoundTooSmall(f"top {top} < 0")
    F = induced_cyclic_map(f, top + 1)
    return rel_hc_table(F)


def verified_top(p: int) -> int:
    """The top degree, 2p - 1, of the window where the groups of Z/p^n are
    checked against the published tables; the CLI flags degrees above it."""
    return 2 * p - 1


def reduction_tower(
    p: int, n: int, bound: int
) -> Iterator[Tuple[int, CyclicComplexBundle, Optional[ChainMap]]]:
    """(k, bundle, F) for the levels k = 1..n of the tower of Z/p^n: the
    cyclic bundle of Z/p^k through `bound` and, for k >= 2, the induced
    cyclic map F of Z/p^k -> Z/p^{k-1} onto the previous level's bundle
    (None for k = 1).

    The route is induced_cyclic_map's, cyclic_bundle for each ring and
    induced_map and cyclic_map for each reduction, but each ring's bundle
    is built once and shared by the two reductions it meets, as their
    source and as their target.  The generator holds two bundles at a
    time, the current level's and the previous one's.
    """
    previous = None
    for k in range(1, n + 1):
        bundle = cyclic_bundle(koszul_resolution(p ** k), bound)
        F = None
        if previous is not None:
            f = reduction_map(p ** k, p ** (k - 1))
            hmap = induced_map(f, bundle.hochschild, previous.hochschild)
            F = cyclic_map(hmap, bundle, previous)
        yield k, bundle, F
        previous = bundle


@dataclass(frozen=True)
class SBIReport:
    """Exactness of ... -> HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} -> ...

    The first map includes column 0, the second projects off column 0 onto
    the quotient, read as HC_{n-2}, and the connecting map lifts a quotient
    cycle and applies the total differential.  periodicity_ok: the trailing
    block of d_n is d_{n-2}, as a matrix, in every degree the sequence
    reads; where it is not, `exact` still reads the quotient as HC_{n-2},
    unless a trailing block of d_n in a degree n whose nodes the sequence
    reads has another shape than d_{n-2}: then no node is read, `exact` is
    False and checked_nodes and failures are empty.
    """

    exact: bool
    periodicity_ok: bool
    checked_nodes: Tuple[Tuple[str, int], ...]
    failures: Tuple[Tuple[str, int], ...]

    def __bool__(self):
        return self.exact and self.periodicity_ok


def _connes_sequence(C: ChainComplex, bound: int) -> SBIReport:
    """The SBIReport of H -> C -> Q through `bound`, where C's cells are
    labelled by their column first, and in each degree the column-0 cells
    lead and span the subcomplex H while the others (columns s >= 1) span
    the quotient Q, whose nodes are read off C two degrees down.  The maps
    are the inclusion of the leading block, the projection onto the
    trailing block, and the connecting map, the trailing-to-leading block
    of d.  Raises CompositionNonzero where d maps a leading cell off the
    leading block.
    """
    lo, hi = C.min_degree, C.max_degree
    lead = defaultdict(int, {n: sum(cell[0] == 0 for cell in C.labels(n)) for n in C.degrees()})
    h, trailing, incl, proj, connecting = {}, {}, {}, {}, {}
    for n in range(lo, hi + 1):
        k, j, trail = lead[n], lead[n - 1], C.dim(n) - lead[n]
        blocks = defaultdict(lambda: defaultdict(dict))  # (trailing row, trailing column)
        for r, row in C.diff(n).by_row.items():
            for c, v in row.items():
                blocks[r >= j, c >= k][r - j if r >= j else r][c - k if c >= k else c] = v
        if blocks[True, False]:
            raise CompositionNonzero(f"d_{n} maps a leading cell off the leading block")
        h[n] = SparseIntMatrix(j, k, blocks[False, False])
        trailing[n] = SparseIntMatrix(C.dim(n - 1) - j, trail, blocks[True, True])
        connecting[n] = SparseIntMatrix(j, trail, blocks[False, True])
        incl[n] = SparseIntMatrix(C.dim(n), k, {i: {i: 1} for i in range(k)})
        proj[n] = SparseIntMatrix(trail, C.dim(n), {r: {k + r: 1} for r in range(trail)})
    # degree n's nodes lie within C for lo <= n - 2 and n + 1 <= hi
    nodes = range(max(2, lo + 2), min(bound, hi - 1) + 1)
    if any(trailing[n].shape != C.diff(n - 2).shape for n in nodes):
        return SBIReport(exact=False, periodicity_ok=False, checked_nodes=(), failures=())
    H = ChainComplex({n: C.labels(n)[: lead[n]] for n in C.degrees()}, h, lo, hi)
    report = exact_sequence_check(
        (H.presentation, C.presentation, lambda n: C.presentation(n - 2)),
        (incl.__getitem__, proj.__getitem__, connecting.__getitem__),
        ("hh", "hc", "hc_shifted"),
        range(2, bound + 1),
    )
    read = range(lo, min(bound + 1, hi) + 1)  # the degrees of d the sequence reads
    return SBIReport(
        exact=report.exact,
        periodicity_ok=all(trailing[n] == C.diff(n - 2) for n in read),
        checked_nodes=report.checked_nodes,
        failures=report.failures,
    )


def sbi_check(A: DGAlgebra, bound: int) -> SBIReport:
    """Verify the Connes exact sequence node by node up to `bound`.

    The sequence is that of the column filtration, split at column 0 of
    the cyclic complex that _chains returns; its periodicity, the trailing
    block of d_n equal to d_{n-2}, is checked as a matrix identity on
    either build.  On the Morse complex column 0's critical cells span a
    subcomplex, because the matching pairs cells inside one column and the
    flows follow D + B, which never raises the column.
    """
    return _connes_sequence(_chains(A, bound, cyclic=True), bound)
