"""Chain complexes and bicomplexes of finitely generated free Z-modules.

Bases are ordered tuples of hashable labels; differentials are sparse
integer matrices mapping degree d to degree d-1.  The ChainComplex and
ChainMap constructors are the structural checks: d^2 = 0 and commuting
squares, raising rather than producing a silently broken object.  A
bicomplex's identities are checked as d^2 = 0 of its total complex.

total_complex lays the cells of a bicomplex out into total degrees, for
tensor products (the full Hochschild build lays out its own words, see
hochschild, the cyclic total its own columns, see cyclic, and the mapping
cone its own blocks).  Sign conventions, fixed once for the whole package:
  * tensor product   total complex of the cells C_a (x) D_b, horizontal
                     dC_a (x) 1, vertical (-1)^a 1 (x) dD_b
  * mapping cone     source_{n-1} (+) target_n, d(x, y) = (-dx, f(x) + dy),
                     labelled as the total complex of the source in row 1 and
                     the target in row 0; the order of its cells follows the
                     split below
  * bicomplex        vertical^2 = horizontal^2 = v h + h v = 0
Each is gated by the ChainComplex check, not trusted.

A periodic complex is one whose degree n is a few leading cells over
degree n - 2 (Connes periodicity, Loday, Cyclic Homology, 2.2): with
lead_n = dim C_n - dim C_{n-2}, its first lead_n cells lead and the rest
are C_{n-2}, cell for cell, so that d_n = [[A, X], [0, d_{n-2}]].  The
split is read off the dimensions and tested on the matrices, once per
degree (`ChainComplex._split`), never declared: the cyclic total and the
cyclic maps of a tower are built that way, and the cone of such a map is
laid out that way, but a complex of the same dimensions need not be.  No
constructor tests it: d^2 and the squares of a chain map are formed in
full.  Three readers do, each when it first needs a degree's split:
`homology_groups`, to choose its route and to reduce bottom-up;
`mapping_cone`, to lay degree n over its degree n - 2; and the Connes
sequence (cyclic), for its periodicity.

`homology_groups` reduces a periodic complex bottom-up (see
`_bottom_up_factors`): degree n becomes a residual the size of its
leading cells and of degree n - 2's non-unit pivots, and only those
pivots and a few rows of degree n - 2's column transform go up two
degrees.  It takes that route when three things hold: (a) d_n trails
d_{n-2} in every degree it reads, (b) no leading cell hits a trailing row
(part of the same test), and (c) the leading cells of all the degrees it
reduces are at most BOTTOM_UP_SHARE of the cells of the differentials the
top-down route would reduce.  (a) is tested rather than assumed because
the residual is equivalent to d_n only if the trailing block is d_{n-2}
itself: a complex with the same dimensions but another trailing block
would get wrong groups, not an error.  (c) keeps complexes whose degrees
grow geometrically, where the leading block is most of d_n, on the
top-down route.  On the bottom-up route one degree reduces every degree
below it, so a request for a single degree stays top-down by (c).

Homology comes in two tiers: `homology_groups` reads groups from invariant
factors, and `homology_presentation` presents H_i on Smith-form generators
(one per invariant factor d > 1, then the free part) with cycle lifts, so
that induced maps and the exactness checks work on matrices the size of
the group.  A complex is immutable, so `ChainComplex.presentation` keeps
each degree's presentation on the complex: every induced map and
exactness check that reads H_i of the same complex shares one.

A presentation takes one reduction per degree.  Let K_i be a basis of the
saturated lattice ker d_i and R_i the coordinates of d_{i+1} in it, so
that d_{i+1} = K_i R_i and H_i = coker R_i.  K_i is injective, so
ker R_i = ker d_{i+1}: one Smith decomposition of R_i, with both
transforms logged, gives degree i's generators from its row log and
degree i + 1's kernel basis and kernel coordinates from its column log.
The complex keeps these decompositions per degree, built upward from
min_degree, where d itself is decomposed.

Mod-q groups come from the integral ones by the universal coefficient
theorem: `universal_coefficients` reads H_i(C; Z/q) off H_i(C) and
H_{i-1}(C).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    BoundTooSmall,
    CompositionNonzero,
    DimensionMismatch,
    InvalidModulus,
    NotAChainMap,
    TruncationTooTight,
)
from .intlin import (
    AbelianGroup,
    Rows,
    SparseIntMatrix,
    SmithDecomposition,
    cokernel,
    invariant_factors,
    kron,
    lattice_contains,
    smith_decomposition,
)

Label = Any


def _trails(rows: Rows, below: Rows, j: int, k: int) -> bool:
    """Is M = [[*, *], [0, B]] with B's corner at (j, k)?  M and B are given
    by their rows.  Every row of B is read, so a mismatch shows early; then
    M must have no other row at or past j."""
    for r, want in below.items():
        row = rows.get(r + j)
        if row is None or len(row) != len(want):
            return False
        # as many entries as want, each of want's in place: nothing else
        for c, v in want.items():
            if row.get(c + k) != v:
                return False
    return len(rows) == len(below) + sum(r in rows for r in range(j))


class ChainComplex:
    """A bounded complex ... -> C_d -> C_{d-1} -> ... of free Z-modules."""

    __slots__ = (
        "basis", "differential", "min_degree", "max_degree", "_leads", "_presentations", "_kernels"
    )

    def __init__(
        self,
        basis: Mapping[int, Sequence[Label]],
        differential: Mapping[int, SparseIntMatrix],
        min_degree: Optional[int] = None,
        max_degree: Optional[int] = None,
    ):
        basis = {d: tuple(lbls) for d, lbls in basis.items() if lbls}
        degrees = sorted(basis)
        if min_degree is None:
            min_degree = degrees[0] if degrees else 0
        if max_degree is None:
            max_degree = degrees[-1] if degrees else 0
        if min_degree > max_degree:
            raise TruncationTooTight(f"empty range [{min_degree}, {max_degree}]")
        diffs: Dict[int, SparseIntMatrix] = {}
        for d, M in differential.items():
            want = (len(basis.get(d - 1, ())), len(basis.get(d, ())))
            if M.shape != want:
                raise DimensionMismatch(
                    f"differential at degree {d} has shape {M.shape}, expected {want}"
                )
            if not M.is_zero():
                diffs[d] = M
        for d in list(diffs):
            upper = diffs.get(d + 1)
            if upper is not None and not (diffs[d] @ upper).is_zero():
                raise CompositionNonzero(f"d_{d} @ d_{d + 1} != 0")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "differential", diffs)
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "_leads", {})
        object.__setattr__(self, "_presentations", {})
        object.__setattr__(self, "_kernels", {})

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int) -> Tuple[Label, ...]:
        return self.basis.get(d, ())

    def diff(self, d: int) -> SparseIntMatrix:
        M = self.differential.get(d)
        if M is None:
            return SparseIntMatrix.zero(self.dim(d - 1), self.dim(d))
        return M

    def degrees(self) -> List[int]:
        return sorted(self.basis)

    def _split(self, n: int) -> Optional[Tuple[int, int]]:
        """The corner (k, j) = (dim C_n - dim C_{n-2}, dim C_{n-1} -
        dim C_{n-3}) when d_n = [[A, X], [0, d_{n-2}]], its first k columns
        and first j rows leading, else None: tested on the matrices once per
        degree, when first asked."""
        leads = self._leads
        if n not in leads:
            k, j = self.dim(n) - self.dim(n - 2), self.dim(n - 1) - self.dim(n - 3)
            below = self.diff(n - 2).by_row
            trails = k >= 0 and j >= 0 and _trails(self.diff(n).by_row, below, j, k)
            leads[n] = (k, j) if trails else None
        return leads[n]

    def presentation(self, i: int) -> "HomologyPresentation":
        """homology_presentation(self, i), computed once per degree."""
        hp = self._presentations.get(i)
        if hp is None:
            hp = self._presentations[i] = homology_presentation(self, i)
        return hp

    def _kernel_decomposition(self, j: int) -> SmithDecomposition:
        """A Smith decomposition whose kernel is ker d_j: of d_j at
        min_degree, of R_{j-1} above it (module docstring), kept per degree
        and built upward.  A column outside ker d_j is one that R_{j-1}
        does not kill, so kernel_coords still rejects it."""
        decs = self._kernels
        for k in range(self.min_degree, j + 1):
            if k not in decs:
                M = self.diff(k)
                if k > self.min_degree:
                    M = decs[k - 1].kernel_coords(M)
                decs[k] = smith_decomposition(M)
        return decs[j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainComplex)
            and self.basis == other.basis
            and self.differential == other.differential
        )

    def __repr__(self):
        dims = {d: self.dim(d) for d in self.degrees()}
        return f"ChainComplex(dims={dims})"


def _check_degree(C: ChainComplex, i: int):
    if i + 1 > C.max_degree:
        raise TruncationTooTight(
            f"homology at {i} needs chains in degree {i + 1} > max_degree {C.max_degree}"
        )
    if i < C.min_degree:
        raise TruncationTooTight(f"degree {i} below min_degree {C.min_degree}")


def homology_groups(C: ChainComplex, degrees: Iterable[int]) -> List[AbelianGroup]:
    """H_i(C) for each i in degrees, without cycle lifts.

    H_i = Z^(dim C_i - rank d_i - rank d_{i+1}) (+) torsion(d_{i+1}), read
    off the invariant factors of the differentials (d^2 = 0 is checked by
    the ChainComplex constructor).  Every degree is checked before any
    reduction, and each differential is reduced once, serving both
    degrees it touches.

    A periodic complex that meets rules (a)-(c) of the module docstring is
    reduced bottom-up, every degree up to the top one read.  Any other is
    reduced top-down with clearing: when d_{n+1} has just been reduced,
    d_n is reduced without the columns at the rows of the unit pivots
    that d_{n+1} retired before its first core step.  Up
    to then each row operation adds a multiple of such a pivot row, so
    d_n U^-1 differs from d_n only in those columns, and there it is zero
    because d_n d_{n+1} = 0; its invariant factors are those of d_n.  A
    core step may use a row that never becomes a pivot, which is why the
    rule stops there (intlin's module docstring).
    """
    degrees = list(degrees)
    for i in degrees:
        _check_degree(C, i)
    read = sorted({d for i in degrees for d in (i, i + 1)})
    if _reduces_bottom_up(C, read):
        factors = _bottom_up_factors(C, read)
    else:
        factors = {}
        cleared: List[int] = []
        for d in reversed(read):
            skip = cleared if d + 1 in factors else ()
            cleared = []
            factors[d] = invariant_factors(C.diff(d), skip, cleared)
    return [
        AbelianGroup.from_diagonal(
            factors[i + 1], C.dim(i) - len(factors[i]) - len(factors[i + 1])
        )
        for i in degrees
    ]


# rule (c) of the bottom-up route.  Timed both ways (2-vCPU Xeon, Python
# 3.11), the routes break even near this share: on the cones of
# Z/p^3 -> Z/p^2 it is 0.22 at bound 15 (0.9 ms either way), 0.10 at bound
# 38 (6.5 -> 2.5 ms) and 0.02 at bound 202 (795 -> 16 ms); the full builds
# of Z[x]/(x^n) read 0.75-0.89, where the bottom-up route is 1.2 times slower.
BOTTOM_UP_SHARE = 0.2


def _reduces_bottom_up(C: ChainComplex, read: List[int]) -> bool:
    """Rules (a)-(c) of the bottom-up route: d_n trails d_{n-2} (and so
    (b), no leading cell hits a trailing row) in every degree from the
    lowest cell up to the top one read, and the leading cells the route
    reduces, those of all these degrees, are at most BOTTOM_UP_SHARE of the
    cells of the differentials the top-down route would reduce."""
    if not C.basis or not read:
        return False
    lo, top = C.degrees()[0], read[-1]
    splits = [C._split(n) for n in range(lo, top + 1)]
    if None in splits:
        return False
    return sum(k for k, _ in splits) <= BOTTOM_UP_SHARE * sum(C.dim(n) for n in read)


def _bottom_up_factors(C: ChainComplex, read: List[int]) -> Dict[int, List[int]]:
    """The invariant factors of d_n for every n up to the top of read, on a
    complex where each d_n = [[A, X], [0, d_{n-2}]] (module docstring).

    With U d_{n-2} V = D its Smith form, d_n diag(1, V) = [[A, X V], [0,
    d_{n-2} V]], and diag(1, U) turns the lower block into D.  A unit of D
    clears its column of X V by adding a multiple of its own row, which is
    zero elsewhere, so d_n is equivalent to the units of D beside the
    residual R = [[A, X V'], [0, E]]: V' the columns of V off D's units and
    E the non-unit pivots of D on their columns.  Only that data goes up two
    degrees: the count of units, E, and the rows of V' that X reaches, which
    R's decomposition turns into the rows of degree n's V' (a row of V_n
    past the leading cells is V_{n-2}'s row there times R's V).
    """
    lo, top = min(C.degrees()[0], read[0]), read[-1]
    # reach[n]: the columns of C_n whose rows of V' degree n + 2 reads
    reach: Dict[int, set] = defaultdict(set)
    for n in range(top, lo + 1, -1):
        k, j = C._split(n)
        below = reach[n - 2]
        below.update(c - k for c in reach[n] if c >= k)
        for r, row in C.diff(n).by_row.items():
            if r < j:
                below.update(c - k for c in row if c >= k)
    factors: Dict[int, List[int]] = {}
    # degree n's (units, non-unit pivots, columns of V', rows of V' in reach[n])
    carried: Dict[int, Tuple[int, List[int], int, Dict[int, Dict[int, int]]]] = {}
    for n in range(lo, top + 1):
        units, pivots, width, vrows = carried.pop(n - 2, (0, [], 0, {}))
        k, j = C._split(n)
        rows: Rows = {}
        for r, row in C.diff(n).by_row.items():
            if r < j:
                out = rows[r] = {}
                for c, v in row.items():
                    if c < k:
                        out[c] = v
                    else:
                        for t, w in vrows[c - k].items():
                            out[k + t] = out.get(k + t, 0) + v * w
        for t, d in enumerate(pivots):
            rows[j + t] = {k + t: d}
        R = SparseIntMatrix(j + len(pivots), k + width, rows)
        wanted = sorted(reach[n])
        if wanted:
            dec = smith_decomposition(R)
            diag = dec.diagonal[: dec.rank]
        else:
            diag = invariant_factors(R)
        nonunit = [d for d in diag if d != 1]
        units += len(diag) - len(nonunit)
        factors[n] = [1] * units + nonunit
        # V' keeps R's columns off its units: non-unit pivots first, then the kernel
        kept = [t for t, d in enumerate(diag) if d != 1] + list(range(len(diag), R.cols))
        out_rows: Dict[int, Dict[int, int]] = {}
        if wanted:
            lifts = {
                i: {c: 1} if c < k else {k + t: v for t, v in vrows[c - k].items()}
                for i, c in enumerate(wanted)
            }
            Y = dec.times_v(SparseIntMatrix(len(wanted), R.cols, lifts)).by_row
            index = {t: s for s, t in enumerate(kept)}
            for i, c in enumerate(wanted):
                out_rows[c] = {index[t]: v for t, v in Y.get(i, {}).items() if t in index}
        carried[n] = (units, nonunit, len(kept), out_rows)
    return factors


def homology(C: ChainComplex, i: int) -> AbelianGroup:
    """H_i(C) = ker d_i / im d_{i+1}."""
    return homology_groups(C, [i])[0]


def universal_coefficients(H: AbelianGroup, below: AbelianGroup, q: int) -> AbelianGroup:
    """H_i(C (x) Z/q) from H = H_i(C) and below = H_{i-1}(C), for a
    degreewise free C.

    The universal coefficient theorem (Weibel, An Introduction to
    Homological Algebra, Thm 3.6.2) gives H (x) Z/q (+) Tor(below, Z/q):
    Z/q for each free summand of H, and Z/gcd(d, q) for each invariant
    factor d of H and of below.
    """
    if q < 2:
        raise InvalidModulus(f"modulus {q} < 2")
    torsion = H.invariant_factors + below.invariant_factors
    diagonal = [q] * H.free_rank + [gcd(d, q) for d in torsion]
    k = len(diagonal)
    return cokernel(SparseIntMatrix(k, k, {j: {j: d} for j, d in enumerate(diagonal)}))


class Bicomplex:
    """First-quadrant-style bicomplex with anticommuting differentials.

    vertical maps (s, t) -> (s, t-1); horizontal maps (s, t) -> (s-1, t).
    Only shapes are checked here.  vertical^2, horizontal^2 and v h + h v
    are the (s, t-2), (s-2, t) and (s-1, t-1) blocks of d_{n-1} d_n of the
    total complex; they land in different cells, so none can cancel
    another, and the ChainComplex that total_complex builds checks all
    three at once.
    """

    __slots__ = ("basis", "vertical", "horizontal")

    def __init__(
        self,
        basis: Mapping[Tuple[int, int], Sequence[Label]],
        vertical: Mapping[Tuple[int, int], SparseIntMatrix],
        horizontal: Mapping[Tuple[int, int], SparseIntMatrix],
    ):
        basis = {st: tuple(lbls) for st, lbls in basis.items() if lbls}

        def dim(st):
            return len(basis.get(st, ()))

        vert: Dict[Tuple[int, int], SparseIntMatrix] = {}
        for (s, t), M in vertical.items():
            want = (dim((s, t - 1)), dim((s, t)))
            if M.shape != want:
                raise DimensionMismatch(f"vertical at {(s, t)}: {M.shape} != {want}")
            if not M.is_zero():
                vert[(s, t)] = M
        horiz: Dict[Tuple[int, int], SparseIntMatrix] = {}
        for (s, t), M in horizontal.items():
            want = (dim((s - 1, t)), dim((s, t)))
            if M.shape != want:
                raise DimensionMismatch(f"horizontal at {(s, t)}: {M.shape} != {want}")
            if not M.is_zero():
                horiz[(s, t)] = M
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "vertical", vert)
        object.__setattr__(self, "horizontal", horiz)

    def __setattr__(self, name, value):
        raise AttributeError("Bicomplex is immutable")

    def cells(self) -> List[Tuple[int, int]]:
        return sorted(self.basis)


def _place(rows: Dict[int, Dict[int, int]], M: SparseIntMatrix, r0: int, c0: int):
    """Copy M into the rows (a defaultdict) of a larger matrix, corner at (r0, c0)."""
    for r, row in M.by_row.items():
        dst = rows[r0 + r]
        for c, v in row.items():
            dst[c0 + c] = v


def total_complex(
    B: Bicomplex,
    min_degree: Optional[int] = None,
    max_degree: Optional[int] = None,
) -> ChainComplex:
    """Total complex: degree n basis = union over s + t = n, d = v + h.

    Labels become (s, t, label) triples, ordered by (s, t, position).
    Explicit degree bounds record window edges where all cells are empty.
    """
    basis: Dict[int, List[Label]] = {}
    at: Dict[Tuple[int, int], int] = {}  # where each cell starts in degree s + t
    diffs: Dict[int, Dict[int, Dict[int, int]]] = {}
    for st in B.cells():  # in (s, t) order, so the cells a differential hits come first
        s, t = st
        blk = basis.setdefault(s + t, [])
        at[st] = len(blk)
        blk.extend((s, t, lbl) for lbl in B.basis[st])
        rows = diffs.setdefault(s + t, defaultdict(dict))
        for M, below in ((B.vertical.get(st), (s, t - 1)), (B.horizontal.get(st), (s - 1, t))):
            if M is not None:
                _place(rows, M, at[below], at[st])
    differential = {
        n: SparseIntMatrix(len(basis.get(n - 1, ())), len(basis[n]), rows)
        for n, rows in diffs.items()
    }
    return ChainComplex(basis, differential, min_degree, max_degree)


def tensor(C: ChainComplex, D: ChainComplex) -> ChainComplex:
    """Tensor product with Koszul signs: the total complex of the cells
    C_a (x) D_b (labels (a, b, (x, y)), x outer), with horizontal
    kron(dC_a, 1) and vertical (-1)^a kron(1, dD_b)."""
    basis, vertical, horizontal = {}, {}, {}
    for a in C.degrees():
        for b in D.degrees():
            basis[(a, b)] = [(x, y) for x in C.labels(a) for y in D.labels(b)]
            horizontal[(a, b)] = kron(C.diff(a), SparseIntMatrix.identity(D.dim(b)))
            sign = -1 if a % 2 else 1
            vertical[(a, b)] = kron(SparseIntMatrix.identity(C.dim(a)), D.diff(b).scale(sign))
    bounds = (C.min_degree + D.min_degree, C.max_degree + D.max_degree)
    return total_complex(Bicomplex(basis, vertical, horizontal), *bounds)


class ChainMap:
    """A degreewise map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        components: Mapping[int, SparseIntMatrix],
    ):
        comps: Dict[int, SparseIntMatrix] = {}
        for d, M in components.items():
            want = (target.dim(d), source.dim(d))
            if M.shape != want:
                raise DimensionMismatch(f"component at {d}: {M.shape} != {want}")
            if not M.is_zero():
                comps[d] = M

        def comp(d):
            return comps.get(d, SparseIntMatrix.zero(target.dim(d), source.dim(d)))

        lo = max(source.min_degree, target.min_degree)
        hi = min(source.max_degree, target.max_degree)
        for d in range(lo + 1, hi + 1):
            if d not in source.differential and d not in target.differential:
                continue  # both sides of the square are zero
            if comp(d - 1) @ source.diff(d) != target.diff(d) @ comp(d):
                raise NotAChainMap(f"square at degree {d} does not commute")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("ChainMap is immutable")

    def component(self, d: int) -> SparseIntMatrix:
        M = self.components.get(d)
        if M is None:
            return SparseIntMatrix.zero(self.target.dim(d), self.source.dim(d))
        return M


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone(f)_n = source_{n-1} (+) target_n, d(x, y) = (-dx, f(x) + dy),
    with labels (n - 1, 1, x) for source cells and (n, 0, y) for target
    cells, as the total complex of the source in row 1 and the target in
    row 0 would have them.

    Degree n lists the source's leading cells, then the target's, over
    degree n - 2 of the cone, whose cells are their trailing ones.  A side
    that does not trail (ChainComplex._split) leads with all its cells, and
    so then does the other, since degree n - 2 of the cone is no longer a
    block of degree n: the source block, then the target block.  So each
    side's cells keep their order, and the cone of a map between periodic
    complexes that respects the split, such as a map of cyclic totals, is
    periodic itself."""
    src, tgt = f.source, f.target
    # at[n] = (cone positions of source_{n-1}'s cells, of target_n's cells)
    at: Dict[int, Tuple[List[int], List[int]]] = {}
    basis: Dict[int, List[Label]] = {}
    diffs: Dict[int, SparseIntMatrix] = {}
    cells = [n + 1 for n in src.degrees()] + tgt.degrees()
    for n in range(min(cells), max(cells) + 1) if cells else ():
        s, t = src.dim(n - 1), tgt.dim(n)
        trails = src._split(n - 1) is not None and tgt._split(n) is not None
        below_s, below_t = at.get(n - 2, ((), ())) if trails else ((), ())
        ls, lt = s - len(below_s), t - len(below_t)
        at_s = list(range(ls)) + [ls + lt + i for i in below_s]
        at_t = list(range(ls, ls + lt)) + [ls + lt + i for i in below_t]
        at[n] = at_s, at_t
        labels: List[Label] = [None] * (s + t)
        for i, x in zip(at_s, src.labels(n - 1)):
            labels[i] = (n - 1, 1, x)
        for i, y in zip(at_t, tgt.labels(n)):
            labels[i] = (n, 0, y)
        basis[n] = labels
        rows_s, rows_t = at.get(n - 1, ((), ()))
        rows: Rows = defaultdict(dict)
        for M, r_at, c_at, sign in (
            (src.diff(n - 1), rows_s, at_s, -1),
            (f.component(n - 1), rows_t, at_s, 1),
            (tgt.diff(n), rows_t, at_t, 1),
        ):
            for r, row in M.by_row.items():
                dst = rows[r_at[r]]
                for c, v in row.items():
                    dst[c_at[c]] = sign * v
        diffs[n] = SparseIntMatrix(len(rows_s) + len(rows_t), s + t, rows)
    bounds = (min(src.min_degree + 1, tgt.min_degree), max(src.max_degree + 1, tgt.max_degree))
    return ChainComplex(basis, diffs, *bounds)


# ---------------------------------------------------------------------------
# homology with explicit generators, induced maps, exactness checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyPresentation:
    """H_i presented on Smith-form generators, as Z^s / relations.

    There is one generator per invariant factor d_j > 1 of H_i, in
    divisibility order, then one per free summand.
    cycles: chain-degree matrix whose s columns are cycle representatives
    of the generators.
    relations: the s x s diagonal of the d_j, with 0 for a free generator.
    Coordinates on ker d_i are read off the column log of degree i - 1's
    relation decomposition (of d_i itself at min_degree): d_i =
    K_{i-1} R_{i-1} with K_{i-1} injective, so ker R_{i-1} = ker d_i.
    """

    degree: int
    cycles: SparseIntMatrix
    relations: SparseIntMatrix
    group: AbelianGroup
    _kernel: SmithDecomposition  # kernel ker d_i, for coordinates on it
    _to_generators: SparseIntMatrix  # s x dim ker d_i

    def coords_of_cycles(self, X: SparseIntMatrix) -> SparseIntMatrix:
        """Express cycle columns of X in the generators, torsion ones mod d_j."""
        Y = self._to_generators @ self._kernel.kernel_coords(X)
        rows = dict(Y.by_row)
        for i, d in self.relations.by_row.items():
            if i in rows:
                rows[i] = {j: v % d[i] for j, v in rows[i].items()}
        return SparseIntMatrix(Y.rows, Y.cols, rows)

    def generated_by(self, A: SparseIntMatrix) -> bool:
        """Do the classes with generator coordinates A span the group?"""
        return cokernel(A.hstack(self.relations)).is_trivial()


def homology_presentation(C: ChainComplex, i: int) -> HomologyPresentation:
    """H_i on Smith-form generators, with one reduction per degree.

    With K_i a basis of ker d_i, the boundaries' coordinates R_i satisfy
    d_{i+1} = K_i R_i, and H_i is the cokernel of R_i.  The complex
    decomposes R_i once, with both logs (ChainComplex._kernel_decomposition):
    the row log gives degree i's generators and group, and the column log,
    since ker R_i = ker d_{i+1}, degree i + 1's kernel basis and kernel
    coordinates.  So degree i's own kernel is read off degree i - 1's
    decomposition, and only min_degree decomposes its own differential.
    A request for one degree reduces every degree below it once; the
    complex keeps those decompositions for the next request.  Torsion lifts
    are reduced modulo the exponent of H_i in kernel coordinates, before
    K_i maps them into chains.
    """
    _check_degree(C, i)
    kernel, relations = C._kernel_decomposition(i), C._kernel_decomposition(i + 1)
    factors, to_generators, generators = relations.generators()
    s = len(factors)
    return HomologyPresentation(
        degree=i,
        cycles=kernel.kernel_basis() @ generators,
        relations=SparseIntMatrix(s, s, {j: {j: d} for j, d in enumerate(factors)}),
        group=AbelianGroup.from_diagonal(factors, factors.count(0)),
        _kernel=kernel,
        _to_generators=to_generators,
    )


def induced_on_homology(
    f: ChainMap, i: int
) -> Tuple[HomologyPresentation, HomologyPresentation, SparseIntMatrix]:
    """The matrix of H_i(f) on presentation generators."""
    hp_src = f.source.presentation(i)
    hp_tgt = f.target.presentation(i)
    image_cycles = f.component(i) @ hp_src.cycles
    return hp_src, hp_tgt, hp_tgt.coords_of_cycles(image_cycles)


def _kernel_of_induced(
    A: SparseIntMatrix, target_relations: SparseIntMatrix
) -> SparseIntMatrix:
    """Generators of {x : A x lies in the target relation lattice}."""
    stacked = A.hstack(target_relations.scale(-1))
    K = smith_decomposition(stacked).kernel_basis()
    x_block = {i: row for i, row in K.by_row.items() if i < A.cols}
    return SparseIntMatrix(A.cols, K.cols, x_block)


def exact_at(
    mid: HomologyPresentation,
    incoming: SparseIntMatrix,
    outgoing: SparseIntMatrix,
    out_relations: SparseIntMatrix,
) -> bool:
    """Exactness of A --incoming--> mid --outgoing--> B at mid.

    `incoming` is a matrix into mid's generators, `outgoing` a matrix from
    mid's generators into a group presented with relation matrix
    `out_relations`.  Two lattice tests decide it: the composite vanishes
    (image within kernel), and the kernel lies in the image.  The first
    already puts every column of `incoming` in the preimage lattice that
    `_kernel_of_induced` spans, so image within kernel needs no test of
    its own.
    """
    if not lattice_contains(out_relations, outgoing @ incoming):
        return False
    kernel = _kernel_of_induced(outgoing, out_relations)
    return lattice_contains(incoming.hstack(mid.relations), kernel)


@dataclass(frozen=True)
class ExactnessReport:
    exact: bool
    checked_nodes: Tuple[Tuple[str, int], ...]
    failures: Tuple[Tuple[str, int], ...]

    def __bool__(self):
        return self.exact


def exact_sequence_check(
    presentations: Sequence[Callable[[int], HomologyPresentation]],
    maps: Sequence[Callable[[int], SparseIntMatrix]],
    names: Sequence[str],
    degrees: Sequence[int],
) -> ExactnessReport:
    """Exactness of ... -> H_n(X0) -> H_n(X1) -> H_n(X2) -> H_{n-1}(X0) -> ...

    presentations[k](n) presents H_n(X_k): X.presentation for a complex X,
    or a complex read at a shifted degree.  maps[k](n) is the chain-level
    matrix that induces the arrow out of H_n(X_k): X0_n -> X1_n, X1_n ->
    X2_n and X2_n -> X0_{n-1}.  Each degree n checks the nodes H_n(X1),
    H_n(X2) and H_{n-1}(X0), named by names[k]; a degree whose
    presentations fall outside the complexes is skipped, and BoundTooSmall
    is raised when every degree is, rather than passing on no node.
    """
    checked: List[Tuple[str, int]] = []
    failures: List[Tuple[str, int]] = []
    X0, X1, X2 = presentations
    for n in degrees:
        try:
            x0, x1, x2 = X0(n), X1(n), X2(n)
            y0, y1 = X0(n - 1), X1(n - 1)
        except TruncationTooTight:
            continue
        a_n = x1.coords_of_cycles(maps[0](n) @ x0.cycles)
        b_n = x2.coords_of_cycles(maps[1](n) @ x1.cycles)
        c_n = y0.coords_of_cycles(maps[2](n) @ x2.cycles)
        a_n1 = y1.coords_of_cycles(maps[0](n - 1) @ y0.cycles)
        for node, mid, incoming, outgoing, out_relations in (
            ((names[1], n), x1, a_n, b_n, x2.relations),
            ((names[2], n), x2, b_n, c_n, y0.relations),
            ((names[0], n - 1), y0, c_n, a_n1, y1.relations),
        ):
            checked.append(node)
            if not exact_at(mid, incoming, outgoing, out_relations):
                failures.append(node)
    if not checked:
        raise BoundTooSmall(f"no node of the sequence lies within degrees {list(degrees)}")
    return ExactnessReport(
        exact=not failures, checked_nodes=tuple(checked), failures=tuple(failures)
    )


def cone_les_check(f: ChainMap, degrees: Sequence[int]) -> ExactnessReport:
    """Exactness of H_n(src) -> H_n(tgt) -> H_n(cone) -> H_{n-1}(src) -> ...

    The inclusion H_n(tgt) -> H_n(cone) is y -> (0, y); the connecting map
    H_n(cone) -> H_{n-1}(src) is (x, y) -> -x, a chain map to the unshifted
    source differential.  Both are read off the cone's labels, row 0 for a
    target cell and row 1 for a source cell, each side in its own order.
    """
    cone = mapping_cone(f)
    src, tgt = f.source, f.target

    def cells(n, side):
        return [i for i, (_, row, _) in enumerate(cone.labels(n)) if row == side]

    def incl_matrix(n):
        rows = {i: {j: 1} for j, i in enumerate(cells(n, 0))}
        return SparseIntMatrix(cone.dim(n), tgt.dim(n), rows)

    def proj_matrix(n):
        rows = {j: {i: -1} for j, i in enumerate(cells(n, 1))}
        return SparseIntMatrix(src.dim(n - 1), cone.dim(n), rows)

    return exact_sequence_check(
        (src.presentation, tgt.presentation, cone.presentation),
        (f.component, incl_matrix, proj_matrix),
        ("src", "tgt", "cone"),
        degrees,
    )
