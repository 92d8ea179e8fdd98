"""Filtered abelian groups and rings, their tensor powers, and the
associated-graded comparison.

A filtration is an increasing sequence of abelian groups indexed by the
integers, constant above index 0 and trivial below some finite depth -m.
Pieces are finitely presented with distinguished generators, transitions
are generator matrices, and every operation on filtered objects is reduced
to explicit integer matrix algebra on those presentations.

The filtered tensor at level k is the colimit over {(i_0,...,i_q) :
sum <= k}; it is presented by the generators on the boundary antidiagonal
sum = k with gluing relations contributed by the antidiagonal sum = k-1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    InvalidParams,
    ParseError,
    UnsupportedFiltration,
)
from .intlin import (
    AbelianGroup,
    SparseIntMatrix,
    cokernel,
    is_prime,
    kron,
    lattice_contains,
)


# ---------------------------------------------------------------------------
# presented groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedGroup:
    """Z^{num_generators} modulo the columns of `relations`."""

    num_generators: int
    relations: SparseIntMatrix

    def __post_init__(self):
        if self.relations.rows != self.num_generators:
            raise InvalidParams(
                f"relation matrix has {self.relations.rows} rows, "
                f"expected {self.num_generators}"
            )

    @classmethod
    def free(cls, rank: int) -> "PresentedGroup":
        return cls(rank, SparseIntMatrix.zero(rank, 0))

    @classmethod
    def cyclic(cls, order: int) -> "PresentedGroup":
        return cls(1, SparseIntMatrix.from_dense([[order]]))

    @classmethod
    def trivial(cls) -> "PresentedGroup":
        return cls(0, SparseIntMatrix.zero(0, 0))

    def group(self) -> AbelianGroup:
        return cokernel(self.relations)

    def admits_hom(self, A: SparseIntMatrix, target: "PresentedGroup") -> bool:
        """Does the generator matrix A define a homomorphism to target?"""
        if A.shape != (target.num_generators, self.num_generators):
            return False
        return lattice_contains(target.relations, A @ self.relations)

    def homs_equal(
        self, A: SparseIntMatrix, B: SparseIntMatrix, target: "PresentedGroup"
    ) -> bool:
        return lattice_contains(target.relations, A + B.scale(-1))


def _tensor_presentation(parts: Sequence[PresentedGroup]) -> PresentedGroup:
    """Tensor product of presented groups: product generators, relations
    from each factor tensored with identities on the others, in Kronecker
    order: factor r's column (a, c, b) has R_r[i, c] in row (a, i, b)."""
    dims = [P.num_generators for P in parts]
    gens = math.prod(dims)
    entries = {}
    col = 0
    for r, P in enumerate(parts):
        outer, inner = math.prod(dims[:r]), math.prod(dims[r + 1 :])
        rel_cols = P.relations.columns()
        for a in range(outer):
            for c in rel_cols:
                for b in range(inner):
                    for i, v in c.items():
                        entries[((a * dims[r] + i) * inner + b, col)] = v
                    col += 1
    return PresentedGroup(gens, SparseIntMatrix(gens, col, entries))


def _spot_sum(spots, parts_of):
    """The direct sum of the tensor spots, spot s being the tensor of the
    groups parts_of(s): the generator index (spot, gens) -> column, in spot
    order and row-major within a spot, and the block-diagonal presentation.
    Spots with the same piece objects share one tensor presentation.
    """
    columns: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    entries = {}
    rel_col = 0
    memo = {}
    for spot in spots:
        parts = parts_of(spot)
        key = tuple(map(id, parts))
        if key not in memo:
            # the memo holds `parts`, so no id in a key is reused
            R = _tensor_presentation(parts).relations
            gens = list(itertools.product(*[range(P.num_generators) for P in parts]))
            memo[key] = (parts, gens, list(R.entries.items()), R.cols)
        _, gens, rel_entries, rel_cols = memo[key]
        base = len(columns)
        columns.update({(spot, g): base + j for j, g in enumerate(gens)})
        for (r, c), v in rel_entries:
            entries[(base + r, rel_col + c)] = v
        rel_col += rel_cols
    n = len(columns)
    return columns, PresentedGroup(n, SparseIntMatrix(n, rel_col, entries))


# ---------------------------------------------------------------------------
# filtered groups and rings
# ---------------------------------------------------------------------------


class FilteredAbelianGroup:
    """Pieces indexed by [-depth, 0], constant above 0, trivial below.

    transitions[s] maps piece s into piece s+1 on generators.
    """

    __slots__ = ("depth", "pieces", "transitions")

    def __init__(
        self,
        pieces: Mapping[int, PresentedGroup],
        transitions: Mapping[int, SparseIntMatrix],
    ):
        if 0 not in pieces:
            raise InvalidParams("piece at index 0 is required")
        if any(s > 0 for s in pieces):
            raise InvalidParams("pieces above 0 are implied by constancy")
        depth = -min(pieces)
        for s in range(-depth, 1):
            if s not in pieces:
                raise InvalidParams(f"missing piece at index {s}")
        for s in range(-depth, 0):
            T = transitions.get(s)
            if T is None:
                raise InvalidParams(f"missing transition at index {s}")
            if not pieces[s].admits_hom(T, pieces[s + 1]):
                raise InvalidParams(f"transition at {s} is not a homomorphism")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "pieces", {s: pieces[s] for s in range(-depth, 1)})
        object.__setattr__(
            self, "transitions", {s: transitions[s] for s in range(-depth, 0)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("FilteredAbelianGroup is immutable")

    def piece(self, s: int) -> PresentedGroup:
        if s >= 0:
            return self.pieces[0]
        if s < -self.depth:
            return PresentedGroup.trivial()
        return self.pieces[s]

    def transition(self, s: int) -> SparseIntMatrix:
        """piece(s) -> piece(s+1)."""
        if s >= 0:
            return SparseIntMatrix.identity(self.pieces[0].num_generators)
        if s < -self.depth:
            return SparseIntMatrix.zero(self.piece(s + 1).num_generators, 0)
        return self.transitions[s]

    def transition_to(self, s: int, target: int) -> SparseIntMatrix:
        """Composite transition piece(s) -> piece(target), s <= target."""
        M = SparseIntMatrix.identity(self.piece(s).num_generators)
        for r in range(s, target):
            M = self.transition(r) @ M
        return M


class FilteredRing:
    """A filtered abelian group with compatible products and a unit.

    products[(i, j)] is the matrix of piece(i) (x) piece(j) -> piece(i+j)
    on generator pairs (Kronecker column order); unit is a column vector
    in piece(0).  Associativity, unit laws, well-definedness on the tensor
    presentations, and compatibility with the transitions are all verified
    at construction.
    """

    __slots__ = ("group", "products", "unit")

    def __init__(
        self,
        group: FilteredAbelianGroup,
        products: Mapping[Tuple[int, int], SparseIntMatrix],
        unit: SparseIntMatrix,
    ):
        m = group.depth
        if unit.shape != (group.piece(0).num_generators, 1):
            raise InvalidParams("unit must be a column vector in piece(0)")
        prods = {}
        for i in range(-m, 1):
            for j in range(-m, 1):
                M = products.get((i, j))
                if M is None:
                    raise InvalidParams(f"missing product at {(i, j)}")
                src = _tensor_presentation([group.piece(i), group.piece(j)])
                if not src.admits_hom(M, group.piece(i + j)):
                    raise InvalidParams(f"product at {(i, j)} not a homomorphism")
                prods[(i, j)] = M
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "products", prods)
        object.__setattr__(self, "unit", unit)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("FilteredRing is immutable")

    def depth(self) -> int:
        return self.group.depth

    def piece(self, s: int) -> PresentedGroup:
        return self.group.piece(s)

    def product(self, i: int, j: int) -> SparseIntMatrix:
        """Matrix of piece(i) (x) piece(j) -> piece(i+j) on generators.

        Indices above 0 reduce to the stored window by constancy, composing
        with the transitions to reach the correct target piece.
        """
        i0, j0 = min(i, 0), min(j, 0)
        ni = self.piece(i).num_generators
        nj = self.piece(j).num_generators
        if i0 < -self.group.depth or j0 < -self.group.depth:
            return SparseIntMatrix.zero(self.piece(i + j).num_generators, ni * nj)
        M = self.products[(i0, j0)]
        if i0 + j0 == min(i + j, 0):
            return M
        return self.group.transition_to(i0 + j0, min(i + j, 0)) @ M

    def _validate(self):
        g = self.group
        m = g.depth
        rng = range(-m, 1)
        for i in rng:
            ni = g.piece(i).num_generators
            # unit laws: 1 * x = x = x * 1
            left = self.product(0, i) @ kron(self.unit, SparseIntMatrix.identity(ni))
            right = self.product(i, 0) @ kron(SparseIntMatrix.identity(ni), self.unit)
            ident = SparseIntMatrix.identity(ni)
            if not g.piece(i).homs_equal(left, ident, g.piece(i)):
                raise InvalidParams(f"left unit law fails on piece {i}")
            if not g.piece(i).homs_equal(right, ident, g.piece(i)):
                raise InvalidParams(f"right unit law fails on piece {i}")
        for i in rng:
            for j in rng:
                ni = g.piece(i).num_generators
                nj = g.piece(j).num_generators
                # transitions are multiplicative
                lhs = g.transition(i + j) @ self.product(i, j)
                rhs = self.product(i + 1, j) @ kron(
                    g.transition(i), SparseIntMatrix.identity(nj)
                )
                if not lattice_contains(g.piece(i + j + 1).relations, lhs + rhs.scale(-1)):
                    raise InvalidParams(f"product at {(i, j)} incompatible with transition")
                rhs2 = self.product(i, j + 1) @ kron(
                    SparseIntMatrix.identity(ni), g.transition(j)
                )
                if not lattice_contains(g.piece(i + j + 1).relations, lhs + rhs2.scale(-1)):
                    raise InvalidParams(f"product at {(i, j)} incompatible with transition")
        for i in rng:
            for j in rng:
                for k in rng:
                    ni = g.piece(i).num_generators
                    nk = g.piece(k).num_generators
                    lhs = self.product(i + j, k) @ kron(
                        self.product(i, j), SparseIntMatrix.identity(nk)
                    )
                    rhs = self.product(i, j + k) @ kron(
                        SparseIntMatrix.identity(ni), self.product(j, k)
                    )
                    if not lattice_contains(
                        g.piece(i + j + k).relations, lhs + rhs.scale(-1)
                    ):
                        raise InvalidParams(f"associativity fails at {(i, j, k)}")


def adic_filtration(p: int, n: int, exponent: int = 1) -> FilteredRing:
    """Z/p^n filtered by powers of the ideal generated by p^exponent.

    piece(-s) is the subgroup generated by p^{exponent * s}, presented on
    one generator; transitions multiply by p^exponent, products of the
    distinguished generators multiply to the distinguished generator.
    """
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if n < 1:
        raise InvalidParams(f"level n = {n} < 1")
    if exponent < 1 or exponent > n:
        raise InvalidParams(f"ideal exponent {exponent} outside 1..{n}")
    # smallest m with exponent * m >= n, so piece(-m) is the last zero piece
    m = -((-n) // exponent)
    pieces = {}
    transitions = {}
    for s in range(0, m + 1):
        e = exponent * s
        pieces[-s] = (
            PresentedGroup.trivial() if e >= n else PresentedGroup.cyclic(p ** (n - e))
        )
    for s in range(-m, 0):
        src, tgt = pieces[s], pieces[s + 1]
        if src.num_generators == 0:
            transitions[s] = SparseIntMatrix.zero(tgt.num_generators, 0)
        else:
            transitions[s] = SparseIntMatrix.from_dense([[p ** exponent]])
    group = FilteredAbelianGroup(pieces, transitions)
    products = {}
    for i in range(-m, 1):
        for j in range(-m, 1):
            src_gens = pieces[i].num_generators * pieces[j].num_generators
            tgt = group.piece(i + j)
            if src_gens == 0 or tgt.num_generators == 0:
                products[(i, j)] = SparseIntMatrix.zero(tgt.num_generators, src_gens)
            else:
                # p^{e|i|} * p^{e|j|} is exactly the distinguished generator
                products[(i, j)] = SparseIntMatrix.from_dense([[1]])
    unit = SparseIntMatrix.from_dense([[1]])
    return FilteredRing(group, products, unit)


# ---------------------------------------------------------------------------
# filtered tensor powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorLevel:
    """The colimit presentation of (X_0 (x) ... (x) X_q)(k).

    Generators are indexed by (tuple, generator multi-index) pairs over the
    antidiagonal i_0 + ... + i_q = k; `columns` maps such a pair to its
    generator index.
    """

    factors: Tuple[FilteredAbelianGroup, ...]
    level: int
    tuples: Tuple[Tuple[int, ...], ...]
    columns: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]
    presentation: PresentedGroup

    def group(self) -> AbelianGroup:
        return self.presentation.group()

    def column_of(self, spot: Tuple[int, ...], gens: Tuple[int, ...]) -> int:
        return self.columns[(spot, gens)]


def _antidiagonal(factors, total: int) -> List[Tuple[int, ...]]:
    """Tuples summing to `total` with coordinate r at least -depth_r and
    at most total plus the other depths (outside which a factor vanishes)."""
    depths = [X.depth for X in factors]
    lows = [-d for d in depths]
    total_depth = sum(depths)
    highs = [total + total_depth - d for d in depths]
    out = []

    def rec(r, remaining, prefix):
        if r == len(factors) - 1:
            if lows[r] <= remaining <= highs[r]:
                out.append(prefix + (remaining,))
            return
        tail_low = sum(lows[r + 1 :])
        tail_high = sum(highs[r + 1 :])
        lo = max(lows[r], remaining - tail_high)
        hi = min(highs[r], remaining - tail_low)
        for i in range(lo, hi + 1):
            rec(r + 1, remaining - i, prefix + (i,))

    rec(0, total, ())
    return out


def _transition_columns():
    """A fresh memo (X, i) -> the columns of X.transition(i), read-only."""
    return functools.lru_cache(maxsize=None)(lambda X, i: X.transition(i).columns())


def multi_tensor(factors: Sequence[FilteredAbelianGroup], k: int) -> TensorLevel:
    """The filtered tensor of the factors at level k.

    Presented on the antidiagonal sum = k: internal relations of each
    tensor spot, plus gluing relations identifying, for every spot on the
    antidiagonal sum = k-1, its images under bumping any two coordinates.
    """
    factors = tuple(factors)
    spots = _antidiagonal(factors, k)
    columns, internal = _spot_sum(
        spots, lambda spot: [X.piece(i) for X, i in zip(factors, spot)]
    )
    entries = dict(internal.relations.entries)
    num_rels = internal.relations.cols
    transition_cols = _transition_columns()
    # gluing: bump coordinate 0 vs bump coordinate r
    for spot in _antidiagonal(factors, k - 1):
        images = [
            (spot[:r] + (i + 1,) + spot[r + 1 :], transition_cols(X, i))
            for r, (X, i) in enumerate(zip(factors, spot))
        ]
        for gens in itertools.product(*[range(len(T_cols)) for _, T_cols in images]):
            vecs = []
            for r, (bumped, T_cols) in enumerate(images):
                vecs.append({
                    columns[(bumped, gens[:r] + (row,) + gens[r + 1 :])]: v
                    for row, v in T_cols[gens[r]].items()
                })
            base = vecs[0]
            for r in range(1, len(factors)):
                col = dict(base)
                for key, v in vecs[r].items():
                    col[key] = col.get(key, 0) - v
                col = {key: v for key, v in col.items() if v}
                if col:
                    for key, v in col.items():
                        entries[(key, num_rels)] = v
                    num_rels += 1
    num_gens = len(columns)
    return TensorLevel(
        factors=factors,
        level=k,
        tuples=tuple(spots),
        columns=columns,
        presentation=PresentedGroup(
            num_gens, SparseIntMatrix(num_gens, num_rels, entries)
        ),
    )


def filtered_tensor(
    X: FilteredAbelianGroup, Y: FilteredAbelianGroup, k: int
) -> TensorLevel:
    """(X (x) Y)(k) as a presented group over the antidiagonal i + j = k."""
    return multi_tensor([X, Y], k)


def tensor_transition(src: TensorLevel, tgt: TensorLevel) -> SparseIntMatrix:
    """The canonical map from level k-1 into level k (bump coordinate 0)."""
    if tgt.level != src.level + 1 or tgt.factors != src.factors:
        raise InvalidParams("tensor_transition wants consecutive levels")
    X = src.factors[0]
    transition_cols = _transition_columns()
    entries: Dict[Tuple[int, int], int] = {}
    for (spot, gens), col in src.columns.items():
        bumped = (spot[0] + 1,) + spot[1:]
        for row, v in transition_cols(X, spot[0])[gens[0]].items():
            entries[(tgt.column_of(bumped, (row,) + gens[1:]), col)] = v
    return SparseIntMatrix(
        tgt.presentation.num_generators, src.presentation.num_generators, entries
    )


# ---------------------------------------------------------------------------
# associated graded
# ---------------------------------------------------------------------------


def graded_piece(M: FilteredRing, i: int) -> PresentedGroup:
    """piece(i) / image of piece(i-1); zero above 0 and below the depth."""
    if i > 0 or i < -M.depth():
        return PresentedGroup.trivial()
    P = M.piece(i)
    return PresentedGroup(
        P.num_generators, P.relations.hstack(M.group.transition(i - 1))
    )


def graded(M: FilteredRing) -> FilteredRing:
    """The associated graded ring, with piece(k) the sum of the graded
    slices at indices <= k and products induced slotwise."""
    m = M.depth()
    slices = {i: graded_piece(M, i) for i in range(-m, 1)}
    offsets: Dict[int, Dict[int, int]] = {}
    pieces = {}
    for k in range(-m, 1):
        off = {}
        total = 0
        for i in range(-m, k + 1):
            off[i] = total
            total += slices[i].num_generators
        entries = {}
        col = 0
        for i in range(-m, k + 1):
            R = slices[i].relations
            for (r, c), v in R.entries.items():
                entries[(off[i] + r, col + c)] = v
            col += R.cols
        offsets[k] = off
        pieces[k] = PresentedGroup(total, SparseIntMatrix(total, col, entries))
    transitions = {}
    for k in range(-m, 0):
        entries = {
            (offsets[k + 1][i] + r, offsets[k][i] + r): 1
            for i in range(-m, k + 1)
            for r in range(slices[i].num_generators)
        }
        transitions[k] = SparseIntMatrix(
            pieces[k + 1].num_generators, pieces[k].num_generators, entries
        )
    group = FilteredAbelianGroup(pieces, transitions)
    products = {}
    for a in range(-m, 1):
        for b in range(-m, 1):
            na, nb = pieces[a].num_generators, pieces[b].num_generators
            tgt = group.piece(a + b)
            if a + b < -m:
                products[(a, b)] = SparseIntMatrix.zero(0, na * nb)
                continue
            entries = {}
            for i in range(-m, a + 1):
                for j in range(-m, b + 1):
                    if i + j < -m:
                        continue  # graded slice below depth is zero
                    mu = M.product(i, j)
                    ni = M.piece(i).num_generators
                    nj = M.piece(j).num_generators
                    tgt_off = offsets[min(a + b, 0)].get(i + j)
                    if tgt_off is None:
                        continue
                    for (r, c), v in mu.entries.items():
                        gi, gj = divmod(c, nj)
                        col = (offsets[a][i] + gi) * nb + (offsets[b][j] + gj)
                        key = (tgt_off + r, col)
                        entries[key] = entries.get(key, 0) + v
            products[(a, b)] = SparseIntMatrix(tgt.num_generators, na * nb, entries)
    unit_entries = {
        (offsets[0][0] + r, 0): v for (r, _), v in M.unit.entries.items()
    }
    unit = SparseIntMatrix(pieces[0].num_generators, 1, unit_entries)
    return FilteredRing(group, products, unit)


# ---------------------------------------------------------------------------
# the cyclic bar construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicBarLevel:
    """Z_q(M)(k): the (q+1)-fold filtered tensor with its cyclic structure.

    faces[i] maps into the level for simplicial degree q-1 (same k);
    degeneracies[i] into degree q+1; rotation is an endomorphism.
    """

    ring: FilteredRing
    simplicial_degree: int
    level: int
    tensor: TensorLevel
    rotation: SparseIntMatrix

    def group(self) -> AbelianGroup:
        return self.tensor.group()


def _rotated(spot: Tuple[int, ...], gens: Tuple[int, ...]):
    """The key (spot, gens) with its last slot moved to the front."""
    return (spot[-1],) + spot[:-1], (gens[-1],) + gens[:-1]


def _rotation_matrix(columns) -> SparseIntMatrix:
    """The cyclic rotation on a spot-sum generator index (see _spot_sum)."""
    n = len(columns)
    entries = {(columns[_rotated(*key)], col): 1 for key, col in columns.items()}
    return SparseIntMatrix(n, n, entries)


def cyclic_bar(M: FilteredRing, q: int, k: int) -> CyclicBarLevel:
    """The degree-q cyclic bar group of M at filtration level k."""
    if q < 0:
        raise InvalidParams(f"simplicial degree {q} < 0")
    T = multi_tensor([M.group] * (q + 1), k)
    return CyclicBarLevel(
        ring=M,
        simplicial_degree=q,
        level=k,
        tensor=T,
        rotation=_rotation_matrix(T.columns),
    )


def face_map(src: CyclicBarLevel, tgt: CyclicBarLevel, i: int) -> SparseIntMatrix:
    """d_i: multiply slots i, i+1 (slot q into slot 0 for i = q)."""
    q = src.simplicial_degree
    if tgt.simplicial_degree != q - 1 or tgt.level != src.level:
        raise InvalidParams("face target must drop the simplicial degree by one")
    if not 0 <= i <= q:
        raise InvalidParams(f"face index {i} outside 0..{q}")
    M = src.ring
    entries: Dict[Tuple[int, int], int] = {}
    for (spot, gens), col in src.tensor.columns.items():
        if i < q:
            a, b = spot[i], spot[i + 1]
            new_spot = spot[:i] + (a + b,) + spot[i + 2 :]
            mu = M.product(a, b)
            nb = M.piece(b).num_generators
            pair = gens[i] * nb + gens[i + 1]
            rest = lambda r: gens[:i] + (r,) + gens[i + 2 :]
        else:
            a, b = spot[q], spot[0]
            new_spot = (a + b,) + spot[1:q]
            mu = M.product(a, b)
            nb = M.piece(b).num_generators
            pair = gens[q] * nb + gens[0]
            rest = lambda r: (r,) + gens[1:q]
        for r, v in mu.column(pair).items():
            key = (tgt.tensor.column_of(new_spot, rest(r)), col)
            entries[key] = entries.get(key, 0) + v
    return SparseIntMatrix(
        tgt.tensor.presentation.num_generators,
        src.tensor.presentation.num_generators,
        entries,
    )


def degeneracy_map(src: CyclicBarLevel, tgt: CyclicBarLevel, i: int) -> SparseIntMatrix:
    """s_i: insert the unit after slot i (at filtration index 0)."""
    q = src.simplicial_degree
    if tgt.simplicial_degree != q + 1 or tgt.level != src.level:
        raise InvalidParams("degeneracy target must raise the simplicial degree")
    if not 0 <= i <= q:
        raise InvalidParams(f"degeneracy index {i} outside 0..{q}")
    M = src.ring
    entries: Dict[Tuple[int, int], int] = {}
    for (spot, gens), col in src.tensor.columns.items():
        new_spot = spot[: i + 1] + (0,) + spot[i + 1 :]
        for (r, _), v in M.unit.entries.items():
            new_gens = gens[: i + 1] + (r,) + gens[i + 1 :]
            key = (tgt.tensor.column_of(new_spot, new_gens), col)
            entries[key] = entries.get(key, 0) + v
    return SparseIntMatrix(
        tgt.tensor.presentation.num_generators,
        src.tensor.presentation.num_generators,
        entries,
    )


# ---------------------------------------------------------------------------
# the graded comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedComparisonReport:
    """Does the level-k slice of the cyclic bar group match the direct sum
    of graded tensor spots, compatibly with the rotations?"""

    simplicial_degree: int
    level: int
    lhs: AbelianGroup
    rhs: AbelianGroup
    invariants_match: bool
    map_is_iso: bool
    rotation_compatible: bool

    def __bool__(self):
        return self.invariants_match and self.map_is_iso and self.rotation_compatible


def graded_comparison(M: FilteredRing, q: int, k: int) -> GradedComparisonReport:
    """Compare Z_q(M)(k)/Z_q(M)(k-1) with the sum of graded tensor spots.

    The comparison map sends a generator whose filtration tuple has all
    coordinates <= 0 to the corresponding graded generator, and kills
    generators with a positive coordinate (those factor through level k-1
    by constancy).  The report checks well-definedness, surjectivity,
    matching invariant factors, and that it intertwines the rotations.
    """
    return next(graded_comparisons(M, q, [k]))


def graded_comparisons(
    M: FilteredRing, q: int, levels: Iterable[int]
) -> Iterator[GradedComparisonReport]:
    """graded_comparison(M, q, k) for each k in levels, in order.  Each
    cyclic bar level is built once: level k serves as the k-1 level of a
    comparison at k+1 that follows it."""
    m = M.depth()
    slices = {i: graded_piece(M, i) for i in range(-m, 1)}
    prev = None
    for k in levels:
        if prev is None or prev.level != k - 1:
            prev = cyclic_bar(M, q, k - 1)
        lhs_level = cyclic_bar(M, q, k)
        incoming = tensor_transition(prev.tensor, lhs_level.tensor)
        prev = lhs_level
        lhs_pres = PresentedGroup(
            lhs_level.tensor.presentation.num_generators,
            lhs_level.tensor.presentation.relations.hstack(incoming),
        )
        # right side: graded spots over tuples with entries in [-m, 0]; a
        # graded slice has the generators of its piece, so phi matches keys
        spots = [s for s in lhs_level.tensor.tuples if all(-m <= i <= 0 for i in s)]
        rhs_columns, rhs_pres = _spot_sum(spots, lambda spot: [slices[i] for i in spot])
        phi_entries = {
            (rhs_columns[key], col): 1
            for key, col in lhs_level.tensor.columns.items()
            if key in rhs_columns
        }
        phi = SparseIntMatrix(
            rhs_pres.num_generators, lhs_pres.num_generators, phi_entries
        )
        well_defined = lhs_pres.admits_hom(phi, rhs_pres)
        onto = cokernel(phi.hstack(rhs_pres.relations)).is_trivial()
        lhs_group = lhs_pres.group()
        rhs_group = rhs_pres.group()
        invariants_match = lhs_group == rhs_group
        # a surjection between groups with equal invariants is an isomorphism
        iso = well_defined and onto and invariants_match
        # rotation on the right side permutes spots and generator tuples
        rhs_rot = _rotation_matrix(rhs_columns)
        diff = (phi @ lhs_level.rotation) + (rhs_rot @ phi).scale(-1)
        rotation_compatible = lattice_contains(rhs_pres.relations, diff)
        yield GradedComparisonReport(
            simplicial_degree=q,
            level=k,
            lhs=lhs_group,
            rhs=rhs_group,
            invariants_match=invariants_match,
            map_is_iso=iso,
            rotation_compatible=rotation_compatible,
        )


# ---------------------------------------------------------------------------
# rotation fixed points for split free filtrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointsReport:
    power: int
    level: int
    expected_rank: int
    found: int
    independent: bool

    def __bool__(self):
        return self.found == self.expected_rank and self.independent


def _require_split_free(Y: FilteredAbelianGroup):
    for s in range(-Y.depth, 1):
        if Y.piece(s).relations.cols != 0:
            raise UnsupportedFiltration(f"piece {s} is not free")
    for s in range(-Y.depth, 0):
        T = Y.transition(s)
        seen = set()
        for c in range(T.cols):
            col = [(r, v) for (r, cc), v in T.entries.items() if cc == c]
            if len(col) != 1 or col[0][1] != 1 or col[0][0] in seen:
                raise UnsupportedFiltration(
                    f"transition at {s} does not embed basis into basis"
                )
            seen.add(col[0][0])


def fixed_points_check(Y: FilteredAbelianGroup, q: int, s: int) -> FixedPointsReport:
    """Rotation-fixed diagonal basis tensors of the q-fold tensor at level s
    come exactly from the basis at level floor(s/q).

    Restricted to filtrations whose pieces are free with transitions that
    send basis elements to distinct basis elements.
    """
    if q < 1:
        raise InvalidParams(f"power {q} < 1")
    _require_split_free(Y)
    expected = Y.piece(s // q).num_generators
    T = multi_tensor([Y] * q, s)
    pres = T.presentation
    # a diagonal class for basis element b of piece(j): the tensor
    # b (x) ... (x) b pushed onto the antidiagonal along the transitions
    found_cols: List[Dict[int, int]] = []
    lvl = s // q
    base = Y.piece(lvl)
    for b in range(base.num_generators):
        spot = tuple([lvl] * q)
        gens = tuple([b] * q)
        # distribute the remainder s - q*lvl by bumping leading coordinates
        rem = s - q * lvl
        cur_spot, cur_gens = list(spot), list(gens)
        for r in range(rem):
            idx = r % q
            img = list(Y.transition(cur_spot[idx]).column(cur_gens[idx]))
            cur_spot[idx] += 1
            cur_gens[idx] = img[0] if img else 0
        key = (tuple(cur_spot), tuple(cur_gens))
        col = T.column_of(*key)
        # fixed under rotation?
        image = T.column_of(*_rotated(*key))
        diff = {} if image == col else {(col, 0): 1, (image, 0): -1}
        diff_mat = SparseIntMatrix(pres.num_generators, 1, diff)
        if lattice_contains(pres.relations, diff_mat):
            found_cols.append({col: 1})
    # independence: the classes span a rank-`found` direct summand
    n = pres.num_generators
    span = SparseIntMatrix(
        n,
        len(found_cols),
        {(r, c): v for c, col in enumerate(found_cols) for r, v in col.items()},
    )
    quotient = cokernel(span.hstack(pres.relations))
    full = pres.group()
    independent = (
        full.free_rank - quotient.free_rank == len(found_cols)
        and not quotient.invariant_factors
    )
    return FixedPointsReport(
        power=q,
        level=s,
        expected_rank=expected,
        found=len(found_cols),
        independent=independent,
    )


# ---------------------------------------------------------------------------
# text format for filtered rings
# ---------------------------------------------------------------------------
#
#   [piece]
#   index -1
#   generators 1
#   relations 3        # one invariant factor per line after the header
#   [transition]
#   index -1
#   2                  # matrix rows, entries space-separated
#   [product]
#   indices -1 -1
#   1
#   [unit]
#   1


def _parse_matrix(lines: List[str], rows: int, cols: int, where: str) -> SparseIntMatrix:
    entries = {}
    if cols and len(lines) != rows:
        raise ParseError(f"{where}: expected {rows} matrix rows, got {len(lines)}")
    for r, line in enumerate(lines):
        vals = line.split()
        if len(vals) != cols:
            raise ParseError(f"{where}: row {r} has {len(vals)} entries, want {cols}")
        for c, v in enumerate(vals):
            x = _int(v, where)
            if x:
                entries[(r, c)] = x
    return SparseIntMatrix(rows, cols, entries)


def load_filtered_ring(text: str) -> FilteredRing:
    """Parse a filtered ring from the block text format documented above."""
    blocks: List[Tuple[str, List[str]]] = []
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[piece]", "[transition]", "[product]", "[unit]"):
                raise ParseError(f"unknown section {line}")
            current = (line, [])
            blocks.append(current)
        else:
            if current is None:
                raise ParseError("content before any section header")
            current[1].append(line)
    pieces: Dict[int, PresentedGroup] = {}
    transition_blocks: Dict[int, List[str]] = {}
    product_blocks: Dict[Tuple[int, int], List[str]] = {}
    unit_lines: Optional[List[str]] = None
    for kind, lines in blocks:
        if kind == "[piece]":
            hdr = dict(_header(lines[:3], ("index", "generators", "relations")))
            idx, gens, rel_count = hdr["index"], hdr["generators"], hdr["relations"]
            if not 0 <= rel_count <= gens:
                raise ParseError(f"piece {idx}: needs 0 <= relations <= generators")
            facs = [_int(x, f"piece {idx}") for x in lines[3 : 3 + rel_count]]
            if len(facs) != rel_count:
                raise ParseError(f"piece {idx}: expected {rel_count} relation lines")
            entries = {(i, i): f for i, f in enumerate(facs)}
            pieces[idx] = PresentedGroup(
                gens, SparseIntMatrix(gens, rel_count, entries)
            )
        elif kind == "[transition]":
            hdr = dict(_header(lines[:1], ("index",)))
            transition_blocks[hdr["index"]] = lines[1:]
        elif kind == "[product]":
            if not lines or not lines[0].startswith("indices"):
                raise ParseError("product block must start with 'indices i j'")
            parts = lines[0].split()
            if len(parts) != 3:
                raise ParseError("product block must start with 'indices i j'")
            product_blocks[tuple(_int(x, "indices") for x in parts[1:])] = lines[1:]
        else:
            unit_lines = lines
    if not pieces or unit_lines is None:
        raise ParseError("need at least one piece and a unit")
    transitions = {}
    for idx, lines in transition_blocks.items():
        src = pieces.get(idx)
        tgt = pieces.get(idx + 1)
        if src is None or tgt is None:
            raise ParseError(f"transition at {idx} references missing pieces")
        transitions[idx] = _parse_matrix(
            lines, tgt.num_generators, src.num_generators, f"transition {idx}"
        )
    try:
        group = FilteredAbelianGroup(pieces, transitions)
        products = {}
        for (i, j), lines in product_blocks.items():
            if i not in pieces or j not in pieces:
                raise ParseError(f"product at {(i, j)} references missing pieces")
            src_cols = pieces[i].num_generators * pieces[j].num_generators
            tgt = group.piece(i + j)
            products[(i, j)] = _parse_matrix(
                lines, tgt.num_generators, src_cols, f"product {(i, j)}"
            )
        unit = _parse_matrix(unit_lines, pieces[0].num_generators, 1, "unit")
        return FilteredRing(group, products, unit)
    except InvalidParams as e:
        raise ParseError(f"filtered ring fails validation: {e}") from e


def _header(lines: List[str], keys: Tuple[str, ...]):
    if len(lines) < len(keys):
        raise ParseError(f"truncated header, expected keys {keys}")
    for line, key in zip(lines, keys):
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected '{key} <value>', got {line!r}")
        yield key, _int(parts[1], key)


def _int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as e:
        raise ParseError(f"{where}: bad integer {text!r}") from e
