"""Filtered abelian groups and rings, their tensor powers, and the
associated-graded comparison.

A filtration is an increasing sequence of abelian groups indexed by the
integers, constant above index 0 and trivial below some finite depth -m.
Pieces are finitely presented with distinguished generators, transitions
are generator matrices, and every operation on filtered objects is reduced
to explicit integer matrix algebra on those presentations.

The filtered tensor at level k is the colimit over {(i_0,...,i_q) :
sum <= k}.  Transitions are identities above index 0, so the colimit may
be taken over the nonpositive box: level k <= 0 is presented by the
generators on the box antidiagonal sum = k with gluing relations from the
box antidiagonal sum = k-1, and level k > 0 is level 0.

What the package builds on these levels is what `gr-check` reads: the
cyclic bar group and its graded comparison.  The associated graded ring,
the rotation and the rotation fixed points are test references
(`tests/oracles.py`).
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParams, ParseError
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
        """Do the generator matrices A and B agree as maps into target?"""
        return lattice_contains(target.relations, A + B.scale(-1))


def _write_tensor_relations(parts, rows, row0, col0) -> int:
    """Write the relations of the tensor of `parts` into the row dicts
    `rows` (a defaultdict) from row row0 and column col0 on, and return how
    many columns they fill.  Kronecker order: factor r's column (a, c, b)
    has R_r[i, c] in row (a, i, b), a and b running over the generators of
    the factors before and after r, and the factors' blocks side by side."""
    dims = [P.num_generators for P in parts]
    inners = list(itertools.accumulate(reversed(dims[1:]), operator.mul, initial=1))
    col, outer = col0, 1
    for P, d, inner in zip(parts, dims, reversed(inners)):
        R = P.relations
        for i, rel in R.by_row.items():
            for a in range(outer):
                row = row0 + (a * d + i) * inner
                for c, v in rel.items():
                    first = col + (a * R.cols + c) * inner
                    for b in range(inner):
                        rows[row + b][first + b] = v
        col += outer * R.cols * inner
        outer *= d
    return col - col0


def _spot_sum(spots, parts_of):
    """The direct sum of the tensor spots, spot s being the tensor of the
    groups parts_of(s): the generator index (spot, gens) -> column, in spot
    order and row-major within a spot, and the block-diagonal presentation,
    each spot's relations written in place at the spot's offsets."""
    columns: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    rows = defaultdict(dict)
    rel_col = 0
    for spot in spots:
        parts = parts_of(spot)
        base = len(columns)
        gens = itertools.product(*[range(P.num_generators) for P in parts])
        columns.update({(spot, g): base + j for j, g in enumerate(gens)})
        rel_col += _write_tensor_relations(parts, rows, base, rel_col)
    n = len(columns)
    return columns, PresentedGroup(n, SparseIntMatrix.from_rows(n, rel_col, rows))


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
                # piece(i) (x) piece(j), presented as a sum of one spot
                parts = [group.piece(i), group.piece(j)]
                src = _spot_sum([()], lambda _: parts)[1]
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
                tgt = g.piece(i + j + 1)
                # transitions are multiplicative
                lhs = g.transition(i + j) @ self.product(i, j)
                rhs = self.product(i + 1, j) @ kron(
                    g.transition(i), SparseIntMatrix.identity(nj)
                )
                rhs2 = self.product(i, j + 1) @ kron(
                    SparseIntMatrix.identity(ni), g.transition(j)
                )
                if not (tgt.homs_equal(lhs, rhs, tgt) and tgt.homs_equal(lhs, rhs2, tgt)):
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
                    if not g.piece(i + j + k).homs_equal(lhs, rhs, g.piece(i + j + k)):
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
    """The colimit presentation of (X_0 (x) ... (x) X_q)(k); with q + 1
    copies of one ring's group it is the cyclic bar group Z_q(M)(k).

    Generators are indexed by (tuple, generator multi-index) pairs over the
    box antidiagonal {b : -depth_r <= b_r <= 0, sum b = min(k, 0)};
    `columns` maps such a pair to its generator index.  `incoming` is the
    canonical map from level k-1 (bump the first negative coordinate; the
    identity for k > 0): its columns follow the generator order of level
    k-1.
    """

    factors: Tuple[FilteredAbelianGroup, ...]
    level: int
    tuples: Tuple[Tuple[int, ...], ...]
    columns: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]
    presentation: PresentedGroup
    incoming: SparseIntMatrix

    def group(self) -> AbelianGroup:
        return self.presentation.group()


def _antidiagonal(factors, total: int) -> List[Tuple[int, ...]]:
    """The box antidiagonal: tuples summing to `total` with coordinate r in
    [-depth_r, 0] (below, a factor vanishes; above, it is constant)."""
    lows = [-X.depth for X in factors]
    out = []

    def rec(r, remaining, prefix):
        if r == len(factors) - 1:
            if lows[r] <= remaining <= 0:
                out.append(prefix + (remaining,))
            return
        for i in range(max(lows[r], remaining), min(0, remaining - sum(lows[r + 1 :])) + 1):
            rec(r + 1, remaining - i, prefix + (i,))

    rec(0, total, ())
    return out


def multi_tensor(factors: Sequence[FilteredAbelianGroup], k: int) -> TensorLevel:
    """The filtered tensor of the factors at level k.

    For k <= 0 it is presented on the box antidiagonal sum = k: internal
    relations of each tensor spot, plus gluing relations identifying, for
    every spot on the box antidiagonal sum = k-1, its images under bumping
    any two negative coordinates.  Level k > 0 is level 0.
    """
    factors = tuple(factors)
    top = min(k, 0)
    spots = _antidiagonal(factors, top)
    columns, internal = _spot_sum(
        spots, lambda spot: [X.piece(i) for X, i in zip(factors, spot)]
    )
    glue = defaultdict(dict)  # the gluing relations, by row
    num_glue = 0
    incoming = defaultdict(dict)  # column g: the image of level k-1's generator g
    num_incoming = 0
    transition_cols = functools.lru_cache(None)(lambda X, i: X.transition(i).columns())
    # gluing: bump the first negative coordinate vs bump another one
    for spot in _antidiagonal(factors, top - 1):
        images = [
            (spot[:r] + (i + 1,) + spot[r + 1 :], transition_cols(X, i), r)
            for r, (X, i) in enumerate(zip(factors, spot))
            if i < 0
        ]
        sizes = [X.piece(i).num_generators for X, i in zip(factors, spot)]
        for gens in itertools.product(*map(range, sizes)):
            vecs = []
            for bumped, T_cols, r in images:
                vecs.append({
                    columns[(bumped, gens[:r] + (row,) + gens[r + 1 :])]: v
                    for row, v in T_cols[gens[r]].items()
                })
            base = vecs[0]
            for key, v in base.items():
                incoming[key][num_incoming] = v
            num_incoming += 1
            for vec in vecs[1:]:
                col = dict(base)
                for key, v in vec.items():
                    col[key] = col.get(key, 0) - v
                col = {key: v for key, v in col.items() if v}
                if col:
                    for key, v in col.items():
                        glue[key][num_glue] = v
                    num_glue += 1
    num_gens = len(columns)
    gluing = SparseIntMatrix.from_rows(num_gens, num_glue, glue)
    return TensorLevel(
        factors=factors,
        level=k,
        tuples=tuple(spots),
        columns=columns,
        presentation=PresentedGroup(num_gens, internal.relations.hstack(gluing)),
        incoming=(
            SparseIntMatrix.from_rows(num_gens, num_incoming, incoming)
            if k <= 0
            else SparseIntMatrix.identity(num_gens)
        ),
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


# ---------------------------------------------------------------------------
# the cyclic bar construction
# ---------------------------------------------------------------------------


def cyclic_bar(M: FilteredRing, q: int, k: int) -> TensorLevel:
    """Z_q(M)(k), the degree-q cyclic bar group of M at filtration level k:
    the (q+1)-fold filtered tensor of M's group.

    The graded comparison reads only the level, so the package forms no
    cyclic operator, faces or degeneracies; `tests/oracles.py` builds them
    to check the simplicial and cyclic identities.
    """
    if q < 0:
        raise InvalidParams(f"simplicial degree {q} < 0")
    return multi_tensor([M.group] * (q + 1), k)


# ---------------------------------------------------------------------------
# the graded comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedComparisonReport:
    """Does the level-k slice of the cyclic bar group match the direct sum
    of graded tensor spots, compatibly with the rotations?  It fails
    unless the graded side's generator index is the level's own (empty for
    k > 0)."""

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

    The left side is level k modulo the image of level k-1 (the level's
    `incoming` map), so only level k is built.  The right side is the sum
    of graded tensor spots over the level's box antidiagonal sum = k,
    built separately from the graded slices; it is empty for k > 0.

    The comparison map sends each generator to the graded generator of the
    same key.  When the right side's index equals the level's (empty for
    k > 0), that map is the identity (zero above 0), hence onto, and one
    rotation matrix serves both sides: `rotation_compatible` is that
    equality.  `map_is_iso` adds well-definedness (the level's relations
    and `incoming` lie in the graded relations) and equal invariant
    factors.  If the indexes differ, both are False.
    """
    m = M.depth()
    slices = {i: graded_piece(M, i) for i in range(-m, 1)}
    T = cyclic_bar(M, q, k)
    lhs_relations = T.presentation.relations.hstack(T.incoming)
    spots = [s for s in T.tuples if sum(s) == k]
    rhs_columns, rhs_pres = _spot_sum(spots, lambda spot: [slices[i] for i in spot])
    same_index = rhs_columns == (T.columns if k <= 0 else {})
    well_defined = same_index and (
        k > 0 or lattice_contains(rhs_pres.relations, lhs_relations)
    )
    lhs_group = cokernel(lhs_relations)
    rhs_group = rhs_pres.group()
    invariants_match = lhs_group == rhs_group
    return GradedComparisonReport(
        simplicial_degree=q,
        level=k,
        lhs=lhs_group,
        rhs=rhs_group,
        invariants_match=invariants_match,
        map_is_iso=well_defined and invariants_match,
        rotation_compatible=same_index,
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
            _require_new(idx, pieces, "piece")
            if not 0 <= rel_count <= gens:
                raise ParseError(f"piece {idx}: needs 0 <= relations <= generators")
            if len(lines) != 3 + rel_count:
                raise ParseError(f"piece {idx}: expected {rel_count} relation lines")
            facs = [_int(x, f"piece {idx}") for x in lines[3:]]
            entries = {(i, i): f for i, f in enumerate(facs)}
            pieces[idx] = PresentedGroup(
                gens, SparseIntMatrix(gens, rel_count, entries)
            )
        elif kind == "[transition]":
            idx = dict(_header(lines[:1], ("index",)))["index"]
            _require_new(idx, transition_blocks, "transition")
            transition_blocks[idx] = lines[1:]
        elif kind == "[product]":
            if not lines or not lines[0].startswith("indices"):
                raise ParseError("product block must start with 'indices i j'")
            parts = lines[0].split()
            if len(parts) != 3:
                raise ParseError("product block must start with 'indices i j'")
            idx = tuple(_int(x, "indices") for x in parts[1:])
            _require_new(idx, product_blocks, "product")
            product_blocks[idx] = lines[1:]
        else:
            if unit_lines is not None:
                raise ParseError("unit given twice")
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


def _require_new(key, seen: Mapping, kind: str):
    if key in seen:
        raise ParseError(f"{kind} {key} given twice")


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
