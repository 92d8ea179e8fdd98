"""Exact sparse integer linear algebra.

Smith normal form, cokernels, kernel bases and lattice membership.
Everything runs over Python's arbitrary-precision integers; there is no
floating point anywhere and no modular shortcut.

One elimination (`_Reducer`) serves two tiers.  `invariant_factors` runs it
without transforms: the rank and the Smith diagonal are all a homology
group or a cokernel needs.  `smith_decomposition` runs the same row and
column operations while keeping U, V and V^-1 with U*M*V = D, for cycle
lifts, kernel coordinates and induced maps.  Pivots are chosen with
minimal absolute value to limit entry growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import CompositionNonzero, DimensionMismatch


Entries = Mapping[Tuple[int, int], int]


class SparseIntMatrix:
    """Immutable sparse integer matrix: map (row, col) -> nonzero int."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[Entries] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape ({rows}, {cols})")
        clean: Dict[Tuple[int, int], int] = {}
        for (i, j), v in (entries or {}).items():
            if v == 0:
                continue
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionMismatch(
                    f"entry ({i}, {j}) outside shape ({rows}, {cols})"
                )
            clean[(i, j)] = int(v)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseIntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]], cols: Optional[int] = None) -> "SparseIntMatrix":
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if rows else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise DimensionMismatch("ragged dense matrix")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, key: Tuple[int, int]) -> int:
        return self.entries.get(key, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseIntMatrix)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def is_zero(self) -> bool:
        return not self.entries

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self.entries)

    def to_dense(self) -> List[List[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    def diagonal_entries(self) -> List[int]:
        n = min(self.rows, self.cols)
        return [self.entries.get((k, k), 0) for k in range(n)]

    def column(self, j: int) -> Dict[int, int]:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self) -> List[Dict[int, int]]:
        cols: List[Dict[int, int]] = [dict() for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} + {other.shape}")
        entries = dict(self.entries)
        for key, v in other.entries.items():
            entries[key] = entries.get(key, 0) + v
        return SparseIntMatrix(self.rows, self.cols, entries)

    def __neg__(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.rows, self.cols, {k: -v for k, v in self.entries.items()}
        )

    def __sub__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
        )

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        # row-major view of self, column accumulate over other's rows
        by_row: Dict[int, Dict[int, int]] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        other_rows: Dict[int, Dict[int, int]] = {}
        for (i, j), v in other.entries.items():
            other_rows.setdefault(i, {})[j] = v
        entries: Dict[Tuple[int, int], int] = {}
        for i, row in by_row.items():
            acc: Dict[int, int] = {}
            for k, a in row.items():
                orow = other_rows.get(k)
                if not orow:
                    continue
                for j, b in orow.items():
                    acc[j] = acc.get(j, 0) + a * b
            for j, v in acc.items():
                if v:
                    entries[(i, j)] = v
        return SparseIntMatrix(self.rows, other.cols, entries)

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def apply(self, vec: Mapping[int, int]) -> Dict[int, int]:
        """Apply to a sparse column vector {index: value}."""
        out: Dict[int, int] = {}
        cols = {}
        for (i, j), v in self.entries.items():
            cols.setdefault(j, []).append((i, v))
        for j, c in vec.items():
            if not c:
                continue
            for i, v in cols.get(j, ()):
                out[i] = out.get(i, 0) + c * v
        return {i: v for i, v in out.items() if v}

    def hstack(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return SparseIntMatrix(self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.rows, j)] = v
        return SparseIntMatrix(self.rows + other.rows, self.cols, entries)


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    Invariant factors equal to 1 are dropped; this canonical form is the
    equality test for groups throughout the package.
    """

    free_rank: int
    invariant_factors: Tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        facs = tuple(int(d) for d in self.invariant_factors)
        for d in facs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors not a divisibility chain: {facs}")
        object.__setattr__(self, "invariant_factors", facs)

    @classmethod
    def from_diagonal(cls, diag: Iterable[int], free_rank: int = 0) -> "AbelianGroup":
        """Canonicalize a Smith diagonal: drop units, keep the chain."""
        facs = tuple(abs(d) for d in diag if abs(d) > 1)
        return cls(free_rank, facs)

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, m: int) -> "AbelianGroup":
        if m == 0:
            return cls(1, ())
        return cls(0, (m,)) if m > 1 else cls(0, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self) -> int:
        """Order of the group; raises for infinite groups."""
        if self.free_rank:
            raise ValueError("infinite group has no order")
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def p_part(self, p: int) -> "AbelianGroup":
        """The p-primary component (free part discarded)."""
        facs = []
        for d in self.invariant_factors:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                facs.append(q)
        return AbelianGroup(0, tuple(facs))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


class _Reducer:
    """Mutable worker performing the Smith reduction with transforms.

    Rows are dicts col -> value; a column index keeps reduction local.  The
    transforms U (rows, left) and V (columns, right) are optional, as is
    Vinv which tracks the inverse of V for kernel-coordinate queries.
    """

    def __init__(self, M: SparseIntMatrix, track_u: bool, track_v: bool, track_vinv: bool):
        self.m = M.rows
        self.n = M.cols
        self.row: List[Dict[int, int]] = [dict() for _ in range(self.m)]
        self.colnz: List[set] = [set() for _ in range(self.n)]
        for (i, j), v in M.entries.items():
            self.row[i][j] = v
            self.colnz[j].add(i)
        self.U = [{i: 1} for i in range(self.m)] if track_u else None
        self.V = [{j: 1} for j in range(self.n)] if track_v else None
        self.Vinv = [{j: 1} for j in range(self.n)] if track_vinv else None

    # -- elementary operations (each keeps U*M_orig*V = M_current) ---------

    def swap_rows(self, a: int, b: int):
        if a == b:
            return
        for j in set(self.row[a]) | set(self.row[b]):
            nz = self.colnz[j]
            ina, inb = a in nz, b in nz
            if ina != inb:
                if ina:
                    nz.discard(a)
                    nz.add(b)
                else:
                    nz.discard(b)
                    nz.add(a)
        self.row[a], self.row[b] = self.row[b], self.row[a]
        if self.U is not None:
            self.U[a], self.U[b] = self.U[b], self.U[a]

    def add_row(self, a: int, b: int, c: int):
        """row a += c * row b."""
        if c == 0:
            return
        ra = self.row[a]
        for j, v in self.row[b].items():
            w = ra.get(j, 0) + c * v
            if w:
                ra[j] = w
                self.colnz[j].add(a)
            elif j in ra:
                del ra[j]
                self.colnz[j].discard(a)
        if self.U is not None:
            ua = self.U[a]
            for j, v in self.U[b].items():
                w = ua.get(j, 0) + c * v
                if w:
                    ua[j] = w
                elif j in ua:
                    del ua[j]

    def negate_row(self, a: int):
        ra = self.row[a]
        for j in ra:
            ra[j] = -ra[j]
        if self.U is not None:
            ua = self.U[a]
            for j in ua:
                ua[j] = -ua[j]

    def swap_cols(self, a: int, b: int):
        if a == b:
            return
        for i in self.colnz[a] | self.colnz[b]:
            r = self.row[i]
            va, vb = r.get(a), r.get(b)
            if vb is None:
                del r[a]
            else:
                r[a] = vb
            if va is None:
                r.pop(b, None)
            else:
                r[b] = va
        self.colnz[a], self.colnz[b] = self.colnz[b], self.colnz[a]
        if self.V is not None:
            for vr in self.V:
                va, vb = vr.get(a), vr.get(b)
                if vb is None:
                    vr.pop(a, None)
                else:
                    vr[a] = vb
                if va is None:
                    vr.pop(b, None)
                else:
                    vr[b] = va
        if self.Vinv is not None:
            self.Vinv[a], self.Vinv[b] = self.Vinv[b], self.Vinv[a]

    def add_col(self, a: int, b: int, c: int):
        """col a += c * col b (M <- M*E with E = I + c*e_{b,a})."""
        if c == 0:
            return
        for i in list(self.colnz[b]):
            r = self.row[i]
            w = r.get(a, 0) + c * r[b]
            if w:
                r[a] = w
                self.colnz[a].add(i)
            elif a in r:
                del r[a]
                self.colnz[a].discard(i)
        if self.V is not None:
            for vr in self.V:
                vb = vr.get(b)
                if vb is None:
                    continue
                w = vr.get(a, 0) + c * vb
                if w:
                    vr[a] = w
                else:
                    vr.pop(a, None)
        if self.Vinv is not None:
            # E^{-1} * Vinv: row b -= c * row a
            rb, ra = self.Vinv[b], self.Vinv[a]
            for j, v in ra.items():
                w = rb.get(j, 0) - c * v
                if w:
                    rb[j] = w
                elif j in rb:
                    del rb[j]

    # -- the reduction ------------------------------------------------------

    def _find_pivot(self, k: int) -> Optional[Tuple[int, int]]:
        """Minimal |value| entry in the submatrix with both indices >= k."""
        best = None
        best_val = None
        for i in range(k, self.m):
            for j, v in self.row[i].items():
                if j < k:
                    continue
                a = abs(v)
                if best_val is None or a < best_val:
                    best, best_val = (i, j), a
                    if a == 1:
                        return best
        return best

    def reduce(self):
        k = 0
        limit = min(self.m, self.n)
        while k < limit:
            pos = self._find_pivot(k)
            if pos is None:
                break
            self.swap_rows(k, pos[0])
            self.swap_cols(k, pos[1])
            p = self.row[k][k]
            # clear column k below/above, then row k; remainders restart the
            # pivot hunt with a strictly smaller pivot candidate
            dirty = False
            for i in list(self.colnz[k]):
                if i == k:
                    continue
                q = self.row[i][k] // p
                self.add_row(i, k, -q)
                if k in self.row[i]:
                    dirty = True
            for j in list(self.row[k]):
                if j == k:
                    continue
                q = self.row[k][j] // p
                self.add_col(j, k, -q)
                if j in self.row[k]:
                    dirty = True
            if dirty:
                continue
            k += 1
        self.rank = k
        self._fix_divisibility()
        self._fix_signs()

    def _fix_divisibility(self):
        r = self.rank
        changed = True
        while changed:
            changed = False
            for k in range(r - 1):
                a = self.row[k].get(k, 0)
                b = self.row[k + 1].get(k + 1, 0)
                if a and b and b % a != 0:
                    # splice b into row k and re-reduce the 2x2 block
                    self.add_row(k, k + 1, 1)
                    self._rediagonalize_pair(k)
                    changed = True

    def _rediagonalize_pair(self, k: int):
        """Re-diagonalize the 2x2 block at (k, k) after a divisibility splice."""
        while True:
            a = self.row[k].get(k, 0)
            b = self.row[k].get(k + 1, 0)
            c = self.row[k + 1].get(k, 0)
            d = self.row[k + 1].get(k + 1, 0)
            if b == 0 and c == 0:
                return
            # pivot = entry of minimal absolute value in the block
            cand = [(abs(v), i, j) for (v, i, j) in ((a, 0, 0), (b, 0, 1), (c, 1, 0), (d, 1, 1)) if v]
            _, pi, pj = min(cand)
            self.swap_rows(k, k + pi)
            self.swap_cols(k, k + pj)
            p = self.row[k][k]
            if self.row[k + 1].get(k, 0):
                self.add_row(k + 1, k, -(self.row[k + 1][k] // p))
            if self.row[k].get(k + 1, 0):
                self.add_col(k + 1, k, -(self.row[k][k + 1] // p))

    def _fix_signs(self):
        for k in range(self.rank):
            if self.row[k].get(k, 0) < 0:
                self.negate_row(k)


def _rows_matrix(rows: List[Dict[int, int]], cols: int) -> SparseIntMatrix:
    """The matrix whose row i is the sparse dict rows[i]."""
    entries = {}
    for i, r in enumerate(rows):
        for j, v in r.items():
            entries[(i, j)] = v
    return SparseIntMatrix(len(rows), cols, entries)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = D with U, V unimodular and D a Smith diagonal."""

    matrix: SparseIntMatrix
    d: SparseIntMatrix
    u: SparseIntMatrix
    v: SparseIntMatrix
    vinv: SparseIntMatrix
    rank: int

    @property
    def diagonal(self) -> List[int]:
        return self.d.diagonal_entries()

    def kernel_basis(self) -> SparseIntMatrix:
        """Columns form a basis of the (saturated) integer kernel lattice."""
        cols = self.v.cols
        entries = {}
        for (i, j), val in self.v.entries.items():
            if j >= self.rank:
                entries[(i, j - self.rank)] = val
        return SparseIntMatrix(cols, cols - self.rank, entries)

    def kernel_coords(self, X: SparseIntMatrix) -> SparseIntMatrix:
        """Coordinates of the columns of X in the kernel basis.

        Every column of X must lie in the kernel of the decomposed matrix.
        """
        Y = self.vinv @ X
        entries = {}
        for (i, j), v in Y.entries.items():
            if i < self.rank:
                raise CompositionNonzero("column not in the kernel")
            entries[(i - self.rank, j)] = v
        return SparseIntMatrix(self.matrix.cols - self.rank, X.cols, entries)


def smith_decomposition(M: SparseIntMatrix) -> SmithDecomposition:
    w = _Reducer(M, track_u=True, track_v=True, track_vinv=True)
    w.reduce()
    return SmithDecomposition(
        matrix=M,
        d=_rows_matrix(w.row, w.n),
        u=_rows_matrix(w.U, w.m),
        v=_rows_matrix(w.V, w.n),
        vinv=_rows_matrix(w.Vinv, w.n),
        rank=w.rank,
    )


def smith_normal_form(
    M: SparseIntMatrix,
) -> Tuple[SparseIntMatrix, SparseIntMatrix, SparseIntMatrix]:
    """Return (D, U, V) with U @ M @ V = D in Smith normal form."""
    dec = smith_decomposition(M)
    return dec.d, dec.u, dec.v


def invariant_factors(M: SparseIntMatrix) -> List[int]:
    """Nonzero Smith diagonal of M (units included); its length is rank M."""
    w = _Reducer(M, track_u=False, track_v=False, track_vinv=False)
    w.reduce()
    return [w.row[k][k] for k in range(w.rank)]


def cokernel(M: SparseIntMatrix) -> AbelianGroup:
    """Z^rows / (column lattice of M) in invariant-factor form."""
    facs = invariant_factors(M)
    return AbelianGroup.from_diagonal(facs, free_rank=M.rows - len(facs))


def kernel_basis(M: SparseIntMatrix) -> SparseIntMatrix:
    return smith_decomposition(M).kernel_basis()


def lattice_contains(M: SparseIntMatrix, X: SparseIntMatrix) -> bool:
    """Is every column of X in the lattice spanned by the columns of M?"""
    if M.rows != X.rows:
        raise DimensionMismatch("lattice_contains row mismatch")
    w = _Reducer(M, track_u=True, track_v=False, track_vinv=False)
    w.reduce()
    diag = [w.row[k].get(k, 0) for k in range(w.rank)]
    Z = _rows_matrix(w.U, w.m) @ X
    for (i, j), v in Z.entries.items():
        if i >= w.rank:
            return False
        if v % diag[i] != 0:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality by trial division; fine for the small moduli used here."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
