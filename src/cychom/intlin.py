"""Exact sparse integer linear algebra.

Smith normal form, cokernels, kernel bases and lattice membership over
Python's arbitrary-precision integers: no floating point, no modular
shortcut.  A matrix stores its nonempty rows as {column: value} dicts, is
built from such rows by its one constructor, and `.entries`, the
(row, column) -> value map, is a view built on request.

One elimination (`_Reducer`) serves two tiers.  `invariant_factors` runs it
without transforms: the rank and the Smith diagonal are all a homology
group or a cokernel needs.  `smith_decomposition` logs the transforms of
U*M*V = D, and every other answer is read off a decomposition: kernel
bases and kernel coordinates from V and, through
`SmithDecomposition.generators`, a cokernel on Smith-form generators (one
per invariant factor d > 1 plus the free part) from U.  One decomposition
of a homology presentation's relations serves that degree's generators and
the next degree's kernel (see complexes), and `lattice_contains` tests a
non-diagonal lattice on the same generators.
Neither U nor V is updated during the elimination: row operations and
column operations go to two logs of the same form.  Rows of U come from
replaying the row log backwards, at a cost that grows with how many are
wanted, not with the size of U; the same replay of the inverse-transposed
operations gives the matching columns of U^-1.  The column log, read as
row operations, is the log of V^T, so the same replay gives columns of V.
Kernel coordinates V^-1 X apply the inverse column operations to the rows
of X in log order, so V^-1 is never formed.

Nothing is swapped: a pivot (r, c) is recorded and, once its row and column
are clear, both leave the active part; the results are permuted once so
that the pivots come first.  As in Dumas-Heckenbach-Saunders-Welker (2003)
there are two phases.  The unit phase takes +-1 pivots from a heap keyed by
the Markowitz cost (row nnz - 1) * (column nnz - 1), ties by (row, column),
re-keying stale entries when popped; a unit's row is dropped once its
column is clear, since the column operations that clear it change nothing
else.  The core phase pivots on an active entry of least absolute value,
with nearest-integer quotients, so that remainders are centered and
transforms stay small.  Each row keeps its least |entry|, refreshed only on
the rows a pivot step touched since the last search, so a search reads one
number per active row.  The active rows are kept in ascending order, and a
row leaves them when it retires or empties, so no search rebuilds that
list; ties go, as in a full scan, to the first row in ascending order and
the first entry in its dict order.  The pivots are
then sorted by absolute value, and pairs that break the divisibility chain
become gcd and lcm.  The reducer copies the rows in ascending order, each
sorted by column, so the transforms depend on the matrix only, not on the
order its rows and entries were built in.

Clearing (the "twist" of Chen-Kerber 2011, as in Bauer's Ripser): for
d_n d_{n+1} = 0, the rows of the unit pivots that reducing d_{n+1} retires
before its first core step may be left out of d_n as columns.  Up to that
step every row operation adds a multiple of the row of the unit pivot being
cleared, so U^-1 differs from the identity only in those columns, and so
does d_n U^-1 from d_n.  Column c of U d_{n+1} V is then +-e_r for each such
pivot (r, c), so d_n d_{n+1} = 0 makes column r of d_n U^-1 zero, and d_n
has the invariant factors of d_n without those columns.  A core step can
leave a remainder and use a row as a source that never becomes a pivot,
so the rule stops there: on the cone of Z/19^3 -> Z/19^2, leaving out
every pivot row gives rank 18 instead of 19 in degree 37.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CompositionNonzero, DimensionMismatch, InvalidModulus


Rows = Dict[int, Dict[int, int]]


class SparseIntMatrix:
    """Immutable sparse integer matrix, stored by rows: `by_row` maps each
    nonempty row index to that row's {col: nonzero value}.

    `SparseIntMatrix(rows, cols, by_row)` is the one constructor: it drops
    zeros and empty rows, checks the shape and every index once, and takes
    the row dicts over, so they must not change afterwards."""

    __slots__ = ("rows", "cols", "by_row")

    def __init__(self, rows: int, cols: int, by_row: Optional[Rows] = None):
        if rows < 0 or cols < 0:
            raise DimensionMismatch(f"negative shape ({rows}, {cols})")
        by_row = by_row or {}
        if 0 in chain.from_iterable(map(dict.values, by_row.values())):
            by_row = {i: {j: v for j, v in row.items() if v} for i, row in by_row.items()}
        if not all(by_row.values()):
            by_row = {i: row for i, row in by_row.items() if row}
        if by_row:
            used = set().union(*by_row.values())
            if min(by_row) < 0 or max(by_row) >= rows or min(used) < 0 or max(used) >= cols:
                raise DimensionMismatch(f"an index lies outside shape ({rows}, {cols})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "by_row", dict(by_row))

    def __setattr__(self, name, value):
        raise AttributeError("SparseIntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(rows: int, cols: int) -> "SparseIntMatrix":
        """The zero matrix of a shape: one shared instance per shape."""
        return SparseIntMatrix(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]], cols: Optional[int] = None) -> "SparseIntMatrix":
        rows = len(dense)
        if cols is None:
            cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise DimensionMismatch("ragged dense matrix")
        return cls(rows, cols, {i: dict(enumerate(row)) for i, row in enumerate(dense)})

    # -- basic queries -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def entries(self) -> Dict[Tuple[int, int], int]:
        """(row, col) -> nonzero value, built anew on each access."""
        return {(i, j): v for i, row in self.by_row.items() for j, v in row.items()}

    def __getitem__(self, key: Tuple[int, int]) -> int:
        return self.by_row.get(key[0], {}).get(key[1], 0)

    def __eq__(self, other) -> bool:
        same_shape = isinstance(other, SparseIntMatrix) and self.shape == other.shape
        return same_shape and self.by_row == other.by_row

    def __hash__(self):
        rows = frozenset((i, frozenset(row.items())) for i, row in self.by_row.items())
        return hash((self.rows, self.cols, rows))

    def __repr__(self):
        nnz = sum(map(len, self.by_row.values()))
        return f"SparseIntMatrix({self.rows}x{self.cols}, {nnz} nonzero)"

    def is_zero(self) -> bool:
        return not self.by_row

    def is_diagonal(self) -> bool:
        return all(len(row) == 1 and i in row for i, row in self.by_row.items())

    def diagonal_entries(self) -> List[int]:
        return [self[k, k] for k in range(min(self.rows, self.cols))]

    def column(self, j: int) -> Dict[int, int]:
        return {i: row[j] for i, row in self.by_row.items() if j in row}

    def columns(self) -> List[Dict[int, int]]:
        cols: List[Dict[int, int]] = [dict() for _ in range(self.cols)]
        for i, row in self.by_row.items():
            for j, v in row.items():
                cols[j][i] = v
        return cols

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} + {other.shape}")
        out = {i: dict(row) for i, row in self.by_row.items()}
        for i, row in other.by_row.items():
            mine = out.setdefault(i, {})
            for j, v in row.items():
                mine[j] = mine.get(j, 0) + v
        return SparseIntMatrix(self.rows, self.cols, out)

    def __neg__(self) -> "SparseIntMatrix":
        return self.scale(-1)

    def __sub__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "SparseIntMatrix":
        rows = {i: {j: c * v for j, v in row.items()} for i, row in self.by_row.items()}
        return SparseIntMatrix(self.rows, self.cols, rows)

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        other_rows = other.by_row
        out: Rows = {}
        for i, row in self.by_row.items():
            acc: Dict[int, int] = {}
            for k, a in row.items():
                orow = other_rows.get(k)
                if orow:
                    for j, b in orow.items():
                        acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                out[i] = acc
        return SparseIntMatrix(self.rows, other.cols, out)

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix(self.cols, self.rows, dict(enumerate(self.columns())))

    def hstack(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        out = dict(self.by_row)
        for i, row in other.by_row.items():
            out[i] = {**out.get(i, {}), **{j + self.cols: v for j, v in row.items()}}
        return SparseIntMatrix(self.rows, self.cols + other.cols, out)


def kron(A: SparseIntMatrix, B: SparseIntMatrix) -> SparseIntMatrix:
    """Kronecker product; row (i, j) -> i * B.rows + j, same for columns."""
    rows: Rows = {}
    for i, ra in A.by_row.items():
        for j, rb in B.by_row.items():
            row = rows[i * B.rows + j] = {}
            for k, a in ra.items():
                for l, b in rb.items():
                    row[k * B.cols + l] = a * b
    return SparseIntMatrix(A.rows * B.rows, A.cols * B.cols, rows)


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
        return cls.from_diagonal([m])

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
        """The p-primary component (free part discarded); p must be prime."""
        if not is_prime(p):
            raise InvalidModulus(f"{p} is not a prime")
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


def _nearest(a: int, p: int) -> int:
    """The integer nearest a / p, so that a - q*p is a centered remainder."""
    q, r = divmod(a, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _add_into(dst: Dict[int, int], src: Dict[int, int], c: int):
    """dst += c * src for sparse vectors."""
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def _mix(vecs: List[Dict[int, int]], x: int, y: int, a: int, b: int, c: int, d: int):
    """vecs[x], vecs[y] <- a*vecs[x] + b*vecs[y], c*vecs[x] + d*vecs[y]."""
    vx, vy = vecs[x], vecs[y]
    nx: Dict[int, int] = {}
    ny: Dict[int, int] = {}
    for k in sorted(vx.keys() | vy.keys()):
        u, v = vx.get(k, 0), vy.get(k, 0)
        if a * u + b * v:
            nx[k] = a * u + b * v
        if c * u + d * v:
            ny[k] = c * u + d * v
    vecs[x], vecs[y] = nx, ny


class _Reducer:
    """Mutable worker for the elimination described in the module docstring.

    The current matrix is row-major (`rows`) with a column index (`colnz`).
    A retired pivot (r, c) leaves row r as {c: d} and column c as {r: d}.
    With `logged`, U is the product of the row operations in `ops` and V^T
    that of the column operations in `col_ops`, each in log order.
    """

    def __init__(self, M: SparseIntMatrix, logged: bool, skip_columns: Iterable[int] = ()):
        self.m = M.rows
        self.n = M.cols
        rows: List[Dict[int, int]] = [dict() for _ in range(self.m)]
        colnz: List[set] = [set() for _ in range(self.n)]
        skip = set(skip_columns)
        for i, row in sorted(M.by_row.items()):  # ascending rows, each by column
            for j in sorted(row):
                if j not in skip:
                    rows[i][j] = row[j]
                    colnz[j].add(i)
        self.rows, self.colnz = rows, colnz
        # (a, b, c): row a += c * row b; (x, y, a, b, c, d): rows x, y <-
        # a*x + b*y, c*x + d*y (determinant 1); (r,): row r <- -row r.
        # col_ops holds the same tuples for columns, without sign changes
        self.ops: Optional[List[tuple]] = [] if logged else None
        self.col_ops: Optional[List[tuple]] = [] if logged else None
        # the active nonempty rows, ascending: a dict as an ordered set, from
        # which a row is dropped when it retires or empties (an empty active
        # row stays empty, and a retired row never returns)
        self.live = dict.fromkeys(i for i, row in enumerate(rows) if row)
        # each row's least |entry|, stale on the rows in `touched` (None: all)
        self.least, self.touched = [0] * self.m, None
        self.pivots: List[Tuple[int, int]] = []
        # rows of the pivots that retired before the first core step
        self.cleared: Optional[List[int]] = None
        self.heap = [
            ((len(row) - 1) * (len(self.colnz[j]) - 1), i, j)
            for i, row in enumerate(self.rows)
            for j, v in row.items()
            if v == 1 or v == -1
        ]
        heapq.heapify(self.heap)

    # -- the reduction ------------------------------------------------------

    def add_row(self, a: int, b: int, c: int):
        """row a += c * row b; new unit entries join the pivot heap."""
        ra = self.rows[a]
        for j, v in self.rows[b].items():
            w = ra.get(j, 0) + c * v
            if w:
                if j not in ra:
                    self.colnz[j].add(a)
                ra[j] = w
                if w == 1 or w == -1:
                    heapq.heappush(self.heap, (0, a, j))
            else:
                del ra[j]
                self.colnz[j].discard(a)
        if not ra:
            self.live.pop(a, None)
        if self.ops is not None:
            self.ops.append((a, b, c))

    def _unit_pivot(self) -> Optional[Tuple[int, int]]:
        """The active ±1 entry of least Markowitz cost, re-keying stale ones."""
        heap = self.heap
        while heap:
            cost, i, j = heapq.heappop(heap)
            row = self.rows[i]
            if i not in self.live or row.get(j) not in (1, -1):
                continue
            now = (len(row) - 1) * (len(self.colnz[j]) - 1)
            if now > cost:
                heapq.heappush(heap, (now, i, j))
                continue
            return i, j
        return None

    def _least_pivot(self) -> Optional[Tuple[int, int]]:
        """An active entry of least absolute value, first in `live` and row order."""
        rows, least = self.rows, self.least
        for i in self.live if self.touched is None else self.touched:
            a = 0  # a loop: min() costs more on rows of a few entries
            for v in rows[i].values():
                if not a or abs(v) < a:
                    a = abs(v)
            least[i] = a
        self.touched = set()
        if not self.live:
            return None
        i = min(self.live, key=least.__getitem__)
        for j, v in rows[i].items():
            if abs(v) == least[i]:
                return i, j

    def _eliminate(self, r: int, c: int):
        """Clear column c, then row r, with centered remainders.

        The pivot (r, c) retires once both are clear; a nonzero remainder
        is smaller than the pivot and leads the next pivot search.
        """
        row = self.rows[r]
        p = row[c]
        if self.touched is not None:
            self.touched.update(self.colnz[c])  # the rows this step may change
        for i in list(self.colnz[c]):
            if i != r:
                self.add_row(i, r, -_nearest(self.rows[i][c], p))
        if len(self.colnz[c]) > 1:
            return
        # column c is zero off row r, so the column operation col j += q * col c
        # changes row r alone; it is logged as (j, c, q)
        log = self.col_ops
        if p == 1 or p == -1:
            for j, v in row.items():
                if j != c:
                    self.colnz[j].discard(r)
                    if log is not None:
                        log.append((j, c, -v * p))
            self.rows[r] = {c: p}
        else:
            rest = self.rows[r] = {}
            for j, v in row.items():
                q = 0 if j == c else _nearest(v, p)
                if q and log is not None:
                    log.append((j, c, -q))
                if v - q * p:
                    rest[j] = v - q * p
                else:
                    self.colnz[j].discard(r)
            if len(rest) > 1:
                return
        del self.live[r]
        self.pivots.append((r, c))

    def reduce(self):
        while True:
            pos = self._unit_pivot()
            if pos is None:
                if self.cleared is None:
                    self.cleared = [r for r, _ in self.pivots]
                pos = self._least_pivot()
                if pos is None:
                    break
            self._eliminate(*pos)
        self.rank = len(self.pivots)
        # units first; a chain of powers of one prime is then in order
        self.pivots.sort(key=lambda rc: abs(self.rows[rc[0]][rc[1]]))
        d = self.diag = [self.rows[r][c] for r, c in self.pivots]
        if any(b % a for a, b in zip(d, d[1:])):
            for x in range(self.rank):
                for y in range(x + 1, self.rank):
                    if d[y] % d[x]:
                        self._gcd_lcm(x, y)
        for k, (r, _) in enumerate(self.pivots):
            if d[k] < 0:
                d[k] = -d[k]
                if self.ops is not None:
                    self.ops.append((r,))
        # pivot rows (columns) first, in pivot order, then the rest
        self.row_order = [r for r, _ in self.pivots]
        self.row_order += sorted(set(range(self.m)) - set(self.row_order))
        self.col_order = [c for _, c in self.pivots]
        self.col_order += sorted(set(range(self.n)) - set(self.col_order))

    def _gcd_lcm(self, x: int, y: int):
        """Turn diagonal entries a, b into gcd(a, b), lcm(a, b) by a 2x2 step."""
        (r1, c1), (r2, c2) = self.pivots[x], self.pivots[y]
        a, b = self.diag[x], self.diag[y]
        g, s, t = _xgcd(a, b)
        self.diag[x], self.diag[y] = g, a // g * b
        if self.ops is not None:
            self.ops.append((r1, r2, s, t, -(b // g), a // g))
            self.col_ops.append((c1, c2, 1, 1, -t * (b // g), s * (a // g)))


# U from the logged row operations G_1, ..., G_N of a reduction: U = G_N ... G_1.
# V from the logged column operations E_1, ..., E_N: V = E_1 ... E_N, so
# V^T = E_N^T ... E_1^T, and E_k^T is the row operation with E_k's tuple.


def _u_rows(ops: Iterable[tuple], kept: Sequence[int]) -> Rows:
    """Rows kept[t] of the m x m matrix U = G_N ... G_1, as P with
    P[j][t] = U[kept[t], j]; `ops` lists G_N, ..., G_1 (the log backwards).

    Row r of U is e_r G_N ... G_1, so it starts from e_r and runs the log
    backwards, at a cost per operation that grows with len(kept), not with
    m.  On a column log, U is V^T and P[j][t] = V[j, kept[t]].
    """
    P = defaultdict(dict, {r: {t: 1} for t, r in enumerate(kept)})
    for op in ops:
        if len(op) == 3:
            # G = I + c E_ab: P G adds c * column a to column b
            a, b, c = op
            _add_into(P[b], P[a], c)
        elif len(op) == 6:
            x, y, a, b, c, d = op
            _mix(P, x, y, a, c, b, d)
        else:
            (r,) = op
            P[r] = {t: -v for t, v in P[r].items()}
    return P


def _inverse_transposed(op: tuple) -> tuple:
    """The logged form of (G^-1)^T for the logged operation G."""
    if len(op) == 6:
        x, y, a, b, c, d = op
        return (x, y, d, -c, -b, a)
    return (op[1], op[0], -op[2]) if len(op) == 3 else op


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = D with U, V unimodular and D a Smith diagonal.

    U and V are formed from the logged operations when first read.  A
    kernel basis replays only the columns of V past the rank, and kernel
    coordinates apply the inverse column operations to their argument.
    """

    matrix: SparseIntMatrix
    d: SparseIntMatrix
    rank: int
    _row_ops: List[tuple] = field(repr=False, compare=False)
    _row_order: List[int] = field(repr=False, compare=False)
    _col_ops: List[tuple] = field(repr=False, compare=False)
    _col_order: List[int] = field(repr=False, compare=False)

    @cached_property
    def u(self) -> SparseIntMatrix:
        m = self.matrix.rows
        U = _u_rows(reversed(self._row_ops), self._row_order)
        return SparseIntMatrix(m, m, U).transpose()

    @cached_property
    def v(self) -> SparseIntMatrix:
        return self._v_columns(self._col_order)

    def _v_columns(self, kept: Sequence[int]) -> SparseIntMatrix:
        """The columns kept[t] of V, replayed from the column log."""
        V = _u_rows(reversed(self._col_ops), kept)
        return SparseIntMatrix(self.matrix.cols, len(kept), V)

    @property
    def diagonal(self) -> List[int]:
        return self.d.diagonal_entries()

    def generators(self) -> Tuple[List[int], SparseIntMatrix, SparseIntMatrix]:
        """Smith-form generators of the cokernel Z^k / (column lattice of M),
        k = M.rows, for the decomposed matrix M.

        Returns (d, P, Q): the cokernel is the sum of Z/d_j over s generators,
        the invariant factors d_j > 1 in divisibility order, then d_j = 0 for
        each free generator.  P (s x k) maps coordinates to generator
        coordinates, and the columns of Q (k x s) are the generators: row j of
        P Q - I is divisible by d_j (zero for a free generator).

        The coordinates y = U x see the relations D: a row of U at a unit
        factor is zero in the cokernel and is left out, and a row past the
        rank is a free generator.  Only the kept rows of U and the matching
        columns of U^-1 are built, from the row log.  Columns of U^-1 grow
        along the elimination's remainder sequences; when the cokernel is
        finite, its exponent kills every coordinate vector, so Q is reduced
        modulo it.
        """
        order = self._row_order
        kept = [(r, d) for r, d in zip(order, self.diagonal[: self.rank]) if d != 1]
        kept += [(r, 0) for r in order[self.rank :]]
        factors = [d for _, d in kept]
        rows = [r for r, _ in kept]
        P = _u_rows(reversed(self._row_ops), rows)
        Q = _u_rows(map(_inverse_transposed, reversed(self._row_ops)), rows)
        if factors and factors[-1]:
            e = factors[-1]
            for i, row in Q.items():
                Q[i] = {t: v - e * _nearest(v, e) for t, v in row.items() if v % e}
        m, s = self.matrix.rows, len(factors)
        P_T = SparseIntMatrix(m, s, P)
        return factors, P_T.transpose(), SparseIntMatrix(m, s, Q)

    def kernel_basis(self) -> SparseIntMatrix:
        """Columns form a basis of the (saturated) integer kernel lattice."""
        return self._v_columns(self._col_order[self.rank :])

    def kernel_coords(self, X: SparseIntMatrix) -> SparseIntMatrix:
        """Coordinates of the columns of X in the kernel basis.

        Every column of X must lie in the kernel of the decomposed matrix.
        """
        if X.rows != self.matrix.cols:
            raise DimensionMismatch(f"kernel_coords: {X.rows} rows, {self.matrix.cols} columns")
        # V^-1 X = E_N^-1 ... E_1^-1 X: the inverses act on X's rows in log order
        rows = defaultdict(dict, {i: dict(row) for i, row in X.by_row.items()})
        for op in self._col_ops:
            if len(op) == 3:
                # E = I + c E_ba: E^-1 X subtracts c * row a from row b
                a, b, c = op
                if rows[a]:
                    _add_into(rows[b], rows[a], -c)
            else:
                x, y, a, b, c, d = op
                _mix(rows, x, y, d, -c, -b, a)
        if any(rows[j] for j in self._col_order[: self.rank]):
            raise CompositionNonzero("column not in the kernel")
        rest = self._col_order[self.rank :]
        coords = {t: rows[j] for t, j in enumerate(rest)}
        return SparseIntMatrix(len(rest), X.cols, coords)


def smith_decomposition(M: SparseIntMatrix) -> SmithDecomposition:
    w = _Reducer(M, logged=True)
    w.reduce()
    return SmithDecomposition(
        matrix=M,
        d=SparseIntMatrix(w.m, w.n, {k: {k: v} for k, v in enumerate(w.diag)}),
        rank=w.rank,
        _row_ops=w.ops,
        _row_order=w.row_order,
        _col_ops=w.col_ops,
        _col_order=w.col_order,
    )


def invariant_factors(
    M: SparseIntMatrix,
    skip_columns: Iterable[int] = (),
    cleared: Optional[List[int]] = None,
) -> List[int]:
    """Nonzero Smith diagonal of M (units included); its length is rank M.

    The columns in `skip_columns` are left out of the reduction.  A list
    passed as `cleared` receives the rows that may be skipped in the next
    differential down (see the clearing rule in the module docstring).
    """
    w = _Reducer(M, logged=False, skip_columns=skip_columns)
    w.reduce()
    if cleared is not None:
        cleared.extend(w.cleared)
    return w.diag


def cokernel(M: SparseIntMatrix) -> AbelianGroup:
    """Z^rows / (column lattice of M) in invariant-factor form."""
    facs = invariant_factors(M)
    return AbelianGroup.from_diagonal(facs, free_rank=M.rows - len(facs))


def lattice_contains(M: SparseIntMatrix, X: SparseIntMatrix) -> bool:
    """Is every column of X in the lattice spanned by the columns of M?

    It is when X's coordinates on the Smith-form generators of the cokernel
    of M vanish; against a diagonal M this is a divisibility test, row by
    row.
    """
    if M.rows != X.rows:
        raise DimensionMismatch("lattice_contains row mismatch")
    if M.is_diagonal():
        factors, Y = [M[i, i] for i in range(M.rows)], X
    else:
        factors, P, _ = smith_decomposition(M).generators()
        Y = P @ X
    return all(factors[i] and v % factors[i] == 0 for i, r in Y.by_row.items() for v in r.values())


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
