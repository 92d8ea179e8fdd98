"""Normalized Hochschild chains of a DG algebra, with the degree-raising
cyclic operator.

Chains in total degree n are spanned by words (a_0, a_1, ..., a_s) of basis
labels with a_i != 1 for i >= 1 and n = s + sum of internal degrees.  The
words form a bicomplex: the column index s is the word length, the row index
t the internal degree.  The vertical differential applies the algebra
differential to one slot, the horizontal differential multiplies adjacent
slots (wrapping the last slot around to the front).

Sign conventions come from the Koszul rule after shifting every slot past
the first up by one degree; writing m_0 = |a_0| and m_j = |a_j| + 1:

  * multiplying slots i, i+1 carries (-1)^(m_0+...+m_i),
  * the wrap-around face carries -(-1)^(m_s (m_0+...+m_{s-1})),
  * the differential on slot 0 carries +1, on slot i >= 1 it carries
    (-1)^(1+m_0+...+m_{i-1}),
  * the cyclic operator B inserts a unit in front of each rotation of the
    word, the rotation by i slots carrying the sign of the corresponding
    block transposition in the shifted degrees.

None of these is trusted: the square-zero and anticommutation identities
of the bicomplex are checked as D^2 = 0 by the ChainComplex constructor of
its total complex, and check_identities verifies B^2 = 0 and D B + B D = 0
as matrix equations.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from .complexes import Bicomplex, ChainMap, homology, total_complex, total_map
from .dga import DGAlgebra, DGAMorphism
from .errors import BoundTooSmall, TruncationTooTight
from .intlin import AbelianGroup, SparseIntMatrix

Word = Tuple[str, ...]


def _slot_prefix(A: DGAlgebra, word: Word) -> List[int]:
    """prefix[i] = m_0 + ... + m_{i-1} for i = 0, ..., s + 1."""
    degree = A.degree_of
    shifted = [degree(word[0])] + [degree(a) + 1 for a in word[1:]]
    return list(accumulate(shifted, initial=0))


class HochschildComplex:
    """All normalized Hochschild chain data of a DG algebra up to a bound.

    total degrees 0..bound+1 are built, so homology is available through
    degree `bound` and the cyclic operator through source degree `bound`.
    """

    __slots__ = ("algebra", "bound", "total", "_words", "_B")

    def __init__(self, algebra: DGAlgebra, bound: int):
        if bound < 0:
            raise BoundTooSmall(f"bound {bound} < 0")
        window = bound + 1
        words: Dict[Tuple[int, int], List[Word]] = {}
        for s in range(window + 1):
            for t in range(window - s + 1):
                cell = list(_cell_words(algebra, s, t))
                if cell:
                    words[(s, t)] = cell
        vertical: Dict[Tuple[int, int], SparseIntMatrix] = {}
        horizontal: Dict[Tuple[int, int], SparseIntMatrix] = {}
        for (s, t), cell in words.items():
            vertical[(s, t)] = _matrix_of(
                algebra, words.get((s, t - 1), []), cell, _internal_terms
            )
            horizontal[(s, t)] = _matrix_of(
                algebra, words.get((s - 1, t), []), cell, _face_terms
            )
        # the total complex copies the cells; only the word basis is kept
        tot = total_complex(Bicomplex(words, vertical, horizontal), 0, window)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "total", tot)
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_B", {})

    def __setattr__(self, name, value):
        raise AttributeError("HochschildComplex is immutable")

    def words(self, s: int, t: int) -> Tuple[Word, ...]:
        return tuple(self._words.get((s, t), ()))

    def dim(self, n: int) -> int:
        return self.total.dim(n)

    def differential(self, n: int) -> SparseIntMatrix:
        """The total (Hochschild) differential C_n -> C_{n-1}."""
        return self.total.diff(n)

    def cyclic_operator(self, n: int) -> SparseIntMatrix:
        """The degree-raising operator B: C_n -> C_{n+1}."""
        if n + 1 > self.bound + 1:
            raise TruncationTooTight(
                f"cyclic operator at {n} needs chains in degree {n + 1}"
            )
        if n not in self._B:
            self._B[n] = self._build_B(n)
        return self._B[n]

    def _build_B(self, n: int) -> SparseIntMatrix:
        A = self.algebra
        src = self.total.labels(n)
        tgt_pos = {lbl: i for i, lbl in enumerate(self.total.labels(n + 1))}
        rows = defaultdict(dict)
        for col, (s, t, word) in enumerate(src):
            if word[0] == A.unit:
                continue
            heads = list(accumulate((A.degree_of(a) + 1 for a in word), initial=0))
            total_shift = heads[-1]
            for i in range(s + 1):
                head = heads[i]
                sign = -1 if (head * (total_shift - head)) % 2 else 1
                out = (A.unit,) + word[i:] + word[:i]
                row = rows[tgt_pos[(s + 1, t, out)]]
                row[col] = row.get(col, 0) + sign
        return SparseIntMatrix.from_rows(self.total.dim(n + 1), self.total.dim(n), rows)

    def check_identities(self, up_to: int = None) -> Dict[str, bool]:
        """Matrix checks D^2 = 0, B^2 = 0, D B + B D = 0 through degree up_to."""
        hi = self.bound if up_to is None else min(up_to, self.bound)
        ok_d2 = all(
            (self.differential(n) @ self.differential(n + 1)).is_zero()
            for n in range(1, hi + 1)
        )
        ok_b2 = all(
            (self.cyclic_operator(n + 1) @ self.cyclic_operator(n)).is_zero()
            for n in range(hi)
        )
        ok_mixed = all(
            (
                self.differential(n + 1) @ self.cyclic_operator(n)
                + self.cyclic_operator(n - 1) @ self.differential(n)
            ).is_zero()
            for n in range(1, hi + 1)
        )
        return {"D2": ok_d2, "B2": ok_b2, "DB_plus_BD": ok_mixed}

    def homology(self, i: int) -> AbelianGroup:
        if i > self.bound:
            raise TruncationTooTight(f"homology at {i} beyond bound {self.bound}")
        return homology(self.total, i)


def _cell_words(A: DGAlgebra, s: int, t: int):
    """Words (a_0, ..., a_s) with internal degree t, slots >= 1 unit-free."""
    non_unit = A.non_unit_labels()

    def tails(k: int, remaining: int):
        if k == 0:
            yield ((), remaining)
            return
        for a in non_unit:
            d = A.degree_of(a)
            if d <= remaining:
                for (rest, left) in tails(k - 1, remaining - d):
                    yield ((a,) + rest, left)

    for (tail, left) in tails(s, t):
        for a0 in A.labels():
            if A.degree_of(a0) == left:
                yield (a0,) + tail


def _internal_terms(A: DGAlgebra, word: Word):
    """Terms of the slotwise algebra differential, normalized."""
    s = len(word) - 1
    prefix = _slot_prefix(A, word)
    for i in range(s + 1):
        combo = A.diff.get(word[i])
        if not combo:
            continue
        if i == 0:
            sign = 1
        else:
            sign = -1 if (1 + prefix[i]) % 2 else 1
        for lbl, coeff in combo.items():
            if i >= 1 and lbl == A.unit:
                continue
            yield (word[:i] + (lbl,) + word[i + 1 :], sign * coeff)


def _face_terms(A: DGAlgebra, word: Word):
    """Terms of the multiplication (face) differential, normalized."""
    s = len(word) - 1
    if s == 0:
        return
    prefix = _slot_prefix(A, word)
    for i in range(s):
        sign = -1 if prefix[i + 1] % 2 else 1
        combo = A.mult.get((word[i], word[i + 1]))
        if not combo:
            continue
        for lbl, coeff in combo.items():
            if i >= 1 and lbl == A.unit:
                continue
            yield (word[:i] + (lbl,) + word[i + 2 :], sign * coeff)
    wrap = (prefix[s + 1] - prefix[s]) * prefix[s]
    sign = 1 if wrap % 2 else -1
    combo = A.mult.get((word[s], word[0]))
    if combo:
        for lbl, coeff in combo.items():
            yield ((lbl,) + word[1:s], sign * coeff)


def _image_terms(f: DGAMorphism, word: Word):
    """Terms of f applied slot by slot, dropping units in slots >= 1."""
    unit = f.target.unit
    expanded: List[Tuple[Word, int]] = [((), 1)]
    for slot, a in enumerate(word):
        combo = f.apply({a: 1})
        expanded = [
            (w + (lbl,), c * coeff)
            for (w, c) in expanded
            for lbl, coeff in combo.items()
            if not (slot >= 1 and lbl == unit)
        ]
    return expanded


def _matrix_of(A, target: Sequence[Word], source: Sequence[Word], terms):
    """The matrix of terms(A, word) from the source words to the target words."""
    pos = {w: i for i, w in enumerate(target)}
    rows = defaultdict(dict)
    for col, w in enumerate(source):
        for out, coeff in terms(A, w):
            i = pos.get(out)
            if i is None:
                # normalized away or outside the cell (cannot happen for
                # degree reasons once the word survives normalization)
                raise AssertionError(f"word {out} missing from target cell")
            row = rows[i]
            row[col] = row.get(col, 0) + coeff
    return SparseIntMatrix.from_rows(len(target), len(source), rows)


def hochschild_complex(A: DGAlgebra, bound: int) -> HochschildComplex:
    return HochschildComplex(A, bound)


def hh(A: DGAlgebra, i: int, bound: int = None) -> AbelianGroup:
    """Hochschild homology HH_i(A) over Z in degree i."""
    if bound is None:
        bound = i
    return hochschild_complex(A, bound).homology(i)


def connes_B(H: HochschildComplex, n: int) -> SparseIntMatrix:
    """The degree-raising cyclic operator of H in degree n."""
    return H.cyclic_operator(n)


def induced_map(
    f: DGAMorphism, bound: int
) -> Tuple[HochschildComplex, HochschildComplex, ChainMap]:
    """The chain map of Hochschild complexes induced by an algebra map.

    Acts word by word, expanding multilinearly and dropping the terms a
    normalized slot turns into a unit.  Compatibility with the total
    differential is verified by the ChainMap constructor; compatibility
    with the cyclic operator B is verified by `cyclic.induced_cyclic_map`,
    where the squares with B are blocks of the cyclic chain map.  Failure
    raises NotAChainMap.
    """
    src = hochschild_complex(f.source, bound)
    tgt = hochschild_complex(f.target, bound)
    cells = {
        st: _matrix_of(f, tgt._words.get(st, ()), words, _image_terms)
        for st, words in src._words.items()
    }
    return src, tgt, total_map(src.total, tgt.total, cells)
