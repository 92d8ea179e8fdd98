"""Normalized Hochschild chains of a DG algebra, with the degree-raising
cyclic operator.

Chains in total degree n are spanned by words (a_0, a_1, ..., a_s) of basis
labels with a_i != 1 for i >= 1 and n = s + sum of internal degrees.  The
words form a bicomplex: the column index s is the word length, the row index
t the internal degree.  The vertical differential applies the algebra
differential to one slot, the horizontal differential multiplies adjacent
slots (wrapping the last slot around to the front).  One enumeration per
build serves every cell: cell (s, t) is read off the cells of column s - 1
(see `_word_basis`).  The full build's total differential is assembled word
by word from D(word), whose internal terms stay in cell (s, t - 1) and whose
faces land in cell (s - 1, t); one index of each word's row in its total
degree places those terms, and the terms of B and of induced maps.

Sign conventions come from the Koszul rule after shifting every slot past
the first up by one degree.  They live in two one-pass kernels,
`_word_differential` (D) and `_cyclic_differential` (B), which every build
and flow reads.  Writing m_0 = |a_0| and m_j = |a_j| + 1:

  * multiplying slots i, i+1 carries (-1)^(m_0+...+m_i),
  * the wrap-around face carries -(-1)^(m_s (m_0+...+m_{s-1})),
  * the differential on slot 0 carries +1, on slot i >= 1 it carries
    (-1)^(1+m_0+...+m_{i-1}),
  * the cyclic operator B inserts a unit in front of each rotation of the
    word, the rotation by i slots carrying the sign of the corresponding
    block transposition in the shifted degrees.

None of these is trusted: the square-zero and anticommutation identities
of the bicomplex are the blocks of D^2 = 0 that the ChainComplex
constructor of the total complex checks, and B^2 = 0 and D B + B D = 0 are
blocks of d^2 = 0 checked by the ChainComplex constructor of the cyclic
total complex, where B maps each column into the one before (cyclic module).

The word basis grows exponentially with the degree (like the Fibonacci
numbers for an exterior algebra on two generators).  Algebraic discrete
Morse theory (Skoldberg, Trans. AMS 358 (2006); Jöllenbeck-Welker, Mem.
AMS 197 (2009)) gives a complex with the same homology over Z on the
unpaired words of a matching whose paired coefficients are +-1.  The
first-slot matching pairs a word by its first slot i >= 1 that holds a
letter c = +-a*b (split it) or starts the pair (a, b) (merge it).
`first_slot_matching` reads the rule off the table and accepts it only
where a table-level check proves it an involution with +-1 coefficients
on every word; `critical_words` enumerates the unpaired words directly,
and `critical_complex` flows the differential of each through the pairs,
for the Hochschild complex or the cyclic total complex, reading the image
of every paired word a flow reaches off one memo per degree.  The checks
move to the flow: the involution and the coefficient are asserted again on
every pair a flow uses, a cycle of flows or more than MAX_FLOW_STEPS
flowed words in one degree raises, D(D(w)) = 0 ((D + B)^2 = 0 for the
cyclic total) is checked on every word w whose differential a flow reads,
and the ChainComplex constructor checks d^2 = 0 of the result.

This module computes no groups: the cyclic module reads every
algebra-level Hochschild or cyclic group off the complex its one selector
picks, `critical_complex` when `first_slot_matching` accepts the algebra,
else the full build here, which is also the only source of induced maps.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from .complexes import ChainComplex, ChainMap
from .dga import DGAlgebra, DGAMorphism
from .errors import BoundTooSmall, CompositionNonzero, MatchingFailed, TruncationTooTight
from .intlin import SparseIntMatrix

Word = Tuple[str, ...]
Cell = Hashable


class HochschildComplex:
    """All normalized Hochschild chain data of a DG algebra up to a bound.

    total degrees 0..bound+1 are built, so homology is available through
    degree `bound`.
    The word basis of every cell comes from one enumeration, `_word_basis`;
    `_at` gives each word's row in its total degree, where the cyclic
    operator and induced maps place their terms word by word.
    """

    __slots__ = ("algebra", "bound", "total", "_at")

    def __init__(self, algebra: DGAlgebra, bound: int):
        if bound < 0:
            raise BoundTooSmall(f"bound {bound} < 0")
        window = bound + 1
        words = _word_basis(algebra, window)
        # labels (s, t, word) by (s, t, position); a word fixes its cell, so
        # one index gives each word's row in its total degree
        basis: Dict[int, List[Tuple[int, int, Word]]] = {}
        at: Dict[Word, int] = {}
        for (s, t), cell in sorted(words.items()):
            blk = basis.setdefault(s + t, [])
            for w in cell:
                at[w] = len(blk)
                blk.append((s, t, w))
        diffs: Dict[int, SparseIntMatrix] = {}
        for n, labels in basis.items():
            rows: Dict[int, Dict[int, int]] = defaultdict(dict)
            for col, (_, _, w) in enumerate(labels):
                for out, k in _word_differential(algebra, w).items():
                    rows[at[out]][col] = k
            diffs[n] = SparseIntMatrix(len(basis.get(n - 1, ())), len(labels), rows)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "total", ChainComplex(basis, diffs, 0, window))
        object.__setattr__(self, "_at", at)

    def __setattr__(self, name, value):
        raise AttributeError("HochschildComplex is immutable")


def cyclic_operator(H: HochschildComplex, n: int) -> SparseIntMatrix:
    """The degree-raising operator B: C_n -> C_{n+1} of H, for n <= H.bound."""
    if n > H.bound:
        raise TruncationTooTight(f"cyclic operator at {n} needs chains in degree {n + 1}")
    at, rows = H._at, defaultdict(dict)
    for col, (_, _, word) in enumerate(H.total.labels(n)):
        for out, k in _cyclic_differential(H.algebra, word).items():
            rows[at[out]][col] = k
    return SparseIntMatrix(H.total.dim(n + 1), H.total.dim(n), rows)


def _word_basis(A: DGAlgebra, window: int) -> Dict[Tuple[int, int], List[Word]]:
    """Every nonempty cell (s, t), s + t <= window, of words (a_0, ..., a_s)
    of internal degree t with slots >= 1 unit-free, in one enumeration:
    cell (s, t) puts each non-unit a, in label order, into slot 1 of each
    word of cell (s - 1, t - |a|).  That is the order of a depth-first
    search over slots 1..s by label with slot 0 filled last, which the rows
    and columns of every matrix of the build follow.
    """
    heads: Dict[int, List[Word]] = defaultdict(list)
    for a in A.labels():
        heads[A.degree_of(a)].append((a,))
    words = {(0, t): heads[t] for t in range(window + 1) if t in heads}
    letters = [(a, A.degree_of(a)) for a in A.non_unit_labels()]
    for s in range(1, window + 1):
        for t in range(window - s + 1):
            cell = [
                w[:1] + (a,) + w[1:]
                for a, d in letters
                if d <= t
                for w in words.get((s - 1, t - d), ())
            ]
            if cell:
                words[(s, t)] = cell
    return words


def _word_differential(A: DGAlgebra, word: Word) -> Dict[Word, int]:
    """D(word): the slotwise algebra differential (same length) plus the
    faces (one slot shorter), normalized, summed word by word and without
    zeros, in one walk over the slots keeping the parity of m_0 + ... +
    m_{i-1} (the signs are in the module docstring)."""
    degree, diff, mult, unit = A.degree_of, A.diff, A.mult, A.unit
    out: Dict[Word, int] = {}
    s = len(word) - 1
    odd = 0
    for i, a in enumerate(word):
        combo = diff.get(a)
        if combo:
            sign = 1 if i == 0 or odd else -1
            head, tail = word[:i], word[i + 1 :]
            for lbl, k in combo.items():
                if i == 0 or lbl != unit:
                    w = head + (lbl,) + tail
                    out[w] = out.get(w, 0) + sign * k
        m = (degree(a) + (i > 0)) & 1
        if i < s:
            combo = mult.get((a, word[i + 1]))
            if combo:
                sign = 1 if odd == m else -1
                head, tail = word[:i], word[i + 2 :]
                for lbl, k in combo.items():
                    if i == 0 or lbl != unit:
                        w = head + (lbl,) + tail
                        out[w] = out.get(w, 0) + sign * k
        elif s:
            combo = mult.get((a, word[0]))
            if combo:
                sign = 1 if odd and m else -1
                body = word[1:s]
                for lbl, k in combo.items():
                    w = (lbl,) + body
                    out[w] = out.get(w, 0) + sign * k
        odd ^= m
    return {w: k for w, k in out.items() if k} if 0 in out.values() else out


def _cyclic_differential(A: DGAlgebra, word: Word) -> Dict[Word, int]:
    """B(word), summed word by word and without zeros: the rotation by i
    slots carries (-1)^(h (T - h)), h the shifted degree of its first i
    slots and T the word's, so -1 exactly when h is odd and T even."""
    if word[0] == A.unit:
        return {}
    degree = A.degree_of
    shifted = [(degree(a) + 1) & 1 for a in word]
    even = not sum(shifted) & 1
    out: Dict[Word, int] = {}
    unit, odd = (A.unit,), 0
    for i, m in enumerate(shifted):
        w = unit + word[i:] + word[:i]
        out[w] = out.get(w, 0) + (-1 if odd and even else 1)
        odd ^= m
    return {w: k for w, k in out.items() if k} if 0 in out.values() else out


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


def induced_map(f: DGAMorphism, src: HochschildComplex, tgt: HochschildComplex) -> ChainMap:
    """The chain map src -> tgt induced by f, for Hochschild complexes of
    f's source and target built through the same bound: the only builder
    of an induced map, which the cyclic module calls on the Hochschild
    complexes of the bundles it maps between.

    Acts word by word, expanding multilinearly and dropping the terms a
    normalized slot turns into a unit.  Compatibility with the total
    differential is verified by the ChainMap constructor; compatibility
    with the cyclic operator B is verified by `cyclic.cyclic_map`, where
    the squares with B are blocks of the cyclic chain map.  Failure
    raises NotAChainMap.
    """
    at, comps = tgt._at, {}
    for n in src.total.degrees():
        rows: Dict[int, Dict[int, int]] = defaultdict(dict)
        for col, (_, _, word) in enumerate(src.total.labels(n)):
            for out, k in _image_terms(f, word):
                row = rows[at[out]]
                row[col] = row.get(col, 0) + k
        comps[n] = SparseIntMatrix(tgt.total.dim(n), src.total.dim(n), rows)
    return ChainMap(src.total, tgt.total, comps)


# ---------------------------------------------------------------------------
# Morse reduction along the first-slot matching
# ---------------------------------------------------------------------------

MAX_FLOW_STEPS = 1_000_000


@dataclass(frozen=True)
class FirstSlotMatching:
    """Pairs of words read off a multiplication table.

    split[c] = (a, b) when a * b = +-c for non-units a, b (the first such
    pair in label order); merge is its inverse, so only that pair merges.
    A word is paired by its first slot i >= 1 that holds a split letter c
    (partner: c split into a, b, one degree up) or starts a merge pair
    (partner: the pair merged, one degree down); a word with neither is
    critical.
    """

    algebra: DGAlgebra
    split: Mapping[str, Tuple[str, str]]
    merge: Mapping[Tuple[str, str], str]

    def partner(self, word: Word) -> Optional[Tuple[Word, bool]]:
        """(partner, whether it is the longer word), or None when critical."""
        split, merge, last = self.split, self.merge, len(word) - 1
        for i in range(1, last + 1):
            a = word[i]
            pair = split.get(a)
            if pair is not None:
                return word[:i] + pair + word[i + 1 :], True
            c = merge.get((a, word[i + 1])) if i < last else None
            if c is not None:
                return word[:i] + (c,) + word[i + 2 :], False
        return None


def first_slot_matching(A: DGAlgebra) -> Optional[FirstSlotMatching]:
    """The first-slot matching of A, or None when A has nothing to match or
    its table fails the check that makes the rule an involution with +-1
    coefficients on every word.

    The check: every non-unit has positive degree, and for each split
    c -> (a, b), a is not split and no merge pair ends in a or in c.  Then
    splitting c in slot i gives a word whose first paired slot is i, where
    (a, b) merges back, and merging (a, b) gives a word whose first paired
    slot is i, holding c.  Positive degrees leave one term of the
    differential of the longer word on the shorter one, the face that
    multiplies a * b, so the coefficient is +-1.
    """
    non_unit = A.non_unit_labels()
    if not all(A.degree_of(a) > 0 for a in non_unit):
        return None
    split: Dict[str, Tuple[str, str]] = {}
    for a in non_unit:
        for b in non_unit:
            product = A.mult.get((a, b), {})
            if len(product) == 1:
                ((c, k),) = product.items()
                if abs(k) == 1:
                    split.setdefault(c, (a, b))
    merge = {pair: c for c, pair in split.items()}
    ends = {b for _, b in merge}
    if not split or any(a in split or a in ends or c in ends for c, (a, _) in split.items()):
        return None
    return FirstSlotMatching(A, split, merge)


def critical_words(M: FirstSlotMatching, top: int) -> Dict[int, List[Word]]:
    """The critical words of Hochschild degree 0..top, by degree.

    A depth-first search over the slots >= 1 that never takes a split
    letter and never completes a merge pair, so only critical words are
    ever formed."""
    A = M.algebra
    letters = [(a, A.degree_of(a) + 1) for a in A.non_unit_labels() if a not in M.split]
    heads = [(a, A.degree_of(a)) for a in A.labels()]
    words: Dict[int, List[Word]] = {n: [] for n in range(top + 1)}
    stack: List[Tuple[Word, int]] = [((), 0)]
    while stack:
        tail, shift = stack.pop()
        for a, d in heads:
            if shift + d <= top:
                words[shift + d].append((a,) + tail)
        for a, d in letters:
            if shift + d <= top and tail[-1:] + (a,) not in M.merge:
                stack.append((tail + (a,), shift + d))
    return words


def critical_complex(M: FirstSlotMatching, bound: int, cyclic: bool = False) -> ChainComplex:
    """The Morse complex of M's critical words through degree bound + 1.

    Cells are (s, word).  For the Hochschild complex s = 0 and d = D; with
    cyclic=True they are the cells of the cyclic total complex, word in
    column s and total degree 2s + (its Hochschild degree), d = D + B, B
    into column s - 1, matched inside each column.  B lowers the column,
    so a flow never returns to a column it left.  Through degree bound the
    homology is that of the full build.
    """
    if bound < 0:
        raise BoundTooSmall(f"bound {bound} < 0")
    A, top = M.algebra, bound + 1
    words = critical_words(M, top)
    cells = {
        n: [(s, w) for s in (range(n // 2 + 1) if cyclic else (0,)) for w in words[n - 2 * s]]
        for n in range(top + 1)
    }

    # D and B of the words of several columns, each computed once
    known: Dict[Word, Dict[Word, int]] = {}
    known_B: Dict[Word, Dict[Word, int]] = {}

    def terms(cell):
        s, word = cell
        D = known.get(word) if cyclic else None
        if D is None:
            D = _word_differential(A, word)
            if cyclic:
                known[word] = D
        out = {(s, w): k for w, k in D.items()}
        if s:
            B = known_B.get(word)
            if B is None:
                B = known_B[word] = _cyclic_differential(A, word)
            out.update(((s - 1, w), k) for w, k in B.items())
        return out

    def partner(cell):
        found = M.partner(cell[1])
        return None if found is None else ((cell[0], found[0]), found[1])

    return _morse_complex(cells, terms, partner, top)


def _morse_complex(
    critical: Mapping[int, Sequence[Cell]],
    terms: Callable[[Cell], Dict[Cell, int]],
    partner: Callable[[Cell], Optional[Tuple[Cell, bool]]],
    top: int,
) -> ChainComplex:
    """The Morse complex of a based complex on its critical cells, degrees
    0..top (Skoldberg, Trans. AMS 358 (2006)).

    critical[n] lists the critical cells of degree n, terms(cell) is the
    differential of a cell, and partner(cell) is (partner, up) for a
    matched cell, up when the partner sits one degree higher.  The Morse
    differential of a critical cell c is crit(d c) + sum [d c : u] phi(u)
    over the cells u of d c paired upward, where crit keeps the terms on
    critical cells and, for u paired with w and e = [d w : u],

        phi(u) = -e (crit(d w) + sum over v != u paired upward in d w
                     of [d w : v] phi(v));

    terms on cells paired downward are dropped.  Each degree memoizes phi
    of every cell a flow reaches, filled by a depth-first search, so each
    is flowed once whichever critical cells reach it.

    Checked on every cell a flow touches: the pairing is an involution;
    [d w : u] = +-1; the flows form no cycle (the search meets no cell it
    entered and has not finished) and flow at most MAX_FLOW_STEPS cells in
    one degree; a cell left unpaired is one of the critical cells;
    d(d(x)) = 0 for every cell x whose differential is read.  The
    ChainComplex constructor checks d^2 = 0 of the result.
    """
    diffs: Dict[int, SparseIntMatrix] = {}
    below: Dict[Cell, Dict[Cell, int]] = {}  # differentials of degree n - 1 cells
    for n in range(1, top + 1):
        here: Dict[Cell, Dict[Cell, int]] = {}
        index = {c: i for i, c in enumerate(critical[n - 1])}
        pairs: Dict[Cell, Optional[Tuple[Cell, bool]]] = {}
        phi: Dict[Cell, Optional[Dict[int, int]]] = {}  # None while being flowed

        def checked_terms(x):
            dx = here[x] = terms(x)
            ddx: Dict[Cell, int] = {}
            for v, k in dx.items():
                dv = below.get(v)
                if dv is None:
                    dv = below[v] = terms(v)
                for y, j in dv.items():
                    ddx[y] = ddx.get(y, 0) + k * j
            if any(ddx.values()):
                raise CompositionNonzero(f"d(d(x)) != 0 at x = {x}")
            return dx

        def pair_of(v):
            if v not in pairs:
                pairs[v] = partner(v)
                if pairs[v] is None and v not in index:
                    raise MatchingFailed(f"unpaired cell {v} is not among the critical cells")
            return pairs[v]

        def split(dx, out):
            """Add dx's terms on critical cells to out; return those paired upward."""
            up = []
            for v, k in dx.items():
                found = pair_of(v)
                if found is None:
                    r = index[v]
                    out[r] = out.get(r, 0) + k
                elif found[1]:
                    up.append((v, k))
            return up

        def enter(u):
            """The search frame of u, paired upward: (u, e, phi so far, rest)."""
            if len(phi) >= MAX_FLOW_STEPS:
                raise MatchingFailed(
                    f"the flows of degree {n} pass through more than {MAX_FLOW_STEPS} cells"
                )
            phi[u] = None
            w = pairs[u][0]
            if partner(w) != (u, False):
                raise MatchingFailed(f"the pairing is not an involution at {u}")
            dw = checked_terms(w)
            e = dw.get(u, 0)
            if abs(e) != 1:
                raise MatchingFailed(f"coefficient {e} on the pair at {u}")
            acc: Dict[int, int] = {}
            up = split(dw, acc)
            return u, e, acc, [(v, k) for v, k in up if v != u]

        def add_flows(up, out):
            """Add sum k phi(v) over up to out, flowing each new v once."""
            stack = [(None, 1, out, up)]
            while stack:
                _, _, acc, rest = stack[-1]
                while rest:
                    v, k = rest[-1]
                    image = phi.get(v)
                    if image is None:
                        if v in phi:
                            raise MatchingFailed(f"the flows through {v} form a cycle")
                        stack.append(enter(v))
                        break
                    rest.pop()
                    for r, j in image.items():
                        acc[r] = acc.get(r, 0) + k * j
                else:
                    u, e, acc, _ = stack.pop()
                    if stack:
                        phi[u] = {r: -e * j for r, j in acc.items() if j}

        rows: Dict[int, Dict[int, int]] = defaultdict(dict)
        for col, c in enumerate(critical[n]):
            out: Dict[int, int] = {}
            add_flows(split(checked_terms(c), out), out)
            for r, k in out.items():
                if k:
                    rows[r][col] = k
        diffs[n] = SparseIntMatrix(len(index), len(critical[n]), rows)
        below = here
    return ChainComplex({n: critical[n] for n in range(top + 1)}, diffs, 0, top)
