"""Independent reference implementations used to cross-check the package.

Nothing here imports cychom's reduction code: the Smith form below is a
plain dense Gaussian-style elimination, determinants use the Bareiss
fraction-free scheme, and determinantal divisors come straight from gcds
of minors.  Slow, simple, and written separately on purpose.  The
exceptions are the three references near the end, which keep the package's
earlier graded comparison, earlier exactness check and earlier per-degree
homology presentation on the package's own reductions, the earlier
full-scan core pivot search, which reads the state of the package's
reducer, the earlier cyclic total layout, which builds the package's
Bicomplex and total complex, the filtered constructions the package does
not need (generator maps, the rotation, the associated graded ring, the
rotation fixed points), which build the package's rings and tensor levels,
the earlier Morse flow sweep, which builds the package's ChainComplex, the
Z[x]/(x^n) and Z[x]/(f) builders, which return the package's DGAlgebra,
and the small builders at the end (two-term and unit complexes, a matrix
from its (row, col) entries, a column of a matrix, a DG algebra's own chain
complex, the DG algebra Z, the composite of two DG algebra maps, the
identity maps of a complex and of a DG algebra), which return or read the
package's types.
"""

from dataclasses import dataclass
from math import gcd


def dense_smith_diagonal(rows):
    """Invariant factors (nonneg, divisibility chain) of a dense int matrix."""
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    diag = []
    top = 0
    while top < min(m, n):
        # pick the smallest nonzero entry in the remaining block
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(M[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        M[top], M[pi] = M[pi], M[top]
        for row in M:
            row[top], row[pj] = row[pj], row[top]
        p = M[top][top]
        done = True
        for i in range(top + 1, m):
            q = M[i][top] // p
            if q:
                for j in range(top, n):
                    M[i][j] -= q * M[top][j]
            if M[i][top]:
                done = False
        for j in range(top + 1, n):
            q = M[top][j] // p
            if q:
                for i in range(top, m):
                    M[i][j] -= q * M[i][top]
            if M[top][j]:
                done = False
        if not done:
            continue
        # the pivot must divide the rest of the block; if not, fold the
        # offending row in and restart this pivot
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if M[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, n):
                M[top][j] += M[bad][j]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def determinant(rows):
    """Exact integer determinant (Bareiss)."""
    M = [list(r) for r in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def determinantal_divisors(rows, up_to=None):
    """gcd of all k x k minors for k = 1..up_to (0 entries meaning no minor)."""
    from itertools import combinations

    m = len(rows)
    n = len(rows[0]) if m else 0
    limit = min(m, n) if up_to is None else min(up_to, m, n)
    out = []
    for k in range(1, limit + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                minor = determinant([[rows[i][j] for j in cs] for i in rs])
                g = gcd(g, minor)
        out.append(g)
    return out


def invariant_factors_via_divisors(rows):
    """Smith diagonal from determinantal divisors: d_k / d_{k-1}."""
    divisors = determinantal_divisors(rows)
    facs = []
    prev = 1
    for d in divisors:
        if d == 0:
            break
        facs.append(d // prev)
        prev = d
    return facs


def quotient_invariants(num_generators, relation_columns):
    """Invariants of Z^n modulo the given relation columns (dense lists)."""
    if num_generators == 0:
        return 0, []
    if not relation_columns:
        return num_generators, []
    rows = [
        [col[i] for col in relation_columns] for i in range(num_generators)
    ]
    diag = dense_smith_diagonal(rows)
    facs = [d for d in diag if d > 1]
    free = num_generators - len(diag)
    return free, facs


def koszul_hc_relations(m, i):
    """Relation columns presenting HC_{2i}(Z/m) on generators e_0..e_i.

    The normalized mixed complex of the Koszul model Lambda(e), de = m, has
    basis y^[k] (degree 2k) and e*y^[k] (degree 2k + 1), with
    b(e*y^[k]) = m*y^[k] and B(e*y^[k]) = (k+1)*y^[k+1].  In total degree 2i
    of Connes' bicomplex every chain e_s = y^[i-s] (column s) is a cycle, and
    e*y^[i-s] in column s bounds m*e_s + (i-s+1)*e_{s-1}.  So HC_{2i}(Z/m)
    is Z^{i+1} modulo the bidiagonal matrix with m on the diagonal and
    i, i-1, ..., 1 above it.
    """
    cols = []
    for s in range(i + 1):
        col = [0] * (i + 1)
        col[s] = m
        if s:
            col[s - 1] = i - s + 1
        cols.append(col)
    return cols


def tower_cokernel_relations(p, n, i):
    """Relation columns presenting coker HC_{2i}(Z/p^n) -> HC_{2i}(Z/p^{n-1}).

    The reduction lift sends e to p*e', so y^[k] goes to p^k * y'^[k] and the
    source generator e_s = y^[i-s] lands on p^{i-s} times the target's e_s.
    The cokernel is the target's generators modulo its own bidiagonal
    relations and those images.
    """
    cols = koszul_hc_relations(p ** (n - 1), i)
    for s in range(i + 1):
        col = [0] * (i + 1)
        col[s] = p ** (i - s)
        cols.append(col)
    return cols


def kron_tensor_presentation(parts):
    """Relations of a tensor product of presented groups, built as Kronecker
    products: for each factor r with relations, I (x) ... (x) R_r (x) ... (x) I,
    the blocks side by side in factor order.

    Each part has `num_generators` and `relations` (with rows, cols and an
    entries dict); returns (generators, relation columns, entries dict).
    """

    def kron(A, B):
        (a_rows, a_cols, a_entries), (b_rows, b_cols, b_entries) = A, B
        entries = {}
        for (i, k), a in a_entries.items():
            for (j, l), b in b_entries.items():
                entries[(i * b_rows + j, k * b_cols + l)] = a * b
        return a_rows * b_rows, a_cols * b_cols, entries

    gens = 1
    for P in parts:
        gens *= P.num_generators
    entries = {}
    cols = 0
    for r, P in enumerate(parts):
        if P.relations.cols == 0:
            continue
        M = None
        for s, Q in enumerate(parts):
            n = Q.num_generators
            if s == r:
                piece = (P.relations.rows, P.relations.cols, P.relations.entries)
            else:
                piece = (n, n, {(i, i): 1 for i in range(n)})
            M = piece if M is None else kron(M, piece)
        for (i, j), v in M[2].items():
            entries[(i, cols + j)] = v
        cols += M[1]
    return gens, cols, entries


# ---------------------------------------------------------------------------
# Generator-by-generator constructions of the filtered layer's maps, in the
# form they had before one generator-map function made them all.  Each returns
# (rows, cols, entries) with zero entries dropped; the arguments are tensor
# levels (the package's, among them its cyclic bar levels, or the full-poset
# ones below) and filtered rings, of which only the generator indexes,
# pieces, transitions, products and unit are read.
# ---------------------------------------------------------------------------


def _matrix(rows, cols, entries):
    return rows, cols, {key: v for key, v in entries.items() if v}


def tensor_transition_reference(src, tgt):
    """Level k-1 into level k of a filtered tensor, bumping coordinate 0."""
    X = src.factors[0]
    entries = {}
    for (spot, gens), col in src.columns.items():
        bumped = (spot[0] + 1,) + spot[1:]
        for row, v in column(X.transition(spot[0]), gens[0]).items():
            entries[(tgt.columns[(bumped, (row,) + gens[1:])], col)] = v
    return _matrix(len(tgt.columns), len(src.columns), entries)


def face_map_reference(M, src, tgt, i):
    """d_i from the cyclic bar level src of M to tgt, one degree lower:
    multiply slots i, i+1, with a separate branch for slot q into slot 0 at
    i = q."""
    q = len(src.factors) - 1
    entries = {}
    for (spot, gens), col in src.columns.items():
        if i < q:
            a, b = spot[i], spot[i + 1]
            new_spot = spot[:i] + (a + b,) + spot[i + 2 :]
            pair = gens[i] * M.piece(b).num_generators + gens[i + 1]
            rest = lambda r: gens[:i] + (r,) + gens[i + 2 :]
        else:
            a, b = spot[q], spot[0]
            new_spot = (a + b,) + spot[1:q]
            pair = gens[q] * M.piece(b).num_generators + gens[0]
            rest = lambda r: (r,) + gens[1:q]
        for r, v in column(M.product(a, b), pair).items():
            key = (tgt.columns[(new_spot, rest(r))], col)
            entries[key] = entries.get(key, 0) + v
    return _matrix(len(tgt.columns), len(src.columns), entries)


def degeneracy_map_reference(M, src, tgt, i):
    """s_i from the cyclic bar level src of M to tgt, one degree higher:
    insert the unit after slot i, at filtration index 0."""
    entries = {}
    for (spot, gens), col in src.columns.items():
        new_spot = spot[: i + 1] + (0,) + spot[i + 1 :]
        for (r, _), v in M.unit.entries.items():
            new_gens = gens[: i + 1] + (r,) + gens[i + 1 :]
            key = (tgt.columns[(new_spot, new_gens)], col)
            entries[key] = entries.get(key, 0) + v
    return _matrix(len(tgt.columns), len(src.columns), entries)


# ---------------------------------------------------------------------------
# The filtered tensor as the colimit over the whole poset {i : sum i <= k}:
# generators on the full antidiagonal sum = k, positive coordinates
# included, glued along the antidiagonal sum = k-1 by bumping coordinate 0
# against each other coordinate.  The package presents the same group over
# the nonpositive box only; `clip_map` is the isomorphism between the two.
# Factors are the package's filtered groups, of which only the depths,
# pieces and transitions are read.
# ---------------------------------------------------------------------------


def full_antidiagonal(factors, total):
    """Tuples summing to `total` with coordinate r at least -depth_r and
    at most total plus the other depths (outside which a factor vanishes)."""
    depths = [X.depth for X in factors]
    lows = [-d for d in depths]
    highs = [total + sum(depths) - d for d in depths]
    out = []

    def rec(r, remaining, prefix):
        if r == len(factors) - 1:
            if lows[r] <= remaining <= highs[r]:
                out.append(prefix + (remaining,))
            return
        lo = max(lows[r], remaining - sum(highs[r + 1 :]))
        hi = min(highs[r], remaining - sum(lows[r + 1 :]))
        for i in range(lo, hi + 1):
            rec(r + 1, remaining - i, prefix + (i,))

    rec(0, total, ())
    return out


class FullTensorLevel:
    """Level k of the filtered tensor over the full antidiagonal.

    `columns` maps (spot, generator multi-index) to a generator index, in
    spot order and row-major within a spot; `relations` is
    (rows, cols, entries): each spot's Kronecker relations, then the
    gluing differences.
    """

    def __init__(self, factors, k):
        from itertools import product

        self.factors, self.level = tuple(factors), k
        self.tuples = full_antidiagonal(self.factors, k)
        self.columns = {}
        entries, cols = {}, 0
        kron_of = {}  # pieces depend on the clipped spot only
        for spot in self.tuples:
            parts = [X.piece(i) for X, i in zip(self.factors, spot)]
            base = len(self.columns)
            for gens in product(*[range(P.num_generators) for P in parts]):
                self.columns[(spot, gens)] = len(self.columns)
            clipped = tuple(min(i, 0) for i in spot)
            if clipped not in kron_of:
                kron_of[clipped] = kron_tensor_presentation(parts)
            _, spot_cols, spot_entries = kron_of[clipped]
            for (r, c), v in spot_entries.items():
                entries[(base + r, cols + c)] = v
            cols += spot_cols
        transitions = [
            {i: X.transition(i) for i in range(-X.depth, 1)} for X in self.factors
        ]
        for spot in full_antidiagonal(self.factors, k - 1):
            images = [
                (spot[:r] + (i + 1,) + spot[r + 1 :], transitions[r][min(i, 0)])
                for r, i in enumerate(spot)
            ]
            for gens in product(*[range(T.cols) for _, T in images]):
                vecs = [
                    {
                        self.columns[(bumped, gens[:r] + (row,) + gens[r + 1 :])]: v
                        for row, v in column(T, gens[r]).items()
                    }
                    for r, (bumped, T) in enumerate(images)
                ]
                for vec in vecs[1:]:
                    col = dict(vecs[0])
                    for key, v in vec.items():
                        col[key] = col.get(key, 0) - v
                    if any(col.values()):
                        entries.update({(key, cols): v for key, v in col.items() if v})
                        cols += 1
        self.num_generators = len(self.columns)
        self.relations = (self.num_generators, cols, entries)


def clip_map(full, box):
    """The map from a full level onto the package's box level k: a
    generator at spot i goes to the same generator at clip(i) =
    (min(i_r, 0))_r, which is the same piece by constancy, and then up
    along the transitions, bumping the first negative coordinate, until the
    spot sums to min(k, 0), where the box level's generators sit."""
    top = min(full.level, 0)
    entries = {}
    for (spot, gens), col in full.columns.items():
        spot, vec = tuple(min(i, 0) for i in spot), {gens: 1}
        while sum(spot) < top:
            r = next(r for r, i in enumerate(spot) if i < 0)
            T = full.factors[r].transition(spot[r])
            pushed = {}
            for g, v in vec.items():
                for row, w in column(T, g[r]).items():
                    h = g[:r] + (row,) + g[r + 1 :]
                    pushed[h] = pushed.get(h, 0) + v * w
            spot, vec = spot[:r] + (spot[r] + 1,) + spot[r + 1 :], pushed
        for g, v in vec.items():
            at = (box.columns[(spot, g)], col)
            entries[at] = entries.get(at, 0) + v
    return _matrix(len(box.columns), len(full.columns), entries)


# ---------------------------------------------------------------------------
# Hochschild signs, slot by slot: the shifted degrees of a word's prefix are
# added up again for every slot.  The algebra is read through degree_of,
# diff, mult and unit only; words are tuples of basis labels.
# ---------------------------------------------------------------------------


def _shifted_degree(A, word, slot):
    if slot == 0:
        return A.degree_of(word[0])
    return A.degree_of(word[slot]) + 1


def _prefix_sum(A, word, upto):
    """Sum of shifted degrees of slots 0..upto-1."""
    return sum(_shifted_degree(A, word, j) for j in range(upto))


def internal_terms_reference(A, word):
    """Terms of the slotwise algebra differential, normalized."""
    s = len(word) - 1
    for i in range(s + 1):
        combo = A.diff.get(word[i])
        if not combo:
            continue
        if i == 0:
            sign = 1
        else:
            sign = -1 if (1 + _prefix_sum(A, word, i)) % 2 else 1
        for lbl, coeff in combo.items():
            if i >= 1 and lbl == A.unit:
                continue
            yield (word[:i] + (lbl,) + word[i + 1 :], sign * coeff)


def face_terms_reference(A, word):
    """Terms of the multiplication (face) differential, normalized."""
    s = len(word) - 1
    if s == 0:
        return
    for i in range(s):
        sign = -1 if _prefix_sum(A, word, i + 1) % 2 else 1
        combo = A.mult.get((word[i], word[i + 1]))
        if not combo:
            continue
        for lbl, coeff in combo.items():
            if i >= 1 and lbl == A.unit:
                continue
            yield (word[:i] + (lbl,) + word[i + 2 :], sign * coeff)
    wrap = _shifted_degree(A, word, s) * _prefix_sum(A, word, s)
    sign = 1 if wrap % 2 else -1
    combo = A.mult.get((word[s], word[0]))
    if combo:
        for lbl, coeff in combo.items():
            yield ((lbl,) + word[1:s], sign * coeff)


def cyclic_operator_reference(H, n):
    """B: C_n -> C_{n+1} of a Hochschild complex H, as (rows, cols, entries).

    Reads the total complex's labels (s, t, word) only.
    """
    A = H.algebra
    src = H.total.labels(n)
    tgt_pos = {lbl: i for i, lbl in enumerate(H.total.labels(n + 1))}
    entries = {}
    for col, (s, t, word) in enumerate(src):
        if word[0] == A.unit:
            continue
        shifted = [A.degree_of(a) + 1 for a in word]
        total_shift = sum(shifted)
        for i in range(s + 1):
            head = sum(shifted[:i])
            sign = -1 if (head * (total_shift - head)) % 2 else 1
            out = (A.unit,) + word[i:] + word[:i]
            key = (tgt_pos[(s + 1, t, out)], col)
            entries[key] = entries.get(key, 0) + sign
    return _matrix(H.total.dim(n + 1), H.total.dim(n), entries)


# ---------------------------------------------------------------------------
# The cyclic total complex laid out cell by cell: the total complex of the
# bicomplex whose cell (s, t) holds the Hochschild chains of degree t - s,
# with vertical D and horizontal B, and its induced maps placed cell by cell
# at offsets read back off the labels.  It builds the package's Bicomplex
# and total complex.
# ---------------------------------------------------------------------------


def cyclic_total_reference(H):
    """The cyclic total complex of a Hochschild complex H through degree
    H.bound + 1, through a Bicomplex and total_complex."""
    from cychom.complexes import Bicomplex, total_complex
    from cychom.hochschild import cyclic_operator

    window = H.bound + 1
    B = [cyclic_operator(H, c) for c in range(window - 1)]
    basis, vertical, horizontal = {}, {}, {}
    for s in range(window // 2 + 1):
        for c in range(window - 2 * s + 1):
            t = c + s
            lbls = H.total.labels(c)
            if not lbls:
                continue
            basis[(s, t)] = lbls
            vertical[(s, t)] = H.total.diff(c)
            if s >= 1:
                horizontal[(s, t)] = B[c]
    return total_complex(Bicomplex(basis, vertical, horizontal), 0, window)


def cyclic_map_reference(F, source, target):
    """The chain map of cyclic totals built by cyclic_total_reference whose
    cell (s, t) block is the degree t - s component of the Hochschild map F,
    zero elsewhere; each cell's offset is counted off the (s, t) of the
    labels."""
    from collections import Counter, defaultdict

    from cychom.complexes import ChainMap
    from cychom.intlin import SparseIntMatrix

    def layout(C):
        dims = Counter(lbl[:2] for n in C.degrees() for lbl in C.labels(n))
        at, size = {}, {}
        for (s, t), k in dims.items():
            at[(s, t)] = size.get(s + t, 0)
            size[s + t] = at[(s, t)] + k
        return dims, at

    (src_dims, src_at), (tgt_dims, tgt_at) = layout(source), layout(target)
    comps = {}
    for (s, t) in src_dims:
        M = F.component(t - s)
        assert M.shape == (tgt_dims[(s, t)], src_dims[(s, t)]), (s, t)
        rows = comps.setdefault(s + t, defaultdict(dict))
        for r, row in M.by_row.items():
            for c, v in row.items():
                rows[tgt_at[(s, t)] + r][src_at[(s, t)] + c] = v
    matrices = {
        n: SparseIntMatrix(target.dim(n), source.dim(n), rows)
        for n, rows in comps.items()
    }
    return ChainMap(source, target, matrices)


# ---------------------------------------------------------------------------
# The filtered layer's constructions that the package does not need: the
# matrix between two generator indexes, the rotation of a cyclic bar level,
# the associated graded ring, and the rotation fixed points of a split free
# filtration.  They build the package's matrices, rings and tensor levels.
# ---------------------------------------------------------------------------


def _generator_map(src_columns, tgt_columns, images):
    """The matrix between two generator indexes (see filtered._spot_sum)
    sending the generator `key` of the source to the sum of v * tgt over
    images(key), an iterable of (tgt key, v) pairs."""
    from collections import defaultdict

    from cychom.intlin import SparseIntMatrix

    rows = defaultdict(dict)
    for key, col in src_columns.items():
        for tgt, v in images(key):
            row = rows[tgt_columns[tgt]]
            row[col] = row.get(col, 0) + v
    return SparseIntMatrix(len(tgt_columns), len(src_columns), rows)


def _rotated(spot, gens):
    """The key (spot, gens) with its last slot moved to the front."""
    return (spot[-1],) + spot[:-1], (gens[-1],) + gens[:-1]


def rotation(columns):
    """The cyclic operator on a cyclic bar generator index (a level's
    `columns`): each generator goes to the generator of the same key with
    its last slot moved to the front."""
    return _generator_map(columns, columns, lambda key: [(_rotated(*key), 1)])


def graded(M):
    """The associated graded ring, with piece(k) the sum of the graded
    slices at indices <= k (the spot sum over one-slot spots (i,), i <= k)
    and products induced slotwise."""
    from cychom.filtered import FilteredAbelianGroup, FilteredRing, _spot_sum, graded_piece
    from cychom.intlin import SparseIntMatrix

    m = M.depth()
    slices = {i: graded_piece(M, i) for i in range(-m, 1)}
    columns, pieces = {}, {}
    for k in range(-m, 1):
        columns[k], pieces[k] = _spot_sum(
            [(i,) for i in range(-m, k + 1)], lambda spot: [slices[spot[0]]]
        )
    transitions = {
        k: _generator_map(columns[k], columns[k + 1], lambda key: [(key, 1)])
        for k in range(-m, 0)
    }
    group = FilteredAbelianGroup(pieces, transitions)

    def product_images(pair):
        ((i,), (gi,)), ((j,), (gj,)) = pair
        if i + j < -m:
            return ()  # graded slice below depth is zero
        col = gi * M.piece(j).num_generators + gj
        return [(((i + j,), (r,)), v) for r, v in column(M.product(i, j), col).items()]

    products = {}
    for a in range(-m, 1):
        for b in range(-m, 1):
            nb = pieces[b].num_generators
            pairs = {
                (x, y): cx * nb + cy
                for x, cx in columns[a].items()
                for y, cy in columns[b].items()
            }
            # below the depth the target piece is trivial
            products[(a, b)] = _generator_map(pairs, columns.get(a + b, {}), product_images)
    unit_rows = {columns[0][((0,), (r,))]: row for r, row in M.unit.by_row.items()}
    unit = SparseIntMatrix(pieces[0].num_generators, 1, unit_rows)
    return FilteredRing(group, products, unit)


@dataclass(frozen=True)
class FixedPointsReport:
    power: int
    level: int
    expected_rank: int
    found: int
    independent: bool

    def __bool__(self):
        return self.found == self.expected_rank and self.independent


def fixed_points_check(Y, q, s):
    """Rotation-fixed diagonal basis tensors of the q-fold tensor at level s
    come exactly from the basis at level floor(s/q).

    Restricted to filtrations whose pieces are free with transitions that
    send basis elements to distinct basis elements; raises ValueError on
    any other filtration and for q < 1.
    """
    from cychom.filtered import multi_tensor
    from cychom.intlin import SparseIntMatrix, cokernel, lattice_contains

    if q < 1:
        raise ValueError(f"power {q} < 1")
    for j in range(-Y.depth, 1):
        if Y.piece(j).relations.cols != 0:
            raise ValueError(f"piece {j} is not free")
    for j in range(-Y.depth, 0):
        seen = set()
        for col in Y.transition(j).columns():
            if len(col) != 1 or 1 not in col.values() or col.keys() & seen:
                raise ValueError(f"transition at {j} does not embed basis into basis")
            seen |= col.keys()
    top = min(s, 0)  # level s > 0 is level 0
    T = multi_tensor([Y] * q, top)
    pres = T.presentation
    # a diagonal class for basis element b of piece(j): the tensor
    # b (x) ... (x) b pushed onto the antidiagonal along the transitions
    found = []  # the generators that carry a fixed class
    lvl = top // q
    rem = top - q * lvl  # in [0, q): bump each of the first rem coordinates once
    base = Y.piece(lvl)
    for b in range(base.num_generators):
        spot, gens = [lvl] * q, [b] * q
        for r in range(rem):
            # a split free transition column holds exactly one basis element
            (gens[r],) = column(Y.transition(spot[r]), gens[r])
            spot[r] += 1
        key = (tuple(spot), tuple(gens))
        col = T.columns[key]
        # fixed under rotation?
        image = T.columns[_rotated(*key)]
        diff = {} if image == col else {col: {0: 1}, image: {0: -1}}
        if lattice_contains(pres.relations, SparseIntMatrix(pres.num_generators, 1, diff)):
            found.append(col)
    # independence: the classes span a rank-`found` direct summand
    classes = {(r, c): 1 for c, r in enumerate(found)}
    span = matrix_of_entries(pres.num_generators, len(found), classes)
    quotient = cokernel(span.hstack(pres.relations))
    independent = (
        pres.group().free_rank - quotient.free_rank == len(found)
        and not quotient.invariant_factors
    )
    return FixedPointsReport(
        power=q,
        level=s,
        expected_rank=base.num_generators,
        found=len(found),
        independent=independent,
    )


# ---------------------------------------------------------------------------
# The graded comparison through an explicit comparison map: phi sends each
# generator of level k to the graded generator of the same key, and the
# report checks that phi is well defined, onto, and intertwines the
# `rotation` of the level with a rotation built again on the graded index.
# Unlike the rest of this file it runs on the package's own presentations
# and reductions: it pins what the package's shared-index shortcut reports,
# not the arithmetic underneath.
# ---------------------------------------------------------------------------


def graded_comparison_reference(M, q, k):
    from cychom.filtered import (
        GradedComparisonReport,
        PresentedGroup,
        _spot_sum,
        cyclic_bar,
        graded_piece,
    )
    from cychom.intlin import cokernel

    m = M.depth()
    slices = {i: graded_piece(M, i) for i in range(-m, 1)}
    T = cyclic_bar(M, q, k)
    lhs_pres = PresentedGroup(
        T.presentation.num_generators, T.presentation.relations.hstack(T.incoming)
    )
    spots = [s for s in T.tuples if sum(s) == k]
    rhs_columns, rhs_pres = _spot_sum(spots, lambda spot: [slices[i] for i in spot])
    phi = _generator_map(T.columns, rhs_columns, lambda key: [(key, 1)] if k <= 0 else ())
    well_defined = lhs_pres.admits_hom(phi, rhs_pres)
    onto = cokernel(phi.hstack(rhs_pres.relations)).is_trivial()
    lhs_group = lhs_pres.group()
    rhs_group = rhs_pres.group()
    invariants_match = lhs_group == rhs_group
    # a surjection between groups with equal invariants is an isomorphism
    iso = well_defined and onto and invariants_match
    rotation_compatible = lhs_pres.homs_equal(
        phi @ rotation(T.columns), rotation(rhs_columns) @ phi, rhs_pres
    )
    return GradedComparisonReport(
        simplicial_degree=q,
        level=k,
        lhs=lhs_group,
        rhs=rhs_group,
        invariants_match=invariants_match,
        map_is_iso=iso,
        rotation_compatible=rotation_compatible,
    )


# ---------------------------------------------------------------------------
# Exactness on the full kernel basis: H_i presented as Z^k / R, with k the
# rank of ker d_i and R the coordinates of d_{i+1} in a kernel basis, and
# exact_at's three lattice tests (composite vanishes, kernel within image,
# image within kernel).  Kernel bases and coordinates come from the
# package's smith_decomposition; lattice membership is decided here, from
# dense Smith diagonals.
# ---------------------------------------------------------------------------


def least_pivot_reference(reducer):
    """The core pivot of an `intlin._Reducer` by a full scan of its active
    rows, as the reducer chose it before it kept each row's least entry:
    the first row in `live` order holding an entry of least absolute value,
    and the first such entry in that row's dict order.  The rows are
    filtered here, not read as the reducer keeps `live`."""
    live = [i for i in reducer.live if reducer.rows[i]]
    best = None
    for i in live:
        for j, v in reducer.rows[i].items():
            if best is None or abs(v) < best[0]:
                best = (abs(v), i, j)
    return best and best[1:]


def lattice_contains_reference(M, X):
    """Does the column lattice of M hold every column of X?  Adding X's
    columns can only enlarge the lattice, and Z^n over a lattice surjects
    onto Z^n over a larger one; equal invariants make that an isomorphism."""
    columns = [[M[i, j] for i in range(M.rows)] for j in range(M.cols)]
    more = columns + [[X[i, j] for i in range(X.rows)] for j in range(X.cols)]
    return quotient_invariants(M.rows, columns) == quotient_invariants(M.rows, more)


def presentation_reference(C, i):
    """(kernel basis of d_i, relation matrix R, decomposition of d_i)."""
    from cychom.errors import TruncationTooTight
    from cychom.intlin import smith_decomposition

    if not C.min_degree <= i < C.max_degree:
        raise TruncationTooTight(f"H_{i} outside the complex")
    dec = smith_decomposition(C.diff(i))
    return dec.kernel_basis(), dec.kernel_coords(C.diff(i + 1)), dec


def homology_presentation_reference(C, i):
    """H_i presented degree by degree, as homology_presentation did before
    the complex kept its kernel decompositions: d_i is decomposed for the
    kernel basis and kernel coordinates, and the boundaries' coordinates R
    are decomposed for the generators."""
    from cychom.complexes import HomologyPresentation
    from cychom.intlin import AbelianGroup, SparseIntMatrix, smith_decomposition

    K, R, dec = presentation_reference(C, i)
    factors, to_generators, generators = smith_decomposition(R).generators()
    s = len(factors)
    return HomologyPresentation(
        degree=i,
        cycles=K @ generators,
        relations=SparseIntMatrix(s, s, {j: {j: d} for j, d in enumerate(factors)}),
        group=AbelianGroup.from_diagonal(factors, factors.count(0)),
        _kernel=dec,
        _to_generators=to_generators,
    )


def exact_at_reference(mid_relations, incoming, outgoing, out_relations):
    """Exactness at a group Z^k / mid_relations of the maps `incoming` into
    it and `outgoing` out of it into Z^l / out_relations."""
    from cychom.intlin import SparseIntMatrix, smith_decomposition

    image = incoming.hstack(mid_relations)
    if not lattice_contains_reference(out_relations, outgoing @ incoming):
        return False
    K = smith_decomposition(outgoing.hstack(out_relations.scale(-1))).kernel_basis()
    preimage = SparseIntMatrix(
        outgoing.cols, K.cols, {i: row for i, row in K.by_row.items() if i < outgoing.cols}
    )
    kernel = preimage.hstack(mid_relations)
    return lattice_contains_reference(image, kernel) and lattice_contains_reference(kernel, image)


def exact_sequence_reference(complexes, maps, degrees):
    """The nodes (k, n) where ... -> H_n(X0) -> H_n(X1) -> H_n(X2) ->
    H_{n-1}(X0) -> ... fails to be exact, in the order exact_sequence_check
    visits them: for each degree n, the nodes H_n(X1), H_n(X2), H_{n-1}(X0).
    maps[k](n) is the chain-level matrix out of X_k in degree n."""
    from cychom.errors import TruncationTooTight

    failures = []
    for n in degrees:
        try:
            x0, x1, x2, y0, y1 = (
                presentation_reference(complexes[k], m)
                for k, m in ((0, n), (1, n), (2, n), (0, n - 1), (1, n - 1))
            )
        except TruncationTooTight:
            continue

        def induced(k, m, source, target):
            return target[2].kernel_coords(maps[k](m) @ source[0])

        a_n, b_n = induced(0, n, x0, x1), induced(1, n, x1, x2)
        c_n, a_n1 = induced(2, n, x2, y0), induced(0, n - 1, y0, y1)
        for node, mid, incoming, outgoing, target in (
            ((1, n), x1, a_n, b_n, x2),
            ((2, n), x2, b_n, c_n, y0),
            ((0, n - 1), y0, c_n, a_n1, y1),
        ):
            if not exact_at_reference(mid[1], incoming, outgoing, target[1]):
                failures.append(node)
    return failures


# ---------------------------------------------------------------------------
# Hochschild word basis, one cell at a time
# ---------------------------------------------------------------------------


def cell_words_reference(A, s, t):
    """Words (a_0, ..., a_s) with internal degree t, slots >= 1 unit-free:
    a depth-first search over slots 1..s by label, run afresh for the one
    cell, with slot 0 filled last by the labels of the leftover degree."""
    non_unit = A.non_unit_labels()

    def tails(k, remaining):
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


# ---------------------------------------------------------------------------
# The Morse complex by a sweep per critical cell: the cells its flow reaches
# are put in topological order, and coefficients are pushed down through
# them, so a cell shared by several flows is walked once per flow.  Builds
# the package's ChainComplex, whose constructor checks d^2 = 0.
# ---------------------------------------------------------------------------


def morse_complex_reference(critical, terms, partner, top):
    """The Morse complex of a based complex on its critical cells, degrees
    0..top, with the arguments of hochschild._morse_complex: a term on a
    cell u paired with w above is replaced by subtracting (coefficient /
    [d w : u]) d w, a term on a cell paired below is dropped."""
    from cychom.complexes import ChainComplex
    from cychom.errors import MatchingFailed

    diffs = {}
    for n in range(1, top + 1):
        index = {c: i for i, c in enumerate(critical[n - 1])}
        flows = {}

        def flow_of(u):
            """(e, lower terms, critical terms) of d w for u's partner w."""
            if u not in flows:
                w = partner(u)[0]
                if partner(w) != (u, False):
                    raise MatchingFailed(f"the pairing is not an involution at {u}")
                dw = terms(w)
                lower, crit = {}, []
                for v, k in dw.items():
                    found = partner(v)
                    if found is None:
                        crit.append((index[v], k))
                    elif found[1] and v != u:
                        lower[v] = k
                flows[u] = (dw[u], lower, crit)
            return flows[u]

        entries = {}
        for col, c in enumerate(critical[n]):
            out, coeff = {}, {}
            for v, k in terms(c).items():
                found = partner(v)
                if found is None:
                    out[index[v]] = out.get(index[v], 0) + k
                elif found[1]:
                    coeff[v] = k
            for u in _flow_order(coeff, flow_of):
                lam = coeff.pop(u, 0)
                if lam:
                    e, lower, crit = flows[u]
                    lam *= e  # 1 / e = e
                    for v, k in lower.items():
                        coeff[v] = coeff.get(v, 0) - lam * k
                    for r, k in crit:
                        out[r] = out.get(r, 0) - lam * k
            entries.update(((r, col), k) for r, k in out.items() if k)
        diffs[n] = matrix_of_entries(len(index), len(critical[n]), entries)
    return ChainComplex({n: critical[n] for n in range(top + 1)}, diffs, 0, top)


def _flow_order(seeds, flow_of):
    """The cells reachable from seeds through lower terms, each before the
    cells its flow reaches; raises on a cycle."""
    from cychom.errors import MatchingFailed

    done = {}  # False while on the search stack
    post = []
    stack = [(None, iter(seeds))]
    while stack:
        u, rest = stack[-1]
        for v in rest:
            if v not in done:
                done[v] = False
                stack.append((v, iter(flow_of(v)[1])))
                break
            if not done[v]:
                raise MatchingFailed(f"the flows through {v} form a cycle")
        else:
            stack.pop()
            if stack:
                done[u] = True
                post.append(u)
    post.reverse()
    return post


# ---------------------------------------------------------------------------
# truncated and monic polynomial rings in one variable
# ---------------------------------------------------------------------------


def truncated_polynomial(n, degree=0):
    """Z[x]/(x^n) as a DG algebra with zero differential and x in the given
    degree: basis 1, x, x2, ..., x{n-1}, with x^i x^j = x^(i+j), zero from
    x^n on.  For degree 0 and any n >= 2 (Buenos Aires Cyclic Homology
    Group, K-Theory 5 (1991)): HH_0 = Z^n, HH_{2i-1} = Z^(n-1) + Z/n and
    HH_{2i} = Z^(n-1)."""
    from cychom.dga import DGAlgebra

    labels = ["1", "x"] + [f"x{k}" for k in range(2, n)]
    mult = {
        (labels[i], labels[j]): {labels[i + j]: 1} if i + j < n else {}
        for i in range(n)
        for j in range(n)
    }
    basis = {}
    for k, lbl in enumerate(labels):
        basis.setdefault(degree * k, []).append(lbl)
    return DGAlgebra(basis, mult, {}, "1")


def _powers_mod(coeffs, top):
    """x^0, ..., x^top in Z[x]/(f), f = sum coeffs[k] x^k monic of degree
    d, each as its d coordinates on 1, x, ..., x^(d-1)."""
    d = len(coeffs) - 1
    powers = [[int(k == 0) for k in range(d)]]
    for _ in range(top):
        shifted = [0] + powers[-1]  # x * x^k, with x^d in the last slot
        top_coeff = shifted.pop()
        powers.append([v - top_coeff * c for v, c in zip(shifted, coeffs)])
    return powers


def monic_polynomial(coeffs):
    """Z[x]/(f) in degree 0, f = coeffs[0] + coeffs[1] x + ... + x^d with
    the leading 1 listed: basis 1, x, x2, ..., x{d-1}, and x^i x^j reduced
    modulo f.  A list whose last coefficient is not 1 is refused."""
    from cychom.dga import DGAlgebra

    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError(f"not a monic polynomial of degree >= 1: {coeffs}")
    d = len(coeffs) - 1
    labels = ["1", "x"][:d] + [f"x{k}" for k in range(2, d)]
    powers = _powers_mod(coeffs, 2 * d - 2)
    mult = {
        (labels[i], labels[j]): {labels[t]: v for t, v in enumerate(powers[i + j]) if v}
        for i in range(d)
        for j in range(d)
    }
    return DGAlgebra({0: labels}, mult, {}, "1")


def monic_polynomial_hh(coeffs, top):
    """HH_0..HH_top of Z[x]/(f) for monic f of degree d, as (free rank,
    invariant factors) pairs, from the closed form (Buenos Aires Cyclic
    Homology Group, Adv. Math. 95 (1992)): HH_0 = Z^d, HH_{2i-1} =
    coker(f'.) and HH_{2i} = Z^(d - rank(f'.)), where f'. is
    multiplication by f' on the basis 1, x, ..., x^(d-1)."""
    d = len(coeffs) - 1
    powers = _powers_mod(coeffs, 2 * d - 2)
    derivative = [k * c for k, c in enumerate(coeffs)][1:]  # f' = sum derivative[k] x^k
    columns = [
        [sum(c * powers[k + j][t] for k, c in enumerate(derivative)) for t in range(d)]
        for j in range(d)
    ]
    free, torsion = quotient_invariants(d, columns)
    odd, even = (free, tuple(torsion)), (free, ())
    return [(d, ())] + [odd if i % 2 else even for i in range(1, top + 1)]


# ---------------------------------------------------------------------------
# Small builders on the package's types: chain complexes of a few terms,
# the chain complex of a DG algebra, the DG algebra Z, the composite of two
# DG algebra maps, and a matrix from its (row, col) entries or as a dense
# list of rows.
# ---------------------------------------------------------------------------


def unit_complex():
    """Z concentrated in degree 0, the tensor unit."""
    from cychom.complexes import ChainComplex

    return ChainComplex({0: ("1",)}, {})


def two_term_complex(m, label="e"):
    """0 -> Z --m--> Z -> 0 in degrees 1, 0 (a free resolution of Z/m)."""
    from cychom.complexes import ChainComplex
    from cychom.intlin import SparseIntMatrix

    return ChainComplex(
        {0: (f"{label}0",), 1: (f"{label}1",)},
        {1: SparseIntMatrix.from_dense([[m]])},
    )


def matrix_of_entries(rows, cols, entries):
    """The SparseIntMatrix with the given (row, col) -> value entries."""
    from cychom.intlin import SparseIntMatrix

    by_row = {}
    for (i, j), v in entries.items():
        by_row.setdefault(i, {})[j] = v
    return SparseIntMatrix(rows, cols, by_row)


def column(M, j):
    """Column j of a SparseIntMatrix as {row: nonzero value}."""
    return {i: row[j] for i, row in M.by_row.items() if j in row}


def to_dense(M):
    """The rows of a SparseIntMatrix as lists of ints."""
    dense = [[0] * M.cols for _ in range(M.rows)]
    for i, row in M.by_row.items():
        for j, v in row.items():
            dense[i][j] = v
    return dense


def underlying_complex(A):
    """The chain complex of a DG algebra itself (basis and differential)."""
    from cychom.complexes import ChainComplex
    from cychom.intlin import SparseIntMatrix

    index = {}
    for d, lbls in A.basis.items():
        for i, l in enumerate(lbls):
            index[l] = (d, i)
    diffs = {}
    for a, combo in A.diff.items():
        d, col = index[a]
        ent = diffs.setdefault(d, {})
        for l, c in combo.items():
            ent.setdefault(index[l][1], {})[col] = c
    top = max(A.basis) if A.basis else 0
    basis = dict(A.basis)
    differential = {
        d: SparseIntMatrix(len(basis.get(d - 1, ())), len(basis[d]), ent)
        for d, ent in diffs.items()
    }
    # the algebra is zero above its top degree, so declare one more
    # (empty) degree; homology is then defined through degree `top`
    return ChainComplex(basis, differential, 0, top + 1)


def base_ring():
    """The integers as a DG algebra concentrated in degree 0."""
    from cychom.dga import DGAlgebra

    return DGAlgebra(basis={0: ("1",)}, mult={("1", "1"): {"1": 1}}, diff={}, unit="1")


def compose(g, f):
    """The DG algebra map g o f, for f's target g's source."""
    from cychom.dga import DGAMorphism

    return DGAMorphism(
        source=f.source,
        target=g.target,
        action={l: g.apply(f.apply({l: 1})) for l in f.source.labels()},
    )


def identity_chain_map(C):
    """The identity map of a chain complex."""
    from cychom.complexes import ChainMap
    from cychom.intlin import SparseIntMatrix

    return ChainMap(C, C, {d: SparseIntMatrix.identity(C.dim(d)) for d in C.degrees()})


def identity_morphism(A):
    """The identity map of a DG algebra."""
    from cychom.dga import DGAMorphism

    return DGAMorphism(A, A, {l: {l: 1} for l in A.labels()})
