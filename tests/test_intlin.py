import hashlib
import pathlib
import random

import pytest

from cychom.cyclic import cyclic_bundle
from cychom.dga import load_algebra
from cychom.errors import CompositionNonzero, DimensionMismatch, InvalidModulus
from cychom.filtered import adic_filtration, cyclic_bar
from cychom.intlin import (
    _Reducer,
    AbelianGroup,
    SparseIntMatrix,
    cokernel,
    invariant_factors,
    is_prime,
    kernel_basis,
    kron,
    lattice_contains,
    smith_decomposition,
    smith_generators,
)

from oracles import (
    dense_smith_diagonal,
    determinant,
    invariant_factors_via_divisors,
    least_pivot_reference,
    quotient_invariants,
    to_dense,
)


def random_matrix(rng):
    m = rng.randint(0, 8)
    n = rng.randint(0, 8)
    entries = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.6:
                v = rng.randint(-20, 20)
                if v:
                    entries[(i, j)] = v
    return SparseIntMatrix(m, n, entries)


def check_decomposition(M):
    dec = smith_decomposition(M)
    # D diagonal with a divisibility chain of nonnegative entries
    assert dec.d.is_diagonal()
    diag = dec.d.diagonal_entries()
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    assert len(nonzero) == dec.rank
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # the defining identity and unimodularity of the transforms
    assert dec.u @ M @ dec.v == dec.d
    assert determinant(to_dense(dec.u)) in (1, -1)
    assert determinant(to_dense(dec.v)) in (1, -1)
    assert dec.kernel_coords(dec.kernel_basis()) == SparseIntMatrix.identity(M.cols - dec.rank)
    return nonzero


def test_smith_small_known():
    M = SparseIntMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert check_decomposition(M) == [2, 2, 156]


def test_smith_against_independent_oracles():
    rng = random.Random(20260823)
    for trial in range(1000):
        M = random_matrix(rng)
        got = check_decomposition(M)
        assert got == dense_smith_diagonal(to_dense(M)), f"trial {trial}"
    # determinantal divisors on a smaller sample (minors are expensive)
    rng = random.Random(7)
    for _ in range(50):
        M = random_matrix(rng)
        if min(M.shape) == 0:
            continue
        got = [d for d in smith_decomposition(M).diagonal if d]
        assert got == invariant_factors_via_divisors(to_dense(M))


UNIT_HEAVY_VALUES = (1, -1, 3, -3, 9, 27, 2, 5)


def unit_heavy_matrix(rng):
    """Shaped like a p-power presentation: sparse, mostly units and powers
    of 3, with 2 and 5 so that fill-in keeps creating new unit entries."""
    m = rng.randint(1, 18)
    n = rng.randint(1, 24)
    density = rng.uniform(0.1, 0.5)
    entries = {
        (i, j): rng.choice(UNIT_HEAVY_VALUES)
        for i in range(m)
        for j in range(n)
        if rng.random() < density
    }
    return SparseIntMatrix(m, n, entries)


def oracle_contains(M, y):
    """Column y lies in the column lattice of M iff appending it leaves the
    Smith diagonal unchanged (a surjection of isomorphic f.g. groups)."""
    return dense_smith_diagonal(to_dense(M.hstack(y))) == dense_smith_diagonal(to_dense(M))


def test_unit_heavy_matrices():
    rng = random.Random(20261018)
    outside = 0
    for trial in range(200):
        M = unit_heavy_matrix(rng)
        nonzero = check_decomposition(M)
        assert invariant_factors(M) == nonzero, f"trial {trial}"
        assert nonzero == dense_smith_diagonal(to_dense(M)), f"trial {trial}"
        X = SparseIntMatrix.from_dense(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(M.cols)]
        )
        assert lattice_contains(M, M @ X), f"trial {trial}"
        # a lattice vector plus a unit vector: inside iff the unit vector is
        x = SparseIntMatrix.from_dense([[rng.randint(-3, 3)] for _ in range(M.cols)])
        y = M @ x + SparseIntMatrix(M.rows, 1, {(rng.randrange(M.rows), 0): 1})
        expected = oracle_contains(M, y)
        assert lattice_contains(M, y) == expected, f"trial {trial}"
        if not expected:
            outside += 1
            assert not lattice_contains(M, (M @ X).hstack(y)), f"trial {trial}"
    assert outside >= 50


def test_transforms_do_not_depend_on_entry_order():
    rng = random.Random(5)
    for trial in range(200):
        M = unit_heavy_matrix(rng)
        items = list(M.entries.items())
        rng.shuffle(items)
        shuffled = SparseIntMatrix(M.rows, M.cols, dict(items))
        # the same rows, given to from_rows with rows and keys in shuffled order
        rows = list(M.by_row.items())
        rng.shuffle(rows)
        by_row = {}
        for i, row in rows:
            keys = list(row)
            rng.shuffle(keys)
            by_row[i] = {j: row[j] for j in keys}
        reordered = SparseIntMatrix.from_rows(M.rows, M.cols, by_row)
        a = smith_decomposition(M)
        for N in (shuffled, reordered):
            b = smith_decomposition(N)
            assert (a.d, a.u, a.v) == (b.d, b.u, b.v), f"trial {trial}"
            assert invariant_factors(M) == invariant_factors(N), f"trial {trial}"


def test_smith_generators_present_the_cokernel():
    # P: Z^k -> Z^s kills every relation mod its factor and has Q as a right
    # inverse mod the factors, so it maps Z^k / R onto the sum of the Z/d_j;
    # that sum has the cokernel's invariants (dense oracle), so the map is
    # an isomorphism
    rng = random.Random(20261019)
    for trial in range(300):
        R = random_matrix(rng) if trial % 2 else unit_heavy_matrix(rng)
        d, P, Q = smith_generators(R)
        s = len(d)
        torsion, free = [x for x in d if x], d.count(0)
        assert d == torsion + [0] * free, f"trial {trial}"
        assert all(x > 1 for x in torsion), f"trial {trial}"
        assert all(b % a == 0 for a, b in zip(torsion, torsion[1:])), f"trial {trial}"
        assert P.shape == (s, R.rows) and Q.shape == (R.rows, s), f"trial {trial}"
        for (j, _), v in (P @ Q - SparseIntMatrix.identity(s)).entries.items():
            assert d[j] and v % d[j] == 0, f"trial {trial}"
        for (j, _), v in (P @ R).entries.items():
            assert d[j] and v % d[j] == 0, f"trial {trial}"
        if not free and torsion:
            assert all(2 * abs(v) <= torsion[-1] for v in Q.entries.values()), f"trial {trial}"
        columns = [[R[i, j] for i in range(R.rows)] for j in range(R.cols)]
        assert (free, torsion) == quotient_invariants(R.rows, columns), f"trial {trial}"


def test_lattice_contains_a_diagonal_lattice():
    rng = random.Random(3)
    for trial in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(0, 5)
        diagonal = {(k, k): rng.choice((0, 1, 2, -3, 6)) for k in range(min(rows, cols))}
        M = SparseIntMatrix(rows, cols, diagonal)
        assert M.is_diagonal()
        X = SparseIntMatrix.from_dense([[rng.randint(-7, 7)] for _ in range(rows)])
        assert lattice_contains(M, X) == oracle_contains(M, X), f"trial {trial}"


def test_kernel_basis_spans_kernel():
    rng = random.Random(11)
    for _ in range(100):
        M = random_matrix(rng)
        K = kernel_basis(M)
        assert (M @ K).is_zero()
        dec = smith_decomposition(M)
        assert K.cols == M.cols - dec.rank
        # saturation: a multiple of a kernel vector in the lattice means
        # the vector itself is
        assert lattice_contains(K, K.scale(3)) if K.cols else True


def test_kernel_coords_rejects_non_kernel_columns():
    M = SparseIntMatrix.from_dense([[1, 0], [0, 2]])
    dec = smith_decomposition(M)
    with pytest.raises(CompositionNonzero):
        dec.kernel_coords(SparseIntMatrix.from_dense([[1], [0]]))
    with pytest.raises(DimensionMismatch):
        dec.kernel_coords(SparseIntMatrix.zero(3, 1))
    # reductions that use column operations: diag(2, 3) beside the dependent
    # column (2, 3) ends in a gcd/lcm step on the columns, then seeded ones
    rng = random.Random(20261025)
    cases = [SparseIntMatrix.from_dense([[2, 0, 2], [0, 3, 3]])]
    cases += [random_matrix(rng) if k % 2 else unit_heavy_matrix(rng) for k in range(200)]
    checked = 0
    for trial, M in enumerate(cases):
        dec = smith_decomposition(M)
        K = dec.kernel_basis()
        # a V with more entries than columns comes from column operations
        if len(dec.v.entries) == M.cols or not K.cols:
            continue
        checked += 1
        Z = SparseIntMatrix.from_dense([[rng.randint(-3, 3) for _ in range(3)] for _ in range(K.cols)])
        X = K @ Z
        Y = dec.kernel_coords(X)
        assert Y == Z and K @ Y == X, f"trial {trial}"
        j = next(j for j in range(M.cols) if M.column(j))
        with pytest.raises(CompositionNonzero):
            dec.kernel_coords(X.hstack(SparseIntMatrix(M.cols, 1, {(j, 0): 1})))
    assert checked >= 50


def test_cokernel_examples():
    assert cokernel(SparseIntMatrix.from_dense([[4]])) == AbelianGroup.cyclic(4)
    assert cokernel(SparseIntMatrix.zero(2, 0)) == AbelianGroup.free(2)
    M = SparseIntMatrix.from_dense([[2, 0], [0, 3]])
    assert cokernel(M) == AbelianGroup(0, (6,))
    # Z^2 / <(2,0)> = Z + Z/2
    M = SparseIntMatrix.from_dense([[2], [0]])
    assert cokernel(M) == AbelianGroup(1, (2,))


def test_lattice_contains():
    L = SparseIntMatrix.from_dense([[2, 0], [0, 3]])
    assert lattice_contains(L, SparseIntMatrix.from_dense([[4], [3]]))
    assert not lattice_contains(L, SparseIntMatrix.from_dense([[1], [0]]))
    with pytest.raises(DimensionMismatch):
        lattice_contains(L, SparseIntMatrix.from_dense([[1]]))


def test_abelian_group_canonical_form():
    assert AbelianGroup.from_diagonal([1, 1, 6, 0]) == AbelianGroup(0, (6,))
    assert AbelianGroup.cyclic(1).is_trivial()
    assert AbelianGroup.cyclic(0) == AbelianGroup.free(1)
    # Z/m and Z/-m are the same group
    for m in range(-6, 7):
        if m:
            assert AbelianGroup.cyclic(m) == AbelianGroup.from_diagonal([m]), m
            assert AbelianGroup.cyclic(m) == AbelianGroup.cyclic(-m), m
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 6 not divisible by 4


def test_abelian_group_queries():
    G = AbelianGroup(0, (2, 12))
    assert G.order() == 24
    assert G.p_part(2) == AbelianGroup(0, (2, 4))
    assert G.p_part(3) == AbelianGroup(0, (3,))
    assert G.p_part(5).is_trivial()
    for p in (1, 0, -1, -2):
        with pytest.raises(InvalidModulus):
            G.p_part(p)
    # a composite p names no primary component: Z/8 has no "4-part" Z/4
    for p, group in ((4, AbelianGroup(0, (8,))), (6, AbelianGroup(0, (6,))), (6, G)):
        with pytest.raises(InvalidModulus):
            group.p_part(p)
    assert str(G) == "Z/2 + Z/12"
    with pytest.raises(ValueError):
        AbelianGroup.free(1).order()


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(49)


def test_matrix_arithmetic_basics():
    A = SparseIntMatrix.from_dense([[1, 2], [3, 4]])
    B = SparseIntMatrix.from_dense([[0, 1], [1, 0]])
    assert to_dense(A @ B) == [[2, 1], [4, 3]]
    assert (A + B - B) == A
    assert A.transpose().transpose() == A
    assert A.hstack(B).shape == (2, 4)
    with pytest.raises(DimensionMismatch):
        A @ SparseIntMatrix.zero(3, 3)
    # every operation against dense-list arithmetic, with empty rows, 0 x n and m x 0
    rng = random.Random(20261018)

    def sparse(m, n):
        # about half the rows empty, so that the row maps have gaps
        live = [i for i in range(m) if rng.random() < 0.5]
        entries = {(i, j): rng.randint(-4, 4) for i in live for j in range(n) if rng.random() < 0.5}
        return SparseIntMatrix(m, n, entries)

    def check(M, shape, expected):
        assert M.shape == shape
        assert to_dense(M) == expected
        # only nonempty rows of nonzero entries are stored
        assert all(row and all(row.values()) for row in M.by_row.values())

    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(150)]
    for trial, (m, n) in enumerate(shapes):
        k = rng.randint(0, 5)
        A, B, C, D = sparse(m, n), sparse(m, n), sparse(n, k), sparse(m, k)
        a, b, c, d = map(to_dense, (A, B, C, D))
        assert SparseIntMatrix(m, n, A.entries) == A, f"trial {trial}"
        product = [[sum(a[i][p] * c[p][j] for p in range(n)) for j in range(k)] for i in range(m)]
        check(A @ C, (m, k), product)
        check(A + B, (m, n), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        check(A - B, (m, n), [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for s in (0, -3):
            check(A.scale(s), (m, n), [[s * x for x in ra] for ra in a])
        check(A.transpose(), (n, m), [[a[i][j] for i in range(m)] for j in range(n)])
        check(A.hstack(D), (m, n + k), [ra + rd for ra, rd in zip(a, d)])
        kronecker = [
            [a[i][p] * c[j][q] for p in range(n) for q in range(k)]
            for i in range(m)
            for j in range(n)
        ]
        check(kron(A, C), (m * n, n * k), kronecker)
        columns = [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)]
        assert A.columns() == columns, f"trial {trial}"
        assert [A.column(j) for j in range(n)] == columns, f"trial {trial}"
        assert A.diagonal_entries() == [a[i][i] for i in range(min(m, n))], f"trial {trial}"
        # a sum that cancels equals the zero matrix, which stores no rows
        assert A + (-A) == SparseIntMatrix.zero(m, n), f"trial {trial}"
        assert (A - A).by_row == {}, f"trial {trial}"
    # from_rows drops zeros and empty rows, and checks the bounds like the constructor
    M = SparseIntMatrix.from_rows(3, 3, {0: {0: 0}, 1: {2: 5, 0: 0}, 2: {}})
    assert M.by_row == {1: {2: 5}} and M == SparseIntMatrix(3, 3, {(1, 2): 5})
    for rows in ({2: {0: 1}}, {-1: {0: 1}}, {0: {3: 1}}, {0: {-1: 1}}):
        with pytest.raises(DimensionMismatch):
            SparseIntMatrix.from_rows(2, 3, rows)


# ---------------------------------------------------------------------------
# the transforms, pinned: digests recorded when V and V^-1 were still dict
# matrices updated on every column operation
# ---------------------------------------------------------------------------

EXT2 = pathlib.Path(__file__).parent.parent / "bench" / "inputs" / "ext2-a9-b3.alg"


def _text(M):
    return f"{M.rows}x{M.cols}:{sorted(M.entries.items())}"


def _decomposition_text(M, X):
    """d, u, v, the kernel basis and the kernel coordinates of X (or the
    rejection) of M's Smith decomposition."""
    dec = smith_decomposition(M)
    try:
        coords = _text(dec.kernel_coords(X))
    except CompositionNonzero:
        coords = "rejected"
    parts = (dec.d, dec.u, dec.v, dec.kernel_basis())
    return "|".join([_text(A) for A in parts] + [coords, str(dec.rank)])


def _generators_text(M):
    d, P, Q = smith_generators(M)
    return f"{d}|{_text(P)}|{_text(Q)}"


def _factors_text(M):
    cleared = []
    return f"{invariant_factors(M, cleared=cleared)}|{cleared}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_transforms_of_seeded_matrices_match_the_recorded_digest():
    rng = random.Random(20261024)
    lines = []
    for trial in range(120):
        M = random_matrix(rng) if trial % 2 else unit_heavy_matrix(rng)
        dec = smith_decomposition(M)
        # one kernel multiple (accepted) and one random matrix (mostly rejected)
        Z = SparseIntMatrix.from_dense(
            [[rng.randint(-3, 3) for _ in range(2)] for _ in range(M.cols - dec.rank)], 2
        )
        X = SparseIntMatrix.from_dense(
            [[rng.randint(-2, 2) for _ in range(2)] for _ in range(M.cols)], 2
        )
        lines.append(_decomposition_text(M, dec.kernel_basis() @ Z))
        lines.append(_decomposition_text(M, X))
        lines.append(_generators_text(M))
        lines.append(_factors_text(M))
    assert _digest(lines) == "a4cb8d023110fc313bbf9fd179090c8ce953fbb4a84a50128b761b27729264b8"


def test_transforms_of_ext2_cyclic_differentials_match_the_recorded_digest():
    C = cyclic_bundle(load_algebra(EXT2.read_text()), 10).total
    lines = []
    skip = []
    for n in reversed(C.degrees()):
        lines.append(_decomposition_text(C.diff(n), C.diff(n + 1)))
        lines.append(_generators_text(C.diff(n + 1)))
        cleared = []
        lines.append(f"{invariant_factors(C.diff(n), skip, cleared)}|{cleared}")
        skip = cleared
    assert _digest(lines) == "432effecb135d4f3f2f2e0c954ea1eeb1a8474538efb4b3dc51efd6d8d860d42"


# ---------------------------------------------------------------------------
# the core pivot search: per-row minima against the full scan
# ---------------------------------------------------------------------------


class FullScanReducer(_Reducer):
    """The reducer with the full-scan core pivot search, counting the
    searches whose least |entry| occurs more than once and the unit pivots
    taken after the first core step."""

    ties = late_units = 0

    def _least_pivot(self):
        pos = least_pivot_reference(self)
        if pos is not None:
            least = abs(self.rows[pos[0]][pos[1]])
            values = [v for i in self.live for v in self.rows[i].values()]
            self.ties += sum(abs(v) == least for v in values) > 1
        return pos

    def _unit_pivot(self):
        pos = super()._unit_pivot()
        self.late_units += pos is not None and self.cleared is not None
        return pos


def core_matrix(rng):
    """Shaped like a gr-check core: powers of 3 with repeated absolute
    values, and values such as 2, 8 and 10 whose centered remainders against
    3 and 9 are units, so that unit pivots appear after core steps."""
    m, n = rng.randint(1, 16), rng.randint(1, 20)
    values = (3, -3, 9, -9, 27, -27, 2, -2, 8, -8, 10) + (1, -1) * (rng.random() < 0.5)
    density = rng.uniform(0.15, 0.5)
    entries = {
        (i, j): rng.choice(values)
        for i in range(m)
        for j in range(n)
        if rng.random() < density
    }
    return SparseIntMatrix(m, n, entries)


def test_core_pivots_match_the_full_scan():
    rng = random.Random(20261019)
    matrices = [core_matrix(rng) for _ in range(150)]
    # the comparison's own relation matrices on Z/27 at q = 2 and 3
    for q in (2, 3):
        for k in range(-3 * (q + 1), 1):
            T = cyclic_bar(adic_filtration(3, 3), q, k)
            matrices.append(T.presentation.relations.hstack(T.incoming))
    ties = late_units = 0
    for t, M in enumerate(matrices):
        for logged in (None, "rows", "both"):
            w, ref = _Reducer(M, logged), FullScanReducer(M, logged)
            w.reduce()
            ref.reduce()
            assert w.pivots == ref.pivots, (t, logged)
            assert (w.ops, w.col_ops) == (ref.ops, ref.col_ops), (t, logged)
            assert (w.diag, w.cleared) == (ref.diag, ref.cleared), (t, logged)
            assert (w.row_order, w.col_order) == (ref.row_order, ref.col_order), (t, logged)
        ties += ref.ties
        late_units += ref.late_units
    # the cases the tie rule and the touched-row refresh exist for do occur
    assert ties > 100 and late_units > 100, (ties, late_units)
