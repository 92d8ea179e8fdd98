"""The group tier of homology: `homology_groups` and the tables built on it.

A planted-answer property test builds complexes whose homology is known by
construction, and two counting tests pin down that a table reduces each
differential once, without transforms, and checks its degrees first.
Exactness checks on Smith-form presentations are compared node by node
with the full-kernel-basis reference on planted cone sequences, exact
ones and ones with a scaled map.  The presentations themselves are
compared degree by degree with the per-degree reference, whose two
reductions per degree the complex's relation decompositions replace by
one, and a counting test holds them to that one.
Clearing is checked against reducing each differential alone and against
the dense oracle, on planted complexes whose unit pivots appear only by
fill-in after a core step and on the cone of Z/19^3 -> Z/19^2.  The
bottom-up route for periodic complexes is checked the same way, on random
periodic complexes, the tower cones and the ext2 Morse cyclic complex,
and two hand-built complexes hold its entry test: one whose leading rows
reach past degree n - 2's leading columns, one whose trailing block is not
d_{n-2}.  The planted complexes also drive property tests of the two total-complex
constructions, `tensor` (the Kunneth formula) and `mapping_cone` (the cone
of an identity is acyclic, with an exact long exact sequence).
"""

import random
from itertools import accumulate
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cychom import complexes, intlin
from cychom.complexes import (
    Bicomplex,
    ChainComplex,
    ChainMap,
    cone_les_check,
    exact_sequence_check,
    homology,
    homology_groups,
    homology_presentation,
    mapping_cone,
    tensor,
    total_complex,
)
from cychom.cyclic import cyclic_bundle, induced_cyclic_map, reduction_tower
from cychom.dga import DGAlgebra, reduction_map
from cychom.errors import CompositionNonzero, TruncationTooTight
from cychom.hochschild import HochschildComplex, critical_complex, first_slot_matching
from cychom.intlin import AbelianGroup, SparseIntMatrix

from oracles import (
    dense_smith_diagonal,
    exact_sequence_reference,
    homology_presentation_reference,
    identity_chain_map,
    quotient_invariants,
    to_dense,
)


# ---------------------------------------------------------------------------
# planted answers
# ---------------------------------------------------------------------------

# a Smith diagonal: cumulative products of small factors, so each entry
# divides the next; factors of 1 plant unit invariant factors
smith_chains = st.lists(st.integers(1, 4), max_size=3).map(lambda fs: list(accumulate(fs, mul)))


def _unimodular(n, ops):
    """P and P^-1 as dense lists, P a product of elementary row operations.

    An op (k, j, c) adds c * row j to row k, or negates row k when k == j.
    """
    P = [[int(r == c) for c in range(n)] for r in range(n)]
    Pinv = [row[:] for row in P]
    for k, j, c in ops:
        k, j = k % n, j % n
        if k == j:
            P[k] = [-v for v in P[k]]
            for row in Pinv:
                row[k] = -row[k]
        else:
            P[k] = [a + c * b for a, b in zip(P[k], P[j])]
            for row in Pinv:
                row[j] -= c * row[k]
    return P, Pinv


def _matmul(A, B, rows, cols):
    inner = len(B)
    return [[sum(A[r][t] * B[t][c] for t in range(inner)) for c in range(cols)] for r in range(rows)]


@st.composite
def planted_complexes(draw):
    """(C, planted H_0..H_top, planted Smith diagonals of d_1..d_top).

    C_i = B_i (+) S_i (+) F_i in coordinates: D_i sends the k-th basis
    vector of S_i to chain[k] times the k-th one of B_{i-1}, so D_i vanishes
    on B_i and D_i D_{i+1} = 0.  H_i is Z^|F_i| plus the torsion of D_{i+1}.
    The differentials are then conjugated by random unimodular matrices,
    d_i = P_{i-1} D_i P_i^-1.
    """
    top = draw(st.integers(1, 4))
    chains = {i: draw(smith_chains) for i in range(1, top + 1)}
    chains[0] = chains[top + 1] = []
    free = [draw(st.integers(0, 2)) for _ in range(top + 1)]
    dims = [len(chains[i + 1]) + len(chains[i]) + free[i] for i in range(top + 1)]
    ops = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(-2, 2))
    P = [_unimodular(n, draw(st.lists(ops, max_size=8)) if n else []) for n in dims]
    diffs = {}
    for i in range(1, top + 1):
        D = [[0] * dims[i] for _ in range(dims[i - 1])]
        for k, d in enumerate(chains[i]):
            D[k][len(chains[i + 1]) + k] = d
        d_i = _matmul(_matmul(P[i - 1][0], D, dims[i - 1], dims[i]), P[i][1], dims[i - 1], dims[i])
        diffs[i] = SparseIntMatrix.from_dense(d_i, cols=dims[i])
    basis = {i: tuple(f"c{i}_{k}" for k in range(dims[i])) for i in range(top + 1)}
    C = ChainComplex(basis, diffs, 0, top + 1)
    planted = [AbelianGroup.from_diagonal(chains[i + 1], free[i]) for i in range(top + 1)]
    return C, planted, chains


@settings(max_examples=150, deadline=None)
@given(planted_complexes())
def test_homology_tiers_find_the_planted_groups(case):
    C, planted, chains = case
    top = len(planted) - 1
    assert homology_groups(C, range(top + 1)) == planted
    for i in range(top + 1):
        assert homology(C, i) == planted[i]
        assert homology_presentation(C, i).group == planted[i]
    # the dense oracle sees the planted Smith diagonals through the
    # conjugation, and the rank formula on its diagonals gives the groups
    oracle = [dense_smith_diagonal(to_dense(C.diff(i))) for i in range(top + 2)]
    assert oracle[1 : top + 1] == [chains[i] for i in range(1, top + 1)]
    for i in range(top + 1):
        free = C.dim(i) - len(oracle[i]) - len(oracle[i + 1])
        assert AbelianGroup.from_diagonal(oracle[i + 1], free) == planted[i]


def _cyclic_orders(G):
    """G as a list of cyclic orders, 0 standing for Z."""
    return [0] * G.free_rank + list(G.invariant_factors)


def _direct_sum(orders):
    """The sum of cyclic groups of the given orders, via the dense oracle."""
    cols = [[d * (i == k) for i in range(len(orders))] for k, d in enumerate(orders) if d]
    free, facs = quotient_invariants(len(orders), cols)
    return AbelianGroup(free, tuple(facs))


@settings(max_examples=100, deadline=None)
@given(planted_complexes(), planted_complexes())
def test_tensor_satisfies_kunneth(c_case, d_case):
    # H_n(C (x) D) = sum_{a+b=n} H_a (x) H_b + sum_{a+b=n-1} Tor(H_a, H_b), with
    # Z/x (x) Z/y = Z/gcd(x, y) and Tor(Z/x, Z/y) = Z/gcd(x, y) (0 for Z)
    (C, HC, _), (D, HD, _) = c_case, d_case

    def orders(H, i):
        return _cyclic_orders(H[i]) if 0 <= i < len(H) else []

    top = len(HC) + len(HD) - 1
    for n, got in enumerate(homology_groups(tensor(C, D), range(top + 1))):
        want = [gcd(x, y) for a in range(n + 1) for x in orders(HC, a) for y in orders(HD, n - a)]
        want += [
            gcd(x, y)
            for a in range(n)
            for x in orders(HC, a)
            for y in orders(HD, n - 1 - a)
            if x and y
        ]
        assert got == _direct_sum(want), n


@settings(max_examples=60, deadline=None)
@given(planted_complexes())
def test_cone_of_identity_is_acyclic_with_exact_sequence(case):
    C, planted, _ = case
    top = len(planted) - 1
    identity = identity_chain_map(C)
    cone = mapping_cone(identity)
    assert all(G.is_trivial() for G in homology_groups(cone, range(cone.max_degree)))
    report = cone_les_check(identity, range(1, top + 2))
    assert report.exact and len(report.checked_nodes) == 3 * top


NAMES = ("src", "tgt", "cone")


def _cone_sequence(f, scales):
    """The complexes of f's cone sequence and its three chain-level maps
    (f, y -> (0, y), (x, y) -> -x), each times its scale: scaling keeps
    every map a chain map, and with scales other than +-1 the sequence is
    usually not exact."""
    src, tgt, cone = f.source, f.target, mapping_cone(f)

    def cells(n, side):  # label (degree, 1, x) for a source cell, (n, 0, y) for a target cell
        return [i for i, (_, row, _) in enumerate(cone.labels(n)) if row == side]

    def incl(n):
        rows = {i: {j: 1} for j, i in enumerate(cells(n, 0))}
        return SparseIntMatrix(cone.dim(n), tgt.dim(n), rows)

    def proj(n):
        rows = {j: {i: -1} for j, i in enumerate(cells(n, 1))}
        return SparseIntMatrix(src.dim(n - 1), cone.dim(n), rows)

    maps = [
        lambda n, g=g, a=a: g(n).scale(a) for g, a in zip((f.component, incl, proj), scales)
    ]
    return (src, tgt, cone), maps


@st.composite
def planted_sequences(draw):
    """(complexes, maps, degrees, scales): the cone sequence of c times the
    identity of a planted complex, with each map scaled."""
    C, planted, _ = draw(planted_complexes())
    c = draw(st.integers(-2, 3))
    f = ChainMap(C, C, {n: SparseIntMatrix.identity(C.dim(n)).scale(c) for n in C.degrees()})
    scales = draw(st.tuples(*[st.sampled_from((1, 1, -1, 0, 2, 3))] * 3))
    complexes_, maps = _cone_sequence(f, scales)
    return complexes_, maps, range(1, len(planted) + 1), scales


def _check_against_reference(complexes_, maps, degrees):
    report = exact_sequence_check([X.presentation for X in complexes_], maps, NAMES, degrees)
    want = tuple((NAMES[k], n) for k, n in exact_sequence_reference(complexes_, maps, degrees))
    assert report.failures == want
    assert report.exact == (not want)
    return report


@settings(max_examples=120, deadline=None)
@given(planted_sequences())
def test_exactness_matches_the_full_kernel_basis_reference(case):
    complexes_, maps, degrees, scales = case
    report = _check_against_reference(complexes_, maps, degrees)
    assert len(report.checked_nodes) == 3 * (len(degrees) - 1)
    if all(a in (1, -1) for a in scales):
        assert report.exact  # the long exact sequence of a cone


def test_scaled_cone_sequences_fail_where_the_reference_fails():
    # H_0 = Z/4 and H_1 = Z/3 (+) Z: the cone of the identity is acyclic, so
    # exactness needs H(src) -> H(tgt) to be an isomorphism.  Doubling it
    # leaves the cokernel Z/2 at H_1(tgt) and the kernel Z/2 at H_0(src),
    # and is injective on H_1(src)
    C = ChainComplex(
        {0: ("a",), 1: ("b", "c", "e"), 2: ("g",)},
        {1: SparseIntMatrix.from_dense([[4, 0, 0]]), 2: SparseIntMatrix.from_dense([[0], [3], [0]])},
        0,
        3,
    )
    identity = identity_chain_map(C)
    report = _check_against_reference(*_cone_sequence(identity, (2, 1, 1)), range(1, 3))
    assert report.failures == (("tgt", 1), ("src", 0))
    assert _check_against_reference(*_cone_sequence(identity, (1, 1, 1)), range(1, 3)).exact
    # the cone of 2 * id has homology, which a zero connecting map leaves
    # outside the image of H(tgt)
    double = ChainMap(C, C, {n: SparseIntMatrix.identity(C.dim(n)).scale(2) for n in C.degrees()})
    assert _check_against_reference(*_cone_sequence(double, (1, 1, 1)), range(1, 3)).exact
    assert not _check_against_reference(*_cone_sequence(double, (1, 1, 0)), range(1, 3)).exact


def test_homology_groups_keeps_the_requested_order():
    C = ChainComplex(
        {0: ("a",), 1: ("b", "c"), 2: ("e",)},
        {1: SparseIntMatrix.from_dense([[6, 0]]), 2: SparseIntMatrix.from_dense([[0], [0]])},
        0,
        3,
    )
    assert homology_groups(C, [2, 0, 1, 0]) == [
        AbelianGroup.free(1),
        AbelianGroup.cyclic(6),
        AbelianGroup.free(1),
        AbelianGroup.cyclic(6),
    ]
    assert homology_groups(C, []) == []


# ---------------------------------------------------------------------------
# one reduction per differential, no transforms
# ---------------------------------------------------------------------------


def ext2(a=9, b=3):
    """Exterior DG algebra on x, y in degree 1: dx = a, dy = b."""
    return DGAlgebra(
        basis={0: ("1",), 1: ("x", "y"), 2: ("xy",)},
        mult={
            ("1", "1"): {"1": 1},
            ("1", "x"): {"x": 1}, ("x", "1"): {"x": 1},
            ("1", "y"): {"y": 1}, ("y", "1"): {"y": 1},
            ("1", "xy"): {"xy": 1}, ("xy", "1"): {"xy": 1},
            ("x", "x"): {}, ("y", "y"): {},
            ("x", "y"): {"xy": 1}, ("y", "x"): {"xy": -1},
            ("x", "xy"): {}, ("xy", "x"): {},
            ("y", "xy"): {}, ("xy", "y"): {},
            ("xy", "xy"): {},
        },
        diff={"x": {"1": a}, "y": {"1": b}, "xy": {"y": a, "x": -b}},
        unit="1",
    )


@pytest.fixture
def reductions(monkeypatch):
    """Count the reductions `complexes` makes, by the names it looks up,
    forwarding every argument."""
    calls = {"invariant_factors": 0, "smith_decomposition": 0}
    for name in calls:
        original = getattr(intlin, name)

        def counted(M, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(M, *args, **kwargs)

        monkeypatch.setattr(complexes, name, counted)
    return calls


def test_tables_reduce_each_differential_once(reductions):
    A = ext2()
    groups = homology_groups(cyclic_bundle(A, 13).total, range(14))
    assert len(groups) == 14
    assert 1 <= reductions["invariant_factors"] <= 13 + 2
    assert reductions["smith_decomposition"] == 0

    reductions["invariant_factors"] = 0
    groups = homology_groups(HochschildComplex(A, 14).total, range(15))
    assert len(groups) == 15
    assert 1 <= reductions["invariant_factors"] <= 14 + 2
    assert reductions["smith_decomposition"] == 0


def test_homology_groups_checks_degrees_before_reducing(reductions):
    C = ChainComplex(
        {0: ("a",), 1: ("b",), 2: ("c",)},
        {1: SparseIntMatrix.from_dense([[4]])},
        0,
        2,
    )
    # degree 2 needs chains in degree 3; degree -1 lies below the window
    for bad in ([0, 1, 2], [-1, 0]):
        with pytest.raises(TruncationTooTight):
            homology_groups(C, bad)
    assert set(reductions.values()) == {0}


def test_presentations_reduce_each_degree_once(reductions):
    # degree i's kernel is read off degree i - 1's relation decomposition,
    # so degrees 0..12 take d_0 and R_0..R_12; the per-degree reference
    # makes two reductions in each degree
    C = cyclic_bundle(ext2(), 13).total
    groups = [C.presentation(i).group for i in range(13)]
    assert groups == homology_groups(C, range(13))
    assert reductions["smith_decomposition"] <= 13 + 1


# ---------------------------------------------------------------------------
# presentations against the per-degree reference
# ---------------------------------------------------------------------------


def _check_presentations(C, degrees):
    """Each degree's presentation against the per-degree reference: the
    same group and relations, cycles with unit coordinates, and the
    reference's cycles generate it.  Returns the largest lift entry's bits."""
    bits = 0
    for i in degrees:
        hp, ref = homology_presentation(C, i), homology_presentation_reference(C, i)
        assert (hp.group, hp.relations) == (ref.group, ref.relations), i
        s = hp.relations.rows
        assert hp.coords_of_cycles(hp.cycles) == SparseIntMatrix.identity(s), i
        assert hp.generated_by(hp.coords_of_cycles(ref.cycles)), i
        assert ref.generated_by(ref.coords_of_cycles(hp.cycles)), i
        bits = max([bits] + [abs(v).bit_length() for v in hp.cycles.entries.values()])
    return bits


@settings(max_examples=100, deadline=None)
@given(planted_complexes())
def test_presentations_match_the_per_degree_reference(case):
    C, planted, _ = case
    _check_presentations(C, range(len(planted)))


def test_tower_presentations_match_the_reference_without_growing_lifts():
    # the cycle lifts' largest entries, as read when each degree reduced d_i
    # and then its boundaries' coordinates: 242 bits on the towers of
    # Z/17^3 and Z/19^3, 346 on the complexes of Z/19^3 -> Z/19^2
    for p in (17, 19):
        bits = max(
            _check_presentations(bundle.total, range(2 * p))
            for _, bundle, _ in reduction_tower(p, 3, 2 * p)
        )
        assert bits <= 242, p
    F = induced_cyclic_map(reduction_map(19 ** 3, 19 ** 2), 38)
    bits = max(
        _check_presentations(C, range(C.min_degree, C.max_degree))
        for C in (F.source, F.target, mapping_cone(F))
    )
    assert bits <= 347


def test_morse_cyclic_presentations_match_the_reference():
    A = ext2()
    _check_presentations(critical_complex(first_slot_matching(A), 13, cyclic=True), range(14))


def test_a_non_cycle_two_degrees_up_is_rejected():
    # b -> 2a, e -> 3c, g -> 5f: H_2 = <f> / <5f>, read on a kernel that
    # comes from d_0 through R_0 and R_1, and e is not a cycle
    C = ChainComplex(
        {0: ("a",), 1: ("b", "c"), 2: ("e", "f"), 3: ("g",)},
        {
            1: SparseIntMatrix.from_dense([[2, 0]]),
            2: SparseIntMatrix.from_dense([[0, 0], [3, 0]]),
            3: SparseIntMatrix.from_dense([[0], [5]]),
        },
        0,
        4,
    )
    hp = homology_presentation(C, 2)
    assert hp.group == AbelianGroup.cyclic(5)
    f = SparseIntMatrix.from_dense([[0], [1]])
    unit = hp.coords_of_cycles(f)[0, 0]
    assert unit in (1, 4) and hp.coords_of_cycles(f.scale(7))[0, 0] == 7 * unit % 5
    with pytest.raises(CompositionNonzero):
        hp.coords_of_cycles(SparseIntMatrix.from_dense([[1], [0]]))


# ---------------------------------------------------------------------------
# clearing: each differential's Smith diagonal, as if reduced alone
# ---------------------------------------------------------------------------

# blocks of SL_2(Z) with no unit entry, nor in their inverses [[d, -b], [-c, a]]
UNITLESS_SL2 = ((2, 3, 3, 5), (3, 2, 4, 3), (2, 5, 3, 8), (3, 4, 5, 7), (4, 3, 5, 4))


@st.composite
def hidden_unit_complexes(draw):
    """Planted complexes with their unit pivots hidden behind unitless blocks.

    Each C_n gets a change of basis Q_n: blocks from UNITLESS_SL2 on
    disjoint pairs of basis vectors, so d_n becomes Q_{n-1} d_n Q_n^-1.  A
    column +-e_k of d_{n+1} turns into a pair of coprime non-units, which
    the reducer makes into a unit pivot only by fill-in after a core step.
    """
    C, planted, chains = draw(planted_complexes())
    Q, Qinv = {}, {}
    for n in range(C.max_degree + 1):
        dim = C.dim(n)
        Q[n] = [[int(r == c) for c in range(dim)] for r in range(dim)]
        Qinv[n] = [row[:] for row in Q[n]]
        order = draw(st.permutations(range(dim)))
        for j, k in zip(order[0::2], order[1::2]):
            a, b, c, d = draw(st.sampled_from(UNITLESS_SL2))
            Q[n][j][j], Q[n][j][k], Q[n][k][j], Q[n][k][k] = a, b, c, d
            Qinv[n][j][j], Qinv[n][j][k], Qinv[n][k][j], Qinv[n][k][k] = d, -b, -c, a
    diffs = {}
    for n in C.differential:
        rows, cols = C.dim(n - 1), C.dim(n)
        d_n = _matmul(_matmul(Q[n - 1], to_dense(C.diff(n)), rows, cols), Qinv[n], rows, cols)
        diffs[n] = SparseIntMatrix.from_dense(d_n, cols=cols)
    return ChainComplex(C.basis, diffs, C.min_degree, C.max_degree), planted, chains


def _groups_reducing_alone(C, degrees):
    """H_i for i in degrees, from each differential's own invariant factors,
    which must equal the dense oracle's Smith diagonal."""
    factors = {}
    for d in sorted({d for i in degrees for d in (i, i + 1)}):
        factors[d] = intlin.invariant_factors(C.diff(d))
        assert factors[d] == dense_smith_diagonal(to_dense(C.diff(d))), d
    return [
        AbelianGroup.from_diagonal(factors[i + 1], C.dim(i) - len(factors[i]) - len(factors[i + 1]))
        for i in degrees
    ]


@settings(max_examples=150, deadline=None)
@given(hidden_unit_complexes())
def test_clearing_matches_reducing_each_differential_alone(case):
    C, planted, _ = case
    degrees = range(len(planted))
    assert homology_groups(C, degrees) == _groups_reducing_alone(C, degrees) == planted


def test_units_made_by_fill_in_are_not_cleared():
    # (2, 3): the core step on 2 leaves the remainder 1 in row 1, which then
    # retires as a unit pivot; d_1 = (3, -2) is not zero in column 1, and
    # leaving that column out would give H_0 = Z/3.  In (3, 1) the unit
    # retires first, and d_1 = (1, -3) may lose column 1.
    hidden, plain = SparseIntMatrix.from_dense([[2], [3]]), SparseIntMatrix.from_dense([[3], [1]])
    for d_2, rows in ((hidden, []), (plain, [1])):
        cleared = []
        assert intlin.invariant_factors(d_2, (), cleared) == [1] and cleared == rows
    for d_2, d_1 in ((hidden, [[3, -2]]), (plain, [[1, -3]])):
        C = ChainComplex(
            {0: ("a",), 1: ("b", "c"), 2: ("e",)}, {1: SparseIntMatrix.from_dense(d_1), 2: d_2}, 0, 3
        )
        assert homology_groups(C, [0, 1, 2]) == [AbelianGroup.trivial()] * 3


def _cone_by_blocks(f):
    """f's cone laid out as the total complex of the source in row 1 and the
    target in row 0: each degree lists the source block, then the target
    block, so the trailing block of d_n is not d_{n-2} and homology_groups
    reduces it top-down, with clearing."""
    src, tgt = f.source, f.target
    basis = {(n, 1): src.labels(n) for n in src.degrees()}
    basis.update({(n, 0): tgt.labels(n) for n in tgt.degrees()})
    horizontal = {(n, 1): -M for n, M in src.differential.items()}
    horizontal.update({(n, 0): M for n, M in tgt.differential.items()})
    vertical = {(n, 1): M for n, M in f.components.items()}
    bounds = (min(src.min_degree + 1, tgt.min_degree), max(src.max_degree + 1, tgt.max_degree))
    return total_complex(Bicomplex(basis, vertical, horizontal), *bounds)


def test_clearing_on_the_cone_of_a_reduction():
    # the cone of Z/19^3 -> Z/19^2 through degree 38, source block first in
    # each degree: most unit pivots come after a core step, and leaving out
    # every pivot row of d_38 gives d_37 rank 18 instead of 19
    F = induced_cyclic_map(reduction_map(19 ** 3, 19 ** 2), 38)
    cone = _cone_by_blocks(F)
    degrees = range(39)
    assert not complexes._reduces_bottom_up(cone, list(range(40)))
    assert homology_groups(cone, degrees) == _groups_reducing_alone(cone, degrees)
    assert homology_groups(mapping_cone(F), degrees) == homology_groups(cone, degrees)


def test_hochschild_table_clears_columns(monkeypatch):
    skipped = []
    original = complexes.invariant_factors

    def spy(M, skip_columns=(), cleared=None):
        skipped.append(len(skip_columns))
        return original(M, skip_columns, cleared)

    monkeypatch.setattr(complexes, "invariant_factors", spy)
    H = HochschildComplex(ext2(), 9)
    assert homology_groups(H.total, range(10)) == _groups_reducing_alone(H.total, range(10))
    assert sum(skipped) > 0


# ---------------------------------------------------------------------------
# bottom-up: a periodic complex reduced degree n over degree n - 2
# ---------------------------------------------------------------------------


def _block_diagonal(A, B, a_cols, b_cols):
    return [row + [0] * b_cols for row in A] + [[0] * a_cols + row for row in B]


def _periodic_complex(L, top, rng):
    """(C, H_0..H_{top-1}) for C_n = L_n (+) C_{n-2} through degree top.

    C starts as the sum of the shifted copies L[2t], d_n = a_n (+) d_{n-2}
    for a_n the differential of L, and is then conjugated by Q_n = [[P_n,
    Y_n], [0, Q_{n-2}]], P_n unimodular and Y_n random: Q_{n-1} d_n Q_n^-1
    still has d_{n-2}'s conjugate as its trailing block, and Y_n lets its
    top-right block X reach columns past the leading ones of degree n - 2.
    H_i(C) is the sum of H_{i-2t}(L) over t >= 0.
    """
    lead = {n: L.dim(n) for n in range(-3, top + 1)}
    dim = {n: 0 for n in range(-3, 0)}
    D, Q, Qinv = {}, {-2: [], -1: []}, {-2: [], -1: []}
    for n in range(top + 1):
        dim[n] = lead[n] + dim[n - 2]
        a = to_dense(L.diff(n)) if lead[n - 1] else []
        D[n] = _block_diagonal(a, D.get(n - 2, []), lead[n], dim[n - 2])
        ops = [(rng.randrange(9), rng.randrange(9), rng.choice((-2, -1, 1, 2))) for _ in range(4)]
        P, Pinv = _unimodular(lead[n], ops) if lead[n] else ([], [])
        Y = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim[n - 2])] for _ in range(lead[n])]
        corner = _matmul(_matmul(Pinv, Y, lead[n], dim[n - 2]), Qinv[n - 2], lead[n], dim[n - 2])
        Q[n] = [p + y for p, y in zip(P, Y)] + [[0] * lead[n] + row for row in Q[n - 2]]
        Qinv[n] = [p + [-v for v in c] for p, c in zip(Pinv, corner)]
        Qinv[n] += [[0] * lead[n] + row for row in Qinv[n - 2]]
    diffs = {
        n: SparseIntMatrix.from_dense(
            _matmul(_matmul(Q[n - 1], D[n], dim[n - 1], dim[n]), Qinv[n], dim[n - 1], dim[n]),
            cols=dim[n],
        )
        for n in range(1, top + 1)
    }
    basis = {n: [f"c{n}_{k}" for k in range(dim[n])] for n in range(top + 1)}
    C = ChainComplex(basis, diffs, 0, top)
    top_L = max(L.degrees(), default=-1)

    def H(i):
        orders = [_cyclic_orders(L_groups[j]) for j in range(i, -1, -2) if j <= top_L]
        return _direct_sum([d for o in orders for d in o])

    L_groups = homology_groups(L, range(top_L + 1)) if top_L >= 0 else []
    return C, [H(i) for i in range(top)]


@st.composite
def periodic_complexes(draw):
    """(C, planted H_0..H_{top-1}): a periodic complex over a planted one."""
    L, _, _ = draw(planted_complexes())
    top = draw(st.integers(2, 14))
    return _periodic_complex(L, top, draw(st.randoms(use_true_random=False)))


def _bottom_up(C, degrees):
    """(homology_groups(C, degrees) with rule (c) lifted, whether the
    bottom-up route ran): rules (a) and (b) alone decide the route."""
    ran = []
    original = complexes._bottom_up_factors

    def spy(C, read):
        ran.append(read)
        return original(C, read)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(complexes, "BOTTOM_UP_SHARE", float("inf"))
        m.setattr(complexes, "_bottom_up_factors", spy)
        groups = homology_groups(C, degrees)
    return groups, bool(ran)


def _takes_bottom_up(C, degrees):
    """Does homology_groups(C, degrees) take the bottom-up route as it stands?"""
    return complexes._reduces_bottom_up(C, sorted({d for i in degrees for d in (i, i + 1)}))


@settings(max_examples=60, deadline=None)
@given(periodic_complexes())
def test_bottom_up_matches_each_differential_reduced_alone(case):
    C, planted = case
    degrees = range(len(planted))
    groups, ran = _bottom_up(C, degrees)
    assert ran or not C.basis
    assert groups == _groups_reducing_alone(C, degrees) == planted
    assert homology_groups(C, degrees) == planted


@pytest.mark.parametrize("p", [3, 5, 7])
def test_tower_cones_reduce_bottom_up(p):
    # the cones of Z/p^n -> Z/p^{n-1}, n = 2, 3, as reproduce-paper builds them
    for n, _, F in reduction_tower(p, 3, 2 * p):
        if F is None:
            continue
        cone = mapping_cone(F)
        degrees = range(1, min(F.source.max_degree - 1, F.target.max_degree - 2) + 2)
        groups, ran = _bottom_up(cone, degrees)
        assert ran, n
        assert groups == _groups_reducing_alone(cone, degrees) == homology_groups(cone, degrees)


def test_morse_cyclic_complex_reduces_bottom_up():
    # flows can run from column 2 into column 0, so X reaches past the leading
    # columns of degree n - 2
    C = critical_complex(first_slot_matching(ext2()), 14, cyclic=True)
    degrees = range(15)
    groups, ran = _bottom_up(C, degrees)
    assert ran
    reference = [intlin.invariant_factors(C.diff(n)) for n in range(16)]
    assert groups == [
        AbelianGroup.from_diagonal(
            reference[i + 1], C.dim(i) - len(reference[i]) - len(reference[i + 1])
        )
        for i in degrees
    ]
    assert homology_groups(C, degrees) == groups


def _small_periodic(seed):
    """A periodic complex through degree 20 over L_n = (x, y), y -> m_n x
    in degrees 0..20: the leading cells are a sixth of the complex."""
    factors = (2, 3, 0, 4, 6, 1)
    L = ChainComplex(
        {n: ("x", "y") for n in range(21)},
        {n: SparseIntMatrix(2, 2, {0: {1: factors[n % 6]}}) for n in range(1, 21)},
        0,
        21,
    )
    return _periodic_complex(L, 20, random.Random(seed))


def test_x_reaching_a_trailing_column_of_degree_n_minus_2():
    C, planted = _small_periodic(7)
    degrees = range(len(planted))
    # somewhere d_n's leading rows hit a column of C_{n-2} past its leading cells
    reach = [
        n
        for n in range(4, 21)
        for r, row in C.diff(n).by_row.items()
        if r < C.dim(n - 1) - C.dim(n - 3)
        for c in row
        if c >= C._split(n)[0] + C._split(n - 2)[0]
    ]
    assert reach
    assert _takes_bottom_up(C, degrees)
    assert homology_groups(C, degrees) == _groups_reducing_alone(C, degrees) == planted


@pytest.mark.parametrize("change", ["reverse", "negate"])
def test_a_trailing_block_other_than_d_n_minus_2_keeps_the_top_down_route(change):
    C, planted = _small_periodic(11)
    degrees = range(len(planted))
    assert _takes_bottom_up(C, degrees)
    # change the basis of the trailing cells of degree 9, so the groups stay
    # but d_9's trailing block is no longer d_7 (and d_11's is d_9 as it
    # was): reverse them, or negate one whose column meets d_9's trailing
    # rows, which keeps every entry in its place and changes only a sign
    m, k = 9, C._split(9)[0]
    d_m, d_up = to_dense(C.diff(m)), to_dense(C.diff(m + 1))
    order, signs = list(range(C.dim(m))), [1] * C.dim(m)
    if change == "reverse":
        order[k:] = reversed(order[k:])
    else:
        j = C.dim(m - 1) - C.dim(m - 3)
        signs[next(c for c in range(k, C.dim(m)) if any(row[c] for row in d_m[j:]))] = -1
    diffs = dict(C.differential)
    diffs[m] = SparseIntMatrix.from_dense([[row[c] * signs[c] for c in order] for row in d_m])
    diffs[m + 1] = SparseIntMatrix.from_dense([[v * signs[r] for v in d_up[r]] for r in order])
    basis = dict(C.basis)
    basis[m] = [C.labels(m)[c] for c in order]
    P = ChainComplex(basis, diffs, C.min_degree, C.max_degree)
    assert P._split(m) is None
    assert not _takes_bottom_up(P, degrees)
    assert homology_groups(P, degrees) == _groups_reducing_alone(P, degrees) == planted
