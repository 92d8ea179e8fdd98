import contextlib
import dataclasses
import io
import itertools
import os
import random
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cychom.errors import InvalidParams, ParseError
from cychom import cli, filtered
from cychom.filtered import (
    FilteredAbelianGroup,
    FilteredRing,
    PresentedGroup,
    adic_filtration,
    cyclic_bar,
    graded_comparison,
    graded_piece,
    load_filtered_ring,
    multi_tensor,
)
from cychom.intlin import AbelianGroup, SparseIntMatrix, cokernel, lattice_contains

from oracles import (
    FullTensorLevel,
    clip_map,
    degeneracy_map_reference,
    face_map_reference,
    fixed_points_check,
    graded,
    graded_comparison_reference,
    graded_reference,
    kron_tensor_presentation,
    quotient_invariants,
    rotation,
    tensor_transition_reference,
    to_dense,
)


def group_of(level):
    return level.group()


def as_group(pres):
    cols = [
        [pres.relations[(r, c)] for r in range(pres.num_generators)]
        for c in range(pres.relations.cols)
    ]
    free, facs = quotient_invariants(pres.num_generators, cols)
    return AbelianGroup(free, tuple(facs))


def test_presented_group_basics():
    P = PresentedGroup.cyclic(6)
    assert P.group() == AbelianGroup.cyclic(6)
    assert PresentedGroup.free(2).group() == AbelianGroup.free(2)
    # multiplication by 3: Z/6 -> Z/6 is a hom, by 1: Z/6 -> Z/4 is not
    three = SparseIntMatrix.from_dense([[3]])
    assert P.admits_hom(three, P)
    assert not P.admits_hom(SparseIntMatrix.from_dense([[1]]), PresentedGroup.cyclic(4))
    assert P.homs_equal(three, SparseIntMatrix.from_dense([[9]]), P)


def random_presented_group(rng):
    """0-3 generators and 0-3 relation columns, zero columns included."""
    gens, cols = rng.randint(0, 3), rng.randint(0, 3)
    entries = {
        (i, j): rng.choice((-3, -2, -1, 1, 2, 3))
        for i in range(gens)
        for j in range(cols)
        if rng.random() < 0.5
    }
    return PresentedGroup(gens, SparseIntMatrix(gens, cols, entries))


def test_tensor_presentation_matches_kronecker_reference():
    # 1-4 factors in a sum of one spot: index arithmetic must give the
    # Kronecker matrix exactly
    rng = random.Random(0)
    for _ in range(200):
        parts = [random_presented_group(rng) for _ in range(rng.randint(1, 4))]
        gens, cols, entries = kron_tensor_presentation(parts)
        pres = filtered._spot_sum([()], lambda _: parts)[1]
        assert pres.num_generators == gens
        assert pres.relations == SparseIntMatrix(gens, cols, entries)


def test_adic_filtration_shape():
    M = adic_filtration(3, 3)
    assert M.depth() == 3
    assert M.piece(0).group() == AbelianGroup.cyclic(27)
    assert M.piece(-1).group() == AbelianGroup.cyclic(9)
    assert M.piece(-2).group() == AbelianGroup.cyclic(3)
    assert M.piece(-3).group().is_trivial()
    assert M.piece(5).group() == AbelianGroup.cyclic(27)  # constant above 0
    assert to_dense(M.group.transition(-1)) == [[3]]
    with pytest.raises(InvalidParams):
        adic_filtration(4, 2)
    with pytest.raises(InvalidParams):
        adic_filtration(3, 2, exponent=3)


def test_adic_filtration_larger_exponent():
    # ideal (p^2) inside Z/p^3: depth ceil(3/2) = 2
    M = adic_filtration(5, 3, exponent=2)
    assert M.depth() == 2
    assert M.piece(-1).group() == AbelianGroup.cyclic(5)
    assert M.piece(-2).group().is_trivial()


def test_filtered_group_validation():
    pieces = {0: PresentedGroup.cyclic(4), -1: PresentedGroup.cyclic(2)}
    good = {-1: SparseIntMatrix.from_dense([[2]])}
    FilteredAbelianGroup(pieces, good)
    with pytest.raises(InvalidParams):
        # x -> x is not a hom Z/2 -> Z/4
        FilteredAbelianGroup(pieces, {-1: SparseIntMatrix.from_dense([[1]])})
    with pytest.raises(InvalidParams):
        FilteredAbelianGroup({-1: PresentedGroup.cyclic(2)}, {})
    with pytest.raises(InvalidParams):
        FilteredAbelianGroup(pieces, {})


def test_filtered_ring_validation_catches_bad_product():
    pieces = {0: PresentedGroup.cyclic(4), -1: PresentedGroup.cyclic(2)}
    group = FilteredAbelianGroup(pieces, {-1: SparseIntMatrix.from_dense([[2]])})
    unit = SparseIntMatrix.from_dense([[1]])
    ok = {
        (0, 0): SparseIntMatrix.from_dense([[1]]),
        (0, -1): SparseIntMatrix.from_dense([[1]]),
        (-1, 0): SparseIntMatrix.from_dense([[1]]),
        # target piece(-2) is trivial
        (-1, -1): SparseIntMatrix.zero(0, 1),
    }
    FilteredRing(group, ok, unit)
    bad = dict(ok)
    bad[(0, -1)] = SparseIntMatrix.from_dense([[0]])  # breaks the unit law
    with pytest.raises(InvalidParams):
        FilteredRing(group, bad, unit)
    with pytest.raises(InvalidParams):
        FilteredRing(group, {(0, 0): ok[(0, 0)]}, unit)  # missing products


def test_filtered_tensor_small_orders():
    # (Z/p^2, p-adic) tensor itself: level 0 gives Z/p^2, level -1 the
    # pushout of p Z/p^2 (x) Z/p^2 <- pZ (x) pZ -> Z/p^2 (x) p Z/p^2
    X = adic_filtration(3, 2).group
    assert group_of(multi_tensor([X, X], 0)) == AbelianGroup.cyclic(9)
    assert group_of(multi_tensor([X, X], -1)) == AbelianGroup(0, (3, 3))
    # level -2 is the single spot (-1, -1): Z/3 (x) Z/3
    assert group_of(multi_tensor([X, X], -2)) == AbelianGroup.cyclic(3)
    # every deeper spot touches the trivial piece
    assert group_of(multi_tensor([X, X], -3)).is_trivial()
    # constancy above 0
    assert group_of(multi_tensor([X, X], 2)) == AbelianGroup.cyclic(9)


def test_tensor_transition_iso_above_zero():
    X = adic_filtration(3, 2).group
    a = multi_tensor([X, X], 0)
    b = multi_tensor([X, X], 1)
    # onto with matching invariants: an isomorphism
    assert cokernel(b.incoming.hstack(b.presentation.relations)).is_trivial()
    assert a.group() == b.group()


def test_multi_tensor_three_factors():
    X = adic_filtration(2, 2).group
    assert group_of(multi_tensor([X, X, X], 0)) == AbelianGroup.cyclic(4)
    assert group_of(multi_tensor([X, X, X], -6)).is_trivial()


def test_graded_pieces():
    M = adic_filtration(3, 2)
    assert as_group(graded_piece(M, 0)) == AbelianGroup.cyclic(3)
    assert as_group(graded_piece(M, -1)) == AbelianGroup.cyclic(3)
    assert as_group(graded_piece(M, -2)).is_trivial()
    assert as_group(graded_piece(M, 1)).is_trivial()
    G = graded(M)
    assert G.piece(0).group() == AbelianGroup(0, (3, 3))
    assert G.piece(-1).group() == AbelianGroup.cyclic(3)


def test_cyclic_bar_identities():
    # the graded ring has pieces with 0, 1 and 2 generators, so generator
    # multi-indices with more than one digit per slot are exercised
    for M in (adic_filtration(3, 2), graded(adic_filtration(3, 2))):
        check_cyclic_bar_identities(M)


def check_cyclic_bar_identities(M):
    # simplicial and cyclic identities as matrix identities mod relations:
    # the reference faces, degeneracies and rotation on the package's
    # tensor levels
    q, k = 2, -1
    Z2 = cyclic_bar(M, q, k)
    Z1 = cyclic_bar(M, q - 1, k)
    Z0 = cyclic_bar(M, q - 2, k)
    rel1 = Z1.presentation.relations
    rel0 = Z0.presentation.relations

    def eq(A, B, rel):
        return lattice_contains(rel, A + B.scale(-1))

    def face_map(src, tgt, i):
        return SparseIntMatrix(*face_map_reference(M, src, tgt, i))

    def degeneracy_map(src, tgt, i):
        return SparseIntMatrix(*degeneracy_map_reference(M, src, tgt, i))

    d = {i: face_map(Z2, Z1, i) for i in range(q + 1)}
    dd = {i: face_map(Z1, Z0, i) for i in range(q)}
    s = {i: degeneracy_map(Z1, Z2, i) for i in range(q)}
    # d_i d_j = d_{j-1} d_i for i < j
    for i in range(q):
        for j in range(i + 1, q + 1):
            assert eq(dd[i] @ d[j], dd[j - 1] @ d[i], rel0), (i, j)
    # d_i s_j identities
    ss = {i: degeneracy_map(Z0, Z1, i) for i in range(q - 1)}
    for j in range(q):
        for i in range(q + 1):
            lhs = d[i] @ s[j]
            if i == j or i == j + 1:
                rhs = SparseIntMatrix.identity(lhs.rows)
            elif i < j:
                rhs = ss[j - 1] @ dd[i]
            else:
                rhs = ss[j] @ dd[i - 1]
            assert eq(lhs, rhs, rel1), (i, j)
    # rotation: d_i t = t d_{i-1} for 0 < i <= q, and t^(q+1) = id
    t2, t1 = rotation(Z2.columns), rotation(Z1.columns)
    for i in range(1, q + 1):
        assert eq(d[i] @ t2, t1 @ d[i - 1], rel1), i
    power = SparseIntMatrix.identity(t2.rows)
    for _ in range(q + 1):
        power = t2 @ power
    assert eq(power, SparseIntMatrix.identity(t2.rows), Z2.presentation.relations)
    # degeneracy against rotation: s_i t = t s_{i-1} for i >= 1
    for i in range(1, q):
        assert eq(s[i] @ t1, t2 @ s[i - 1], Z2.presentation.relations)


def test_cyclic_bar_refuses_negative_degree():
    with pytest.raises(InvalidParams):
        cyclic_bar(adic_filtration(3, 1), -1, 0)


def test_graded_comparison_grid():
    rings = [adic_filtration(p, n) for p, n in ((2, 2), (3, 2), (2, 3))]
    rings.append(graded(adic_filtration(3, 2)))  # pieces of 0, 1, 2 generators
    for M in rings:
        m = M.depth()
        for q in range(3):
            for k in range(-(q + 1) * m - 1, 2):
                rep = graded_comparison(M, q, k)
                assert rep, (M.piece(0).num_generators, q, k, rep)


def test_graded_comparison_report_fields():
    rep = graded_comparison(adic_filtration(3, 2), 1, -1)
    assert rep.invariants_match and rep.map_is_iso and rep.rotation_compatible
    assert rep.lhs == rep.rhs


COMPARISON_RINGS = {
    **{
        f"{p}^{n}": (lambda p=p, n=n: adic_filtration(p, n))
        for p in (2, 3, 5, 7)
        for n in (2, 3)
    },
    "graded 3^2": lambda: graded(adic_filtration(3, 2)),
    "graded 3^3": lambda: graded(adic_filtration(3, 3)),
    "5^3 by p^2": lambda: adic_filtration(5, 3, 2),
    "text": lambda: load_filtered_ring(RING_TEXT),
}


@pytest.mark.parametrize("name", list(COMPARISON_RINGS))
def test_graded_comparison_matches_comparison_map_reference(name):
    # on the level's own generator index, the report says what the explicit
    # comparison map, its cokernel and the two rotations said
    M = COMPARISON_RINGS[name]()
    for q in range(4):
        for k in sweep_levels(M, q):
            got = dataclasses.asdict(graded_comparison(M, q, k))
            assert got == dataclasses.asdict(graded_comparison_reference(M, q, k)), (q, k)


def test_graded_comparison_fails_without_transition_relations(monkeypatch):
    # each slice is its whole piece: the image of the piece below is no
    # longer divided out, so the graded side is too large
    M = adic_filtration(3, 2)

    def whole_piece(M, i):
        return M.piece(i) if -M.depth() <= i <= 0 else PresentedGroup.trivial()

    monkeypatch.setattr(filtered, "graded_piece", whole_piece)
    reports = [graded_comparison(M, q, k) for q in range(2) for k in sweep_levels(M, q)]
    assert not all(r.map_is_iso for r in reports)
    assert not all(reports)


def test_graded_comparison_checks_the_lattice_not_only_the_groups(monkeypatch):
    # each slice with its generators listed backwards is the same group,
    # but level k's relations no longer lie in the graded relations
    M = graded(adic_filtration(3, 2))
    true_piece = filtered.graded_piece

    def reversed_slice(M, i):
        P = true_piece(M, i)
        n = P.num_generators
        entries = {(n - 1 - r, c): v for (r, c), v in P.relations.entries.items()}
        return PresentedGroup(n, SparseIntMatrix(n, P.relations.cols, entries))

    monkeypatch.setattr(filtered, "graded_piece", reversed_slice)
    reports = [graded_comparison(M, q, k) for q in range(2) for k in sweep_levels(M, q)]
    assert all(r.invariants_match and r.rotation_compatible for r in reports)
    assert not all(r.map_is_iso for r in reports)


def test_graded_comparison_fails_on_a_reordered_graded_index(monkeypatch):
    # list the graded side's spots backwards, leaving the level's own spot
    # sum alone: the two indexes differ, and the report must say so
    original = filtered._spot_sum

    def graded_side_reversed(spots, parts_of):
        if sys._getframe(1).f_code.co_name == "graded_comparison":
            spots = spots[::-1]
        return original(spots, parts_of)

    monkeypatch.setattr(filtered, "_spot_sum", graded_side_reversed)
    M = adic_filtration(3, 2)
    # one spot: nothing to reorder
    assert graded_comparison(M, 0, -1)
    rep = graded_comparison(M, 1, -1)  # spots (-1, 0) and (0, -1)
    assert rep.invariants_match and rep.lhs == rep.rhs
    assert not rep.rotation_compatible and not rep.map_is_iso and not rep


def split_free_example():
    # free pieces Z^1 -> Z^2 -> Z^2, transitions basis to basis
    pieces = {
        0: PresentedGroup.free(2),
        -1: PresentedGroup.free(2),
        -2: PresentedGroup.free(1),
    }
    transitions = {
        -1: SparseIntMatrix.identity(2),
        -2: SparseIntMatrix.from_dense([[1], [0]]),
    }
    return FilteredAbelianGroup(pieces, transitions)


def test_fixed_points_split_free():
    Y = split_free_example()
    for q in (1, 2, 3):
        for s in range(-2 * q, 1):
            rep = fixed_points_check(Y, q, s)
            assert rep, (q, s, rep)
            assert rep.found == Y.piece(s // q).num_generators


def test_fixed_points_above_zero_match_level_zero():
    # level s > 0 is level 0
    Y = split_free_example()
    for q in (1, 2, 3):
        at_zero = fixed_points_check(Y, q, 0)
        for s in (1, 2, q + 1, 2 * q + 1):
            rep = fixed_points_check(Y, q, s)
            assert rep.level == s and rep, (q, s, rep)
            assert (rep.found, rep.independent) == (at_zero.found, at_zero.independent)


def test_fixed_points_rejects_torsion():
    Y = adic_filtration(3, 2).group
    with pytest.raises(ValueError, match="not free"):
        fixed_points_check(Y, 2, 0)
    with pytest.raises(ValueError, match="power 0 < 1"):
        fixed_points_check(split_free_example(), 0, 0)


RING_TEXT = """
[piece]
index 0
generators 1
relations 1
9
[piece]
index -1
generators 1
relations 1
3
[piece]
index -2
generators 0
relations 0
[transition]
index -1
3
[transition]
index -2
[product]
indices 0 0
1
[product]
indices 0 -1
1
[product]
indices -1 0
1
[product]
indices -1 -1
[product]
indices 0 -2
[product]
indices -2 0
[product]
indices -1 -2
[product]
indices -2 -1
[product]
indices -2 -2
[unit]
1
"""


def test_load_filtered_ring():
    M = load_filtered_ring(RING_TEXT)
    assert M.depth() == 2
    assert M.piece(0).group() == AbelianGroup.cyclic(9)
    # it is exactly the 3-adic filtration of Z/9
    N = adic_filtration(3, 2)
    for q in range(2):
        for k in range(-4, 1):
            assert cyclic_bar(M, q, k).group() == cyclic_bar(N, q, k).group()


def test_gr_check_on_ring_file_prints_the_zmod_rows(tmp_path, capsys):
    # RING_TEXT is the 3-adic filtration of Z/9, so gr-check reads it row for
    # row as zmod:3^2
    path = tmp_path / "z9.ring"
    path.write_text(RING_TEXT)
    code = cli.main(["gr-check", "--ring", str(path), "--max-q", "4"])
    golden = os.path.join(os.path.dirname(__file__), "data", "gr-check", "zmod-3-2-q4.txt")
    with open(golden) as fh:
        assert (code, capsys.readouterr().out) == (cli.EXIT_OK, fh.read())


def test_load_filtered_ring_errors():
    with pytest.raises(ParseError):
        load_filtered_ring("[piece]\nindex 0\n")  # truncated header
    with pytest.raises(ParseError):
        load_filtered_ring("junk\n")
    with pytest.raises(ParseError):
        load_filtered_ring("[unit]\n1\n")  # no pieces
    with pytest.raises(ParseError):
        # transition 1 (not a hom) fails ring validation
        load_filtered_ring(RING_TEXT.replace("index -1\n3", "index -1\n1"))
    for bad in BAD_RING_TEXTS:
        with pytest.raises(ParseError):
            load_filtered_ring(bad)


BAD_RING_TEXTS = [
    # an index that is not an integer
    "[piece]\nindex x\ngenerators 1\nrelations 0\n[unit]\n1\n",
    # a relation line that is not an integer
    "[piece]\nindex 0\ngenerators 1\nrelations 1\nthree\n[unit]\n1\n",
    # a product naming the missing piece -1
    "[piece]\nindex 0\ngenerators 1\nrelations 0\n[product]\nindices -1 0\n[unit]\n1\n",
    # more relations than generators
    "[piece]\nindex 0\ngenerators 1\nrelations 2\n3\n3\n[unit]\n1\n",
    # a unit row in a piece without generators
    "[piece]\nindex 0\ngenerators 0\nrelations 0\n[unit]\n1\n",
    # relation lines beyond the declared count (would load Z/9)
    RING_TEXT.replace("relations 1\n9\n", "relations 1\n9\n27\n"),
    # a second block for one piece, transition or product, and a second unit
    RING_TEXT.replace("[unit]", "[piece]\nindex -1\ngenerators 1\nrelations 1\n3\n[unit]"),
    RING_TEXT.replace("[unit]", "[transition]\nindex -1\n3\n[unit]"),
    RING_TEXT.replace("[unit]", "[product]\nindices 0 -1\n1\n[unit]"),
    RING_TEXT + "[unit]\n1\n",
]


# ---------------------------------------------------------------------------
# sweeps: gr-check builds each printed level's cyclic bar once
# ---------------------------------------------------------------------------


def sweep_levels(M, q):
    return list(range(-(q + 1) * M.depth() - 1, 2))


def count_cyclic_bars(monkeypatch):
    built = []
    original = filtered.cyclic_bar

    def counting(M, q, k):
        built.append((q, k))
        return original(M, q, k)

    monkeypatch.setattr(filtered, "cyclic_bar", counting)
    return built


def row_text(rep):
    """The gr-check text row of a comparison report."""
    status = "PASS" if rep else "FAIL"
    flags = "" if rep else " [FAIL]"
    return f"q={rep.simplicial_degree},k={rep.level}:{status}: {rep.lhs}{flags}"


@pytest.mark.parametrize(
    "ring, max_q",
    [
        ((2, 2), 2),
        ((3, 2), 2),
        ((2, 3), 2),
        ("graded", 2),
        ((3, 3), 3),
        ((5, 2), 3),
    ],
    ids=["2^2", "3^2", "2^3", "graded-3^2", "3^3", "5^2"],
)
def test_sweep_matches_per_level_comparisons(ring, max_q, monkeypatch, tmp_path, capsys):
    if ring == "graded":
        # the text format holds diagonal relations only, so the graded ring
        # reaches gr-check through its loader
        M = graded(adic_filtration(3, 2))
        path = tmp_path / "graded.ring"
        path.write_text(RING_TEXT)
        monkeypatch.setattr(filtered, "load_filtered_ring", lambda text: M)
        spec = str(path)
    else:
        M = adic_filtration(*ring)
        spec = "zmod:{}^{}".format(*ring)
    built = count_cyclic_bars(monkeypatch)
    code = cli.main(["gr-check", "--ring", spec, "--max-q", str(max_q)])
    lines = capsys.readouterr().out.splitlines()
    levels = [(q, k) for q in range(max_q + 1) for k in sweep_levels(M, q)]
    # one cyclic bar build per printed row, in row order
    assert built == levels
    assert len(lines) == len(levels)
    built.clear()
    reports = [graded_comparison(M, q, k) for q, k in levels]
    assert built == levels
    assert lines == [row_text(r) for r in reports]
    assert code == (cli.EXIT_OK if all(reports) else cli.EXIT_CHECK_FAILED)


def test_sweep_with_gaps_builds_each_requested_level_once(monkeypatch, capsys):
    M = adic_filtration(3, 2)
    ks = [-4, -3, -1, 0, 0, 2]
    built = count_cyclic_bars(monkeypatch)
    reports = [graded_comparison(M, 2, k) for k in ks]
    # a gap or a repeated level needs no level k-1: it comes with level k
    assert built == [(2, k) for k in ks]
    assert [r.level for r in reports] == ks
    # each reads as gr-check's row for its level; level 2 is level 1
    assert cli.main(["gr-check", "--ring", "zmod:3^2", "--max-q", "2"]) == cli.EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert all(row_text(r) in rows for r in reports[:-1])
    assert dataclasses.replace(reports[-1], level=1) == graded_comparison(M, 2, 1)


# ---------------------------------------------------------------------------
# spot sums: one tensor presentation per spot, in a block-diagonal sum
# ---------------------------------------------------------------------------


def check_spot_sum_blocks(factors, k):
    """Check the level-k spot sum block by block against the Kronecker
    reference."""
    level = multi_tensor(factors, k)
    parts_of = lambda spot: [X.piece(i) for X, i in zip(factors, spot)]
    columns, pres = filtered._spot_sum(level.tuples, parts_of)
    assert columns == level.columns
    R = pres.relations
    covered = 0
    row = col = 0
    for spot in level.tuples:
        gens, cols, entries = kron_tensor_presentation(parts_of(spot))
        block = {
            (r - row, c - col): v
            for (r, c), v in R.entries.items()
            if row <= r < row + gens and col <= c < col + cols
        }
        assert block == entries, spot
        spot_cols = sorted(c for (s, _), c in columns.items() if s == spot)
        assert spot_cols == list(range(row, row + gens))
        covered += len(block)
        row, col = row + gens, col + cols
    assert (row, col) == (R.rows, R.cols)
    assert covered == len(R.entries)  # nothing outside the diagonal blocks
    # the internal relations lead the level's relation matrix
    internal = {
        key: v for key, v in level.presentation.relations.entries.items() if key[1] < R.cols
    }
    assert internal == R.entries


def test_spot_sum_blocks_match_kronecker_reference():
    G = graded(adic_filtration(3, 2)).group  # pieces of 0, 1 and 2 generators
    Y = split_free_example()
    Z = adic_filtration(3, 3).group  # one generator per piece, other relations
    cases = (([G] * 3, range(-6, 2)), ([Y] * 3, range(-6, 1)), ([Z] * 3, range(-9, 2)))
    for factors, levels in cases:
        for k in levels:
            check_spot_sum_blocks(factors, k)


def test_spot_sum_of_random_parts_matches_kronecker_reference():
    # parts of several generators, of none, and with relations off the
    # diagonal: the strides above 1 that the adic rings' one-generator
    # pieces never reach
    rng = random.Random(27)
    strided = 0
    for trial in range(100):
        spots = [(trial, s) for s in range(rng.randint(1, 4))]
        parts = {s: [random_presented_group(rng) for _ in range(rng.randint(1, 3))] for s in spots}
        columns, pres = filtered._spot_sum(spots, parts.__getitem__)
        want_columns, want_entries = {}, {}
        row = col = 0
        for spot in spots:
            gens, cols, entries = kron_tensor_presentation(parts[spot])
            sizes = [range(P.num_generators) for P in parts[spot]]
            for k, g in enumerate(itertools.product(*sizes)):
                want_columns[(spot, g)] = row + k
            want_entries.update({(row + r, col + c): v for (r, c), v in entries.items()})
            row, col = row + gens, col + cols
            strided += any(P.num_generators > 1 for P in parts[spot][1:])
        assert columns == want_columns, trial
        assert pres.num_generators == row, trial
        assert pres.relations == SparseIntMatrix(row, col, want_entries), trial
    assert strided > 50, strided


def test_later_levels_leave_earlier_presentations_unchanged():
    G = graded(adic_filtration(3, 2)).group
    first = multi_tensor([G] * 3, -2)
    entries = dict(first.presentation.relations.entries)
    for k in (-3, -2, -1):
        multi_tensor([G] * 3, k)
    # a second spot sum over the same spots, then a whole sweep
    filtered._spot_sum(first.tuples, lambda spot: [G.piece(i) for i in spot])
    [graded_comparison(graded(adic_filtration(3, 2)), 2, k) for k in range(-4, 1)]
    assert first.presentation.relations.entries == entries


# ---------------------------------------------------------------------------
# box levels against the full-poset colimit
# ---------------------------------------------------------------------------


def full_presentation(full):
    return PresentedGroup(full.num_generators, SparseIntMatrix(*full.relations))


def clip(full, box):
    return SparseIntMatrix(*clip_map(full, box))


def check_clip_iso(factors, k):
    """The clip map from the full-poset level k onto the box level k is a
    well-defined surjection between groups with equal invariant factors,
    hence an isomorphism."""
    full, box = FullTensorLevel(factors, k), multi_tensor(factors, k)
    src, C = full_presentation(full), clip(full, box)
    assert src.admits_hom(C, box.presentation), k
    assert cokernel(C.hstack(box.presentation.relations)).is_trivial(), k
    assert src.group() == box.group(), k


@pytest.mark.parametrize(
    "ring, powers",
    [((p, n), range(1, 6)) for p in (2, 3, 5, 7) for n in (2, 3)] + [((3, 3), [6])],
    ids=[f"{p}^{n}" for p in (2, 3, 5, 7) for n in (2, 3)] + ["3^3-q5"],
)
def test_clip_map_is_an_isomorphism_on_cyclic_bar_levels(ring, powers):
    # every level of the gr-check sweep at q <= 4, and of Z/27 at q = 5
    X = adic_filtration(*ring).group
    for n in powers:
        for k in range(-n * X.depth - 1, 2):
            check_clip_iso([X] * n, k)


MIXED_FACTORS = {
    "graded 3^2": graded(adic_filtration(3, 2)).group,  # 0, 1, 2 generators
    "split free": split_free_example(),  # free, depth 2
    "5^3 by p^2": adic_filtration(5, 3, 2).group,  # depth 2
    "2^3": adic_filtration(2, 3).group,  # depth 3
}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(sorted(MIXED_FACTORS)), min_size=1, max_size=3))
@example(["graded 3^2", "split free", "graded 3^2"])
@example(["split free", "5^3 by p^2"])
@example(["5^3 by p^2", "graded 3^2", "split free"])
def test_box_levels_match_full_poset_on_mixed_factors(names):
    # the box bounds are per factor: mixed depths and multi-generator pieces
    factors = [MIXED_FACTORS[name] for name in names]
    depth = sum(X.depth for X in factors)
    for k in range(-depth - 1, 3):
        check_clip_iso(factors, k)


# ---------------------------------------------------------------------------
# generator maps against the generator-by-generator references
# ---------------------------------------------------------------------------


def as_triple(A):
    return A.rows, A.cols, A.entries


def reference_rings():
    return {
        "3^2": adic_filtration(3, 2),
        "3^3": adic_filtration(3, 3),
        "5^3 by p^2": adic_filtration(5, 3, 2),
        "graded 3^3": graded(adic_filtration(3, 3)),
    }


def test_tensor_transition_matches_reference():
    # incoming agrees with the full-poset bump-0 transition through the
    # clip maps, as homomorphisms into the box level k
    groups = {name: M.group for name, M in reference_rings().items()}
    groups["split free"] = split_free_example()
    for name, X in groups.items():
        for n in (2, 3, 4):
            levels = range(-n * X.depth - 1, 2)
            full = {k: FullTensorLevel([X] * n, k) for k in [levels[0] - 1, *levels]}
            box = {k: multi_tensor([X] * n, k) for k in full}
            for k in levels:
                src = full_presentation(full[k - 1])
                bump = SparseIntMatrix(*tensor_transition_reference(full[k - 1], full[k]))
                got = box[k].incoming @ clip(full[k - 1], box[k - 1])
                want = clip(full[k], box[k]) @ bump
                assert src.homs_equal(got, want, box[k].presentation), (name, n, k)


def test_graded_matches_reference():
    rings = reference_rings()
    rings["graded graded 3^2"] = graded(graded(adic_filtration(3, 2)))
    for name, M in rings.items():
        G, want = graded(M), graded_reference(M)
        m = M.depth()
        assert G.depth() == m, name
        for k in range(-m, 1):
            assert as_triple(G.piece(k).relations) == want["pieces"][k], (name, k)
        for k in range(-m, 0):
            assert as_triple(G.group.transition(k)) == want["transitions"][k], (name, k)
        for key, matrix in want["products"].items():
            assert as_triple(G.products[key]) == matrix, (name, key)
        assert as_triple(G.unit) == want["unit"], name


# ---------------------------------------------------------------------------
# malformed filtered-ring text through the CLI
# ---------------------------------------------------------------------------

RING_LINES = [line for line in RING_TEXT.splitlines() if line]
HEADERS = ["[piece]", "[transition]", "[product]", "[unit]"]


@st.composite
def mutated_ring_texts(draw):
    """RING_TEXT after one to four edits: drop a line, replace an integer
    token (by another integer or by a non-integer), or rename a header."""
    lines = list(RING_LINES)
    for _ in range(draw(st.integers(1, 4))):
        ints = [
            (at, i)
            for at, line in enumerate(lines)
            for i, token in enumerate(line.split())
            if token.lstrip("-").isdigit()
        ]
        headers = [at for at, line in enumerate(lines) if line.startswith("[")]
        kinds = ["drop"] * bool(lines) + ["integer"] * bool(ints) + ["header"] * bool(headers)
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "integer":
            at, i = draw(st.sampled_from(ints))
            tokens = lines[at].split()
            tokens[i] = draw(st.sampled_from(
                ["0", "1", "-1", "2", "-3", "27", "100", "x", "1.5", ""]
            ))
            lines[at] = " ".join(tokens)
        else:
            at = draw(st.sampled_from(headers))
            lines[at] = draw(st.sampled_from(HEADERS + ["[pieces]", "[Piece]", "piece"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(mutated_ring_texts())
def test_gr_check_on_mutated_ring_text_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.txt")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["gr-check", "--ring", path, "--max-q", "1"])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_PARSE), (code, err.getvalue())
    if code == cli.EXIT_PARSE:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
