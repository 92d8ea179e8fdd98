import contextlib
import dataclasses
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cychom.errors import InvalidParams, ParseError, UnsupportedFiltration
from cychom import cli, filtered
from cychom.filtered import (
    FilteredAbelianGroup,
    FilteredRing,
    PresentedGroup,
    adic_filtration,
    cyclic_bar,
    degeneracy_map,
    face_map,
    filtered_tensor,
    fixed_points_check,
    graded,
    graded_comparison,
    graded_comparisons,
    graded_piece,
    load_filtered_ring,
    multi_tensor,
    tensor_transition,
)
from cychom.intlin import AbelianGroup, SparseIntMatrix, lattice_contains

from oracles import (
    degeneracy_map_reference,
    face_map_reference,
    graded_reference,
    kron_tensor_presentation,
    quotient_invariants,
    tensor_transition_reference,
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


def test_tensor_presentation_matches_kronecker_reference():
    # 1-4 factors of 0-3 generators and 0-3 relation columns, zero columns
    # included: index arithmetic must give the Kronecker matrix exactly
    rng = random.Random(0)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 4)):
            gens, cols = rng.randint(0, 3), rng.randint(0, 3)
            entries = {
                (i, j): rng.choice((-3, -2, -1, 1, 2, 3))
                for i in range(gens)
                for j in range(cols)
                if rng.random() < 0.5
            }
            parts.append(PresentedGroup(gens, SparseIntMatrix(gens, cols, entries)))
        gens, cols, entries = kron_tensor_presentation(parts)
        pres = filtered._tensor_presentation(parts)
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
    assert M.group.transition(-1).to_dense() == [[3]]
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
    assert group_of(filtered_tensor(X, X, 0)) == AbelianGroup.cyclic(9)
    assert group_of(filtered_tensor(X, X, -1)) == AbelianGroup(0, (3, 3))
    # level -2 is the single spot (-1, -1): Z/3 (x) Z/3
    assert group_of(filtered_tensor(X, X, -2)) == AbelianGroup.cyclic(3)
    # every deeper spot touches the trivial piece
    assert group_of(filtered_tensor(X, X, -3)).is_trivial()
    # constancy above 0
    assert group_of(filtered_tensor(X, X, 2)) == AbelianGroup.cyclic(9)


def test_tensor_transition_iso_above_zero():
    X = adic_filtration(3, 2).group
    a = multi_tensor([X, X], 0)
    b = multi_tensor([X, X], 1)
    T = tensor_transition(a, b)
    # onto with matching invariants: an isomorphism
    from cychom.intlin import cokernel

    assert cokernel(T.hstack(b.presentation.relations)).is_trivial()
    assert a.group() == b.group()
    with pytest.raises(InvalidParams):
        tensor_transition(b, a)


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
    # simplicial and cyclic identities as matrix identities mod relations
    q, k = 2, -1
    Z2 = cyclic_bar(M, q, k)
    Z1 = cyclic_bar(M, q - 1, k)
    Z0 = cyclic_bar(M, q - 2, k)
    rel1 = Z1.tensor.presentation.relations
    rel0 = Z0.tensor.presentation.relations

    def eq(A, B, rel):
        return lattice_contains(rel, A + B.scale(-1))

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
    t2, t1 = Z2.rotation, Z1.rotation
    for i in range(1, q + 1):
        assert eq(d[i] @ t2, t1 @ d[i - 1], rel1), i
    power = SparseIntMatrix.identity(t2.rows)
    for _ in range(q + 1):
        power = t2 @ power
    assert eq(power, SparseIntMatrix.identity(t2.rows),
              Z2.tensor.presentation.relations)
    # degeneracy against rotation: s_i t = t s_{i-1} for i >= 1
    for i in range(1, q):
        assert eq(s[i] @ t1, t2 @ s[i - 1], Z2.tensor.presentation.relations)


def test_face_degeneracy_argument_checks():
    M = adic_filtration(3, 1)
    Z1 = cyclic_bar(M, 1, 0)
    Z0 = cyclic_bar(M, 0, 0)
    with pytest.raises(InvalidParams):
        face_map(Z1, Z0, 5)
    with pytest.raises(InvalidParams):
        face_map(Z0, Z1, 0)
    with pytest.raises(InvalidParams):
        degeneracy_map(Z1, Z0, 0)
    with pytest.raises(InvalidParams):
        cyclic_bar(M, -1, 0)


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


def test_fixed_points_rejects_torsion():
    Y = adic_filtration(3, 2).group
    with pytest.raises(UnsupportedFiltration):
        fixed_points_check(Y, 2, 0)
    with pytest.raises(InvalidParams):
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
]


# ---------------------------------------------------------------------------
# sweeps: graded_comparisons builds each requested cyclic bar level once
# ---------------------------------------------------------------------------


def sweep_levels(M, q):
    return list(range(-(q + 1) * M.depth() - 1, 2))


def count_cyclic_bars(monkeypatch):
    built = []
    original = filtered.cyclic_bar

    def counting(M, q, k):
        built.append(k)
        return original(M, q, k)

    monkeypatch.setattr(filtered, "cyclic_bar", counting)
    return built


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
def test_sweep_matches_per_level_comparisons(ring, max_q, monkeypatch):
    M = graded(adic_filtration(3, 2)) if ring == "graded" else adic_filtration(*ring)
    built = count_cyclic_bars(monkeypatch)
    for q in range(max_q + 1):
        ks = sweep_levels(M, q)
        built.clear()
        swept = list(graded_comparisons(M, q, ks))
        # one build per requested level, swept or not
        assert built == ks
        built.clear()
        single = [graded_comparison(M, q, k) for k in ks]
        assert built == ks
        assert [dataclasses.asdict(r) for r in swept] == [
            dataclasses.asdict(r) for r in single
        ]


def test_sweep_with_gaps_builds_each_requested_level_once(monkeypatch):
    M = adic_filtration(3, 2)
    ks = [-4, -3, -1, 0, 0, 2]
    built = count_cyclic_bars(monkeypatch)
    swept = list(graded_comparisons(M, 2, ks))
    # a gap or a repeated level needs no level k-1: it comes with level k
    assert built == ks
    assert [r.level for r in swept] == ks
    assert swept == [graded_comparison(M, 2, k) for k in ks]
    assert list(graded_comparisons(M, 2, [])) == []


# ---------------------------------------------------------------------------
# spot sums: one presentation per distinct piece tuple, copied per spot
# ---------------------------------------------------------------------------


def check_spot_sum_blocks(factors, k):
    """Check the level-k spot sum block by block against the Kronecker
    reference; return how many spots repeat an earlier spot's pieces."""
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
    pieces = [tuple(map(id, parts_of(spot))) for spot in level.tuples]
    return len(pieces) - len(set(pieces))


def test_spot_sum_blocks_match_kronecker_reference():
    G = graded(adic_filtration(3, 2)).group  # pieces of 0, 1 and 2 generators
    Y = split_free_example()
    Z = adic_filtration(3, 3).group  # one generator per piece, other relations
    cases = (([G] * 3, range(-6, 2)), ([Y] * 3, range(-6, 1)), ([Z] * 3, range(-9, 2)))
    for factors, levels in cases:
        # the memo is exercised: some levels repeat a piece tuple
        assert sum(check_spot_sum_blocks(factors, k) for k in levels) > 0


def test_later_levels_leave_earlier_presentations_unchanged():
    G = graded(adic_filtration(3, 2)).group
    first = multi_tensor([G] * 3, -2)
    entries = dict(first.presentation.relations.entries)
    for k in (-3, -2, -1):
        multi_tensor([G] * 3, k)
    # a second spot sum over the same spots, then a whole sweep
    filtered._spot_sum(first.tuples, lambda spot: [G.piece(i) for i in spot])
    list(graded_comparisons(graded(adic_filtration(3, 2)), 2, range(-4, 1)))
    assert first.presentation.relations.entries == entries


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
    groups = {name: M.group for name, M in reference_rings().items()}
    groups["split free"] = split_free_example()
    for name, X in groups.items():
        for n in (2, 3, 4):
            levels = range(-n * X.depth - 1, 2)
            tensors = {k: multi_tensor([X] * n, k) for k in [levels[0] - 1, *levels]}
            for k in levels:
                src, tgt = tensors[k - 1], tensors[k]
                want = tensor_transition_reference(src, tgt)
                assert as_triple(tensor_transition(src, tgt)) == want, (name, n, k)


def test_face_and_degeneracy_maps_match_reference():
    for name, M in reference_rings().items():
        m = M.depth()
        for k in range(-4 * m - 1, 2):
            # simplicial degrees 0..3: one to four factors
            bars = {q: cyclic_bar(M, q, k) for q in range(4)}
            for q in (1, 2, 3):
                for i in range(q + 1):
                    want = face_map_reference(bars[q], bars[q - 1], i)
                    assert as_triple(face_map(bars[q], bars[q - 1], i)) == want, (name, k, q, i)
                    if q < 3:
                        want = degeneracy_map_reference(bars[q], bars[q + 1], i)
                        got = degeneracy_map(bars[q], bars[q + 1], i)
                        assert as_triple(got) == want, (name, k, q, i)


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
