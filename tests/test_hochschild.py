import contextlib
import io
import pathlib

import pytest

from cychom.dga import (
    DGAlgebra,
    koszul_resolution,
    load_algebra,
    reduction_map,
)
from cychom import cli, cyclic, hochschild
from cychom.complexes import ChainComplex, homology, homology_groups
from cychom.cyclic import _connes_sequence, cyclic_bundle, hc, hc_groups, hh, sbi_check
from cychom.dga import dump_algebra
from cychom.errors import BoundTooSmall, CompositionNonzero, MatchingFailed, TruncationTooTight
from cychom.hochschild import (
    FirstSlotMatching,
    HochschildComplex,
    critical_complex,
    critical_words,
    first_slot_matching,
    induced_map,
)
from cychom.intlin import AbelianGroup, SparseIntMatrix

from oracles import (
    base_ring,
    cell_words_reference,
    compose,
    cyclic_map_reference,
    cyclic_operator_reference,
    cyclic_total_reference,
    face_terms_reference,
    internal_terms_reference,
    morse_complex_reference,
    truncated_polynomial,
)

BENCH_INPUTS = pathlib.Path(__file__).parent.parent / "bench" / "inputs"


def exterior_two():
    """Lambda(t, u), dt = 2, du = 3."""
    return DGAlgebra(
        basis={0: ("1",), 1: ("t", "u"), 2: ("tu",)},
        mult={
            ("1", "1"): {"1": 1},
            ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
            ("1", "u"): {"u": 1}, ("u", "1"): {"u": 1},
            ("1", "tu"): {"tu": 1}, ("tu", "1"): {"tu": 1},
            ("t", "t"): {}, ("u", "u"): {},
            ("t", "u"): {"tu": 1}, ("u", "t"): {"tu": -1},
            ("t", "tu"): {}, ("tu", "t"): {},
            ("u", "tu"): {}, ("tu", "u"): {},
            ("tu", "tu"): {},
        },
        diff={"t": {"1": 2}, "u": {"1": 3}, "tu": {"u": 2, "t": -3}},
        unit="1",
    )


def upper_triangular_two():
    """2x2 upper triangular matrices over Z, concentrated in degree 0.

    Basis {one, e12, e22}: the unit is a basis label, so e11 = one - e22
    is implicit and the table below encodes e_{ij} e_{kl} = delta_{jk} e_{il}.
    """
    mult2 = {
        ("one", "one"): {"one": 1},
        ("one", "e12"): {"e12": 1}, ("e12", "one"): {"e12": 1},
        ("one", "e22"): {"e22": 1}, ("e22", "one"): {"e22": 1},
        ("e12", "e12"): {}, ("e12", "e22"): {"e12": 1},
        ("e22", "e12"): {}, ("e22", "e22"): {"e22": 1},
    }
    return DGAlgebra(
        basis={0: ("one", "e12", "e22")}, mult=mult2, diff={}, unit="one"
    )


def test_identity_suite_all_primes_up_to_seven():
    # D^2 = B^2 = DB + BD = 0 through Hochschild degree 2p + 1, as blocks of
    # d^2 = 0 that the cyclic total's constructor checks: through bound
    # 2p + 3 it holds B^2 at every Hochschild degree c <= 2p (column 2, total
    # degree c + 4) and DB + BD at every c <= 2p + 2
    for p in (2, 3, 5, 7):
        bound = 2 * p + 3
        bundle = cyclic_bundle(koszul_resolution(p), bound)
        cells = {lbl[:2] for lbl in bundle.total.labels(bound + 1)}
        assert (2, bound - 1) in cells  # B^2 at c = 2p


def test_identity_suite_other_algebras():
    # the same identities through Hochschild degree 6; a failed one raises
    # CompositionNonzero
    for A in (base_ring(), exterior_two(), upper_triangular_two()):
        cyclic_bundle(A, 8)


def test_cyclic_total_matches_the_cell_layout():
    # the cyclic total placed column by column equals the total complex of
    # the bicomplex whose cell (s, t) holds the chains of degree t - s
    for A, bound in (
        (koszul_resolution(9), 7),
        (koszul_resolution(19 ** 3), 12),
        (exterior_two(), 8),
        (upper_triangular_two(), 6),
        (truncated_polynomial(3), 7),
        (base_ring(), 5),
    ):
        C = cyclic_bundle(A, bound).total
        R = cyclic_total_reference(HochschildComplex(A, bound))
        assert C.basis == R.basis, (A, bound)
        assert C.differential == R.differential, (A, bound)
        assert (C.min_degree, C.max_degree) == (R.min_degree, R.max_degree), (A, bound)


def test_induced_cyclic_map_matches_the_cell_layout():
    for f, bound in ((reduction_map(27, 9), 7), (reduction_map(19 ** 3, 19 ** 2), 12)):
        src, tgt = cyclic_bundle(f.source, bound), cyclic_bundle(f.target, bound)
        F = cyclic.induced_cyclic_map(f, bound)
        R = cyclic_map_reference(
            induced_map(f, src.hochschild, tgt.hochschild),
            cyclic_total_reference(src.hochschild),
            cyclic_total_reference(tgt.hochschild),
        )
        assert F.components.keys() == R.components.keys(), bound
        for n in R.components:
            assert F.component(n) == R.component(n), (bound, n)


def test_hh_of_base_ring():
    assert hh(base_ring(), 0) == AbelianGroup.free(1)
    for i in (1, 2, 3):
        assert hh(base_ring(), i).is_trivial()


def test_hh_of_z_mod_m():
    # HH_i(Z/m over Z) = Z/m for even i, 0 for odd i
    for m in (4, 9, 25):
        for i in range(6):
            want = AbelianGroup.cyclic(m) if i % 2 == 0 else AbelianGroup.trivial()
            assert hh(koszul_resolution(m), i) == want, (m, i)


def test_hh_of_upper_triangular_is_separable_like():
    # triangular algebras have the Hochschild homology of their diagonal,
    # here Z x Z: Z^2 in degree 0 and nothing above
    A = upper_triangular_two()
    assert hh(A, 0) == AbelianGroup.free(2)
    for i in (1, 2, 3):
        assert hh(A, i).is_trivial()


def test_bounds_and_truncation():
    with pytest.raises(BoundTooSmall):
        HochschildComplex(base_ring(), -1)
    # a negative degree is refused before any build, on either path
    for A in (koszul_resolution(4), ext2()):
        with pytest.raises(BoundTooSmall):
            hh(A, -1)
    H = HochschildComplex(koszul_resolution(4), 3)
    with pytest.raises(TruncationTooTight):
        hochschild.cyclic_operator(H, 4)


def test_connes_operator_degrees():
    H = HochschildComplex(koszul_resolution(4), 4)
    B = hochschild.cyclic_operator(H, 2)
    assert B.shape == (H.total.dim(3), H.total.dim(2))


def test_induced_map_is_chain_map_and_functorial():
    f = reduction_map(8, 4)
    g = reduction_map(4, 2)
    src, mid, tgt = (HochschildComplex(A, 4) for A in (f.source, g.source, g.target))
    F, G = induced_map(f, src, mid), induced_map(g, mid, tgt)
    assert F.target == G.source
    GF = induced_map(compose(g, f), src, tgt)
    for n in range(5):
        assert GF.component(n) == G.component(n) @ F.component(n)


def test_induced_map_drops_normalized_units():
    # t -> 4 t' in koszul(8) -> koszul(2); words stay unit-free in slots >= 1
    f = reduction_map(8, 2)
    tgt = HochschildComplex(f.target, 3)
    F = induced_map(f, HochschildComplex(f.source, 3), tgt)
    for n in range(4):
        M = F.component(n)
        assert M.shape == (tgt.total.dim(n), M.cols)


def test_sign_errors_fail_the_total_complex_check(monkeypatch):
    # each identity of the Hochschild and cyclic bicomplexes is checked as
    # d^2 = 0 of their total complexes; a single wrong sign must be caught
    A = exterior_two()
    word_differential = hochschild._word_differential

    def flipped_wrap(A, word):
        # the reference lists the wrap face of a two-slot word after face 0
        D = dict(word_differential(A, word))
        if len(word) == 2:
            inner = len(A.mult.get((word[0], word[1])) or {})
            for out, c in list(face_terms_reference(A, word))[inner:]:
                D[out] = D.get(out, 0) - 2 * c
        return {out: c for out, c in D.items() if c}

    def flipped_slot_one(A, word):
        # internal terms keep the length; slot one's changes only slot 1
        return {
            out: -c if len(out) == len(word) >= 2 and out[0] == word[0] and out[2:] == word[2:]
            else c
            for out, c in word_differential(A, word).items()
        }

    for mutant in (flipped_wrap, flipped_slot_one):
        with monkeypatch.context() as m:
            m.setattr(hochschild, "_word_differential", mutant)
            with pytest.raises(CompositionNonzero):
                HochschildComplex(A, 5)

    def negated_entry(H, n):
        M = hochschild.cyclic_operator(H, n)
        if n != 1:
            return M
        rows = {i: dict(row) for i, row in M.by_row.items()}
        i = min(rows)
        rows[i][min(rows[i])] *= -1
        return SparseIntMatrix(M.rows, M.cols, rows)

    HochschildComplex(A, 5)
    cyclic_bundle(A, 5)
    monkeypatch.setattr(cyclic, "cyclic_operator", negated_entry)
    with pytest.raises(CompositionNonzero):
        cyclic_bundle(A, 5)


@pytest.mark.parametrize(
    "name",
    ["ext2-a9-b3", "ext2-a3-b9", "ext2-a-3-b9", "koszul(9)", "base_ring", "x^3 |x|=0", "x^3 |x|=2"],
)
def test_signs_match_the_slot_by_slot_reference(name):
    # the one-pass kernels give, word for word, the terms that adding up each
    # slot's prefix again gives, for D and B on every word of a bound-8 build,
    # and the total's differentials place them matrix for matrix
    if name == "koszul(9)":
        A = koszul_resolution(9)
    elif name == "base_ring":
        A = base_ring()
    elif name.startswith("x^3"):
        A = truncated_polynomial(3, degree=int(name[-1]))
    else:
        A = load_algebra((BENCH_INPUTS / f"{name}.alg").read_text())
    bound = 8
    H = HochschildComplex(A, bound)

    def reference(word):
        D = {}
        for out, c in (*internal_terms_reference(A, word), *face_terms_reference(A, word)):
            D[out] = D.get(out, 0) + c
        return {out: c for out, c in D.items() if c}

    assert len(H._at) == sum(H.total.dim(n) for n in H.total.degrees())
    for word in H._at:
        assert hochschild._word_differential(A, word) == reference(word), word
    for n in range(bound + 2):
        row_of = {w: i for i, (_, _, w) in enumerate(H.total.labels(n - 1))}
        entries = {
            (row_of[out], col): c
            for col, (_, _, word) in enumerate(H.total.labels(n))
            for out, c in reference(word).items()
        }
        assert H.total.diff(n).entries == entries, n
    for n in range(bound + 1):
        B = hochschild.cyclic_operator(H, n)
        assert (B.rows, B.cols, B.entries) == cyclic_operator_reference(H, n), n


# ---------------------------------------------------------------------------
# Morse reduction along the first-slot matching
# ---------------------------------------------------------------------------


def ext2():
    return load_algebra((BENCH_INPUTS / "ext2-a9-b3.alg").read_text())


@pytest.mark.parametrize(
    "build",
    [
        lambda: koszul_resolution(2),
        lambda: koszul_resolution(19 ** 3),
        base_ring,
        ext2,
        lambda: truncated_polynomial(3),
        lambda: truncated_polynomial(3, degree=2),
    ],
    ids=["koszul(2)", "koszul(19^3)", "base_ring", "ext2-a9-b3", "x^3 |x|=0", "x^3 |x|=2"],
)
def test_word_basis_matches_the_per_cell_reference(build):
    # a bound-12 build reads cells (s, t) with s + t <= 13; every one must
    # list the reference's words in the reference's order (the row and
    # column order of every matrix, and so of every Smith transform, follows
    # it); degree-0 non-units of Z[x]/(x^3) fill slots without spending t
    A, window = build(), 13
    words = hochschild._word_basis(A, window)
    assert all(s + t <= window and cell for (s, t), cell in words.items())
    for s in range(window + 1):
        for t in range(window - s + 1):
            assert words.get((s, t), []) == list(cell_words_reference(A, s, t)), (s, t)


def test_matching_of_ext2_and_its_critical_words():
    M = first_slot_matching(ext2())
    assert M.split == {"xy": ("x", "y")} and M.merge == {("x", "y"): "xy"}
    assert M.partner(("1", "x", "xy", "y")) == (("1", "x", "x", "y", "y"), True)
    assert M.partner(("1", "x", "x", "y", "y")) == (("1", "x", "xy", "y"), False)
    assert M.partner(("x", "y", "y", "x")) is None
    words = critical_words(M, 9)
    # a_0 followed by y^k x^l: n + 1 words in degree n
    assert [len(words[n]) for n in range(10)] == list(range(1, 11))
    assert all(M.partner(w) is None for n in words for w in words[n])


def test_no_matching_for_koszul_models_and_truncated_polynomials():
    # t * t = 0 leaves nothing to split; x * x = x2 splits, but x is the end
    # of the merge pair (x, x), so splitting x2 in (1, x, x2) gives
    # (1, x, x, x), whose first pair merges back to (1, x2, x)
    for A in (koszul_resolution(4), koszul_resolution(27), base_ring()):
        assert first_slot_matching(A) is None
    for n in (3, 4):
        assert first_slot_matching(truncated_polynomial(n)) is None
        assert first_slot_matching(truncated_polynomial(n, degree=2)) is None
    rule = FirstSlotMatching(truncated_polynomial(3, degree=2), {"x2": ("x", "x")}, {("x", "x"): "x2"})
    assert rule.partner(("1", "x", "x2")) == (("1", "x", "x", "x"), True)
    assert rule.partner(("1", "x", "x", "x")) == (("1", "x2", "x"), False)


def test_morse_path_raises_on_a_wrong_sign(monkeypatch):
    # the differential on slot 0 negated: D(D(w)) != 0 on a word w a flow reads
    word_differential = hochschild._word_differential

    def flipped_slot_zero(A, word):
        # internal terms keep the length; slot zero's changes slot 0
        return {
            out: -c if len(out) == len(word) and out[0] != word[0] else c
            for out, c in word_differential(A, word).items()
        }

    M = first_slot_matching(ext2())
    critical_complex(M, 6)
    monkeypatch.setattr(hochschild, "_word_differential", flipped_slot_zero)
    for cyclic in (False, True):
        with pytest.raises(CompositionNonzero):
            critical_complex(M, 6, cyclic=cyclic)


def test_morse_path_raises_on_a_non_involutive_split():
    # xy splits into (y, x), which does not merge back: the first flow
    # through a word holding xy finds the split word critical
    M = FirstSlotMatching(ext2(), {"xy": ("y", "x")}, {("x", "y"): "xy"})
    for cyclic in (False, True):
        with pytest.raises(MatchingFailed, match="involution"):
            critical_complex(M, 6, cyclic=cyclic)


def test_morse_path_raises_past_its_step_cap(monkeypatch):
    M = first_slot_matching(ext2())
    critical_complex(M, 6, cyclic=True)
    monkeypatch.setattr(hochschild, "MAX_FLOW_STEPS", 1)
    for cyclic in (False, True):
        with pytest.raises(MatchingFailed, match="more than 1 cells"):
            critical_complex(M, 6, cyclic=cyclic)


def test_morse_path_refuses_flows_that_form_a_cycle():
    # u and v sit in degree 1, paired with w and x above; d c = u for the
    # critical cell c, d w = u + v and d x = u + v, so the flow of u reaches
    # v and the flow of v reaches u again
    terms = {"c": {"u": 1}, "w": {"u": 1, "v": 1}, "x": {"u": 1, "v": 1}}
    pairs = {"u": ("w", True), "w": ("u", False), "v": ("x", True), "x": ("v", False)}
    critical = {0: [], 1: [], 2: ["c"]}
    with pytest.raises(MatchingFailed, match="form a cycle"):
        hochschild._morse_complex(critical, lambda x: terms.get(x, {}), pairs.get, 2)


@pytest.mark.parametrize(
    "terms, pairs, match",
    [
        # u is paired with w above, where d w = 2 u: the flow would divide by 2
        (
            {"c": {"u": 1}, "w": {"u": 2}},
            {"u": ("w", True), "w": ("u", False)},
            "coefficient 2 on the pair",
        ),
        # u is neither paired nor critical
        ({"c": {"u": 1}}, {}, "unpaired cell u is not among the critical cells"),
    ],
    ids=["coefficient-2", "unpaired-noncritical"],
)
def test_morse_path_refuses_a_bad_pair_or_an_unpaired_cell(terms, pairs, match):
    # d c = u for the critical cell c of degree 2
    critical = {0: [], 1: [], 2: ["c"]}
    with pytest.raises(MatchingFailed, match=match):
        hochschild._morse_complex(critical, lambda x: terms.get(x, {}), pairs.get, 2)


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("name", ["ext2-a9-b3", "ext2-a3-b9", "ext2-a-3-b9"])
def test_critical_complex_matches_the_flow_sweep_reference(monkeypatch, name, cyclic):
    # the memoized flow images give, matrix for matrix, the complex that
    # sweeping each critical cell's flows in topological order gives
    M = first_slot_matching(load_algebra((BENCH_INPUTS / f"{name}.alg").read_text()))
    C = critical_complex(M, 10, cyclic)
    monkeypatch.setattr(hochschild, "_morse_complex", morse_complex_reference)
    R = critical_complex(M, 10, cyclic)
    assert C.basis == R.basis
    for n in C.degrees():
        assert C.diff(n) == R.diff(n), n
    assert any(not C.diff(n).is_zero() for n in C.degrees())


def test_column_zero_of_the_cyclic_morse_complex_is_the_hochschild_one():
    # column 0 leads each degree and spans a subcomplex: the Morse complex
    # of the Hochschild complex, label for label and block for block
    M = first_slot_matching(ext2())
    C, H = critical_complex(M, 9, cyclic=True), critical_complex(M, 9)
    lead = [sum(s == 0 for s, _ in C.labels(n)) for n in range(11)]
    for n in range(11):
        assert C.labels(n)[: lead[n]] == H.labels(n)
        assert all(s > 0 for s, _ in C.labels(n)[lead[n] :])
    for n in range(1, 11):
        rows = C.diff(n).by_row
        assert {r: {c: v for c, v in row.items() if c < lead[n]} for r, row in rows.items()
                if r < lead[n - 1] and min(row) < lead[n]} == H.diff(n).by_row
        assert all(min(row) >= lead[n] for r, row in rows.items() if r >= lead[n - 1])


def test_connes_split_refuses_a_leading_block_that_is_not_a_subcomplex():
    # cells labelled (column, name), d c = b: column 0 is {a} in degree 0
    # and {c} in degree 1, and d maps the leading cell c onto the column-1
    # cell b
    d = {1: SparseIntMatrix.from_dense([[0], [1]])}
    C = ChainComplex({0: ((0, "a"), (1, "b")), 1: ((0, "c"),), 2: ((1, "e"),)}, d)
    with pytest.raises(CompositionNonzero, match="leading block"):
        _connes_sequence(C, 1)
    C = ChainComplex({0: ((0, "a"), (0, "b")), 1: ((0, "c"),), 2: ((1, "e"),)}, d)
    with pytest.raises(BoundTooSmall):  # split, but degree 2 has no node
        _connes_sequence(C, 2)


def test_connes_split_reports_a_trailing_block_that_is_not_d_two_degrees_down():
    # d b = 2 a in column 0 and d b' = 3 a' in column 1: d^2 = 0 and the
    # split is a subcomplex, but the trailing block of d_3 is [3] where d_1
    # is [2].  The report is falsy on periodicity_ok; its `exact` reads the
    # quotient's node in degree 2 off C's H_0 = Z/2, where the projection
    # from HC_2 = Z/3 kills only 2Z, not the image of HH_2 = 0
    d = {1: SparseIntMatrix.from_dense([[2]]), 3: SparseIntMatrix.from_dense([[3]])}
    C = ChainComplex({0: ((0, "a"),), 1: ((0, "b"),), 2: ((1, "a'"),), 3: ((1, "b'"),)}, d, 0, 4)
    report = _connes_sequence(C, 3)
    assert not report and not report.periodicity_ok
    assert report.failures == (("hc", 2),) and len(report.checked_nodes) == 6


def test_connes_split_reports_a_trailing_block_of_another_size_than_c_two_degrees_down():
    # with d = 0, the trailing block of d_2 has two columns (x, y) where C_0
    # has one cell, so the quotient's node in degree 2 cannot be read off
    # H_0(C): the report is falsy and reads no node
    basis = {0: ((0, "a"),), 1: ((0, "b"),), 2: ((1, "x"), (1, "y")), 3: ((1, "z"),)}
    report = _connes_sequence(ChainComplex(basis, {}), 3)
    assert not report and not report.periodicity_ok and not report.exact
    assert report.checked_nodes == () and report.failures == ()


def test_morse_sbi_check_raises_on_a_wrong_sign_of_B(monkeypatch):
    # the rotation by one slot negated: (D + B)^2 != 0 on a word a flow reads
    cyclic_differential = hochschild._cyclic_differential

    def flipped_rotation(A, word):
        B = dict(cyclic_differential(A, word))
        rotated = (A.unit,) + word[1:] + word[:1]
        if len(word) >= 2 and rotated in B:
            B[rotated] = -B[rotated]
        return B

    assert sbi_check(ext2(), 6)
    monkeypatch.setattr(hochschild, "_cyclic_differential", flipped_rotation)
    with pytest.raises(CompositionNonzero):
        sbi_check(ext2(), 6)


def test_library_queries_on_ext2_never_take_the_full_build(monkeypatch):
    # ext2 passes the matching check, so hh, hc, hc_groups (which the mod-q
    # table reads) and sbi_check read the critical cells; the full build,
    # made before it is disabled, is the oracle through bound 8
    A = ext2()
    H, bundle = HochschildComplex(A, 8).total, cyclic_bundle(A, 8).total
    want_sbi = _connes_sequence(bundle, 8)

    def refuse(*args):
        raise AssertionError("the full build was called")

    monkeypatch.setattr(cyclic, "HochschildComplex", refuse)
    monkeypatch.setattr(cyclic, "cyclic_bundle", refuse)
    for i in range(9):
        assert hh(A, i) == homology(H, i), i
        assert hc(A, i) == homology(bundle, i), i
    assert hc_groups(A, 8) == homology_groups(bundle, range(9))
    assert sbi_check(A, 8) == want_sbi and want_sbi


def cli_table(command, A, top, tmp_path):
    path = tmp_path / "ring.alg"
    path.write_text(dump_algebra(A))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, "--ring", str(path), "--max-degree", str(top)])
    assert code == cli.EXIT_OK
    return out.getvalue().splitlines()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hh_of_truncated_polynomials(tmp_path, n):
    # HH_0 = Z^n, HH_{2i-1} = Z^(n-1) + Z/n, HH_{2i} = Z^(n-1); the matching
    # refuses Z[x]/(x^n), so the table comes from the full build
    odd, even = AbelianGroup.from_diagonal([n], n - 1), AbelianGroup.free(n - 1)
    want = [AbelianGroup.free(n)] + [odd if i % 2 else even for i in range(1, 8)]
    lines = cli_table("hh", truncated_polynomial(n), 7, tmp_path)
    assert lines == [f"HH_{i}: {g}" for i, g in enumerate(want)]


def test_hc_of_dual_numbers(tmp_path):
    A = truncated_polynomial(2)
    want = {
        1: AbelianGroup.from_diagonal([2]),
        3: AbelianGroup.from_diagonal([2, 6]),
        5: AbelianGroup.from_diagonal([2, 2, 30]),
        7: AbelianGroup.from_diagonal([2, 2, 2, 210]),
    }
    lines = cli_table("hc", A, 7, tmp_path)
    for i, g in want.items():
        assert lines[i] == f"HC_{i}: {g}"
    # the Connes sequence HH -> HC -> HC[-2] -> HH[-1] is exact through 7
    assert sbi_check(A, 7)
