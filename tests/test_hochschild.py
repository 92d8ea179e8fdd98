import pathlib

import pytest

from cychom.dga import (
    DGAlgebra,
    base_ring,
    koszul_resolution,
    load_algebra,
    reduction_map,
)
from cychom import hochschild
from cychom.cyclic import cyclic_bundle
from cychom.errors import BoundTooSmall, CompositionNonzero, TruncationTooTight
from cychom.hochschild import (
    HochschildComplex,
    connes_B,
    hh,
    hochschild_complex,
    induced_map,
)
from cychom.intlin import AbelianGroup, SparseIntMatrix

from oracles import cyclic_operator_reference, face_terms_reference, internal_terms_reference

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
    # D^2 = B^2 = DB + BD = 0 as matrix identities through degree 2p + 1
    for p in (2, 3, 5, 7):
        H = hochschild_complex(koszul_resolution(p), 2 * p + 1)
        checks = H.check_identities()
        assert all(checks.values()), (p, checks)


def test_identity_suite_other_algebras():
    for A in (base_ring(), exterior_two(), upper_triangular_two()):
        H = hochschild_complex(A, 6)
        assert all(H.check_identities().values())


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
    assert hh(A, 0, bound=4) == AbelianGroup.free(2)
    for i in (1, 2, 3):
        assert hh(A, i, bound=4).is_trivial()


def test_bounds_and_truncation():
    with pytest.raises(BoundTooSmall):
        hochschild_complex(base_ring(), -1)
    H = hochschild_complex(koszul_resolution(4), 3)
    with pytest.raises(TruncationTooTight):
        H.homology(4)
    with pytest.raises(TruncationTooTight):
        H.cyclic_operator(4)


def test_connes_operator_degrees():
    H = hochschild_complex(koszul_resolution(4), 4)
    B = connes_B(H, 2)
    assert B.shape == (H.dim(3), H.dim(2))


def test_induced_map_is_chain_map_and_functorial():
    f = reduction_map(8, 4)
    g = reduction_map(4, 2)
    src, mid, F = induced_map(f, 4)
    mid2, tgt, G = induced_map(g, 4)
    assert mid.total == mid2.total
    _, _, GF = induced_map(g.compose(f), 4)
    for n in range(5):
        assert GF.component(n) == G.component(n) @ F.component(n)


def test_induced_map_drops_normalized_units():
    # t -> 4 t' in koszul(8) -> koszul(2); words stay unit-free in slots >= 1
    _, tgt, F = induced_map(reduction_map(8, 2), 3)
    for n in range(4):
        M = F.component(n)
        assert M.shape == (tgt.total.dim(n), M.cols)


def test_sign_errors_fail_the_total_complex_check(monkeypatch):
    # each identity of the Hochschild and cyclic bicomplexes is checked as
    # d^2 = 0 of their total complexes; a single wrong sign must be caught
    A = exterior_two()
    face_terms, internal_terms = hochschild._face_terms, hochschild._internal_terms

    def flipped_wrap(A, word):
        terms = list(face_terms(A, word))
        if len(word) == 2:
            inner = len(A.mult.get((word[0], word[1])) or {})
            terms[inner:] = [(out, -c) for out, c in terms[inner:]]
        return iter(terms)

    def flipped_slot_one(A, word):
        for out, c in internal_terms(A, word):
            slot_one = len(word) >= 2 and out[0] == word[0] and out[2:] == word[2:]
            yield out, -c if slot_one else c

    for name, mutant in (("_face_terms", flipped_wrap), ("_internal_terms", flipped_slot_one)):
        with monkeypatch.context() as m:
            m.setattr(hochschild, name, mutant)
            with pytest.raises(CompositionNonzero):
                hochschild_complex(A, 5)

    build_B = HochschildComplex._build_B

    def negated_entry(self, n):
        M = build_B(self, n)
        if n != 1:
            return M
        entries = dict(M.entries)
        key = min(entries)
        entries[key] = -entries[key]
        return SparseIntMatrix(M.rows, M.cols, entries)

    hochschild_complex(A, 5)
    cyclic_bundle(A, 5)
    monkeypatch.setattr(HochschildComplex, "_build_B", negated_entry)
    with pytest.raises(CompositionNonzero):
        cyclic_bundle(A, 5)


@pytest.mark.parametrize(
    "name", ["ext2-a9-b3", "ext2-a3-b9", "ext2-a-3-b9", "koszul(9)", "base_ring"]
)
def test_signs_match_the_slot_by_slot_reference(monkeypatch, name):
    # one prefix array per word gives the signs that adding up each slot's
    # prefix again gives, matrix for matrix, for D and B in every degree
    if name == "koszul(9)":
        A = koszul_resolution(9)
    elif name == "base_ring":
        A = base_ring()
    else:
        A = load_algebra((BENCH_INPUTS / f"{name}.alg").read_text())
    bound = 8
    H = hochschild_complex(A, bound)
    with monkeypatch.context() as m:
        m.setattr(hochschild, "_internal_terms", internal_terms_reference)
        m.setattr(hochschild, "_face_terms", face_terms_reference)
        ref = hochschild_complex(A, bound)
    assert H.total.basis == ref.total.basis
    for n in range(bound + 2):
        assert H.differential(n) == ref.differential(n), n
    for n in range(bound + 1):
        B = H.cyclic_operator(n)
        assert (B.rows, B.cols, B.entries) == cyclic_operator_reference(ref, n), n
