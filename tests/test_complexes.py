import pytest

from cychom.complexes import (
    Bicomplex,
    ChainComplex,
    ChainMap,
    cone_les_check,
    exact_at,
    homology,
    homology_groups,
    homology_presentation,
    induced_on_homology,
    mapping_cone,
    tensor,
    total_complex,
    universal_coefficients,
)
from cychom.errors import (
    BoundTooSmall,
    CompositionNonzero,
    DimensionMismatch,
    NotAChainMap,
    TruncationTooTight,
)
from cychom.intlin import AbelianGroup, SparseIntMatrix

from oracles import to_dense, two_term_complex, unit_complex


def test_two_term_complex_homology():
    C = two_term_complex(6)
    assert homology(C, 0) == AbelianGroup.cyclic(6)
    # H_1 needs degree-2 chains which the complex does not declare
    with pytest.raises(TruncationTooTight):
        homology(C, 1)


def test_homology_where_the_differential_is_injective():
    # 0 -> Z --4--> Z -> 0 declared through degree 2: H_1 = ker(4) = 0
    C = ChainComplex(
        {0: ("a",), 1: ("b",)}, {1: SparseIntMatrix.from_dense([[4]])}, max_degree=2
    )
    assert homology(C, 1) == AbelianGroup.trivial()


def test_d_squared_checked():
    basis = {0: ("a",), 1: ("b",), 2: ("c",)}
    one = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(CompositionNonzero):
        ChainComplex(basis, {1: one, 2: one})


def test_differential_shape_checked():
    with pytest.raises(DimensionMismatch):
        ChainComplex({0: ("a",), 1: ("b",)}, {1: SparseIntMatrix.zero(2, 1)})


def test_tensor_kunneth():
    # Z/2 (x) Z/3 resolutions: H_0 = Z/6... no, H_0(C2 (x) C3) where
    # C_m resolves Z/m: H_0 = Z/gcd = Z/1? Tor says H_0 = Z/2 (x) Z/3 = 0
    # and H_1 = Tor(Z/2, Z/3) = 0.
    T = tensor(two_term_complex(2), two_term_complex(3))
    assert homology(T, 0).is_trivial()
    assert homology(T, 1).is_trivial()
    # same modulus: H_0 = Z/2, H_1 = Tor(Z/2, Z/2) = Z/2
    T = tensor(two_term_complex(2), two_term_complex(2))
    assert homology(T, 0) == AbelianGroup.cyclic(2)
    assert homology(T, 1) == AbelianGroup.cyclic(2)
    # the unit really is a unit
    C = two_term_complex(5)
    assert tensor(C, unit_complex()).dim(0) == 1


def homology_mod(C, i, q):
    """H_i(C; Z/q) by universal coefficients, for C starting in degree 0."""
    groups = [AbelianGroup.trivial()] + homology_groups(C, range(i + 1))
    return universal_coefficients(groups[-1], groups[-2], q)


def test_homology_mod():
    # degree 1 reads H_1, so the complex must reach degree 2
    C = two_term_complex(4)
    C = ChainComplex(C.basis, C.differential, 0, 2)
    assert homology_mod(C, 0, 2) == AbelianGroup.cyclic(2)
    assert homology_mod(C, 1, 2) == AbelianGroup.cyclic(2)
    assert homology_mod(C, 1, 3).is_trivial()


def test_homology_mod_refuses_the_top_degree():
    # Z --1--> Z --0--> Z: H_1(C; Z/2) = 0, but the truncation at degree 1
    # has lost d_2, and would read Z/2 there
    one = SparseIntMatrix.from_dense([[1]])
    full = ChainComplex({0: ("a",), 1: ("b",), 2: ("c",)}, {2: one})
    assert homology_mod(full, 1, 2).is_trivial()
    truncated = ChainComplex({0: ("a",), 1: ("b",)}, {}, 0, 1)
    with pytest.raises(TruncationTooTight):
        homology_mod(truncated, 1, 2)
    assert homology_mod(truncated, 0, 2) == AbelianGroup.cyclic(2)


def test_mapping_cone_of_identity_is_acyclic():
    C = two_term_complex(6)
    cone = mapping_cone(ChainMap.identity(C))
    for n in range(cone.min_degree, cone.max_degree):
        assert homology(cone, n).is_trivial()


def test_chain_map_square_checked():
    C = two_term_complex(2)
    D = two_term_complex(3)
    with pytest.raises(NotAChainMap):
        ChainMap(C, D, {0: SparseIntMatrix.identity(1), 1: SparseIntMatrix.identity(1)})
    # multiplication by 3 in degree 0 does commute: 3*2 = 2*3
    f = ChainMap(
        C,
        D,
        {0: SparseIntMatrix.from_dense([[3]]), 1: SparseIntMatrix.from_dense([[2]])},
    )
    _, tgt, image = induced_on_homology(f, 0)
    assert tgt.generated_by(image) is False


def test_cone_les_exactness():
    components = {0: SparseIntMatrix.identity(1), 1: SparseIntMatrix.from_dense([[2]])}
    # H_1 needs chains in degree 2: on the complexes as built, which end in
    # degree 1, degree 1 has no node, and a check of no node is refused
    with pytest.raises(BoundTooSmall):
        cone_les_check(ChainMap(two_term_complex(4), two_term_complex(2), components), [1])
    src, tgt = (ChainComplex(T.basis, T.differential, 0, 2) for T in map(two_term_complex, (4, 2)))
    report = cone_les_check(ChainMap(src, tgt, components), [1])
    assert report
    assert report.checked_nodes == (("tgt", 1), ("cone", 1), ("src", 0))
    assert not report.failures


def test_homology_presentation_coords():
    C = two_term_complex(6)
    hp = homology_presentation(C, 0)
    assert hp.group == AbelianGroup.cyclic(6)
    coords = hp.coords_of_cycles(SparseIntMatrix.from_dense([[6]]))
    # 6 times the generator must be a relation
    from cychom.intlin import lattice_contains

    assert lattice_contains(hp.relations, coords)


def _complex_with_h0(d_1):
    """C_1 -> C_0 with the dense d_1, declared through degree 1."""
    d_1 = SparseIntMatrix.from_dense(d_1)
    basis = {0: tuple(f"a{k}" for k in range(d_1.rows)), 1: tuple(f"b{k}" for k in range(d_1.cols))}
    return ChainComplex(basis, {1: d_1}, 0, 1)


@pytest.mark.parametrize(
    "d_1, group",
    [
        # Z (+) Z/6, with the relation spread over both coordinates
        ([[6, 0], [-12, 0]], AbelianGroup(1, (6,))),
        # Z/2 (+) Z/4 through a unimodular change of coordinates
        ([[2, 4], [2, 8]], AbelianGroup(0, (2, 4))),
        ([[2, 0, 0], [0, 4, 0], [0, 0, 1]], AbelianGroup(0, (2, 4))),
    ],
)
def test_presentation_on_smith_form_generators(d_1, group):
    hp = homology_presentation(_complex_with_h0(d_1), 0)
    s = len(group.invariant_factors) + group.free_rank
    assert hp.group == group
    # one generator per nontrivial invariant factor, then the free part
    factors = list(group.invariant_factors) + [0] * group.free_rank
    assert hp.relations == SparseIntMatrix(s, s, {(j, j): d for j, d in enumerate(factors) if d})
    # each generator's cycle maps to its unit coordinate vector
    assert hp.coords_of_cycles(hp.cycles) == SparseIntMatrix.identity(s)
    # torsion coordinates are reduced into [0, d_j); free ones are exact
    coords = hp.coords_of_cycles(hp.cycles.scale(-7))
    for j, d in enumerate(factors):
        assert coords[j, j] == (-7 % d if d else -7)


def test_generated_by():
    hp = homology_presentation(_complex_with_h0([[0]]), 0)  # H_0 = Z
    assert hp.group == AbelianGroup.free(1)
    assert not hp.generated_by(SparseIntMatrix.from_dense([[2]]))  # Z --2--> Z
    assert hp.generated_by(SparseIntMatrix.from_dense([[-1]]))
    assert hp.generated_by(SparseIntMatrix.from_dense([[2, 3]]))


def test_coords_of_a_non_cycle_raise():
    # a -> z, c -> 3b: H_0 = <b> / <3b>, and a is not a cycle
    C = ChainComplex(
        {-1: ("z",), 0: ("a", "b"), 1: ("c",)},
        {0: SparseIntMatrix.from_dense([[1, 0]]), 1: SparseIntMatrix.from_dense([[0], [3]])},
    )
    hp = homology_presentation(C, 0)
    assert hp.group == AbelianGroup.cyclic(3)
    assert to_dense(hp.coords_of_cycles(SparseIntMatrix.from_dense([[0], [4]]))) == [[1]]
    with pytest.raises(CompositionNonzero):
        hp.coords_of_cycles(SparseIntMatrix.from_dense([[1], [0]]))


def _one(v):
    return SparseIntMatrix.from_dense([[v]])


@pytest.mark.parametrize(
    "mid_d1, incoming, outgoing, out_relations, exact",
    [
        # Z --2--> Z --> Z/2
        ([[0]], _one(2), _one(1), _one(2), True),
        # composite != 0, so the image is not in the kernel: Z --1--> Z --1--> Z
        ([[0]], _one(1), _one(1), SparseIntMatrix.zero(1, 0), False),
        # kernel not in the image: 0 --> Z --0--> Z
        ([[0]], SparseIntMatrix.zero(1, 0), _one(0), SparseIntMatrix.zero(1, 0), False),
        # Z/4 --2--> Z/4 --1--> Z/2: the kernel {0, 2} is the image
        ([[4]], _one(2), _one(1), _one(2), True),
        # Z/4 --2--> Z/4 --2--> Z/4: the kernel {0, 2} is the image
        ([[4]], _one(2), _one(2), _one(4), True),
        # Z/4 --1--> Z/4 --2--> Z/4: the composite 2 is not 0 in Z/4
        ([[4]], _one(1), _one(2), _one(4), False),
        # Z/4 --0--> Z/4 --2--> Z/4: the kernel {0, 2} is not in the image 0
        ([[4]], _one(0), _one(2), _one(4), False),
    ],
)
def test_exact_at_lattice_tests(mid_d1, incoming, outgoing, out_relations, exact):
    mid = homology_presentation(_complex_with_h0(mid_d1), 0)
    assert exact_at(mid, incoming, outgoing, out_relations) is exact


def test_total_complex_and_bicomplex_checks():
    one = SparseIntMatrix.from_dense([[1]])
    basis = {(0, 0): ("a",), (0, 1): ("b",), (1, 0): ("c",), (1, 1): ("d",)}
    # anticommuting square: v d = -? choose h on (1,1) = -1 so vh + hv = 0
    B = Bicomplex(
        basis,
        {(0, 1): one, (1, 1): one},
        {(1, 0): one, (1, 1): one.scale(-1)},
    )
    T = total_complex(B)
    assert [T.dim(n) for n in range(3)] == [1, 2, 1]
    assert (T.diff(1) @ T.diff(2)).is_zero()
    # a commuting square builds as a bicomplex; its total complex has d^2 != 0
    with pytest.raises(CompositionNonzero):
        total_complex(
            Bicomplex(basis, {(0, 1): one, (1, 1): one}, {(1, 0): one, (1, 1): one})
        )


@pytest.mark.parametrize(
    "cells, vertical, horizontal",
    [
        # vertical^2 != 0 down column 0
        ([(0, 0), (0, 1), (0, 2)], [(0, 1), (0, 2)], []),
        # horizontal^2 != 0 along row 0
        ([(0, 0), (1, 0), (2, 0)], [], [(1, 0), (2, 0)]),
        # v h != 0 while (1, 0) is empty, so v h + h v != 0
        ([(0, 0), (0, 1), (1, 1)], [(0, 1)], [(1, 1)]),
    ],
    ids=["vertical", "horizontal", "anticommutation"],
)
def test_total_complex_checks_each_bicomplex_identity(cells, vertical, horizontal):
    one = SparseIntMatrix.from_dense([[1]])
    B = Bicomplex(
        {st: (f"x{st}",) for st in cells},
        {st: one for st in vertical},
        {st: one for st in horizontal},
    )
    with pytest.raises(CompositionNonzero):
        total_complex(B)


def test_total_complex_explicit_bounds():
    one = SparseIntMatrix.from_dense([[2]])
    B = Bicomplex({(0, 0): ("a",), (0, 1): ("b",)}, {(0, 1): one}, {})
    T = total_complex(B, 0, 3)
    assert T.max_degree == 3
    assert homology(T, 2).is_trivial()
