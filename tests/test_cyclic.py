import pathlib
import random

import pytest

from cychom import cyclic
from cychom.complexes import ChainMap, homology_groups
from cychom.cyclic import (
    cyclic_bundle,
    cyclic_map,
    hc,
    hc_groups,
    hc_mod_table,
    hc_relative,
    hh,
    hh_groups,
    induced_cyclic_map,
    rel_hc_groups,
    rel_hc_table,
    relative_les_check,
    sbi_check,
    tower_report,
)
from cychom.dga import DGAMorphism, koszul_resolution, load_algebra, reduction_map
from cychom.errors import BoundTooSmall, DimensionMismatch, NotAChainMap
from cychom.hochschild import cyclic_operator, induced_map
from cychom.intlin import AbelianGroup, SparseIntMatrix

from oracles import (
    base_ring,
    koszul_hc_relations,
    quotient_invariants,
    tower_cokernel_relations,
    truncated_polynomial,
)

BENCH_INPUTS = pathlib.Path(__file__).parent.parent / "bench" / "inputs"


def test_hc_of_base_ring():
    # HC_{2i}(Z) = Z, odd groups vanish
    for i in range(6):
        want = AbelianGroup.free(1) if i % 2 == 0 else AbelianGroup.trivial()
        assert hc(base_ring(), i) == want


def test_hc_of_z_mod_m_small():
    # HC_{2(j-1)}(Z/m) = Z/m^j below degree 2p (the boundary degree 2p
    # itself is non-cyclic, see the connecting-cokernel test), odd vanish
    for m, top in ((4, 4), (9, 6)):
        for i in range(top):
            if i % 2:
                want = AbelianGroup.trivial()
            else:
                want = AbelianGroup.cyclic(m ** (i // 2 + 1))
            assert hc(koszul_resolution(m), i) == want, (m, i)


def test_hc_stabilizes_in_bound():
    # the groups through a degree do not depend on where the build stops: a
    # single-degree query builds to its own degree, a table two above it
    # (ext2 takes the Morse path, the other two the full build)
    ext2 = load_algebra((BENCH_INPUTS / "ext2-a9-b3.alg").read_text())
    for A in (ext2, koszul_resolution(9), truncated_polynomial(3)):
        for i in range(4):
            assert hh(A, i) == hh_groups(A, i + 2)[i], i
            assert hc(A, i) == hc_groups(A, i + 2)[i], i
    f = reduction_map(27, 9)
    for i in range(4):
        assert hc_relative(f, i) == rel_hc_groups(f, i + 2)[i], i


def test_hc_mod_p():
    A = koszul_resolution(27)
    assert hc_mod_table(hc_groups(A, 5), 3) == [AbelianGroup.cyclic(3)] * 6


def test_bound_errors():
    # a negative degree is refused before any build, on either path
    ext2 = load_algebra((BENCH_INPUTS / "ext2-a9-b3.alg").read_text())
    for A in (base_ring(), ext2):
        with pytest.raises(BoundTooSmall):
            hc(A, -1)
    with pytest.raises(BoundTooSmall):
        cyclic_bundle(base_ring(), -1)
    with pytest.raises(BoundTooSmall):
        hc_relative(reduction_map(9, 3), -1)


def test_relative_of_identity_vanishes():
    ident = DGAMorphism.identity(koszul_resolution(9))
    for i in range(4):
        assert hc_relative(ident, i).is_trivial()


def test_relative_table_even_degrees():
    # reduction Z/p^n -> Z/p^{n-1}: relative HC at 2(j-1) is Z/p^j
    for p, n in ((3, 2), (3, 3), (5, 2)):
        f = reduction_map(p ** n, p ** (n - 1))
        for j in (1, 2):
            assert hc_relative(f, 2 * (j - 1)) == AbelianGroup.cyclic(p ** j)
        assert hc_relative(f, 1).is_trivial()
        assert hc_relative(f, 3).is_trivial()


def test_top_odd_degree_matches_connecting_cokernel():
    # At i = 2p - 1 the relative group is the cokernel of
    # HC_{2p}(Z/p^n) -> HC_{2p}(Z/p^{n-1}), since HC_{2p-1}(Z/p^n) = 0.
    # HC_{2p}(Z/m) is the cokernel of a bidiagonal (p+1) x (p+1) matrix with
    # m on the diagonal and p, p-1, ..., 1 above it; the entry p makes it
    # non-cyclic.  In the tower cokernel the entries p-1, ..., 1 are prime
    # to p and, with the images p^{p-s} e_s of the source generators, kill
    # e_1, ..., e_p, leaving Z/p from the relation p*e_0 = 0.
    for p, n in ((3, 2), (3, 3)):
        free, facs = quotient_invariants(
            p + 1, koszul_hc_relations(p ** n, p)
        )
        expected = AbelianGroup(free, tuple(facs))
        assert hc(koszul_resolution(p ** n), 2 * p) == expected
        assert len(expected.invariant_factors) == 2  # non-cyclic
        free, facs = quotient_invariants(
            p + 1, tower_cokernel_relations(p, n, p)
        )
        relative = AbelianGroup(free, tuple(facs))
        assert relative == AbelianGroup.cyclic(p)
        f = reduction_map(p ** n, p ** (n - 1))
        assert hc_relative(f, 2 * p - 1) == relative


def test_relative_les_exact():
    assert relative_les_check(reduction_map(9, 3), 5)
    assert relative_les_check(reduction_map(8, 2), 4)


@pytest.mark.parametrize(
    "query, bound", [(relative_les_check, 4), (rel_hc_groups, 3)], ids=["les", "rel-hc"]
)
def test_relative_queries_build_both_bundles_through_cyclic_bundle(monkeypatch, query, bound):
    # the source's and the target's bundle, each through cyclic_bundle with
    # positional (algebra, bound), and no CyclicComplexBundle made elsewhere
    calls, bundles = [], []
    build, make = cyclic.cyclic_bundle, cyclic.CyclicComplexBundle

    def counting_build(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    def counting_make(*args, **kwargs):
        bundles.append((args, kwargs))
        return make(*args, **kwargs)

    monkeypatch.setattr(cyclic, "cyclic_bundle", counting_build)
    monkeypatch.setattr(cyclic, "CyclicComplexBundle", counting_make)
    f = reduction_map(9, 3)
    assert query(f, bound)
    assert calls == [((f.source, bound + 1), {}), ((f.target, bound + 1), {})]
    assert len(bundles) == 2


def test_tower_surjectivity():
    F = induced_cyclic_map(reduction_map(9, 3), 8)
    for i in range(6):
        rep = tower_report(3, 2, F, i)
        assert rep.surjective and rep.in_verified_range
    assert not tower_report(3, 2, F, 7).in_verified_range


def test_one_build_answers_every_degree():
    # the chains of degree <= bound + 1 do not depend on the bound, so one
    # build at bound 2p gives the per-degree builds' groups and reports
    for p, n in ((3, 3), (5, 2)):
        f = reduction_map(p ** n, p ** (n - 1))
        F = induced_cyclic_map(f, 2 * p)
        top = 2 * p - 1
        degrees = range(top + 1)
        A = koszul_resolution(p ** n)
        H = cyclic_bundle(A, 2 * p).hochschild.total
        assert homology_groups(H, degrees) == [hh(A, i) for i in degrees]
        groups = homology_groups(F.source, degrees)
        assert groups == [hc(A, i) for i in degrees]
        assert hc_mod_table(groups, p) == [hc_mod_table(hc_groups(A, i), p)[i] for i in degrees]
        assert rel_hc_table(F) == [hc_relative(f, i) for i in degrees]
        for i in degrees:
            own = induced_cyclic_map(f, i + 1)
            assert tower_report(p, n, F, i) == tower_report(p, n, own, i), (p, n, i)


@pytest.mark.parametrize("source, target", [(8, 4), (9, 3), (27, 9), (25, 5)])
def test_rel_hc_table_reads_every_exact_degree(source, target):
    # built through b, the cone answers degrees 0..b - 1 exactly; degree b
    # would be a truncation artifact (Z/3 + Z/9 + Z/27 for 9 -> 3 at b = 5,
    # where the group is Z/3), so the table stops below it
    f = reduction_map(source, target)
    groups = [hc_relative(f, i) for i in range(8)]
    for b in range(1, 9):
        F = induced_cyclic_map(f, b)
        table = rel_hc_table(F)
        assert len(table) == b
        assert table == rel_hc_groups(f, b - 1) == groups[:b], b


def _cell_ranges(labels):
    """(s, t) -> the index range of that cell's labels in a total degree."""
    ranges = {}
    for k, (s, t, _) in enumerate(labels):
        ranges[(s, t)] = range(ranges.get((s, t), range(k, k)).start, k + 1)
    return ranges


def test_induced_cyclic_map_components_are_block_copies():
    # cell (s, t) of the cyclic total (column s of degree s + t) holds the
    # Hochschild chains of degree t - s, and F copies the Hochschild map into it
    f = reduction_map(9, 3)
    F = induced_cyclic_map(f, 3)
    src, tgt = cyclic_bundle(f.source, 3), cyclic_bundle(f.target, 3)
    hsrc = src.hochschild
    Fh = induced_map(f, hsrc, tgt.hochschild)
    assert (F.source, F.target) == (src.total, tgt.total)
    blocks = 0
    for n in src.total.degrees():
        M = F.component(n)
        rows, cols = _cell_ranges(tgt.total.labels(n)), _cell_ranges(src.total.labels(n))
        inside = set()
        for (s, t), cr in cols.items():
            rr = rows.get((s, t), range(0))
            assert [lbl for _, _, lbl in src.total.labels(n)[cr.start : cr.stop]] == list(
                hsrc.total.labels(t - s)
            )
            block = {
                (r - rr.start, c - cr.start): v
                for (r, c), v in M.entries.items()
                if r in rr and c in cr
            }
            assert SparseIntMatrix(len(rr), len(cr), block) == Fh.component(t - s), (s, t)
            inside |= {(r, c) for r in rr for c in cr}
            blocks += bool(block)
        assert set(M.entries) <= inside, n
    cells = {lbl[:2] for n in src.total.degrees() for lbl in src.total.labels(n)}
    assert blocks == len(cells) == 9
    # the Hochschild map must run between the bundles' own complexes
    with pytest.raises(DimensionMismatch):
        cyclic_map(Fh, tgt, src)


def test_induced_cyclic_map_checks_the_squares_with_B():
    # F = 1 + b h + h b commutes with b for any h of degree +1, but not with
    # B in general; the cyclic chain map is the only place B is checked
    bundle = cyclic_bundle(koszul_resolution(4), 5)
    C = bundle.hochschild.total
    rng = random.Random(20261018)
    h = {
        n: SparseIntMatrix(
            C.dim(n + 1),
            C.dim(n),
            {(i, j): rng.choice((-1, 1, 2)) for i in range(C.dim(n + 1)) for j in range(C.dim(n))},
        )
        for n in range(-1, 7)
    }
    F = {
        n: SparseIntMatrix.identity(C.dim(n)) + C.diff(n + 1) @ h[n] + h[n - 1] @ C.diff(n)
        for n in range(7)
    }
    ChainMap(C, C, F)
    B = [cyclic_operator(bundle.hochschild, n) for n in range(5)]
    # B fails to commute in a Hochschild degree below 5, which the cyclic total uses
    assert [n for n in range(5) if B[n] @ F[n] != F[n + 1] @ B[n]] == [3]
    with pytest.raises(NotAChainMap):
        cyclic_map(ChainMap(C, C, F), bundle, bundle)


def test_sbi_sequence_exact():
    for A, bound in ((base_ring(), 5), (koszul_resolution(4), 5),
                     (koszul_resolution(9), 6)):
        rep = sbi_check(A, bound)
        assert rep.exact and rep.periodicity_ok, rep.failures
        assert rep.checked_nodes


def test_exactness_checks_refuse_a_range_without_nodes():
    # sbi_check's first node is in degree 2 and relative_les_check's in
    # degree 1: below them the sequence has nothing to check, and a check of
    # nothing must not pass (the ext2 algebra takes the Morse path, the
    # Koszul model the full build)
    ext2 = load_algebra((BENCH_INPUTS / "ext2-a9-b3.alg").read_text())
    for A in (ext2, koszul_resolution(4)):
        for bound in (0, 1):
            with pytest.raises(BoundTooSmall):
                sbi_check(A, bound)
        assert sbi_check(A, 2).checked_nodes == (("hc", 2), ("hc_shifted", 2), ("hh", 1))
    with pytest.raises(BoundTooSmall):
        relative_les_check(reduction_map(9, 3), -1)
    assert relative_les_check(reduction_map(9, 3), 0).checked_nodes == (
        ("tgt", 1), ("cone", 1), ("src", 0)
    )
