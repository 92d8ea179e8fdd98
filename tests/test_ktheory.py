from fractions import Fraction

import pytest

from cychom import cli, cyclic, hochschild, ktheory
from cychom.errors import InvalidParams, RangeEmpty
from cychom.intlin import AbelianGroup
from cychom.ktheory import (
    ISO,
    SURJECTION,
    UNVERIFIED,
    goodwillie_range,
    k_table,
    published_k,
    relative_k,
)


def test_range_certificate_bounds():
    cert = goodwillie_range(7, 2)
    assert cert.iso_below == Fraction(5)
    assert cert.surj_below == Fraction(6)
    assert cert.is_iso(4) and not cert.is_iso(5)  # strict comparison
    assert cert.flag(5) == SURJECTION
    assert cert.flag(6) == UNVERIFIED
    assert cert.flag(-1) == UNVERIFIED
    cert = goodwillie_range(5, 3)
    assert cert.iso_below == Fraction(1, 2)
    assert cert.flag(0) == ISO
    with pytest.raises(InvalidParams):
        goodwillie_range(6, 2)
    with pytest.raises(InvalidParams):
        goodwillie_range(5, 1)


def test_relative_k_values():
    # p-part of relative HC in degree i-1: Z/p^j for i = 2j-1
    group, flag = relative_k(5, 2, 1)
    assert group == AbelianGroup.cyclic(5) and flag == ISO
    group, flag = relative_k(5, 2, 3)
    assert group == AbelianGroup.cyclic(25) and flag == SURJECTION
    group, flag = relative_k(5, 2, 2)
    assert group.is_trivial()
    with pytest.raises(InvalidParams):
        relative_k(6, 2, 1)
    with pytest.raises(InvalidParams):
        relative_k(5, 1, 1)
    with pytest.raises(InvalidParams):
        relative_k(5, 2, 0)


def test_k_group_closed_form():
    # K_{2j-1}(Z/p^n) cyclic of order p^{j(n-1)} (p^j - 1) for 2j-1 <= p-3
    assert published_k(7, 1, 1) == AbelianGroup.cyclic(6)
    assert published_k(7, 2, 1) == AbelianGroup.cyclic(42)
    assert published_k(7, 2, 3) == AbelianGroup.cyclic(49 * 48)
    assert published_k(7, 3, 1) == AbelianGroup.cyclic(49 * 6)
    assert published_k(7, 2, 2).is_trivial()


def test_k_group_unit_group_oracle():
    # K_1(Z/m) is the unit group, of order phi(m); phi(49) = 42
    phi = len([a for a in range(1, 49) if __import__("math").gcd(a, 49) == 1])
    assert phi == 42
    assert published_k(7, 2, 1).order() == phi


def test_k_group_cross_check():
    # k_table assembles its groups from the relative groups it computes;
    # they must equal the closed form
    for n in (1, 2, 3):
        table = k_table(7, n)
        for i in (1, 3):
            assert table[i].group == published_k(7, n, i)
    # i = 5 means j = 3: order p^{3(n-1)} (p^3 - 1)
    assert k_table(11, 2)[5].group == published_k(11, 2, 5)
    assert published_k(11, 2, 5).order() == 11 ** 3 * (11 ** 3 - 1)


def test_k_table_provenance():
    table = k_table(7, 2)
    assert sorted(table) == [1, 2, 3, 4]
    entry = table[3]
    assert entry.group == AbelianGroup.cyclic(49 * 48)
    assert any("AXIOM-TC" in line for line in entry.provenance)
    assert any("prime-to-p" in line for line in entry.provenance)
    assert any("level 2" in line for line in entry.provenance)
    # even degrees carry no axiom tag
    assert not any("AXIOM-TC" in line for line in table[2].provenance)
    # level 1 needs no relative input
    assert not any(
        "relative contribution" in line for line in k_table(7, 1)[1].provenance
    )


def test_k_table_builds_one_map_per_level(monkeypatch):
    # levels 2 and 3 each read all their degrees from one induced cyclic map,
    # built over the shared Hochschild complexes of Z/11, Z/11^2 and Z/11^3
    builds, maps = [], []
    init = hochschild.HochschildComplex.__init__
    induced = cyclic.induced_map

    def counting_init(self, A, bound):
        builds.append(bound)
        init(self, A, bound)

    def counting_induced(*args):
        maps.append(args)
        return induced(*args)

    monkeypatch.setattr(hochschild.HochschildComplex, "__init__", counting_init)
    monkeypatch.setattr(cyclic, "induced_map", counting_induced)
    table = k_table(11, 3)
    assert builds == [11 - 4] * 3
    assert len(maps) == 2
    assert table[5].group == AbelianGroup.cyclic(11 ** 6 * (11 ** 3 - 1))


def test_k_table_walks_no_tower_for_z_mod_p(monkeypatch):
    # Z/p reads no relative group, so it builds nothing; its entries are the
    # ones its level-1 tower gives
    want = {
        p: ktheory.k_entries(
            p, 1, {k: cyclic.rel_hc_table(F) for k, _, F in
                   cyclic.reduction_tower(p, 1, p - 4) if F is not None}
        )
        for p in (5, 7, 11, 101)
    }
    walked = []
    monkeypatch.setattr(ktheory, "reduction_tower", lambda *args: walked.append(args))
    for p, entries in want.items():
        assert k_table(p, 1) == entries, p
    assert walked == []


def test_k_table_empty_range():
    with pytest.raises(RangeEmpty):
        k_table(3, 2)
    with pytest.raises(RangeEmpty):
        k_table(2, 1)
    with pytest.raises(InvalidParams):
        k_table(10, 1)


def test_cross_check_failure_is_loud():
    # degree p - 3 = 2 is fine, but degree 3 is outside the iso range for
    # p = 5: k_table, which the closed form is checked against, leaves it
    # out rather than silently agree
    assert 3 not in k_table(5, 2)


def test_k_groups_are_read_from_the_relative_groups(monkeypatch, capsys):
    # with a wrong relative group the K cells must fail and k_table must
    # differ from the closed form, so neither compares the closed form with
    # itself; reproduce-paper passes its rel-hc rows on, k_table computes its own
    real = cyclic.rel_hc_table
    for module in (cyclic, ktheory):
        monkeypatch.setattr(
            module, "rel_hc_table", lambda F: [AbelianGroup.trivial()] * len(real(F))
        )
    assert cli.main(["reproduce-paper", "--p-list", "7", "--n-list", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL k p=7 n=2 i=1 (got Z/6, want Z/42)" in out
    assert "FAIL k p=7 n=2 i=3 (got Z/48, want Z/2352)" in out
    assert k_table(7, 2)[1].group == AbelianGroup.cyclic(6) != published_k(7, 2, 1)
    # level 1 takes no relative input, so it still agrees
    assert k_table(7, 1)[1].group == published_k(7, 1, 1) == AbelianGroup.cyclic(6)
