"""K-groups of Z/p^n assembled from relative cyclic homology.

The bridge from relative K-theory to relative cyclic homology holds in a
degree range controlled by the prime and the nilpotency of the ideal; the
two rational bounds are tracked exactly in a RangeCertificate.  The final
closed form uses one imported fact that this package cannot verify: the
p-part of each K-group in range is cyclic.  Outputs relying on it are
tagged AXIOM-TC in their provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

from .cyclic import hc_relative, reduction_tower, rel_hc_table
from .dga import reduction_map
from .errors import CychomError, InvalidParams, RangeEmpty
from .intlin import AbelianGroup, is_prime

ISO = "ISO"
SURJECTION = "SURJECTION"
UNVERIFIED = "UNVERIFIED"


@dataclass(frozen=True)
class RangeCertificate:
    """Degree ranges where relative K equals (or surjects onto) relative HC.

    iso_below and surj_below are the exact rational bounds p/(m-1) - 2 and
    p/(m-1) - 1; both comparisons are strict.
    """

    p: int
    m: int
    iso_below: Fraction
    surj_below: Fraction

    def is_iso(self, i: int) -> bool:
        return 0 <= i < self.iso_below

    def is_surjection(self, i: int) -> bool:
        return 0 <= i < self.surj_below

    def flag(self, i: int) -> str:
        if self.is_iso(i):
            return ISO
        if self.is_surjection(i):
            return SURJECTION
        return UNVERIFIED


def goodwillie_range(p: int, m: int) -> RangeCertificate:
    """Certificate for a ring with an ideal of nilpotency degree m at p."""
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if m < 2:
        raise InvalidParams(f"nilpotency degree {m} < 2")
    base = Fraction(p, m - 1)
    return RangeCertificate(p=p, m=m, iso_below=base - 2, surj_below=base - 1)


def relative_k(p: int, n: int, i: int) -> Tuple[AbelianGroup, str]:
    """The p-part of relative cyclic homology in degree i-1, with the
    certificate flag saying how it relates to relative K-theory in degree i.

    Uses the square-zero ideal p^{n-1} Z/p^n, so the certificate is always
    the m = 2 one.
    """
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if n < 2:
        raise InvalidParams(f"level n = {n} < 2: no ideal to compare along")
    if i < 1:
        raise InvalidParams(f"degree {i} < 1")
    group = hc_relative(reduction_map(p ** n, p ** (n - 1)), i - 1)
    return group.p_part(p), goodwillie_range(p, 2).flag(i)


# The paper's published tables for Z/p^n, the values reproduce-paper checks
# the computed groups against.


def published_hh(p: int, n: int, i: int) -> AbelianGroup:
    return AbelianGroup.trivial() if i % 2 else AbelianGroup.cyclic(p ** n)


def published_hc(p: int, n: int, i: int) -> AbelianGroup:
    if i % 2:
        return AbelianGroup.trivial()
    j = i // 2 + 1
    return AbelianGroup.cyclic(p ** (n * j))


def published_hc_mod_p(p: int, n: int, i: int) -> AbelianGroup:
    return AbelianGroup.cyclic(p)


def published_rel_hc(p: int, n: int, i: int) -> AbelianGroup:
    """Relative HC of Z/p^n -> Z/p^{n-1}, as published."""
    if i % 2:
        # at i = 2p-1 the computed group is Z/p (test_criterion_2_boundary_degree)
        return AbelianGroup.trivial()
    j = i // 2 + 1
    return AbelianGroup.cyclic(p ** j)


def published_k(p: int, n: int, i: int) -> AbelianGroup:
    """Zero in even degrees; cyclic of order p^{j(n-1)} (p^j - 1) for i = 2j-1."""
    if i % 2 == 0:
        return AbelianGroup.trivial()
    j = (i + 1) // 2
    return AbelianGroup.cyclic(p ** (j * (n - 1)) * (p ** j - 1))


@dataclass(frozen=True)
class KTableEntry:
    degree: int
    group: AbelianGroup
    provenance: Tuple[str, ...]


def k_table(p: int, n: int) -> Dict[int, KTableEntry]:
    """The full K-group table of Z/p^n over 1 <= i <= p-3 (see k_entries).

    The relative groups come from the reduction tower of Z/p^n through the
    bound relative_k uses for the top odd degree p-4: each ring's complexes
    are built once, and each level k >= 2 reads its relative groups in
    degrees 0..p-5 off its one induced cyclic map.  Z/p alone (n = 1)
    reads no relative group, so it walks no tower.
    """
    if not is_prime(p):
        raise InvalidParams(f"{p} is not prime")
    if n < 1:
        raise InvalidParams(f"level n = {n} < 1")
    if p <= 3:
        raise RangeEmpty(f"range 1 <= i <= p-3 is empty for p = {p}")
    tower = reduction_tower(p, n, p - 4) if n >= 2 else ()
    relative = {k: rel_hc_table(F) for k, _, F in tower if F is not None}
    return k_entries(p, n, relative)


def k_entries(
    p: int, n: int, relative: Mapping[int, Sequence[AbelianGroup]]
) -> Dict[int, KTableEntry]:
    """The K-group table of Z/p^n over 1 <= i <= p-3, assembled from
    relative[level][d], the relative cyclic homology of Z/p^level ->
    Z/p^{level-1} in degree d, for levels 2..n and degrees 0..p-5.

    In odd degree i = 2j-1 the group is cyclic (AXIOM-TC) of order p^j - 1
    times the orders of the p-parts of the relative groups in degree i-1 at
    levels 2..n.  Each odd entry carries its provenance chain: the relative
    cyclic homology group consumed at each level of the induction, the
    base-level input for the prime-to-p part, and the AXIOM-TC cyclicity
    assumption.
    """
    flag = goodwillie_range(p, 2).flag
    table: Dict[int, KTableEntry] = {}
    for i in range(1, p - 2):
        if i % 2 == 0:
            table[i] = KTableEntry(i, AbelianGroup.trivial(), ("even degree: 0",))
            continue
        if flag(i) != ISO:
            raise CychomError(f"degree {i} is outside the isomorphism range")
        j = (i + 1) // 2
        order = p ** j - 1
        chain = [
            f"prime-to-p part: Z/{order} from the level-1 groups",
        ]
        for level in range(2, n + 1):
            rel = relative[level][i - 1].p_part(p)
            order *= rel.order()
            chain.append(
                f"level {level}: relative contribution {rel} [{flag(i)}]"
            )
        chain.append("AXIOM-TC: p-part taken cyclic (imported, not computed)")
        table[i] = KTableEntry(i, AbelianGroup.cyclic(order), tuple(chain))
    return table
