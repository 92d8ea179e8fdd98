"""Finitely generated differential graded algebras over the integers.

A DGAlgebra is given by an explicit multiplication table on a finite graded
basis, a differential on basis elements, and a distinguished unit label in
degree 0.  The Koszul-style resolutions of Z/m used throughout the package
live here, together with the chain-level reduction maps between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidModulus, InvalidParams, NotDivisible, ParseError

# a linear combination of basis labels
Combo = Dict[str, int]


def _clean(combo: Mapping[str, int]) -> Combo:
    return {l: int(c) for l, c in combo.items() if c}


def _add(a: Combo, b: Combo, scale: int = 1) -> Combo:
    out = dict(a)
    for l, c in b.items():
        out[l] = out.get(l, 0) + scale * c
    return _clean(out)


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    problems: Tuple[str, ...]

    def __bool__(self):
        return self.valid


class DGAlgebra:
    """Free graded ring with differential and explicit multiplication table.

    basis: degree -> ordered labels (all labels distinct across degrees).
    mult: (label, label) -> linear combination; missing entries mean zero.
    diff: label -> linear combination one degree lower; missing means zero.
    """

    __slots__ = ("basis", "mult", "diff", "unit", "_degree")

    def __init__(
        self,
        basis: Mapping[int, Sequence[str]],
        mult: Mapping[Tuple[str, str], Mapping[str, int]],
        diff: Mapping[str, Mapping[str, int]],
        unit: str,
    ):
        basis = {d: tuple(lbls) for d, lbls in basis.items() if lbls}
        degree: Dict[str, int] = {}
        for d, lbls in basis.items():
            if d < 0:
                raise InvalidParams("negative degrees are not supported")
            for l in lbls:
                if l in degree:
                    raise InvalidParams(f"duplicate basis label {l!r}")
                degree[l] = d
        if degree.get(unit) != 0:
            raise InvalidParams(f"unit label {unit!r} must sit in degree 0")
        mult = {k: _clean(v) for k, v in mult.items()}
        mult = {k: v for k, v in mult.items() if v}
        diff = {k: _clean(v) for k, v in diff.items()}
        diff = {k: v for k, v in diff.items() if v}
        for (a, b), combo in mult.items():
            for l in (a, b, *combo):
                if l not in degree:
                    raise InvalidParams(f"unknown label {l!r} in multiplication table")
            want = degree[a] + degree[b]
            for l in combo:
                if degree[l] != want:
                    raise InvalidParams(
                        f"product {a}*{b} not degree-additive at {l!r}"
                    )
        for a, combo in diff.items():
            for l in (a, *combo):
                if l not in degree:
                    raise InvalidParams(f"unknown label {l!r} in differential")
            for l in combo:
                if degree[l] != degree[a] - 1:
                    raise InvalidParams(f"diff({a}) not of degree -1 at {l!r}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "diff", diff)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_degree", degree)
        report = validate(self)
        if not report:
            raise InvalidParams(
                "invalid DG algebra: " + "; ".join(report.problems[:3])
            )

    def __setattr__(self, name, value):
        raise AttributeError("DGAlgebra is immutable")

    # -- structure ---------------------------------------------------------

    def degree_of(self, label: str) -> int:
        return self._degree[label]

    def labels(self) -> List[str]:
        return [l for d in sorted(self.basis) for l in self.basis[d]]

    def product(self, a: str, b: str) -> Combo:
        return dict(self.mult.get((a, b), {}))

    def product_combo(self, x: Combo, y: Combo) -> Combo:
        out: Combo = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for l, c in self.mult.get((a, b), {}).items():
                    out[l] = out.get(l, 0) + ca * cb * c
        return _clean(out)

    def differential(self, label: str) -> Combo:
        return dict(self.diff.get(label, {}))

    def diff_combo(self, x: Combo) -> Combo:
        out: Combo = {}
        for a, ca in x.items():
            for l, c in self.diff.get(a, {}).items():
                out[l] = out.get(l, 0) + ca * c
        return _clean(out)

    def non_unit_labels(self) -> List[str]:
        return [l for l in self.labels() if l != self.unit]

    def __eq__(self, other):
        return (
            isinstance(other, DGAlgebra)
            and self.basis == other.basis
            and self.mult == other.mult
            and self.diff == other.diff
            and self.unit == other.unit
        )

    def __repr__(self):
        dims = {d: len(l) for d, l in self.basis.items()}
        return f"DGAlgebra(dims={dims}, unit={self.unit!r})"


def validate(A: DGAlgebra) -> ValidationReport:
    """Exhaustive basis-level check of the DG algebra axioms.  The
    DGAlgebra constructor runs it and raises InvalidParams with the first
    three problems, so every constructed algebra validates."""
    problems: List[str] = []
    labels = A.labels()
    unit = A.unit

    def combos_equal(x: Combo, y: Combo) -> bool:
        return _clean(x) == _clean(y)

    for a in labels:
        if not combos_equal(A.product(unit, a), {a: 1}):
            problems.append(f"left unit law fails on {a!r}")
        if not combos_equal(A.product(a, unit), {a: 1}):
            problems.append(f"right unit law fails on {a!r}")
    for a in labels:
        for b in labels:
            for c in labels:
                left = A.product_combo(A.product(a, b), {c: 1})
                right = A.product_combo({a: 1}, A.product(b, c))
                if not combos_equal(left, right):
                    problems.append(f"associativity fails on ({a!r},{b!r},{c!r})")
    for a in labels:
        dd = A.diff_combo(A.differential(a))
        if dd:
            problems.append(f"diff^2 != 0 on {a!r}")
    for a in labels:
        for b in labels:
            sign = -1 if A.degree_of(a) % 2 else 1
            lhs = A.diff_combo(A.product(a, b))
            rhs = _add(
                A.product_combo(A.differential(a), {b: 1}),
                A.product_combo({a: 1}, A.differential(b)),
                scale=sign,
            )
            if not combos_equal(lhs, rhs):
                problems.append(f"Leibniz fails on ({a!r},{b!r})")
    return ValidationReport(valid=not problems, problems=tuple(problems))


@dataclass(frozen=True)
class DGAMorphism:
    """Basis-level map of DG algebras; all compatibilities checked on construction."""

    source: DGAlgebra
    target: DGAlgebra
    action: Mapping[str, Combo]

    def __post_init__(self):
        action = {l: _clean(c) for l, c in self.action.items()}
        object.__setattr__(self, "action", action)
        src, tgt = self.source, self.target
        for l in src.labels():
            img = action.get(l, {})
            for m in img:
                if tgt.degree_of(m) != src.degree_of(l):
                    raise InvalidParams(f"morphism not degree-preserving at {l!r}")
        if action.get(src.unit, {}) != {tgt.unit: 1}:
            raise InvalidParams("morphism does not preserve the unit")
        for a in src.labels():
            for b in src.labels():
                lhs = self.apply(src.product(a, b))
                rhs = tgt.product_combo(self.apply({a: 1}), self.apply({b: 1}))
                if lhs != rhs:
                    raise InvalidParams(f"morphism not multiplicative on ({a!r},{b!r})")
        for a in src.labels():
            lhs = self.apply(src.differential(a))
            rhs = tgt.diff_combo(self.apply({a: 1}))
            if lhs != rhs:
                raise InvalidParams(f"morphism does not commute with diff at {a!r}")

    def apply(self, x: Combo) -> Combo:
        out: Combo = {}
        for l, c in x.items():
            for m, d in self.action.get(l, {}).items():
                out[m] = out.get(m, 0) + c * d
        return _clean(out)


def koszul_resolution(m: int) -> DGAlgebra:
    """Exterior algebra on one degree-1 generator t with dt = m.

    A degreewise free DG model of Z/m: H_0 = Z/m, higher homology zero.
    """
    if m < 2:
        raise InvalidModulus(f"modulus {m} < 2")
    return DGAlgebra(
        basis={0: ("1",), 1: ("t",)},
        mult={
            ("1", "1"): {"1": 1},
            ("1", "t"): {"t": 1},
            ("t", "1"): {"t": 1},
            ("t", "t"): {},
        },
        diff={"t": {"1": m}},
        unit="1",
    )


def reduction_map(m: int, m_prime: int) -> DGAMorphism:
    """The chain-level lift of Z/m -> Z/m' over the Koszul resolutions.

    Sends 1 -> 1 and t -> (m/m') t', the unique degree-respecting
    multiplicative lift up to sign.
    """
    if m < 2 or m_prime < 2:
        raise InvalidModulus("moduli must be >= 2")
    if m % m_prime != 0:
        raise NotDivisible(f"{m_prime} does not divide {m}")
    return DGAMorphism(
        source=koszul_resolution(m),
        target=koszul_resolution(m_prime),
        action={"1": {"1": 1}, "t": {"t": m // m_prime}},
    )


# ---------------------------------------------------------------------------
# structured text format
# ---------------------------------------------------------------------------
#
#   [basis]
#   1 0
#   t 1
#   [unit]
#   1
#   [diff]
#   t = 4*1
#   [mult]
#   1*1 = 1*1      # left side: pair of labels; right side: linear combination
#   t*t = 0
#
# Linear combinations are "c1*label1 + c2*label2" (coefficient 1 may be
# omitted); "0" is the zero combination.


def _parse_combo(text: str, line_no: int) -> Combo:
    text = text.strip()
    if text == "0":
        return {}
    combo: Combo = {}
    for term in text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError(f"line {line_no}: empty term")
        if "*" in term:
            coeff_s, label = term.split("*", 1)
            try:
                coeff = int(coeff_s.strip())
            except ValueError as e:
                raise ParseError(f"line {line_no}: bad coefficient {coeff_s!r}") from e
        else:
            coeff, label = 1, term
            if term.lstrip("-").isdigit():
                raise ParseError(f"line {line_no}: bare integer term {term!r}")
        label = label.strip()
        combo[label] = combo.get(label, 0) + coeff
    return combo


def _format_combo(combo: Combo) -> str:
    if not combo:
        return "0"
    return " + ".join(f"{c}*{l}" for l, c in sorted(combo.items()))


def load_algebra(text: str) -> DGAlgebra:
    """Parse a DG algebra from the structured text format above."""
    section = None
    basis: Dict[int, List[str]] = {}
    known: set = set()
    unit: Optional[str] = None
    diff: Dict[str, Combo] = {}
    mult: Dict[Tuple[str, str], Combo] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[basis]", "[unit]", "[diff]", "[mult]"):
                raise ParseError(f"line {no}: unknown section {line}")
            section = line
            continue
        if section == "[basis]":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {no}: expected 'label degree'")
            label, deg_s = parts
            try:
                deg = int(deg_s)
            except ValueError as e:
                raise ParseError(f"line {no}: bad degree {deg_s!r}") from e
            if label in known:
                raise ParseError(f"line {no}: duplicate label {label!r}")
            known.add(label)
            basis.setdefault(deg, []).append(label)
        elif section == "[unit]":
            if unit is not None:
                raise ParseError(f"line {no}: unit given twice")
            unit = line
        elif section == "[diff]":
            if "=" not in line:
                raise ParseError(f"line {no}: expected 'label = combo'")
            lhs, rhs = line.split("=", 1)
            label = lhs.strip()
            if label not in known:
                raise ParseError(f"line {no}: unknown label {label!r}")
            if label in diff:
                raise ParseError(f"line {no}: differential of {label!r} given twice")
            combo = _parse_combo(rhs, no)
            _require_known(combo, known, no)
            diff[label] = combo
        elif section == "[mult]":
            if "=" not in line:
                raise ParseError(f"line {no}: expected 'a*b = combo'")
            lhs, rhs = line.split("=", 1)
            pair = [x.strip() for x in lhs.strip().split("*")]
            if len(pair) != 2:
                raise ParseError(f"line {no}: left side must be 'a*b'")
            a, b = pair
            if a not in known or b not in known:
                raise ParseError(f"line {no}: unknown label in {lhs.strip()!r}")
            if (a, b) in mult:
                raise ParseError(f"line {no}: product {a}*{b} given twice")
            combo = _parse_combo(rhs, no)
            _require_known(combo, known, no)
            mult[(a, b)] = combo
        else:
            raise ParseError(f"line {no}: content before any section header")
    if unit is None:
        raise ParseError("missing [unit] section")
    if unit not in known:
        raise ParseError(f"unit {unit!r} is not a basis label")
    try:
        return DGAlgebra(basis=basis, mult=mult, diff=diff, unit=unit)
    except (InvalidParams, InvalidModulus) as e:
        raise ParseError(f"algebra fails validation: {e}") from e


def _require_known(combo: Combo, known: set, line_no: int):
    for l in combo:
        if l not in known:
            raise ParseError(f"line {line_no}: unknown label {l!r}")


def dump_algebra(A: DGAlgebra) -> str:
    lines = ["[basis]"]
    for d in sorted(A.basis):
        for l in A.basis[d]:
            lines.append(f"{l} {d}")
    lines.append("[unit]")
    lines.append(A.unit)
    lines.append("[diff]")
    for l in A.labels():
        if A.diff.get(l):
            lines.append(f"{l} = {_format_combo(A.diff[l])}")
    lines.append("[mult]")
    for a in A.labels():
        for b in A.labels():
            combo = A.mult.get((a, b))
            if combo is not None:
                lines.append(f"{a}*{b} = {_format_combo(combo)}")
    return "\n".join(lines) + "\n"
