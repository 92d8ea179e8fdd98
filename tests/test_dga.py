import contextlib
import io
import os
import pathlib
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cychom import cli
from cychom.complexes import homology, homology_groups, tensor
from cychom.cyclic import (
    _connes_sequence,
    cyclic_bundle,
    hc_groups,
    hc_mod_table,
    hh_groups,
    sbi_check,
)
from cychom.dga import (
    DGAlgebra,
    DGAMorphism,
    dump_algebra,
    koszul_resolution,
    load_algebra,
    reduction_map,
    validate,
)
from cychom.errors import InvalidModulus, InvalidParams, NotDivisible, ParseError
from cychom.hochschild import HochschildComplex, critical_complex, first_slot_matching
from cychom.intlin import AbelianGroup

from oracles import base_ring, compose, identity_morphism, two_term_complex, underlying_complex


def test_koszul_resolution_structure():
    A = koszul_resolution(9)
    assert A.degree_of("t") == 1
    assert A.product("t", "t") == {}
    assert A.differential("t") == {"1": 9}
    assert validate(A)
    with pytest.raises(InvalidModulus):
        koszul_resolution(1)


def test_koszul_resolution_resolves():
    C = underlying_complex(koszul_resolution(12))
    assert homology(C, 0) == AbelianGroup.cyclic(12)
    assert homology(C, 1).is_trivial()


def test_base_ring():
    A = base_ring()
    assert A.labels() == ["1"]
    assert homology(underlying_complex(A), 0) == AbelianGroup.free(1)


def test_validation_catches_broken_tables():
    # broken unit law
    with pytest.raises(InvalidParams):
        DGAlgebra(
            basis={0: ("1", "x")},
            mult={("1", "1"): {"1": 1}, ("1", "x"): {}, ("x", "1"): {"x": 1},
                  ("x", "x"): {}},
            diff={},
            unit="1",
        )
    # Leibniz failure: d(t*t) = 0 but dt*t picks up a nonzero term
    with pytest.raises(InvalidParams):
        DGAlgebra(
            basis={0: ("1",), 1: ("t",), 2: ("u",)},
            mult={
                ("1", "1"): {"1": 1}, ("1", "t"): {"t": 1}, ("t", "1"): {"t": 1},
                ("1", "u"): {"u": 1}, ("u", "1"): {"u": 1},
                ("t", "t"): {"u": 1}, ("t", "u"): {}, ("u", "t"): {}, ("u", "u"): {},
            },
            diff={"t": {"1": 2}},
            unit="1",
        )
    # degree bookkeeping
    with pytest.raises(InvalidParams):
        DGAlgebra(
            basis={0: ("1",), 1: ("t",)},
            mult={("1", "1"): {"1": 1}, ("1", "t"): {"1": 1},
                  ("t", "1"): {"t": 1}, ("t", "t"): {}},
            diff={},
            unit="1",
        )


def test_exterior_two_generators_validates():
    # Lambda(t, u) with dt = 2, du = 3; degree-2 part spanned by tu
    A = DGAlgebra(
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
    assert validate(A)


def test_morphism_checks():
    f = reduction_map(8, 2)
    assert f.apply({"t": 1}) == {"t": 4}
    with pytest.raises(NotDivisible):
        reduction_map(8, 3)
    with pytest.raises(InvalidParams):
        # t -> 2t is not a chain map from koszul(4) to koszul(4)
        DGAMorphism(koszul_resolution(4), koszul_resolution(4),
                    {"1": {"1": 1}, "t": {"t": 2}})
    with pytest.raises(InvalidParams, match="not degree-preserving"):
        # t has degree 1 and the unit degree 0
        DGAMorphism(koszul_resolution(4), koszul_resolution(4),
                    {"1": {"1": 1}, "t": {"1": 1}})
    with pytest.raises(InvalidParams, match="does not preserve the unit"):
        DGAMorphism(koszul_resolution(4), koszul_resolution(4),
                    {"1": {"1": 2}, "t": {"t": 1}})
    with pytest.raises(InvalidParams, match="not multiplicative"):
        # x, y -> x and xy -> xy on the exterior algebra with d = 0: x * y
        # goes to xy, but x * x = 0
        A = load_algebra(ext2_text(0, 0))
        DGAMorphism(A, A, {"1": {"1": 1}, "x": {"x": 1}, "y": {"x": 1}, "xy": {"xy": 1}})


def test_morphism_compose_and_identity():
    f = reduction_map(8, 4)
    g = reduction_map(4, 2)
    h = compose(g, f)
    assert h.apply({"t": 1}) == {"t": 4}
    assert h.action == reduction_map(8, 2).action
    ident = identity_morphism(koszul_resolution(8))
    assert compose(f, ident).action == f.action


def ext2_text(a, b):
    """The exterior DG algebra on x, y in degree 1 with dx = a, dy = b and
    d(xy) = a*y - b*x, in the text format of bench/inputs/ext2-*.alg."""
    return (
        "[basis]\n1 0\nx 1\ny 1\nxy 2\n[unit]\n1\n[diff]\n"
        f"x = {a}*1\ny = {b}*1\nxy = {a}*y + {-b}*x\n[mult]\n"
        "1*1 = 1*1\n1*x = 1*x\nx*1 = 1*x\n1*y = 1*y\ny*1 = 1*y\n"
        "1*xy = 1*xy\nxy*1 = 1*xy\nx*y = 1*xy\ny*x = -1*xy\n"
    )


COEFFICIENTS = st.integers(-12, 12)
ALGEBRAS = st.one_of(
    st.builds(lambda a, b: load_algebra(ext2_text(a, b)), COEFFICIENTS, COEFFICIENTS),
    st.builds(koszul_resolution, st.integers(2, 200)),
)


@settings(max_examples=60, deadline=None)
@given(ALGEBRAS)
@example(koszul_resolution(4))
def test_text_format_round_trip(A):
    text = dump_algebra(A)
    assert load_algebra(text) == A
    assert dump_algebra(load_algebra(text)) == text


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS)
def test_sbi_sequence_is_exact_on_ext2_and_koszul_models(A):
    rep = sbi_check(A, 6)
    assert rep.exact and rep.periodicity_ok, rep.failures


@settings(max_examples=25, deadline=None)
@given(COEFFICIENTS, COEFFICIENTS)
@example(9, 3)
@example(3, 9)
@example(-3, 9)
@example(0, 0)
def test_morse_tables_match_the_full_build_on_ext2(a, b):
    # every ext2 passes the matching check, so hh_groups / hc_groups read
    # the critical cells; the full build is the oracle (the examples are
    # bench/inputs/ext2-*.alg and the algebra with zero differential)
    A = load_algebra(ext2_text(a, b))
    assert first_slot_matching(A) is not None
    degrees = range(11)
    assert hh_groups(A, 10) == homology_groups(HochschildComplex(A, 10).total, degrees)
    assert hc_groups(A, 10) == homology_groups(cyclic_bundle(A, 10).total, degrees)


@settings(max_examples=15, deadline=None)
@given(COEFFICIENTS, COEFFICIENTS, st.integers(2, 8))
@example(9, 3, 8)
@example(3, 9, 8)
@example(-3, 9, 8)
@example(0, 0, 8)
def test_morse_sbi_report_matches_the_full_build_on_ext2(a, b, bound):
    # sbi_check reads ext2's sequence on the critical cells; the same split
    # of the full cyclic total at its column-0 cells is the oracle
    A = load_algebra(ext2_text(a, b))
    report = sbi_check(A, bound)
    assert report == _connes_sequence(cyclic_bundle(A, bound).total, bound)
    assert report and len(report.checked_nodes) == 3 * (bound - 1)


@settings(max_examples=30, deadline=None)
@given(ALGEBRAS, st.sampled_from((4, 6, 8, 9, 12, 18, 27)))
@example(load_algebra(ext2_text(9, 3)), 12)
@example(koszul_resolution(12), 6)
def test_universal_coefficients_match_the_tensor_complex(A, q):
    # mod-q groups are read off the integral ones (hc_mod_table applies
    # universal coefficients to any complex starting in degree 0); the
    # homology of C tensored with Z --q--> Z is the independent oracle, on
    # the full builds of every algebra and on the Morse complexes of the
    # ext2 family
    bound = 6
    chains = [HochschildComplex(A, bound).total, cyclic_bundle(A, bound).total]
    M = first_slot_matching(A)
    if M is not None:
        chains += [critical_complex(M, bound), critical_complex(M, bound, cyclic=True)]
    degrees = range(bound + 1)
    for C in chains:
        want = homology_groups(tensor(C, two_term_complex(q)), degrees)
        assert hc_mod_table(homology_groups(C, degrees), q) == want


def test_text_format_errors():
    with pytest.raises(ParseError):
        load_algebra("[basis]\n1 0\n")  # missing unit
    with pytest.raises(ParseError):
        load_algebra("[junk]\n")
    with pytest.raises(ParseError):
        load_algebra("x 0\n")  # content before a section
    with pytest.raises(ParseError):
        load_algebra("[basis]\n1 zero\n[unit]\n1\n")
    with pytest.raises(ParseError):
        load_algebra("[basis]\n1 0\n[unit]\n1\n[diff]\nt = 1\n")  # unknown label
    with pytest.raises(ParseError):
        # validation failures surface as parse errors with context
        load_algebra("[basis]\n1 0\n[unit]\n1\n[mult]\n1*1 = 2*1\n")
    # a later definition must not silently replace an earlier one
    koszul = "[basis]\n1 0\nt 1\n[unit]\n1\n[diff]\nt = 5*1\n[mult]\n" \
             "1*1 = 1*1\n1*t = t\nt*1 = t\nt*t = 0\n"
    assert load_algebra(koszul) == koszul_resolution(5)
    for bad in (
        koszul.replace("t = 5*1\n", "t = 5*1\nt = 9*1\n"),
        koszul.replace("t*t = 0\n", "t*t = 0\nt*t = 0\n"),
        koszul.replace("1*t = t\n", "1*t = t\n1*t = 2*t\n"),
    ):
        with pytest.raises(ParseError, match="given twice"):
            load_algebra(bad)


def test_combo_parsing_details():
    # coefficient 1 may be omitted, except for labels that look like bare
    # integers (ambiguous, rejected)
    src = "[basis]\n1 0\nt 1\n[unit]\n1\n[diff]\nt = 4*1\n[mult]\n" \
          "1*1 = 1*1\n1*t = t\nt*1 = t\nt*t = 0\n"
    A = load_algebra(src)
    assert A == koszul_resolution(4)
    with pytest.raises(ParseError):
        load_algebra(src.replace("1*1 = 1*1", "1*1 = 1"))


# ---------------------------------------------------------------------------
# malformed algebra text through the CLI
# ---------------------------------------------------------------------------

EXT2_LINES = [
    line
    for line in (pathlib.Path(__file__).parent.parent / "bench" / "inputs" / "ext2-a9-b3.alg")
    .read_text()
    .splitlines()
    if line and not line.startswith("#")
]
ALG_HEADERS = ["[basis]", "[unit]", "[diff]", "[mult]"]
INTEGER = re.compile(r"-?\d+")


@st.composite
def mutated_algebra_texts(draw):
    """ext2-a9-b3.alg after one to four edits: drop or repeat a line,
    replace an integer (by another integer or by a non-integer), or rename
    a header."""
    lines = list(EXT2_LINES)
    for _ in range(draw(st.integers(1, 4))):
        ints = [
            (at, m.span()) for at, line in enumerate(lines) for m in INTEGER.finditer(line)
        ]
        headers = [at for at, line in enumerate(lines) if line.startswith("[")]
        kinds = ["drop", "repeat"] * bool(lines) + ["integer"] * bool(ints)
        kinds += ["header"] * bool(headers)
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind in ("drop", "repeat"):
            at = draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
        elif kind == "integer":
            at, (i, j) = draw(st.sampled_from(ints))
            token = draw(st.sampled_from(["0", "1", "-1", "2", "-3", "27", "100", "x", "1.5", ""]))
            lines[at] = lines[at][:i] + token + lines[at][j:]
        else:
            at = draw(st.sampled_from(headers))
            lines[at] = draw(st.sampled_from(ALG_HEADERS + ["[Basis]", "[muls]", "diff"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(mutated_algebra_texts())
def test_hh_on_mutated_algebra_text_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.alg")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["hh", "--ring", path, "--max-degree", "3"])
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE), (code, err.getvalue())
    if code == cli.EXIT_PARSE:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
