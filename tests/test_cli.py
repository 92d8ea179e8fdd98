import io
import json
import pathlib
import sys

import pytest

from cychom import cli, complexes, cyclic, hochschild
from cychom.dga import dump_algebra, koszul_resolution
from cychom.errors import CompositionNonzero


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_hh_text_table(capsys):
    code, out = run_cli(["hh", "--ring", "zmod:3^2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "HH_0: Z/9"
    assert lines[1] == "HH_1: 0"
    assert len(lines) == 6  # degrees 0..2p-1


def test_hc_structured_schema(capsys):
    code, out = run_cli(["hc", "--ring", "zmod:3", "--format", "structured"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "hc"
    assert doc["params"]["ring"] == "zmod:3"
    rows = doc["results"]
    assert rows[0] == {
        "degree": 0,
        "free_rank": 0,
        "invariant_factors": ["3"],
        "flags": [],
        "provenance": ["HC"],
    }
    assert rows[4]["invariant_factors"] == ["27"]
    # invariant factors are decimal strings throughout
    assert all(
        isinstance(f, str) for r in rows for f in r["invariant_factors"]
    )


def test_structured_output_deterministic(capsys):
    _, first = run_cli(["hc", "--ring", "zmod:5", "--format", "structured"], capsys)
    _, second = run_cli(["hc", "--ring", "zmod:5", "--format", "structured"], capsys)
    assert first == second  # byte-identical


def test_rel_hc_table(capsys):
    code, out = run_cli(["rel-hc", "--ring", "zmod:3^2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rel-HC_0: Z/3"
    assert lines[2] == "rel-HC_2: Z/9"
    assert lines[4] == "rel-HC_4: Z/27"


def test_rel_hc_needs_tower(capsys):
    code, _ = run_cli(["rel-hc", "--ring", "zmod:3"], capsys)
    assert code == cli.EXIT_BAD_ARGS


def test_rel_hc_needs_a_builtin_ring(tmp_path, capsys):
    path = tmp_path / "ring.alg"
    path.write_text(dump_algebra(koszul_resolution(9)))
    # refused before the degree plan, which would ask for --max-degree
    assert cli.main(["rel-hc", "--ring", str(path)]) == cli.EXIT_BAD_ARGS
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: rel-hc needs a builtin zmod:p^n ring\n"


def test_degree_window_gate(capsys):
    code, _ = run_cli(["hh", "--ring", "zmod:3", "--max-degree", "8"], capsys)
    assert code == cli.EXIT_RANGE
    code, out = run_cli(
        ["hh", "--ring", "zmod:3", "--max-degree", "7", "--allow-unverified"],
        capsys,
    )
    assert code == 0
    assert "HH_7: 0 [UNVERIFIED]" in out
    assert "HH_5: 0\n" in out  # inside the window: no flag


def test_ring_descriptor_errors(capsys):
    assert run_cli(["hh", "--ring", "zmod:4"], capsys)[0] == cli.EXIT_BAD_ARGS
    assert run_cli(["hh", "--ring", "zmod:x"], capsys)[0] == cli.EXIT_BAD_ARGS
    assert run_cli(["hh", "--ring", "/no/such/file"], capsys)[0] == cli.EXIT_PARSE


def test_file_ring(tmp_path, capsys):
    path = tmp_path / "ring.alg"
    path.write_text(dump_algebra(koszul_resolution(6)))
    code, out = run_cli(
        ["hh", "--ring", str(path), "--max-degree", "3"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "HH_0: Z/6"
    # file rings have no builtin verified window: max-degree is mandatory
    code, _ = run_cli(["hh", "--ring", str(path)], capsys)
    assert code == cli.EXIT_BAD_ARGS


def test_file_ring_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("[basis]\nbroken\n")
    assert run_cli(["hh", "--ring", str(path)], capsys)[0] == cli.EXIT_PARSE


@pytest.mark.parametrize(
    "command", [["hh", "--max-degree", "3"], ["gr-check"]], ids=["hh", "gr-check"]
)
def test_ring_file_not_utf8_is_a_parse_error(command, tmp_path, capsys):
    path = tmp_path / "ring"
    path.write_bytes(b"\xff\xfe[basis]\n")
    code = cli.main([*command, "--ring", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert err.startswith("error: ") and "is not UTF-8" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_k_groups_command(capsys):
    code, out = run_cli(["k-groups", "--p", "7", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "K_1: Z/42"
    code, _ = run_cli(["k-groups", "--p", "3", "--n", "2"], capsys)
    assert code == cli.EXIT_RANGE  # empty range 1..p-3
    code, _ = run_cli(["k-groups", "--p", "8", "--n", "2"], capsys)
    assert code == cli.EXIT_BAD_ARGS


def test_k_groups_refuses_orders_the_interpreter_cannot_print(capsys):
    # K_2527 of Z/2531 has order 2531^1264 - 1, of 4302 decimal digits, more
    # than the interpreter's default limit of 4300 for printing an integer;
    # K_2517 of Z/2521, of 4283 digits, still prints
    assert cli.main(["k-groups", "--p", "2531", "--n", "1"]) == cli.EXIT_RANGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    code, out = run_cli(["k-groups", "--p", "2521", "--n", "1"], capsys)
    assert code == 0 and out.startswith("K_1: Z/2520\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="the interpreter prints integers of any length",
)
@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize(
    "args",
    [
        # HH_0 = Z/3^99999, of 47,712 decimal digits
        ["hh", "--ring", "zmod:3^99999", "--max-degree", "1"],
        # HC_0 and HC_1 print; HC_2 has an order of 2^16000, of 4,817 digits
        ["hc", "--ring", "zmod:2^8000", "--max-degree", "3"],
    ],
    ids=["hh", "hc"],
)
def test_tables_refuse_orders_the_interpreter_cannot_print(args, fmt, capsys):
    assert cli.main([*args, "--format", fmt]) == cli.EXIT_RANGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_k_groups_structured_provenance(capsys):
    code, out = run_cli(
        ["k-groups", "--p", "7", "--n", "2", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    odd = [r for r in doc["results"] if r["degree"] % 2 == 1]
    assert all(any("AXIOM-TC" in p for p in r["provenance"]) for r in odd)


def test_gr_check_command(capsys):
    code, out = run_cli(["gr-check", "--ring", "zmod:3^2", "--max-q", "1"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "q=1,k=-1:PASS" in out


GR_CHECK_GOLDEN = pathlib.Path(__file__).parent / "data" / "gr-check"


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5, 7) for n in (2, 3)])
def test_gr_check_matches_recorded_output(p, n, capsys):
    # stdout recorded from the full-antidiagonal presentation of each level,
    # which exited 0 on all eight rings
    code, out = run_cli(["gr-check", "--ring", f"zmod:{p}^{n}", "--max-q", "4"], capsys)
    assert code == cli.EXIT_OK
    assert out == (GR_CHECK_GOLDEN / f"zmod-{p}-{n}-q4.txt").read_text()


def test_gr_check_rejects_negative_max_q(capsys):
    # a verification over zero cells must not report success
    code, out = run_cli(["gr-check", "--ring", "zmod:3^2", "--max-q", "-1"], capsys)
    assert code == cli.EXIT_BAD_ARGS
    assert out == ""


def test_gr_check_malformed_ring_file(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("[piece]\nindex x\ngenerators 1\nrelations 0\n[unit]\n1\n")
    assert run_cli(["gr-check", "--ring", str(path)], capsys)[0] == cli.EXIT_PARSE


def test_gr_check_missing_ring_file(tmp_path, capsys):
    path = tmp_path / "missing.ring"
    assert cli.main(["gr-check", "--ring", str(path)]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read filtered ring file {str(path)!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_reproduce_paper_known_failures(capsys):
    # the published relative table claims 0 at the boundary degree 2p-1;
    # the computed group there is Z/p, so those cells report FAIL honestly
    code, out = run_cli(
        ["reproduce-paper", "--p-list", "3", "--n-list", "1,2"], capsys
    )
    assert code == cli.EXIT_CHECK_FAILED
    fails = [l for l in out.splitlines() if l.startswith("FAIL ")]
    assert fails == ["FAIL rel-hc p=3 n=2 i=5 (got Z/3, want 0)"]
    assert out.strip().endswith("FAILED: 1 failing cells")


def test_reproduce_paper_structured(capsys):
    argv = ["reproduce-paper", "--p-list", "3", "--n-list", "2"]
    code, out = run_cli(argv + ["--format", "structured"], capsys)
    assert code == cli.EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "reproduce-paper"
    assert doc["params"] == {"n_list": [2], "p_list": [3]}
    records = doc["results"]
    assert all(sorted(r) == ["got", "name", "status", "want"] for r in records)
    fails = [r for r in records if r["status"] == "FAIL"]
    assert fails == [
        {"name": "rel-hc p=3 n=2 i=5", "status": "FAIL", "got": "Z/3", "want": "0"}
    ]
    towers = [r for r in records if r["name"].startswith("tower ")]
    assert towers and all(r["got"] == r["want"] == "surjective" for r in towers)
    # one record per cell line of the text output, in the same order
    code, text = run_cli(argv, capsys)
    assert code == cli.EXIT_CHECK_FAILED
    cells = [line.split(" (")[0] for line in text.splitlines()[:-1]]
    assert cells == [f"{r['status']} {r['name']}" for r in records]


def test_reproduce_paper_passes_off_boundary(capsys):
    code, out = run_cli(
        ["reproduce-paper", "--p-list", "3", "--n-list", "1"], capsys
    )
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("OK: 0 failing cells")


def test_reproduce_paper_rejects_non_prime(capsys):
    code, _ = run_cli(["reproduce-paper", "--p-list", "4"], capsys)
    assert code == cli.EXIT_BAD_ARGS


def test_reproduce_paper_rejects_empty_lists(capsys):
    # a verification over zero cells must not report OK
    code, out = run_cli(["reproduce-paper", "--p-list", "", "--n-list", "2"], capsys)
    assert code == cli.EXIT_BAD_ARGS
    assert out == ""
    code, out = run_cli(["reproduce-paper", "--p-list", "3", "--n-list", ""], capsys)
    assert code == cli.EXIT_BAD_ARGS
    assert out == ""


def test_reproduce_paper_rejects_levels_below_one(capsys):
    # refused before any build, with one line naming the level
    for levels, bad in (("0", "0"), ("2,-1", "-1")):
        code = cli.main(["reproduce-paper", "--p-list", "3", "--n-list", levels])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_BAD_ARGS
        assert out == ""
        assert err == f"error: reproduce-paper needs levels >= 1, got {bad}\n"


@pytest.mark.parametrize(
    "p, levels, code, built, presented_rings",
    [
        # every row, the K cells included, off the tower Z/125 -> Z/25 -> Z/5:
        # each ring presented in degrees 0..9, although Z/25 is the target of
        # one reduction and the source of the other
        (5, [2, 3], cli.EXIT_CHECK_FAILED, [5, 25, 125], 3),
        # the tower starts at Z/3; the level-3 rows present Z/27 and
        # Z/9 in degrees 0..5, and no row presents Z/3
        (3, [3], cli.EXIT_CHECK_FAILED, [3, 9, 27], 2),
        # a lone level 1: its hc row presents Z/5 in degrees 0..9
        (5, [1], cli.EXIT_OK, [5], 1),
    ],
    ids=["p5-n2-3", "p3-n3", "p5-n1"],
)
def test_reproduce_paper_builds_one_map_per_tower(
    p, levels, code, built, presented_rings, monkeypatch
):
    # one Hochschild complex per ring of the tower, and each presented ring's
    # cyclic homology presented once in each degree 0..2p - 1
    builds, presented = [], []
    init = hochschild.HochschildComplex.__init__
    present = complexes.homology_presentation

    def counting_init(self, A, bound):
        builds.append(A.diff["t"]["1"])
        init(self, A, bound)

    def counting_present(C, i):
        presented.append(i)
        return present(C, i)

    monkeypatch.setattr(hochschild.HochschildComplex, "__init__", counting_init)
    monkeypatch.setattr(complexes, "homology_presentation", counting_present)
    spec = cli.JobSpec("reproduce-paper", {"p_list": [p], "n_list": levels}, False)
    assert cli.run(spec, out=io.StringIO()) == code
    assert builds == built
    assert sorted(presented) == sorted(list(range(2 * p)) * presented_rings)


def test_run_with_jobspec_directly(capsys):
    spec = cli.JobSpec(
        command="hh", params={"ring": "zmod:3"}, structured=True
    )
    buf = io.StringIO()
    assert cli.run(spec, out=buf) == 0
    doc = json.loads(buf.getvalue())
    assert doc["command"] == "hh"
    spec = cli.JobSpec(command="nope", params={}, structured=False)
    assert cli.run(spec) == cli.EXIT_BAD_ARGS
    assert capsys.readouterr().err == "error: unknown command 'nope'\n"


def test_bad_argv(capsys):
    assert cli.main(["hh"]) == cli.EXIT_BAD_ARGS  # missing --ring
    capsys.readouterr()
    assert cli.main(["k-groups", "--p", "7", "--n", "0"]) == cli.EXIT_BAD_ARGS
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["hh", "--ring", "zmod:3^2", "--max-degree", "abc"],
        ["hh", "--max-degree", "3"],
        ["hh", "--ring", "zmod:3^2", "--format", "xml"],
        ["frobenius"],
        ["hh", "--ring", "zmod:3", "--max-degree", "-1"],
        ["reproduce-paper", "--p-list", "3,x"],
    ],
    ids=[
        "bad-int",
        "missing-ring",
        "bad-choice",
        "unknown-command",
        "negative-max-degree",
        "bad-int-list",
    ],
)
def test_bad_command_line_prints_one_error_line(argv, capsys):
    # argparse's own refusals keep exit 2 but print one line, not the usage
    assert cli.main(argv) == cli.EXIT_BAD_ARGS
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["hh", "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cychom") and "--max-degree" in captured.out
    assert captured.err == ""


def test_internal_invariant_failure_exits_5(capsys, monkeypatch):
    def broken(A, top):
        raise CompositionNonzero("d_3 @ d_4 != 0")

    monkeypatch.setattr(cyclic, "hc_groups", broken)
    assert cli.main(["hc", "--ring", "zmod:3", "--max-degree", "4"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal CompositionNonzero: d_3 @ d_4 != 0\n"
