"""Command line interface: homology tables, comparison checks, K-groups.

Exit codes: 0 success, 1 a verification command found failing cells,
2 invalid arguments, 3 degree out of computable or verified range,
4 unparseable input file, 5 an internal invariant failed (a structural
identity, a shape or a cross-check inside the library).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import cyclic, dga, filtered, ktheory
from .complexes import homology_groups, induced_on_homology
from .errors import (
    BoundTooSmall,
    CychomError,
    InvalidModulus,
    InvalidParams,
    NotDivisible,
    OutOfRange,
    ParseError,
    RangeEmpty,
    TruncationTooTight,
)
from .intlin import AbelianGroup, is_prime

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_RANGE = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


@dataclass(frozen=True)
class JobSpec:
    command: str
    params: Dict[str, object]
    structured: bool


@dataclass
class ResultRow:
    degree: int
    group: AbelianGroup
    flags: Tuple[str, ...]
    provenance: Tuple[str, ...]
    label: str


def _row_json(row: ResultRow) -> Dict[str, object]:
    return {
        "degree": row.degree,
        "free_rank": row.group.free_rank,
        "invariant_factors": [str(d) for d in row.group.invariant_factors],
        "flags": sorted(row.flags),
        "provenance": list(row.provenance),
    }


def _write_document(spec: JobSpec, results: List[Dict[str, object]], out) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": spec.command,
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "results": results,
    }
    out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _emit(spec: JobSpec, rows: List[ResultRow], out) -> None:
    if spec.structured:
        _write_document(spec, [_row_json(r) for r in rows], out)
    else:
        for r in rows:
            flags = (" [" + ",".join(sorted(r.flags)) + "]") if r.flags else ""
            out.write(f"{r.label}: {r.group}{flags}\n")


@dataclass(frozen=True)
class RingDescriptor:
    p: Optional[int]
    n: Optional[int]
    algebra: dga.DGAlgebra

    @property
    def builtin(self) -> bool:
        return self.p is not None


def _zmod_level(text: str) -> Tuple[int, int]:
    """(p, n) of the builtin descriptor zmod:p^n (zmod:p is level 1)."""
    body = text[len("zmod:") :]
    if "^" in body:
        p_s, n_s = body.split("^", 1)
    else:
        p_s, n_s = body, "1"
    try:
        p, n = int(p_s), int(n_s)
    except ValueError:
        raise InvalidParams(f"bad ring descriptor {text!r}")
    if not is_prime(p) or n < 1:
        raise InvalidParams(f"descriptor {text!r} needs a prime and level >= 1")
    return p, n


def _parse_ring(text: str) -> RingDescriptor:
    if text.startswith("zmod:"):
        p, n = _zmod_level(text)
        return RingDescriptor(p, n, dga.koszul_resolution(p ** n))
    return RingDescriptor(None, None, dga.load_algebra(_read_file(text, "ring")))


def _read_file(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {kind} file {path!r}: {e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{kind} file {path!r} is not UTF-8: {e}")


def _degree_plan(ring: RingDescriptor, max_degree, allow_unverified: bool):
    """Resolve the degree range and which degrees get UNVERIFIED flags."""
    if ring.builtin:
        verified_top = cyclic.verified_top(ring.p)
        if max_degree is None:
            max_degree = verified_top
        if max_degree > verified_top and not allow_unverified:
            raise OutOfRange(
                f"degree {max_degree} exceeds the verified window {verified_top}; "
                "pass --allow-unverified to compute it anyway"
            )
        return max_degree, verified_top
    if max_degree is None:
        raise InvalidParams("--max-degree is required for file-based rings")
    return max_degree, None


def _table_rows(groups, verified_top, kind) -> List[ResultRow]:
    rows = []
    for i, g in enumerate(groups):
        flags = ()
        if verified_top is not None and i > verified_top:
            flags = ("UNVERIFIED",)
        rows.append(ResultRow(i, g, flags, (kind,), label=f"{kind}_{i}"))
    return rows


def _table(command: str, ring: RingDescriptor, top: int) -> List[AbelianGroup]:
    """The groups of the hh, hc or rel-hc table in degrees 0..top."""
    if command == "hh":
        return cyclic.hh_groups(ring.algebra, top)
    if command == "hc":
        return cyclic.hc_groups(ring.algebra, top)
    return cyclic.rel_hc_groups(dga.reduction_map(ring.p ** ring.n, ring.p ** (ring.n - 1)), top)


def _cmd_table(spec: JobSpec, out) -> int:
    ring = _parse_ring(spec.params["ring"])
    if spec.command == "rel-hc":
        if not ring.builtin:
            raise InvalidParams("rel-hc needs a builtin zmod:p^n ring")
        if ring.n < 2:
            raise InvalidParams("rel-hc needs level n >= 2")
    top, verified = _degree_plan(
        ring, spec.params.get("max_degree"), spec.params.get("allow_unverified", False)
    )
    kind = {"hh": "HH", "hc": "HC", "rel-hc": "rel-HC"}[spec.command]
    _emit(spec, _table_rows(_table(spec.command, ring, top), verified, kind), out)
    return EXIT_OK


def _cmd_k_groups(spec: JobSpec, out) -> int:
    p, n = spec.params["p"], spec.params["n"]
    table = ktheory.k_table(p, n)
    rows = [
        ResultRow(i, e.group, (), e.provenance, label=f"K_{i}")
        for i, e in sorted(table.items())
    ]
    _emit(spec, rows, out)
    return EXIT_OK


def _cmd_gr_check(spec: JobSpec, out) -> int:
    max_q = spec.params.get("max_q", 3)
    if max_q < 0:
        # a verification over zero cells would pass vacuously
        raise InvalidParams(f"--max-q must be >= 0, got {max_q}")
    text = spec.params["ring"]
    if text.startswith("zmod:"):
        M = filtered.adic_filtration(*_zmod_level(text))
    else:
        M = filtered.load_filtered_ring(_read_file(text, "filtered ring"))
    m = M.depth()
    rows = []
    failures = 0
    for q in range(max_q + 1):
        for k in range(-(q + 1) * m - 1, 2):
            rep = filtered.graded_comparison(M, q, k)
            ok = bool(rep)
            failures += 0 if ok else 1
            rows.append(
                ResultRow(
                    k,
                    rep.lhs,
                    () if ok else ("FAIL",),
                    (f"q={q}",),
                    label=f"q={q},k={k}:{'PASS' if ok else 'FAIL'}",
                )
            )
    _emit(spec, rows, out)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _cmd_reproduce_paper(spec: JobSpec, out) -> int:
    p_list = spec.params["p_list"]
    n_list = spec.params["n_list"]
    for p in p_list:
        if not is_prime(p) or p < 3:
            raise InvalidParams(f"reproduce-paper needs odd primes, got {p}")
    if not p_list or not n_list:
        # a verification over zero cells would pass vacuously
        raise InvalidParams("reproduce-paper needs nonempty --p-list and --n-list")
    if min(n_list) < 1:
        raise InvalidParams(f"reproduce-paper needs levels >= 1, got {min(n_list)}")
    lines: List[str] = []
    records: List[Dict[str, str]] = []

    def cell(name: str, ok: bool, got, want, detail: bool = True):
        status = "PASS" if ok else "FAIL"
        records.append(
            {"name": name, "status": status, "got": str(got), "want": str(want)}
        )
        suffix = f" (got {got}, want {want})" if detail and not ok else ""
        lines.append(f"{status} {name}{suffix}")

    levels = sorted(set(n_list))
    for p in sorted(set(p_list)):
        top = cyclic.verified_top(p)
        degrees = range(top + 1)
        # the K cells of level n read the rel-hc rows of levels 2..n
        relative = {}
        # one build per ring: level n's bundle is the source of its own
        # reduction and the target of level n + 1's
        for n, bundle, F in cyclic.reduction_tower(p, levels[-1], top + 1):
            if F is not None:
                relative[n] = cyclic.rel_hc_table(F)
            if n not in levels:
                continue
            # presented once per degree, shared with the tower rows
            hc = [bundle.total.presentation(i).group for i in degrees]
            tables = [
                ("hh", homology_groups(bundle.hochschild.total, degrees), ktheory.published_hh),
                ("hc", hc, ktheory.published_hc),
                ("hc-mod-p", cyclic.hc_mod_table(hc, p), ktheory.published_hc_mod_p),
            ]
            if F is not None:
                tables.append(("rel-hc", relative[n], ktheory.published_rel_hc))
            for name, groups, published in tables:
                for i, got in enumerate(groups):
                    want = published(p, n, i)
                    cell(f"{name} p={p} n={n} i={i}", got == want, got, want)
            if F is not None:
                for i in degrees:
                    _, tgt, image = induced_on_homology(F, i)
                    onto = tgt.generated_by(image)
                    got = "surjective" if onto else "not surjective"
                    cell(f"tower p={p} n={n} i={i}", onto, got, "surjective", detail=False)
        # K cells cover 1 <= i <= p - 3, so p = 3 has none
        for n in levels:
            for i, entry in sorted(ktheory.k_entries(p, n, relative).items()):
                want = ktheory.published_k(p, n, i)
                cell(f"k p={p} n={n} i={i}", entry.group == want, entry.group, want)
    failures = sum(r["status"] == "FAIL" for r in records)
    if spec.structured:
        _write_document(spec, records, out)
    else:
        for line in lines:
            out.write(line + "\n")
        out.write(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing cells\n")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


_COMMANDS = {
    "hh": _cmd_table,
    "hc": _cmd_table,
    "rel-hc": _cmd_table,
    "gr-check": _cmd_gr_check,
    "k-groups": _cmd_k_groups,
    "reproduce-paper": _cmd_reproduce_paper,
}


def run(spec: JobSpec, out=None) -> int:
    """Execute a job; returns the process exit code."""
    out = out if out is not None else sys.stdout
    handler = _COMMANDS.get(spec.command)
    if handler is None:
        print(f"error: unknown command {spec.command!r}", file=sys.stderr)
        return EXIT_BAD_ARGS
    try:
        return handler(spec, out)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (BoundTooSmall, TruncationTooTight, OutOfRange, RangeEmpty) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RANGE
    except (InvalidParams, InvalidModulus, NotDivisible) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except CychomError as e:
        print(f"error: internal {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def _int_list(text: str) -> List[int]:
    if not text.strip():
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as one `error:`
    line on stderr and exits 2; its subparsers are of the same class."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cychom",
        description="Exact homology tables for small differential graded rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ring_options(sp):
        sp.add_argument(
            "--ring",
            required=True,
            help="builtin descriptor zmod:p^n or a path to an algebra file",
        )
        sp.add_argument("--max-degree", type=int, default=None)
        sp.add_argument(
            "--allow-unverified",
            action="store_true",
            help="permit degrees beyond 2p-1 (results flagged UNVERIFIED)",
        )
        sp.add_argument("--format", choices=("text", "structured"), default="text")

    add_ring_options(sub.add_parser("hh", help="Hochschild homology table"))
    add_ring_options(sub.add_parser("hc", help="cyclic homology table"))
    add_ring_options(sub.add_parser("rel-hc", help="relative cyclic homology table"))

    gr = sub.add_parser("gr-check", help="graded comparison report")
    gr.add_argument("--ring", required=True)
    gr.add_argument("--max-q", type=int, default=3)
    gr.add_argument("--format", choices=("text", "structured"), default="text")

    kg = sub.add_parser("k-groups", help="K-group table of Z/p^n")
    kg.add_argument("--p", type=int, required=True)
    kg.add_argument("--n", type=int, required=True)
    kg.add_argument("--format", choices=("text", "structured"), default="text")

    rp = sub.add_parser("reproduce-paper", help="re-verify the published tables")
    rp.add_argument("--p-list", type=_int_list, default=[3, 5, 7])
    rp.add_argument("--n-list", type=_int_list, default=[1, 2, 3])
    rp.add_argument("--format", choices=("text", "structured"), default="text")
    return parser


def _spec_from_args(args) -> JobSpec:
    params: Dict[str, object] = {}
    for key in ("ring", "max_degree", "allow_unverified", "p", "n", "max_q"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if hasattr(args, "p_list"):
        params["p_list"] = args.p_list
        params["n_list"] = args.n_list
    return JobSpec(
        command=args.command,
        params=params,
        structured=getattr(args, "format", "text") == "structured",
    )


def main(argv: Sequence[str] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BAD_ARGS if e.code not in (0, None) else 0
    if getattr(args, "n", None) is not None and args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_BAD_ARGS
    if getattr(args, "max_degree", None) is not None and args.max_degree < 0:
        print("error: --max-degree must be nonnegative", file=sys.stderr)
        return EXIT_BAD_ARGS
    return run(_spec_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
