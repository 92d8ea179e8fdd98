"""The benchmark's workloads: the jobs of one pass, made from a seed.

A seed selects one of VARIANTS input variants (seed % VARIANTS); seed 0 is
the reference variant.  Variants of one workload have the same shape (same
chain dimensions, same job list) and differ only in integer data, so their
costs match and every variant has its own recorded golden output.

`prepare` is the benchmark's set-up: it imports nothing itself, expects
`cychom` to be importable, and loads and validates every input before the
first job runs.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, List, NamedTuple, Tuple

VARIANTS = 3

# ext2: exterior DG algebra on x, y in degree 1 with dx = a, dy = b.  Larger
# coefficients grow the Smith transform entries and cost more, so the
# variants keep |a|, |b| in {3, 9}.
EXT2_COEFFS = [(9, 3), (3, 9), (-3, 9)]
# prime q of the ring Z/q^3 in the hh/hc/rel-hc tables; the degree bound
# stays 37 = 2*19 - 1 for every variant, so shapes match.
TABLE_PRIMES = [19, 23, 29]
TABLE_TOP = 37
# prime q of the reduction Z/q^3 -> Z/q^2 in the exactness check (bound 37)
LES_PRIMES = [19, 23, 17]
# gr-check rings: (p, 3) and (p', 2); the filtration shape depends on the
# level only, so the primes change integer data, not sizes.
GR_RINGS = [((3, 3), (5, 2)), ((5, 3), (3, 2)), ((7, 3), (7, 2))]

WORKLOADS = ("paper-tables", "ext2-hc", "gr-grid", "exactness")


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def ext2_path(variant: int) -> str:
    a, b = EXT2_COEFFS[variant]
    return f"bench/inputs/ext2-a{a}-b{b}.alg"


def cli_jobs(workload: str, variant: int) -> List[Tuple[str, ...]]:
    """Argument vectors of the CLI jobs of one pass, in run order."""
    if workload == "paper-tables":
        ring = f"zmod:{TABLE_PRIMES[variant]}^3"
        table = ("--ring", ring, "--max-degree", str(TABLE_TOP), "--format", "structured")
        return [
            ("reproduce-paper", "--p-list", "17,19", "--n-list", "2,3"),
            ("k-groups", "--p", "19", "--n", "3"),
            ("hh",) + table,
            ("hc",) + table,
            ("rel-hc",) + table,
        ]
    if workload == "ext2-hc":
        path = ext2_path(variant)
        return [
            ("hh", "--ring", path, "--max-degree", "14"),
            ("hc", "--ring", path, "--max-degree", "13"),
        ]
    if workload == "gr-grid":
        return [
            ("gr-check", "--ring", f"zmod:{p}^{n}", "--max-q", "4")
            for p, n in GR_RINGS[variant]
        ]
    return []


def job_labels(workload: str, variant: int) -> List[str]:
    """Stable job names, the keys of the golden outputs."""
    labels = ["cli " + " ".join(argv) for argv in cli_jobs(workload, variant)]
    if workload == "exactness":
        q = LES_PRIMES[variant]
        labels += [
            f"lib sbi_check({ext2_path(variant)}, 12)",
            f"lib relative_les_check(reduction_map({q}^3, {q}^2), {TABLE_TOP})",
        ]
    return labels


class Job(NamedTuple):
    label: str
    run: Callable[[], Tuple[int, str]]  # returns (exit code, output text)


def _report_text(report) -> str:
    """Canonical text of a library report's fields."""
    return json.dumps(dataclasses.asdict(report), sort_keys=True, separators=(",", ":"))


def prepare(workload: str, variant: int) -> List[Job]:
    """Load and validate the inputs of one pass; return its jobs."""
    import contextlib
    import io

    from cychom import cli, cyclic, dga

    def cli_job(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue()

        return run

    parser = cli.build_parser()
    argvs = cli_jobs(workload, variant)
    for argv in argvs:
        parser.parse_args(list(argv))
    runs = [cli_job(argv) for argv in argvs]
    if workload in ("ext2-hc", "exactness"):
        # ext2-hc's CLI jobs read the file again; loading it here validates it
        with open(ext2_path(variant)) as fh:
            ext2 = dga.load_algebra(fh.read())
    if workload == "exactness":
        q = LES_PRIMES[variant]
        f = dga.reduction_map(q ** 3, q ** 2)
        runs += [
            lambda: (0, _report_text(cyclic.sbi_check(ext2, 12))),
            lambda: (0, _report_text(cyclic.relative_les_check(f, TABLE_TOP))),
        ]
    return [Job(label, run) for label, run in zip(job_labels(workload, variant), runs)]
