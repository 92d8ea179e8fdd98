"""Self-test of the benchmark: a renamed or rebound layer cannot go silent.

    python3 bench/selftest.py

Run from the root of a checkout.  For each workload (seed 0) it runs one
untraced and two traced passes and checks that
  - every output matches the golden, traced or not;
  - every per-layer metric is nonzero on the workloads meant to load it;
  - metrics stay zero where a workload bypasses a layer;
  - every count repeats exactly across the two traced passes;
  - the workload's intended layers carry most of its traced self time;
  - BENCHMARK.json lists exactly the metrics the benchmark reports.
It prints each workload's self-time share per module and the tracing
overhead, and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads
from tracer import PER_LAYER

PAPER, EXT2, GR, EXACT = workloads.WORKLOADS
TRACE_RUNS = (PAPER, EXT2, GR)  # cli.run does not run on the library-only workload

# metric -> workloads on which it must be nonzero
LOADS = {
    "intlin.smith_decomposition.self_s": (EXT2, EXACT),
    "intlin.smith_decomposition.calls": (EXT2, EXACT),
    "intlin.reduced_nnz": (EXT2, EXACT),
    "intlin.max_entry_bits": (EXT2, EXACT),
    "intlin.invariant_factors.self_s": (GR, EXT2),
    "intlin.invariant_factors.calls": (GR, EXT2),
    "intlin.lattice_contains.self_s": (EXACT, GR),
    "intlin.lattice_contains.calls": (EXACT, GR),
    "intlin.matmul.self_s": (PAPER,),
    "intlin.matmul.calls": (PAPER,),
    "intlin.matrix_new.calls": (GR,),
    "complexes.chain_complex.self_s": (PAPER,),
    "complexes.chain_complex.calls": (PAPER,),
    "complexes.bicomplex.self_s": (PAPER,),
    "complexes.bicomplex.calls": (PAPER,),
    "complexes.chain_map.self_s": (PAPER,),
    "complexes.chain_map.calls": (PAPER,),
    "complexes.total_complex.self_s": (PAPER,),
    "complexes.mapping_cone.self_s": (PAPER,),
    "complexes.tensor.self_s": (PAPER,),
    "complexes.homology_presentation.self_s": (EXT2, EXACT),
    "complexes.homology_presentation.calls": (EXT2, EXACT),
    "complexes.presentation_reuse": (EXT2, EXACT),
    "complexes.exact_at.self_s": (EXACT,),
    "complexes.exact_at.calls": (EXACT,),
    "complexes.cone_les_check.self_s": (EXACT,),
    "dga.validate.self_s": (PAPER,),
    "dga.validate.calls": (PAPER,),
    "dga.load_algebra.self_s": (EXT2, EXACT),
    "hochschild.complex.self_s": (PAPER,),
    "hochschild.complex.calls": (PAPER,),
    "hochschild.chains": (PAPER,),
    "hochschild.induced_map.self_s": (PAPER,),
    "hochschild.induced_map.calls": (PAPER,),
    "cyclic.bundle.self_s": (PAPER,),
    "cyclic.bundle.calls": (PAPER,),
    "cyclic.bundle_reuse": (PAPER,),
    "cyclic.induced_cyclic_map.calls": (PAPER,),
    "cyclic.sbi_check.self_s": (EXACT,),
    "filtered.multi_tensor.self_s": (GR,),
    "filtered.multi_tensor.calls": (GR,),
    "filtered.tensor_generators": (GR,),
    "filtered.tensor_relations": (GR,),
    "filtered.cyclic_bar.calls": (GR,),
    "filtered.graded_comparison.self_s": (GR,),
    "filtered.graded_comparison.calls": (GR,),
    "filtered.ring.self_s": (GR,),
    "ktheory.k_table.self_s": (PAPER,),
    "ktheory.relative_k.calls": (PAPER,),
    "cli.run.self_s": TRACE_RUNS,
    "trace.overhead": workloads.WORKLOADS,
}

# workload -> metrics that must stay zero there (the layer is bypassed)
BYPASS = {
    GR: ("hochschild.complex.calls", "cyclic.bundle.calls"),
    EXT2: ("filtered.multi_tensor.calls",),
}

# workload -> span-name prefixes that must carry most of its self time
INTENDED = {
    PAPER: ("hochschild.", "complexes.", "cyclic."),
    EXT2: ("intlin.smith_decomposition", "intlin.invariant_factors", "intlin.lattice_contains"),
    GR: ("filtered.",),
    EXACT: ("intlin.smith_decomposition", "intlin.lattice_contains", "complexes.exact_at"),
}

END_TO_END = ("wall_s", "max_job_s", "setup_s", "peak_rss_mb")


def check_definition(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != [tuple(m) for m in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if tuple(m["name"] for m in spec["end_to_end"]) != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if set(LOADS) != {m[0] for m in PER_LAYER}:
        problems.append("LOADS does not cover exactly the per-layer metrics")


def module_shares(report: dict) -> dict:
    total = sum(job["seconds"] for job in report["jobs"])
    shares = {}
    for name, seconds in report["self_times"].items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + seconds / total
    return shares


def intended_share(report: dict, prefixes) -> float:
    total = sum(job["seconds"] for job in report["jobs"])
    hit = sum(s for n, s in report["self_times"].items() if n.startswith(prefixes))
    return hit / total


def main() -> int:
    problems: list = []
    check_definition(problems)
    for name in workloads.WORKLOADS:
        golden = run.load_golden(name, 0)
        plain = run.run_pass(name, 0, run.DEADLINE_S)
        traced = [run.run_pass(name, 0, run.DEADLINE_S, trace=True) for _ in range(2)]
        for label, report in [("untraced", plain)] + [("traced", t) for t in traced]:
            failed, _ = run.check_pass(report, golden)
            if failed:
                problems.append(f"{name}: {failed} {label} job(s) differ from the golden")
        first, second = (t["layers"] for t in traced)
        first["trace.overhead"] = run.wall(traced[0]) / run.wall(plain)
        for metric, loaded_by in LOADS.items():
            if name in loaded_by and not first[metric]:
                problems.append(f"{name}: {metric} is zero but this workload should load it")
        for metric in BYPASS.get(name, ()):
            if first[metric]:
                problems.append(f"{name}: {metric} = {first[metric]} on a workload that bypasses it")
        for metric, unit, _ in PER_LAYER:
            if unit != "s" and metric in second and first[metric] != second[metric]:
                problems.append(f"{name}: {metric} differs between traced runs: {first[metric]} vs {second[metric]}")
        share = intended_share(traced[0], INTENDED[name])
        if share <= 0.5:
            problems.append(f"{name}: intended layers carry only {share:.0%} of self time")
        shares = ", ".join(f"{m} {s:.0%}" for m, s in sorted(module_shares(traced[0]).items()))
        print(
            f"{name}: intended share {share:.0%}; overhead {first['trace.overhead']:.2f}x; {shares}",
            flush=True,
        )
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
