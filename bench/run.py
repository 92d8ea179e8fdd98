"""The cychom benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass of the workload runs in a
fresh single-threaded Python process (bench/worker.py), one job at a time
(a closed loop with one client).  Passes repeat for about --seconds
seconds.  Every job's output (stdout bytes and exit code for CLI jobs,
report fields for library jobs) is checked against the golden recorded
for the seed's input variant in bench/golden/.

With --trace 0 the last stdout line reports the end-to-end metrics, each
the median over passes:
  wall_s       first job start to last job end, less the reference-kernel
               runs between and inside jobs
  max_job_s    slowest single job
  setup_s      process spawn until cychom is imported and inputs validated
  peak_rss_mb  ru_maxrss of the pass process
Times are in reference-speed seconds (see calib.py).  With --trace 1 the
same untraced passes run, then one traced pass, and the line reports the
per-layer metrics of tracer.py plus trace.overhead (traced wall_s over
untraced wall_s).  Spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import calib
import workloads
from tracer import PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
MIN_PASSES = 3
SETUP_SAMPLES = 6  # set-up-only processes per run, besides the one of each pass
DEADLINE_S = 170.0  # every run ends well inside 180 s


class PassFailed(Exception):
    pass


def golden_path(workload: str) -> str:
    return os.path.join(BENCH, "golden", f"{workload}.json")


def load_golden(workload: str, variant: int) -> list:
    with open(golden_path(workload)) as fh:
        jobs = json.load(fh)["variants"][str(variant)]
    labels = [j["label"] for j in jobs]
    if labels != workloads.job_labels(workload, variant):
        raise SystemExit(f"golden for {workload} variant {variant} lists other jobs; re-record it")
    return jobs


def run_pass(
    workload: str, variant: int, timeout: float, trace: bool = False, spans: str = None,
    setup_only: bool = False,
) -> dict:
    """Spawn one worker pass; return its report with normalized times added."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--variant", str(variant)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    # fixed hashing keeps counts exact; cached bytecode, as an installed
    # package has, keeps compilation out of setup_s after the first pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    ref_before = calib.measure()
    spawned_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_raw = (report["ready_ns"] - spawned_ns) / 1e9
    report["setup_raw_s"] = setup_raw
    report["setup_s"] = setup_raw * calib.scale(ref_before, report["ref_after_setup"])
    for job in report["jobs"]:
        job["norm_s"] = calib.job_seconds(job)
    return report


def check_pass(report: dict, golden: list) -> tuple:
    """(failed job count, output hash) of one pass."""
    failed = 0
    digest = hashlib.sha256()
    for got, want in zip(report["jobs"], golden):
        ok = got["error"] is None and got["exit"] == want["exit"] and got["output"] == want["output"]
        if not ok:
            failed += 1
            detail = got["error"] or f"exit {got['exit']}, output differs from golden"
            print(f"FAILED {got['label']}: {detail}", file=sys.stderr)
        digest.update(json.dumps([got["label"], got["exit"], got["output"]]).encode())
    failed += len(golden) - len(report["jobs"])
    return failed, digest.hexdigest()


def wall(report: dict) -> float:
    return sum(job["norm_s"] for job in report["jobs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cychom benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cychom", "__init__.py")):
        print(f"error: no cychom sources under {ROOT}/src", file=sys.stderr)
        return 2
    variant = workloads.variant_of(args.seed)
    golden = load_golden(args.workload, variant)

    start = time.monotonic()
    try:
        setups = [
            run_pass(args.workload, variant, DEADLINE_S, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
    except PassFailed as e:
        print(f"set-up failed: {e}", file=sys.stderr)
        return 1
    passes, hashes = [], set()
    attempted = failed = 0
    while True:
        remaining = DEADLINE_S - (time.monotonic() - start)
        attempted += len(golden)
        try:
            report = run_pass(args.workload, variant, timeout=remaining)
        except PassFailed as e:
            print(f"pass failed: {e}", file=sys.stderr)
            failed += len(golden)
            break
        bad, digest = check_pass(report, golden)
        failed += bad
        hashes.add(digest)
        passes.append(report)
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break
        if elapsed + 2 * per_pass > DEADLINE_S * (0.5 if args.trace else 1.0):
            break
    if not passes:
        return 1

    walls = [wall(r) for r in passes]
    for r, w in zip(passes, walls):
        raw = sum(job["seconds"] - sum(job["probes"]) for job in r["jobs"])
        print(
            f"pass: wall_s {w:.3f} (raw {raw:.3f}) setup_s {r['setup_s']:.3f} "
            f"(raw {r['setup_raw_s']:.3f}) rss_kb {r['peak_rss_kb']}",
            file=sys.stderr,
        )
    if args.trace:
        attempted += len(golden)
        spans_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        try:
            remaining = DEADLINE_S - (time.monotonic() - start)
            traced = run_pass(args.workload, variant, remaining, trace=True, spans=spans)
        except PassFailed as e:
            print(f"traced pass failed: {e}", file=sys.stderr)
            failed += len(golden)
            return 1
        bad, digest = check_pass(traced, golden)
        failed += bad
        if digest not in hashes:
            print("traced output differs from the untraced output", file=sys.stderr)
            failed += 1
        layers = traced["layers"]
        layers["trace.overhead"] = wall(traced) / statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        print(f"spans: {traced['spans']} written to {spans}", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "max_job_s": statistics.median(max(j["norm_s"] for j in r["jobs"]) for r in passes),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in passes]),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in passes),
        }
        units = {"wall_s": "s", "max_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(
        f"{args.workload} seed {args.seed} (variant {variant}): {len(passes)} passes, "
        f"error_rate {failed}/{attempted}",
        file=sys.stderr,
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
