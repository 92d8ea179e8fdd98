"""One pass of a workload in a fresh process: set-up, then every job once.

    python3 bench/worker.py --workload NAME --variant K [--trace] [--spans FILE] [--setup-only]

Run from the root of a checkout.  Prints one JSON object: the monotonic
time at which set-up finished, reference-kernel timings around and inside
every timed step (see calib.py), each job's wall time, exit code and
output, the peak RSS of this process and, with --trace, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cychom  # noqa: F401  (import time is part of set-up)

    import calib
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = workloads.prepare(args.workload, args.variant)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    ref = calib.measure()
    report = {"ready_ns": ready_ns, "ref_after_setup": ref, "jobs": []}
    if args.setup_only:
        jobs = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
        error = None
        with calib.Probe() as probe:
            start = time.perf_counter()
            try:
                code, output = job.run()
            except Exception:  # a failing job is counted, the pass goes on
                code, output, error = None, "", traceback.format_exc()
            seconds = time.perf_counter() - start
        ref_before, ref = ref, calib.measure()
        report["jobs"].append(
            {
                "label": job.label,
                "seconds": seconds,
                "probes": probe.samples,
                "ref_before": ref_before,
                "ref_after": ref,
                "exit": code,
                "output": output,
                "error": error,
            }
        )
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.job = None
        report["layers"] = tracer.metrics()
        report["self_times"] = tracer.self_times()
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
