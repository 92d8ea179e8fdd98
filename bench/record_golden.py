"""Record the golden outputs of every workload and input variant.

    python3 bench/record_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference.  Each job runs once, in a fresh worker process per variant, and
its exit code and output are written to bench/golden/<workload>.json
together with the commit it was recorded at.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import workloads


def source_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", run.ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    commit = source_commit()
    for name in workloads.WORKLOADS:
        variants = {}
        for variant in range(workloads.VARIANTS):
            report = run.run_pass(name, variant, timeout=run.DEADLINE_S)
            for job in report["jobs"]:
                if job["error"] is not None:
                    print(f"{name} variant {variant}: {job['label']} raised\n{job['error']}", file=sys.stderr)
                    return 1
            variants[str(variant)] = [
                {"label": j["label"], "exit": j["exit"], "output": j["output"]} for j in report["jobs"]
            ]
            print(f"{name} variant {variant}: {len(report['jobs'])} jobs", file=sys.stderr)
        with open(run.golden_path(name), "w") as fh:
            json.dump({"workload": name, "recorded_at": commit, "variants": variants}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
