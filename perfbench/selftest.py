#!/usr/bin/env python3
"""Determinism test for the benchmark: one command that runs every workload.

    python3 perfbench/selftest.py

Runs each workload twice with the same seed in a short form
(`--seconds 1`), untraced and traced, prints every metric with its unit,
and fails unless every count repeats exactly: marks, supporters, victims,
requests attempted and requests ok.
"""

import json
import subprocess
import sys

WORKLOADS = ["hide_wide", "hide_long", "serve_mixed"]
SEED = 7

# Counts that must be identical between two runs of one seed.
COUNTS = {
    0: ["marks", "ok_share"],
    1: ["matching.probed", "matching.supporters", "core.victims", "matching.cell_repairs",
        "matching.fallback_recounts", "stream.batches", "delta.remarked", "delta.restored",
        "serve.shed"],
}


def run(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace)]
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed ({r.returncode}):\n{r.stderr}")
    print(r.stdout, end="")
    return json.loads(r.stdout.strip().splitlines()[-1])


def main():
    mismatches = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}")
            a, b = run(workload, trace), run(workload, trace)
            if not (a["correct"] and b["correct"]):
                mismatches.append(f"{workload}/{trace}: a correctness gate failed")
            for key in ("attempted", "failed"):
                if a[key] != b[key]:
                    mismatches.append(f"{workload}/{trace} {key}: {a[key]} != {b[key]}")
            for name in COUNTS[trace]:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                if va != vb:
                    mismatches.append(f"{workload}/{trace} {name}: {va} != {vb}")
    if mismatches:
        sys.exit("counts differ between runs of one seed:\n  " + "\n  ".join(mismatches))
    print("selftest: every count repeated exactly")


if __name__ == "__main__":
    main()
