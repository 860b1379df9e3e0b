"""One benchmark pass, in a fresh interpreter started by run.py.

Sets up one workload, runs its verdicts and prints one JSON line with the
pass's set-up time, verdict time, peak RSS, failures and slowest check; with
``--trace 1`` also the per-layer metrics.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent just before it "
                             "started this interpreter")
    args = parser.parse_args()

    known = workloads.load_known()
    with spans.Tracer() if args.trace else contextlib.nullcontext() as tracer:
        checks = workloads.workload_checks(args.workload, args.seed,
                                           args.workdir, known)
        ready = time.perf_counter()
        verdicts, slowest = [], ("", 0.0)
        for check in checks:
            start = time.perf_counter()
            verdicts += workloads.run_checks([check])
            slowest = max(slowest, (check.label, time.perf_counter() - start),
                          key=lambda s: s[1])
        done = time.perf_counter()
    failures = [(label, msg) for label, msg in verdicts if msg is not None]
    result = {
        "setup_s": ready - args.spawned_at,
        "verdict_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(verdicts),
        "failed": len(failures),
        "failures": failures[:5],
        "slowest_check": slowest,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
