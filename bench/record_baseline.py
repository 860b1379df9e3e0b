"""Run the benchmark several times per workload and record the results.

Usage, from the repository root::

    python3 bench/record_baseline.py --first-seed 1 \
        --out bench/results/baseline.json [--note TEXT] [WORKLOAD ...]

Each workload gets ``RUNS`` untraced runs, each with its own seed and the
``run_seconds`` of ``BENCHMARK.json``, made the way ``run.py`` makes them.
For every end-to-end metric the record keeps the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  One traced run per
workload adds the per-layer metrics.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import run as bench

BENCHMARK = bench.ROOT / "BENCHMARK.json"
RUNS = 10


def measured(workload: str, first_seed: int, seconds: int,
             bounds: dict) -> dict:
    """RUNS untraced runs of one workload and the spread of each metric."""
    values: dict[str, list[float]] = {}
    passes = []
    for seed in range(first_seed, first_seed + RUNS):
        run = bench.run_workload(workload, seed, seconds, False)
        passes.append(run["passes"])
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    attempted = sum(p["attempted"] for run in passes for p in run)
    failed = sum(p["failed"] for run in passes for p in run)
    summary = {"attempted": attempted, "failed": failed,
               "failed_share": failed / attempted,
               "slowest_checks": [max((p["slowest_check"] for p in run),
                                      key=lambda s: s[1]) for run in passes],
               "pass_verdict_s": [[p["verdict_s"] for p in run]
                                  for run in passes]}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median,
                         "bound": bounds[name], "values": vals}
        print(f"{workload} {name} median {median:.4f} "
              f"spread {(q3 - q1) / median:.3f} bound {bounds[name]}",
              flush=True)
    return summary


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=list(bench.WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"host": bench.host_facts(), "run_seconds": seconds,
              "runs_per_workload": RUNS, "notes": args.note,
              "end_to_end": {}, "traced": {}}
    with bench.exclusive():
        for workload in args.workloads:
            record["end_to_end"][workload] = measured(
                workload, args.first_seed, seconds, bounds)
            run = bench.run_workload(workload, args.first_seed, seconds, True)
            record["traced"][workload] = {
                k: m["value"] for k, m in run["metrics"].items()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
