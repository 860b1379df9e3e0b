"""Time-to-verdict benchmark for hochcyc.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Each pass starts a fresh single-threaded interpreter (``worker.py``) with a
fixed hash seed, so every cache starts cold the way each ``hochcyc``
invocation does.  Passes run one after another, and a lock file keeps two
benchmark runs from overlapping.

With ``--trace 0`` a run makes passes until the next one would end after
``--seconds`` (at least one), and reports the median over passes of

- ``verdict_s``: wall seconds from the end of set-up to the last verdict;
- ``setup_s``: seconds from the start of the interpreter until the inputs
  are ready (imports, algebras, instance files, random families);
- ``peak_rss_mb``: peak resident memory of the pass's process.

With ``--trace 1`` it makes pairs of one untraced and one traced pass, at
least ``TRACE_PAIRS`` and more while ``--seconds`` allows, and reports the
median over traced passes of each per-layer metric of ``spans.py``, plus
``trace.overhead_s``, the median over pairs of the traced minus the untraced
verdict time.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` over
``attempted`` is the share of verdicts that were wrong or raised.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("coderivation_complexes", "homology_openclosed")
END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170   # a run must end well within the 180 s it is allowed
TRACE_PAIRS = 3
HASH_SEED = "0"


class BenchError(RuntimeError):
    pass


def host_facts() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg", encoding="utf-8") as fh:
        load = fh.read().split()[:3]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": load}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                PYTHONHASHSEED=HASH_SEED)


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; returns the worker's result plus the
    pass's wall time as the parent saw it."""
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        spawned = time.perf_counter()
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--workdir", workdir,
               "--spawned-at", repr(spawned)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} pass exceeded the run limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - spawned
    return result


def measure(workload: str, seed: int, seconds: float, start: float) -> dict:
    deadline = start + RUN_LIMIT_S
    passes = [run_pass(workload, seed, False, deadline)]
    while time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(workload, seed, False, deadline))
    metrics = {name: {"value": statistics.median(p[name] for p in passes),
                      "unit": unit}
               for name, unit in END_TO_END.items()}
    return {"passes": passes, "metrics": metrics}


def trace(workload: str, seed: int, seconds: float, start: float) -> dict:
    deadline = start + RUN_LIMIT_S
    passes = []
    while True:
        pair_start = time.perf_counter()
        passes += [run_pass(workload, seed, False, deadline),
                   run_pass(workload, seed, True, deadline)]
        pair_s = time.perf_counter() - pair_start
        if (len(passes) >= 2 * TRACE_PAIRS
                and time.perf_counter() - start + pair_s > seconds):
            break
    plain, traced = passes[0::2], passes[1::2]
    layers = [p.pop("layers") for p in traced]
    metrics = {name: {"value": statistics.median(l[name] for l in layers),
                      "unit": spans.unit_of(name)}
               for name in layers[0]}
    for layer, moves in spans.SHOULD_MOVE.items():
        print(f"{workload}: layer {layer} should move {moves}")
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t["verdict_s"] - p["verdict_s"]
                                   for p, t in zip(plain, traced)),
        "unit": "s"}
    return {"passes": passes, "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """One benchmark run of one workload: its passes and its metrics."""
    start = time.perf_counter()
    return (trace(workload, seed, seconds, start) if traced else
            measure(workload, seed, seconds, start))


@contextlib.contextmanager
def exclusive():
    """Holds the benchmark's lock, so that no two runs overlap, and compiles
    the sources first, so that no pass pays for it."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "run.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(BENCH, quiet=1)
        yield


def summarize(name: str, run: dict) -> None:
    for p in run["passes"]:
        for label, msg in p["failures"]:
            print(f"{name}: FAILED {label}: {msg}")
    print(f"{name}: {len(run['passes'])} passes, verdict_s "
          + " ".join(f"{p['verdict_s']:.3f}" for p in run["passes"]))
    label, seconds = max((p["slowest_check"] for p in run["passes"]),
                         key=lambda s: s[1])
    print(f"{name}: slowest check {label} {seconds:.3f} s")
    for metric, m in run["metrics"].items():
        print(f"{name}  {metric}  {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hochcyc" / "__init__.py").is_file():
        print(f"no hochcyc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 takes one workload")
    with exclusive():
        print("host: " + json.dumps(host_facts()), flush=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics = {}
        attempted = failed = 0
        try:
            for name in names:
                run = run_workload(name, args.seed, args.seconds,
                                   bool(args.trace))
                summarize(name, run)
                attempted += sum(p["attempted"] for p in run["passes"])
                failed += sum(p["failed"] for p in run["passes"])
                prefix = "" if len(names) == 1 else f"{name}."
                metrics.update({prefix + k: v
                                for k, v in run["metrics"].items()})
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
