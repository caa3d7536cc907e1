"""satdecomp benchmark: one command for every workload and mode.

Timed run (end-to-end metrics, tracing off):
    python3 perfbench/run.py --workload wide_mc --seed 1 --seconds 20 --trace 0
Traced run (per-layer metrics and the tracing overhead):
    python3 perfbench/run.py --workload wide_mc --seed 1 --seconds 20 --trace 1
Repeat mode (median and quartiles over seeds 1..10, one process per run):
    python3 perfbench/run.py --workload wide_mc --seed 1 --seconds 20 --repeat 10

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The program is imported from the
checkout's src/ directory; without it the command fails before any result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is short, so it is repeated and its median reported
SETUP_REPS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "branches_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def set_up(cls, seed: int, workdir: str):
    """Import the program afresh and build the inputs, SETUP_REPS times.

    Each repetition, and the timed loop after them, starts from a collected
    heap, so no repetition pays for the garbage of the one before.
    """
    from workloads import Program

    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        sd = Program(SRC)
        work = cls(sd, seed, workdir)
        times.append(time.perf_counter() - t0)
    gc.collect()
    return work, statistics.median(times)


def timed(work, seconds: float):
    """Repeat the task until `seconds` have passed; check the first result."""
    walls, prints = [], []
    first = None
    start = time.perf_counter()
    while True:
        work.reset()
        t0 = time.perf_counter()
        result = work.task()
        walls.append(time.perf_counter() - t0)
        prints.append(work.fingerprint(result))
        if first is None:
            first = result
        if time.perf_counter() - start >= seconds:
            break
    peak = peak_rss_mb()
    faults = work.check(first)
    failed = sum(1 for fp in prints if faults or fp != prints[0])
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "branches_per_s": work.branches(first) / wall,
        "peak_rss_mb": peak,
    }
    return metrics, len(walls), failed, faults


def _untraced(work):
    work.reset()
    t0 = time.perf_counter()
    result = work.task()
    return time.perf_counter() - t0, work.fingerprint(result)


def traced(work, workload: str, seed: int):
    """A traced task between two untraced ones; per-layer metrics from the
    spans, and the tracing overhead against the mean untraced time."""
    from tracer import Recorder, child_cpu

    before_s, plain_print = _untraced(work)

    rec = Recorder(work.sd, f"{workload}-{seed}-{os.getpid()}")
    rec.install()
    try:
        work.load()  # the set-up's DIMACS round trip, traced
        work.reset()
        cpu0 = child_cpu()
        t0 = time.perf_counter()
        result = work.task()
        traced_s = time.perf_counter() - t0
        cpu = child_cpu() - cpu0
    finally:
        rec.remove()
    traced_print = work.fingerprint(result)
    rec.write(os.path.join(OUT, f"spans-{workload}-{seed}.jsonl"))
    after_s, after_print = _untraced(work)
    faults = work.check(result)
    prints = (plain_print, traced_print, after_print)
    failed = sum(1 for fp in prints if faults or fp != plain_print)
    overhead_s = traced_s - (before_s + after_s) / 2
    return rec.metrics(cpu, overhead_s), len(prints), failed, faults


def run(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        work, setup_s = set_up(cls, args.seed, workdir)
        if args.trace:
            from tracer import PER_LAYER

            metrics, attempted, failed, faults = traced(work, args.workload, args.seed)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            metrics, attempted, failed, faults = timed(work, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault in faults:
        print(f"FAULT: {fault}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    correct = not faults and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def repeat(args) -> int:
    """Run the workload once per seed, each in its own process."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    attempted = failed = 0
    ok = True
    for seed in range(args.seed, args.seed + args.repeat):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            ok = False
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: no result")
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        shown = []
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            if name in END_TO_END:
                shown.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: attempted={report['attempted']} failed={report['failed']} "
              + " ".join(shown), flush=True)
    summary = {}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name]}
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if ok and failed == 0 else 1


def main() -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the timed run repeats the task")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many seeds from --seed in separate processes")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "satdecomp", "__init__.py")):
        print(f"error: no satdecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return repeat(args) if args.repeat else run(args)


if __name__ == "__main__":
    sys.exit(main())
