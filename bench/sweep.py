"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads pipeline gap-exact oracle-small --seeds 1-10

For every workload and metric it prints the median and the spread, the
distance between the first and third quartiles of the runs as a share of
their median, next to the metric's bound in BENCHMARK.json. With
``--baseline`` it also makes a traced run on every seed and writes the
medians over the seeds, end to end and per layer, and every failed
operation by seed and instance, to bench/baseline.json.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The report of one run (run.py writes it; its "result" is the printed result line)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    report_path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                       if line.startswith("report: "))
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["result"] == json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        reports = [run(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        results = [r["result"] for r in reports]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations")
        medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians[name] = med
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:18s} median {med:.6g} spread {spread:.4f} bound {bound}{flag}")
            print(f"    runs: {' '.join(f'{v:.4g}' for v in values)}")
        summary[workload] = {"end_to_end": medians}
        if args.baseline:
            reports += [run(workload, seed, spec["run_seconds"], 1) for seed in args.seeds]
            traced = [r["result"]["metrics"] for r in reports[len(args.seeds):]]
            summary[workload]["per_layer"] = {
                name: statistics.median(m[name]["value"] for m in traced) for name in traced[0]}
            summary[workload]["failures"] = sorted(
                {f"seed {r['args']['seed']}: {f['op']}: {f['message']}"
                 for r in reports for f in r["details"]["failures"]})
            for line in summary[workload]["failures"]:
                print(f"  failed: {line}")

    if args.baseline:
        sys.path.insert(0, BENCH_DIR)
        from run import environment

        path = os.path.join(BENCH_DIR, "baseline.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(), "seeds": args.seeds,
                       "workloads": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
