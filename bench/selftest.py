"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 bench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json
with its unit, in both modes; that a deliberately corrupted output is
counted as a failed operation; that the traced layer self times add up to
the traced instance time; and that a directory without the library makes the
benchmark exit nonzero without a result. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

SCRATCH = os.path.join(run.OUT_DIR, "selftest")
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(args: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    script = os.path.relpath(os.path.join(BENCH_DIR, "run.py"), cwd)
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def metrics_and_units() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in run.wl.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                          "--trace", str(trace), "--scale", "tiny"])
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{what}: every operation passes its checks")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what}: every {group} metric with its unit")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                   f"{what}: every value is a finite number")
            if trace:
                m = {name: metric["value"] for name, metric in result["metrics"].items()}
                share = sum(m[f"{layer}.self_s"] for layer in run.LAYERS) / m["trace.instance_s"]
                expect(abs(1.0 - share) <= run.COVERAGE_SHARE,
                       f"{what}: layer self times sum to the traced instance time ({share:.4f})")


def corrupt_json(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def exact_below_lower(step, inst, d):
    if step == "gap":
        corrupt_json(f"{d}/gap.json", lambda out: out.update(exact=0.5 * out["lower"]))


def shifted_oracle_value(step, inst, d):
    if step == "oracle":
        corrupt_json(f"{d}/oracle.json",
                     lambda out: out.update(value=out["value"] + 1e-6 * max(1.0, abs(out["value"]))))


def corruption_is_counted() -> None:
    for workload, corrupt, step in (("gap-exact", exact_below_lower, "gap"),
                                    ("oracle-small", shifted_oracle_value, "oracle")):
        out = run.run_benchmark(workload, 1, 0.0, False, "tiny", corrupt, SCRATCH)
        result, details = out["result"], out["details"]
        n_inst = details["instances"]
        expect(not result["correct"] and result["failed"] == n_inst,
               f"{workload}: a corrupted {step} output fails each of the {n_inst} instances "
               f"({result['failed']} of {result['attempted']} operations failed)")
        expect(result["metrics"]["pass_frac"]["value"] == 1.0 - n_inst / result["attempted"],
               f"{workload}: the failures show in pass_frac")


def missing_library_fails() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"without the library: exit {proc.returncode} and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if not os.path.isfile("BENCHMARK.json"):
        print("run from the root of the checkout", file=sys.stderr)
        return 2
    metrics_and_units()
    corruption_is_counted()
    missing_library_fails()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
