"""Benchmark of the ratiocut CLI on seeded instances, end to end and per layer.

Run from the root of a ratiocut checkout:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``pipeline`` runs cluster, certify, bound and eigenmap on weighted block
graphs; ``gap-exact`` runs gap on weighted random graphs and on unweighted
paths, cycles and grids; ``oracle-small`` runs certify and oracle on small
noisy block graphs.

The library is imported from ``src/`` and ``ratiocut.cli.main`` is called
in-process, one call per CLI step, so interpreter start-up does not swamp
the library. Each step's output is checked through an independent numpy
route; a step that raises, exits nonzero or writes an output that fails a
check is a failed operation, named in the report. ``correct`` in the result
is false when any output failed its check.

A round is the workload's fixed mix of instances. A run does rounds, each
on freshly generated graphs, for as long as another round is expected to
fit in ``--seconds`` (at least one). The latency percentiles are taken
within each round and the median over rounds is reported, so that a faster
library, which fits more rounds, is measured on the same order statistic
of the same mix. With ``--trace 0`` the last line of stdout is the JSON
result with the end-to-end metrics. With ``--trace 1`` the library's public
functions are wrapped (tracer.py) and the result holds the per-layer
metrics; every other instance is also run untraced, which gives the
tracing overhead. Reports and spans go to ``.bench_out/``.

Times are in reference seconds (see RefClock): wall seconds scaled by how
fast a fixed harness-owned loop ran right before and right after each timed
interval, so that drift in a shared host's speed does not read as a change
in the library.
"""

from __future__ import annotations

import os

# One process, single-threaded BLAS: the load stays within nproc and the
# small dense solves do not contend with each other for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import LAYERS, READS, WRITES, Tracer  # noqa: E402

OUT_DIR = ".bench_out"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 12  # set-ups before and after the rounds; setup_s is their median
PAIR_EVERY = 2  # in traced runs, every other instance also runs untraced
TAIL_BEYOND = 10  # a round's tail is its highest percentile with this many samples beyond it
COVERAGE_SHARE = 0.02  # layer self times must sum to the traced CLI time within this share
SATURATED_S = 1e9  # latency reported when a percentile falls on a failed instance
REF_NOMINAL_S = 0.010  # a reference second is the time reference() takes, over this


class MissingLibrary(Exception):
    pass


def load_library():
    """Import ratiocut and its CLI afresh from ./src; return ``ratiocut.cli``."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ratiocut", "__init__.py")):
        raise MissingLibrary("src/ratiocut not found; run from the root of a ratiocut checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "ratiocut" or m.startswith("ratiocut.")]:
        del sys.modules[name]
    rc = importlib.import_module("ratiocut")
    if not os.path.abspath(rc.__file__).startswith(src + os.sep):
        raise MissingLibrary(f"imported ratiocut from {rc.__file__}, not from {src}")
    return importlib.import_module("ratiocut.cli")


def write_inputs(instances, root: str) -> None:
    """Write each instance's edge list (and planted partition) with the library's writers."""
    rc = sys.modules["ratiocut"]
    for inst in instances:
        d = os.path.join(root, inst.name)
        os.makedirs(d, exist_ok=True)
        rc.write_edge_list(f"{d}/{wl.GRAPH}", rc.WeightedGraph(inst.weights))
        if inst.labels is not None:
            rc.write_partition(f"{d}/{wl.PLANTED}", rc.Partition(inst.labels, inst.k))


def setup(workload: str, scale: str, seed: int, root: str):
    """One set-up: import the library afresh, generate round 0 and write its files.

    Returns (seconds, the ``ratiocut.cli`` module, the instances).
    """
    t0 = perf_counter()
    cli = load_library()
    instances = wl.generate(workload, scale, seed, 0)
    write_inputs(instances, root)
    return perf_counter() - t0, cli, instances


def run_instance(main, workload: str, inst, root: str, clock: RefClock, corrupt=None):
    """Run an instance's CLI steps and check each output.

    Returns (wall seconds inside the CLI, the same in reference seconds,
    operations attempted, failures). Each step is scaled by its own pair of
    ``clock`` readings, which follow the host's speed more closely than one
    pair around a long instance. A
    failure is a dict naming the operation; ``wrong`` is true when the step
    wrote an output that fails a check, false when it raised or exited
    nonzero. ``corrupt(step, inst, dir)``, if given, tampers with a step's
    output before it is checked; the self-test uses it to show the checks
    can fail.
    """
    d = os.path.join(root, inst.name)
    for name in os.listdir(d):  # outputs of an earlier run of the instance
        if name not in wl.INPUTS:
            os.remove(os.path.join(d, name))
    wall = ref_s = 0.0
    failures = []
    plan = wl.steps(workload, inst, d)
    for step, argv in plan:
        problem = None
        out, err = io.StringIO(), io.StringIO()
        clock.start()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on bad flags
                code = exc.code
            except Exception as exc:  # a crashing step is a failed operation, not a crashed benchmark
                code = None
                problem = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
        wall += elapsed
        ref_s += elapsed * clock.stop()
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        wrong = False
        if problem is None:
            if corrupt is not None:
                corrupt(step, inst, d)
            try:
                violations = wl.CHECKS[step](inst, d)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                violations = [f"unreadable output: {type(exc).__name__}: {exc}"]
            wrong = bool(violations)
            problem = "; ".join(violations) or None
        if problem is not None:
            failures.append({"op": f"{inst.name}/{step}", "wrong": wrong, "message": problem})
    return wall, ref_s, len(plan), failures


def run_untraced(tracer: Tracer, clock: RefClock, cli, workload: str, inst, root: str) -> float:
    """Reference seconds inside the CLI for one run of an instance with the wrappers removed."""
    tracer.uninstall()
    try:
        return run_instance(cli.main, workload, inst, root, clock)[1]
    finally:
        tracer.install()


def reference() -> float:
    """Seconds taken by a fixed loop of small numpy operations and Python
    arithmetic, the mix the library spends its time in."""
    a = np.arange(64.0)
    t0 = perf_counter()
    total = 0.0
    for i in range(3000):
        total += float((a * 1.0001 + i)[3])
    return perf_counter() - t0


class RefClock:
    """Scales timed intervals into reference seconds.

    A shared host can run the same code 1.5-2x faster or slower from one
    second to the next, and the reference loop moves nearly as much as the
    library does. The loop is timed right before (``start``) and right after
    (``stop``) each interval; the interval's wall seconds times the factor
    ``stop`` returns, REF_NOMINAL_S over the mean of the two readings, are
    its reference seconds. On repeated runs of one instance this cut the
    spread between quartiles from 20-67% of the median to 7-13%; scaling by
    a run-wide median reading did not follow the drift within a run.
    """

    def __init__(self):
        self.readings: list[float] = []

    def start(self) -> None:
        self.readings.append(reference())

    def stop(self) -> float:
        self.readings.append(reference())
        return 2.0 * REF_NOMINAL_S / (self.readings[-2] + self.readings[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    idx = len(xs) - TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), TAIL_BEYOND


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def per_layer(tracer: Tracer, n_inst: int, traced_s: float, pairs: list) -> dict:
    """Per-instance layer metrics. ``traced_s`` is the traced CLI time and
    ``pairs`` holds the (untraced, traced) seconds of the paired runs, all
    in reference seconds, as are the tracer's span times."""
    incl, excl, calls, layer_self = tracer.totals()
    c = tracer.counts
    per = 1.0 / n_inst

    def s(qual):
        return incl.get(qual, 0.0) * per

    def n(qual):
        return calls.get(qual, 0) * per

    eig_calls = calls.get("eigen.sym_eig", 0)
    parts = c["oracle.partitions"]
    m = {
        "eigen.sym_eig.calls": (n("eigen.sym_eig"), "count/inst"),
        "eigen.sym_eig.s": (s("eigen.sym_eig"), "s/inst"),
        "eigen.sym_eig.n3": (c["sym_eig.n3"] * per, "n3/inst"),
        "eigen.sym_eig.max_n": (float(c["sym_eig.max_n"]), "vertices"),
        "eigen.sym_eig.repeat_frac": (c["sym_eig.repeats"] / eig_calls if eig_calls else 0.0, "frac"),
        "simplex.solve_lp.calls": (n("simplex.solve_lp"), "count/inst"),
        "simplex.solve_lp.s": (s("simplex.solve_lp"), "s/inst"),
        "simplex.solve_lp.cells": (c["solve_lp.cells"] * per, "cells/inst"),
        "perturb.gap_exact.s": (s("perturb.gap_exact"), "s/inst"),
        "perturb.gap_exact.self_s": (excl.get("perturb.gap_exact", 0.0) * per, "s/inst"),
        "oracle.min_ratio_cut_bruteforce.s": (s("oracle.min_ratio_cut_bruteforce"), "s/inst"),
        "oracle.partitions": (parts * per, "count/inst"),
        "oracle.us_per_partition": (
            1e6 * incl.get("oracle.min_ratio_cut_bruteforce", 0.0) / parts if parts else 0.0, "us"),
        "graphs.ratio_cut.calls": (n("graphs.ratio_cut"), "count/inst"),
        "graphs.ratio_cut.s": (s("graphs.ratio_cut"), "s/inst"),
        "fileio.read.s": (sum(s(q) for q in READS), "s/inst"),
        "fileio.write.s": (sum(s(q) for q in WRITES), "s/inst"),
        "fileio.bytes": (c["fileio.bytes"] * per, "B/inst"),
        "cli.calls": (n("cli.main"), "count/inst"),
        "certify.certificate.s": (s("certify.certificate"), "s/inst"),
        "certify.intra_connectivities.s": (s("certify.intra_connectivities"), "s/inst"),
        "perturb.theoretical_bound.self_s": (excl.get("perturb.theoretical_bound", 0.0) * per, "s/inst"),
        "perturb.gap_lower_bound.s": (s("perturb.gap_lower_bound"), "s/inst"),
        "perturb.gap_upper_bound_unweighted.s": (s("perturb.gap_upper_bound_unweighted"), "s/inst"),
        "graphs.laplacian.calls": (n("graphs.laplacian"), "count/inst"),
        "graphs.diameter.s": (s("graphs.diameter"), "s/inst"),
        "rounding.kmeans_round.s": (s("rounding.kmeans_round"), "s/inst"),
        "rounding.kmeans_round.iterations": (c["kmeans.iterations"] * per, "count/inst"),
        "rounding.fiedler_bisect.s": (s("rounding.fiedler_bisect"), "s/inst"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] * per, "s/inst")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    m["trace.instance_s"] = (traced_s * per, "s/inst")
    m["trace.coverage_frac"] = (sum(layer_self.values()) / traced_s, "frac")
    # The overhead is the median over paired runs of traced / untraced - 1,
    # with the spread of those ratios beside it: the host's speed moves by
    # several percent between two adjacent runs of the same instance, which
    # is more than the overhead on workloads with few calls per second.
    ratios = [t / u - 1.0 for u, t in pairs]
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    m["trace_overhead_frac"] = (med, "frac")
    m["trace_overhead_frac.iqr"] = (q3 - q1, "frac")
    return m


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", corrupt=None, out_dir: str = OUT_DIR) -> dict:
    """One benchmark run; returns the result object and the report details."""
    root = os.path.join(out_dir, f"work-{os.getpid()}-{workload}")
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if trace else None
    clock = RefClock()
    try:
        setup_times, setup_wall = [], []

        def timed_setups():
            for _ in range(SETUP_REPEATS):
                clock.start()
                secs, cli, instances = setup(workload, scale, seed, root)
                setup_wall.append(secs)
                setup_times.append(secs * clock.stop())
            return cli, instances

        def traced_inputs(instances):  # traced, so fileio.write.s covers the inputs too
            tracer.begin_instance("setup")
            clock.start()
            write_inputs(instances, root)
            tracer.scale_instance(clock.stop())

        cli, instances = timed_setups()
        if tracer is not None:
            tracer.install()
            traced_inputs(instances)

        records = []  # (round, instance, wall seconds, reference seconds, passed)
        attempted = 0
        failures: list[dict] = []
        pairs = []  # (untraced, traced) seconds of the instances run both ways
        t_start = perf_counter()
        round_no = 0
        while True:
            t_round = perf_counter()
            for i, inst in enumerate(instances):
                # paired instances alternate which run goes first, so that
                # warm caches favour neither side
                pair = tracer is not None and i % PAIR_EVERY == 0
                untraced_first = (i // PAIR_EVERY) % 2 == 0
                if pair and untraced_first:
                    untraced = run_untraced(tracer, clock, cli, workload, inst, root)
                if tracer is not None:
                    tracer.begin_instance(inst.name)
                secs, ref_s, ops, bad = run_instance(cli.main, workload, inst, root, clock, corrupt)
                if tracer is not None:
                    tracer.scale_instance(ref_s / secs)
                if pair and not untraced_first:
                    untraced = run_untraced(tracer, clock, cli, workload, inst, root)
                if pair:
                    pairs.append((untraced, ref_s))
                records.append((round_no, inst.name, secs, ref_s, not bad))
                attempted += ops
                failures += bad
            round_time = perf_counter() - t_round
            round_no += 1
            if perf_counter() - t_start + round_time > seconds:
                break
            instances = wl.generate(workload, scale, seed, round_no)
            if tracer is None:
                write_inputs(instances, root)
            else:
                traced_inputs(instances)
        if tracer is None:
            # set up again after the rounds, so that setup_s, the median over
            # both windows, evens out drift in the machine's speed
            timed_setups()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(root, ignore_errors=True)

    cli_seconds = sum(ref_s for _, _, _, ref_s, _ in records)
    passed = sum(ok for *_, ok in records)
    failed_ops = len(failures)
    # latency percentiles within each round's fixed mix, then the median over rounds
    rounds = [[ref_s if ok else float("inf") for r, _, _, ref_s, ok in records if r == k]
              for k in range(round_no)]
    tails = [tail(times) for times in rounds]
    details = {
        "rounds": round_no,
        "instances": len(records),
        "instances_passed": passed,
        "fail_frac": failed_ops / attempted,
        "round_p50_s": [statistics.median(times) for times in rounds],
        "round_tail_s": [t[0] for t in tails],
        "tail_percentile": tails[0][1],
        "tail_samples": len(rounds[0]),
        "tail_samples_beyond": tails[0][2],
        "failures": failures,
        "reference_readings_s": {"median": statistics.median(clock.readings),
                                 "min": min(clock.readings), "max": max(clock.readings),
                                 "count": len(clock.readings)},
        "setup_wall_s": setup_wall,
        "setup_reference_s": setup_times,
        "per_instance_wall_s": {name: secs for _, name, secs, _, _ in records},
        "per_instance_reference_s": {name: ref_s for _, name, _, ref_s, _ in records},
    }
    if trace:
        details["paired_wall_s"] = pairs
        metrics = per_layer(tracer, len(records), cli_seconds, pairs)
        details["spans"] = len(tracer.start)
        details["coverage_within_share"] = (
            abs(1.0 - metrics["trace.coverage_frac"][0]) <= COVERAGE_SHARE)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "instances_per_s": (passed / cli_seconds, "1/s"),
            "instance_s.p50": (min(statistics.median(details["round_p50_s"]), SATURATED_S), "s"),
            "instance_s.tail": (min(statistics.median(details["round_tail_s"]), SATURATED_S), "s"),
            "pass_frac": (1.0 - failed_ops / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        # correct: no output contradicted its check. Operations that raised
        # or exited nonzero produced no output to be wrong; they count in
        # failed, in pass_frac and against the latency percentiles.
        "correct": not any(f["wrong"] for f in failures),
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details, "tracer": tracer}


def baseline(workload: str, trace: bool):
    path = os.path.join(BENCH_DIR, "baseline.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    entry = data["workloads"].get(workload, {})
    return {"environment": data["environment"], "seeds": data["seeds"],
            "failures": entry.get("failures", []),
            "metrics": entry.get("per_layer" if trace else "end_to_end", {})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="instance sizes; tiny is for the harness self-test")
    args = parser.parse_args(argv)

    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, details = out["result"], out["details"]
    env = environment()
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if out["tracer"] is not None:
        out["tracer"].write(stem + "-spans.npz")
    report = {"args": vars(args), "environment": env, "details": details, "result": result,
              "baseline": baseline(args.workload, bool(args.trace))}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    print(f"run: workload={args.workload} seed={args.seed} trace={args.trace} rounds={details['rounds']} "
          f"instances={details['instances']} passed={details['instances_passed']}")
    print(f"fail_frac: {details['fail_frac']} ({result['failed']} of {result['attempted']} operations)")
    for f in details["failures"]:
        print(f"failed: {f['op']}: {'wrong output: ' if f['wrong'] else ''}{f['message']}")
    if not args.trace:
        print(f"instance_s.tail: p{details['tail_percentile']:.1f} of the {details['tail_samples']} "
              f"instances of a round, {details['tail_samples_beyond']} beyond it; median of "
              f"{details['rounds']} round(s)")
    else:
        print(f"trace: {details['spans']} spans; layer self times sum to the traced CLI time "
              f"within {COVERAGE_SHARE:.0%}: {details['coverage_within_share']}")
    if report["baseline"] is not None:
        print(f"baseline (medians over the seeds at the commit that defined the benchmark): "
              f"{json.dumps(report['baseline'])}")
    print(f"report: {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
