"""Command-line front end.

Subcommands cover the whole pipeline: generate benchmark graphs, cluster
them, certify a partition's optimality, evaluate the eigenmap perturbation
bound, compute l-infinity gap estimates, run the exact small-graph oracle,
and dump embedding coordinates. All reports are canonical JSON (sorted
keys, 12 significant digits) so identical inputs give byte-identical files.

Exit status: 0 on success, 2 on input problems (bad flags, malformed
files), 3 when a theorem hypothesis is violated (e.g. a block smaller
than 3 for `bound`), 4 when a numerical solver fails or its result fails
its check (e.g. a gap bracket in `gap` that does not close).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileio
from .certify import certificate
from .errors import HypothesisViolation, InputError, SolverError
from .graphs import (
    gen_example_blocks,
    gen_planted_blocks,
    gen_unbalanced_example,
    ratio_cut,
)
from .eigen import eigenmap
from .oracle import min_ratio_cut_bruteforce
from .perturb import GAP_EXACT_MAX_N, gap_exact, gap_lower_bound, gap_upper_bound_unweighted, theoretical_bound
from .rounding import spectral_cluster

SCHEMA_VERSION = 1


def _parse_sizes(text: str) -> list[int]:
    if text == "":
        raise InputError("--sizes is empty")
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"--sizes expects comma-separated integers, got {text!r}") from None


# each gen family's generator and the flags it takes, in argument order; the
# flags of the other families are refused, not ignored
_GEN_FAMILIES = {
    "example-blocks": (gen_example_blocks, ("n", "c")),
    "unbalanced": (gen_unbalanced_example, ()),
    "planted": (gen_planted_blocks, ("sizes", "intra", "cross")),
}


def cmd_gen(args) -> int:
    generate, flags = _GEN_FAMILIES[args.family]
    refused = [f"--{flag}" for _, others in _GEN_FAMILIES.values() for flag in others
               if flag not in flags and getattr(args, flag) is not None]
    if refused:
        raise InputError(f"gen {args.family} does not take {', '.join(refused)}")
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        names = [f"--{flag}" for flag in flags]
        raise InputError(f"gen {args.family} requires {', '.join(names[:-1])} and {names[-1]}")
    g, p = generate(*(_parse_sizes(v) if flag == "sizes" else v for flag, v in zip(flags, values)))
    fileio.write_edge_list(args.output, g)
    fileio.write_partition(args.partition, p)
    print(f"wrote {g.n} vertices to {args.output}, planted labels to {args.partition}")
    return 0


def cmd_cluster(args) -> int:
    if args.method == "fiedler" and (args.seed is not None or args.restarts is not None):
        raise InputError("--seed and --restarts apply to --method kmeans only")
    g = fileio.read_edge_list(args.input)
    result = spectral_cluster(g, args.k, method=args.method, seed=args.seed, restarts=args.restarts)
    fileio.write_partition(args.partition, result.partition)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "method": args.method,
        "k": args.k,
        "seed": (0 if args.seed is None else args.seed) if args.method == "kmeans" else None,
        "objective": result.objective,
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
        "ratio_cut": ratio_cut(g, result.partition),
    }
    fileio.write_json(args.output, payload)
    print(f"clustered {g.n} vertices into {args.k} blocks, ratio cut {payload['ratio_cut']:.6g}")
    return 0


def cmd_certify(args) -> int:
    g = fileio.read_edge_list(args.input)
    p = fileio.read_partition(args.partition)
    cert = certificate(g, p)
    payload = {"schema_version": SCHEMA_VERSION, **cert.to_dict()}
    fileio.write_json(args.output, payload)
    verdict = "passes (strict)" if cert.strict else ("passes" if cert.passes else "fails")
    print(f"certificate {verdict}: max boundary {cert.max_d_delta:.6g}, min connectivity {cert.min_lambda2:.6g}")
    return 0


def cmd_bound(args) -> int:
    g = fileio.read_edge_list(args.input)
    p = fileio.read_partition(args.partition)
    report = theoretical_bound(g, p)
    payload = {"schema_version": SCHEMA_VERSION, **report.to_dict()}
    fileio.write_json(args.output, payload)
    if report.precondition_ok:
        print(f"precondition holds: measured {report.measured:.6g} vs bound {report.bound:.6g}")
    else:
        print(f"precondition fails (r = {report.r:.6g}); measured {report.measured:.6g}")
    return 0


def cmd_gap(args) -> int:
    g = fileio.read_edge_list(args.input)
    payload: dict = {"schema_version": SCHEMA_VERSION}
    try:
        payload["lower"] = gap_lower_bound(g)
    except InputError:
        pass
    if g.n <= GAP_EXACT_MAX_N:
        payload["exact"] = gap_exact(g)
    try:
        payload["upper"] = gap_upper_bound_unweighted(g)
    except InputError:
        pass
    fileio.write_json(args.output, payload)
    parts = ", ".join(f"{key} {payload[key]:.6g}" for key in ("lower", "exact", "upper") if key in payload)
    print(f"gap estimates: {parts}")
    return 0


def cmd_oracle(args) -> int:
    g = fileio.read_edge_list(args.input)
    result = min_ratio_cut_bruteforce(g, args.k)
    payload = {"schema_version": SCHEMA_VERSION, **result.to_dict()}
    fileio.write_json(args.output, payload)
    label = "unique minimum" if result.unique else "minimum (ties exist)"
    print(f"{label} ratio cut {result.value:.6g} over {result.partitions_examined} partitions")
    return 0


def cmd_eigenmap(args) -> int:
    g = fileio.read_edge_list(args.input)
    emb = eigenmap(g, args.k)
    fileio.write_embedding(args.output, emb.U)
    print(f"wrote {emb.n}x{emb.k} embedding to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ratiocut", description="spectral clustering with optimality certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark graph and its planted partition")
    p_gen.add_argument("family", choices=["example-blocks", "unbalanced", "planted"])
    p_gen.add_argument("--n", type=int, help="block size parameter for example-blocks")
    p_gen.add_argument("--c", type=float, help="cross weight parameter for example-blocks")
    p_gen.add_argument("--sizes", help="comma-separated block sizes for planted")
    p_gen.add_argument("--intra", type=float, help="intra-block edge weight for planted")
    p_gen.add_argument("--cross", type=float, help="cross-block edge weight for planted")
    p_gen.add_argument("--output", required=True, help="edge-list file to write")
    p_gen.add_argument("--partition", required=True, help="planted partition file to write")

    p_cluster = sub.add_parser("cluster", help="spectral clustering: eigenmap plus rounding")
    p_cluster.add_argument("--input", required=True, help="edge-list file to read")
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument("--method", choices=["fiedler", "kmeans"], default="kmeans")
    p_cluster.add_argument("--seed", type=int, help="k-means restart seed (kmeans only, default 0)")
    p_cluster.add_argument("--restarts", type=int, help="k-means restarts (kmeans only, default 10)")
    p_cluster.add_argument("--partition", required=True, help="partition file to write")
    p_cluster.add_argument("--output", required=True, help="summary JSON to write")

    p_certify = sub.add_parser("certify", help="test a partition for certified ratio cut optimality")
    p_certify.add_argument("--input", required=True)
    p_certify.add_argument("--partition", required=True, help="partition file to read")
    p_certify.add_argument("--output", required=True, help="certificate JSON to write")

    p_bound = sub.add_parser("bound", help="evaluate the eigenmap perturbation bound")
    p_bound.add_argument("--input", required=True)
    p_bound.add_argument("--partition", required=True, help="partition file to read")
    p_bound.add_argument("--output", required=True, help="report JSON to write")

    p_gap = sub.add_parser("gap", help="l-infinity eigengap estimates")
    p_gap.add_argument("--input", required=True)
    p_gap.add_argument("--output", required=True, help="JSON to write")

    p_oracle = sub.add_parser("oracle", help="exact minimum ratio cut by enumeration (small n)")
    p_oracle.add_argument("--input", required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--output", required=True, help="JSON to write")

    p_eig = sub.add_parser("eigenmap", help="dump embedding coordinates as TSV")
    p_eig.add_argument("--input", required=True)
    p_eig.add_argument("--k", type=int, required=True)
    p_eig.add_argument("--output", required=True, help="TSV to write")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound cmd_* (a test double, a tracing
    # wrapper) takes effect although the parser outlives it
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    sys.exit(main())
