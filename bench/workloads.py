"""Seeded instances, CLI steps and independent output checks per workload.

Every instance is generated here from the workload seed with numpy; the
library only ever sees the edge-list and partition files written for it.
Each check recomputes a claim of the CLI output through a route that does
not touch the library: ``np.linalg.eigvalsh`` for spectra, a direct sum for
ratio cuts and a recurrence for Stirling numbers.

An instance's sizes and noise level come from a fixed schedule, so every
seed exercises the same mix of sizes; the seed draws the edges, weights,
block sizes and vertex orders. That keeps the amount of work in a round
nearly independent of the seed, which the run-to-run spread depends on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pipeline", "gap-exact", "oracle-small")

# Noise levels, as the certificate ratio r = max boundary degree / min block
# connectivity that the generator hits exactly. "tiny" is a quarter of the
# perturbation-bound threshold 1 / (16 (1 + c) ln n), so the bound is
# evaluated; the others withhold it. r < 1/2 passes the certificate strictly,
# so "low" and "near" pass it and "high" and "over" fail it.
NOISE = {"low": 0.2, "near": 0.45, "high": 0.8, "over": 1.5}

# (n, k, noise) per pipeline instance. The pure-numpy eigensolver costs
# ~1.2 s per instance at n = 60 and ~12 s at n = 160, and an instance's cost
# depends on k and the noise level too, so a round holds sixteen n = 60
# instances (k and noise cycling) for a steady median and tail, plus one at
# n = 160 for the large full-Laplacian solves. A round takes about 32 s; the
# rounds of all three workloads are kept to 18-32 s, so that a run stays
# within about 55 s even on a host 1.5x slower than usual.
PIPELINE = {
    "full": [(60, 2 + i % 4, ("tiny", "low", "near", "high", "over")[i % 5]) for i in range(16)]
    + [(160, 5, "low")],
    "tiny": [(12, 2, "tiny"), (15, 3, "low"), (16, 2, "high")],
}

# ("random", n) is the weighted random family of the exact-gap defect report
# in ROADMAP.md; "path", "cycle" and "grid" are unweighted, so the CLI
# also evaluates the 4 max_degree / diameter upper bound on them. The LP
# cost of one instance varies by 10-30% between draws, and by more at larger
# n, so a round holds many instances of n <= 32 for a steady total; n = 36 to
# 40 (5 s each, +-30%) would dominate the round and its spread.
GAP = {
    "full": [("random", 16)] * 8 + [("random", 20)] * 6 + [("random", 24)] * 4
    + [("random", 28)] * 2 + [("random", 32)]
    + [("path", 16), ("path", 20), ("path", 24), ("cycle", 16), ("cycle", 20), ("cycle", 24),
       ("grid", (4, 4)), ("grid", (4, 5)), ("grid", (5, 5)), ("grid", (4, 6))] * 2,
    "tiny": [("random", 8), ("path", 7), ("cycle", 8), ("grid", (3, 3))],
}

# (n, k, noise) per oracle instance: S(n, k) runs from 511 to 86,526
# partitions. The k = 3 instances carry the work; five cheap k = 2 ones put
# the median in the middle of the fourteen n = 10, k = 3 instances, so that
# it is taken over many instances spread through the run.
ORACLE = {
    "full": [(n, k, ("low", "near", "high", "over")[i % 4]) for i, (n, k) in enumerate(
        [(10, 2)] * 2 + [(11, 2)] * 2 + [(12, 2)] + [(10, 3)] * 14 + [(11, 3)] * 4 + [(12, 3)])],
    "tiny": [(6, 2, "low"), (7, 2, "over"), (9, 3, "near")],
}


def spread(schedule: list, key) -> list:
    """Order a schedule so that each class of instances (by ``key``) is spread
    evenly over the round.

    A shared machine's speed can drift over seconds; a class run back to
    back would be timed in one short window, and the latency percentiles,
    which fall in one class, would move with that window.
    """
    classes: dict = {}
    for item in schedule:
        classes.setdefault(key(item), []).append(item)
    slots = [((j + 0.5) / len(items), c, j)
             for c, items in enumerate(classes.values()) for j in range(len(items))]
    members = list(classes.values())
    return [members[c][j] for _, c, j in sorted(slots)]


@dataclass
class Instance:
    """One generated input: the graph, its planted labels (if any) and k."""

    name: str
    weights: np.ndarray
    labels: np.ndarray | None
    k: int

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def laplacian(w: np.ndarray) -> np.ndarray:
    return np.diag(w.sum(axis=1)) - w


def lambda2(w: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(laplacian(w))[1])


def ratio_cut(w: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for j in np.unique(labels):
        inside = labels == j
        total += w[inside][:, ~inside].sum() / inside.sum()
    return float(total)


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def _block_sizes(rng, n: int, k: int) -> np.ndarray:
    """Split n into k blocks of at least 3, the rest shared with seeded jitter of about 20%."""
    share = rng.uniform(0.8, 1.2, size=k)
    sizes = 3 + np.floor((n - 3 * k) * share / share.sum()).astype(int)
    sizes[np.argmax(share)] += n - sizes.sum()
    return sizes


def block_graph(rng, n: int, k: int, noise: str, p_in: float) -> tuple[np.ndarray, np.ndarray]:
    """Random weighted blocks plus cross edges scaled to a target certificate ratio.

    Each block is a G(size, p_in) graph with weights in [0.5, 1.5] over a
    path that keeps it connected. Cross edges (density 0.1, at least one)
    are scaled so that max boundary degree / min block lambda2 is exactly
    the noise level's r.
    """
    sizes = _block_sizes(rng, n, k)
    labels = np.repeat(np.arange(k), sizes)
    rng.shuffle(labels)
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    draw = rng.uniform(0.5, 1.5, (n, n))
    w = np.where(same & upper & (rng.random((n, n)) < p_in), draw, 0.0)
    for j in range(k):
        members = np.flatnonzero(labels == j)
        for a, b in zip(members[:-1], members[1:]):
            w[a, b] = max(w[a, b], 0.5)
    cross = ~same & upper & (rng.random((n, n)) < 0.1)
    if not cross.any():
        i, j = np.argwhere(~same & upper)[rng.integers(np.count_nonzero(~same & upper))]
        cross[i, j] = True
    c = np.where(cross, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    w = w + w.T
    c = c + c.T
    min_l2 = min(lambda2(w[np.ix_(labels == j, labels == j)]) for j in range(k))
    if noise == "tiny":
        r = 0.25 / (16.0 * (1.0 + n / sizes.min()) * math.log(n))
    else:
        r = NOISE[noise]
    c *= r * min_l2 / c.sum(axis=1).max()
    return w + c, labels


def random_weighted(rng, n: int) -> np.ndarray:
    """The weighted family of the exact-gap defect report (density 0.2 over a path)."""
    a = (rng.random((n, n)) < 0.2) * rng.uniform(0.2, 2.0, (n, n))
    a = np.triu(a, 1)
    a = a + a.T
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = max(a[i, i + 1], 1.0)
    return a


def unweighted(rng, family: str, size) -> np.ndarray:
    """A path, cycle or grid with its vertices relabeled by a seeded permutation."""
    if family == "grid":
        rows, cols = size
        n = rows * cols
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    else:
        n = size
        edges = [(i, i + 1) for i in range(n - 1)]
        if family == "cycle":
            edges.append((n - 1, 0))
    perm = rng.permutation(n)
    a = np.zeros((n, n))
    for i, j in edges:
        a[perm[i], perm[j]] = a[perm[j], perm[i]] = 1.0
    return a


def generate(workload: str, scale: str, seed: int, round_no: int) -> list[Instance]:
    """The instances of one round; round r > 0 draws fresh graphs of the same mix."""
    rng = np.random.default_rng([seed, round_no, WORKLOADS.index(workload)])
    out = []
    if workload == "gap-exact":
        for i, (family, size) in enumerate(spread(GAP[scale], key=tuple)):
            if family == "random":
                w = random_weighted(rng, size)
            else:
                w = unweighted(rng, family, size)
            tag = "x".join(map(str, size)) if isinstance(size, tuple) else str(size)
            out.append(Instance(f"r{round_no}-{i:02d}-{family}{tag}", w, None, 0))
        return out
    schedule = PIPELINE[scale] if workload == "pipeline" else ORACLE[scale]
    p_in = 0.5 if workload == "pipeline" else 0.8
    for i, (n, k, noise) in enumerate(spread(schedule, key=lambda item: item[:2])):
        w, labels = block_graph(rng, n, k, noise, p_in)
        out.append(Instance(f"r{round_no}-{i:02d}-n{n}-k{k}-{noise}", w, labels, k))
    return out


# ---------------------------------------------------------------------------
# CLI steps: (step name, argv). File names are relative to the instance dir,
# which holds the input files and the outputs of the instance's steps.

GRAPH = "g.tsv"
PLANTED = "planted.txt"
INPUTS = (GRAPH, PLANTED)


def steps(workload: str, inst: Instance, d: str) -> list[tuple[str, list[str]]]:
    g = f"{d}/{GRAPH}"
    if workload == "gap-exact":
        return [("gap", ["gap", "--input", g, "--output", f"{d}/gap.json"])]
    certify = ("certify", ["certify", "--input", g, "--partition", f"{d}/{PLANTED}",
                           "--output", f"{d}/cert.json"])
    if workload == "oracle-small":
        return [certify, ("oracle", ["oracle", "--input", g, "--k", str(inst.k),
                                     "--output", f"{d}/oracle.json"])]
    k = str(inst.k)
    return [
        ("cluster", ["cluster", "--input", g, "--k", k, "--partition", f"{d}/found.txt",
                     "--output", f"{d}/cluster.json"]),
        certify,
        ("bound", ["bound", "--input", g, "--partition", f"{d}/{PLANTED}",
                   "--output", f"{d}/bound.json"]),
        ("eigenmap", ["eigenmap", "--input", g, "--k", k, "--output", f"{d}/emb.tsv"]),
    ]


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of violations (empty when the output is
# correct) and may read outputs of earlier steps of the same instance.

REL = 1e-8  # outputs carry 12 significant digits; eigensolves converge to ~1e-12


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(b), scale)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _labels(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array(fh.read().split(), dtype=int)


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal up to relabeling: the label pairs form a bijection."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def check_cluster(inst: Instance, d: str) -> list[str]:
    found = _labels(f"{d}/found.txt")
    if found.shape != (inst.n,) or len(np.unique(found)) != inst.k:
        return [f"cluster wrote {len(np.unique(found))} blocks over {found.size} labels"]
    rc = _load(f"{d}/cluster.json")["ratio_cut"]
    if not _close(rc, ratio_cut(inst.weights, found)):
        return [f"cluster ratio_cut {rc} != recomputed {ratio_cut(inst.weights, found)}"]
    return []


def check_certify(inst: Instance, d: str) -> list[str]:
    cert = _load(f"{d}/cert.json")
    bad = []
    for j, got in enumerate(cert["lambda2s"]):
        members = inst.labels == j
        want = lambda2(inst.weights[np.ix_(members, members)])
        if not _close(got, want):
            bad.append(f"certificate lambda2s[{j}] = {got}, eigvalsh gives {want}")
    try:
        found = _labels(f"{d}/found.txt")  # pipeline only: written by cluster
    except FileNotFoundError:
        return bad
    planted_rc = ratio_cut(inst.weights, inst.labels)
    found_rc = ratio_cut(inst.weights, found)
    if cert["passes"] and found_rc < planted_rc - REL * max(1.0, planted_rc):
        bad.append(f"certificate passes but found ratio cut {found_rc} < planted {planted_rc}")
    return bad


def check_bound(inst: Instance, d: str) -> list[str]:
    rep = _load(f"{d}/bound.json")
    if rep["precondition_ok"] and not rep["measured"] <= rep["bound"]:
        return [f"precondition holds but measured {rep['measured']} > bound {rep['bound']}"]
    if rep["precondition_ok"] != (rep["bound"] is not None):
        return ["bound must be reported exactly when the precondition holds"]
    return []


def check_eigenmap(inst: Instance, d: str) -> list[str]:
    u = np.loadtxt(f"{d}/emb.tsv", delimiter="\t", ndmin=2)
    if u.shape != (inst.n, inst.k):
        return [f"eigenmap shape {u.shape}, expected {(inst.n, inst.k)}"]
    lap = laplacian(inst.weights)
    values = np.linalg.eigvalsh(lap)[: inst.k]
    bad = []
    ortho = np.abs(u.T @ u - np.eye(inst.k)).max()
    if ortho > 1e-8:
        bad.append(f"eigenmap columns not orthonormal: max |U'U - I| = {ortho:.3g}")
    resid = np.abs(lap @ u - u * values).max()
    if resid > 1e-8 * max(1.0, abs(values).max(), np.abs(lap).max()):
        bad.append(f"eigenmap residual max |LU - U diag(eigvalsh)| = {resid:.3g}")
    return bad


def check_gap(inst: Instance, d: str) -> list[str]:
    out = _load(f"{d}/gap.json")
    lam2 = lambda2(inst.weights)
    exact = out.get("exact")
    if exact is None or "lower" not in out:
        return [f"gap output lacks lower or exact: keys {sorted(out)}"]
    bad = []
    slack = REL * max(1.0, lam2)
    if not out["lower"] - slack <= exact <= lam2 + slack:
        bad.append(f"gap not sandwiched: lower {out['lower']} <= exact {exact} <= lambda2 {lam2}")
    if np.all((inst.weights == 0.0) | (inst.weights == 1.0)):
        if "upper" not in out:
            bad.append("unweighted graph but no upper bound reported")
        elif exact > out["upper"] + slack:
            bad.append(f"exact {exact} exceeds the unweighted upper bound {out['upper']}")
    return bad


def check_oracle(inst: Instance, d: str) -> list[str]:
    out = _load(f"{d}/oracle.json")
    bad = []
    want = stirling2(inst.n, inst.k)
    if out["partitions_examined"] != want:
        bad.append(f"oracle examined {out['partitions_examined']} partitions, S(n, k) = {want}")
    best = np.array(out["best"], dtype=int)
    value = ratio_cut(inst.weights, best)
    if not _close(out["value"], value):
        bad.append(f"oracle value {out['value']} != recomputed ratio cut {value}")
    try:
        cert = _load(f"{d}/cert.json")
    except FileNotFoundError:  # certify failed; that failure is counted on its own
        return bad
    if cert["strict"] and not (out["unique"] and _same_partition(best, inst.labels)):
        bad.append("strict certificate but the oracle optimum is not the unique planted partition")
    return bad


CHECKS = {
    "cluster": check_cluster,
    "certify": check_certify,
    "bound": check_bound,
    "eigenmap": check_eigenmap,
    "gap": check_gap,
    "oracle": check_oracle,
}
