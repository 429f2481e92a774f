"""Rounding an eigenmap embedding into an actual vertex partition.

Two routes: Fiedler bisection for k = 2 (scan the n-1 prefix splits of the
second eigenvector's vertex ordering and keep the cheapest), and Lloyd
k-means on embedding rows for general k. Also houses the geometric recovery
checkers: the pairwise bisecting-hyperplane proximity condition and the
ball-margin lower bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eigen import eigenmap, fiedler
from .errors import DisconnectedGraphWarning, InputError, SolverError
from .graphs import Partition, WeightedGraph, check_int, finite_array, is_connected, ratio_cut, ratio_cut_rel
from .tolerances import DEFAULT as TOL

MAX_LLOYD_ITERATIONS = 200
LLOYD_BATCH_CELLS = 2**20


@dataclass(frozen=True)
class RoundingResult:
    """A rounded partition with its objective.

    ``objective`` is the ratio cut for the bisection route and the k-means
    cost for the Lloyd route. ``restarts_used`` counts initializations
    tried (always 1 for bisection).
    """

    partition: Partition
    objective: float
    iterations: int
    restarts_used: int


def fiedler_bisect(g: WeightedGraph) -> RoundingResult:
    """Best of the n-1 prefix bisections along the Fiedler ordering.

    Vertices are sorted by their second-eigenvector entry (ties broken by
    vertex index); each split's cut is a sum of nonnegative weights, and the
    earliest split whose ratio cut is within ``graphs.ratio_cut_rel(n)`` of
    the smallest wins, the one tie rule for ratio cuts.
    """
    n = g.n
    if n < 2:
        raise InputError("bisection needs at least 2 vertices")
    if not is_connected(g):
        warnings.warn(
            "graph is disconnected; the second eigenvector may mix components",
            DisconnectedGraphWarning,
        )
    order = np.argsort(fiedler(g), kind="stable")
    w = g.weights[np.ix_(order, order)]
    # beyond[v, t - 1] is the weight from v to sorted positions t..n-1, so the
    # cut of the first t vertices sums column t - 1 over their rows
    beyond = np.cumsum(w[:, :0:-1], axis=1)[:, ::-1]
    cuts = np.cumsum(beyond, axis=0).diagonal()
    t = np.arange(1, n)
    scores = cuts / t + cuts / (n - t)
    best_t = 1 + int(np.argmax(scores <= scores.min() * (1.0 + ratio_cut_rel(n))))

    labels = np.empty(n, dtype=int)
    labels[order[:best_t]] = 0
    labels[order[best_t:]] = 1
    p = Partition(Partition(labels, 2).canonical_labels(), 2)
    return RoundingResult(
        partition=p, objective=ratio_cut(g, p), iterations=n - 1, restarts_used=1
    )


def _farthest_first(points: np.ndarray, k: int) -> np.ndarray:
    """Deterministic seeding: start at the max-norm point, then repeatedly
    take the point farthest from the chosen set (lowest index on ties)."""
    chosen = [int(np.argmax(np.linalg.norm(points, axis=1)))]
    dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations for every restart at once, from centroids of shape (r, k, d).

    Each pass assigns, checks the cost and moves the centroids of all
    restarts still running; a restart stops once its assignment is stable or
    the iteration cap is hit. Returns labels (r, n), costs (r,) and
    iterations (r,). Each restart's arithmetic is that of running it alone:
    ``argmin`` of ``((x - c) ** 2).sum()``, which ``_sq_dists`` sums along
    the coordinate axis as that sum does, and centroids from the product of
    its (k, n) membership indicators with the points over the member counts.
    """
    n = points.shape[0]
    r, k, _ = centroids.shape
    clusters = np.arange(k)[:, None]
    out_labels = np.empty((r, n), dtype=np.intp)
    out_centroids = np.empty_like(centroids)
    iterations = np.full(r, MAX_LLOYD_ITERATIONS)
    active = np.arange(r)
    labels = np.full((r, n), -1)
    prev = np.full(r, math.inf)
    failure = None
    for it in range(MAX_LLOYD_ITERATIONS):
        d2 = _sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)
        dist = np.minimum.reduce(d2, axis=1)  # the argmin's entry, NaN where it is NaN
        cost = dist.sum(axis=1)
        ok = cost <= prev + TOL.inequality_slack  # a NaN cost fails too
        if not ok.all():
            # the result is this error unless an earlier restart fails later,
            # so the restarts after it are dropped
            f = int(np.argmin(ok))
            failure = SolverError(
                f"k-means cost went from {float(prev[f]):.12g} to {float(cost[f]):.12g}; "
                "a Lloyd step cannot raise it"
            )
            if f == 0:
                break
            active, centroids, labels, new_labels, dist, cost = (
                x[:f] for x in (active, centroids, labels, new_labels, dist, cost))
        prev = cost
        members = (new_labels[:, None, :] == clusters).astype(float)
        empty = ~members.any(axis=2)
        if empty.any():
            for i in np.flatnonzero(empty.any(axis=1)):
                _reseed_empty(points, centroids[i], new_labels[i], dist[i], np.flatnonzero(empty[i]))
            members = (new_labels[:, None, :] == clusters).astype(float)
        stable = (new_labels == labels).all(axis=1)
        if stable.any():
            done = active[stable]
            out_labels[done] = new_labels[stable]
            out_centroids[done] = centroids[stable]
            iterations[done] = it
            keep = ~stable
            active, centroids, new_labels, members, prev = (
                x[keep] for x in (active, centroids, new_labels, members, prev))
            if active.size == 0:
                break
        labels = new_labels
        centroids = members @ points / members.sum(axis=2, keepdims=True)
    else:
        out_labels[active] = labels
        out_centroids[active] = centroids
    if failure is not None:
        raise failure
    d2 = _sq_dists(points, out_centroids)
    costs = np.take_along_axis(d2, out_labels[:, None, :], axis=1)[:, 0, :].sum(axis=1)
    return out_labels, costs, iterations


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances of every point to every centroid of every restart,
    shape (r, k, n), each summed over its coordinates as for one point."""
    return np.square(points[:, None, :] - centroids[:, None]).sum(axis=-1).transpose(0, 2, 1)


def _reseed_empty(points, centroids, labels, dist, empty) -> None:
    """Re-seed each empty cluster at the point farthest from its centroid
    among clusters that keep another member; the moved point becomes a
    singleton, so it is never picked twice and no donor is emptied."""
    k = centroids.shape[0]
    for j in empty:
        counts = np.bincount(labels, minlength=k)
        far = int(np.argmax(np.where(counts[labels] >= 2, dist, -1.0)))
        centroids[j] = points[far]
        labels[far] = j


def kmeans_round(points, k: int, seed: int = 0, restarts: int = 10) -> RoundingResult:
    """Lloyd k-means over the given points, best of several initializations.

    Restart 0 uses the deterministic farthest-first seeding; the rest draw
    k distinct points with a seeded generator. All restarts advance together
    in one batched Lloyd pass, with the same results as running them one
    after another. The first restart within ``inequality_slack`` times the
    one-cluster cost ``sum ||x - mean||^2`` of the lowest cost wins, a band
    that does not change under translation and scales with the costs;
    ``iterations`` is the winner's Lloyd iteration count.
    """
    points = finite_array("points", points, 2)
    n, d = points.shape
    if d < 1:
        raise InputError(f"points must be an n-by-d matrix with d >= 1, got shape {points.shape}")
    check_int("k", k, 1, n)
    check_int("seed", seed, 0)
    check_int("restarts", restarts, 1)

    def start(t: int) -> np.ndarray:
        if t == 0:
            return _farthest_first(points, k)
        return points[np.random.default_rng([seed, t]).choice(n, size=k, replace=False)]

    # restarts go in groups whose distance arrays stay near LLOYD_BATCH_CELLS, each
    # group's starts drawn when it runs: an error is raised before any later draw
    group = max(1, LLOYD_BATCH_CELLS // (k * d) // n)
    runs = [_lloyd(points, np.stack([start(t) for t in range(lo, min(lo + group, restarts))]))
            for lo in range(0, restarts, group)]
    labels, costs, iterations = (np.concatenate(parts) for parts in zip(*runs))
    band = TOL.inequality_slack * float(np.square(points - points.mean(axis=0)).sum())
    best = int(np.argmax(costs <= costs.min() + band))
    p = Partition(Partition(labels[best], k).canonical_labels(), k)
    return RoundingResult(
        partition=p, objective=float(costs[best]), iterations=int(iterations[best]), restarts_used=restarts
    )


def spectral_cluster(
    g: WeightedGraph, k: int, method: str = "kmeans", seed: int | None = None, restarts: int | None = None
) -> RoundingResult:
    """Embed with the k-dimensional eigenmap, then round to a partition.

    ``method`` is "fiedler" (k = 2 only; objective is the ratio cut) or
    "kmeans" (objective is the k-means cost of the embedding rows).
    ``seed`` and ``restarts`` apply to "kmeans" only, where they default to
    0 and 10; "fiedler" raises InputError when either is given.
    """
    check_int("k", k, 1, g.n)
    if method == "fiedler":
        if seed is not None or restarts is not None:
            raise InputError("seed and restarts apply to method 'kmeans' only")
        if k != 2:
            raise InputError("fiedler bisection is defined only for k = 2")
        return fiedler_bisect(g)
    if method == "kmeans":
        emb = eigenmap(g, k)
        return kmeans_round(emb.U, k, seed=0 if seed is None else seed,
                            restarts=10 if restarts is None else restarts)
    raise InputError(f"unknown method {method!r}, expected 'fiedler' or 'kmeans'")


@dataclass(frozen=True)
class ProximityReport:
    """Pairwise bisecting-hyperplane separation check for a clustering.

    For each block pair (i, j): ``separated`` says both blocks lie strictly
    on their own side of the bisecting hyperplane of the centroids, ``xi``
    is the smallest point-to-hyperplane distance among the two blocks, and
    ``rhs`` is the spread-based threshold the margin must exceed. ``holds``
    requires every pair to be separated with xi > rhs and no degenerate
    (coincident-centroid) pairs. The diagonal of the pair matrices is not
    meaningful. ``spectral_sq_sum``/``frobenius_sq_sum`` expose the two
    spread aggregates (spectral is the one used; it never exceeds the
    Frobenius variant).
    """

    separated: np.ndarray
    xi: np.ndarray
    rhs: np.ndarray
    holds: bool
    degenerate_pairs: list = field(default_factory=list)
    spectral_sq_sum: float = 0.0
    frobenius_sq_sum: float = 0.0


def proximity_check(points, p: Partition) -> ProximityReport:
    """Evaluate the pairwise margin condition xi_{i,j} > rhs_{i,j}.

    The threshold is rhs = (1/2) sqrt(total squared spectral spread times
    (1/n_i + 1/n_j)), with the spread summed over all blocks.
    """
    points = finite_array("points", points, 2)
    if points.shape[0] != len(p.labels):
        raise InputError("points must be an n-by-d matrix matching the partition")
    k = p.k
    blocks = p.blocks()
    sizes = p.sizes().astype(float)
    centroids = np.vstack([points[b].mean(axis=0) for b in blocks])

    spectral_sq = 0.0
    frob_sq = 0.0
    for j, b in enumerate(blocks):
        centered = points[b] - centroids[j]
        if min(centered.shape) > 0:
            spectral_sq += float(np.linalg.norm(centered, 2)) ** 2
            frob_sq += float((centered**2).sum())

    separated = np.zeros((k, k), dtype=bool)
    xi = np.zeros((k, k))
    rhs = np.zeros((k, k))
    degenerate = []
    holds = True
    for i in range(k):
        for j in range(i + 1, k):
            rhs_ij = 0.5 * math.sqrt(spectral_sq * (1.0 / sizes[i] + 1.0 / sizes[j]))
            rhs[i, j] = rhs[j, i] = rhs_ij
            gap_dir = centroids[j] - centroids[i]
            norm = float(np.linalg.norm(gap_dir))
            if norm < TOL.coincident_points:
                degenerate.append((i, j))
                holds = False
                continue
            normal = gap_dir / norm
            mid = 0.5 * (centroids[i] + centroids[j])
            side_i = (points[blocks[i]] - mid) @ normal
            side_j = (points[blocks[j]] - mid) @ normal
            sep = bool(np.all(side_i < 0.0) and np.all(side_j > 0.0))
            margin = float(min(np.abs(side_i).min(), np.abs(side_j).min()))
            separated[i, j] = separated[j, i] = sep
            xi[i, j] = xi[j, i] = margin
            if not (sep and margin > rhs_ij):
                holds = False

    return ProximityReport(
        separated=separated,
        xi=xi,
        rhs=rhs,
        holds=holds,
        degenerate_pairs=degenerate,
        spectral_sq_sum=spectral_sq,
        frobenius_sq_sum=frob_sq,
    )


def hyperplane_margin_bound(c1, c2, radius: float, x, y) -> tuple[float, float]:
    """Distance from the bisector of (x, y) to two balls, with its lower bound.

    ``x`` and ``y`` must lie within ``radius`` of the centers ``c1`` and
    ``c2``, up to ``inequality_slack`` times the largest of the radius and
    the norms of the center and the point, a rule that does not change
    under power-of-two scaling. Returns (margin, bound) where margin is the
    exact distance from the bisecting hyperplane of x and y to the union of
    the two balls and bound is half the center distance minus three radii;
    the geometric lemma says margin >= bound.
    """
    c1, c2, x, y = (finite_array(name, v, 1) for name, v in (("c1", c1), ("c2", c2), ("x", x), ("y", y)))
    if not c1.shape == c2.shape == x.shape == y.shape:
        raise InputError("c1, c2, x and y must have the same length")
    if not radius >= 0:
        raise InputError("radius must be nonnegative")
    for point, center, outside in ((x, c1, "x lies outside the first ball"),
                                   (y, c2, "y lies outside the second ball")):
        scale = max(radius, float(np.linalg.norm(center)), float(np.linalg.norm(point)))
        if np.linalg.norm(point - center) > radius + TOL.inequality_slack * scale:
            raise InputError(outside)
    diff = y - x
    norm = float(np.linalg.norm(diff))
    if norm < TOL.coincident_points:
        raise InputError("x and y coincide; the bisecting hyperplane is undefined")
    normal = diff / norm
    mid = 0.5 * (x + y)
    margin = min(
        max(abs(float((c1 - mid) @ normal)) - radius, 0.0),
        max(abs(float((c2 - mid) @ normal)) - radius, 0.0),
    )
    bound = 0.5 * float(np.linalg.norm(c1 - c2)) - 3.0 * radius
    return margin, bound


def recovery_diagnostics(measured: float, n: int) -> dict:
    """Compare a measured two-to-infinity error against the C/sqrt(n)
    recovery thresholds reported for two rounding analyses (C = 1 for the
    bisector route, C = 1/5 for the pairwise-margin route). Diagnostic
    only; neither threshold gates any clustering output here."""
    check_int("n", n, 1)
    t_bisector = 1.0 / math.sqrt(n)
    t_proximity = 0.2 / math.sqrt(n)
    return {
        "measured": measured,
        "threshold_bisector": t_bisector,
        "below_bisector": measured < t_bisector,
        "threshold_proximity": t_proximity,
        "below_proximity": measured < t_proximity,
    }
