import math

import numpy as np
import pytest

import ratiocut as rc
from ratiocut.errors import DisconnectedGraphWarning, InputError, SolverError
from ratiocut.rounding import MAX_LLOYD_ITERATIONS, _farthest_first, _lloyd, _sq_dists
from ratiocut.tolerances import DEFAULT as TOL


def complete_graph(n, weight=1.0):
    return rc.WeightedGraph(weight * (1.0 - np.eye(n)))


def two_disjoint_pairs():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return rc.WeightedGraph(w)


# ---------------------------------------------------------------- bisection


def test_fiedler_bisect_k2_edge():
    g = complete_graph(2)
    out = rc.fiedler_bisect(g)
    assert out.objective == pytest.approx(2.0, abs=1e-9)  # cut 1, sizes 1 and 1
    assert out.partition.k == 2


def test_fiedler_bisect_disjoint_pairs():
    with pytest.warns(DisconnectedGraphWarning):
        out = rc.fiedler_bisect(two_disjoint_pairs())
    assert out.objective == pytest.approx(0.0, abs=1e-9)


def test_fiedler_bisect_example_blocks():
    g, p = rc.gen_example_blocks(1, 0.5)
    out = rc.fiedler_bisect(g)
    assert rc.same_partition(out.partition, p)
    assert out.objective == pytest.approx(1.0, abs=1e-9)
    assert out.iterations == g.n - 1


def test_fiedler_bisect_no_prefix_split_is_better():
    """Exhaustiveness: recompute every prefix split by brute force."""
    rng = np.random.default_rng(6)
    w = np.triu(rng.uniform(0.1, 1, (9, 9)) * (rng.random((9, 9)) < 0.7), 1)
    g = rc.WeightedGraph(w + w.T)
    if not rc.is_connected(g):
        pytest.skip("random draw came out disconnected")
    out = rc.fiedler_bisect(g)
    order = np.argsort(rc.fiedler(g), kind="stable")
    for t in range(1, g.n):
        labels = np.zeros(g.n, dtype=int)
        labels[order[t:]] = 1
        split = rc.Partition(labels, 2)
        assert out.objective <= rc.ratio_cut(g, split) + 1e-9


def test_fiedler_bisect_needs_two_vertices():
    with pytest.raises(InputError):
        rc.fiedler_bisect(rc.WeightedGraph(np.zeros((1, 1))))


# ------------------------------------------------------------------ k-means


def test_kmeans_exact_grouping_at_k_locations():
    rng = np.random.default_rng(12)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    labels_true = rng.integers(0, 3, 30)
    labels_true[:3] = [0, 1, 2]
    points = centers[labels_true]
    out = rc.kmeans_round(points, 3, seed=0, restarts=3)
    assert out.objective == pytest.approx(0.0, abs=1e-12)
    assert rc.same_partition(out.partition, rc.Partition(labels_true, 3))


def test_kmeans_on_indicator_rows():
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    out = rc.kmeans_round(rc.canonical_uiso(p), 2, seed=0)
    assert out.objective == pytest.approx(0.0, abs=1e-12)
    assert rc.same_partition(out.partition, p)


def test_kmeans_recovers_planted_from_eigenmap():
    g, p = rc.gen_planted_blocks([20, 30, 50], 1.0, 0.05)
    emb = rc.eigenmap(g, 3)
    out = rc.kmeans_round(emb.U, 3, seed=0)
    assert rc.same_partition(out.partition, p)


def test_kmeans_deterministic():
    rng = np.random.default_rng(77)
    points = rng.normal(size=(40, 3))
    a = rc.kmeans_round(points, 4, seed=9, restarts=5)
    b = rc.kmeans_round(points, 4, seed=9, restarts=5)
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.objective == b.objective
    assert a.restarts_used == 5


def test_kmeans_identical_points_still_valid():
    # degenerate input: every cluster must still be nonempty, up to k = n
    points = np.zeros((5, 2))
    for k in range(2, 6):
        out = rc.kmeans_round(points, k, seed=0, restarts=2)
        assert out.partition.k == k
        assert out.partition.sizes().min() >= 1
        assert out.objective == pytest.approx(0.0, abs=1e-12)


def test_lloyd_keeps_every_cluster_nonempty_on_duplicate_points():
    # few distinct points, so seeded centroids often coincide and several
    # clusters start empty at once; each must be re-seeded from a donor that
    # keeps a member, with no point handed to two clusters
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 12))
        points = rng.integers(0, 2, size=(n, 2)).astype(float)
        starts = np.stack([points[rng.choice(n, size=k, replace=False)] for _ in range(3)])
        all_labels, costs, _ = _lloyd(points, starts)
        for labels, cost in zip(all_labels, costs):
            assert np.bincount(labels, minlength=k).min() >= 1, (seed, labels)
            means = np.vstack([points[labels == j].mean(axis=0) for j in range(k)])
            assert cost == pytest.approx(((points - means[labels]) ** 2).sum(), abs=1e-12)


# The per-restart Lloyd loop that the batched pass replaced, kept as the
# reference: the batched pass must give its labels, objective, iterations
# and errors exactly.


def _reference_lloyd(points, centroids):
    n = points.shape[0]
    k = centroids.shape[0]
    labels = np.full(n, -1)
    prev_cost = math.inf
    iterations = 0
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        dist = d2[np.arange(n), new_labels]
        cost = float(dist.sum())
        if not cost <= prev_cost + TOL.inequality_slack:
            raise SolverError(
                f"k-means cost went from {prev_cost:.12g} to {cost:.12g}; a Lloyd step cannot raise it"
            )
        prev_cost = cost
        for j in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            counts = np.bincount(new_labels, minlength=k)
            far = int(np.argmax(np.where(counts[new_labels] >= 2, dist, -1.0)))
            centroids[j] = points[far]
            new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        members = (labels == np.arange(k)[:, None]).astype(float)
        centroids = members @ points / members.sum(axis=1, keepdims=True)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    cost = float(d2[np.arange(n), labels].sum())
    return labels, cost, iterations


def _reference_kmeans(points, k, seed, restarts):
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best = None
    for t in range(restarts):
        if t == 0:
            centroids = _farthest_first(points, k)
        else:
            rng = np.random.default_rng([seed, t])
            centroids = points[rng.choice(n, size=k, replace=False)].copy()
        labels, cost, iterations = _reference_lloyd(points, centroids.astype(float))
        if best is None or cost < best[1] - TOL.inequality_slack:
            best = (labels, cost, iterations)
    labels, cost, iterations = best
    return rc.Partition(labels, k).canonical_labels(), cost, iterations


def _outcome(run):
    try:
        return run()
    except SolverError as exc:
        return "SolverError", str(exc)


def _assert_matches_reference(points, k, seed, restarts=10):
    def batched():
        out = rc.kmeans_round(points, k, seed=seed, restarts=restarts)
        assert out.restarts_used == restarts
        return out.partition.labels.tolist(), out.objective, out.iterations

    def reference():
        labels, cost, iterations = _reference_kmeans(points, k, seed, restarts)
        return labels.tolist(), cost, iterations

    got, want = _outcome(batched), _outcome(reference)
    assert got == want, (k, seed, points.shape)
    return got


def _block_embedding(rng, n, k):
    sizes = rng.multinomial(n - 3 * k, np.ones(k) / k) + 3
    labels = np.repeat(np.arange(k), sizes)
    same = labels[:, None] == labels[None, :]
    w = np.where(same, rng.random((n, n)) < 0.6, rng.random((n, n)) < 0.08)
    w = np.triu(w * rng.uniform(0.1, 2.0, (n, n)), 1)
    return rc.eigenmap(rc.WeightedGraph(w + w.T), k).U


def test_batched_lloyd_matches_the_per_restart_loop():
    # k = 1..9 takes in d >= 8, whose squared distances numpy sums pairwise,
    # and one coordinate (d = 1), where the centroid product has a single
    # column; duplicate-heavy points leave clusters empty
    iterations = []
    for k in range(1, 10):
        for seed in range(5):
            rng = np.random.default_rng([k, seed])
            n = int(rng.integers(3 * k + 8, 70))
            kinds = [
                _block_embedding(rng, n, k),
                rng.normal(size=(n, k)),
                rng.normal(size=(n, 1)),
                rng.integers(0, 2, size=(max(k, 12), 3)).astype(float),
                rng.integers(0, 3, size=(max(k, 10), 1)) * 0.1,
            ]
            for points in kinds:
                out = _assert_matches_reference(points, k, seed)
                iterations.append(out[2])
    assert max(iterations) > 5


def test_restarts_in_groups_match_the_per_restart_loop(monkeypatch):
    # a large n * k * restarts runs in groups of restarts to bound memory
    from ratiocut import rounding

    rng = np.random.default_rng(6)
    points = _block_embedding(rng, 40, 4)
    dup = rng.integers(0, 2, size=(12, 2)).astype(float)
    bad = rng.normal(size=(20, 3))
    bad[5, 0] = math.nan
    for cells in (1, 3 * 40 * 4 * 4):  # groups of one restart, of three
        monkeypatch.setattr(rounding, "LLOYD_BATCH_CELLS", cells)
        for seed in range(3):
            _assert_matches_reference(points, 4, seed)
            _assert_matches_reference(dup, 5, seed, restarts=7)
        with np.errstate(invalid="ignore"):
            assert _assert_matches_reference(bad, 3, seed=0)[0] == "SolverError"


def test_batched_lloyd_matches_reference_at_the_iteration_cap():
    # three distinct values and five clusters: empty clusters are re-seeded
    # on every pass and the assignment never settles
    x = [0.2, 0.0, 0.2, 0.1, 0.0, 0.2, 0.2, 0.2, 0.1, 0.2, 0.2, 0.1, 0.0, 0.2]
    for points in (np.array(x)[:, None], np.column_stack([x, np.zeros(len(x))])):
        out = _assert_matches_reference(points, 5, seed=2, restarts=8)
        assert out[2] == MAX_LLOYD_ITERATIONS


def test_batched_lloyd_raises_the_reference_error():
    rng = np.random.default_rng(4)
    for bad in (math.nan, math.inf):
        points = rng.normal(size=(20, 3))
        points[7, 1] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            out = _assert_matches_reference(points, 3, seed=1)
        assert out[0] == "SolverError"


def test_lloyd_error_is_the_lowest_failing_restart():
    # restart 1 starts at a NaN centroid and fails on its first pass; restart
    # 0 fails on its second, when the mean of two 1e308 points overflows. Run
    # one after another, restart 0 raises first, and so must the batched pass
    points = np.array([[0.0, 0.0], [1.0, 0.0], [1e308, 0.0], [1e308, 0.0]])
    starts = np.array([[[0.0, 0.0], [1e308, 0.0]], [[0.0, 0.0], [math.nan, 0.0]]])
    messages = []
    for start in starts:
        with pytest.raises(SolverError) as exc, np.errstate(over="ignore", invalid="ignore"):
            _reference_lloyd(points, start.copy())
        messages.append(str(exc.value))
    assert "from 1 to inf" in messages[0] and "from inf to nan" in messages[1]
    with pytest.raises(SolverError) as batched, np.errstate(over="ignore", invalid="ignore"):
        _lloyd(points, starts.copy())
    assert str(batched.value) == messages[0]


def test_sq_dists_keep_the_coordinate_sum_of_one_point():
    rng = np.random.default_rng(8)
    for d in range(1, 13):
        points = rng.normal(size=(30, d)) * 10.0 ** rng.integers(-3, 4, size=(30, d))
        centroids = rng.normal(size=(4, 3, d))
        want = np.array([[[((x - c) ** 2).sum() for x in points] for c in cs] for cs in centroids])
        assert _sq_dists(points, centroids).tobytes() == want.tobytes(), d


def test_summation_traps_are_real():
    # why _sq_dists reduces as it does: summing the squared coordinates with
    # numpy's pairwise sum gives different bits on ordinary data
    rng = np.random.default_rng(9)
    sq = rng.random((500, 8)) * 10.0 ** rng.integers(-4, 4, size=(500, 8))
    left_to_right = sq[:, 0].copy()
    for c in range(1, 8):
        left_to_right += sq[:, c]
    assert np.any(left_to_right != sq.sum(axis=-1))


def test_kmeans_validation():
    points = np.zeros((3, 2))
    with pytest.raises(InputError):
        rc.kmeans_round(points, 4)
    with pytest.raises(InputError):
        rc.kmeans_round(points, 2, restarts=0)
    with pytest.raises(InputError):
        rc.kmeans_round(np.zeros(3), 1)
    with pytest.raises(InputError, match="d >= 1"):
        rc.kmeans_round(np.zeros((3, 0)), 2)  # no coordinate to cluster on


def test_kmeans_objective_matches_definition():
    rng = np.random.default_rng(31)
    points = rng.normal(size=(25, 2))
    out = rc.kmeans_round(points, 3, seed=2)
    cost = 0.0
    for j in range(3):
        members = points[out.partition.labels == j]
        cost += float(((members - members.mean(axis=0)) ** 2).sum())
    assert out.objective == pytest.approx(cost, abs=1e-9)


# ------------------------------------------------------------ orchestration


def test_spectral_cluster_disjoint_pairs_both_methods():
    g = two_disjoint_pairs()
    planted = rc.Partition(np.array([0, 0, 1, 1]), 2)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DisconnectedGraphWarning)
        a = rc.spectral_cluster(g, 2, method="fiedler")
        b = rc.spectral_cluster(g, 2, method="kmeans", seed=0)
    assert rc.same_partition(a.partition, planted)
    assert rc.ratio_cut(g, b.partition) == pytest.approx(0.0, abs=1e-9)


def test_spectral_cluster_matches_oracle_on_example():
    g, p = rc.gen_example_blocks(2, 0.5)
    out = rc.spectral_cluster(g, 2, method="fiedler")
    best = rc.min_ratio_cut_bruteforce(g, 2)
    assert rc.same_partition(out.partition, best.best)
    assert rc.same_partition(out.partition, p)


def test_spectral_cluster_unbalanced(unbalanced):
    g, p = unbalanced
    out = rc.spectral_cluster(g, 3, method="kmeans", seed=0)
    assert rc.same_partition(out.partition, p)


def test_spectral_cluster_validation():
    g = complete_graph(4)
    with pytest.raises(InputError):
        rc.spectral_cluster(g, 3, method="fiedler")
    with pytest.raises(InputError):
        rc.spectral_cluster(g, 2, method="ward")


def test_strict_certificates_round_to_the_optimum():
    # wherever the certificate is strict and n is small, rounding, the
    # oracle, and the planted labels must all coincide
    cases = [
        rc.gen_example_blocks(1, 0.5),
        rc.gen_example_blocks(1, 0.9),
        rc.gen_planted_blocks([3, 3], 1.0, 0.1),
        rc.gen_planted_blocks([4, 4, 4], 1.0, 0.2),
        rc.gen_planted_blocks([3, 4, 5], 1.0, 0.15),
    ]
    for g, p in cases:
        assert rc.certificate(g, p).strict
        method = "fiedler" if p.k == 2 else "kmeans"
        rounded = rc.spectral_cluster(g, p.k, method=method, seed=0)
        exact = rc.min_ratio_cut_bruteforce(g, p.k)
        assert exact.unique
        assert rc.same_partition(rounded.partition, exact.best)
        assert rc.same_partition(rounded.partition, p)


# ---------------------------------------------------------------- proximity


def test_proximity_two_singletons():
    points = np.array([[0.0], [2.0]])
    p = rc.Partition(np.array([0, 1]), 2)
    rep = rc.proximity_check(points, p)
    assert rep.holds
    assert rep.xi[0, 1] == pytest.approx(1.0)
    assert rep.rhs[0, 1] == pytest.approx(0.0)
    assert rep.separated[0, 1]


def test_proximity_overlap_fails():
    points = np.array([[0.0], [1.0], [0.9], [2.0]])
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    rep = rc.proximity_check(points, p)
    assert not rep.separated[0, 1]
    assert not rep.holds


def test_proximity_planted_embedding_holds():
    g, p = rc.gen_planted_blocks([10, 10], 1.0, 0.01)
    emb = rc.eigenmap(g, 2)
    rep = rc.proximity_check(emb.U, p)
    assert rep.holds


def test_proximity_degenerate_centroids_flagged():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    rep = rc.proximity_check(points, p)
    assert (0, 1) in rep.degenerate_pairs
    assert not rep.holds


def test_proximity_spread_norms_ordered():
    rng = np.random.default_rng(41)
    points = rng.normal(size=(30, 4))
    labels = np.concatenate([np.arange(3), rng.integers(0, 3, 27)])
    p = rc.Partition(labels, 3)
    rep = rc.proximity_check(points, p)
    assert rep.spectral_sq_sum <= rep.frobenius_sq_sum + 1e-12


def test_proximity_validation():
    with pytest.raises(InputError):
        rc.proximity_check(np.zeros((3, 2)), rc.Partition(np.array([0, 1]), 2))


# ------------------------------------------------------------------- margin


def test_margin_zero_radius_exact():
    c1, c2 = np.array([0.0, 0.0]), np.array([4.0, 0.0])
    margin, bound = rc.hyperplane_margin_bound(c1, c2, 0.0, c1, c2)
    assert margin == pytest.approx(2.0)
    assert bound == pytest.approx(2.0)


def test_margin_large_radius_trivial_bound():
    c1, c2 = np.array([0.0]), np.array([1.0])
    x, y = np.array([0.1]), np.array([0.9])
    margin, bound = rc.hyperplane_margin_bound(c1, c2, 0.5, x, y)
    assert bound <= 0.0
    assert margin >= bound - 1e-9


def test_margin_random_property():
    rng = np.random.default_rng(61)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        c1 = rng.normal(size=d)
        c2 = rng.normal(size=d)
        radius = float(rng.uniform(0, 1))
        x = c1 + radius * rng.uniform(0, 1) * _unit(rng, d)
        y = c2 + radius * rng.uniform(0, 1) * _unit(rng, d)
        if np.linalg.norm(x - y) < 1e-9:
            continue
        margin, bound = rc.hyperplane_margin_bound(c1, c2, radius, x, y)
        assert margin >= bound - 1e-9


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def test_margin_validation():
    c = np.array([0.0, 0.0])
    far = np.array([9.0, 9.0])
    with pytest.raises(InputError):
        rc.hyperplane_margin_bound(c, c + 1.0, 0.1, far, c + 1.0)
    with pytest.raises(InputError):
        rc.hyperplane_margin_bound(c, c + 1.0, 2.0, c, c)  # x == y


def test_recovery_diagnostics():
    out = rc.recovery_diagnostics(0.05, 100)
    assert out["threshold_bisector"] == pytest.approx(0.1)
    assert out["threshold_proximity"] == pytest.approx(0.02)
    assert out["below_bisector"] and not out["below_proximity"]
    with pytest.raises(InputError):
        rc.recovery_diagnostics(0.1, 0)
