"""End-to-end acceptance checks.

Each test exercises one externally observable guarantee of the package on a
fixed instance family, prints a PASS/FAIL line, and enforces a wall-clock
budget so regressions in speed get caught alongside regressions in math.
Tolerances are absolute and pinned in-line.
"""
import math
import time
import warnings

import numpy as np

import ratiocut as rc
from ratiocut import eigen


def random_connected_graph(rng, n: int, weighted: bool, extra_edges: int = 0):
    """Random spanning tree plus optional extra edges; connected by construction."""
    w = np.zeros((n, n))

    def draw():
        return rng.uniform(0.2, 2.0) if weighted else 1.0

    order = rng.permutation(n)
    for idx in range(1, n):
        a, b = order[idx], order[rng.integers(0, idx)]
        w[a, b] = w[b, a] = draw()
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a != b and w[a, b] == 0.0:
            w[a, b] = w[b, a] = draw()
    return rc.WeightedGraph(w)


def path_graph(n: int):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return rc.WeightedGraph(w)


def test_certified_partition_is_global_optimum(report):
    start = time.perf_counter()
    g, planted = rc.gen_example_blocks(2, 0.9)
    cert = rc.certificate(g, planted)
    oracle = rc.min_ratio_cut_bruteforce(g, 2)
    elapsed = time.perf_counter() - start

    ok = (
        cert.passes
        and cert.strict
        and abs(cert.ratio_r - 0.45) <= 1e-9
        and oracle.partitions_examined == 127
        and oracle.unique
        and rc.same_partition(oracle.best, planted)
        and abs(oracle.value - rc.ratio_cut(g, planted)) <= 1e-9
        and elapsed < 1.0
    )
    # the oracle's advertised cap: three blocks at n = 14, 788,970 partitions
    start = time.perf_counter()
    g3, planted3 = rc.gen_planted_blocks([4, 5, 5], 1.0, 0.2)
    cert3 = rc.certificate(g3, planted3)
    oracle3 = rc.min_ratio_cut_bruteforce(g3, 3)
    elapsed3 = time.perf_counter() - start

    ok3 = (
        cert3.passes
        and cert3.strict
        and abs(cert3.ratio_r - 0.05) <= 1e-9
        and oracle3.partitions_examined == 788970
        and oracle3.unique
        and rc.same_partition(oracle3.best, planted3)
        and oracle3.value == rc.ratio_cut(g3, oracle3.best)
        and abs(oracle3.value - rc.ratio_cut(g3, planted3)) <= 1e-9
        and elapsed3 < 2.0
    )
    # four blocks at the cap: 10,391,745 partitions
    start = time.perf_counter()
    g4, planted4 = rc.gen_planted_blocks([3, 3, 4, 4], 1.0, 0.2)
    cert4 = rc.certificate(g4, planted4)
    oracle4 = rc.min_ratio_cut_bruteforce(g4, 4)
    elapsed4 = time.perf_counter() - start

    ok4 = (
        cert4.passes
        and cert4.strict
        and abs(cert4.ratio_r - 0.2 / 3) <= 1e-9
        and oracle4.partitions_examined == 10391745
        and oracle4.unique
        and rc.same_partition(oracle4.best, planted4)
        and oracle4.value == rc.ratio_cut(g4, oracle4.best)
        and abs(oracle4.value - rc.ratio_cut(g4, planted4)) <= 1e-9
        and elapsed4 < 5.0
    )
    report("certificate-implies-global-optimum", ok and ok3 and ok4,
           f"ratio {cert.ratio_r:.3f}, {oracle.partitions_examined} partitions, {elapsed:.2f}s; "
           f"ratio {cert3.ratio_r:.3f}, {oracle3.partitions_examined} partitions, {elapsed3:.2f}s; "
           f"ratio {cert4.ratio_r:.3f}, {oracle4.partitions_examined} partitions, {elapsed4:.2f}s")


def test_failed_certificate_example_has_better_cut(report):
    start = time.perf_counter()
    g, planted = rc.gen_example_blocks(2, 1.2)
    cert = rc.certificate(g, planted)
    oracle = rc.min_ratio_cut_bruteforce(g, 2)
    planted_value = rc.ratio_cut(g, planted)
    crosswise = rc.Partition([0, 0, 1, 1, 0, 0, 1, 1], 2)
    elapsed = time.perf_counter() - start

    ok = (
        not cert.passes
        and abs(cert.ratio_r - 0.6) <= 1e-9
        and oracle.value < planted_value - 1e-9
        and abs(oracle.value - 4.0) <= 1e-9
        and rc.same_partition(oracle.best, crosswise)
        and elapsed < 1.0
    )
    report("failed-certificate-not-optimal", ok,
           f"best {oracle.value:.3f} < planted {planted_value:.3f}, {elapsed:.2f}s")


def sparse_weighted_graph(rng, n: int, density: float):
    """Weighted edges of density ``density`` over a path of weight >= 1."""
    a = (rng.random((n, n)) < density) * rng.uniform(0.2, 2.0, (n, n))
    a = np.triu(a, 1)
    a = a + a.T
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = max(a[i, i + 1], 1.0)
    return rc.WeightedGraph(a)


def test_exact_gap_sandwiched_by_closed_form_bounds(report, gap_defect_graph):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    graphs = [path_graph(n) for n in range(3, 31)]
    for _ in range(20):
        n = int(rng.integers(4, 31))
        graphs.append(random_connected_graph(rng, n, weighted=False,
                                             extra_edges=int(rng.integers(0, 2 * n))))
    worst_slack = math.inf
    ok = True
    for g in graphs:
        lam2 = rc.lambda2(g)
        lower = rc.gap_lower_bound(g)
        upper = rc.gap_upper_bound_unweighted(g)
        exact = rc.gap_exact(g)
        if not (lower - 1e-9 <= exact <= min(lam2, upper) + 1e-9):
            ok = False
        worst_slack = min(worst_slack, exact - lower, min(lam2, upper) - exact)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    detail = f"{len(graphs)} graphs, min slack {worst_slack:.2e}, {elapsed:.1f}s"

    # the advertised range reaches n = 200; each large weighted graph has its
    # own budget: the time measured on a 2-vCPU x86_64 host times a safety
    # factor of 40 (2.4 ms -> 0.1 s at n = 80, 10 ms -> 0.4 s at n = 200),
    # since millisecond timings there vary several-fold with the host's load
    for g, budget in ((gap_defect_graph, 0.1),
                      (sparse_weighted_graph(np.random.default_rng(200), 200, 0.05), 0.4)):
        start = time.perf_counter()
        exact = rc.gap_exact(g)
        elapsed = time.perf_counter() - start
        ok = ok and rc.gap_lower_bound(g) - 1e-9 <= exact <= rc.lambda2(g) + 1e-9 and elapsed < budget
        detail += f"; n = {g.n}: {exact:.10f} in {elapsed * 1e3:.1f} ms"
    report("exact-linf-gap-sandwich", ok, detail)


def test_laplacian_images_obey_gap_lower_bound(report):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        g = random_connected_graph(rng, n, weighted=True,
                                   extra_edges=int(rng.integers(0, 3 * n)))
        lam2 = rc.lambda2(g)
        lap = rc.laplacian(g)
        x = rng.normal(size=(n, 100))
        x -= x.mean(axis=0)
        lx = lap @ x
        lhs = np.abs(lx).max(axis=0)
        rhs = lam2 * np.abs(x).max(axis=0) / (2.0 * math.log(n))
        violations += int(np.sum(lhs < rhs - 1e-9))
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report("linf-gap-lower-bound-random", ok,
           f"20000 vectors, {violations} violations, {elapsed:.1f}s")


def test_embedding_perturbation_bound_and_recovery(report):
    start = time.perf_counter()
    families = [[20, 30, 50], [10, 10, 10], [5, 20, 20, 30]]
    fractions = [0.10, 0.30, 0.50, 0.70, 0.80, 0.95]
    cases = [(sizes, 1.0, f) for sizes in families for f in fractions]
    cases += [([20, 30, 50], 2.0, 0.5), ([10, 10, 10], 2.0, 0.5)]
    assert len(cases) == 20

    ok = True
    worst_ratio = 0.0
    for sizes, intra, frac in cases:
        n = sum(sizes)
        c = n / min(sizes)
        threshold = 1.0 / (16.0 * (1.0 + c) * math.log(n))
        cross = frac * threshold * intra * min(sizes)
        g, planted = rc.gen_planted_blocks(sizes, intra, cross)
        rep = rc.theoretical_bound(g, planted)
        found = rc.spectral_cluster(g, len(sizes), method="kmeans", seed=1)
        if not (rep.precondition_ok
                and rep.bound is not None
                and rep.measured <= rep.bound + 1e-9
                and rc.same_partition(found.partition, planted)):
            ok = False
        if rep.bound:
            worst_ratio = max(worst_ratio, rep.measured / rep.bound)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 2.0
    report("perturbation-bound-and-exact-recovery", ok,
           f"20 planted instances, worst measured/bound {worst_ratio:.2e}, {elapsed:.1f}s")


def test_unbalanced_instance_end_to_end(report, unbalanced):
    start = time.perf_counter()
    g, planted = unbalanced
    lam2s = rc.certificate(g, planted).lambda2s
    max_d = rc.boundary_degrees(g, planted).max()
    rep = rc.theoretical_bound(g, planted)
    found = rc.spectral_cluster(g, 3, method="kmeans", seed=0)
    elapsed = time.perf_counter() - start

    ok = (
        np.all(np.abs(lam2s - 1.0) <= 1e-6)
        and abs(max_d - 0.5) <= 1e-12
        and not rep.precondition_ok
        and rep.bound is None
        and rc.same_partition(found.partition, planted)
        and elapsed < 2.0
    )
    report("unbalanced-three-blocks-end-to-end", ok,
           f"r {rep.r:.3f}, measured {rep.measured:.4f}, recovered, {elapsed:.1f}s")


def test_subset_density_lower_bound_random(report):
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(3, 31))
        g = random_connected_graph(rng, n, weighted=bool(rng.integers(0, 2)),
                                   extra_edges=int(rng.integers(0, 2 * n)))
        size = int(rng.integers(1, n))
        subset = rng.choice(n, size=size, replace=False)
        # cut(S, complement) >= lambda2 |S| |complement| / n
        bound = rc.lambda2(g) * size * (n - size) / n
        cut = g.weights[np.ix_(subset, np.setdiff1d(np.arange(n), subset))].sum()
        if not cut >= bound - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report("subset-cut-density-lower-bound", ok,
           f"500 subsets, {violations} violations, {elapsed:.1f}s")


def test_alignment_is_frobenius_optimal(report):
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(100):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(2, 6))
        u, _ = np.linalg.qr(rng.normal(size=(n, k)))
        rotation, _ = np.linalg.qr(rng.normal(size=(k, k)))

        # exact rotation must be undone to machine precision
        err = rc.two_to_inf_error(u @ rotation, u)
        if err > 1e-9:
            ok = False

        # no tested orthogonal alternative may beat the returned alignment
        u_iso, _ = np.linalg.qr(rng.normal(size=(n, k)))
        v_tilde, aligned = rc.procrustes_align(u, u_iso)
        best = np.linalg.norm(aligned - u_iso)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            if np.linalg.norm(u @ q - u_iso) < best - 1e-9:
                ok = False
        if not np.allclose(v_tilde.T @ v_tilde, np.eye(k), atol=1e-9):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("embedding-alignment-optimality", ok, f"100 draws, {elapsed:.1f}s")


def test_separation_margin_meets_lower_bound(report):
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    checked = 0
    violations = 0
    while checked < 1000:
        dim = int(rng.integers(2, 8))
        c1 = rng.normal(size=dim)
        c2 = c1 + rng.normal(size=dim)
        d = np.linalg.norm(c2 - c1)
        if d < 1e-9:
            continue
        radius = float(rng.uniform(0.0, 0.5)) * d

        def sample(center):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            return center + v * radius * rng.uniform(0.0, 1.0)

        x, y = sample(c1), sample(c2)
        if np.linalg.norm(x - y) < 1e-12:
            continue
        margin, bound = rc.hyperplane_margin_bound(c1, c2, radius, x, y)
        if margin < bound - 1e-9:
            violations += 1
        if abs(bound - (0.5 * d - 3.0 * radius)) > 1e-9:
            violations += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    report("ball-separation-margin-bound", ok,
           f"1000 configurations, {violations} violations, {elapsed:.1f}s")


def test_eigensolver_residuals_and_known_spectrum(report):
    start = time.perf_counter()
    rng = np.random.default_rng(53)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 61))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        a = rng.normal(size=(n, n)) * scale
        a = 0.5 * (a + a.T)  # indefinite, so not a Laplacian: the checked solve itself
        values, vectors, _ = eigen._checked_eigh(a)
        tol = 1e-7 * (1.0 + np.linalg.norm(a))
        if np.linalg.norm(a @ vectors - vectors * values) > tol:
            ok = False
        if np.linalg.norm(vectors.T @ vectors - np.eye(n)) > 1e-7:
            ok = False
        if np.any(np.diff(values) < -1e-12):
            ok = False

    values = rc.eigenmap(path_graph(3), 3).values
    ok = ok and np.allclose(values, [0.0, 1.0, 3.0], atol=1e-9)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report("eigensolver-residuals-and-path-spectrum", ok,
           f"100 matrices, {elapsed:.1f}s")
