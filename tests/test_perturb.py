import math

import numpy as np
import pytest
from scipy.optimize import linprog

import ratiocut as rc
from ratiocut.errors import (
    DegenerateAlignmentWarning,
    HypothesisViolation,
    InputError,
    SingletonBlockWarning,
    SizeError,
)


def path_graph(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return rc.WeightedGraph(w)


def complete_graph(n, weight=1.0):
    return rc.WeightedGraph(weight * (1.0 - np.eye(n)))


def random_orthogonal(rng, k):
    q, r_ = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r_))


# ---------------------------------------------------------------- iso/delta


def test_split_single_block_has_zero_delta():
    g = complete_graph(5, 0.3)
    p = rc.Partition(np.zeros(5, dtype=int), 1)
    iso = rc.split_iso_delta(g, p)
    assert np.array_equal(iso.w_iso.weights, g.weights)
    assert np.all(iso.l_delta == 0.0)


def test_split_disjoint_pairs_zero_delta():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = rc.WeightedGraph(w)
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    iso = rc.split_iso_delta(g, p)
    assert np.all(iso.l_delta == 0.0)


def test_split_example_blocks_delta_pattern():
    g, p = rc.gen_example_blocks(1, 0.5)
    iso = rc.split_iso_delta(g, p)
    # every vertex has exactly one cross edge of weight 0.5
    assert np.allclose(np.diag(iso.l_delta), 0.5)
    off = iso.l_delta - np.diag(np.diag(iso.l_delta))
    assert set(np.round(np.unique(off), 12)) == {-0.5, 0.0}


def test_split_reconstructs_and_row_sums():
    rng = np.random.default_rng(9)
    w = np.triu(rng.uniform(0, 1, (8, 8)), 1)
    g = rc.WeightedGraph(w + w.T)
    p = rc.Partition(np.array([0, 0, 0, 1, 1, 1, 2, 2]), 3)
    iso = rc.split_iso_delta(g, p)
    assert np.allclose(iso.w_iso.weights + iso.w_delta, g.weights, atol=1e-12)
    assert np.allclose(iso.l_delta.sum(axis=1), 0.0, atol=1e-12)
    # full Laplacian decomposes additively
    assert np.allclose(
        rc.laplacian(g), rc.laplacian(iso.w_iso) + iso.l_delta, atol=1e-12
    )


def linf_operator_norm(m):
    return float(np.abs(m).sum(axis=1).max())


def test_l_delta_infinity_norm_identity():
    # max absolute row sum of L_delta is twice the max boundary degree
    for n, c in ((1, 0.5), (2, 1.2)):
        g, p = rc.gen_example_blocks(n, c)
        iso = rc.split_iso_delta(g, p)
        d = rc.boundary_degrees(g, p)
        assert linf_operator_norm(iso.l_delta) == pytest.approx(2 * d.max(), abs=1e-9)


def test_l_delta_spectral_below_infinity_norm():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        g = rc.WeightedGraph(w + w.T)
        labels = np.concatenate([[0, 1], rng.integers(0, 2, n - 2)])
        p = rc.Partition(labels, 2)
        iso = rc.split_iso_delta(g, p)
        spectral = np.linalg.norm(iso.l_delta, 2)
        assert spectral <= linf_operator_norm(iso.l_delta) + 1e-9


# ------------------------------------------------------------------- U_iso


def test_canonical_uiso_single_block():
    p = rc.Partition(np.zeros(4, dtype=int), 1)
    assert np.allclose(rc.canonical_uiso(p), 0.5)


def test_canonical_uiso_sizes_1_3():
    p = rc.Partition(np.array([0, 1, 1, 1]), 2)
    u = rc.canonical_uiso(p)
    assert np.allclose(u[0], [1.0, 0.0])
    for row in u[1:]:
        assert np.allclose(row, [0.0, 1.0 / math.sqrt(3)])


def test_canonical_uiso_orthonormal_and_row_norms():
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    u = rc.canonical_uiso(p)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)
    # two-to-infinity norm is 1/sqrt(smallest block)
    p2 = rc.Partition(np.array([0, 1, 1, 2, 2, 2]), 3)
    u2 = rc.canonical_uiso(p2)
    assert rc.two_to_inf_norm(u2) == pytest.approx(1.0, abs=1e-12)


def test_two_to_inf_norm():
    m = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert rc.two_to_inf_norm(m) == 5.0
    assert rc.two_to_inf_norm(np.zeros((0, 2))) == 0.0


# -------------------------------------------------------------- procrustes


def test_procrustes_identity():
    p = rc.Partition(np.array([0, 0, 1, 1, 1]), 2)
    u = rc.canonical_uiso(p)
    v, aligned = rc.procrustes_align(u, u)
    assert np.allclose(v, np.eye(2), atol=1e-9)
    assert np.allclose(aligned, u, atol=1e-12)
    assert rc.two_to_inf_error(u, u) == pytest.approx(0.0, abs=1e-12)


def test_procrustes_recovers_exact_rotation():
    rng = np.random.default_rng(3)
    p = rc.Partition(np.array([0, 0, 0, 1, 1, 2, 2, 2]), 3)
    u_iso = rc.canonical_uiso(p)
    for _ in range(10):
        r_ = random_orthogonal(rng, 3)
        u = u_iso @ r_
        _, aligned = rc.procrustes_align(u, u_iso)
        assert np.allclose(aligned, u_iso, atol=1e-9)


def test_procrustes_is_frobenius_optimal():
    rng = np.random.default_rng(19)
    p = rc.Partition(np.array([0, 0, 1, 1, 1, 1]), 2)
    u_iso = rc.canonical_uiso(p)
    q, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    v_tilde, aligned = rc.procrustes_align(q, u_iso)
    best = np.linalg.norm(aligned - u_iso)
    for _ in range(100):
        v = random_orthogonal(rng, 2)
        assert best <= np.linalg.norm(q @ v - u_iso) + 1e-9
    # the rotation is orthogonal
    assert np.allclose(v_tilde.T @ v_tilde, np.eye(2), atol=1e-9)


def test_procrustes_warns_on_orthogonal_subspaces():
    u = np.zeros((4, 1))
    u[0, 0] = 1.0
    w = np.zeros((4, 1))
    w[1, 0] = 1.0
    with pytest.warns(DegenerateAlignmentWarning):
        rc.procrustes_align(u, w)


def test_procrustes_input_validation():
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    u = rc.canonical_uiso(p)
    with pytest.raises(InputError):
        rc.procrustes_align(u, u[:, :1])
    with pytest.raises(InputError):
        rc.procrustes_align(2.0 * u, 2.0 * u)  # not orthonormal


def test_two_to_inf_error_constructed_offset():
    # nudge one row by a known amount, re-orthonormalize, and expect the
    # measured displacement to be close to the nudge
    p = rc.Partition(np.repeat([0, 1], 20), 2)
    u_iso = rc.canonical_uiso(p)
    delta = 0.05
    bumped = u_iso.copy()
    bumped[0] += delta * np.array([0.6, 0.8])
    q, _ = np.linalg.qr(bumped)
    # fix sign freedom from qr to stay near u_iso
    for j in range(2):
        if q[:, j] @ u_iso[:, j] < 0:
            q[:, j] = -q[:, j]
    err = rc.two_to_inf_error(q, u_iso)
    assert err == pytest.approx(delta, rel=0.10)


def test_two_to_inf_error_k2_matches_vector_inf_norm():
    """For k = 2 the subspace error reduces to the sup-norm difference of
    second eigenvectors once signs are aligned (the first eigenvector is
    shared up to sign)."""
    g, p = rc.gen_example_blocks(2, 0.4)
    emb = rc.eigenmap(g, 2)
    u_iso = rc.canonical_uiso(p)
    err = rc.two_to_inf_error(emb.U, u_iso)

    iso_g = rc.split_iso_delta(g, p).w_iso
    u2 = emb.U[:, 1]
    # eigenvector of L_iso for its second-smallest *nonzero-gap* position:
    # with two equal blocks the indicator difference is the natural pick
    sizes = p.sizes()
    v2 = np.where(p.labels == 0, 1.0 / math.sqrt(2 * sizes[0]), -1.0 / math.sqrt(2 * sizes[1]))
    if u2 @ v2 < 0:
        v2 = -v2
    assert err == pytest.approx(np.abs(u2 - v2).max(), abs=1e-6)


def test_two_to_inf_error_invariant_under_rotating_degenerate_eigenspace():
    # three equal blocks joined in a ring are symmetric under shifting the
    # blocks, so lambda_2 = lambda_3 and the eigensolver's basis for that
    # eigenspace is arbitrary; the aligned error must not depend on it
    g, p = rc.gen_planted_blocks([6, 6, 6], 1.0, 0.1)
    w = g.weights.copy()
    w[17, 0] = w[0, 17] = 0.1
    emb = rc.eigenmap(rc.WeightedGraph(w), 3)
    assert emb.values[2] - emb.values[1] <= 1e-9
    u_iso = rc.canonical_uiso(p)
    err = rc.two_to_inf_error(emb.U, u_iso)
    assert err > 1e-3
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = random_orthogonal(rng, 3)
        assert rc.two_to_inf_error(emb.U @ q, u_iso) == pytest.approx(err, abs=1e-12)


# ------------------------------------------------------------ theorem eval


def test_theoretical_bound_planted_regime():
    g, p = rc.gen_planted_blocks([20, 30, 50], 1.0, 0.02)
    rep = rc.theoretical_bound(g, p)
    assert rep.c == pytest.approx(5.0)
    assert rep.mu == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert rep.c >= p.k
    assert rep.r == pytest.approx(0.001, abs=1e-9)
    assert rep.precondition_ok
    assert rep.measured <= rep.bound + 1e-9


def test_theoretical_bound_zero_cross():
    # three disjoint cliques: no perturbation at all
    w = np.zeros((15, 15))
    start = 0
    labels = np.empty(15, dtype=int)
    for b, size in enumerate([4, 5, 6]):
        w[start : start + size, start : start + size] = 1.0 - np.eye(size)
        labels[start : start + size] = b
        start += size
    g = rc.WeightedGraph(w)
    p = rc.Partition(labels, 3)
    rep = rc.theoretical_bound(g, p)
    assert rep.r == 0.0
    assert rep.precondition_ok
    assert rep.bound == 0.0
    assert rep.measured == pytest.approx(0.0, abs=1e-7)


def test_theoretical_bound_unbalanced_precondition_fails(unbalanced):
    g, p = unbalanced
    rep = rc.theoretical_bound(g, p)
    assert rep.c == pytest.approx(201.0)
    assert rep.r == pytest.approx(0.5, abs=1e-9)
    assert not rep.precondition_ok
    assert rep.bound is None
    assert rep.measured > 0.0


def test_theoretical_bound_rejects_tiny_blocks():
    g, p = rc.gen_example_blocks(1, 0.5)  # blocks of size 2
    with pytest.raises(HypothesisViolation):
        rc.theoretical_bound(g, p)


def test_theoretical_bound_rejects_zero_eigengap():
    # four disjoint triangles grouped into three blocks: lambda_3 = lambda_4 = 0
    w = np.zeros((12, 12))
    for b in range(4):
        idx = slice(3 * b, 3 * b + 3)
        w[idx, idx] = 1.0 - np.eye(3)
    g = rc.WeightedGraph(w)
    p = rc.Partition(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 2]), 3)
    with pytest.raises(HypothesisViolation, match="eigengap"):
        rc.theoretical_bound(g, p)


def _planted_with_split_block(rng):
    """Blocks of 4, 5 and 6 vertices; block 0 is two disjoint pairs held
    together only through the other blocks."""
    g, p = rc.gen_planted_blocks([4, 5, 6], 1.0, 0.0)
    w = g.weights.copy()
    w[:4, :4] = 0.0
    w[0, 1] = w[1, 0] = w[2, 3] = w[3, 2] = 1.0
    cross = p.labels[:, None] != p.labels[None, :]
    noise = np.triu(rng.uniform(0.01, 0.05, w.shape), 1)
    w[cross] = (noise + noise.T)[cross]
    return rc.WeightedGraph(w), p


def test_theoretical_bound_reads_ratio_and_gap_from_certificate():
    rng = np.random.default_rng(41)
    cases = [rc.gen_planted_blocks(list(rng.integers(3, 12, size=3)), 1.0, cross)
             for cross in (0.0, 0.005, 0.05, 0.3)]
    cases.append(_planted_with_split_block(rng))
    for g, p in cases:
        cert = rc.certificate(g, p)
        rep = rc.theoretical_bound(g, p)
        assert rep.r == cert.ratio_r
        assert rep.gap_lower == cert.min_lambda2 / (2.0 * math.log(g.n))
    # the split block: lambda2 of block 0 is zero, r is infinite, no bound
    assert cert.min_lambda2 == pytest.approx(0.0, abs=1e-9)
    assert math.isinf(rep.r)
    assert not rep.precondition_ok
    assert rep.bound is None
    assert rep.measured > 0.0


def test_report_serializes():
    g, p = rc.gen_planted_blocks([3, 3, 3], 1.0, 0.01)
    rep = rc.theoretical_bound(g, p)
    text = rc.canonical_json(rep.to_dict())
    assert '"precondition_ok": true' in text


# -------------------------------------------------------------- gap bounds


def test_gap_lower_bound_values():
    assert rc.gap_lower_bound(complete_graph(4)) == pytest.approx(
        4.0 / (2.0 * math.log(4)), abs=1e-9
    )
    assert rc.gap_lower_bound(path_graph(3)) == pytest.approx(
        1.0 / (2.0 * math.log(3)), abs=1e-9
    )


def test_gap_lower_bound_disconnected_is_zero():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    assert rc.gap_lower_bound(rc.WeightedGraph(w)) == pytest.approx(0.0, abs=1e-9)


def test_gap_lower_bound_needs_three_vertices():
    with pytest.raises(InputError):
        rc.gap_lower_bound(complete_graph(2))


def test_gap_upper_bound_values():
    assert rc.gap_upper_bound_unweighted(path_graph(3)) == 4.0
    assert rc.gap_upper_bound_unweighted(complete_graph(4)) == 12.0
    assert rc.gap_upper_bound_unweighted(path_graph(10)) == pytest.approx(8.0 / 9.0)


def test_gap_upper_bound_validation():
    with pytest.raises(InputError):
        rc.gap_upper_bound_unweighted(complete_graph(3, 0.5))
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(InputError):
        rc.gap_upper_bound_unweighted(rc.WeightedGraph(w))


def test_gap_exact_complete_graphs():
    # L = mI - J acts as multiplication by m on the orthogonal complement
    # of the constant vector, so the gap is exactly m
    for m in (2, 3, 4, 5, 6):
        assert rc.gap_exact(complete_graph(m)) == pytest.approx(m, abs=1e-7)


def test_gap_exact_path3_frozen_value():
    # frozen regression value, confirmed analytically: the optimum pins an
    # endpoint at 1 and the LP settles at ||Lx||_inf = 1
    assert rc.gap_exact(path_graph(3)) == pytest.approx(1.0, abs=1e-8)


def test_gap_exact_against_scipy_lps():
    """Same programs, independent solver."""

    def gap_by_scipy(g):
        lap = rc.laplacian(g)
        n = g.n
        best = math.inf
        for i in range(n):
            others = [j for j in range(n) if j != i]
            lj = lap[:, others]
            li = lap[:, i]
            # variables: y (shifted by 1), t
            c = np.zeros(n)
            c[-1] = 1.0
            a_ub = np.block([
                [lj, -np.ones((n, 1))],
                [-lj, -np.ones((n, 1))],
            ])
            b_ub = np.concatenate([-2.0 * li, 2.0 * li])
            a_eq = np.ones((1, n))
            a_eq[0, -1] = 0.0
            bounds = [(0.0, 2.0)] * (n - 1) + [(0.0, None)]
            res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                          b_eq=[float(n - 2)], bounds=bounds, method="highs")
            assert res.status == 0
            best = min(best, res.fun)
        return best

    rng = np.random.default_rng(27)
    graphs = [path_graph(5), complete_graph(4)]
    w = np.triu(rng.uniform(0.2, 1.5, (7, 7)) * (rng.random((7, 7)) < 0.7), 1)
    graphs.append(rc.WeightedGraph(w + w.T))
    for g in graphs:
        assert rc.gap_exact(g) == pytest.approx(gap_by_scipy(g), abs=1e-7)


def test_gap_exact_dense_graph_long_pivot_chains():
    # dense unweighted graphs push the internal LP through hundreds of
    # degenerate pivots; these seeds once made the solver pivot on a
    # noise-level entry, blowing up the tableau and reporting a feasible
    # program as unbounded or infeasible
    for seed in (30, 43):
        rng = np.random.default_rng(seed)
        n = 30
        w = np.zeros((n, n))
        for i in range(n - 1):
            w[i, i + 1] = w[i + 1, i] = 1.0
        mask = np.triu(rng.random((n, n)) < 0.4, 1)
        w[mask | mask.T] = 1.0
        g = rc.WeightedGraph(w)
        exact = rc.gap_exact(g)
        assert rc.gap_lower_bound(g) - 1e-9 <= exact <= rc.lambda2(g) + 1e-9


def test_gap_exact_below_lambda2():
    rng = np.random.default_rng(33)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        g = rc.WeightedGraph(w + w.T)
        assert rc.gap_exact(g) <= rc.lambda2(g) + 1e-9


def test_gap_exact_sandwich_small():
    for n in (3, 5, 8):
        g = path_graph(n)
        lo = rc.gap_lower_bound(g)
        hi = rc.gap_upper_bound_unweighted(g)
        mid = rc.gap_exact(g)
        assert lo - 1e-9 <= mid <= min(rc.lambda2(g), hi) + 1e-9


def test_gap_exact_size_guard():
    with pytest.raises(SizeError):
        rc.gap_exact(rc.WeightedGraph(np.zeros((201, 201))))
    with pytest.raises(InputError):
        rc.gap_exact(rc.WeightedGraph(np.zeros((1, 1))))


def test_gap_exact_k2():
    # n=2: the only direction is (1,-1) and L acts on it by 2w
    assert rc.gap_exact(complete_graph(2)) == pytest.approx(2.0, abs=1e-9)


def test_gap_exact_n80_defect_draw(gap_defect_graph, highs_pinned):
    # the dense simplex that solved these programs before returned 1.004e-9
    # at pinned coordinate 33 of this graph without an error (HiGHS: 7.035),
    # an answer below the spectral lower bound 0.918
    g = gap_defect_graph
    exact = rc.gap_exact(g)
    assert exact == pytest.approx(highs_pinned(rc.laplacian(g)).min(), abs=1e-7)
    assert exact == pytest.approx(5.1435439296, abs=1e-7)
    assert exact >= rc.gap_lower_bound(g)


# a 4x6 grid with permuted vertex labels, frozen from the benchmark's
# gap-exact instance r0-15-grid4x6 at seed 1, on which the dense simplex
# hit its iteration limit
PERMUTED_GRID_4X6_EDGES = [
    (0, 4), (0, 7), (0, 10), (1, 5), (1, 15), (2, 19), (2, 20), (3, 11), (3, 21), (4, 22),
    (5, 13), (5, 23), (6, 8), (6, 21), (6, 23), (7, 12), (7, 18), (8, 9), (8, 16), (8, 18),
    (9, 10), (9, 11), (9, 21), (10, 18), (10, 22), (11, 22), (12, 17), (12, 20), (13, 14),
    (13, 15), (13, 16), (14, 17), (14, 19), (14, 20), (15, 19), (16, 17), (16, 23), (17, 18),
]


def test_gap_exact_permuted_grid_4x6(highs_pinned):
    w = np.zeros((24, 24))
    for a, b in PERMUTED_GRID_4X6_EDGES:
        w[a, b] = w[b, a] = 1.0
    g = rc.WeightedGraph(w)
    exact = rc.gap_exact(g)
    assert exact == pytest.approx(highs_pinned(rc.laplacian(g)).min(), abs=1e-7)
    assert exact >= rc.gap_lower_bound(g)


def test_gap_lower_per_block():
    g, p = rc.gen_planted_blocks([4, 6], 1.0, 0.1)
    per = rc.gap_lower_per_block(g, p)
    assert per[0] == pytest.approx(4.0 / (2 * math.log(4)), abs=1e-9)
    assert per[1] == pytest.approx(6.0 / (2 * math.log(6)), abs=1e-9)

    q = rc.Partition(np.array([0] + [1] * 9), 2)
    w = np.triu(np.ones((10, 10)), 1)
    g2 = rc.WeightedGraph(w + w.T)
    with pytest.warns(SingletonBlockWarning):
        per2 = rc.gap_lower_per_block(g2, q)
    assert math.isinf(per2[0])
    assert per2[1] == pytest.approx(9.0 / (2 * math.log(9)), abs=1e-9)


def test_linf_eigengap_random_property_small():
    # a smaller edition of the acceptance sweep
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        w = np.triu(rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        g = rc.WeightedGraph(w + w.T)
        lap = rc.laplacian(g)
        lam2 = rc.lambda2(g)
        x = rng.normal(size=(n, 10))
        x -= x.mean(axis=0)
        lhs = np.abs(lap @ x).max(axis=0)
        rhs = lam2 * np.abs(x).max(axis=0) / (2.0 * math.log(n))
        assert np.all(lhs >= rhs - 1e-9)
