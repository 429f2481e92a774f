import math
import warnings

import numpy as np
import pytest

import ratiocut as rc
from ratiocut.errors import InputError, SingletonBlockWarning


def complete_graph(n, weight=1.0):
    return rc.WeightedGraph(weight * (1.0 - np.eye(n)))


def two_disjoint_pairs():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return rc.WeightedGraph(w)


def test_boundary_degrees_single_cluster_is_zero():
    g = complete_graph(5)
    p = rc.Partition(np.zeros(5, dtype=int), 1)
    assert np.all(rc.boundary_degrees(g, p) == 0.0)


def test_boundary_degrees_example_blocks():
    for n, c in ((1, 0.5), (2, 0.9), (3, 1.2)):
        g, p = rc.gen_example_blocks(n, c)
        assert np.allclose(rc.boundary_degrees(g, p), c * n)


def test_boundary_degrees_manual():
    # triangle split {0},{1,2}: vertex 0 touches both others
    g = complete_graph(3)
    p = rc.Partition(np.array([0, 1, 1]), 2)
    assert list(rc.boundary_degrees(g, p)) == [2.0, 1.0, 1.0]


# the intra-block connectivities, as the certificate reports them (``lambda2s``)


def test_intra_connectivities_example_blocks():
    g, p = rc.gen_example_blocks(2, 0.9)
    assert np.allclose(rc.certificate(g, p).lambda2s, [4.0, 4.0], atol=1e-9)


def test_intra_connectivities_against_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2)
    w = np.triu(rng.uniform(0.1, 1, (9, 9)), 1)
    g = rc.WeightedGraph(w + w.T)
    p = rc.Partition(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]), 3)
    lam = rc.certificate(g, p).lambda2s
    for j, members in enumerate(p.blocks()):
        sub = rc.induced_subgraph(g, members)
        expected = np.sort(scipy_linalg.eigvalsh(rc.laplacian(sub)))[1]
        assert lam[j] == pytest.approx(expected, abs=1e-9)


def test_intra_connectivities_singleton_warns():
    g = complete_graph(4)
    p = rc.Partition(np.array([0, 1, 1, 1]), 2)
    with pytest.warns(SingletonBlockWarning):
        lam = rc.certificate(g, p).lambda2s
    assert math.isinf(lam[0])
    assert lam[1] == pytest.approx(3.0, abs=1e-9)


def test_intra_connectivities_disconnected_block_is_zero():
    g = two_disjoint_pairs()
    p = rc.Partition(np.zeros(4, dtype=int), 1)
    lam = rc.certificate(g, p).lambda2s
    assert lam[0] == pytest.approx(0.0, abs=1e-9)


def _lambda2s_by_induced_subgraphs(g, p):
    # the route the block solves replaced: a validated subgraph per block
    return np.array([math.inf if b.size == 1 else rc.lambda2(rc.induced_subgraph(g, b))
                     for b in p.blocks()])


def test_intra_connectivities_equal_induced_subgraph_lambda2_bit_for_bit(unbalanced):
    rng = np.random.default_rng(17)
    cases = [unbalanced]
    for trial in range(60):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, min(n, 6) + 1))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        density = rng.uniform(0.1, 1.0)
        w = np.triu(rng.random((n, n)) < density, 1).astype(float)
        if trial % 2:
            w *= rng.uniform(0.01, 5.0, (n, n))
        cases.append((rc.WeightedGraph(w + w.T), rc.Partition(labels, k)))
    singletons = 0
    for g, p in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam = rc.certificate(g, p).lambda2s
            want = _lambda2s_by_induced_subgraphs(g, p)
        assert lam.tobytes() == want.tobytes()
        has_singleton = bool(np.any(p.sizes() == 1))
        singletons += has_singleton
        assert any(issubclass(c.category, SingletonBlockWarning) for c in caught) == has_singleton
    assert singletons >= 5


def test_block_lambda2s_reject_a_partition_of_another_size():
    from ratiocut.eigen import block_lambda2s

    g = complete_graph(4)
    for labels in ([0, 0, 1], [0, 0, 1, 1, 1]):
        with pytest.raises(InputError):
            block_lambda2s(g, rc.Partition(np.array(labels), 2))


def test_block_lambda2s_check_every_solve(monkeypatch):
    from ratiocut import eigen
    from ratiocut.errors import SolverError

    eigh = np.linalg.eigh

    def non_orthonormal(m):
        values, vectors = eigh(m)
        vectors[:, 0] *= 1.0 + 1e-6
        return values, vectors

    g, p = rc.gen_example_blocks(2, 0.9)
    monkeypatch.setattr(eigen.np.linalg, "eigh", non_orthonormal)
    with pytest.raises(SolverError):
        rc.certificate(g, p)


def test_certificate_passing_regime():
    g, p = rc.gen_example_blocks(2, 0.9)
    cert = rc.certificate(g, p)
    assert cert.max_d_delta == pytest.approx(1.8)
    assert cert.min_lambda2 == pytest.approx(4.0, abs=1e-9)
    assert cert.passes and cert.strict
    assert cert.ratio_r == pytest.approx(0.45, abs=1e-9)
    assert cert.margin == pytest.approx(0.2, abs=1e-6)


def test_certificate_failing_regime():
    g, p = rc.gen_example_blocks(2, 1.2)
    cert = rc.certificate(g, p)
    assert not cert.passes and not cert.strict
    assert cert.ratio_r == pytest.approx(0.6, abs=1e-9)
    # and the failure is genuine: the oracle finds something better
    res = rc.min_ratio_cut_bruteforce(g, 2)
    assert res.value < rc.ratio_cut(g, p) - 1e-9


def test_certificate_planted_ratio():
    g, p = rc.gen_planted_blocks([3, 3], 1.0, 0.1)
    cert = rc.certificate(g, p)
    assert cert.passes
    assert cert.ratio_r == pytest.approx(0.1 / 3.0, abs=1e-9)


def test_certificate_invariant_fields():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7), 1)
        g = rc.WeightedGraph(w + w.T)
        k = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        p = rc.Partition(rng.permutation(labels), k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random blocks may be singletons
            cert = rc.certificate(g, p)
        assert np.all(cert.d_delta >= 0.0)
        assert np.all(cert.lambda2s >= -1e-9)
        if cert.passes:
            assert cert.ratio_r <= 0.5 + 1e-12
        if cert.strict:
            assert cert.passes


def test_certificate_disconnected_block():
    # one block internally disconnected: ratio is infinite, never passes,
    # even with zero boundary weight
    g = two_disjoint_pairs()
    p = rc.Partition(np.array([0, 0, 0, 0]), 1)
    cert = rc.certificate(g, p)
    assert math.isinf(cert.ratio_r)
    assert not cert.passes and not cert.strict
    # a disconnected block among connected ones, with boundary weight
    w = complete_graph(7).weights.copy()
    w[4:, 4:] = 0.0
    w[4, 5] = w[5, 4] = 2.0
    g = rc.WeightedGraph(w)
    p = rc.Partition(np.array([0, 0, 0, 0, 1, 1, 1]), 2)
    cert = rc.certificate(g, p)
    assert cert.lambda2s.tobytes() == _lambda2s_by_induced_subgraphs(g, p).tobytes()
    assert cert.min_lambda2 == pytest.approx(0.0, abs=1e-12)
    assert math.isinf(cert.ratio_r)
    assert not cert.passes and not cert.strict


def test_certificate_zero_boundary_connected_blocks_passes():
    g = two_disjoint_pairs()
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    cert = rc.certificate(g, p)
    assert cert.max_d_delta == 0.0
    assert cert.passes and cert.strict
    assert cert.ratio_r == 0.0


def test_boundary_sum_identity():
    """Each cross edge is counted once per endpoint, so the boundary
    degrees sum to the per-block cut weights summed over blocks (and to
    twice the total cross weight counted once per edge)."""
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        w = np.triu(rng.uniform(0, 2, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        g = rc.WeightedGraph(w + w.T)
        k = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        p = rc.Partition(rng.permutation(labels), k)
        d = rc.boundary_degrees(g, p)
        block_cuts = sum(rc.cut_weight(g, b) for b in p.blocks())
        cross_once = sum(
            g.weights[i, j]
            for i in range(n)
            for j in range(i + 1, n)
            if p.labels[i] != p.labels[j]
        )
        assert d.sum() == pytest.approx(block_cuts, abs=1e-9)
        assert d.sum() == pytest.approx(2.0 * cross_once, abs=1e-9)


def test_certificate_permutation_invariance():
    g, p = rc.gen_example_blocks(2, 0.9)
    rng = np.random.default_rng(4)
    perm = rng.permutation(g.n)
    g2 = rc.WeightedGraph(g.weights[np.ix_(perm, perm)])
    p2 = rc.Partition(p.labels[perm], p.k)
    a, b = rc.certificate(g, p), rc.certificate(g2, p2)
    assert a.max_d_delta == pytest.approx(b.max_d_delta, abs=1e-9)
    assert a.min_lambda2 == pytest.approx(b.min_lambda2, abs=1e-9)
    assert a.passes == b.passes and a.strict == b.strict


def test_certificate_relabel_invariance():
    g, p = rc.gen_example_blocks(1, 0.8)
    swapped = rc.Partition(1 - p.labels, 2)
    a, b = rc.certificate(g, p), rc.certificate(g, swapped)
    assert a.ratio_r == pytest.approx(b.ratio_r, abs=1e-12)
    assert np.array_equal(a.d_delta, b.d_delta)


def test_strict_certificate_agrees_with_oracle():
    # strict certificate + exhaustive search must name the same partition
    cases = [
        rc.gen_example_blocks(1, 0.5),
        rc.gen_example_blocks(2, 0.9),
        rc.gen_planted_blocks([3, 3], 1.0, 0.1),
        rc.gen_planted_blocks([3, 4, 5], 1.0, 0.2),
    ]
    for g, p in cases:
        cert = rc.certificate(g, p)
        assert cert.strict
        res = rc.min_ratio_cut_bruteforce(g, p.k)
        assert res.unique
        assert rc.same_partition(res.best, p)


def test_certificate_to_dict_round_trips_json():
    g, p = rc.gen_example_blocks(1, 0.5)
    cert = rc.certificate(g, p)
    text = rc.canonical_json(cert.to_dict())
    assert '"passes": true' in text
    assert '"margin"' in text


def density_bound(g, subset):
    """The density lemma's side: cut(S, complement) >= lambda2 |S| |complement| / n."""
    s = len(subset)
    return rc.lambda2(g) * s * (g.n - s) / g.n


def test_density_lower_bound_trivial_cases():
    g = complete_graph(4)
    assert density_bound(g, []) == 0.0
    assert rc.cut_weight(g, []) >= density_bound(g, []) - 1e-9
    # within one component of a disconnected graph the bound is 0
    g2 = two_disjoint_pairs()
    assert density_bound(g2, [0, 1]) == pytest.approx(0.0, abs=1e-9)
    assert rc.cut_weight(g2, [0, 1]) >= density_bound(g2, [0, 1]) - 1e-9


def test_density_lower_bound_tight_on_k4():
    g = complete_graph(4)
    bound, actual = density_bound(g, [0, 1]), rc.cut_weight(g, [0, 1])
    assert bound == pytest.approx(4.0, abs=1e-9)
    assert actual == pytest.approx(4.0)
    assert actual >= bound - 1e-9


def test_density_lower_bound_random_property():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        g = rc.WeightedGraph(w + w.T)
        size = int(rng.integers(0, n + 1))
        subset = rng.choice(n, size=size, replace=False)
        assert rc.cut_weight(g, subset) >= density_bound(g, subset) - 1e-9
