import numpy as np
import pytest

import ratiocut as rc
from ratiocut import eigen, graphs
from ratiocut.errors import InputError


def path_graph(n: int) -> rc.WeightedGraph:
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return rc.WeightedGraph(w)


def complete_graph(n: int, weight: float = 1.0) -> rc.WeightedGraph:
    return rc.WeightedGraph(weight * (1.0 - np.eye(n)))


def test_graph_rejects_bad_shapes():
    with pytest.raises(InputError):
        rc.WeightedGraph(np.zeros((2, 3)))
    with pytest.raises(InputError):
        rc.WeightedGraph(np.zeros(4))


def test_graph_rejects_negative_and_nonfinite():
    w = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InputError):
        rc.WeightedGraph(w)
    # a non-finite entry is bad input, on the diagonal too, which the
    # symmetry rule checks before the diagonal is zeroed
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="finite"):
            rc.WeightedGraph([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(InputError, match="finite"):
            rc.WeightedGraph([[0.0, bad], [bad, 0.0]])


def test_graph_rejects_asymmetric_beyond_tolerance():
    w = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(InputError):
        rc.WeightedGraph(w)
    # tiny asymmetry is absorbed by symmetrization
    w = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    g = rc.WeightedGraph(w)
    assert np.array_equal(g.weights, g.weights.T)


def test_graph_stores_symmetric_weights_bit_for_bit():
    # finite weights near the float maximum must not overflow on the way in,
    # and subnormal weights must not be halved away
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = rc.WeightedGraph(np.full((4, 4), 1e308))
        with pytest.raises(InputError):
            rc.WeightedGraph(np.array([[0.0, 1e308], [-1e308, 0.0]]))
    assert np.all(np.isfinite(g.weights))
    assert np.all(g.weights[~np.eye(4, dtype=bool)] == 1e308)
    w = np.array([[0.0, 5e-324, 0.0], [5e-324, 0.0, 2.5], [0.0, 2.5, 0.0]])
    assert np.array_equal(rc.WeightedGraph(w).weights, w)
    rng = np.random.default_rng(5)
    a = rng.random((7, 7))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    assert rc.WeightedGraph(a).weights.tobytes() == a.tobytes()
    # an asymmetry within tolerance is averaged exactly as before, and an
    # entry pair that agrees keeps its value even next to one that does not
    b = a.copy()
    b[1, 2] += 3e-11
    stored = rc.WeightedGraph(b).weights
    assert b[1, 2] != b[2, 1]  # the input is not written
    assert stored[1, 2] == stored[2, 1] == 0.5 * (b[1, 2] + b[2, 1])
    assert np.array_equal(stored, stored.T)
    off = np.ones((7, 7), dtype=bool)
    off[[1, 2], [2, 1]] = False
    assert np.array_equal(stored[off], a[off])
    c = np.full((3, 3), 1e308)
    c[0, 1] = c[1, 0] = 5e-324
    c[0, 2] = 1.0
    c[2, 0] = 1.0 + 2e-16
    stored = rc.WeightedGraph(c).weights
    assert stored[0, 1] == stored[1, 0] == 5e-324
    assert stored[1, 2] == stored[2, 1] == 1e308
    assert stored[0, 2] == stored[2, 0] == 0.5 * (c[0, 2] + c[2, 0])
    # -0.0 against 0.0 compares equal but is not the same bits: averaged to 0.0
    z = np.zeros((2, 2))
    z[0, 1] = -0.0
    stored = rc.WeightedGraph(z).weights
    assert stored.tobytes() == np.zeros((2, 2)).tobytes()


def test_graph_zeroes_diagonal_and_freezes():
    w = np.array([[0.5, 1.0], [1.0, 0.25]])
    g = rc.WeightedGraph(w)
    assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0
    with pytest.raises(ValueError):
        g.weights[0, 1] = 7.0


def test_is_unweighted():
    assert path_graph(4).is_unweighted()
    assert not complete_graph(3, 0.5).is_unweighted()


def test_partition_validation():
    with pytest.raises(InputError):
        rc.Partition(np.array([0, 0, 2]), 3)  # block 1 empty
    with pytest.raises(InputError):
        rc.Partition(np.array([0, 1]), 1)  # label out of range
    with pytest.raises(InputError):
        rc.Partition(np.array([], dtype=int), 1)
    for k in (0, 4, True, 2.0, 2.5):  # k is an integer in [1, n], not a bool or a float
        with pytest.raises(InputError, match="k must be an integer"):
            rc.Partition(np.array([1, 0, 1]), k)
    p = rc.Partition(np.array([1, 0, 1]), 2)
    assert p.n == 3 and p.k == 2
    # floats are not truncated and a boolean mask is not read as labels
    for bad in ([0.9, 1.7, 0.2], np.array([0.0, 1.0]), np.array([True, False]), [0, 1, True],
                [np.True_, 0], [[0, 1]], [0, 2 ** 70], 1):
        with pytest.raises(InputError, match="labels must"):
            rc.Partition(bad, 2)
    # Python ints and every numpy integer dtype are labels
    for good in ([1, 0, 1], (1, 0, 1), [np.int64(1), 0, np.uint8(1)],
                 *(np.array([1, 0, 1], dtype=t) for t in (np.int8, np.uint8, np.int32, np.int64, np.uint64))):
        assert np.array_equal(rc.Partition(good, 2).labels, [1, 0, 1])
    assert list(p.sizes()) == [1, 2]
    assert list(p.block(1)) == [0, 2]


_G = rc.gen_example_blocks(1, 0.5)[0]  # 4 vertices
_POINTS = np.arange(8.0)[:, None]
# every public door that takes a count, size, index or seed, with one
# out-of-range integer for it; the value under test replaces ``v``
INTEGER_DOORS = {
    "Partition k": (lambda v: rc.Partition([0, 1, 1], v), 4),
    "Partition label": (lambda v: rc.Partition([0, 1, v], 3), 3),
    "eigenmap k": (lambda v: rc.eigenmap(_G, v), 5),
    "kmeans_round k": (lambda v: rc.kmeans_round(_POINTS, v), 9),
    "kmeans_round seed": (lambda v: rc.kmeans_round(_POINTS, 2, seed=v), -1),
    "kmeans_round restarts": (lambda v: rc.kmeans_round(_POINTS, 2, restarts=v), 0),
    "spectral_cluster k": (lambda v: rc.spectral_cluster(_G, v), 0),
    "spectral_cluster seed": (lambda v: rc.spectral_cluster(_G, 2, seed=v), -1),
    "spectral_cluster restarts": (lambda v: rc.spectral_cluster(_G, 2, restarts=v), 0),
    "min_ratio_cut_bruteforce k": (lambda v: rc.min_ratio_cut_bruteforce(_G, v), 5),
    "gen_example_blocks n": (lambda v: rc.gen_example_blocks(v, 0.5), 0),
    "gen_planted_blocks size": (lambda v: rc.gen_planted_blocks([3, v], 1.0, 0.1), 0),
    "recovery_diagnostics n": (lambda v: rc.recovery_diagnostics(0.1, v), 0),
    "cut_weight index": (lambda v: rc.cut_weight(_G, [0, v]), 4),
    "induced_subgraph index": (lambda v: rc.induced_subgraph(_G, [0, v]), -1),
}


@pytest.mark.parametrize("door", sorted(INTEGER_DOORS))
def test_every_count_size_index_and_seed_is_an_integer_in_range(door):
    # one rule: a non-bool integer that fits int64 and lies in range; a
    # float of integral value is not truncated and a bool is not a count
    call, out_of_range = INTEGER_DOORS[door]
    for value in (True, 2.0, 2.5, 2 ** 70, out_of_range):
        with pytest.raises(InputError):
            call(value)
    call(2)  # and 2 itself is accepted


def test_integer_rules():
    for value in (1, 3, np.int8(2), np.uint64(3)):
        graphs.check_int("k", value, 1, 3)
    for value in (0, 4, True, np.True_, 2.0, np.float64(2), 2.5, "2", None, 2 ** 70):
        with pytest.raises(InputError, match=r"k must be an integer in \[1, 3\], got "):
            graphs.check_int("k", value, 1, 3)
    with pytest.raises(InputError, match="9223372036854775807"):  # the default upper end fits int64
        graphs.check_int("seed", 2 ** 63, 0)
    graphs.check_int("seed", 2 ** 63 - 1, 0)
    assert not hasattr(graphs, "check_block_count")
    for good in ([1, 0, 1], (1, 0, 1), range(3), [np.uint8(1), 2 ** 63 - 1], np.array([2], dtype=np.uint16)):
        got = graphs._int_vector(good, "kind", "span")
        assert got.dtype == np.int64 and got.tolist() == [int(v) for v in good]
    for bad in ([0.0], [True], [np.True_], np.array([True]), np.array([1.0]), [[1]], np.array([[1]]), 1, [None]):
        with pytest.raises(InputError, match="kind"):
            graphs._int_vector(bad, "kind", "span")
    for bad in ([2 ** 63], [-2 ** 63 - 1], [0, 2 ** 70]):
        with pytest.raises(InputError, match="span"):
            graphs._int_vector(bad, "kind", "span")
    held = np.array([1, 2])
    assert graphs._int_vector(held, "kind", "span") is not held


def test_canonical_labels_first_occurrence():
    p = rc.Partition(np.array([2, 2, 0, 1, 0]), 3)
    assert list(p.canonical_labels()) == [0, 0, 1, 2, 1]


def canonical_labels_by_loop(labels):
    """Reference: number the blocks in order of first occurrence, one vertex at a time."""
    mapping = {}
    return [mapping.setdefault(int(lab), len(mapping)) for lab in labels]


def test_canonical_labels_match_the_first_occurrence_loop():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, n + 1))
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]))
        out = rc.Partition(labels, k).canonical_labels()
        assert out.dtype == int
        assert out.tolist() == canonical_labels_by_loop(labels), labels


def test_same_partition_up_to_relabeling():
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    q = rc.Partition(np.array([1, 1, 0, 0]), 2)
    r_ = rc.Partition(np.array([0, 1, 0, 1]), 2)
    assert rc.same_partition(p, q)
    assert not rc.same_partition(p, r_)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(7)
    w = rng.uniform(0, 2, (6, 6))
    w = np.triu(w, 1)
    g = rc.WeightedGraph(w + w.T)
    lap = rc.laplacian(g)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(lap, lap.T)


def test_block_laplacian_cut_from_the_weights_is_the_induced_subgraph_laplacian():
    from ratiocut.graphs import weights_laplacian

    rng = np.random.default_rng(12)
    w = np.triu(rng.uniform(0, 2, (9, 9)) * (rng.random((9, 9)) < 0.6), 1)
    g = rc.WeightedGraph(w + w.T)
    block = np.array([0, 2, 3, 7])
    lap = weights_laplacian(g.weights[np.ix_(block, block)])
    assert lap.tobytes() == rc.laplacian(rc.induced_subgraph(g, block)).tobytes()
    assert rc.laplacian(g).flags.writeable and not g.weights.flags.writeable


def test_laplacian_positive_semidefinite():
    # independent check through numpy's eigensolver
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = np.triu(rng.uniform(0, 1, (8, 8)), 1)
        g = rc.WeightedGraph(w + w.T)
        eigs = np.linalg.eigvalsh(rc.laplacian(g))
        assert eigs.min() >= -1e-9


def test_cut_weight_examples():
    k4 = complete_graph(4)
    assert rc.cut_weight(k4, [0, 1]) == 4.0
    assert rc.cut_weight(k4, []) == 0.0
    assert rc.cut_weight(k4, [0, 1, 2, 3]) == 0.0
    p3 = path_graph(3)
    assert rc.cut_weight(p3, [1]) == 2.0


def test_cut_weight_validates_subset():
    g = complete_graph(3)
    with pytest.raises(InputError):
        rc.cut_weight(g, [0, 0])
    with pytest.raises(InputError):
        rc.cut_weight(g, [3])
    with pytest.raises(InputError):
        rc.cut_weight(g, [-1])
    # a mask or a float is not a list of vertex indices
    edge = complete_graph(2)
    for bad in (np.array([False, True]), [True], [0, True], [0.9], np.array([1.0]), [np.float64(0)]):
        with pytest.raises(InputError, match="integer vertex indices"):
            rc.cut_weight(edge, bad)
        with pytest.raises(InputError, match="integer vertex indices"):
            rc.induced_subgraph(edge, bad)
    with pytest.raises(InputError, match="integer vertex indices"):
        rc.induced_subgraph(g, [1.7])
    # an index too large for int64 is out of range, not an OverflowError
    for bad in ([0, -2 ** 70], np.array([2 ** 64 - 1], dtype=np.uint64)):
        with pytest.raises(InputError, match="out of range"):
            rc.cut_weight(g, bad)
        with pytest.raises(InputError, match="out of range"):
            rc.induced_subgraph(g, bad)
    # integer indices of any integer type, and the empty subset, stay valid
    assert rc.cut_weight(edge, np.array([1], dtype=np.int8)) == 1.0
    assert rc.cut_weight(edge, [np.int64(0)]) == 1.0
    assert rc.cut_weight(edge, []) == 0.0
    assert rc.cut_weight(edge, np.array([], dtype=int)) == 0.0


def ratio_cut_by_trace(g: rc.WeightedGraph, p: rc.Partition) -> float:
    """Independent route: RatioCut = Tr(U^T L U) with indicator columns."""
    u = np.zeros((g.n, p.k))
    sizes = p.sizes()
    u[np.arange(g.n), p.labels] = 1.0 / np.sqrt(sizes[p.labels])
    return float(np.trace(u.T @ rc.laplacian(g) @ u))


def test_ratio_cut_matches_trace_formula():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n + 1))
        w = np.triu(rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        g = rc.WeightedGraph(w + w.T)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        p = rc.Partition(rng.permutation(labels), k)
        assert rc.ratio_cut(g, p) == pytest.approx(ratio_cut_by_trace(g, p), abs=1e-9)


def test_partition_of_the_wrong_size_is_an_input_error_everywhere():
    g = rc.WeightedGraph(np.ones((7, 7)))
    entry_points = [rc.ratio_cut, eigen.block_lambda2s, graphs.cross_weights, rc.boundary_degrees,
                    rc.certificate, rc.theoretical_bound]
    # shorter, with blocks the theorem accepts; longer; and too small for the theorem
    for labels in ([0, 0, 0, 1, 1, 1], [0] * 4 + [1] * 4, [0, 1]):
        p = rc.Partition(labels, 2)
        for f in entry_points:
            with pytest.raises(InputError, match=f"partition has {p.n} labels but the graph has 7 vertices"):
                f(g, p)


def test_ratio_cut_zero_for_disjoint_split():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = rc.WeightedGraph(w)
    p = rc.Partition(np.array([0, 0, 1, 1]), 2)
    assert rc.ratio_cut(g, p) == 0.0


def test_induced_subgraph():
    g = complete_graph(4, 0.5)
    sub = rc.induced_subgraph(g, [0, 2, 3])
    assert sub.n == 3
    assert np.allclose(sub.weights, 0.5 * (1.0 - np.eye(3)))
    with pytest.raises(InputError):
        rc.induced_subgraph(g, [1, 1])


def test_connected_components_and_diameter():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    g = rc.WeightedGraph(w)
    assert not rc.is_connected(g)
    with pytest.raises(InputError):
        rc.diameter(g)
    assert rc.is_connected(rc.WeightedGraph([[0.0]]))  # one vertex is connected
    assert not hasattr(graphs, "connected_components")  # is_connected is one BFS from vertex 0

    p10 = path_graph(10)
    assert rc.is_connected(p10)
    assert rc.diameter(p10) == 9
    assert rc.diameter(complete_graph(4)) == 1


def test_bfs_distances():
    p4 = path_graph(4)
    assert graphs._bfs(graphs._neighbours(p4), 0) == [0, 1, 2, 3]


def _hop_distances(w: np.ndarray) -> np.ndarray:
    """All-pairs hop distances by repeated boolean products of the adjacency; -1 if unreachable."""
    adj = (w > 0).astype(float)
    n = adj.shape[0]
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier = np.eye(n)
    for hops in range(1, n):
        frontier = ((frontier @ adj) > 0) & (dist < 0)
        if not frontier.any():
            break
        dist[frontier] = hops
        frontier = frontier.astype(float)
    return dist


def _bfs_reference_graphs():
    rng = np.random.default_rng(5)
    graphs = []
    for n in (1, 2, 9, 30, 80, 200):
        graphs.append(path_graph(n))
        w = np.zeros((n, n))
        for i in range(n):  # a cycle (a single vertex or edge for n < 3)
            if i != (i + 1) % n:
                w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
        graphs.append(rc.WeightedGraph(w))
    for rows, cols in ((1, 7), (3, 3), (5, 5), (7, 12), (10, 20)):
        n = rows * cols
        v = np.arange(n)
        w = np.zeros((n, n))
        right = v[v % cols < cols - 1]
        w[right, right + 1] = w[right + 1, right] = 1.0
        w[v[:-cols], v[:-cols] + cols] = w[v[:-cols] + cols, v[:-cols]] = 1.0
        graphs.append(rc.WeightedGraph(w))
    for n, density in ((12, 0.2), (40, 0.1), (120, 0.03), (200, 0.02)):
        order = rng.permutation(n)  # a random spanning path keeps the graph connected
        w = np.triu(rng.random((n, n)) < density, 1).astype(float)
        w[order[:-1], order[1:]] = 1.0
        graphs.append(rc.WeightedGraph(np.maximum(w, w.T)))
    return graphs


def test_bfs_diameter_and_components_match_boolean_products():
    for g in _bfs_reference_graphs():
        dist = _hop_distances(g.weights)
        adj = graphs._neighbours(g)
        for source in range(g.n):
            assert np.array_equal(graphs._bfs(adj, source), dist[source])
        assert rc.diameter(g) == dist.max()
        assert rc.is_connected(g)
    # disconnected, weighted: connected exactly when vertex 0 reaches every vertex
    rng = np.random.default_rng(6)
    for n in (15, 60):
        w = np.triu(rng.random((n, n)) < 1.5 / n, 1) * rng.uniform(0.1, 2.0, (n, n))
        g = rc.WeightedGraph(w + w.T)
        dist = _hop_distances(g.weights)
        assert not np.all(dist >= 0)
        assert not rc.is_connected(g)
        with pytest.raises(InputError):
            rc.diameter(g)
    # vertex 0 reaches all but one vertex, or only itself
    for isolated in (0, 1, 8):
        w = 1.0 - np.eye(9)
        w[isolated, :] = w[:, isolated] = 0.0
        g = rc.WeightedGraph(w)
        assert not np.all(_hop_distances(g.weights) >= 0)
        assert not rc.is_connected(g)


def test_gen_example_blocks_structure():
    n, c = 2, 0.9
    g, p = rc.gen_example_blocks(n, c)
    assert g.n == 4 * n
    assert p.k == 2
    assert list(p.sizes()) == [2 * n, 2 * n]
    # boundary degree of every vertex in the planted split is c*n
    d = rc.boundary_degrees(g, p)
    assert np.allclose(d, c * n)
    # diagonal is clean and the graph is symmetric by construction
    assert np.all(np.diag(g.weights) == 0.0)


def test_gen_example_blocks_intra_connectivity():
    # each planted block is a complete graph on 2n vertices, algebraic
    # connectivity 2n
    for n in (1, 2, 3):
        g, p = rc.gen_example_blocks(n, 1.0)
        lam = rc.certificate(g, p).lambda2s
        assert np.allclose(lam, 2 * n, atol=1e-9)


def test_gen_unbalanced_example(unbalanced):
    g, p = unbalanced
    assert g.n == 603
    assert list(p.sizes()) == [3, 300, 300]
    d = rc.boundary_degrees(g, p)
    nonzero = np.flatnonzero(d)
    assert len(nonzero) == 4
    assert np.allclose(d[nonzero], 0.5)


def test_gen_planted_blocks():
    sizes = [3, 4, 5]
    g, p = rc.gen_planted_blocks(sizes, 1.0, 0.25)
    assert g.n == 12
    assert list(p.sizes()) == sizes
    d = rc.boundary_degrees(g, p)
    assert d.max() == 0.25
    # cross edges connect consecutive blocks only
    assert rc.cut_weight(g, p.block(0)) == 0.25
    assert rc.cut_weight(g, p.block(1)) == 0.5
    lam = rc.certificate(g, p).lambda2s
    assert np.allclose(lam, sizes, atol=1e-9)


def test_gen_planted_blocks_validation():
    with pytest.raises(InputError):
        rc.gen_planted_blocks([], 1.0, 0.1)
    with pytest.raises(InputError):
        rc.gen_planted_blocks([3, 0], 1.0, 0.1)
    # sizes are integers: a float is refused, not truncated
    for sizes in ([2.9, 3], np.array([2.0, 3.0])):
        with pytest.raises(InputError, match="every block size must be an integer >= 1"):
            rc.gen_planted_blocks(sizes, 1.0, 0.1)
    for sizes in ([2, 3], (2, 3), np.array([2, 3], dtype=np.int8)):
        assert rc.gen_planted_blocks(sizes, 1.0, 0.1)[1].sizes().tolist() == [2, 3]
    with pytest.raises(InputError):
        rc.gen_planted_blocks([3, 3], -1.0, 0.1)
