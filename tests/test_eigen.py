import warnings

import numpy as np
import pytest

import ratiocut as rc
from ratiocut import eigen
from ratiocut.errors import InputError, SolverError


def path3():
    w = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    return rc.WeightedGraph(w)


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_graph(rng, n):
    w = np.triu(rng.random((n, n)), 1)
    return rc.WeightedGraph(w + w.T)


def test_path3_eigenvalues_exact():
    # characteristic polynomial of the path Laplacian [[1,-1,0],[-1,2,-1],[0,-1,1]]
    # is -x(x-1)(x-3), so the spectrum is {0, 1, 3}
    emb = rc.eigenmap(path3(), 3)
    values, vectors = emb.values, emb.U
    assert np.allclose(values, [0.0, 1.0, 3.0], atol=1e-9)
    # residual check
    lap = rc.laplacian(path3())
    assert np.linalg.norm(lap @ vectors - vectors * values) < 1e-9


def test_eigenvalues_match_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    # indefinite matrices, which no graph's Laplacian is, go to the checked
    # solve itself
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        a = random_symmetric(rng, n)
        values, vectors, _ = eigen._checked_eigh(a)
        expected = scipy_linalg.eigvalsh(a)
        assert np.allclose(values, expected, atol=1e-8 * (1 + np.abs(a).max()))
        # columns diagonalize a
        assert np.allclose(vectors.T @ a @ vectors, np.diag(values), atol=1e-8)


def test_orthonormality_and_residual():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        a = random_symmetric(rng, n)
        values, vectors, _ = eigen._checked_eigh(a)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n)) <= 1e-8 * scale
        assert np.linalg.norm(a @ vectors - vectors * values) <= 1e-8 * scale
        assert np.all(np.diff(values) >= -1e-12)  # ascending


def test_sign_convention():
    values, vectors, _ = eigen._checked_eigh(np.diag([3.0, 1.0, 2.0]))
    vectors = eigen._fix_signs(vectors)
    assert np.allclose(values, [1.0, 2.0, 3.0])
    # each column's largest-magnitude entry is positive
    for j in range(3):
        col = vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    # deterministic: identity vectors in sorted order
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_sign_convention_is_stable_under_negation():
    rng = np.random.default_rng(23)
    v1 = rc.eigenmap(random_graph(rng, 6), 6).U
    for j in range(6):
        col = v1[:, j]
        assert col[np.argmax(np.abs(col))] > 0
    assert np.array_equal(eigen._fix_signs(-v1), v1)


def test_repeated_runs_identical():
    rng = np.random.default_rng(29)
    g = random_graph(rng, 12)
    first = rc.eigenmap(g, 12)
    eigen._solve.cache_clear()  # so the second run solves afresh
    second = rc.eigenmap(g, 12)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.U, second.U)


def test_sym_eig_rejects_corrupted_basis(monkeypatch):
    # at every weight scale: the check is relative to the matrix, with no
    # floor that turns it absolute below norm 1
    w = random_graph(np.random.default_rng(31), 8).weights
    eigh = np.linalg.eigh

    def swapped_columns(m):
        values, vectors = eigh(m)
        return values, vectors[:, ::-1]

    def non_orthonormal(m):
        values, vectors = eigh(m)
        vectors[:, 0] *= 1.0 + 1e-6
        return values, vectors

    for fake in (swapped_columns, non_orthonormal):
        monkeypatch.setattr(eigen.np.linalg, "eigh", fake)
        for scale in (1.0, 1e-3, 1e-6, 1e-9, 1e-12, 2.0 ** 60, 2.0 ** -60):
            with pytest.raises(SolverError):
                rc.eigenmap(rc.WeightedGraph(scale * w), 8)


def test_sym_eig_reports_lapack_failure(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(eigen.np.linalg, "eigh", failing)
    with pytest.raises(SolverError, match="did not converge"):
        rc.eigenmap(path3(), 3)


def test_degenerate_eigenspace_spans_centered_projector():
    # the complete graph K_m has Laplacian m I - 11^T: eigenvalue 0 once and
    # m with multiplicity m - 1, whose eigenspace is the complement of 1.
    # LAPACK may return any basis of it, but the projector is fixed.
    for m in (3, 5, 8):
        emb = rc.eigenmap(rc.WeightedGraph(1.0 - np.eye(m)), m)
        values, vectors = emb.values, emb.U
        assert np.allclose(values, [0.0] + [float(m)] * (m - 1), atol=1e-9)
        block = vectors[:, 1:]
        projector = np.eye(m) - np.ones((m, m)) / m
        assert np.max(np.abs(block @ block.T - projector)) <= 1e-9


def test_eigenmap_shapes_and_errors():
    g = path3()
    emb = rc.eigenmap(g, 2)
    assert emb.U.shape == (3, 2)
    assert emb.values.shape == (2,)
    assert emb.n == 3 and emb.k == 2
    with pytest.raises(InputError):
        rc.eigenmap(g, 0)
    with pytest.raises(InputError):
        rc.eigenmap(g, 4)
    # k is an integer: a bool or a float is refused, not read as a count
    for k in (True, 2.0, 2.5):
        with pytest.raises(InputError, match="k must be an integer"):
            rc.eigenmap(g, k)


def test_eigenmap_first_column_is_constant():
    # connected graph: the 0-eigenvector is 1/sqrt(n), positive by the
    # sign convention
    g, _ = rc.gen_example_blocks(1, 0.5)
    emb = rc.eigenmap(g, 1)
    assert np.allclose(emb.U[:, 0], 1.0 / 2.0, atol=1e-9)


def test_lambda2_values():
    assert rc.lambda2(path3()) == pytest.approx(1.0, abs=1e-9)
    for m in (2, 3, 5):
        km = rc.WeightedGraph(1.0 - np.eye(m))
        assert rc.lambda2(km) == pytest.approx(m, abs=1e-9)


def test_lambda2_zero_iff_disconnected():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    assert rc.lambda2(rc.WeightedGraph(w)) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InputError):
        rc.lambda2(rc.WeightedGraph(np.zeros((1, 1))))
    with pytest.raises(InputError, match="Fiedler vector needs at least 2 vertices"):
        rc.fiedler(rc.WeightedGraph(np.zeros((1, 1))))


def test_lambda2_equals_the_sym_eig_value_bit_for_bit():
    # lambda2, eigenmap and fiedler equal LAPACK's full solve of the
    # Laplacian, with the sign convention applied to each column alone
    rng = np.random.default_rng(32)
    for trial in range(40):
        n = int(rng.integers(2, 30))
        w = np.triu(rng.random((n, n)) < 0.4, 1).astype(float)
        if trial % 2:
            w *= rng.random((n, n)) * 10.0 ** rng.integers(-3, 4)
        g = rc.WeightedGraph(w + w.T)
        values, vectors = np.linalg.eigh(rc.laplacian(g))
        vectors = eigen._fix_signs(vectors)
        assert rc.lambda2(g) == float(values[1])
        for k in range(1, n + 1):
            emb = rc.eigenmap(g, k)
            assert np.array_equal(emb.U, vectors[:, :k]) and np.array_equal(emb.values, values[:k])
        assert np.array_equal(rc.fiedler(g), vectors[:, 1])


def test_lambda2_checks_its_solve(monkeypatch):
    eigh = np.linalg.eigh

    def non_orthonormal(m):
        values, vectors = eigh(m)
        vectors[:, 0] *= 1.0 + 1e-6
        return values, vectors

    monkeypatch.setattr(eigen.np.linalg, "eigh", non_orthonormal)
    with pytest.raises(SolverError):
        rc.lambda2(path3())


def test_solves_whose_matrix_norm_overflows_raise():
    # the Laplacian's norm ||L||_inf (largest absolute row sum) overflows, so
    # a bound on the error radius scaled by it would pass anything
    g = rc.WeightedGraph([[0.0, 1e308], [1e308, 0.0]])
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError, match="overflows"):
            rc.lambda2(g)
        with pytest.raises(SolverError, match="overflows"):
            eigen.block_lambda2s(g, rc.Partition([0, 0], 1))
        with pytest.raises(SolverError, match="overflows"):
            rc.eigenmap(g, 2)


def test_solves_whose_squared_entries_overflow_are_checked():
    # the squared entries overflow, but the check forms the residual's norm
    # at a power-of-two scale, so nothing overflows
    g = rc.WeightedGraph([[0.0, 1e200], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rc.lambda2(g) == 2e200
        assert np.array_equal(eigen.block_lambda2s(g, rc.Partition([0, 0], 1))[0], [2e200])
        emb = rc.eigenmap(g, 2)
        assert np.array_equal(emb.values, [0.0, 2e200])
        assert np.allclose(np.abs(emb.U), np.sqrt(0.5), rtol=1e-15)
        assert np.allclose(rc.fiedler(g), [np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-15)
        # an indefinite matrix with ||A||_inf = 1e308: finite, so checked
        values, vectors, _ = eigen._checked_eigh(np.array([[0.0, 1e308], [1e308, 0.0]]))
    assert np.array_equal(values, [-1e308, 1e308])
    assert np.allclose(np.abs(vectors), np.sqrt(0.5), rtol=1e-15)


def test_fiedler_vector():
    g = path3()
    f = rc.fiedler(g)
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-9)
    # second eigenvector of the path separates the endpoints
    assert f[0] * f[2] < 0
    lap = rc.laplacian(g)
    assert np.linalg.norm(lap @ f - 1.0 * f) < 1e-8
