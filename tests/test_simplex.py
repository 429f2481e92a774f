"""The pinned gap programs solved by ``simplex.gap_certificate``.

Pin i: minimize t over (x, t) with -t <= (Lx)_r <= t, |x_j| <= 1,
sum(x) = 0 and x_i = 1; the gap is the smallest optimum over the pins.
"""
import numpy as np
import pytest

import ratiocut as rc
from ratiocut import simplex
from ratiocut.tolerances import DEFAULT as TOL


def complete_laplacian(m):
    return rc.laplacian(rc.WeightedGraph(1.0 - np.eye(m)))


def test_tiny_lp_by_hand():
    # K_m: L = m I - 11^T, so Lx = m x for every x perp 1 and every pin's
    # optimum is m (K2: x = (1, -1), t = 2)
    for m in (2, 3, 4):
        lowers, upper = simplex.gap_certificate(complete_laplacian(m))
        assert upper == pytest.approx(m, abs=1e-9)
        assert lowers == pytest.approx(np.full(m, float(m)), abs=1e-9)


def test_singular_inverse_is_a_solver_error():
    # L + 11^T / n is the zero matrix here, so numpy's inverse fails
    with pytest.raises(rc.SolverError, match="^Laplacian inverse failed: Singular matrix$"):
        simplex.gap_certificate(-np.ones((2, 2)) / 2)


def test_degenerate_lp_is_deterministic():
    # every vector perp 1 is optimal on K5; the certificate must not depend
    # on anything but the input
    lap = complete_laplacian(5)
    first = simplex.gap_certificate(lap)
    second = simplex.gap_certificate(lap.copy())
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def test_random_lps_match_scipy(highs_pinned):
    """Cross-check the certificate against an independent solver.

    A path of weight >= 1 under every draw keeps the graph connected.
    """
    rng = np.random.default_rng(42)
    for trial in range(15):
        n = int(rng.integers(3, 13))
        w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.4), 1)
        for i in range(n - 1):
            w[i, i + 1] = max(w[i, i + 1], 1.0)
        lap = rc.laplacian(rc.WeightedGraph(w + w.T))

        lowers, upper = simplex.gap_certificate(lap)
        optima = highs_pinned(lap)
        gap = optima.min()
        assert np.all(lowers <= optima + 1e-9 * np.maximum(1.0, optima))
        assert upper - lowers.min() <= TOL.gap_bracket * upper
        assert upper == pytest.approx(gap, abs=1e-7)
