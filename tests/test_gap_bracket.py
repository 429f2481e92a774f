"""The certificate of the sup-norm gap.

``simplex.gap_certificate`` returns a weak-duality lower bound on every
pinned program's optimum and the ratio ||Lx||_inf / ||x - mean(x)||_inf of
one real vector, an upper bound on the gap (the smallest optimum over all
pins). HiGHS solves the same programs as an independent route.
"""
import numpy as np
import pytest

import ratiocut as rc
from ratiocut import simplex
from ratiocut.cli import main
from ratiocut.errors import SolverError
from ratiocut.tolerances import DEFAULT as TOL


def path_weights(n, cycle=False):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    if cycle:
        w[0, n - 1] = w[n - 1, 0] = 1.0
    return w


def grid_weights(rows, cols):
    n = rows * cols
    w = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                w[v, v + 1] = w[v + 1, v] = 1.0
            if r + 1 < rows:
                w[v, v + cols] = w[v + cols, v] = 1.0
    return w


def bracket_families():
    rng = np.random.default_rng(5)
    graphs = {}
    for n in range(3, 21):
        w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        graphs[f"random{n}"] = w + w.T
    # nearly complete unweighted graphs, whose pinned programs are badly
    # conditioned (optimal multipliers can span twelve orders of magnitude)
    for n in (26, 36):
        w = np.triu((rng.random((n, n)) < 0.93).astype(float), 1)
        graphs[f"dense{n}"] = w + w.T
    for n in (3, 10):
        graphs[f"P{n}"] = path_weights(n)
    for n in (5, 8):
        graphs[f"C{n}"] = path_weights(n, cycle=True)
    graphs["grid3x4"] = grid_weights(3, 4)
    graphs["grid4x4"] = grid_weights(4, 4)
    for m in (2, 5, 9):
        graphs[f"K{m}"] = 1.0 - np.eye(m)
    graphs["zero"] = np.zeros((5, 5))
    triangles = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        triangles[a, b] = triangles[b, a] = 1.0
    graphs["two-triangles"] = triangles
    return graphs


@pytest.mark.parametrize("name,weights", sorted(bracket_families().items()))
def test_certificate_brackets_the_highs_optimum(name, weights, highs_pinned):
    g = rc.WeightedGraph(weights)
    lap = rc.laplacian(g)
    optima = highs_pinned(lap)
    gap = optima.min()
    slack = 1e-9 * max(1.0, gap)
    exact = rc.gap_exact(g)
    if not rc.is_connected(g):
        assert exact == 0.0 and abs(gap) <= slack
        return
    lowers, upper = simplex.gap_certificate(lap)
    assert np.all(lowers <= optima + 1e-9 * np.maximum(1.0, optima)), name
    assert upper >= gap - slack
    # the returned value is the certificate's upper end: never below the
    # gap, and above it by at most the bracket width
    assert exact == upper
    assert gap - slack <= exact <= gap + TOL.gap_bracket * max(1.0, gap) + slack


def corrupt_inverse(monkeypatch):
    """Make every matrix inverse off by 1e-3 on its diagonal (an error
    constant along columns would cancel in the certificate)."""
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) + 1e-3 * np.eye(len(a)))


def test_corrupted_solve_raises_solver_error(monkeypatch):
    corrupt_inverse(monkeypatch)
    with pytest.raises(SolverError, match="gap bracket .* did not close"):
        rc.gap_exact(rc.WeightedGraph(path_weights(6)))


def test_corrupted_solve_makes_gap_exit_4(tmp_path, monkeypatch, capsys):
    g_path = tmp_path / "g.tsv"
    rc.write_edge_list(g_path, rc.WeightedGraph(path_weights(6)))
    corrupt_inverse(monkeypatch)
    assert main(["gap", "--input", str(g_path), "--output", str(tmp_path / "o.json")]) == 4
    assert "did not close" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
