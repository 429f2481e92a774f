"""The certificate of the sup-norm gap.

``simplex.gap_certificate`` returns a weak-duality lower bound on every
pinned program's optimum and the ratio ||Lx||_inf / ||x - mean(x)||_inf of
one real vector, an upper bound on the gap (the smallest optimum over all
pins). HiGHS solves the same programs as an independent route.
``gap_exact`` runs it on the Laplacian at its own scale: ``L`` times 2^-e,
e the exponent of its largest entry.
"""
import math
import warnings

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


def own_scale_certificate(lap):
    """``gap_certificate`` of ``lap`` times 2^-e, as ``gap_exact`` runs it, and e."""
    e = int(np.frexp(lap.max())[1])
    return (*simplex.gap_certificate(np.ldexp(lap, -e)), e)


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
    # the returned value is the upper end of the certificate at the
    # Laplacian's own scale: never below the gap, and above it by at most
    # the bracket width, relative to the value
    lowers, upper, e = own_scale_certificate(lap)
    assert exact == math.ldexp(upper, e)
    assert upper - lowers.min() <= TOL.gap_bracket * upper
    assert gap - slack <= exact <= gap + TOL.gap_bracket * exact + slack


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


def huge_weight_graphs():
    """Connected graphs with weights near 1e300, where the ``+ 1/n`` of
    ``inv(L + 11^T / n)`` swamps ``L^+``: a column of the inverse, or the
    primal vector built from it, comes out constant."""
    graphs = []
    rng = np.random.default_rng(0)
    for draw in range(289):  # 8 vertices; draws 152, 232, 288 have a constant column
        w = np.triu(rng.random((8, 8)) < 0.5, 1) * rng.uniform(1.8e299, 1e300, (8, 8))
        i = np.arange(7)
        w[i, i + 1] = np.maximum(w[i, i + 1], 1.8e299)
        if draw in (152, 232, 288):
            graphs.append(w + w.T)
    rng = np.random.default_rng(1)
    for draw in range(2463):  # draws 1724 and 2462 have a constant primal vector
        n = int(rng.integers(3, 12))
        lo = 10.0 ** rng.uniform(290, 300)
        w = np.triu((rng.random((n, n)) < rng.uniform(0.2, 1)) * rng.uniform(lo, 5 * lo, (n, n)), 1)
        i = np.arange(n - 1)
        w[i, i + 1] = np.maximum(w[i, i + 1], lo)
        if draw in (1724, 2462):
            graphs.append(w + w.T)
    return graphs


def test_constant_inverse_raises_solver_error_before_dividing():
    for weights in huge_weight_graphs():
        g = rc.WeightedGraph(weights)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="constant"):
                simplex.gap_certificate(rc.laplacian(g))
            # at the Laplacian's own scale the 1/n no longer swamps L^+, and
            # the bracket closes relative to the value
            lowers, upper, e = own_scale_certificate(rc.laplacian(g))
            assert upper - lowers.min() <= TOL.gap_bracket * upper
            assert rc.gap_exact(g) == math.ldexp(upper, e)
