"""Sandwich the exact sup-norm spectral gap between its cheap bounds.

For a connected graph, the smallest value of ||L x||_inf over mean-zero
vectors with ||x||_inf = 1 measures how strongly the Laplacian acts in
the worst coordinate. It is bounded below by lambda2 / (2 ln n), above by
lambda2, and for unweighted graphs also by 4 * max degree / diameter.
The exact value is the smallest optimum of one linear program per pinned
coordinate, which has a closed form in the Laplacian's pseudo-inverse.

Paths are the classic near-tight case for the diameter bound; dense
random graphs sit close to lambda2 instead.
"""
import numpy as np

import ratiocut as rc


def path(n: int) -> rc.WeightedGraph:
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return rc.WeightedGraph(w)


def random_graph(n: int, p: float, seed: int) -> rc.WeightedGraph:
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0  # a path keeps it connected
    mask = rng.random((n, n)) < p
    mask = np.triu(mask, 1)
    w[mask | mask.T] = 1.0
    return rc.WeightedGraph(w)


def row(name: str, g: rc.WeightedGraph) -> None:
    lower = rc.gap_lower_bound(g)
    exact = rc.gap_exact(g)
    upper = rc.gap_upper_bound_unweighted(g)
    lam2 = rc.lambda2(g)
    print(f"{name:<14} {lower:9.4f} <= {exact:9.4f} <= "
          f"min({lam2:.4f}, {upper:.4f})")


if __name__ == "__main__":
    print(f"{'graph':<14} {'lower':>9}    {'exact':>9}    upper candidates")
    for n in [5, 10, 20, 30]:
        row(f"path n={n}", path(n))
    for n in [10, 20, 30]:
        row(f"random n={n}", random_graph(n, 0.4, seed=n))
    print()
    print("On long paths the exact gap tracks the diameter-based upper bound;")
    print("on dense random graphs it hugs lambda2 and the lower bound is the")
    print("loose side. The lower bound is what feeds the embedding analysis.")
