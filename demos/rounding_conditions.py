"""When is rounding the embedding guaranteed to preserve the blocks?

Two geometric checks on the spectral embedding:

  * the proximity condition compares each pair of centroid distances
    against a spread-based threshold; when it holds, the blocks are
    linearly separated by centroid bisectors and come with a margin,
  * the ball-separation bound says that if every embedded block sits in
    a ball of radius rho and two centroids are d apart, any bisector of
    two member points clears both balls by at least d/2 - 3*rho.

Both are verifiable from data alone; no planted truth required.
"""
import numpy as np

import ratiocut as rc


def main() -> None:
    g, planted = rc.gen_planted_blocks([8, 12, 16], 1.0, 0.01)
    emb = rc.eigenmap(g, 3)
    points = emb.U

    prox = rc.proximity_check(points, planted)
    off_diag = ~np.eye(planted.k, dtype=bool)
    print("proximity condition on the embedded planted blocks:")
    print(f"  separated by centroid bisectors: {bool(prox.separated[off_diag].all())}")
    print(f"  worst pair margin xi = {prox.xi[off_diag].min():.6f}")
    print(f"  condition holds: {prox.holds}")
    print(f"  spread concentration: spectral {prox.spectral_sq_sum:.3e}"
          f" <= frobenius {prox.frobenius_sq_sum:.3e}")
    print()

    # ball-separation margin for the two largest blocks
    b1, b2 = planted.block(1), planted.block(2)
    c1 = points[b1].mean(axis=0)
    c2 = points[b2].mean(axis=0)
    rho = max(
        np.linalg.norm(points[b1] - c1, axis=1).max(),
        np.linalg.norm(points[b2] - c2, axis=1).max(),
    )
    x, y = points[b1[0]], points[b2[0]]
    margin, bound = rc.hyperplane_margin_bound(c1, c2, rho, x, y)
    print("ball separation between blocks 1 and 2:")
    print(f"  center distance {np.linalg.norm(c1 - c2):.4f}, "
          f"enclosing radius {rho:.6f}")
    print(f"  bisector margin {margin:.4f} >= guaranteed {bound:.4f}")
    print()

    found = rc.spectral_cluster(g, 3, seed=0)
    print(f"k-means rounding recovers the planted blocks: "
          f"{rc.same_partition(found.partition, planted)} "
          f"(ratio cut {rc.ratio_cut(g, found.partition):.4g})")


if __name__ == "__main__":
    main()
