"""Recover three very unequal blocks where balance-based analyses give up.

The instance: complete blocks of sizes 3, 300, and 300 joined in a chain
by two edges of weight 0.5, with intra-block weights 1/|block| so every
block has algebraic connectivity exactly 1. The imbalance factor
c = n / min block size is 201, which wrecks the closed-form perturbation
precondition, and the certificate ratio lands exactly on the 1/2
boundary. The certificate claims only what it proves, and a ratio of
exactly 1/2 cannot be proved in floating point: the computed
connectivities carry an error radius, so the proved upper end of the ratio
sits just above 1/2 and the certificate does not pass. Yet spectral
clustering recovers the planted blocks without drama: boundary degrees and
intra-block connectivities are what matter, not balance.
"""
import ratiocut as rc


def main() -> None:
    g, planted = rc.gen_unbalanced_example()
    print(f"graph: {g.n} vertices, block sizes "
          f"{[int(s) for s in planted.sizes()]}")

    cert = rc.certificate(g, planted)
    print(f"boundary degrees: max {cert.max_d_delta}")
    print(f"block connectivities: {cert.lambda2s.round(6).tolist()}")
    verdict = ("passes (strict)" if cert.strict else "passes" if cert.passes
               else "is not proved (exactly 1/2 cannot be proved in floating point)")
    print(f"ratio {cert.ratio_r:.3f} -> certificate {verdict}")

    rep = rc.theoretical_bound(g, planted)
    print(f"closed-form bound precondition: "
          f"{'holds' if rep.precondition_ok else 'fails'} "
          f"(r = {rep.r}, needs r <= {1.0 / (16 * (1 + rep.c)):.2e} / ln n)")
    print(f"measured worst-row embedding error anyway: {rep.measured:.4f}")

    found = rc.spectral_cluster(g, 3, method="kmeans", seed=0)
    print(f"spectral clustering: ratio cut {found.objective:.4f}, "
          f"planted recovered: {rc.same_partition(found.partition, planted)}")


if __name__ == "__main__":
    main()
