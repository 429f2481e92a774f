"""Spectral decisions on measured error bars.

Every checked solve returns an error radius that bounds the error of each
eigenvalue (``eigen`` module docstring), and is returned only when that
radius is small relative to the matrix. The certificate, its disconnection
test and the perturbation bound's eigengap check decide on that radius, so
they claim only what they prove and do not change under a vertex order or
a power-of-two scaling of the weights. The exact sup-norm gap closes its
bracket relative to the value, at the Laplacian's own scale. numpy only; no
scipy.
"""
import math
import warnings

import numpy as np
import pytest

import ratiocut as rc
from ratiocut import eigen, simplex
from ratiocut.errors import HypothesisViolation, SolverError


def relabelled(w, labels, perm):
    return rc.WeightedGraph(w[np.ix_(perm, perm)]), rc.Partition(labels[perm], int(labels.max()) + 1)


# --------------------------------------------------------- the radius


def path_weights(n):
    w = np.zeros((n, n))
    i = np.arange(n - 1)
    w[i, i + 1] = w[i + 1, i] = 1.0
    return w


def cycle_weights(n):
    w = path_weights(n)
    w[0, n - 1] = w[n - 1, 0] = 1.0
    return w


def star_weights(n):
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    return w


def complete_weights(n):
    return 1.0 - np.eye(n)


def closed_form_spectrum(family, n):
    j = np.arange(n)
    if family == "path":  # 2 - 2 cos(pi j / n), written so that small values keep their digits
        return np.sort(4.0 * np.sin(np.pi * j / (2 * n)) ** 2)
    if family == "cycle":
        return np.sort(4.0 * np.sin(np.pi * j / n) ** 2)
    if family == "star":
        return np.array([0.0] + [1.0] * (n - 2) + [float(n)])
    return np.array([0.0] + [float(n)] * (n - 1))


FAMILIES = {"path": path_weights, "cycle": cycle_weights, "star": star_weights, "complete": complete_weights}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_radius_covers_every_eigenvalue_of_closed_form_spectra(family):
    rng = np.random.default_rng(3)
    for n in (3, 4, 17, 100, 301, 800):
        perm = rng.permutation(n)
        g = rc.WeightedGraph(FAMILIES[family](n)[np.ix_(perm, perm)])
        emb = rc.eigenmap(g, n)
        err = np.abs(emb.values - closed_form_spectrum(family, n))
        assert np.all(err <= emb.radius), (family, n, err.max(), emb.radius)
        # and it is a usable bar: a few hundred ulps of the spectrum's scale at n = 800
        assert emb.radius <= 1e3 * n * np.finfo(float).eps * emb.values[-1]


def test_radius_of_exact_decompositions_is_rounding_only():
    # a diagonal matrix: LAPACK returns it exactly, with unit vectors
    values, vectors, radius = eigen._checked_eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(values, [1.0, 2.0, 3.0])
    assert radius <= 10 * np.finfo(float).eps * 3.0
    assert eigen._checked_eigh(np.zeros((4, 4)))[2] == 0.0


def perturbed(values, vectors):
    """Decompositions near ``(values, vectors)``: columns swapped, one column
    stretched, and the values moved by relative steps from 1e-6 to 1e-10,
    some beyond the check's budget and some within it."""
    stretched = vectors.copy()
    stretched[:, 0] *= 1.0 + 1e-6
    return ([(values, vectors[:, ::-1]), (values, stretched)]
            + [(values * (1.0 + step), vectors) for step in (1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 1e-10)])


def check_outcome(a, values, vectors):
    try:
        return eigen._check_decomposition(a, values, vectors)
    except SolverError:
        return None


def test_check_is_the_same_at_every_power_of_two_scale():
    # the radius scales exactly with the matrix, and the gate is relative to
    # ||A||_inf with no floor: the same inputs raise at every scale
    rng = np.random.default_rng(29)
    w = np.triu(rng.uniform(0.0, 3.0, (12, 12)) * (rng.random((12, 12)) < 0.5), 1)
    indefinite = rng.normal(size=(9, 9))
    mats = [rc.laplacian(rc.WeightedGraph(x)) for x in (path_weights(30), star_weights(9), w + w.T)]
    mats.append(indefinite + indefinite.T)
    outcomes = set()
    for a in mats:
        values, vectors = np.linalg.eigh(a)
        radius = eigen._check_decomposition(a, values, vectors)
        near = [(vals, vecs, check_outcome(a, vals, vecs)) for vals, vecs in perturbed(values, vectors)]
        outcomes.update(want is None for _, _, want in near)
        for e in range(-60, 61):
            assert check_outcome(np.ldexp(a, e), np.ldexp(values, e), vectors) == math.ldexp(radius, e)
            for vals, vecs, want in near:
                got = check_outcome(np.ldexp(a, e), np.ldexp(vals, e), vecs)
                assert got == (None if want is None else math.ldexp(want, e)), e
    assert outcomes == {True, False}  # some of the perturbed inputs pass, some raise


def test_all_subnormal_weights_are_refused():
    # the residual of such a Laplacian underflows as it is formed, so no
    # radius can be proved; at the smallest normal weight it is checked
    for tiny in (5e-324, 1e-320, 1e-310):
        g = rc.WeightedGraph(tiny * complete_weights(4))
        with pytest.raises(SolverError, match="subnormal"):
            rc.lambda2(g)
        with pytest.raises(SolverError, match="subnormal"):
            rc.eigenmap(g, 2)
        with pytest.raises(SolverError, match="subnormal"):
            rc.certificate(g, rc.Partition([0, 0, 0, 0], 1))
    emb = rc.eigenmap(rc.WeightedGraph(np.finfo(float).tiny * complete_weights(2)), 2)
    assert np.abs(emb.values - [0.0, 2 * np.finfo(float).tiny]).max() <= emb.radius


# ----------------------------------------------------- the certificate


def two_paths(m, t):
    """Two m-vertex paths joined end to end by one edge of weight
    lambda2(P_m) / 2 * (1 + t): the certificate's ratio is exactly (1 + t) / 2."""
    w = np.zeros((2 * m, 2 * m))
    w[:m, :m] = path_weights(m)
    w[m:, m:] = path_weights(m)
    w[m - 1, m] = w[m, m - 1] = 2.0 * math.sin(math.pi / (2 * m)) ** 2 * (1.0 + t)
    return w, np.repeat([0, 1], m)


def test_two_paths_pass_only_where_the_inequality_is_proved():
    # at the boundary (t = 0) and just past it (t > 0) the computed ratio of
    # some vertex orders lands at or below 1/2; no order may pass there,
    # and well inside (t = -1e-6) every order passes strictly
    rng = np.random.default_rng(1)
    counts = {t: [0, 0] for t in (2.5e-12, 0.0, -1e-6)}
    for _ in range(30):
        perm = rng.permutation(1200)
        for t, count in counts.items():
            cert = rc.certificate(*relabelled(*two_paths(600, t), perm))
            count[0] += cert.passes
            count[1] += cert.strict
            assert cert.ratio_r >= (1.0 + t) / 2.0 * (1.0 - 1e-15)
    assert counts == {2.5e-12: [0, 0], 0.0: [0, 0], -1e-6: [30, 30]}


def scaled(g, e):
    return rc.WeightedGraph(np.ldexp(g.weights, e))


def random_blocks(rng):
    sizes = rng.integers(3, 8, size=int(rng.integers(2, 4)))
    labels = np.repeat(np.arange(sizes.size), sizes)
    same = labels[:, None] == labels[None, :]
    w = np.triu(np.where(same, rng.uniform(0.5, 2.0, same.shape), rng.uniform(0.0, 0.05, same.shape)), 1)
    return rc.WeightedGraph(w + w.T), rc.Partition(labels, sizes.size)


def decision(cert):
    return cert.passes, cert.strict, np.float64(cert.ratio_r).tobytes()


def test_certificate_and_bound_are_the_same_under_power_of_two_scaling():
    rng = np.random.default_rng(11)
    cases = [rc.gen_planted_blocks([5, 6, 7], 1.0, 0.01)] + [random_blocks(rng) for _ in range(8)]
    for g, p in cases:
        want = decision(rc.certificate(scaled(g, -60), p))
        for e in range(-50, 61, 10):
            assert decision(rc.certificate(scaled(g, e), p)) == want, e
    g, p = cases[0]
    base = rc.theoretical_bound(scaled(g, -60), p).to_dict()
    assert base["precondition_ok"] and base["bound"] is not None
    for e in range(-50, 61, 10):
        rep = rc.theoretical_bound(scaled(g, e), p).to_dict()
        # gap_lower is lambda2 / (2 ln n): it scales with the weights, bit for bit
        assert rep.pop("gap_lower") == math.ldexp(base["gap_lower"], e + 60)
        assert rep == {key: value for key, value in base.items() if key != "gap_lower"}, e


def weak_link_blocks(link):
    """Block 0 is the path 0-1-2 with weights 1 and ``link``; block 1 is a
    triangle; one cross edge of weight 1e-3 joins them."""
    w = np.zeros((6, 6))
    w[0, 1] = 1.0
    w[1, 2] = link
    w[3, 4] = w[4, 5] = w[3, 5] = 1.0
    w[2, 3] = 1e-3
    return rc.WeightedGraph(w + w.T), rc.Partition([0, 0, 0, 1, 1, 1], 2)


def test_a_tiny_but_proved_connectivity_counts_as_connected():
    # a block lambda2 of about 1e-9 is far above its error radius, so the
    # block is connected and the ratio finite; an exact zero gives inf
    g, p = weak_link_blocks(1e-9)
    lam, radii = eigen.block_lambda2s(g, p)
    assert 1e-9 < lam[0] < 1e-8 and radii[0] < 1e-4 * lam[0]
    cert = rc.certificate(g, p)
    assert math.isfinite(cert.ratio_r) and cert.ratio_r > 0.5 and not cert.passes
    assert cert.ratio_r >= 1e-3 / lam[0]
    g, p = weak_link_blocks(0.0)
    cert = rc.certificate(g, p)
    assert math.isinf(cert.ratio_r) and not cert.passes and not cert.strict
    assert cert.margin < 0.0


def test_certificate_ends_bracket_the_computed_values():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g, p = random_blocks(rng)
        cert = rc.certificate(g, p)
        lam, radii = eigen.block_lambda2s(g, p)
        assert np.all(radii > 0.0) and np.all(radii < 1e-12 * lam)
        assert cert.ratio_r >= cert.max_d_delta / cert.min_lambda2
        assert cert.margin <= 0.5 * cert.min_lambda2 - cert.max_d_delta
        assert cert.passes == (cert.ratio_r <= 0.5) and cert.strict == (cert.ratio_r < 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # every block a singleton
        cert = rc.certificate(rc.WeightedGraph(complete_weights(3)), rc.Partition([0, 1, 2], 3))
    assert cert.ratio_r == 0.0 and cert.strict and cert.margin == math.inf
    # a boundary degree that overflows: still 0 for singletons, never a pass otherwise
    w = np.zeros((3, 3))
    w[0, 1:] = w[1:, 0] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cert = rc.certificate(rc.WeightedGraph(w), rc.Partition([0, 1, 2], 3))
        assert cert.max_d_delta == math.inf
        assert cert.ratio_r == 0.0 and cert.strict and cert.margin == math.inf
        w[1, 2] = w[2, 1] = 1.0  # the block {1, 2} is connected: lambda2 = 2
        cert = rc.certificate(rc.WeightedGraph(w), rc.Partition([0, 1, 1], 2))
        assert cert.ratio_r > 1e307 and not cert.passes and cert.margin < 0.0


# ------------------------------------------------------- the eigengap


def test_eigengap_check_reads_the_radius():
    # K3 plus a triangle joined to it by eps-light edges: lambda_2 is
    # resolved from lambda_1 = 0 when the light weight is far above the
    # radius, and not when it is zero
    for light, resolved in ((1e-9, True), (0.0, False)):
        w = np.zeros((6, 6))
        w[:3, :3] = w[3:, 3:] = complete_weights(3)
        w[2, 3] = w[3, 2] = light
        g, p = rc.WeightedGraph(w), rc.Partition([0, 0, 0, 0, 0, 0], 1)
        emb = rc.eigenmap(g, 2)
        assert bool(emb.values[1] - emb.values[0] > 2.0 * emb.radius) == resolved
        if resolved:
            rep = rc.theoretical_bound(g, p)
            assert rep.r == 0.0 and rep.bound == 0.0
        else:
            with pytest.raises(HypothesisViolation, match="eigengap"):
                rc.theoretical_bound(g, p)


# ------------------------------------------------------- the exact gap


def test_gap_of_a_pair_at_extreme_weights():
    # K2 of weight a has gap 2a. Beside entries of size a, the 1/n of the
    # closed form's inverse L + 11^T / n is lost (a = 1e100) or swamps L
    # (a = 1e-150), so it is formed at the Laplacian's own scale
    for a in (1e100, 1e-100, 1e150, 1e-150):
        g = rc.WeightedGraph([[0.0, a], [a, 0.0]])
        value = rc.gap_exact(g)
        assert value == pytest.approx(2.0 * a, rel=4e-16, abs=0.0)
        e = math.frexp(a)[1]  # of the Laplacian's largest entry, its degree a
        lowers, upper = simplex.gap_certificate(np.ldexp(rc.laplacian(g), -e))
        assert value == math.ldexp(upper, e)
        assert upper - lowers.min() <= 4e-16 * upper


def test_gap_of_a_pair_is_within_rounding_of_its_gap():
    # the value is the computed ratio of a real vector: within rounding of an
    # upper end of the gap, on either side of it, and the docs say no more
    a = np.random.default_rng(0).uniform(0.01, 100.0, 2000)
    value = np.array([rc.gap_exact(rc.WeightedGraph([[0.0, x], [x, 0.0]])) for x in a])
    assert np.all(np.abs(value - 2.0 * a) <= 4e-16 * 2.0 * a)
    assert np.any(value < 2.0 * a)
    assert "can fall below the gap by the rounding" in " ".join(rc.gap_exact.__doc__.split())


def test_gap_bracket_is_relative_to_the_value():
    # the path 0-1-2 with weights 1 and 1e-20: its gap is about 1e-20, and
    # the bracket's lower end is -2.5e-17, so no value is proved; an
    # absolute width of 1e-9 would have let 1.5e-16 through
    w = path_weights(3)
    w[1, 2] = w[2, 1] = 1e-20
    with pytest.raises(SolverError, match="did not close"):
        rc.gap_exact(rc.WeightedGraph(w))
    # and the value scales with the weights bit for bit, far out both ways
    rng = np.random.default_rng(31)
    for n in (4, 9, 16):
        w = np.triu(rng.uniform(0.1, 2.0, (n, n)), 1)
        g = rc.WeightedGraph(w + w.T)
        value = rc.gap_exact(g)
        for e in (*range(-60, 61, 10), -900, -500, 500, 900):
            assert rc.gap_exact(scaled(g, e)) == math.ldexp(value, e)
