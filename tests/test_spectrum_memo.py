"""The checked-solve memo: ``eigen._checked_eigh`` solves each matrix once.

``eigen._solve`` keeps the last 8 checked solves, keyed by the matrix's
exact bytes, so the spectral functions called on one graph (and the CLI
steps run on one file in one process) share their spectra. These tests pin
how many solves that leaves, that a memo hit is bit-identical to a fresh
solve, that no caller can write into a stored spectrum, that the memo stays
bounded and that a failed solve is never stored. numpy only; no scipy.
"""
import numpy as np
import pytest

import ratiocut as rc
from ratiocut import eigen, graphs
from ratiocut.cli import main
from ratiocut.errors import SolverError


@pytest.fixture()
def eigh_calls(monkeypatch):
    """Count LAPACK ``eigh`` calls, by shape."""
    calls = []
    eigh = np.linalg.eigh

    def counting(m):
        calls.append(m.shape[0])
        return eigh(m)

    monkeypatch.setattr(eigen.np.linalg, "eigh", counting)
    return calls


def distinct_block_laplacians(g, p):
    laps = (graphs.weights_laplacian(g.weights[np.ix_(b, b)]) for b in p.blocks() if b.size > 1)
    return len({(lap.shape, lap.tobytes()) for lap in laps})


def fixtures():
    rng = np.random.default_rng(5)
    w = np.triu(rng.uniform(0.1, 2.0, (9, 9)), 1)
    return [
        rc.gen_example_blocks(2, 0.9),
        rc.gen_example_blocks(3, 0.5),
        rc.gen_planted_blocks([3, 4, 5], 1.0, 0.15),
        (rc.WeightedGraph(w + w.T), rc.Partition(np.arange(9) % 3, 3)),
    ]


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


# -------------------------------------------------------------- counting


@pytest.mark.parametrize("case", ["planted", "unbalanced"])
def test_library_chain_solves_each_matrix_once(case, unbalanced, eigh_calls):
    g, p = unbalanced if case == "unbalanced" else rc.gen_planted_blocks([4, 5, 6], 1.0, 0.1)
    rc.spectral_cluster(g, p.k, seed=0)
    rc.certificate(g, p)
    rc.theoretical_bound(g, p)
    rc.eigenmap(g, p.k)
    rc.lambda2(g)
    rc.fiedler(g)
    assert eigh_calls.count(g.n) == 1
    assert len(eigh_calls) == 1 + distinct_block_laplacians(g, p)


def test_cli_chain_on_one_file_solves_one_plus_k(tmp_path, eigh_calls):
    # cluster -> certify -> bound -> eigenmap, as the README pipeline runs
    # them: each step reads its own graph from the file, so only the bytes
    # of the Laplacian are shared
    g_path, p_path, found = tmp_path / "g.tsv", tmp_path / "p.txt", tmp_path / "found.txt"
    assert main(["gen", "planted", "--sizes", "4,5,6", "--intra", "1.0", "--cross", "0.1",
                 "--output", str(g_path), "--partition", str(p_path)]) == 0
    steps = [
        ["cluster", "--input", g_path, "--k", 3, "--partition", found, "--output", tmp_path / "c.json"],
        ["certify", "--input", g_path, "--partition", found, "--output", tmp_path / "cert.json"],
        ["bound", "--input", g_path, "--partition", found, "--output", tmp_path / "b.json"],
        ["eigenmap", "--input", g_path, "--k", 3, "--output", tmp_path / "u.tsv"],
    ]
    for step in steps:
        assert main([str(a) for a in step]) == 0
    assert rc.same_partition(rc.read_partition(str(found)), rc.read_partition(str(p_path)))
    assert sorted(eigh_calls) == [4, 5, 6, 15]


# ---------------------------------------------------------- bit identity


SPECTRA = (
    lambda g, p: rc.eigenmap(g, p.k).U,
    lambda g, p: rc.eigenmap(g, p.k).values,
    lambda g, p: np.float64(rc.lambda2(g)),
    lambda g, p: eigen.block_lambda2s(g, p)[0],
    lambda g, p: eigen.block_lambda2s(g, p)[1],
    lambda g, p: np.float64(rc.eigenmap(g, p.k).radius),
    lambda g, p: rc.eigenmap(g, g.n).U,
    lambda g, p: rc.eigenmap(g, g.n).values,
)


def spectra(g, p, cold=False):
    """Every spectral output of one graph, as raw bytes; with ``cold`` the
    memo is emptied before every call, so each one solves afresh."""
    out = []
    for call in SPECTRA:
        if cold:
            eigen._solve.cache_clear()
        out.append(call(g, p).tobytes())
    return out


def test_memo_hits_equal_fresh_solves_bit_for_bit(unbalanced):
    for g, p in fixtures() + [unbalanced]:
        cold = spectra(g, p, cold=True)
        spectra(g, p)  # fills the memo
        hits = eigen._solve.cache_info().hits
        assert spectra(g, p) == cold
        assert eigen._solve.cache_info().hits > hits


def test_sym_eig_memo_hits_equal_fresh_solves():
    # indefinite matrices, which no graph's Laplacian is, go to the checked
    # solve itself
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 30):
        a = random_symmetric(rng, n)
        eigen._solve.cache_clear()
        cold = [np.asarray(x).tobytes() for x in eigen._checked_eigh(a)]
        assert [np.asarray(x).tobytes() for x in eigen._checked_eigh(a.copy())] == cold
        assert eigen._solve.cache_info().hits == 1


# ------------------------------------------------------------ no aliasing


def test_returned_arrays_are_fresh():
    g, p = rc.gen_planted_blocks([3, 4, 5], 1.0, 0.15)
    emb = rc.eigenmap(g, 3)
    full = rc.eigenmap(g, g.n)
    want = spectra(g, p)
    for out in (emb.U, emb.values, full.U, full.values, rc.fiedler(g)):
        out[...] = np.nan
    assert spectra(g, p) == want
    assert rc.lambda2(g) == np.frombuffer(want[2])[0]


def test_stored_spectra_are_read_only():
    values, vectors, _ = eigen._checked_eigh(rc.laplacian(rc.gen_example_blocks(2, 0.9)[0]))
    for stored in (values, vectors):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0


# ---------------------------------------------------------------- bounds


def test_memo_holds_at_most_eight_solves():
    assert eigen._solve.cache_info().maxsize == 8
    rng = np.random.default_rng(9)
    for n in range(2, 22):
        eigen._checked_eigh(random_symmetric(rng, n))
        assert eigen._solve.cache_info().currsize <= 8
    assert eigen._solve.cache_info().currsize == 8


def test_failed_solve_is_not_stored(monkeypatch):
    g = rc.gen_example_blocks(2, 0.9)[0]
    want = rc.lambda2(g)
    eigen._solve.cache_clear()
    eigh = np.linalg.eigh
    calls = []

    def non_orthonormal(m):
        calls.append(m.shape)
        values, vectors = eigh(m)
        vectors[:, 0] *= 1.0 + 1e-6
        return values, vectors

    monkeypatch.setattr(eigen.np.linalg, "eigh", non_orthonormal)
    for attempt in (1, 2):
        with pytest.raises(SolverError):
            rc.lambda2(g)
        assert len(calls) == attempt  # the second call solved again
    assert eigen._solve.cache_info().currsize == 0
    monkeypatch.undo()
    misses = eigen._solve.cache_info().misses
    assert rc.lambda2(g) == want
    assert eigen._solve.cache_info().misses == misses + 1
