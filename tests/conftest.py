import numpy as np
import pytest

import ratiocut as rc
from ratiocut import eigen


@pytest.fixture(autouse=True)
def fresh_spectrum_memo():
    """Start every test with an empty solve memo (``eigen._solve``), so a
    test that patches the eigensolver reaches it whatever ran before."""
    eigen._solve.cache_clear()


@pytest.fixture(scope="session")
def unbalanced():
    """The 603-vertex three-cluster instance (sizes 3, 300, 300)."""
    return rc.gen_unbalanced_example()


@pytest.fixture()
def report(capsys):
    """Print a pass/fail verdict that survives pytest's output capture."""

    def _report(name: str, ok: bool, detail: str = ""):
        line = f"{'PASS' if ok else 'FAIL'} {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="session")
def highs_pinned():
    """Optimum of every pinned gap program, by scipy's HiGHS as an independent solver.

    Pin i: minimize t over (x, t) with -t <= (Lx)_r <= t, |x_j| <= 1,
    sum(x) = 0 and x_i = 1; the gap is the smallest of these optima.
    Skips the test where scipy is not installed.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog

    def solve(lap):
        n = lap.shape[0]
        c = np.zeros(n + 1)
        c[-1] = 1.0
        a_ub = np.block([[lap, -np.ones((n, 1))], [-lap, -np.ones((n, 1))]])
        optima = np.empty(n)
        for i in range(n):
            a_eq = np.zeros((2, n + 1))
            a_eq[0, :n] = 1.0
            a_eq[1, i] = 1.0
            res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * n), A_eq=a_eq, b_eq=[0.0, 1.0],
                          bounds=[(-1.0, 1.0)] * n + [(0.0, None)], method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            assert res.status == 0, res.message
            optima[i] = res.fun
        return optima

    return solve


@pytest.fixture(scope="session")
def gap_defect_graph():
    """The n = 80 weighted graph on which the dense simplex that once solved
    the gap programs returned a wrong value: density 0.2 with weights in
    [0.2, 2], over a path of weight >= 1."""
    rng = np.random.default_rng(0)
    for n in (20, 40, 80):  # the report draws three sizes from one generator
        a = (rng.random((n, n)) < 0.2) * rng.uniform(0.2, 2.0, (n, n))
        a = np.triu(a, 1)
        a = a + a.T
        for i in range(n - 1):
            a[i, i + 1] = a[i + 1, i] = max(a[i, i + 1], 1.0)
    return rc.WeightedGraph(a)
