"""Dense symmetric eigendecomposition, the Laplacian eigenmap and block connectivities.

Every spectrum comes from one checked solve: LAPACK's divide-and-conquer
``?syevd`` (``np.linalg.eigh``), whose residual and orthonormality are
checked before anything is returned. Its one input is a validated graph's
Laplacian (for a block, cut straight out of its weights), which is exactly
symmetric. Returned eigenvectors have their largest-magnitude entry (lowest
index on ties) positive. Output is reproducible on a fixed build run with a
fixed OpenBLAS thread count (``OPENBLAS_NUM_THREADS``): a different count
can move the last bits.

The checked solve is memoised: the last 8 solves are kept, keyed by the
matrix's exact bytes, as read-only arrays, so the functions asked about one
graph (``spectral_cluster``, ``certificate``, ``theoretical_bound``,
``eigenmap``, in one process also across CLI steps that each read the same
file) share one full solve and one solve per distinct block. Public
functions return fresh copies. The memo retains at most 8 x 2n^2 doubles
(the key and the eigenvectors): about 5 MB at n = 200, about 46 MB at
n = 603. A repeated solve in one process returns the first solve's bits,
even if the OpenBLAS thread count has changed since.

Every checked solve also returns an error radius ``rad`` with
``|lambda_i(A) - lam_i| <= rad`` for every i, both spectra ascending, built
from the arrays the check forms anyway (residual bounds as in Parlett, *The
Symmetric Eigenvalue Problem*, SIAM 1998). Write ``R = A V - V Lam`` and
``E = V^T V - I`` for the computed ``V`` and ``Lam``, ``eta >= ||E||_2``, and
``V = Q H`` for the polar decomposition (``Q`` orthogonal, ``H = (I +
E)^(1/2)``). As ``V^T A V = (I + E) Lam + V^T R`` is symmetric,

    Q^T A Q - Lam = H^-1 S H^-1 + ([K, Lam] J - J [K, Lam]) / 2,

with ``S = (V^T R + R^T V) / 2``, ``K = H - I``, ``J = H^-1 - I`` and ``[K,
Lam] = K Lam - Lam K``. Both terms are symmetric, so Weyl's inequality
bounds every ``|lambda_i(A) - lam_i|`` by the 2-norm of their sum. With
``||H^-1||^2 <= 1 / (1 - eta)``, ``||V|| <= sqrt(1 + eta)``, ``||K|| <=
eta``, ``||J|| <= eta / (1 - eta)`` and ``||[K, Lam]|| <= ||K|| (lam_max -
lam_min)``:

    rad = (sqrt(1 + eta) ||R||_2 + eta^2 (lam_max - lam_min)) / (1 - eta).

The orthonormality error enters only squared. ``||R||_2 <= ||R||_F``, and
the computed residual differs from the exact ``R`` entrywise by at most
``gamma_(m+1) (|A| |V| + |V| |Lam|)``, where ``m`` is the most nonzeros in a
row of ``A`` (an exact zero adds no rounding) and ``gamma_j = j u / (1 - j
u)``, ``u = eps / 2``. By columns, with ``||(|A|)||_2 <=`` the largest row
sum of ``|A|`` (``A`` symmetric) and ``||v_j|| <= sqrt(1 + eta)``, the
Frobenius norm of that difference is at most ``gamma_(m+1) sqrt(n) (max row
sum + max |lam|) sqrt(1 + eta)``. In the same way the computed ``E`` is
within ``gamma_n ||V||_F^2 <= 2 n gamma_n`` of the exact one, so ``eta`` is
its Frobenius norm plus ``2 n gamma_n``. All of it is evaluated at the scale
2^-e of ``A``'s largest entry, so the radius scales exactly with ``A``; a
factor ``1 + (n^2 + 8) eps`` covers the rounding of the norms and of the
formula. No solve and no ``O(n^3)`` work is added. A solve is returned
only if ``||E||_F <= eigen_residual``, so ``eta <= eigen_residual + 2 n
gamma_n < 1`` for any n a dense matrix can have, and ``rad <=
eigen_residual ||A||_inf`` (the largest row sum, which bounds ``||A||_2``):
no floor, so the answer is the same at every power-of-two scale. An
all-subnormal matrix (weights like 5e-324) is refused: its residual
underflows as it is formed, so no radius is proved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .graphs import Partition, WeightedGraph, check_int, check_partition, laplacian, weights_laplacian
from .tolerances import DEFAULT as TOL

_EPS = float(np.finfo(float).eps)


def _gamma(j: int) -> float:
    """Relative error bound of ``j`` rounded operations: ``j u / (1 - j u)``, ``u = eps / 2``."""
    return j * _EPS / (2.0 - j * _EPS)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry (lowest index on ties) is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * signs


def _check_decomposition(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """The eigenvalues' error radius (module docstring). SolverError unless
    ``||V.T @ V - I||_F <= eigen_residual`` and the radius is at most
    ``eigen_residual * ||a||_inf``; also if that overflows or the largest entry is subnormal."""
    n = a.shape[0]
    # every n x n temporary is reduced and dropped before the next one is
    # made: with more of them alive at once, each solve faults in fresh
    # pages (twice the check's time at n = 160)
    abs_a = np.abs(a)
    big = float(np.max(abs_a, initial=0.0))
    if 0.0 < big < np.finfo(float).tiny:  # below the smallest normal float
        raise SolverError("matrix entries are all subnormal, so the residual underflows as it is formed")
    e = math.frexp(big)[1]
    with np.errstate(over="ignore"):  # an infinite row sum raises below
        row = math.ldexp(abs_a.sum(axis=1).max(), -e)  # ||a||_inf at the scale 2^-e
    nonzeros = int(np.count_nonzero(abs_a, axis=1).max())
    del abs_a
    if not math.isfinite(row):
        raise SolverError("matrix norm overflows, so the residual cannot be checked")
    resid = a @ vectors
    resid -= vectors * values
    resid = np.ldexp(resid, -e, out=resid)
    resid_sq = float(np.vdot(resid, resid))
    del resid
    gram_err = vectors.T @ vectors
    gram_err.flat[:: n + 1] -= 1.0
    ortho = math.sqrt(np.vdot(gram_err, gram_err))
    # written as "not <=" so that NaN fails the checks too
    if not ortho <= TOL.eigen_residual:
        raise SolverError(f"eigenvectors deviate from orthonormal by {ortho:.3g} in Frobenius norm")
    # the error radius of the module docstring, evaluated at the scale 2^-e
    eta = ortho + 2 * n * _gamma(n)
    lo, hi = math.ldexp(values[0], -e), math.ldexp(values[-1], -e)  # ascending: max |lam| is max(-lo, hi)
    rounding = _gamma(nonzeros + 1) * math.sqrt(n) * (row + max(-lo, hi))
    radius = (math.sqrt((1.0 + eta) * resid_sq) + (1.0 + eta) * rounding + eta * eta * (hi - lo)) / (1.0 - eta)
    radius *= 1.0 + (n * n + 8) * _EPS
    if not radius <= TOL.eigen_residual * row:
        raise SolverError(f"error radius {math.ldexp(radius, e):.3g} exceeds {TOL.eigen_residual:g} ||A||_inf")
    return math.ldexp(radius, e)


def _checked_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """LAPACK ``eigh`` of an exactly symmetric float64 matrix, checked by
    ``_check_decomposition``: values, vectors and the values' error radius;
    read-only arrays, shared with every caller that passes the same bytes
    (``_solve``)."""
    return _solve(a.shape, a.tobytes())


@functools.lru_cache(maxsize=8)
def _solve(shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, np.ndarray, float]:
    """The checked solve behind ``_checked_eigh``, memoised by the matrix's exact bytes.

    A failed solve raises and so is never stored.
    """
    a = np.frombuffer(data).reshape(shape)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"LAPACK eigensolver failed: {exc}") from exc
    radius = _check_decomposition(a, values, vectors)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors, radius


@dataclass(frozen=True)
class Eigenmap:
    """Columns of ``U`` span the invariant subspace of the k smallest eigenvalues.

    Row ``i`` of ``U`` is the k-dimensional spectral embedding of vertex ``i``.
    ``radius`` bounds the error of every Laplacian eigenvalue of the solve,
    ``values`` included (module docstring).
    """

    U: np.ndarray
    values: np.ndarray
    radius: float

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]


def eigenmap(g: WeightedGraph, k: int) -> Eigenmap:
    """Embedding by the eigenvectors of the k smallest Laplacian eigenvalues."""
    check_int("k", k, 1, g.n)
    values, vectors, radius = _checked_eigh(laplacian(g))
    return Eigenmap(U=_fix_signs(vectors[:, :k]), values=values[:k].copy(), radius=radius)


def lambda2(g: WeightedGraph) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    The graph is disconnected exactly when the true value is zero; the
    computed one is then at most the solve's error radius (``eigenmap``).
    """
    if g.n < 2:
        raise InputError("algebraic connectivity needs at least 2 vertices")
    return float(_checked_eigh(laplacian(g))[0][1])


def block_lambda2s(g: WeightedGraph, p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Algebraic connectivity of each block's induced subgraph and its error
    radius; ``+inf`` and 0 for a singleton.

    Equal bit for bit to ``lambda2(WeightedGraph(g.weights[np.ix_(b, b)]))``
    with ``b = p.block(j)``: the block Laplacian is built from the same
    entries of ``g.weights``, which are already exactly symmetric, so no
    second graph is validated.
    """
    check_partition(g, p)
    lam, radii = np.full(p.k, np.inf), np.zeros(p.k)
    for j, members in enumerate(p.blocks()):
        if members.size > 1:
            values, _, radii[j] = _checked_eigh(weights_laplacian(g.weights[np.ix_(members, members)]))
            lam[j] = values[1]
    return lam, radii


def fiedler(g: WeightedGraph) -> np.ndarray:
    """Unit-norm eigenvector of the second-smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise InputError("Fiedler vector needs at least 2 vertices")
    return eigenmap(g, 2).U[:, 1]
