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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .graphs import Partition, WeightedGraph, check_partition, laplacian, weights_laplacian
from .tolerances import DEFAULT as TOL


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry (lowest index on ties) is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * signs


def _check_decomposition(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
    """Raise SolverError unless ``a @ V = V diag(values)`` and ``V.T @ V = I``.

    Also when ``||a||_F`` overflows: a bound scaled by inf passes any residual.
    """
    with np.errstate(over="ignore"):  # norm taken at a power-of-two scale: exact, no square overflows
        e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1])
        scale = max(1.0, float(np.ldexp(np.linalg.norm(np.ldexp(a, -e)), e)))
    if not np.isfinite(scale):
        raise SolverError("matrix norm overflows, so the residual cannot be checked")
    residual = float(np.max(np.abs(a @ vectors - vectors * values), initial=0.0))
    ortho = float(np.max(np.abs(vectors.T @ vectors - np.eye(a.shape[0])), initial=0.0))
    # written as "not <=" so that NaN residuals fail the check too
    if not residual <= TOL.eigen_residual * scale:
        raise SolverError(
            f"eigendecomposition residual {residual:.3g} exceeds {TOL.eigen_residual:g} * {scale:.3g}"
        )
    if not ortho <= TOL.eigen_residual:
        raise SolverError(f"eigenvectors deviate from orthonormal by {ortho:.3g}")


def _checked_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of an exactly symmetric float64 matrix, checked by
    ``_check_decomposition``; read-only arrays, shared with every caller
    that passes the same bytes (``_solve``).

    The check does not depend on the column signs, which only negate
    entries exactly.
    """
    return _solve(a.shape, a.tobytes())


@functools.lru_cache(maxsize=8)
def _solve(shape: tuple[int, int], data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The checked solve behind ``_checked_eigh``, memoised by the matrix's exact bytes.

    A failed solve raises and so is never stored.
    """
    a = np.frombuffer(data).reshape(shape)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"LAPACK eigensolver failed: {exc}") from exc
    _check_decomposition(a, values, vectors)
    values.flags.writeable = False
    vectors.flags.writeable = False
    return values, vectors


@dataclass(frozen=True)
class Eigenmap:
    """Columns of ``U`` span the invariant subspace of the k smallest eigenvalues.

    Row ``i`` of ``U`` is the k-dimensional spectral embedding of vertex ``i``.
    """

    U: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]


def eigenmap(g: WeightedGraph, k: int) -> Eigenmap:
    """Embedding by the eigenvectors of the k smallest Laplacian eigenvalues."""
    if not 1 <= k <= g.n:
        raise InputError(f"k must be in [1, {g.n}], got {k}")
    values, vectors = _checked_eigh(laplacian(g))
    return Eigenmap(U=_fix_signs(vectors[:, :k]), values=values[:k].copy())


def lambda2(g: WeightedGraph) -> float:
    """Algebraic connectivity: second-smallest Laplacian eigenvalue.

    Zero (within tolerance) exactly when the graph is disconnected.
    """
    if g.n < 2:
        raise InputError("algebraic connectivity needs at least 2 vertices")
    return float(_checked_eigh(laplacian(g))[0][1])


def block_lambda2s(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Algebraic connectivity of each block's induced subgraph; ``+inf`` for a singleton.

    Equal bit for bit to ``lambda2(induced_subgraph(g, p.block(j)))``: the
    block Laplacian is built from the same entries of ``g.weights``, which
    are already exactly symmetric, so no second graph is validated.
    """
    check_partition(g, p)
    out = np.full(p.k, np.inf)
    for j, members in enumerate(p.blocks()):
        if members.size > 1:
            lap = weights_laplacian(g.weights[np.ix_(members, members)])
            out[j] = _checked_eigh(lap)[0][1]
    return out


def fiedler(g: WeightedGraph) -> np.ndarray:
    """Unit-norm eigenvector of the second-smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise InputError("Fiedler vector needs at least 2 vertices")
    return eigenmap(g, 2).U[:, 1]
