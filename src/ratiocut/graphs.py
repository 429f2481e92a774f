"""Weighted undirected graphs, partitions, cuts and the deterministic generators.

The graph is stored as a dense symmetric weight matrix with a zero diagonal;
all spectral quantities downstream are derived from its Laplacian ``L = D - W``.
Vertex indices are 0-based throughout.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InputError
from .tolerances import DEFAULT as TOL


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative weight matrix with zero diagonal.

    Parameters
    ----------
    weights : (n, n) array_like
        Edge weights. Must be square and symmetric up to ``1e-10``; the
        diagonal is forced to zero on construction (self-loops never
        contribute to the Laplacian). An exactly symmetric matrix is stored
        bit for bit; otherwise each pair of entries that differs is replaced
        by its average, so the stored matrix is exactly symmetric.

    Raises
    ------
    InputError
        If the matrix is not square, not finite, not symmetric, or has
        negative entries.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise InputError(f"weights must be a square matrix, got shape {w.shape}")
        symmetrize(w)
        np.fill_diagonal(w, 0.0)
        if np.any(w < 0):
            raise InputError("edge weights must be nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def degrees(self) -> np.ndarray:
        """Weighted degree of every vertex, ``d_i = sum_j w_ij``."""
        return self.weights.sum(axis=1)

    def is_unweighted(self) -> bool:
        """True when every weight is exactly 0 or 1."""
        w = self.weights
        return bool(np.all((w == 0.0) | (w == 1.0)))


def symmetrize(a: np.ndarray) -> None:
    """Make the square float array ``a`` exactly symmetric in place, by the rule
    that ``WeightedGraph`` documents; raises InputError on a non-finite entry
    or beyond ``Tolerances.symmetry``."""
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    bits = a.view(np.int64)  # compared as bits, so -0.0 against 0.0 is averaged too
    if not np.array_equal(bits, bits.T):
        with np.errstate(over="ignore"):  # an infinite gap fails the check
            gap = np.max(np.abs(a - a.T))
        if gap > TOL.symmetry:
            raise InputError("matrix is not symmetric")
        # unequal entries within the tolerance lie below 2**19, so no sum overflows
        i, j = np.nonzero(bits != bits.T)
        a[i, j] = 0.5 * (a[i, j] + a[j, i])


@dataclass(frozen=True)
class Partition:
    """A k-way labeling of the vertices ``0..n-1``.

    Every label in ``[0, k)`` must occur at least once (no empty block).
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = _int_vector(self.labels, "labels must be a nonempty 1-d integer vector",
                             f"labels must lie in [0, {self.k})")
        if labels.size < 1:
            raise InputError("labels must be a nonempty 1-d integer vector")
        check_int("k", self.k, 1, labels.size)
        if labels.min() < 0 or labels.max() >= self.k:
            raise InputError(f"labels must lie in [0, {self.k})")
        counts = np.bincount(labels, minlength=self.k)
        if np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            raise InputError(f"block {empty} is empty")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def block(self, j: int) -> np.ndarray:
        """Ascending vertex indices of block ``j``."""
        return np.flatnonzero(self.labels == j)

    def blocks(self) -> list[np.ndarray]:
        return [self.block(j) for j in range(self.k)]

    def canonical_labels(self) -> np.ndarray:
        """Relabel blocks by first occurrence (restricted-growth form)."""
        _, first, inverse = np.unique(self.labels, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=int)
        rank[np.argsort(first)] = np.arange(first.size)
        return rank[inverse]


def same_partition(p: Partition, q: Partition) -> bool:
    """True when the two partitions agree up to block relabeling."""
    return p.n == q.n and p.k == q.k and np.array_equal(p.canonical_labels(), q.canonical_labels())


def _is_int(value) -> bool:
    # numpy's bool is no integer type, but Python's is; a float of integral
    # value is not read as a count either
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, lo: int, hi: int = np.iinfo(np.int64).max) -> None:
    """Raise InputError unless ``value`` is an integer in [lo, hi]: the one
    rule for a scalar count, size, index or seed."""
    if not _is_int(value) or not lo <= value <= hi:
        raise InputError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def finite_array(name: str, values, ndim: int) -> np.ndarray:
    """``values`` as a float array, by the one rule for real-valued array
    inputs: InputError unless it has ``ndim`` axes and finite entries."""
    try:
        a = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or an entry that is not a number
        raise InputError(f"{name} must be a {ndim}-d array of numbers") from None
    if a.ndim != ndim:
        raise InputError(f"{name} must be a {ndim}-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} must be finite")
    return a


def _int_vector(values, kind: str, span: str) -> np.ndarray:
    """``values`` as a fresh 1-d int64 array, by the one rule for integer
    entries (labels, block sizes): InputError(kind) unless it is 1-d and
    each entry an integer by ``check_int``'s rule, InputError(span) if an
    entry does not fit int64."""
    raw = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    integral = all(map(_is_int, raw.flat)) if raw.dtype == object else np.issubdtype(raw.dtype, np.integer)
    if raw.ndim != 1 or not integral:
        raise InputError(kind)
    try:
        return raw.astype(np.int64)
    except OverflowError:
        raise InputError(span) from None


def check_partition(g: WeightedGraph, p: Partition) -> None:
    """Raise InputError unless ``p`` labels exactly the vertices of ``g``."""
    if p.n != g.n:
        raise InputError(f"partition has {p.n} labels but the graph has {g.n} vertices")


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph Laplacian ``L = D - W``.

    Symmetric, positive semidefinite, zero row sums; off-diagonal entries
    are ``-w_ij``.
    """
    return weights_laplacian(g.weights)


def weights_laplacian(w: np.ndarray) -> np.ndarray:
    """``L = D - W`` of a weight array taken from a ``WeightedGraph``, such
    as the rows and columns of one block; ``w`` is not validated again."""
    lap = -w
    np.fill_diagonal(lap, w.sum(axis=1))
    return lap


def ratio_cut(g: WeightedGraph, p: Partition) -> float:
    """Sum over blocks of the boundary weight divided by the block size:
    ``ratio_cuts`` of the one row ``p.labels``."""
    check_partition(g, p)
    return float(ratio_cuts(g.weights, p.labels[None, :], p.k)[0])


def ratio_cuts(w: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Ratio cut of every row of ``labels``, a ``(rows, n)`` array whose rows
    each leave none of the blocks ``0..k-1`` empty; ``w`` is not validated again.

    Each block's cut from ``_block_cuts`` over its size, added block by block
    from 0.0: the one arithmetic of the ratio cut, so every caller gets the same bits.
    """
    cuts, sizes = _block_cuts(w, labels, k)
    total = np.zeros(len(labels))
    for j in range(k):
        total += cuts[:, j] / sizes[:, j]
    return total


def ratio_cut_rel(n: int) -> float:
    """Relative distance within which ``ratio_cuts`` and an estimate of a ratio
    cut on n vertices agree, doubled: the one tie rule for ratio cuts.

    The estimate must sum nonnegative terms, rounding each at most 2n + k
    times; ``ratio_cuts`` rounds at most n * n / 4 + k + 1 times, each time
    by at most eps / 2, so for k <= n this covers both twice over.
    """
    return (n * n + 4 * n) * float(np.finfo(float).eps)


def _block_cuts(w: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary weight and size of each block ``0..k-1`` in each row of
    ``labels``, as two ``(rows, k)`` arrays, by the package's one boundary
    sum: block j's cut sums the ``(size, n - size)`` submatrix of ``w``,
    members and non-members ascending, as one row-major run, for all rows
    that share the block's size at once."""
    cuts = np.empty((len(labels), k))
    sizes = np.empty((len(labels), k), dtype=int)
    for j in range(k):
        inside = labels == j
        size = sizes[:, j] = inside.sum(axis=1)
        order = np.argsort(~inside, axis=1, kind="stable")  # members first, both sides ascending
        for a in set(size.tolist()):
            rows = np.flatnonzero(size == a)
            idx = order[rows]
            cuts[rows, j] = w[idx[:, :a, None], idx[:, None, a:]].reshape(len(rows), -1).sum(axis=1)
    return cuts, sizes


def is_connected(g: WeightedGraph) -> bool:
    """True when every vertex is reachable from vertex 0 over positive weights."""
    return min(_bfs(_neighbours(g), 0)) >= 0


def _neighbours(g: WeightedGraph) -> list[list[int]]:
    """Each vertex's neighbours (positive weight), in increasing order."""
    rows, cols = np.nonzero(g.weights > 0)
    bounds = np.searchsorted(rows, np.arange(g.n + 1)).tolist()
    cols = cols.tolist()
    return [cols[bounds[v]:bounds[v + 1]] for v in range(g.n)]


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    """Hop distance from ``source`` over neighbour lists; -1 where unreachable."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def diameter(g: WeightedGraph) -> int:
    """Longest shortest-path hop count; requires a connected graph."""
    adj = _neighbours(g)
    best = 0
    for v in range(g.n):
        dist = _bfs(adj, v)
        if min(dist) < 0:
            raise InputError("diameter of a disconnected graph is undefined")
        best = max(best, max(dist))
    return best


# ---------------------------------------------------------------------------
# deterministic instance generators


def zero_weights(n: int) -> np.ndarray:
    """An n-by-n zero float matrix: the one allocation of a weight matrix
    from a vertex count given from outside. Raises InputError, before
    allocating, if numpy cannot make it or if it and the copy ``WeightedGraph``
    makes exceed physical memory (where ``os.sysconf`` reports it)."""
    too_large = InputError(f"vertex count {n} is too large for an n-by-n weight matrix")
    if hasattr(os, "sysconf") and 2 * 8 * n * n > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise too_large
    try:
        return np.zeros((n, n))
    except (ValueError, MemoryError):
        raise too_large from None


def _block_model(sizes: list[int], block_weights, edges) -> tuple[WeightedGraph, np.ndarray]:
    """The graph on consecutive blocks of the given sizes, every pair of
    vertices in blocks i and j joined at ``block_weights[i][j]``, plus the
    single edges ``(u, v, w)``, as a ``WeightedGraph`` (so the diagonal is
    zero); and each vertex's block."""
    w = zero_weights(sum(sizes))  # refuses n before anything of size n is built
    labels = np.repeat(np.arange(len(sizes)), sizes)
    # labels are in range; the default mode would first fill an n-by-n buffer
    np.take(np.asarray(block_weights, dtype=float)[labels], labels, axis=1, out=w, mode="clip")
    for u, v, weight in edges:
        w[u, v] = w[v, u] = weight
    return WeightedGraph(w), labels


def gen_example_blocks(n: int, c: float) -> tuple[WeightedGraph, Partition]:
    """Four equal blocks of size ``n`` probing the certificate threshold.

    Adjacent block pairs (1,2) and (3,4) are joined completely at weight 1;
    the pairs (1,3) and (2,4) are joined completely at weight ``c``; the
    diagonal is zero.  The planted bisection puts blocks 1-2 against
    blocks 3-4, and its certificate ratio is exactly ``c/2``: the planted
    split is certified optimal iff ``c <= 1``.
    """
    check_int("block size n", n, 1)
    if c < 0:
        raise InputError("cross weight c must be >= 0")
    g, labels = _block_model([n] * 4, [[1, 1, c, 0], [1, 1, 0, c], [c, 0, 1, 1], [0, c, 1, 1]], [])
    return g, Partition(labels // 2, 2)


def gen_unbalanced_example() -> tuple[WeightedGraph, Partition]:
    """Three planted clusters of sizes 3, 300, 300 with two weak cross edges.

    Within cluster ``i`` every pair carries weight ``1/|V_i|`` so each block's
    algebraic connectivity is exactly 1.  One cross edge of weight 0.5 joins
    the first vertex of cluster 1 to the first vertex of cluster 2, another
    joins the first vertex of cluster 3 to the second vertex of cluster 2.
    """
    g, labels = _block_model([3, 300, 300], np.diag([1 / 3, 1 / 300, 1 / 300]), [(0, 3, 0.5), (303, 4, 0.5)])
    return g, Partition(labels, 3)


def gen_planted_blocks(sizes, intra: float, cross: float) -> tuple[WeightedGraph, Partition]:
    """Complete blocks at weight ``intra`` joined by one cross edge per consecutive pair.

    The cross edge for the pair ``(i, i+1)`` joins the last vertex of block
    ``i`` to the first vertex of block ``i+1``, so for blocks of size >= 2 the
    maximum boundary degree is exactly ``cross`` and the smallest intra-block
    algebraic connectivity is ``intra * min(sizes)``.
    """
    bad = "every block size must be an integer >= 1"
    sizes = _int_vector(sizes, bad, bad).tolist()
    if len(sizes) == 0:
        raise InputError("sizes must be nonempty")
    if min(sizes) < 1:
        raise InputError(bad)
    if intra < 0 or cross < 0:
        raise InputError("weights must be >= 0")
    firsts = accumulate(sizes[:-1])  # the first vertex of each block after the first
    g, labels = _block_model(sizes, np.diag([intra] * len(sizes)), [(v - 1, v, cross) for v in firsts])
    return g, Partition(labels, len(sizes))
