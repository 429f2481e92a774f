"""Optimality certificate for k-way partitions under the ratio cut objective.

A partition is certified globally optimal when every block is internally
well connected relative to its boundary: if the largest boundary degree is
at most half the smallest intra-block algebraic connectivity, no other
partition into k non-empty blocks can have a smaller ratio cut. When the
inequality is strict the minimizer is unique up to relabeling the blocks.

The inequality is decided on proved ends, not on the computed values: the
block connectivities less their solves' error radii (``eigen``) from below,
the largest boundary degree with its rounding from above. So the
certificate claims only what it proves, and it gives the same answer under
any vertex order and any power-of-two scaling of the weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .eigen import block_lambda2s
from .errors import SingletonBlockWarning
from .graphs import Partition, WeightedGraph, check_partition


def boundary_degrees(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Per-vertex weight of edges leaving the vertex's own block.

    Entry ``i`` is the total weight from vertex ``i`` to vertices outside
    its block, the boundary degree.
    """
    check_partition(g, p)
    return np.where(p.labels[:, None] == p.labels[None, :], 0.0, g.weights).sum(axis=1)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the ratio cut optimality test.

    ``passes`` means the partition is a global minimizer of the ratio cut
    over all partitions into the same number of non-empty blocks; ``strict``
    additionally means it is the unique one up to relabeling. Both are
    proved, not estimated: ``ratio_r`` is the proved upper end of max
    boundary degree over min intra-block connectivity (``inf`` when no
    block connectivity is proved positive, 0 when every block is a
    singleton), ``passes`` is ``ratio_r <= 1/2`` and ``strict`` is ``ratio_r
    < 1/2``. ``margin`` is the proved lower end of ``min_lambda2 / 2 -
    max_d_delta``, positive when strict. ``max_d_delta`` and
    ``min_lambda2`` are the computed values themselves. ``lambda2s`` holds
    each induced block subgraph's algebraic connectivity (``eigen.block_lambda2s``),
    ``+inf`` for a singleton block, which warns: the certificate is vacuous there.
    """

    d_delta: np.ndarray
    lambda2s: np.ndarray
    max_d_delta: float
    min_lambda2: float
    ratio_r: float
    passes: bool
    strict: bool
    margin: float
    singleton_blocks: list[int]

    def to_dict(self) -> dict:
        return asdict(self)


def certificate(g: WeightedGraph, p: Partition) -> Certificate:
    """Test whether ``p`` is a certified global minimum ratio cut partition.

    The test compares the largest boundary degree against half the smallest
    algebraic connectivity among the induced block subgraphs. It is
    sufficient, not necessary: a failing certificate says nothing about
    optimality either way.
    """
    d_delta = boundary_degrees(g, p)
    lam, radii = block_lambda2s(g, p)
    singletons = np.flatnonzero(p.sizes() == 1).tolist()
    if singletons:
        warnings.warn(
            f"singleton blocks {singletons} contribute infinite connectivity",
            SingletonBlockWarning,
        )
    # every block's lambda2 is at least lo; the boundary degree, a sum of at
    # most n - 1 nonnegative weights, times 1 + (n + 1) eps is at least the
    # exact one, also after the rounding of that product and of the quotient.
    # An overflowed degree is held at the largest float: a finite lo is
    # below it, so the ratio still fails, and lo = inf (every block a
    # singleton) still gives 0 and not inf / inf
    lo = float(np.min(lam - radii))
    max_d = float(d_delta.max())
    d_hi = min(max_d * (1.0 + (g.n + 1) * float(np.finfo(float).eps)), float(np.finfo(float).max))
    # a disconnected block cannot be proved connected (lo <= 0): the ratio
    # is infinite, even for a zero boundary, which belongs to the oracle
    ratio = d_hi / lo if lo > 0.0 else math.inf

    return Certificate(
        d_delta=d_delta,
        lambda2s=lam,
        max_d_delta=max_d,
        min_lambda2=float(lam.min()),
        ratio_r=ratio,
        passes=ratio <= 0.5,
        strict=ratio < 0.5,
        margin=0.5 * lo - d_hi,
        singleton_blocks=singletons,
    )
