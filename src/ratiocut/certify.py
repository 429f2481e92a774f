"""Optimality certificate for k-way partitions under the ratio cut objective.

A partition is certified globally optimal when every block is internally
well connected relative to its boundary: if the largest boundary degree is
at most half the smallest intra-block algebraic connectivity, no other
partition into k non-empty blocks can have a smaller ratio cut. When the
inequality is strict the minimizer is unique up to relabeling the blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .eigen import block_lambda2s
from .errors import SingletonBlockWarning
from .graphs import Partition, WeightedGraph, cross_weights
from .tolerances import DEFAULT as TOL


def boundary_degrees(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Per-vertex weight of edges leaving the vertex's own block.

    Entry ``i`` is the total weight from vertex ``i`` to vertices outside
    its block, the boundary degree.
    """
    return cross_weights(g, p).sum(axis=1)


def intra_connectivities(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Algebraic connectivity of each induced block subgraph.

    The values come from ``eigen.block_lambda2s``, one checked solve per
    block of two or more vertices, equal bit for bit to ``lambda2`` of the
    induced subgraph. Singleton blocks have no internal structure to
    disconnect, so they contribute ``+inf`` (with a warning since the
    certificate becomes vacuous on that side).
    """
    out = block_lambda2s(g, p)
    singletons = np.flatnonzero(p.sizes() == 1).tolist()
    if singletons:
        warnings.warn(
            f"singleton blocks {singletons} contribute infinite connectivity",
            SingletonBlockWarning,
        )
    return out


@dataclass(frozen=True)
class Certificate:
    """Outcome of the ratio cut optimality test.

    ``passes`` means the partition is a global minimizer of the ratio cut
    over all partitions into the same number of non-empty blocks; ``strict``
    additionally means it is the unique one up to relabeling. ``ratio_r``
    is max boundary degree over min intra-block connectivity, and ``margin``
    is ``min_lambda2 / 2 - max_d_delta`` (positive iff strict).
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
    lam = intra_connectivities(g, p)
    max_d = float(d_delta.max())
    min_l = float(lam.min())
    singletons = [j for j in range(p.k) if math.isinf(lam[j])]

    if min_l <= TOL.zero_eigenvalue:
        # a block's induced subgraph is disconnected: the hypothesis cannot
        # hold and the ratio is reported as infinite (even for a zero
        # boundary; that exact case belongs to the brute-force oracle)
        ratio = math.inf
        passes = False
        strict = False
    else:
        ratio = max_d / min_l if math.isfinite(min_l) else 0.0
        passes = ratio <= 0.5 + TOL.certificate_comparison
        strict = ratio < 0.5 - TOL.certificate_comparison
    margin = 0.5 * min_l - max_d if math.isfinite(min_l) else math.inf

    return Certificate(
        d_delta=d_delta,
        lambda2s=lam,
        max_d_delta=max_d,
        min_lambda2=min_l,
        ratio_r=ratio,
        passes=passes,
        strict=strict,
        margin=margin,
        singleton_blocks=singletons,
    )
