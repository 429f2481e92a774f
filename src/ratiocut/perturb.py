"""Subspace perturbation analysis for the Laplacian eigenmap.

Splits a partitioned graph into its intra-cluster part and the cross-cluster
remainder, aligns the computed eigenmap with the ideal block-indicator
embedding by an orthogonal Procrustes rotation, and evaluates the
two-to-infinity error bound

    ||U V~ - U_iso||_{2,inf} <= 32 sqrt(c) (r^2 + r ln n) / sqrt(n)

which holds whenever the perturbation/eigengap ratio r is at most
1/(16 (1+c) ln n), with c the unbalanceness max_i n/|V_i|.

Also provides the l-infinity eigengap estimates: the spectral lower bound
lambda2/(2 ln n), the 4M/D upper bound for unweighted connected graphs, and
the infimum itself, certified to a narrow bracket.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .certify import certificate, intra_connectivities
from .eigen import eigenmap, lambda2
from .errors import DegenerateAlignmentWarning, HypothesisViolation, InputError, SizeError, SolverError
from .graphs import Partition, WeightedGraph, diameter, is_connected, laplacian
from .simplex import gap_certificate
from .tolerances import DEFAULT as TOL

GAP_EXACT_MAX_N = 200


@dataclass(frozen=True)
class IsoDelta:
    """Intra-cluster weights plus the Laplacian of the cross-cluster rest.

    ``w_iso`` keeps only edges inside blocks (block-diagonal weight matrix);
    ``l_delta`` is the Laplacian of everything removed, so the full graph
    Laplacian equals laplacian(w_iso) + l_delta.
    """

    w_iso: WeightedGraph
    l_delta: np.ndarray

    @property
    def w_delta(self) -> np.ndarray:
        deg = np.diag(self.l_delta).copy()
        return np.diag(deg) - self.l_delta


def split_iso_delta(g: WeightedGraph, p: Partition) -> IsoDelta:
    """Decompose ``g`` into intra-block weights and the cross-block Laplacian."""
    same_block = p.labels[:, None] == p.labels[None, :]
    w_iso = np.where(same_block, g.weights, 0.0)
    w_delta = g.weights - w_iso
    l_delta = np.diag(w_delta.sum(axis=1)) - w_delta
    return IsoDelta(w_iso=WeightedGraph(w_iso), l_delta=l_delta)


def canonical_uiso(p: Partition) -> np.ndarray:
    """Ideal embedding: column j is the indicator of block j over sqrt(size)."""
    sizes = p.sizes()
    u = np.zeros((len(p.labels), p.k))
    u[np.arange(len(p.labels)), p.labels] = 1.0 / np.sqrt(sizes[p.labels])
    return u


def two_to_inf_norm(m) -> float:
    """Largest Euclidean row norm."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.sqrt((m * m).sum(axis=1)).max())


def _check_orthonormal(u: np.ndarray, name: str) -> None:
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(u.shape[1]))) > TOL.orthonormality:
        raise InputError(f"{name} does not have orthonormal columns")


def procrustes_align(u: np.ndarray, u_iso: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best orthogonal rotation of ``u`` onto ``u_iso`` (Frobenius sense).

    Returns (v_tilde, aligned) with aligned = u @ v_tilde, where v_tilde is
    the product of the singular-vector factors of u.T @ u_iso. Warns when
    the cross-product is nearly rank-deficient (subspaces close to
    orthogonal), in which case the rotation is still returned but barely
    constrained in the deficient directions.
    """
    u = np.asarray(u, dtype=float)
    u_iso = np.asarray(u_iso, dtype=float)
    if u.shape != u_iso.shape:
        raise InputError(f"shape mismatch: {u.shape} vs {u_iso.shape}")
    if u.ndim != 2 or u.shape[0] < u.shape[1]:
        raise InputError("expected tall matrices with orthonormal columns")
    _check_orthonormal(u, "first factor")
    _check_orthonormal(u_iso, "second factor")
    v1, sigma, v2t = np.linalg.svd(u.T @ u_iso)
    if sigma.size and sigma.min() < TOL.procrustes_degeneracy:
        warnings.warn(
            "subspaces are nearly orthogonal; alignment is ill-determined",
            DegenerateAlignmentWarning,
        )
    v_tilde = v1 @ v2t
    return v_tilde, u @ v_tilde


def two_to_inf_error(u: np.ndarray, u_iso: np.ndarray) -> float:
    """Worst per-row displacement of the aligned embedding from the ideal one."""
    _, aligned = procrustes_align(u, u_iso)
    return two_to_inf_norm(aligned - u_iso)


@dataclass(frozen=True)
class PerturbationReport:
    """Quantities of the eigenmap perturbation theorem for one instance.

    ``bound`` is None when the precondition on r fails (the theorem is
    silent there); ``measured`` is always filled so the two can be compared
    when both exist.
    """

    c: float
    r: float
    precondition_ok: bool
    bound: float | None
    measured: float
    gap_lower: float
    mu: float

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "r": self.r,
            "precondition_ok": self.precondition_ok,
            "bound": self.bound,
            "measured": self.measured,
            "gap_lower": self.gap_lower,
            "mu": self.mu,
        }


def theoretical_bound(g: WeightedGraph, p: Partition) -> PerturbationReport:
    """Evaluate the two-to-infinity theorem on a partitioned graph.

    Computes the unbalanceness c, the perturbation/eigengap ratio r, the
    theoretical bound when r is small enough, and the measured aligned
    error of the k-dimensional eigenmap against the block indicators.

    Raises HypothesisViolation when a block has fewer than 3 vertices (the
    theorem assumes |V_i| >= 3) or when the spectral gap between the k-th
    and (k+1)-th eigenvalue is numerically zero, leaving the eigenmap
    subspace undefined.
    """
    n = g.n
    if n < 3:
        raise HypothesisViolation("theorem needs at least 3 vertices")
    sizes = p.sizes()
    if sizes.min() < 3:
        raise HypothesisViolation(
            f"every block must have at least 3 vertices, smallest has {sizes.min()}"
        )

    c = float(n / sizes.min())
    log_n = math.log(n)
    # blocks have >= 3 vertices, so the certificate's ratio is max boundary
    # degree over min block lambda2, infinite when a block is disconnected
    cert = certificate(g, p)
    r = cert.ratio_r
    precondition_ok = r <= 1.0 / (16.0 * (1.0 + c) * log_n)

    k = p.k
    emb = eigenmap(g, min(k + 1, n))
    if k < n and emb.values[k] - emb.values[k - 1] < TOL.eigengap:
        raise HypothesisViolation("eigengap at k is numerically zero")
    measured = two_to_inf_error(emb.U[:, :k], canonical_uiso(p))

    bound = None
    if precondition_ok:
        bound = 32.0 * math.sqrt(c) * (r * r + r * log_n) / math.sqrt(n)
    gap_lower = cert.min_lambda2 / (2.0 * log_n)
    return PerturbationReport(
        c=c,
        r=r,
        precondition_ok=precondition_ok,
        bound=bound,
        measured=measured,
        gap_lower=gap_lower,
        mu=math.sqrt(c),
    )


def gap_lower_bound(g: WeightedGraph) -> float:
    """Spectral lower bound lambda2/(2 ln n) on the l-infinity gap."""
    if g.n < 3:
        raise InputError("lower bound needs at least 3 vertices")
    return lambda2(g) / (2.0 * math.log(g.n))


def gap_lower_per_block(g: WeightedGraph, p: Partition) -> np.ndarray:
    """Per-block variant lambda2(L_i)/(2 ln |V_i|), a sharper diagnostic.

    The block lambda2s come from ``intra_connectivities``, so a singleton
    block reports +inf and raises the same SingletonBlockWarning as the
    certificate.
    """
    lam = intra_connectivities(g, p)
    # a singleton's lambda2 is already +inf; its log size 0 is kept out of
    # the division so that no divide-by-zero warning is raised
    return lam / (2.0 * np.log(np.maximum(p.sizes(), 2)))


def gap_upper_bound_unweighted(g: WeightedGraph) -> float:
    """Upper bound 4 * max_degree / diameter, valid for unweighted connected graphs."""
    if not g.is_unweighted():
        raise InputError("upper bound requires an unweighted graph")
    if not is_connected(g):
        raise InputError("upper bound requires a connected graph")
    return 4.0 * float(g.degrees().max()) / diameter(g)


def gap_exact(g: WeightedGraph) -> float:
    """The l-infinity gap inf_{x perp 1} ||Lx||_inf / ||x||_inf, certified.

    Zero for a disconnected graph (a centred component indicator has
    ``Lx = 0``). Otherwise ``simplex.gap_certificate`` solves the n programs
    that pin one coordinate at the sup-norm value 1 (pinning at -1 is
    covered by sign symmetry) in closed form, and returns a weak-duality
    lower bound for each and the ratio ||Lx||_inf / ||x - mean(x)||_inf of
    one vector. That ratio is returned, so the value is never below the
    true gap, and only when the bracket is at most ``gap_bracket *
    max(1, value)`` wide; otherwise SolverError is raised. Capped at
    n <= 200.
    """
    if g.n < 2:
        raise InputError("gap needs at least 2 vertices")
    if g.n > GAP_EXACT_MAX_N:
        raise SizeError(f"exact gap is capped at n <= {GAP_EXACT_MAX_N}, got {g.n}")
    if not is_connected(g):
        return 0.0
    lowers, value = gap_certificate(laplacian(g))
    lower = float(lowers.min())
    if not value - lower <= TOL.gap_bracket * max(1.0, value):
        raise SolverError(f"gap bracket [{lower:.12g}, {value:.12g}] did not close")
    return value
