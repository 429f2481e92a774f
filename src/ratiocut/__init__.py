"""Spectral clustering with optimality certificates for the ratio cut.

The package turns three pieces of spectral graph theory into checkable
tools: a sufficient condition certifying that a given k-way partition is
the global minimum ratio cut, a two-to-infinity perturbation bound for how
far the Laplacian eigenmap can drift from ideal block indicators, and
l-infinity eigengap estimates with the exact gap in closed form, returned
only inside a closed primal/dual bracket. Rounding (Fiedler bisection,
Lloyd k-means) and a brute-force exact solver for small graphs round out
the pipeline.
"""

from .certify import (
    Certificate,
    boundary_degrees,
    certificate,
    density_lower_bound_check,
    intra_connectivities,
)
from .eigen import Eigenmap, eigenmap, fiedler, lambda2, sym_eig
from .errors import (
    DegenerateAlignmentWarning,
    DisconnectedGraphWarning,
    FileFormatError,
    HypothesisViolation,
    InputError,
    SingletonBlockWarning,
    SizeError,
    SolverError,
)
from .fileio import (
    canonical_json,
    read_edge_list,
    read_partition,
    write_edge_list,
    write_embedding,
    write_json,
    write_partition,
)
from .graphs import (
    Partition,
    WeightedGraph,
    bfs_distances,
    connected_components,
    cut_weight,
    diameter,
    gen_example_blocks,
    gen_planted_blocks,
    gen_unbalanced_example,
    induced_subgraph,
    is_connected,
    laplacian,
    ratio_cut,
    same_partition,
)
from .oracle import MAX_ENUM_N, OracleResult, enumerate_partitions, min_ratio_cut_bruteforce
from .perturb import (
    GAP_EXACT_MAX_N,
    IsoDelta,
    PerturbationReport,
    canonical_uiso,
    gap_exact,
    gap_lower_bound,
    gap_lower_per_block,
    gap_upper_bound_unweighted,
    procrustes_align,
    split_iso_delta,
    theoretical_bound,
    two_to_inf_error,
    two_to_inf_norm,
)
from .rounding import (
    ProximityReport,
    RoundingResult,
    fiedler_bisect,
    hyperplane_margin_bound,
    kmeans_round,
    proximity_check,
    recovery_diagnostics,
    spectral_cluster,
)
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DegenerateAlignmentWarning",
    "DisconnectedGraphWarning",
    "Eigenmap",
    "FileFormatError",
    "GAP_EXACT_MAX_N",
    "HypothesisViolation",
    "InputError",
    "IsoDelta",
    "MAX_ENUM_N",
    "OracleResult",
    "Partition",
    "PerturbationReport",
    "ProximityReport",
    "RoundingResult",
    "SingletonBlockWarning",
    "SizeError",
    "SolverError",
    "Tolerances",
    "WeightedGraph",
    "bfs_distances",
    "boundary_degrees",
    "canonical_json",
    "canonical_uiso",
    "certificate",
    "connected_components",
    "cut_weight",
    "density_lower_bound_check",
    "diameter",
    "eigenmap",
    "enumerate_partitions",
    "fiedler",
    "fiedler_bisect",
    "gap_exact",
    "gap_lower_bound",
    "gap_lower_per_block",
    "gap_upper_bound_unweighted",
    "gen_example_blocks",
    "gen_planted_blocks",
    "gen_unbalanced_example",
    "hyperplane_margin_bound",
    "induced_subgraph",
    "intra_connectivities",
    "is_connected",
    "kmeans_round",
    "lambda2",
    "laplacian",
    "min_ratio_cut_bruteforce",
    "procrustes_align",
    "proximity_check",
    "ratio_cut",
    "read_edge_list",
    "read_partition",
    "recovery_diagnostics",
    "same_partition",
    "spectral_cluster",
    "split_iso_delta",
    "sym_eig",
    "theoretical_bound",
    "two_to_inf_error",
    "two_to_inf_norm",
    "write_edge_list",
    "write_embedding",
    "write_json",
    "write_partition",
]
