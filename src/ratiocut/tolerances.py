"""Central numerical tolerance configuration.

Every comparison threshold used by the library lives in one frozen record so
that tests, library code and documentation agree on the defaults.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: accepted asymmetry max|A - A^T| before an input is rejected
    symmetry: float = 1e-10
    #: orthonormality / eigen-residual budget for decomposition outputs
    eigen_residual: float = 1e-8
    #: eigenvalues below this count as zero (disconnection threshold)
    zero_eigenvalue: float = 1e-8
    #: absolute tolerance on the certificate half-inequality comparison
    certificate_comparison: float = 1e-12
    #: generic absolute slack for inequality checks (bounds, margins)
    inequality_slack: float = 1e-9
    #: width, relative to max(1, value), a certified gap bracket must close to
    gap_bracket: float = 1e-9
    #: accepted max|U^T U - I| of a basis handed to the perturbation routines
    orthonormality: float = 1e-6
    #: smallest singular value of U^T U_iso below which Procrustes alignment warns
    procrustes_degeneracy: float = 1e-8
    #: smallest eigengap lambda_{k+1} - lambda_k the perturbation bound accepts
    eigengap: float = 1e-9
    #: distance below which two points or centroids count as coincident
    coincident_points: float = 1e-12


DEFAULT = Tolerances()
