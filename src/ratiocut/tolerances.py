"""Central numerical tolerance configuration.

Every comparison threshold used by the library lives in one frozen record so
that tests, library code and documentation agree on the defaults. Decisions
on eigenvalues (the certificate, the disconnection test, the eigengap check)
use no setting: they read the error radius each checked solve measures
(``eigen``), and ties between ratio cuts use ``graphs.ratio_cut_rel``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: accepted asymmetry max|A - A^T| before an input is rejected
    symmetry: float = 1e-10
    #: budget a decomposition must meet to be returned at all: ||V^T V - I||_F
    #: at most this, and its measured error radius at most this times ||A||_inf
    eigen_residual: float = 1e-8
    #: slack for inequality checks: relative to the optimum in the oracle's
    #: ``unique``, to the one-cluster cost in the k-means restart pick, and
    #: absolute in the Lloyd cost and ball-membership checks
    inequality_slack: float = 1e-9
    #: width, relative to the value, a certified gap bracket must close to
    gap_bracket: float = 1e-9
    #: accepted max|U^T U - I| of a basis handed to the perturbation routines
    orthonormality: float = 1e-6
    #: smallest singular value of U^T U_iso below which Procrustes alignment warns
    procrustes_degeneracy: float = 1e-8
    #: distance below which two points or centroids count as coincident
    coincident_points: float = 1e-12


DEFAULT = Tolerances()
