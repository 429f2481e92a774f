"""Small dense linear programming solver (two-phase simplex, Bland's rule).

Solves   minimize c.x   subject to   a_ub @ x <= b_ub,  a_eq @ x == b_eq,
x >= 0, in dense tableau form. Bland's smallest-index pivoting rule makes
the iteration deterministic and immune to cycling, at the cost of speed;
this solver is intended for the small exact-gap programs (a few hundred
variables at most), not for general use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SolverError
from .tolerances import DEFAULT as TOL

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _iterate(tableau: np.ndarray, basis: np.ndarray, ncols: int) -> str:
    """Run simplex pivots until optimal or unbounded.

    The last row of the tableau holds reduced costs; the last column holds
    the right-hand side. Bland's rule: entering variable is the lowest
    eligible column index, leaving row breaks ratio ties by the lowest
    basic variable index.
    """
    m = tableau.shape[0] - 1
    for _ in range(50_000):
        # all thresholds are relative to the tableau magnitude: roundoff in
        # a pivot chain grows with the entries it touches, so an absolute
        # cutoff either rejects genuine small numbers or, far worse, accepts
        # noise as a pivot (dividing a row by a noise entry blows the
        # tableau up and silently leaves the feasible basis)
        tol = TOL.lp_pivot * max(1.0, float(np.abs(tableau).max()))
        costs = tableau[-1, :ncols]
        eligible = np.flatnonzero(costs < -tol)
        if eligible.size == 0:
            return OPTIMAL
        col = int(eligible[0])
        column = tableau[:m, col]
        rhs = tableau[:m, -1]
        rows = np.flatnonzero(column > tol)
        if rows.size == 0:
            return UNBOUNDED
        ratios = rhs[rows] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + TOL.lp_pivot * max(1.0, abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        _pivot(tableau, basis, row, col)
    raise SolverError("simplex iteration limit reached")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LPResult:
    """Minimize ``c @ x`` over ``x >= 0`` under the given constraints.

    Inequalities are ``a_ub @ x <= b_ub`` and equalities ``a_eq @ x == b_eq``.
    Returns an LPResult whose status is one of "optimal", "infeasible",
    "unbounded"; x and objective are filled only on "optimal".
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise InputError("objective must be a vector")
    nvar = c.size

    rows = []
    rhs = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        if a_ub.shape != (b_ub.size, nvar):
            raise InputError("inequality constraint shapes do not match")
        rows.append(a_ub)
        rhs.append(b_ub)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if a_eq.shape != (b_eq.size, nvar):
            raise InputError("equality constraint shapes do not match")
        rows.append(a_eq)
        rhs.append(b_eq)
    n_ub = 0 if a_ub is None else a_ub.shape[0]
    n_eq = 0 if a_eq is None else a_eq.shape[0]
    m = n_ub + n_eq
    if m == 0:
        # only x >= 0 remains: minimized at 0 for c >= 0, otherwise unbounded
        if np.all(c >= -TOL.lp_pivot):
            x = np.zeros(nvar)
            return LPResult(OPTIMAL, x, 0.0)
        return LPResult(UNBOUNDED, None, None)

    a = np.vstack(rows)
    b = np.concatenate(rhs)

    # slack variables for the inequality rows
    slack = np.vstack([np.eye(n_ub), np.zeros((n_eq, n_ub))]) if n_ub else np.zeros((m, 0))
    a = np.hstack([a, slack])

    # normalize to b >= 0, then add artificials wherever no slack can start
    # in the basis (negative-rhs inequality rows and all equality rows)
    neg = b < 0.0
    a[neg] *= -1.0
    b = np.abs(b)
    need_art = np.ones(m, dtype=bool)
    for i in range(n_ub):
        if not neg[i]:
            need_art[i] = False
    art_rows = np.flatnonzero(need_art)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0
    a = np.hstack([a, art])

    ntot = nvar + n_ub
    ncols = ntot + n_art
    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = ntot + int(np.searchsorted(art_rows, i)) if need_art[i] else nvar + i

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, :ncols] = a
    tableau[:m, -1] = b

    # phase 1: minimize the sum of artificials
    phase1 = np.zeros(ncols + 1)
    phase1[ntot:ncols] = 1.0
    tableau[-1] = phase1
    for i in range(m):
        if basis[i] >= ntot:
            tableau[-1] -= tableau[i]
    status = _iterate(tableau, basis, ncols)
    if status != OPTIMAL:  # the phase-1 objective is bounded below by zero
        raise SolverError("phase-1 simplex did not reach its optimum")
    scale = max(1.0, float(np.abs(tableau).max()))
    if -tableau[-1, -1] > TOL.lp_feasibility * scale:
        return LPResult(INFEASIBLE, None, None)

    # drive leftover artificials out of the basis (degenerate rows)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= ntot:
            candidates = np.flatnonzero(np.abs(tableau[i, :ntot]) > TOL.lp_pivot * scale)
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]))
            else:
                keep[i] = False  # redundant constraint row
    if not keep.all():
        tableau = np.vstack([tableau[:m][keep], tableau[-1:]])
        basis = basis[keep]
        m = int(keep.sum())

    # phase 2 on the original objective, artificial columns frozen out
    tableau = np.hstack([tableau[:, :ntot], tableau[:, -1:]])
    tableau[-1] = 0.0
    tableau[-1, :nvar] = c
    for i in range(m):
        if tableau[-1, basis[i]] != 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    status = _iterate(tableau, basis, ntot)
    if status != OPTIMAL:
        return LPResult(UNBOUNDED, None, None)

    x = np.zeros(ntot)
    x[basis] = tableau[:m, -1]
    x = x[:nvar]
    return LPResult(OPTIMAL, x, float(c @ x))
