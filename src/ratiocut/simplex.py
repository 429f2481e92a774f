"""Certified solution of the pinned sup-norm gap programs.

For a Laplacian ``L`` and a pinned coordinate ``i`` the program is the
linear program

    minimize t  over (x, t)  subject to  -t <= (Lx)_r <= t,  |x_j| <= 1,
                                         sum(x) = 0,  x_i = 1,

and the gap ``inf_{x perp 1} ||Lx||_inf / ||x||_inf`` of a connected graph
is the smallest optimum over the pins. Dropping the bounds ``|x_j| <= 1``
does not move that minimum: every ``x perp 1`` with ``x_i = 1`` has
``||Lx||_inf >= ||x||_inf * gap >= gap``, and the gap's own optimum is
feasible for its pin. Without the bounds each pin has a closed form: with
``x = L^+ u`` for ``u perp 1``, l-infinity/l-1 duality gives

    gap = 1 / max_i min_a ||L^+ e_i - a 1||_1,

the inner minimum taken at the median of column i. One inverse of
``L + 11^T / n``, which is ``L^+ + 11^T / n``, gives every column.

The value is returned with a certificate rather than trusted:

- ``upper = ||Lx||_inf / ||x - mean(x)||_inf`` for ``x = L^+ u``, ``u`` the
  +-1 vector of the widest column's upper and lower halves; the ratio of a
  real vector is never below the gap;
- for every pin, the column's centred, l1-normalised values are Lagrange
  multipliers of its program's rows ``-t <= (Lx)_r <= t``, and weak duality
  (Boyd & Vandenberghe, Convex Optimization, section 5.2) turns them into
  a lower bound on the pin's optimum after an exact repair: with
  ``r = L y + nu0 1 + nu1 e_i`` absorbed by the multipliers of the bounds,
  ``lower_i = -||r||_1 - nu1``. The smallest of these bounds the gap.

The module keeps its name ``simplex`` (it held a dense two-phase simplex
that solved the n programs one by one) so that imports by name, such as
the per-layer tracer of ``bench/tracer.py``, keep working.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError


def gap_certificate(l: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower bounds on every pin's optimum and an upper bound on the gap.

    ``l`` is the Laplacian of a connected graph. Returns ``(lowers, upper)``:
    ``lowers[i]`` bounds the pin-``i`` optimum from below by weak duality,
    so ``lowers.min()`` bounds the gap from below, and ``upper`` is the
    ratio ``||Lx||_inf / ||x - mean(x)||_inf`` of a real vector ``x``.
    Raises SolverError when the inverse cannot be formed.
    """
    n = l.shape[0]
    try:
        p = np.linalg.inv(l + 1.0 / n)  # L^+ + 11^T / n
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Laplacian inverse failed: {exc}") from exc
    srt = np.sort(p, axis=0)
    w = p - 0.5 * (srt[(n - 1) // 2] + srt[n // 2])  # columns minus their medians
    dist = np.abs(w).sum(axis=0)  # min_a ||L^+ e_i - a 1||_1 per column

    # dual: y = w_i / ||w_i||_1 on the t-rows, nu1 = -1 / ||w_i||_1 and
    # nu0 = -nu1 / n, so that r vanishes up to rounding
    r = l @ (w / dist) + 1.0 / (n * dist)
    r[np.arange(n), np.arange(n)] -= 1.0 / dist
    lowers = 1.0 / dist - np.abs(r).sum(axis=0)

    # primal: u = +-1 on the upper and lower halves of the widest column
    half = n // 2
    order = np.argsort(p[:, int(np.argmax(dist))], kind="stable")
    u = np.zeros(n)
    u[order[:half]] = -1.0
    u[order[n - half :]] = 1.0
    x = p @ u
    upper = float(np.abs(l @ x).max()) / float(np.abs(x - x.mean()).max())
    return lowers, upper
