"""Exact minimum ratio cut by exhaustive enumeration, for small graphs.

Ground truth for everything else: certificates are checked against the true
minimizer and rounding heuristics are compared with the exact optimum. The
search space is every partition of the vertices into exactly k nonempty
unlabeled blocks, walked once via restricted-growth strings, so the count
is the Stirling number of the second kind and no relabeled duplicates are
ever scored.

The strings are generated in lexicographic order as ``int8`` arrays of at
most ``_BLOCK_ROWS`` rows (Knuth, TAOCP Vol. 4A, §7.2.1.5): every prefix of
length ``n - s`` is followed by a table of the suffixes of length ``s`` that
its count of open blocks admits, built once per count. Each array is scored
in one pass of numpy arithmetic, and only the rows whose value could change
the best or the runner-up are rescored with ``graphs.ratio_cut``, so the
result is the one the plain per-partition loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InputError, SizeError
from .graphs import Partition, WeightedGraph, ratio_cut
from .tolerances import DEFAULT as TOL

MAX_ENUM_N = 14

# rows per generated array; with the scoring temporaries of _ratio_cuts this
# keeps the working set of a block well under a megabyte
_BLOCK_ROWS = 2048


def _check_size(n: int, k: int) -> None:
    if n > MAX_ENUM_N:
        raise SizeError(f"enumeration is capped at n <= {MAX_ENUM_N}, got {n}")
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, {n}], got {k}")


def _grow(rows: np.ndarray, used: np.ndarray, start: int, steps: int, n: int, k: int):
    """Extend restricted-growth strings by ``steps`` labels, keeping lexicographic order.

    ``rows`` holds the labels of positions ``start - rows.shape[1] .. start - 1``
    and ``used`` the count of blocks each string has opened. A position takes
    a label of an open block or opens the next one, and only extensions that
    can still open all ``k`` blocks by position ``n`` are kept.
    """
    values = np.arange(k, dtype=np.int8)
    for pos in range(start, start + steps):
        opened = used[:, None] + (values == used[:, None])
        ok = (values <= used[:, None]) & (k - opened <= n - pos - 1)
        r, v = np.nonzero(ok)  # row-major, so children follow their parent in label order
        rows = np.concatenate([rows[r], values[v, None]], axis=1)
        used = opened[r, v]
    return rows, used


def _rgs_blocks(n: int, k: int) -> Iterator[np.ndarray]:
    """Yield the restricted-growth strings of n labels and exactly k blocks.

    In lexicographic order, as ``(rows, n)`` ``int8`` arrays of
    ``_BLOCK_ROWS`` rows (the last one may be shorter).
    """
    # longest suffix whose table (at most k**s rows) fits in one block
    s = 0
    while s < n - 1 and k ** (s + 1) <= _BLOCK_ROWS:
        s += 1
    p = n - s
    prefixes, used = _grow(np.zeros((1, 1), dtype=np.int8), np.ones(1, dtype=int), 1, p - 1, n, k)
    empty = np.zeros((1, 0), dtype=np.int8)
    tables = {m: _grow(empty, np.array([m]), p, s, n, k)[0] for m in np.unique(used).tolist()}

    buf = np.empty((_BLOCK_ROWS, n), dtype=np.int8)
    fill = 0
    for prefix, m in zip(prefixes, used.tolist()):
        table = tables[m]
        done = 0
        while done < len(table):
            take = min(_BLOCK_ROWS - fill, len(table) - done)
            buf[fill : fill + take, :p] = prefix
            buf[fill : fill + take, p:] = table[done : done + take]
            fill += take
            done += take
            if fill == _BLOCK_ROWS:
                yield buf
                buf = np.empty((_BLOCK_ROWS, n), dtype=np.int8)
                fill = 0
    if fill:
        yield buf[:fill]


def enumerate_partitions(n: int, k: int) -> Iterator[Partition]:
    """Return an iterator over each partition of n items into exactly k nonempty blocks.

    Encoded as restricted-growth strings in lexicographic order: position 0
    is always block 0, and a position may open at most one new block beyond
    those already seen. Capped at n <= 14; the count grows as the Stirling
    number S(n, k). The arguments are checked when this is called, before
    any partition is generated.
    """
    _check_size(n, k)
    return (Partition(row, k) for rows in _rgs_blocks(n, k) for row in rows)


def _ratio_cuts(w: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Ratio cut of every row of ``labels``, from sums of nonnegative terms only.

    Block j's cut is ``sum_i h_i (W (1 - h))_i`` with ``h`` its indicator, so
    no difference cancels: each value is within a small relative error of
    what ``ratio_cut`` computes for the same partition, even when both are 0.
    """
    total = np.zeros(labels.shape[0])
    for j in range(k):
        h = (labels == j).astype(float)
        outside = (1.0 - h) @ w  # weight from each vertex to the vertices outside block j
        total += np.einsum("bi,bi->b", h, outside) / h.sum(axis=1)
    return total


@dataclass(frozen=True)
class OracleResult:
    """Exact minimizer with uniqueness information.

    ``unique`` means no other enumerated partition came within 1e-9 of the
    optimum. ``runner_up`` is the second smallest value over all enumerated
    partitions, equal to the optimum when it is tied (None when only one
    partition exists).
    """

    best: Partition
    value: float
    unique: bool
    partitions_examined: int
    runner_up: float | None

    def to_dict(self) -> dict:
        return {
            "best": self.best.labels,
            "k": self.best.k,
            "value": self.value,
            "unique": self.unique,
            "partitions_examined": self.partitions_examined,
            "runner_up": self.runner_up,
        }


def min_ratio_cut_bruteforce(g: WeightedGraph, k: int) -> OracleResult:
    """Scan every k-way partition and return the exact ratio cut minimizer.

    Deterministic: ties keep the first partition in enumeration order. The
    reported value and runner-up are exactly what ``ratio_cut`` computes on
    the partitions they come from.

    Each array of strings is scored in one batch; a row is rescored with
    ``ratio_cut`` and passed to the update only if its batch value could
    make it the best or the runner-up. With ``slack = inequality_slack *
    max(1, sum of degrees)`` bounding the batch error, a row is skipped when
    its batch value exceeds the runner-up so far by more than ``slack``, or
    the array's second smallest batch value by more than ``2 * slack``: its
    ratio cut then lies above the final runner-up. Once a runner-up exists,
    a row is also skipped when the relative error of its batch value (sums
    of nonnegative terms on both sides) rules out a ratio cut strictly below
    the runner-up, since the update would then leave everything as it is.
    """
    _check_size(g.n, k)
    slack = TOL.inequality_slack * max(1.0, float(g.degrees().sum()))
    # _ratio_cuts rounds at most 2n + k times per value and ratio_cut at most
    # n * n / 4 + k + 1 times, each by eps / 2; this covers both twice over
    rel = (g.n * g.n + 4 * g.n) * float(np.finfo(float).eps)
    best_p = None
    best_v = np.inf
    second_v = np.inf
    examined = 0
    for rows in _rgs_blocks(g.n, k):
        examined += len(rows)
        approx = _ratio_cuts(g.weights, rows, k)
        reach = second_v
        if len(rows) > 1:
            reach = min(reach, float(np.partition(approx, 1)[1]) + slack)
        keep = approx <= reach + slack
        if np.isfinite(second_v):
            keep &= approx < second_v * (1.0 + rel)
        for row in rows[keep]:
            p = Partition(row, k)
            v = ratio_cut(g, p)
            if v < best_v:
                second_v = best_v
                best_v = v
                best_p = p
            elif v < second_v:
                second_v = v
    unique = second_v > best_v + TOL.inequality_slack
    runner_up = None if np.isinf(second_v) else float(second_v)
    return OracleResult(
        best=best_p,
        value=float(best_v),
        unique=unique,
        partitions_examined=examined,
        runner_up=runner_up,
    )
