"""Exact minimum ratio cut by exhaustive enumeration, for small graphs.

Ground truth for everything else: certificates are checked against the true
minimizer and rounding heuristics are compared with the exact optimum. The
search space is every partition of the vertices into exactly k nonempty
unlabeled blocks, walked once via restricted-growth strings, so the count
is the Stirling number of the second kind and no relabeled duplicates are
ever scored.

Each string, in lexicographic order (Knuth, TAOCP Vol. 4A, §7.2.1.5), is a
prefix of length ``p = n - s`` followed by one of the ``k ** s`` suffixes of
length ``s`` that the prefix's count of open blocks admits, with ``s`` the
largest value at most ``n // 2`` for which ``k ** s <= 1024``. A block's cut
is then prefix-prefix weight, computed once per prefix, suffix-suffix
weight, computed once per suffix, and prefix-suffix weight, which for all
pairs of a chunk of prefixes and the suffixes is one small matrix product
per block: the prefix side holds the weight from the block's prefix
vertices and from the rest of the prefix to each suffix vertex, the suffix
side the indicators of the block and of its complement. No term is
negative, so each batch value is within ``graphs.ratio_cut_rel``, the one
tie rule for ratio cuts, of the exact value. Each scored chunk is filtered
once by that rule; only the strings that could change the best or the
runner-up get label rows, and they are rescored in one batch by
``graphs.ratio_cuts``, the kernel that ``graphs.ratio_cut`` runs on one
row, so the result is the one the plain per-partition loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InputError, SizeError
from .graphs import Partition, WeightedGraph, check_int, ratio_cut_rel, ratio_cuts
from .tolerances import DEFAULT as TOL

MAX_ENUM_N = 14

# most suffixes, k ** s: the suffix side of the products stays small and in cache
_TABLE_ROWS = 1024
# prefix x suffix pairs scored and filtered per chunk of prefixes: a chunk's
# arrays (64 kB each) stay in cache, and every string of a chunk is
# rescored when all of them tie; four times as many took a third less time
# at n = 14, k = 4 but raised its peak memory by about half a megabyte
_CHUNK_ROWS = 8192


def _split(n: int, k: int) -> int:
    """Suffix length: the largest ``s <= n // 2`` with ``k ** s <= _TABLE_ROWS``."""
    s = 0
    while s < n // 2 and k ** (s + 1) <= _TABLE_ROWS:
        s += 1
    return s


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


class _Strings:
    """The restricted-growth strings of n labels and exactly k blocks, as prefix x suffix.

    ``prefixes`` holds the first ``p = n - s`` labels in lexicographic order
    and ``used`` each prefix's count of open blocks. ``suffixes`` holds all
    ``k ** s`` strings of ``s`` labels in ``[0, k)``, in lexicographic order,
    and ``admits[m, t]`` says whether suffix t continues a prefix with m open
    blocks to a string of exactly k blocks (never for m = 0, which pads).
    The strings in lexicographic order are the admitted pairs ``(i, t)`` of
    prefix i and suffix t in the order ``(0, 0), (0, 1), ..., (1, 0), ...``.
    """

    def __init__(self, n: int, k: int, s: int):
        self.k = k
        self.p = p = n - s
        self.prefixes, self.used = _grow(
            np.zeros((1, 1), dtype=np.int8), np.ones(1, dtype=np.int8), 1, p - 1, n, k)
        self.suffixes = _grow(np.zeros((1, 0), dtype=np.int8), np.array([k], dtype=np.int8), p, s, n, k)[0]
        opened = np.arange(k + 1)[:, None]
        admits = opened > 0
        for label in self.suffixes.T:
            admits = admits & (label <= opened)
            opened = opened + (label == opened)
        self.admits = admits & (opened == k)

    def labels(self, prefix: np.ndarray, suffix: np.ndarray) -> np.ndarray:
        """Label rows of the strings ``(prefix[f], suffix[f])``, as ``int8``."""
        return np.concatenate([self.prefixes[prefix], self.suffixes[suffix]], axis=1)


def _indicators(labels: np.ndarray, k: int) -> np.ndarray:
    """``(k, rows, len)`` floats: entry ``[j, r, i]`` is 1 where ``labels[r, i] == j``."""
    return (labels == np.arange(k, dtype=labels.dtype)[:, None, None]).astype(float)


def _batch_ratio_cuts(w: np.ndarray, st: _Strings) -> Iterator[tuple[int, np.ndarray]]:
    """Ratio cut estimates of every string, from sums of nonnegative terms only.

    Yields ``(first, values)`` per chunk of prefixes: ``values[i, t]``
    estimates the ratio cut of string ``(first + i, t)``, and is ``inf``
    where the pair is not admitted. Block j's cut is the weight from its
    prefix vertices to the rest of the prefix (``PP``), the same within the
    suffix (``SS``), and between the two; for one prefix and one suffix that
    is the product ``[A, B, PP, 1] . [1 - h, h, 1, SS]`` of a prefix-side
    row and a suffix-side column, where ``A`` and ``B`` hold the weight
    from the block's prefix vertices and from the other prefix vertices to
    each suffix vertex, and ``h`` is the suffix's indicator of the block.
    With ``s <= n // 2``, a weight passes at most 2p - 2 + 2s + 1 additions
    into a block's cut, so a value rounds at most 2n + k times.
    """
    k, p = st.k, st.p
    s = st.suffixes.shape[1]
    w_pp, w_ps, w_ss = w[:p, :p], w[:p, p:], w[p:, p:]
    h = _indicators(st.suffixes.T, k)
    right = np.concatenate([1.0 - h, h, np.ones((k, 2, len(st.suffixes)))], axis=1)
    right[:, 2 * s + 1] = np.einsum("jit,jit->jt", h, w_ss @ right[:, :s])
    right_size = h.sum(axis=1)
    chunk = max(1, _CHUNK_ROWS // len(st.suffixes))
    for first in range(0, len(st.prefixes), chunk):
        h = _indicators(st.prefixes[first : first + chunk], k)
        rest = 1.0 - h
        pp = np.einsum("jxi,jxi->jx", h, rest @ w_pp)
        one = np.ones(h.shape[:2] + (1,))
        left = np.concatenate([h @ w_ps, rest @ w_ps, pp[..., None], one], axis=2)
        left_size = h.sum(axis=2)
        total = np.zeros((h.shape[1], len(st.suffixes)))
        with np.errstate(divide="ignore", invalid="ignore"):  # a block left empty: not admitted
            for j in range(k):
                total += left[j] @ right[j] / (left_size[j, :, None] + right_size[j])
        total[~st.admits[st.used[first : first + chunk]]] = np.inf
        yield first, total


@dataclass(frozen=True)
class OracleResult:
    """Exact minimizer with uniqueness information.

    ``unique`` means every other enumerated partition's ratio cut exceeds
    the optimum by more than ``Tolerances.inequality_slack`` (1e-9) times
    the optimum, a rule that scaling the weights does not change.
    ``runner_up`` is the second smallest value over all enumerated
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

    The strings are scored and filtered in chunks of consecutive strings; a
    string is rescored exactly and passed to the update only if its batch
    value could make it the best or the runner-up, by the one tie rule for
    ratio cuts, ``rel = graphs.ratio_cut_rel(n)``. A string is skipped when
    its batch value exceeds its chunk's second smallest value times
    ``(1 + rel) ** 2``, as two strings of the chunk then have smaller ratio
    cuts, or is not below the runner-up so far times ``1 + rel``, as the
    update would then leave everything as it is. A NaN batch value, a weight sum that
    overflowed to inf multiplied by 0, bounds nothing and is always rescored.
    """
    if g.n > MAX_ENUM_N:
        raise SizeError(f"enumeration is capped at n <= {MAX_ENUM_N}, got {g.n}")
    check_int("k", k, 1, g.n)
    rel = ratio_cut_rel(g.n)
    st = _Strings(g.n, k, _split(g.n, k))
    width = len(st.suffixes)
    best = None
    best_v = np.inf
    second_v = np.inf
    for first, values in _batch_ratio_cuts(g.weights, st):
        # the chunk's second smallest value (inf when it holds a single
        # string) widened by the rule; "not above" it keeps an all-zero chunk
        reach = float(np.partition(np.append(values, np.inf), 1)[1]) * (1.0 + rel) ** 2
        # below second_v * (1 + rel), strictly, which keeps out the pairs
        # that are not admitted (inf) also while there is no runner-up
        top = min(reach, np.nextafter(second_v * (1.0 + rel), -np.inf))
        # "not above" keeps NaN
        pos = np.flatnonzero(~(values > top))
        if pos.size == 0:
            continue
        labels = st.labels(first + pos // width, pos % width)
        exact = ratio_cuts(g.weights, labels, k)
        i = int(np.argmin(exact))  # the first of equal minima, as in enumeration order
        if exact[i] < best_v:
            best = labels[i]
        low = np.partition(np.append(exact, (best_v, second_v)), 1)
        best_v, second_v = float(low[0]), float(low[1])
    if best is None:
        raise InputError("every ratio cut overflows to inf; rescale the weights")
    unique = second_v > best_v * (1.0 + TOL.inequality_slack)
    runner_up = None if np.isinf(second_v) else second_v
    return OracleResult(
        best=Partition(best, k),
        value=best_v,
        unique=unique,
        partitions_examined=int(st.admits.sum(axis=1)[st.used].sum()),
        runner_up=runner_up,
    )
