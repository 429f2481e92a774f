"""Edge-list, partition and embedding file formats plus canonical JSON emission.

Edge-list format (byte-exact contract):
    line 1:        ``n m``
    lines 2..m+1:  ``i j w``  with ``0 <= i < j < n`` and ``w > 0``
Tokens are whitespace-separated; duplicate ``(i, j)`` lines are an error.

Partition format: one integer label per line, labels in ``[0, k)`` with every
label present.

The writers emit one canonical spelling: tokens separated by single spaces,
every line ended by ``\n``, integers without sign or leading zeros, and
weights as ``repr`` spells them (``0.5``, ``1.0``, ``1e-05``, ``5e-324``).
An edge list whose body lines (the lines after the header) are all canonical
is read in one vectorised numpy pass. Any other spelling goes through a
token-by-token loop: valid ones (tabs, repeated blanks, ``+1``, ``1.5E3``,
no final newline) read to the same values, and that loop is the only place
that reports a malformed body.

Embedding format: one row per vertex, coordinates separated by tabs and
spelled as in the JSON outputs.

JSON outputs are canonical: keys sorted, floats at 12 significant digits, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .errors import FileFormatError, InputError
from .graphs import Partition, WeightedGraph

_TOKEN = re.compile(r"\S+")

# One canonical edge line as the writer spells it, newline included. ASCII
# digits only: ``\d`` would also match digits of other scripts, which int()
# accepts. At most 18 digits keep every index inside int64. A body is
# canonical when deleting every match leaves nothing; one pattern repeated
# over the whole body would keep backtracking state for every line (1.5 MB
# for an 80 kB edge list), and ``*+`` needs Python 3.11.
_INT = r"(?:0|[1-9][0-9]{0,17})"
_WEIGHT = r"(?:(?:0|[1-9][0-9]*)\.[0-9]+|[1-9](?:\.[0-9]+)?e[+-][0-9]{2,3})"
_EDGE_LINE = re.compile(rf"{_INT} {_INT} {_WEIGHT}\n")


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs for one line."""
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]


def _fail(path: str, line_no: int, col: int, msg: str) -> FileFormatError:
    return FileFormatError(f"{path}:{line_no}:{col}: {msg}")


def _parse_int(tok: str, path: str, line_no: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise _fail(path, line_no, col, f"expected an integer {what}, got {tok!r}") from None


def _parse_float(tok: str, path: str, line_no: int, col: int, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise _fail(path, line_no, col, f"expected a number {what}, got {tok!r}") from None
    if not math.isfinite(value):
        raise _fail(path, line_no, col, f"{what} must be finite, got {tok!r}")
    return value


def _read_lines(path: str) -> tuple[str, list[str]]:
    """The file as UTF-8 text mode reads it, and its lines (no empty one after a
    final newline). Raises FileFormatError at the first byte that is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        # read again: each undecodable byte becomes a lone surrogate, never valid UTF-8
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
        pos = re.search("[\udc80-\udcff]", text).start()
        raise _fail(path, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos),
                    f"byte 0x{ord(text[pos]) - 0xDC00:02x} is not valid UTF-8") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return text, lines


def read_edge_list(path: str) -> WeightedGraph:
    """Parse an edge-list file into a graph.

    Raises
    ------
    FileFormatError
        With a ``path:line:col`` prefix on any malformed content.
    """
    text, lines = _read_lines(path)
    if not lines:
        raise _fail(path, 1, 1, "empty file; expected header 'n m'")
    header = _tokens(lines[0])
    if len(header) != 2:
        raise _fail(path, 1, 1, f"header must be 'n m', got {len(header)} tokens")
    n = _parse_int(header[0][0], path, 1, header[0][1], "vertex count")
    m = _parse_int(header[1][0], path, 1, header[1][1], "edge count")
    if n < 1:
        raise _fail(path, 1, header[0][1], "vertex count must be >= 1")
    if m < 0:
        raise _fail(path, 1, header[1][1], "edge count must be >= 0")
    if len(lines) - 1 != m:
        bad_line = m + 2 if len(lines) - 1 > m else len(lines) + 1
        raise _fail(path, bad_line, 1, f"expected {m} edge lines, found {len(lines) - 1}")
    try:
        weights = np.zeros((n, n))
    except (ValueError, MemoryError):
        raise _fail(
            path, 1, header[0][1], f"vertex count {n} is too large for an n-by-n weight matrix"
        ) from None
    if not _canonical_edges(text[len(lines[0]) + 1:], weights):
        _edge_lines(path, lines[1:], weights)
    return WeightedGraph(weights)


def _canonical_edges(body: str, weights: np.ndarray) -> bool:
    """Fill ``weights`` from a canonical edge-list body in whole-array steps.

    Returns False on anything but a valid canonical body and never raises,
    so that ``_edge_lines`` stays the one reporter of malformed content.
    ``weights`` is written only once grammar and ranges pass; a False after
    that (a duplicate or a zero weight) leaves it unspecified, and the
    token loop then raises.
    """
    if _EDGE_LINE.sub("", body):
        return False
    toks = body.split()
    i = np.array(toks[0::3], dtype=np.int64)
    j = np.array(toks[1::3], dtype=np.int64)
    w = np.fromiter(map(float, toks[2::3]), dtype=float, count=len(i))
    if not np.all((i < j) & (j < weights.shape[0]) & (w < math.inf)):
        return False
    weights[i, j] = w
    weights[j, i] = w
    # a repeated (i, j) wrote one cell twice; a weight that underflowed wrote 0
    return np.count_nonzero(weights) == 2 * w.size


def _edge_lines(path: str, lines: list[str], weights: np.ndarray) -> None:
    """Parse edge lines token by token into ``weights``, raising on the first fault."""
    n = weights.shape[0]
    seen: set[tuple[int, int]] = set()
    for line_no, line in enumerate(lines, start=2):
        toks = _tokens(line)
        if len(toks) != 3:
            raise _fail(path, line_no, 1, f"edge line must be 'i j w', got {len(toks)} tokens")
        i = _parse_int(toks[0][0], path, line_no, toks[0][1], "vertex index")
        j = _parse_int(toks[1][0], path, line_no, toks[1][1], "vertex index")
        w = _parse_float(toks[2][0], path, line_no, toks[2][1], "edge weight")
        if not 0 <= i < n:
            raise _fail(path, line_no, toks[0][1], f"vertex {i} out of range [0, {n})")
        if not 0 <= j < n:
            raise _fail(path, line_no, toks[1][1], f"vertex {j} out of range [0, {n})")
        if i >= j:
            raise _fail(path, line_no, toks[0][1], f"edges must satisfy i < j, got {i} >= {j}")
        if w <= 0:
            raise _fail(path, line_no, toks[2][1], f"edge weight must be > 0, got {w}")
        if (i, j) in seen:
            raise _fail(path, line_no, toks[0][1], f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        weights[i, j] = weights[j, i] = w


def write_edge_list(path: str, g: WeightedGraph) -> None:
    """Write a graph in edge-list format with round-trip float precision."""
    rows, cols = np.nonzero(np.triu(g.weights, k=1))
    lines = [f"{g.n} {rows.size}"]
    for i, j in zip(rows, cols):
        lines.append(f"{i} {j} {float(g.weights[i, j])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_partition(path: str) -> Partition:
    """Parse a partition file; the block count is one plus the largest label."""
    _, lines = _read_lines(path)
    if not lines:
        raise _fail(path, 1, 1, "empty partition file")
    labels = []
    for line_no, line in enumerate(lines, start=1):
        toks = _tokens(line)
        if len(toks) != 1:
            raise _fail(path, line_no, 1, f"expected one label per line, got {len(toks)} tokens")
        lab = _parse_int(toks[0][0], path, line_no, toks[0][1], "block label")
        if lab < 0:
            raise _fail(path, line_no, toks[0][1], "block labels must be >= 0")
        labels.append(lab)
    k = max(labels) + 1
    if k > len(labels):  # a block is empty, and the label may not fit an integer array
        line_no = labels.index(k - 1) + 1
        col = _tokens(lines[line_no - 1])[0][1]
        raise _fail(path, line_no, col, f"block label {k - 1} needs {k} blocks, "
                    f"but {len(labels)} labels fill at most {len(labels)}")
    try:
        return Partition(np.array(labels), k)
    except InputError as exc:
        raise FileFormatError(f"{path}:1:1: {exc}") from exc


def write_partition(path: str, p: Partition) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(lab)) for lab in p.labels) + "\n")


def _write_embedding(path: str, u: np.ndarray) -> None:
    """Write finite embedding coordinates, one tab-separated row per vertex."""
    n, k = u.shape
    # "%.12g" spells a finite float as format_float does, in one call
    text = ("\t".join(["%.12g"] * k) + "\n") * n % tuple(u.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def format_float(x: float) -> str:
    """12-significant-digit shortest form used by every JSON output."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".12g")


def canonical_json(obj) -> str:
    """Serialize dicts/lists/scalars with sorted keys and fixed float format."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(canonical_json(key) + ": " + canonical_json(obj[key]))
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload) + "\n")
