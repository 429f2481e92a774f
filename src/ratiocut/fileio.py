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
Both readers first hand the lines to numpy's C text reader, which splits
fields at single spaces and also takes ``+1``, ``01``, ``.5``, ``5.``,
``1.5E3`` and whitespace other than space or tab around a value, then
checks every value and range. Any spelling it declines (tabs, repeated or
leading blanks, ``_`` in numbers, non-ASCII digits, blank lines) goes
through a token-by-token loop that reads valid ones to the same values,
and that loop is the only place that reports malformed content.

Embedding format: one row per vertex, coordinates separated by tabs and
spelled as in the JSON outputs.

JSON outputs are canonical: keys sorted, floats at 12 significant digits, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np

from .errors import FileFormatError, InputError
from .graphs import Partition, WeightedGraph

_TOKEN = re.compile(r"\S+")

# One row per line of a file, as numpy's text reader parses it.
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])
# One field, not plain int64: loadtxt squeezes a single row of plain values
# to a vector, so ["0 1", ""] would read as two labels.
_LABEL_ROW = np.dtype([("label", np.int64)])


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


def _read_lines(path: str) -> list[str]:
    """The lines of the file as UTF-8 text mode reads it (no empty one after a
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
    return lines


def _loadtxt(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """One record per line, fields at single spaces, as numpy's C reader parses
    them; None where it declines, warns or skips a blank line.

    Floats go through ``PyOS_string_to_double``, as ``float()`` does, so a
    value it returns is the one the token loop would read. It takes fewer
    spellings than the loop (no tabs, repeated blanks, ``_`` or non-ASCII
    digits) and never raises, so the loop stays the one reporter of faults.
    """
    try:
        with warnings.catch_warnings():
            # "input contained no data", or an index spelled 1.0 on numpy < 2
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=dtype, delimiter=" ", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    return rows if len(rows) == len(lines) else None


def read_edge_list(path: str) -> WeightedGraph:
    """Parse an edge-list file into a graph.

    Raises
    ------
    FileFormatError
        With a ``path:line:col`` prefix on any malformed content.
    """
    lines = _read_lines(path)
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
    if m and not _numpy_edges(lines[1:], weights):
        _edge_lines(path, lines[1:], weights)
    return WeightedGraph(weights)


def _numpy_edges(lines: list[str], weights: np.ndarray) -> bool:
    """Fill ``weights`` from edge lines that numpy's reader takes and that are valid.

    Returns False otherwise and never raises, so that ``_edge_lines`` stays
    the one reporter of malformed content. ``weights`` is written only once
    the values and ranges pass; a False after that (a duplicate or a weight
    that underflowed to 0) leaves it unspecified, and the token loop then raises.
    """
    rows = _loadtxt(lines, _EDGE_ROW)
    if rows is None:
        return False
    i, j, w = rows["i"], rows["j"], rows["w"]
    if not np.all((0 <= i) & (i < j) & (j < weights.shape[0]) & (0 < w) & (w < math.inf)):
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
    edges = map("{} {} {!r}\n".format, rows.tolist(), cols.tolist(), g.weights[rows, cols].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {rows.size}\n" + "".join(edges))


def read_partition(path: str) -> Partition:
    """Parse a partition file; the block count is one plus the largest label."""
    lines = _read_lines(path)
    if not lines:
        raise _fail(path, 1, 1, "empty partition file")
    rows = _loadtxt(lines, _LABEL_ROW)
    labels = None if rows is None else rows["label"]
    if labels is None or not np.all((0 <= labels) & (labels < len(lines))):
        labels = _partition_labels(path, lines)
    try:
        return Partition(labels, int(labels.max()) + 1)
    except InputError as exc:
        raise FileFormatError(f"{path}:1:1: {exc}") from exc


def _partition_labels(path: str, lines: list[str]) -> np.ndarray:
    """Parse labels token by token, raising on the first fault or on a label
    too large for the number of lines."""
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
    return np.array(labels)


def write_partition(path: str, p: Partition) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(lab)) for lab in p.labels) + "\n")


def write_embedding(path: str, u: np.ndarray) -> None:
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
