import json
import math

import numpy as np
import pytest

import ratiocut as rc
from ratiocut.errors import FileFormatError
from ratiocut.fileio import canonical_json, format_float


def test_edge_list_round_trip(tmp_path):
    g, _ = rc.gen_example_blocks(2, 0.7)
    path = str(tmp_path / "g.tsv")
    rc.write_edge_list(path, g)
    back = rc.read_edge_list(path)
    assert np.array_equal(back.weights, g.weights)  # bit-exact


def test_edge_list_round_trip_awkward_floats(tmp_path):
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1 / 3
    w[1, 2] = w[2, 1] = 0.1 + 0.2  # 0.30000000000000004
    g = rc.WeightedGraph(w)
    path = str(tmp_path / "g.tsv")
    rc.write_edge_list(path, g)
    back = rc.read_edge_list(path)
    assert np.array_equal(back.weights, g.weights)


def write(tmp_path, text):
    path = tmp_path / "in.tsv"
    path.write_text(text)
    return str(path)


def test_read_edge_list_ok(tmp_path):
    path = write(tmp_path, "3 2\n0 1 1.5\n1 2 2.0\n")
    g = rc.read_edge_list(path)
    assert g.n == 3
    assert g.weights[0, 1] == 1.5
    assert g.weights[2, 1] == 2.0


def test_read_edge_list_header_errors(tmp_path):
    with pytest.raises(FileFormatError, match=r":1:"):
        rc.read_edge_list(write(tmp_path, "3\n"))
    with pytest.raises(FileFormatError, match=r":1:"):
        rc.read_edge_list(write(tmp_path, "x 2\n0 1 1\n1 2 1\n"))
    with pytest.raises(FileFormatError):
        rc.read_edge_list(write(tmp_path, ""))


def test_read_edge_list_rejects_unallocatable_vertex_count(tmp_path):
    # n * n * 8 bytes overflows the address space, so numpy refuses the
    # weight matrix before allocating anything
    with pytest.raises(FileFormatError, match=r":1:1: vertex count 10000000000 is too large"):
        rc.read_edge_list(write(tmp_path, "10000000000 0\n"))


def test_read_edge_list_edge_errors(tmp_path):
    # i >= j is rejected (upper-triangle convention)
    with pytest.raises(FileFormatError, match=r":2:"):
        rc.read_edge_list(write(tmp_path, "3 1\n1 0 1.0\n"))
    # vertex out of range
    with pytest.raises(FileFormatError, match=r":2:"):
        rc.read_edge_list(write(tmp_path, "3 1\n0 3 1.0\n"))
    # nonpositive weight
    with pytest.raises(FileFormatError, match=r":2:"):
        rc.read_edge_list(write(tmp_path, "3 1\n0 1 0.0\n"))
    # weight is not a number, column position reported
    with pytest.raises(FileFormatError, match=r":2:5"):
        rc.read_edge_list(write(tmp_path, "3 1\n0 1 abc\n"))
    # duplicate edge
    with pytest.raises(FileFormatError, match="duplicate"):
        rc.read_edge_list(write(tmp_path, "3 2\n0 1 1.0\n0 1 2.0\n"))


def test_read_edge_list_count_mismatch(tmp_path):
    with pytest.raises(FileFormatError):
        rc.read_edge_list(write(tmp_path, "3 2\n0 1 1.0\n"))
    with pytest.raises(FileFormatError):
        rc.read_edge_list(write(tmp_path, "3 1\n0 1 1.0\n1 2 1.0\n"))


def test_partition_round_trip(tmp_path):
    p = rc.Partition(np.array([0, 2, 1, 2, 0]), 3)
    path = str(tmp_path / "p.txt")
    rc.write_partition(path, p)
    back = rc.read_partition(path)
    assert np.array_equal(back.labels, p.labels)
    assert back.k == 3


def test_read_partition_errors(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0\nx\n")
    with pytest.raises(FileFormatError, match=r":2:"):
        rc.read_partition(str(path))
    path.write_text("0\n2\n")  # label 1 never used -> empty block
    with pytest.raises(FileFormatError):
        rc.read_partition(str(path))
    path.write_text("-1\n0\n")
    with pytest.raises(FileFormatError):
        rc.read_partition(str(path))


def test_format_float():
    assert format_float(1.0) == "1"
    assert format_float(0.5) == "0.5"
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(math.inf) == "Infinity"
    assert format_float(-math.inf) == "-Infinity"
    assert format_float(math.nan) == "NaN"


def test_canonical_json_sorted_and_deterministic():
    payload = {"b": 1, "a": [1.0, 2.5], "c": {"z": True, "y": None}}
    text = canonical_json(payload)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert canonical_json(payload) == text
    # still valid JSON for ordinary values
    assert json.loads(text) == {"a": [1, 2.5], "b": 1, "c": {"y": None, "z": True}}


def test_canonical_json_handles_arrays_and_specials():
    text = canonical_json({"v": np.array([1.0, math.inf]), "m": math.nan})
    assert "Infinity" in text and "NaN" in text
    assert canonical_json(np.arange(3)) == "[0, 1, 2]"


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_write_json_trailing_newline(tmp_path):
    path = str(tmp_path / "out.json")
    rc.write_json(path, {"x": 1})
    text = open(path).read()
    assert text.endswith("\n")
    assert json.loads(text) == {"x": 1}
