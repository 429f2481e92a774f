import json
import math
import warnings

import numpy as np
import pytest

import ratiocut as rc
from ratiocut import fileio
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


def test_readers_report_the_first_undecodable_byte(tmp_path):
    # the position counts characters, as every other position does: "é" is
    # one column, and "\r\n" ends a line as in text mode
    path = tmp_path / "g.txt"
    path.write_bytes(b"2 1\r\n0 1 \xc3\xa9\xff 1.0\n")
    with pytest.raises(FileFormatError, match=r"g\.txt:2:6: byte 0xff is not valid UTF-8"):
        rc.read_edge_list(str(path))
    path.write_bytes(b"\xfe2 1\n0 1 1.0\n")
    with pytest.raises(FileFormatError, match=r"g\.txt:1:1: byte 0xfe "):
        rc.read_edge_list(str(path))
    path.write_bytes(b"0\n1\n\xed\xa0\x80\n")  # an encoded surrogate is not UTF-8 either
    with pytest.raises(FileFormatError, match=r"g\.txt:3:1: byte 0xed "):
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
    path = tmp_path / "out.json"
    rc.write_json(str(path), {"x": 1})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"x": 1}


def test_write_embedding_spells_rows_as_json_floats(tmp_path):
    path = tmp_path / "emb.tsv"
    rc.write_embedding(str(path), np.array([[1.0, 0.5], [1 / 3, -2.0]]))
    assert path.read_bytes() == b"1\t0.5\n0.333333333333\t-2\n"


def test_write_embedding_matches_format_float_per_value(tmp_path):
    # the one-call writer spells every finite value as the per-value loop does
    rng = np.random.default_rng(3)
    awkward = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 123456789012.5, 1e16,
               -1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 2.0 ** 52, 1e-300]
    finite = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-20, 20, size=(40, 3))
    finite.flat[: len(awkward)] = awkward
    for idx, u in enumerate((finite, finite[:, :1])):
        path = tmp_path / f"emb{idx}.tsv"
        rc.write_embedding(str(path), u)
        want = "".join("\t".join(fileio.format_float(x) for x in row) + "\n" for row in u)
        assert path.read_text(encoding="utf-8") == want


# ------------------------------------------------- fast path vs token loop
#
# Edge lists and partitions are read by numpy's text reader where it takes
# the spelling; everything else goes through the token loops, the only error
# reporters. The loops alone are the reference: forcing the fast path to
# decline must change neither a value nor an error message.


def _outcome(read, path):
    try:
        result = read(path)
    except FileFormatError as exc:
        return "error", str(exc)
    if isinstance(result, rc.Partition):
        return "ok", result.labels.tobytes(), result.k
    return "ok", result.weights.tobytes()


def _both_routes(monkeypatch, path, read=rc.read_edge_list):
    fast = _outcome(read, path)
    with monkeypatch.context() as mp:
        mp.setattr(fileio, "_loadtxt", lambda lines, dtype: None)
        loop = _outcome(read, path)
    return fast, loop


def _generated_graphs():
    rng = np.random.default_rng(11)
    awkward = [5e-324, 1e300, 0.1 + 0.2, 1e-05, 1.0, 2.0, 7.0, 123456.0, 1e16, 1 / 3]
    graphs = [rc.WeightedGraph(np.zeros((1, 1))), rc.WeightedGraph(np.zeros((4, 4)))]
    for n in (2, 5, 12, 40):
        w = np.triu(rng.random((n, n)) < 0.6, 1) * rng.uniform(0.01, 50.0, (n, n))
        cells = np.flatnonzero(w)
        w.flat[cells[: len(awkward)]] = awkward[: cells.size]
        graphs.append(rc.WeightedGraph(w + w.T))
    graphs.append(rc.gen_example_blocks(3, 0.7)[0])
    return graphs


def test_fast_reader_matches_token_loop_bit_for_bit(tmp_path, monkeypatch):
    for idx, g in enumerate(_generated_graphs()):
        path = str(tmp_path / f"g{idx}.tsv")
        rc.write_edge_list(path, g)
        fast, loop = _both_routes(monkeypatch, path)
        assert fast == loop == ("ok", g.weights.tobytes())


BASE_EDGES = "12 3\n0 1 0.5\n1 10 2.0\n2 3 1e-05\n"

EDGE_CORPUS = [
    # the malformed files of the tests above
    "3\n", "x 2\n0 1 1\n1 2 1\n", "", "10000000000 0\n", "3 1\n1 0 1.0\n", "3 1\n0 3 1.0\n",
    "3 1\n0 1 0.0\n", "3 1\n0 1 abc\n", "3 2\n0 1 1.0\n0 1 2.0\n", "3 2\n0 1 1.0\n",
    "3 1\n0 1 1.0\n1 2 1.0\n",
    # near-canonical spellings the loop accepts and faults it reports
    BASE_EDGES.replace("0 1 0.5", "+0 1 0.5"),
    BASE_EDGES.replace("0 1 0.5", "0 01 0.5"),
    BASE_EDGES.replace("1 10 2.0", "1 1_0 2.0"),
    BASE_EDGES.replace("2.0", "1_0.5"),
    BASE_EDGES.replace("2.0", "1.5E3"),
    BASE_EDGES.replace("2.0", "+2.0"),
    BASE_EDGES.replace("2.0", "2"),
    BASE_EDGES.replace(" ", "\t"),
    BASE_EDGES.replace("\n", "\r\n"),
    BASE_EDGES.replace("\n", "  \n"),
    BASE_EDGES.replace("\n", " \t\n", 2),
    BASE_EDGES.rstrip("\n"),
    BASE_EDGES.replace("1e-05", "nan"),
    BASE_EDGES.replace("1e-05", "inf"),
    BASE_EDGES.replace("1e-05", "1e+999"),
    BASE_EDGES.replace("1e-05", "1e-999"),  # canonical spelling that reads as 0.0
    BASE_EDGES.replace("0.5", "-0.0"),
    BASE_EDGES.replace("0.5", "0.0"),
    BASE_EDGES.replace("2 3 1e-05", "0 1 0.5"),
    BASE_EDGES.replace("2 3 1e-05", "1 10 3.0"),
    BASE_EDGES.replace("1 10", "1 12"),
    BASE_EDGES.replace("1 10", "1 99999999999999999999"),
    BASE_EDGES.replace("2 3", "3 2"),
    BASE_EDGES.replace("2 3", "3 3"),
    BASE_EDGES.replace("0 1 0.5", "0 1 0.5 7"),
    BASE_EDGES.replace("0 1 0.5", "0 1"),
    BASE_EDGES.replace("0 1", "0 \u0661"),  # an Arabic-Indic digit, which int() reads
    BASE_EDGES + "\n",
    # spellings aimed at numpy's reader: blank lines it skips, comments,
    # integers spelled as floats, and whitespace it strips around a value
    "3 1\n\n",
    BASE_EDGES.replace("2 3 1e-05", "   "),
    BASE_EDGES.replace("1 10 2.0\n", "\n"),
    BASE_EDGES.replace("0 1 0.5", " 0 1 0.5"),
    BASE_EDGES.replace("0.5", "0.5#x"),
    BASE_EDGES.replace("0 1 0.5", "0 1.0 0.5"),
    BASE_EDGES.replace("0 1 0.5", "0 1e0 0.5"),
    BASE_EDGES.replace("0.5", ".5"),
    BASE_EDGES.replace("0.5", "5."),
    BASE_EDGES.replace("0.5", "0.5\x0b"),
    BASE_EDGES.replace("0 1", "-1 1"),
    BASE_EDGES.replace("2.0", "-2.0"),
]


@pytest.mark.parametrize("text", EDGE_CORPUS)
def test_fast_reader_and_token_loop_agree_on_edge_corpus(tmp_path, monkeypatch, text):
    path = tmp_path / "in.tsv"
    path.write_bytes(text.encode("utf-8"))
    fast, loop = _both_routes(monkeypatch, str(path))
    assert fast == loop


BASE_LABELS = "0\n1\n2\n1\n0\n"

PARTITION_CORPUS = [
    BASE_LABELS,
    BASE_LABELS.replace("2", "+2"),
    BASE_LABELS.replace("2", "02"),
    BASE_LABELS.replace("2", " 2"),
    BASE_LABELS.replace("2", "1 2"),
    BASE_LABELS.replace("2", "1\t2"),
    BASE_LABELS.replace("2", "-1"),
    BASE_LABELS.replace("2", "2.0"),
    BASE_LABELS.replace("2", "\u0662"),  # an Arabic-Indic digit, which int() reads
    BASE_LABELS.replace("2\n", "\n"),
    "\n",
    "0 1\n\n",  # plain int64 loadtxt squeezes the one row it keeps to two labels
    BASE_LABELS.rstrip("\n"),
    BASE_LABELS.replace("2", "3"),  # block 2 left empty
    BASE_LABELS.replace("2", "5"),  # more blocks than lines
    BASE_LABELS.replace("2", "99999999999999999999"),
]


@pytest.mark.parametrize("text", PARTITION_CORPUS)
def test_fast_reader_and_token_loop_agree_on_partition_corpus(tmp_path, monkeypatch, text):
    path = tmp_path / "p.txt"
    path.write_bytes(text.encode("utf-8"))
    fast, loop = _both_routes(monkeypatch, str(path), rc.read_partition)
    assert fast == loop


def test_readers_let_no_warning_escape_on_the_corpora(tmp_path):
    # numpy's reader warns on a file of blank lines, and older releases on an
    # index spelled 1.0; the fast path must decline there without a trace
    path = tmp_path / "in.txt"
    for read, corpus in ((rc.read_edge_list, EDGE_CORPUS), (rc.read_partition, PARTITION_CORPUS)):
        for text in corpus:
            path.write_bytes(text.encode("utf-8"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    read(str(path))
                except FileFormatError:
                    pass
            assert caught == [], (text, [str(w.message) for w in caught])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    read(str(path))
                except FileFormatError:
                    pass


def test_canonical_partitions_never_reach_the_token_loop(tmp_path, monkeypatch):
    def loop(*args):
        raise AssertionError("token loop reached on a canonical partition file")

    monkeypatch.setattr(fileio, "_partition_labels", loop)
    rng = np.random.default_rng(12)
    for n, k in ((1, 1), (2, 2), (7, 3), (60, 5), (200, 11)):
        p = rc.Partition(np.concatenate([np.arange(k), rng.integers(0, k, n - k)]), k)
        path = str(tmp_path / "p.txt")
        rc.write_partition(path, p)
        back = rc.read_partition(path)
        assert np.array_equal(back.labels, p.labels) and back.k == k


def test_canonical_files_never_reach_the_token_loop(tmp_path, monkeypatch):
    def loop(*args):
        raise AssertionError("token loop reached on a canonical file")

    monkeypatch.setattr(fileio, "_edge_lines", loop)
    for idx, g in enumerate(_generated_graphs()):
        path = str(tmp_path / f"g{idx}.tsv")
        rc.write_edge_list(path, g)
        assert np.array_equal(rc.read_edge_list(path).weights, g.weights)
