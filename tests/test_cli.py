import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratiocut as rc
from ratiocut import cli
from ratiocut.cli import entry_point, main


def run(args):
    return main([str(a) for a in args])


def test_gen_then_certify_pipeline(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    cert_path = tmp_path / "cert.json"
    assert run(["gen", "example-blocks", "--n", 1, "--c", 0.5,
                "--output", g_path, "--partition", p_path]) == 0
    assert run(["certify", "--input", g_path, "--partition", p_path,
                "--output", cert_path]) == 0
    payload = json.loads(cert_path.read_text())
    assert payload["passes"] is True
    assert payload["schema_version"] == 1
    assert payload["max_d_delta"] == 0.5


def test_gen_round_trip_bit_identical(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    run(["gen", "planted", "--sizes", "3,4,5", "--intra", 0.7, "--cross", 0.1,
         "--output", g_path, "--partition", p_path])
    g, p = rc.gen_planted_blocks([3, 4, 5], 0.7, 0.1)
    back_g = rc.read_edge_list(str(g_path))
    back_p = rc.read_partition(str(p_path))
    assert np.array_equal(back_g.weights, g.weights)
    assert np.array_equal(back_p.labels, p.labels)


def test_cluster_unbalanced_recovers_planted(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "planted.txt"
    out_path = tmp_path / "found.txt"
    summary = tmp_path / "summary.json"
    assert run(["gen", "unbalanced", "--output", g_path, "--partition", p_path]) == 0
    assert run(["cluster", "--input", g_path, "--k", 3, "--method", "kmeans",
                "--partition", out_path, "--output", summary]) == 0
    planted = rc.read_partition(str(p_path))
    found = rc.read_partition(str(out_path))
    assert rc.same_partition(found, planted)
    payload = json.loads(summary.read_text())
    assert payload["method"] == "kmeans"
    assert payload["ratio_cut"] > 0.0


def test_oracle_command(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    out = tmp_path / "oracle.json"
    run(["gen", "example-blocks", "--n", 1, "--c", 0.5,
         "--output", g_path, "--partition", p_path])
    assert run(["oracle", "--input", g_path, "--k", 2, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == 1.0
    assert payload["unique"] is True
    assert payload["best"] == [0, 0, 1, 1]


def test_gap_command_unweighted(tmp_path):
    g_path = tmp_path / "p3.tsv"
    g_path.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    out = tmp_path / "gap.json"
    assert run(["gap", "--input", g_path, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema_version", "lower", "exact", "upper"}
    assert payload["exact"] == pytest.approx(1.0, abs=1e-8)
    assert payload["upper"] == 4.0


def test_gap_command_weighted_graph_drops_upper(tmp_path):
    g_path = tmp_path / "g.tsv"
    g_path.write_text("3 2\n0 1 0.5\n1 2 1.0\n")
    out = tmp_path / "gap.json"
    assert run(["gap", "--input", g_path, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert "upper" not in payload
    assert "lower" in payload and "exact" in payload


def test_gap_single_vertex_exits_2(tmp_path, capsys):
    g_path = tmp_path / "one.tsv"
    g_path.write_text("1 0\n")
    assert run(["gap", "--input", g_path, "--output", tmp_path / "gap.json"]) == 2
    assert capsys.readouterr().err == "error: gap needs at least 2 vertices\n"
    assert not (tmp_path / "gap.json").exists()


def test_bound_command(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    out = tmp_path / "bound.json"
    run(["gen", "planted", "--sizes", "10,10,10", "--intra", 1.0, "--cross", 0.01,
         "--output", g_path, "--partition", p_path])
    assert run(["bound", "--input", g_path, "--partition", p_path, "--output", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["precondition_ok"] is True
    assert payload["measured"] <= payload["bound"] + 1e-9


def test_bound_hypothesis_violation_exits_3(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    run(["gen", "example-blocks", "--n", 1, "--c", 0.5,
         "--output", g_path, "--partition", p_path])
    code = run(["bound", "--input", g_path, "--partition", p_path,
                "--output", tmp_path / "x.json"])
    assert code == 3
    assert "at least 3" in capsys.readouterr().err


def test_eigenmap_command(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    out = tmp_path / "emb.tsv"
    run(["gen", "example-blocks", "--n", 2, "--c", 0.4,
         "--output", g_path, "--partition", p_path])
    assert run(["eigenmap", "--input", g_path, "--k", 2, "--output", out]) == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 8
    matrix = np.array([[float(tok) for tok in row.split("\t")] for row in rows])
    assert matrix.shape == (8, 2)
    # first column embeds the connected graph at a constant
    assert np.allclose(matrix[:, 0], matrix[0, 0], atol=1e-9)


def test_malformed_file_exits_2_with_position(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("3 1\n0 1 zebra\n")
    code = run(["certify", "--input", bad, "--partition", bad,
                "--output", tmp_path / "out.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert ":2:" in err  # line of the offending token


def test_undecodable_file_exits_2_with_position(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    g_path.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0\n\xff\n0\n")
    for args in (["--input", bad, "--partition", bad], ["--input", g_path, "--partition", bad]):
        code = run(["certify", *args, "--output", tmp_path / "c.json"])
        assert code == 2
        assert "bad.txt:2:1: byte 0xff is not valid UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


def test_unallocatable_header_exits_2(tmp_path, capsys):
    huge = tmp_path / "huge.tsv"
    huge.write_text("10000000000 0\n")
    code = run(["gap", "--input", huge, "--output", tmp_path / "o.json"])
    assert code == 2
    assert "huge.tsv:1:1: vertex count" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_missing_input_exits_2(tmp_path):
    code = run(["gap", "--input", tmp_path / "nope.tsv", "--output", tmp_path / "o.json"])
    assert code == 2


def test_partition_graph_size_mismatch_exits_2(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    g_path.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    p_path = tmp_path / "p.txt"
    p_path.write_text("0\n1\n")
    code = run(["certify", "--input", g_path, "--partition", p_path,
                "--output", tmp_path / "c.json"])
    assert code == 2
    assert "labels" in capsys.readouterr().err


def test_partition_label_too_large_exits_2_with_position(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    g_path.write_text("3 2\n0 1 1.0\n1 2 1.0\n")
    p_path = tmp_path / "p.txt"
    for label in ("99999999999999999999", "9223372036854775808", "3"):
        p_path.write_text(f"0\n {label}\n0\n")
        code = run(["certify", "--input", g_path, "--partition", p_path,
                    "--output", tmp_path / "c.json"])
        assert code == 2, label
        err = capsys.readouterr().err
        assert f"p.txt:2:2: block label {label} " in err, err
        assert not (tmp_path / "c.json").exists()


def test_gen_missing_params_exits_2(tmp_path, capsys):
    code = run(["gen", "example-blocks", "--output", tmp_path / "g.tsv",
                "--partition", tmp_path / "p.txt"])
    assert code == 2
    assert capsys.readouterr().err == "error: gen example-blocks requires --n and --c\n"
    code = run(["gen", "planted", "--sizes", "3,3", "--cross", 0.1, "--output", tmp_path / "g.tsv",
                "--partition", tmp_path / "p.txt"])
    assert code == 2
    assert capsys.readouterr().err == "error: gen planted requires --sizes, --intra and --cross\n"
    assert not (tmp_path / "g.tsv").exists()


@pytest.mark.parametrize("sizes, message", [
    ("3,,4", "--sizes expects comma-separated integers, got '3,,4'"),
    ("3,4,", "--sizes expects comma-separated integers, got '3,4,'"),
    (",", "--sizes expects comma-separated integers, got ','"),
    ("3,x", "--sizes expects comma-separated integers, got '3,x'"),
    ("", "--sizes is empty"),
    (str(2 ** 40), f"vertex count {2 ** 40} is too large for an n-by-n weight matrix"),
])
def test_gen_refuses_malformed_sizes(tmp_path, capsys, sizes, message):
    # an empty entry is refused, not dropped
    g_path = tmp_path / "g.tsv"
    assert run(["gen", "planted", "--sizes", sizes, "--intra", 1.0, "--cross", 0.1,
                "--output", g_path, "--partition", tmp_path / "p.txt"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not g_path.exists()


def test_gen_rejects_seed_flag(tmp_path):
    # gen families are deterministic, so gen takes no --seed
    with pytest.raises(SystemExit) as exc:
        run(["gen", "planted", "--seed", 3, "--sizes", "3,3", "--intra", 1.0, "--cross", 0.1,
             "--output", tmp_path / "g.tsv", "--partition", tmp_path / "p.txt"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family, flags, refused", [
    ("unbalanced", ["--n", 5, "--c", 0.3, "--sizes", "2,2"], "--n, --c, --sizes"),
    ("planted", ["--sizes", "3,3", "--intra", 1.0, "--cross", 0.1, "--n", 7, "--c", 9], "--n, --c"),
    ("example-blocks", ["--n", 2, "--c", 0.4, "--sizes", "1,1", "--intra", 2], "--sizes, --intra"),
])
def test_gen_refuses_the_other_families_flags(tmp_path, capsys, family, flags, refused):
    g_path = tmp_path / "g.tsv"
    capsys.readouterr()
    assert run(["gen", family, *flags, "--output", g_path, "--partition", tmp_path / "p.txt"]) == 2
    assert capsys.readouterr().err == f"error: gen {family} does not take {refused}\n"
    assert not g_path.exists()


def test_fiedler_refuses_kmeans_flags(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    assert run(["gen", "example-blocks", "--n", 2, "--c", 0.4,
                "--output", g_path, "--partition", tmp_path / "p.txt"]) == 0
    out = tmp_path / "s.json"
    base = ["cluster", "--input", g_path, "--k", 2, "--method", "fiedler",
            "--partition", tmp_path / "o.txt", "--output", out]
    for flags in (["--seed", 0], ["--restarts", 10], ["--seed", 5, "--restarts", 3]):
        capsys.readouterr()
        assert run(base + flags) == 2, flags
        assert capsys.readouterr().err == "error: --seed and --restarts apply to --method kmeans only\n"
        assert not out.exists()
    assert run(base) == 0
    assert json.loads(out.read_text())["seed"] is None


def test_cluster_negative_seed_exits_2(tmp_path, capsys):
    g_path = tmp_path / "g.tsv"
    assert run(["gen", "example-blocks", "--n", 2, "--c", 0.4,
                "--output", g_path, "--partition", tmp_path / "p.txt"]) == 0
    out = tmp_path / "s.json"
    capsys.readouterr()
    assert run(["cluster", "--input", g_path, "--k", 2, "--seed", -1,
                "--partition", tmp_path / "o.txt", "--output", out]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer in [0, 9223372036854775807], got -1\n"
    assert not out.exists()


def test_solver_error_exits_4(tmp_path, monkeypatch, capsys):
    g_path = tmp_path / "g.tsv"
    run(["gen", "example-blocks", "--n", 1, "--c", 0.5,
         "--output", g_path, "--partition", tmp_path / "p.txt"])

    def failing(g):
        raise rc.SolverError("gap bracket [0.5, 0.6] did not close")

    monkeypatch.setattr(cli, "gap_exact", failing)
    assert run(["gap", "--input", g_path, "--output", tmp_path / "o.json"]) == 4
    assert capsys.readouterr().err == "error: gap bracket [0.5, 0.6] did not close\n"


def test_argparse_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", "x", "--k", 2, "--method", "agglomerative",
             "--partition", "p", "--output", "o"])
    assert exc.value.code == 2


def test_byte_identical_reports(tmp_path):
    g_path = tmp_path / "g.tsv"
    p_path = tmp_path / "p.txt"
    run(["gen", "example-blocks", "--n", 2, "--c", 0.9,
         "--output", g_path, "--partition", p_path])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["certify", "--input", g_path, "--partition", p_path, "--output", a])
    run(["certify", "--input", g_path, "--partition", p_path, "--output", b])
    assert a.read_bytes() == b.read_bytes()

    # cluster with a fixed seed is byte-stable too
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    run(["cluster", "--input", g_path, "--k", 2, "--seed", 5,
         "--partition", tmp_path / "o1.txt", "--output", s1])
    run(["cluster", "--input", g_path, "--k", 2, "--seed", 5,
         "--partition", tmp_path / "o2.txt", "--output", s2])
    assert s1.read_bytes() == s2.read_bytes()
    assert (tmp_path / "o1.txt").read_bytes() == (tmp_path / "o2.txt").read_bytes()


def test_console_script_runs(tmp_path):
    # run this checkout's package, not some other installed copy
    src = str(Path(rc.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ratiocut", "gen", "unbalanced",
         "--output", str(tmp_path / "g.tsv"), "--partition", str(tmp_path / "p.txt")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "603" in proc.stdout


def test_console_script_wiring():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["ratiocut"]
    assert target == "ratiocut.cli:entry_point"
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_entry_point_exit_status(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [
        "ratiocut", "gen", "unbalanced",
        "--output", str(tmp_path / "g.tsv"), "--partition", str(tmp_path / "p.txt")])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == 0

    monkeypatch.setattr(sys, "argv", [
        "ratiocut", "gap", "--input", str(tmp_path / "nope.tsv"),
        "--output", str(tmp_path / "o.json")])
    with pytest.raises(SystemExit) as exc:
        entry_point()
    assert exc.value.code == 2


def test_reused_parser_leaks_nothing_between_calls(tmp_path, monkeypatch):
    g_path, p_path = tmp_path / "g.tsv", tmp_path / "p.txt"
    assert run(["gen", "example-blocks", "--n", 2, "--c", 0.4,
                "--output", g_path, "--partition", p_path]) == 0

    def cluster(*flags):
        out = tmp_path / "s.json"
        assert run(["cluster", "--input", g_path, "--k", 2, *flags,
                    "--partition", tmp_path / "o.txt", "--output", out]) == 0
        return json.loads(out.read_text())

    # main keeps the parser it built on its first call
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a second parser"))
    first = cluster("--method", "kmeans", "--seed", 5, "--restarts", 3)
    assert (first["seed"], first["method"]) == (5, "kmeans")
    assert run(["certify", "--input", g_path, "--partition", p_path,
                "--output", tmp_path / "c.json"]) == 0
    second = cluster()
    assert (second["seed"], second["method"]) == (0, "kmeans")
    with pytest.raises(SystemExit) as exc:
        run(["cluster", "--input", g_path, "--k", 2, "--seed", "x",
             "--partition", tmp_path / "o.txt", "--output", tmp_path / "s.json"])
    assert exc.value.code == 2
    assert cluster() == second
    # handlers are looked up per call, so rebinding one takes effect
    monkeypatch.setattr(cli, "cmd_certify", lambda args: 7)
    assert run(["certify", "--input", g_path, "--partition", p_path,
                "--output", tmp_path / "c.json"]) == 7

    monkeypatch.undo()
    assert cli.build_parser() is not cli.build_parser()
