"""CLI surface: formats, exit codes, and worker-count independence."""

import json
import time

from semiforge.cli import run
from reference_tables import COUNTS_BY_GENUS


def test_table_csv(capsys):
    assert run(["table", "--gmax", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "g,r,count"
    assert lines[1] == "0,0,1"
    assert "6,1,12" in lines
    assert out.endswith("\n")


def test_table_gmax_zero(capsys):
    assert run(["table", "--gmax", "0"]) == 0
    assert capsys.readouterr().out == "g,r,count\n0,0,1\n"


def test_table_json(capsys):
    assert run(["table", "--gmax", "10", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["g_max"] == 10
    assert obj["rows"][10] == {"g": 10, "counts": [1, 35, 118, 47, 2, 1]}


def test_table_plain(capsys):
    assert run(["table", "--gmax", "4", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert "g=4: 1 5 1" in out.splitlines()


def test_table_worker_independence(capsys):
    assert run(["table", "--gmax", "11", "--workers", "1"]) == 0
    first = capsys.readouterr().out
    assert run(["table", "--gmax", "11", "--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_workers_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEMIFORGE_WORKERS", "2")
    assert run(["table", "--gmax", "10"]) == 0
    env_out = capsys.readouterr().out
    monkeypatch.delenv("SEMIFORGE_WORKERS")
    assert run(["table", "--gmax", "10"]) == 0
    assert env_out == capsys.readouterr().out
    monkeypatch.setenv("SEMIFORGE_WORKERS", "abc")
    assert run(["table", "--gmax", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "SEMIFORGE_WORKERS" in captured.err
    assert run(["table", "--gmax", "10", "--workers", "1"]) == 0  # the flag wins
    assert env_out == capsys.readouterr().out


_INVALID_CALLS = (
    (["table", "--gmax"], {}),
    (["table"], {}),
    (["verify", "--check", "unknown", "--gmax", "5"], {}),
    (["table", "--gmax", "-1"], {}),
    (["verify", "--check", "conjecture", "--gmax", "0"], {}),
    (["verify", "--check", "bijection", "--gmax", "1"], {}),
    (["table", "--gmax", "5", "--workers", "-1"], {}),
    (["tree", "--genus", "-1", "--dot", "unused.dot"], {}),
    (["table", "--gmax", "5"], {"SEMIFORGE_WORKERS": "abc"}),
    (["fseq", "--omega-max", "two"], {}),
    (["table", "--gmax", "\u0661\u0662"], {}),  # Arabic-Indic 12
    (["table", "--gmax", "5"], {"SEMIFORGE_WORKERS": "\u0662"}),
    (["tree", "--genus", "4", "--dot", "unused.dot", "--node-cap", "-5"], {}),
    (["tree", "--genus", "4", "--dot", "unused.dot", "--node-cap", "\u0661\u0660\u0660"], {}),  # Arabic-Indic 100
    (["tree", "--genus", "4", "--dot", "unused.dot", "--node-cap", " 1_00"], {}),
)


def test_invalid_flags_exit_2(capsys, monkeypatch):
    for argv, env in _INVALID_CALLS:
        with monkeypatch.context() as m:
            for key, value in env.items():
                m.setenv(key, value)
            assert run(argv) == 2, (argv, env)
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.strip(), argv


def test_transform_worked_example(capsys):
    assert run(["transform", "1,2,3,6,7,11"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1,2,3,6,7,11", "1,2,3,4,6,7", "1,2,3,4,5,6", "r=2"]


def test_transform_ordinary(capsys):
    assert run(["transform", "1,2,3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1,2,3", "r=0"]


def test_transform_full_set(capsys):
    assert run(["transform", ""]) == 0
    assert capsys.readouterr().out.splitlines() == ["", "r=0"]


def test_transform_valid_sparse_gap_list(capsys):
    # 1,2,4 is a perfectly good gap set: {0,3,5,6,...} is closed
    assert run(["transform", "1,2,4"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1,2,4", "1,2,3", "r=1"]


def test_transform_not_closed_exits_3(capsys):
    assert run(["transform", "1,4"]) == 3
    err = capsys.readouterr().err
    assert "2 + 2 = 4" in err
    assert run(["transform", "1,1000000000000"]) == 3
    assert "2 + 999999999998 = 1000000000000" in capsys.readouterr().err


def test_transform_unparsable_exits_2(capsys):
    assert run(["transform", "1,x,3"]) == 2
    assert run(["transform", "3,2,1"]) == 2
    # int() alone would read these as 11, 1,2, 1 and 1,2
    for text in ("1,2,3,6,7,1_1", " 1, 2", "+1", "\u0661,2"):
        assert run(["transform", text]) == 2, text
    assert capsys.readouterr().out == ""


def test_fseq(capsys):
    assert run(["fseq", "--omega-max", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "omega,f"
    assert lines[1] == "0,1"
    assert lines[-1] == "5,200"


def test_fseq_zero(capsys):
    assert run(["fseq", "--omega-max", "0"]) == 0
    assert capsys.readouterr().out == "omega,f\n0,1\n"


def test_fseq_negative_exits_2(capsys):
    assert run(["fseq", "--omega-max", "-1"]) == 2


def test_verify_pass(capsys):
    assert run(["verify", "--check", "parity", "--gmax", "0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True and obj["counterexample"] is None

    assert run(["verify", "--check", "conjecture", "--gmax", "8"]) == 0
    assert run(["verify", "--check", "intervals", "--gmax", "8"]) == 0
    capsys.readouterr()


def test_tree_export(tmp_path, capsys):
    out = tmp_path / "t6.dot"
    assert run(["tree", "--genus", "6", "--dot", str(out)]) == 0
    text = out.read_text()
    assert sum(1 for l in text.splitlines() if "depth=" in l) == 23
    assert sum(1 for l in text.splitlines() if "->" in l) == 22

    out0 = tmp_path / "t0.dot"
    assert run(["tree", "--genus", "0", "--dot", str(out0)]) == 0
    assert sum(1 for l in out0.read_text().splitlines() if "depth=" in l) == 1


def test_tree_node_cap_exits_4(tmp_path, capsys):
    assert run(["tree", "--genus", "6", "--dot", str(tmp_path / "x.dot"), "--node-cap", "5"]) == 4
    assert not (tmp_path / "x.dot").exists()


def test_tree_node_cap_refuses_a_huge_genus_at_once(tmp_path, capsys):
    # the ordinary semigroup of genus 100 000 has about 3.75e9 children
    started = time.perf_counter()
    assert run(["tree", "--genus", "100000", "--dot", str(tmp_path / "x.dot"), "--node-cap", "1"]) == 4
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == "fixed-genus tree for g=100000 exceeds 1 nodes\n"
    assert not (tmp_path / "x.dot").exists()


def test_tree_write_failure_exits_5(tmp_path, capsys):
    assert run(["tree", "--genus", "2", "--dot", str(tmp_path / "no" / "dir" / "x.dot")]) == 5
