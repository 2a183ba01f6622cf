"""CLI surface: formats, exit codes, and worker-count independence."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from semiforge import CountMatrix, closedsets, n_g1_formula, tree
from semiforge.cli import run
from reference_tables import COUNTS_BY_GENUS, F_SEQUENCE


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


def test_tree_refuses_a_first_level_larger_than_memory_at_once(tmp_path, capsys):
    # under the node cap, the root's 3.75e9 children would still need 25 kB
    # each, far more than any machine's memory: refused before the root is made
    started = time.perf_counter()
    assert run(["tree", "--genus", "100000", "--dot", str(tmp_path / "x.dot"), "--node-cap", "100000000000"]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == "not enough memory for this input\n"
    assert not (tmp_path / "x.dot").exists()


def test_tree_write_failure_exits_5(tmp_path, capsys):
    assert run(["tree", "--genus", "2", "--dot", str(tmp_path / "no" / "dir" / "x.dot")]) == 5


@pytest.mark.parametrize("check, gmax, code", [("conjecture", 0, 2), ("conjecture", 1, 0), ("bijection", 1, 2), ("bijection", 2, 0)])
def test_verify_gmax_floors(check, gmax, code, capsys):
    # each harness refuses a --gmax below its range, which starts at 1 for
    # conjecture and 2 for bijection
    assert run(["verify", "--check", check, "--gmax", str(gmax)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.strip()
    else:
        assert json.loads(captured.out)["passed"] is True


@pytest.mark.parametrize("error", [ValueError, AssertionError])
def test_a_raising_pairing_is_a_counterexample(error, monkeypatch, capsys):
    # the pairing's checks raise exactly when a side condition fails, so
    # verify reports the cell and exits 1 rather than taking it for bad input
    decompose = closedsets.decompose

    def doctored(s):
        if s.genus == 6:
            raise error("doctored")
        return decompose(s)

    monkeypatch.setattr(closedsets, "decompose", doctored)
    assert run(["verify", "--check", "bijection", "--gmax", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1 and "Traceback" not in captured.err
    assert json.loads(captured.out)["counterexample"] == f"g=6 r=3: {error.__name__}: doctored"


def test_a_forking_table_keeps_the_contract(forks, python_kernel, capsys):
    assert run(["table", "--gmax", "22", "--workers", "3"]) == 0
    want = tuple(tuple(COUNTS_BY_GENUS[g]) for g in range(23))
    assert CountMatrix.from_csv(capsys.readouterr().out).rows == want
    # the 231 tasks were shared with a child per usable CPU besides the caller's, up to 2
    assert [len(pids) for pids in forks] == [min(3, len(tree._usable_cpus())) - 1]


def test_cli_import_loads_no_heavy_modules():
    # a fresh interpreter, since pytest loads most of these itself; what
    # the interpreter starts with (a site hook may load tempfile) does not
    # count, only what ``import semiforge.cli`` adds
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import semiforge.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "semiforge.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "multiprocessing", "ctypes", "subprocess", "tempfile"})


def _semiforge(argv, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "semiforge", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_pipe_exits_5_silently(unbuffered):
    # the chain of this genus-600 semigroup is about 700 kB, more than a
    # pipe holds, so the writer is still writing when the reader goes away
    gaps = ",".join(map(str, range(1, 1200, 2)))
    proc = _semiforge(["transform", gaps], env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    assert proc.stdout.readline() == f"{gaps}\n".encode()
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 5
    assert b"Traceback" not in err and b"Exception ignored" not in err


_OVERSIZED_CALLS = (
    ["table", "--gmax", "100000"],
    ["table", "--gmax", "99999999999999999999"],
    ["verify", "--check", "parity", "--gmax", "2000000000"],
    ["verify", "--check", "parity", "--gmax", "100000000000000000000"],
    ["verify", "--check", "conjecture", "--gmax", "100000"],
    ["verify", "--check", "conjecture", "--gmax", "99999999999999999999"],
    ["verify", "--check", "bijection", "--gmax", "99999999999999999999"],
    ["tree", "--genus", "100000", "--dot", "x.dot", "--node-cap", "100000000000"],
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_oversized_inputs_exit_2_under_an_address_space_limit(tmp_path):
    # each needs more than this machine's memory, which its size shows
    # before anything is built: it must exit 2 at once, like any input too
    # large to handle.  A 256 MB address space keeps a call that misses
    # that refusal from taking the machine's memory.  The eight run side
    # by side, at most 2 GB in all
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    started = time.perf_counter()
    procs = [_semiforge(argv, cwd=tmp_path, preexec_fn=limit, text=True) for argv in _OVERSIZED_CALLS]
    try:
        for argv, proc in zip(_OVERSIZED_CALLS, procs):
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, out) == (2, ""), (argv, err)
            assert err.strip() and "Traceback" not in err, argv
    finally:
        for proc in procs:
            proc.kill()
    assert time.perf_counter() - started < 2
    assert not (tmp_path / "x.dot").exists()


# ----------------------------------------------------------------------
# the contract on generated calls: argv and $SEMIFORGE_WORKERS drawn from
# the grammar, each exit code the one the README gives for that input

_BAD_COUNTS = ("-1", "-12", "", "\u0661", "\u0661\u0662", "1_0", " 3", "+2", "2.0", "x")


def _mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda k: good if k else bad)


def _count(hi):
    """A non-negative integer flag's value as (text, int), or a malformed
    one as (text, None)."""
    return _mostly(st.integers(0, hi).map(lambda n: (str(n), n)), st.sampled_from(_BAD_COUNTS).map(lambda t: (t, None)))


def _choice(good, bad):
    return _mostly(st.sampled_from(good).map(lambda t: (t, t)), st.sampled_from(bad).map(lambda t: (t, None)))


# sizes stay small enough that nothing forks or starts a thread, whatever
# --workers asks for;
# "{dir}" stands for a fresh directory
_WORKERS = _count(10**6)
_FLAGS = {
    "table": {"--gmax": _count(14), "--format": _choice(("csv", "json", "plain"), ("xml", "CSV", "")), "--workers": _WORKERS},
    "fseq": {"--omega-max": _count(8), "--workers": _WORKERS},
    "verify": {
        "--check": _choice(("conjecture", "bijection", "intervals", "parity", "trees"), ("unknown", "Parity", "")),
        "--gmax": _count(3) | _count(12),  # often next to the checks' floors, 1 and 2
        "--workers": _WORKERS,
    },
    "tree": {
        "--genus": _count(9),
        # argparse takes any path; the last three exit 5
        "--dot": st.sampled_from(("{dir}/t.dot",) * 3 + ("{dir}", "{dir}/no/such/t.dot", "")).map(lambda t: (t, t)),
        "--node-cap": _count(250),
    },
}
_REQUIRED = {"--gmax", "--omega-max", "--check", "--genus", "--dot"}
_GAP_LISTS = (
    # closed: 1..m-1 and any gaps in (m, 2m), whose sums are all >= 2m
    st.integers(2, 9).flatmap(
        lambda m: st.sets(st.integers(m + 1, 2 * m - 1)).map(lambda extra: sorted({*range(1, m), *extra}))
    ).map(lambda gaps: ",".join(map(str, gaps)))
    # mostly not closed
    | st.lists(st.integers(1, 20), max_size=7, unique=True).map(lambda gaps: ",".join(map(str, sorted(gaps))))
    | st.sampled_from(("", "1,1000000000000", "1,2,3,1000000000000", "3,2,1", "1,1", "0", "1,x,3", "1,,2", "1,2,", ",", " 1", "+1", "1_1", "\u0661,2", "-1"))
)


def _transform_exit(text):
    """0, 2 or 3 for the gap list ``text``, by the definition."""
    tokens = text.split(",") if text else []
    if not all(t.isascii() and t.isdigit() for t in tokens):
        return 2
    gaps = [int(t) for t in tokens]
    if 0 in gaps or gaps != sorted(set(gaps)):
        return 2
    # a gap x is a sum a + (x - a) of members unless the other gaps block
    # every split; they block at most 2(g - 1), so 2g + 1 splits decide
    gapset = set(gaps)
    closed = all(a in gapset or x - a in gapset for x in gaps for a in range(1, min(x // 2, 2 * len(gaps) + 1) + 1))
    return 0 if closed else 3


@st.composite
def _cli_calls(draw, command):
    """A call of ``command`` (None: no command) as (argv,
    $SEMIFORGE_WORKERS or None, the parsed values, the exit code)."""
    env = draw(st.none() | st.sampled_from(("", "0", "2", "999", "-1", "abc", "\u0662")))
    values = {}
    if command == "transform":
        gaps = draw(_mostly(_GAP_LISTS, st.none()))  # None: left out
        if gaps is not None:
            values["gaps"] = (gaps, gaps)
    for flag, strategy in _FLAGS.get(command, {}).items():
        if draw(st.integers(0, 19)) < (19 if flag in _REQUIRED else 10):
            values[flag] = draw(strategy)
    if command == "tree" and draw(st.integers(0, 3)) == 0:
        # any genus, under a cap its root's children already exceed
        genus = draw(st.integers(10, 10**9))
        cap = draw(st.integers(0, n_g1_formula(genus)))
        values.update({"--genus": (str(genus), genus), "--node-cap": (str(cap), cap)})
    extra = draw(_mostly(st.none(), st.sampled_from(("--bogus", "--gmax"))))  # an unknown or a dangling flag
    order = draw(st.permutations(list(values)))
    argv = [command] if command else []
    for key in order:
        argv += [values[key][0]] if key == "gaps" else [key, values[key][0]]
    argv += [extra] if extra else []
    parsed = {key: value for key, (_text, value) in values.items()}

    if (
        command not in (*_FLAGS, "transform")
        or extra
        or None in parsed.values()
        or any(flag not in parsed for flag in _REQUIRED & set(_FLAGS.get(command, {})))
        or command == "transform" and "gaps" not in parsed
        or "--workers" in _FLAGS.get(command, {}) and "--workers" not in parsed and env and not (env.isascii() and env.isdigit())
        or command == "verify" and parsed["--gmax"] < {"conjecture": 1, "bijection": 2}.get(parsed["--check"], 0)
    ):
        code = 2
    elif command == "transform":
        code = _transform_exit(parsed["gaps"])
    elif command == "tree":
        genus = parsed["--genus"]
        size = sum(COUNTS_BY_GENUS[genus]) if genus <= 9 else None
        if size is None or parsed.get("--node-cap", 100_000) < size:
            code = 4
        else:
            code = 0 if parsed["--dot"] == "{dir}/t.dot" else 5
    else:
        code = 0
    return argv, env, parsed, code


@pytest.mark.parametrize("command", [*_FLAGS, "transform", "bogus", None])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_generated_calls_keep_the_cli_contract(command, data):
    argv, env, parsed, code = data.draw(_cli_calls(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        environ = {k: v for k, v in os.environ.items() if k != "SEMIFORGE_WORKERS"}
        if env is not None:
            environ["SEMIFORGE_WORKERS"] = env
        started = time.perf_counter()
        with (
            mock.patch.dict(os.environ, environ, clear=True),
            mock.patch.object(tree, "_fork_map", side_effect=AssertionError("forked")),
            mock.patch.object(tree, "_thread_map", side_effect=AssertionError("threaded")),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            got = run(argv)
        elapsed = time.perf_counter() - started
        dot = os.path.join(tmp, "t.dot")
        text = Path(dot).read_text() if os.path.isfile(dot) else None
    out, err = out.getvalue(), err.getvalue()
    assert got == code, (argv, env, err)
    assert "Traceback" not in err
    if code == 4:
        assert elapsed < 1  # refused before the tree is walked
    if code:  # 2 to 5: nothing written, and the reason on stderr
        assert out == "" and text is None and err.strip()
    elif command == "tree":
        assert out == ""
        assert text.startswith(f'digraph "Tg_{parsed["--genus"]}" {{\n')
        assert text.count("depth=") == sum(COUNTS_BY_GENUS[parsed["--genus"]])
    elif command == "table":
        want = tuple(tuple(row) for g, row in COUNTS_BY_GENUS.items() if g <= parsed["--gmax"])
        fmt = parsed.get("--format", "csv")
        if fmt == "csv":
            assert CountMatrix.from_csv(out).rows == want
        elif fmt == "json":
            assert CountMatrix.from_json_obj(json.loads(out)).rows == want
        else:
            assert out.splitlines() == [f"g={g}: " + " ".join(map(str, row)) for g, row in enumerate(want)]
    elif command == "fseq":
        lines = out.splitlines()
        assert lines[0] == "omega,f"
        assert lines[1:] == [f"{w},{F_SEQUENCE[w]}" for w in range(parsed["--omega-max"] + 1)]
    elif command == "verify":
        assert out.count("\n") == 1
        report = json.loads(out)
        assert report == {"check": parsed["--check"], "range": report["range"], "passed": True, "counterexample": None}
    else:
        lines = out.splitlines()
        gaps = [int(t) for t in parsed["gaps"].split(",")] if parsed["gaps"] else []
        steps = sum(1 for x in range(1, len(gaps) + 1) if x not in gaps)  # non-zero members <= g
        assert lines[0] == parsed["gaps"] and lines[-2] == ",".join(map(str, range(1, len(gaps) + 1)))
        assert lines[-1] == f"r={steps}" == f"r={len(lines) - 2}"
