"""The compiled kernel's three walks against their oracles, the
pure-Python tree kernel, closed-set descent and fixed-genus level, and
the fallback to those where the compiled kernel cannot load."""

import itertools
import shutil
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from semiforge import (
    Semigroup,
    TooLarge,
    cli,
    closedsets,
    count_matrix,
    export_tree_dot,
    f_value,
    max_ordinarization_attainer,
    tg_bfs_row,
    tree,
)
from semiforge.closedsets import count_closed_sets
from reference_tables import COUNTS_BY_GENUS, F_SEQUENCE


def test_kernel_loads_where_a_compiler_is_on_path():
    # without this, a broken build would pass every test on the slow path
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert tree._compiled_kernel() is not None


def test_compiled_kernel_matches_python_per_task(compiled_kernel):
    # task by task, so that errors in two tasks cannot cancel in the sum
    for g_max in range(25):
        for task in tree._spine_tasks(g_max):
            payload = ([task], g_max)
            assert tree._count_worker_compiled(payload) == tree._count_worker(payload), (g_max, task)


def test_compiled_kernel_matches_python_in_the_top_word(compiled_kernel):
    # the shallow tasks of a table to genus 62 fill both 64-bit halves of
    # the window 2*62 + 3 = 127 without counting the table
    tasks = [task for task in tree._spine_tasks(62) if task[1] >= 60]
    assert len(tasks) == 59 + 60 + 61
    for task in tasks:
        payload = ([task], 62)
        assert tree._count_worker_compiled(payload) == tree._count_worker(payload), task


def test_compiled_kernel_counts_to_genus_62(compiled_kernel, monkeypatch):
    assert tree._count_plan(62) == (tree._count_worker_compiled, tree._COMPILED_POOL_MIN_TASKS)
    assert tree._count_plan(63) == (tree._count_worker, tree._POOL_MIN_TASKS)
    with pytest.raises(ValueError, match="genus 62, not 63"):
        tree._count_worker_compiled(([], 63))
    monkeypatch.setattr(tree, "_kernel", False)
    assert tree._count_plan(62) == (tree._count_worker, tree._POOL_MIN_TASKS)


def test_compiled_tables_match_python_at_1_2_3_workers(compiled_kernel, fork_calls, monkeypatch):
    want = count_matrix(29, workers=1).rows
    assert [list(row) for row in want] == [COUNTS_BY_GENUS[g] for g in range(30)]
    for workers in (2, 3):
        for g in (21, 22, 27, 28, 29):
            assert count_matrix(g, workers=workers).rows == want[: g + 1], (g, workers)
    # compiled tasks are cheap enough that the pool pays only from genus
    # 28, where the Python kernel's pays from 21
    assert sum(range(27)) < tree._COMPILED_POOL_MIN_TASKS <= sum(range(28))
    assert fork_calls == [(sum(range(g)), workers) for workers in (2, 3) for g in (28, 29)]
    monkeypatch.setattr(tree, "_kernel", False)
    for workers in (1, 2, 3):
        assert count_matrix(22, workers=workers).rows == want[:23], workers


def _compiled_closed_count(omega: Semigroup) -> int:
    return closedsets._f_worker_compiled(([omega.bitmap], omega.genus))


def test_compiled_closed_count_matches_python_per_semigroup(compiled_kernel):
    # one bitmap per call, so that errors in two semigroups cannot cancel
    checked = 0
    for bitmap, g, _r in tree._nodes(12):
        omega = Semigroup._from_bitmap(bitmap, g)
        assert _compiled_closed_count(omega) == count_closed_sets(omega, g + 1), omega
        checked += 1
    assert checked == sum(sum(COUNTS_BY_GENUS[g]) for g in range(13))


@pytest.mark.parametrize("w", [29, 30, 31])
def test_compiled_closed_count_matches_python_in_the_top_bits(compiled_kernel, w):
    # the deepest semigroup's window [0, 2w + 1] reaches bit 63 at w = 31
    omega = max_ordinarization_attainer(w)
    assert _compiled_closed_count(omega) == count_closed_sets(omega, w + 1) == w + 1


def test_compiled_f_value_matches_the_published_sequence(compiled_kernel):
    assert [f_value(w) for w in range(len(F_SEQUENCE))] == F_SEQUENCE


def test_compiled_kernel_counts_closed_sets_to_genus_31(compiled_kernel, monkeypatch):
    compiled = (closedsets._f_worker_compiled, closedsets._COMPILED_F_POOL_MIN_TASKS)
    python = (closedsets._f_worker, closedsets._F_POOL_MIN_TASKS)
    assert closedsets._f_plan(31) == compiled
    assert closedsets._f_plan(32) == python
    with pytest.raises(ValueError, match="genus 31, not 32"):
        closedsets._f_worker_compiled(([], 32))
    monkeypatch.setattr(tree, "_kernel", False)
    assert closedsets._f_plan(31) == python


def test_compiled_f_value_forks_only_from_genus_15(compiled_kernel, fork_calls):
    # a compiled genus-14 count takes about 50 ms, less than the pool costs
    assert sum(COUNTS_BY_GENUS[14]) < closedsets._COMPILED_F_POOL_MIN_TASKS <= sum(COUNTS_BY_GENUS[15])
    assert [f_value(w, workers=2) for w in range(14)] == F_SEQUENCE[:14]
    assert fork_calls == []
    assert f_value(15, workers=2) == f_value(15, workers=1)
    assert fork_calls == [(sum(COUNTS_BY_GENUS[15]), 2)]


def _levels(g: int, depth=None) -> list[tuple[list[int], list[int], list[int]]]:
    return [tuple(map(list, level)) for level in itertools.islice(tree._tg_levels(g), depth)]


def test_compiled_tg_levels_match_python(compiled_kernel, monkeypatch):
    # every genus, the ones below the cutoff too: children in order, their
    # effective generators and their parents' indices
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", 0)
    compiled = {g: _levels(g) for g in range(17)}
    assert tree._tg_plan(0) is tree._tg_level_compiled
    monkeypatch.setattr(tree, "_kernel", False)
    for g, levels in compiled.items():
        assert levels == _levels(g), g


def test_compiled_tg_bfs_rows_match_the_reference(compiled_kernel, monkeypatch):
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", 0)
    for g in range(25):
        assert tg_bfs_row(g) == [c for c in COUNTS_BY_GENUS[g] if c], g


def test_compiled_tg_levels_match_python_in_the_top_bit(compiled_kernel, monkeypatch):
    # at genus 31 the window [0, 63] is the whole word; the first three
    # levels hold 1, 360 and 20 569 nodes
    compiled = _levels(31, 3)
    assert [len(children) for _parents, children, _effs in compiled] == [1, 360, 20569]
    assert any(child >> 63 for _parents, children, _effs in compiled for child in children)
    monkeypatch.setattr(tree, "_kernel", False)
    assert compiled == _levels(31, 3)


def test_compiled_tg_levels_inherit_effective_generators(compiled_kernel):
    # every child's eff, inherited from its parent's by one AND, is the one
    # its sum set gives: every node from the cutoff to genus 22, and the
    # first three levels at genus 30 and at 31, where bit 63 is in the window
    cutoff = tree._COMPILED_TG_MIN_GENUS
    checked = 0
    for g, depth in [*((g, None) for g in range(cutoff, 23)), (30, 3), (31, 3)]:
        assert tree._tg_plan(g) is tree._tg_level_compiled
        for _parents, children, effs in itertools.islice(tree._tg_levels(g), depth):
            assert list(effs) == [tree._effective_generators(child, g) for child in children], g
            checked += len(children)
    assert checked == sum(sum(COUNTS_BY_GENUS[g]) for g in range(cutoff, 23)) + 1 + 330 + 17_317 + 1 + 360 + 20_569


def test_compiled_tg_level_from_the_cutoff_to_genus_31(compiled_kernel, monkeypatch):
    cutoff = tree._COMPILED_TG_MIN_GENUS
    assert [tree._tg_plan(g) for g in (cutoff - 1, cutoff, 31, 32)] == [
        tree._tg_level, tree._tg_level_compiled, tree._tg_level_compiled, tree._tg_level
    ]
    with pytest.raises(ValueError, match="genus 31, not 32"):
        tree._tg_level_compiled([], [], 32, 1)
    monkeypatch.setattr(tree, "_kernel", False)
    assert tree._tg_plan(cutoff) is tree._tg_level


def _dot_or_refusal(g: int, cap: int) -> str:
    try:
        return export_tree_dot(g, node_cap=cap)
    except TooLarge as exc:
        return f"TooLarge: {exc}"


def test_compiled_tg_walk_refuses_at_the_python_caps(compiled_kernel, monkeypatch):
    # the cap is crossed inside a level, at its last node and just after
    g = tree._COMPILED_TG_MIN_GENUS
    ends = list(itertools.accumulate(tg_bfs_row(g)))
    caps = sorted({0, 1, 2} | {end + d for end in ends for d in (-1, 0, 1)})
    compiled = [_dot_or_refusal(g, cap) for cap in caps]
    assert compiled.count(compiled[-1]) == 2  # the whole tree fits the last two caps
    monkeypatch.setattr(tree, "_kernel", False)
    assert compiled == [_dot_or_refusal(g, cap) for cap in caps]


def test_a_build_removes_older_builds_for_this_interpreter(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    suffix = EXTENSION_SUFFIXES[0]
    source = tmp_path / "_kernel.c"
    shutil.copy(tree._KERNEL_SOURCE, source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = {f"_kernel-00000000{suffix}", f"_kernel-deadbeef{suffix}"}
    foreign = "_kernel-00000000.cpython-39-x86_64-linux-gnu.so"  # no interpreter here is 3.9
    for name in (*stale, foreign):
        (cache / name).write_bytes(b"")
    assert tree._load_kernel(str(source)) is not None
    left = {path.name for path in cache.iterdir()}
    built = left - {foreign}
    assert foreign in left and len(built) == 1 and not built & stale
    assert built.pop().endswith(suffix)


@pytest.mark.parametrize("breakage", ["no compiler", "build fails", "cache unwritable"])
def test_failed_build_falls_back_silently(breakage, tmp_path, monkeypatch, capfd):
    dot = tmp_path / "tg.dot"
    argvs = (
        ["table", "--gmax", "12"],
        ["fseq", "--omega-max", "9"],
        ["verify", "--check", "trees", "--gmax", "16"],
        ["tree", "--genus", "14", "--dot", str(dot)],
    )
    assert [cli.run(argv) for argv in argvs] == [0, 0, 0, 0]
    want = capfd.readouterr()
    want_dot = dot.read_bytes()
    dot.unlink()
    source = tmp_path / "_kernel.c"
    shutil.copy(tree._KERNEL_SOURCE, source)
    if breakage == "no compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    elif breakage == "build fails":
        source.write_text("not C\n")
    else:
        (tmp_path / "__pycache__").write_text("")  # a file where the cache directory goes
    monkeypatch.setattr(tree, "_KERNEL_SOURCE", str(source))
    monkeypatch.setattr(tree, "_kernel", None)
    assert [list(row) for row in count_matrix(20).rows] == [COUNTS_BY_GENUS[g] for g in range(21)]
    assert tree._kernel is False
    assert capfd.readouterr().out == ""
    for argv in argvs:
        monkeypatch.setattr(tree, "_kernel", None)
        assert cli.run(argv) == 0
        assert tree._kernel is False
    assert capfd.readouterr() == want
    assert dot.read_bytes() == want_dot
