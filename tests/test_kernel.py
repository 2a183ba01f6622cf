"""The compiled kernel's four functions against their oracles, the
pure-Python tree kernel, closed-set descent, fixed-genus level and trees
check, and the fallback to those where the compiled kernel cannot load."""

import itertools
import re
import shutil
from collections import Counter
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from semiforge import (
    Semigroup,
    TooLarge,
    analytics,
    cli,
    closedsets,
    count_matrix,
    export_tree_dot,
    f_value,
    max_ordinarization_attainer,
    tg_bfs_row,
    tree,
    verify_tree_relations,
)
from semiforge.analytics import VerificationReport
from semiforge.closedsets import count_closed_sets
from semiforge.semigroup import _ordinarize_bitmap
from conftest import doctor_compiled_levels
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


def _spy_compiled_levels(monkeypatch) -> list[int]:
    """The genus of every compiled fixed-genus level made from now on."""
    genera: list[int] = []
    compiled = tree._tg_level_compiled

    def spy(bitmaps, effs, g, room):
        genera.append(g)
        return compiled(bitmaps, effs, g, room)

    monkeypatch.setattr(tree, "_tg_level_compiled", spy)
    return genera


@pytest.mark.parametrize("source", ["compiled levels", "python"])
def test_runs_match_nodes_on_both_sources(source, request, monkeypatch):
    # the same multiset of (genus, depth, bitmap) on either source; the
    # compiled levels are taken from the cutoff on, where the kernel loads
    kernel = request.getfixturevalue("compiled_kernel") if source == "compiled levels" else False
    monkeypatch.setattr(tree, "_kernel", kernel)
    genera = _spy_compiled_levels(monkeypatch)
    cutoff = tree._COMPILED_TG_MIN_GENUS
    for g_max in range(19):
        genera.clear()
        runs = Counter((g, r, bitmap) for g, r, bitmaps in tree._runs(g_max) for bitmap in bitmaps)
        assert runs == Counter((g, r, bitmap) for bitmap, g, r in tree._nodes(g_max)), g_max
        assert set(genera) == (set(range(cutoff, g_max + 1)) if kernel and g_max >= cutoff else set()), g_max


def test_runs_take_the_compiled_levels_from_the_cutoff_to_genus_31(compiled_kernel, monkeypatch):
    # each source read up to its first node past the cutoff genus: levels
    # for 13 <= g_max <= 31, one node a run elsewhere
    genera = _spy_compiled_levels(monkeypatch)
    cutoff = tree._COMPILED_TG_MIN_GENUS
    for g_max in (cutoff - 1, cutoff, 31, 32):
        genera.clear()
        runs = list(itertools.takewhile(lambda run: run[0] <= cutoff, tree._runs(g_max)))
        assert set(genera) == ({cutoff} if cutoff <= g_max <= 31 else set()), g_max
        assert all(len(bitmaps) == 1 for _g, _r, bitmaps in runs) == (not genera), g_max
    monkeypatch.setattr(tree, "_kernel", False)
    list(tree._runs(cutoff))
    assert genera == []


def test_compiled_trees_check_passes_to_genus_21_without_the_python_loop(compiled_kernel, monkeypatch):
    # every genus from 0 on is walked by the kernel; each node is checked
    # at its depth once and expanded into as many children in T as the
    # next genus has
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", 0)

    def python_loop():
        raise AssertionError("the Python loop of verify_tree_relations ran")

    monkeypatch.setattr(analytics, "_Counterexamples", python_loop)
    calls = []
    check = compiled_kernel.semiforge_tg_check

    def spy(parents, children, effs, n, up, n_up, g, depth, *rest):
        calls.append((g, depth, n, len(rest[-1]) if rest[-1] else 0))
        return check(parents, children, effs, n, up, n_up, g, depth, *rest)

    monkeypatch.setattr(compiled_kernel, "semiforge_tg_check", spy)
    for g_max in range(22):
        calls.clear()
        assert verify_tree_relations(g_max) == VerificationReport("trees", f"genus <= {g_max}", True)
        checked, expanded = Counter(), Counter()
        for g, depth, n, children_in_T in calls:
            checked[g, depth] += n
            expanded[g] += children_in_T
        assert checked == Counter({(g, r): c for g in range(g_max + 1) for r, c in enumerate(COUNTS_BY_GENUS[g]) if c})
        assert expanded == Counter({g: sum(COUNTS_BY_GENUS[g + 1]) for g in range(g_max)})


def _misplaced(g):
    def edit(kids):
        grandchild = next(gc for kid, eff in kids for gc in tree._tg_children_raw(kid, g, eff))
        return kids[:-1] + [grandchild]

    return edit


def _wrong_eff(wrong):
    def edit(kids):
        i = next(i for i, (_kid, eff) in enumerate(kids) if wrong(eff) != eff)
        return kids[:i] + [(kids[i][0], wrong(kids[i][1]))] + kids[i + 1 :]

    return edit


# faults planted below the root of the walk of genus g, and the g_max from
# which the trees check must fail
_WALK_FAULTS = {
    "dropped child": lambda g: (lambda kids: kids[:-1], g),
    "repeated child": lambda g: (lambda kids: kids + kids[-1:], g),
    "misplaced child": lambda g: (_misplaced(g), g),
    "eff bit cleared": lambda g: (_wrong_eff(lambda eff: eff & (eff - 1)), g + 1),
    "eff bit set": lambda g: (_wrong_eff(lambda eff: eff | 1 << (2 * g + 1)), g + 1),
    # as many children in T, one of them no semigroup: only the sorted
    # comparison of the next genus sees it
    "eff bit moved": lambda g: (_wrong_eff(lambda eff: eff & (eff - 1) | 1 << (2 * g + 1) if eff else eff), g + 1),
    # a uint64 copy would drop the stray bit and pass
    "child past the word": lambda g: (lambda kids: kids[:-1] + [(kids[-1][0] | 1 << 64, kids[-1][1])], g),
}


@pytest.mark.parametrize("fault", _WALK_FAULTS)
@pytest.mark.parametrize("at", ["genus 8", "the cutoff"])
def test_compiled_trees_check_fails_under_each_walk_fault(fault, at, compiled_kernel, monkeypatch):
    # the compiled decision fails, and the Python loop, which writes the
    # report, fails too on the same walk
    g = 8 if at == "genus 8" else tree._COMPILED_TG_MIN_GENUS
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", min(g, tree._COMPILED_TG_MIN_GENUS))
    edit, g_max = _WALK_FAULTS[fault](g)
    doctor_compiled_levels(monkeypatch, g, edit)
    assert tree._tg_plan(g_max) is tree._tg_level_compiled
    assert analytics._trees_hold(g_max) is False
    report = verify_tree_relations(g_max)
    assert report.passed is False and report.counterexample


def _check_level(kernel, parents, children, effs, up, g, depth, expected, expand=True) -> tuple[int, list[int]]:
    """``semiforge_tg_check`` on one hand-built level that fills a genus
    whose expected nodes are ``expected``: its return code, and the
    children in T it wrote when asked to expand."""
    from ctypes import c_int, c_uint64

    def words(values, ctype=c_uint64):
        return (ctype * len(values))(*values)

    n = len(children)
    out = words([0] * sum(eff.bit_count() for eff in effs)) if expand else None
    code = kernel.semiforge_tg_check(
        words(parents, c_int), words(children), words(effs), n, words(up), len(up), g, depth,
        words([0] * len(expected)), 0, words(expected), len(expected), out,
    )
    return code, list(out or ())


def test_compiled_trees_check_sees_what_the_python_checks_see(compiled_kernel):
    # one node of genus g <= 8 a level, under its true parent or as its own
    # (a root), with its effective generators or one bit of the next
    # window flipped: the kernel fails exactly where the Python edge check
    # or _expand_checked reports a failure or raises
    seen = Counter()
    for bitmap, g, r in tree._nodes(8):
        parent = _ordinarize_bitmap(bitmap, g)
        eff = tree._effective_generators(bitmap, g)
        for up in (parent, bitmap):
            for flip in (0, *(1 << x for x in range(2 * g + 4))):
                bad, nxt = analytics._Counterexamples(), set()
                try:
                    if parent != up:
                        bad.add(g, (), "edge child does not transform to parent")
                    analytics._expand_checked(bitmap, g, eff ^ flip, parent, nxt, bad)
                    verdict = bad.best and bad.best[2]
                except ValueError:
                    verdict = "raises"
                seen[verdict] += 1
                code, out = _check_level(compiled_kernel, [0], [bitmap], [eff ^ flip], [up], g, r, [bitmap])
                assert code == (-1 if verdict else 0), (bitmap, g, up, flip, verdict)
                if not verdict:
                    assert len(out) == len(nxt) and set(out) == nxt
    # each Python failure, and a pass, is met
    assert set(seen) >= {
        None,
        "edge child does not transform to parent",
        "transform left the ancestor line",
        "siblings transform to different parents",
    }, seen


def test_compiled_trees_check_refuses_repeats_and_wrong_depths(compiled_kernel):
    # faults that only a broken walk makes, each seen by one check: a node
    # repeated in the walk, more often than in the expansion of the genus
    # before (a level larger than the genus, whose buffers exceed ctypes'
    # 16 inline bytes, so that ASan watches them) or as often, a node one
    # level too deep, and a non-semigroup with 4 of the members <= 4,
    # deeper than any genus-4 node can be (the Python loop raises on it)
    node, g, r = next(node for node in tree._nodes(8) if node[1:] == (8, 1))
    up = [_ordinarize_bitmap(node, g)]
    assert _check_level(compiled_kernel, [0], [node], [0], up, g, r, [node]) == (0, [])
    assert _check_level(compiled_kernel, [0] * 4, [node] * 4, [0] * 4, up, g, r, [node] * 3)[0] == -1
    assert _check_level(compiled_kernel, [0, 0], [node, node], [0, 0], up, g, r, [node, node])[0] == -1
    assert _check_level(compiled_kernel, [0], [node], [0], up, g, r + 1, [node])[0] == -1
    deep = 0b1000011111  # gaps 5 to 8
    assert _check_level(compiled_kernel, [0], [deep], [0], [_ordinarize_bitmap(deep, 4)], 4, 4, [deep])[0] == -1


def test_compiled_trees_check_expands_genus_30_into_bit_63(compiled_kernel):
    # the genus-30 nodes at depth 1 expand into genus 31, whose window is
    # the whole word; the genus-31 nodes at depth 1 are checked there
    for g in (30, 31):
        levels = [tuple(map(list, level)) for level in itertools.islice(tree._tg_levels(g), 2)]
        (_, (root,), _), (parents, children, effs) = levels
        code, out = _check_level(compiled_kernel, parents, children, effs, [root], g, 1, children, expand=g < 31)
        assert code == 0, g
        if g == 30:
            want, bad = set(), analytics._Counterexamples()
            for child, eff in zip(children, effs):
                analytics._expand_checked(child, g, eff, root, want, bad)
            assert bad.best is None and len(out) == len(want) and set(out) == want
            assert all(child >> 63 for child in out)
        # a node with its top member dropped no longer transforms to the root
        broken = [children[0] ^ 1 << (2 * g + 1)] + children[1:]
        assert _check_level(compiled_kernel, parents, broken, effs, [root], g, 1, broken, expand=g < 31)[0] == -1


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


def _timing_masked(captured) -> tuple[str, str]:
    """stdout, and stderr with each elapsed-seconds figure masked, so that
    a slow run (such as one under a sanitizer) compares equal."""
    return captured.out, re.sub(r" in \d+\.\ds$", " in ?s", captured.err, flags=re.MULTILINE)


@pytest.mark.parametrize("breakage", ["no compiler", "build fails", "cache unwritable"])
def test_failed_build_falls_back_silently(breakage, tmp_path, monkeypatch, capfd):
    dot = tmp_path / "tg.dot"
    argvs = (
        ["table", "--gmax", "12"],
        ["fseq", "--omega-max", "9"],
        ["verify", "--check", "trees", "--gmax", "16"],
        ["verify", "--check", "parity", "--gmax", "14"],
        ["verify", "--check", "intervals", "--gmax", "14"],
        ["tree", "--genus", "14", "--dot", str(dot)],
    )
    assert [cli.run(argv) for argv in argvs] == [0] * len(argvs)
    want = _timing_masked(capfd.readouterr())
    assert "counted genus <= 12 in ?s\n" in want[1]
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
    assert _timing_masked(capfd.readouterr()) == want
    assert dot.read_bytes() == want_dot
