"""The compiled kernel's six functions against their oracles, the
pure-Python tree kernel and histogram, closed-set descent, fixed-genus
level and trees check, and the fallback to those where the compiled
kernel cannot load."""

import ctypes
import itertools
import math
import re
import shutil
import struct
import sys
from array import array
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
    n_g1_formula,
    tg_bfs_row,
    tree,
    verify_interval_theorem,
    verify_parity_lemma,
    verify_tree_relations,
)
from semiforge.analytics import VerificationReport
from semiforge.closedsets import count_closed_sets
from semiforge.semigroup import _ordinarize_bitmap
from conftest import gap_runs, scratch_entry, scratch_kernel
from reference_tables import COUNTS_BY_GENUS, F_SEQUENCE


def test_kernel_loads_where_a_compiler_is_on_path():
    # without this, a broken build would pass every test on the slow path
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert tree._compiled_kernel() is not None


def _cells(walk: str, g_max: int) -> int:
    """The cells of the tally of the walk ``walk`` to g_max, as ``_kernel.c`` lays them out."""
    depths = g_max // 2 + 1
    return {"count": (g_max + 1) * depths, "hist": (g_max + 1) * depths * 2 * (g_max + 1), "f_value": 1}[walk]


def _per_task(walk: str, i: int, g_max: int) -> tuple[list[int], list[int]]:
    """The flat tallies of task i of a table to g_max alone, by the compiled
    walk ``walk`` and by the Python walk that is its oracle."""
    into = {"count": tree._count_into, "hist": tree._hist_into, "f_value": closedsets._f_into}[walk]
    cells = _cells(walk, g_max)
    claims = ctypes.c_int(i), i + 1, (ctypes.c_uint64 * cells)()
    tree._walk_compiled(walk, claims, g_max)
    return array("Q", bytes(claims[2])).tolist(), tree._walk_python((range(i, i + 1), (into, g_max, cells)))


def test_compiled_kernel_matches_python_per_task(compiled_kernel):
    # task by task, so that errors in two tasks cannot cancel in the sum
    for g_max in range(25):
        for i in range(g_max * (g_max - 1) // 2):
            compiled, python = _per_task("count", i, g_max)
            assert compiled == python, (g_max, i)


def _top_word_tasks(g_max: int, genus: int) -> list[int]:
    """The indices of the tasks of a table to g_max whose genus is at least ``genus``."""
    return [i for i in range(g_max * (g_max - 1) // 2) if tree._task(i, g_max)[1] >= genus]


def test_compiled_kernel_matches_python_in_the_top_word(compiled_kernel):
    # the shallow tasks of a table to genus 62 fill both 64-bit halves of
    # the window 2*62 + 3 = 127 without counting the table
    tasks = _top_word_tasks(62, 60)
    assert len(tasks) == 59 + 60 + 61
    for i in tasks:
        compiled, python = _per_task("count", i, 62)
        assert compiled == python, i


@pytest.fixture(scope="module")
def exposed_kernel(tmp_path_factory) -> ctypes.CDLL:
    """The kernel with its task maker (task64, task128) and closed_siblings
    exported, which the library keeps to itself; built once a module."""
    if tree._compiled_kernel() is None:
        pytest.skip("no compiled count kernel")
    kernel = scratch_kernel(
        tmp_path_factory.mktemp("exposed"),
        ("static void SIZED(task)(", "void SIZED(task)("),
        ("static uint64_t closed_siblings(", "uint64_t closed_siblings("),
    )
    kernel.closed_siblings.argtypes = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_int]
    kernel.closed_siblings.restype = ctypes.c_uint64
    return kernel


def _made_task(kernel, bits: int, i: int, g_max: int, W: int) -> tree.Entry:
    """Task i of a table to g_max on the window W as the kernel's task maker
    on ``bits``-bit words makes it, as the first entry of its walk."""
    buffer = (ctypes.c_uint64 * 10)()  # an entry of three words and two ints, 16-byte aligned
    entry = ctypes.addressof(buffer) + (-ctypes.addressof(buffer) % 16)
    getattr(kernel, f"task{bits}")(i, g_max, W, ctypes.c_void_p(entry))
    raw, size = ctypes.string_at(entry, 3 * bits // 8 + 8), bits // 8
    bitmap, eff, rev = (int.from_bytes(raw[k * size : (k + 1) * size], "little") for k in range(3))
    g, r = struct.unpack_from("ii", raw, 3 * size)
    return bitmap, g, r, eff, rev


def test_the_kernel_makes_each_task_as_python_builds_it(exposed_kernel):
    # every task of every table to genus 62, on the 128-bit word, and to
    # 31 on the 64-bit one, with the ordinary root of genus g_max one index
    # past the last task, by the kernel and by _task against the semigroup
    # built from its gaps: 1 to g, then a, for g < g_max and g + 2 <= a <=
    # 2g + 1.  The histogram walk puts each task at n = 2 gap intervals,
    # with an odd member <= its genus exactly where that genus is odd.  The
    # f-value walk of w = g_max makes the tasks of a table to g_max - 1, the
    # ordinary one of genus g_max - 1 last, on the window of g_max
    built: dict[tuple[int, int], Semigroup] = {}
    for g_max in range(63):
        roots = [(g, a) for g in range(g_max) for a in range(g + 2, 2 * g + 2)]
        for root in roots:
            if root not in built:
                built[root] = Semigroup.from_gaps([*range(1, root[0] + 1), root[1]])
        tasks = [built[root] for root in roots] + [Semigroup.ordinary(g_max)]
        for i, task in enumerate(tasks):
            want = scratch_entry(task, g_max)
            assert tree._task(i, g_max) == want, (g_max, i)
            for bits in (64, 128) if g_max <= 31 else (128,):
                assert _made_task(exposed_kernel, bits, i, g_max, 2 * g_max + 3) == want, (bits, g_max, i)
            if i < len(roots):
                assert task.multiplicity == task.genus and tree._gap_intervals(task.bitmap, task.genus) == 2, task
                assert (task.bitmap & tree._odd_low(task.genus) != 0) == task.genus % 2, task
        if 1 <= g_max <= 31:
            below = tasks[: (g_max - 1) * (g_max - 2) // 2] + [Semigroup.ordinary(g_max - 1)]
            for i, task in enumerate(below):
                want = scratch_entry(task, g_max)
                assert _made_task(exposed_kernel, 64, i, g_max - 1, 2 * g_max + 3) == want, (g_max, i)


class _KernelSpy:
    """The compiled kernel, recording each walk called as (name, the tally
    it is handed, whether that tally is all zero as the call starts); the
    record keeps each tally alive, so no later one can take its address."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, []

    def __getattr__(self, name):
        walk = getattr(self.kernel, name)

        def spy(*args):
            self.calls.append((name, args[3], not any(args[3])))
            return walk(*args)

        return spy


_COMPUTATIONS = [
    ("semiforge_count", lambda g, workers: count_matrix(g, workers=workers)),
    ("semiforge_hist", lambda g, workers: tree._histogram(g, workers=workers)),
    ("semiforge_f_value", lambda g, workers: f_value(g // 2, workers=workers)),
]


def test_each_worker_makes_one_kernel_call(compiled_kernel, thread_calls, monkeypatch):
    # above the thread floors (a table to 22 and f_value(11)) and below
    # them (19 and 9); each worker claims all its tasks in one call
    spy = _KernelSpy(compiled_kernel)
    monkeypatch.setattr(tree, "_kernel", spy)
    cpus = len(tree._usable_cpus())
    for name, compute in _COMPUTATIONS:
        for g in (19, 22):
            want = compute(g, 1)
            assert [call[0] for call in spy.calls] == [name], (name, g)
            for workers in (2, 3):
                spy.calls.clear()
                assert compute(g, workers) == want
                shared = g == 22 and cpus > 1
                assert [call[0] for call in spy.calls] == [name] * (min(workers, cpus) if shared else 1), (name, g)
            spy.calls.clear()
    assert len(thread_calls) == 6  # one CPU runs the caller's share alone


def test_the_calls_of_one_computation_share_one_new_tally(compiled_kernel, monkeypatch):
    # at 2 and 3 workers every kernel call of a table, histogram or f-value
    # adds into the one tally the computation made, zeroed as the first
    # call starts, and the next computation makes a new one
    spy = _KernelSpy(compiled_kernel)
    monkeypatch.setattr(tree, "_kernel", spy)
    tallies = []
    for _name, compute in _COMPUTATIONS:
        for workers in (2, 3):
            spy.calls.clear()
            compute(22, workers)
            assert spy.calls[0][2] and len({ctypes.addressof(tally) for _name, tally, _zero in spy.calls}) == 1
            tallies.append(spy.calls[0][1])
    assert len({ctypes.addressof(tally) for tally in tallies}) == 6


def _routes(monkeypatch) -> list[tuple[object, range, int]]:
    """(the compiled walk's name or the Python walk's function, the tasks,
    g_max) of every worker's call, which now walks nothing."""
    routes: list[tuple[object, range, int]] = []

    def compiled(walk, claims, g_max):
        routes.append((walk, range(claims[0].value, claims[1]), g_max))

    def python(payload):
        tasks, (into, g_max, cells) = payload
        routes.append((into, tasks, g_max))
        return [0] * cells

    monkeypatch.setattr(tree, "_walk_compiled", compiled)
    monkeypatch.setattr(tree, "_walk_python", python)
    return routes


def test_compiled_kernel_counts_to_genus_62(compiled_kernel, monkeypatch):
    # the kernel's tasks are shared by threads, from _THREAD_MIN_TASKS,
    # and the Python walk's by forked children, from _FORK_MIN_TASKS; both
    # take the indices of the tasks, which each makes
    routes = _routes(monkeypatch)
    for g_max in (62, 63):
        count_matrix(g_max)
        tree._histogram(g_max)
    monkeypatch.setattr(tree, "_kernel", False)
    count_matrix(62)
    tree._histogram(62)
    indices, above = range(62 * 61 // 2), range(63 * 62 // 2)
    assert routes == [
        ("count", indices, 62), ("hist", indices, 62),
        (tree._count_into, above, 63), (tree._hist_into, above, 63),
        (tree._count_into, indices, 62), (tree._hist_into, indices, 62),
    ]


def test_compiled_tables_match_python_at_1_2_3_workers(compiled_kernel, fork_calls, thread_calls, monkeypatch):
    want = count_matrix(31, workers=1).rows
    assert [list(row) for row in want[:31]] == [COUNTS_BY_GENUS[g] for g in range(31)]
    assert sum(want[31]) == 9_266_788  # n(31), OEIS A007323, counted on the 64-bit walk
    for workers in (2, 3):
        for g in (20, 21, 27, 30, 31):
            assert count_matrix(g, workers=workers).rows == want[: g + 1], (g, workers)
    # threads share the compiled tasks from genus 21, and so do forked
    # processes the Python kernel's; the compiled kernel never forks
    assert sum(range(20)) < tree._THREAD_MIN_TASKS <= sum(range(21))
    assert thread_calls == [(sum(range(g)), workers) for workers in (2, 3) for g in (21, 27, 30, 31)]
    assert fork_calls == []
    monkeypatch.setattr(tree, "_kernel", False)
    for workers in (1, 2, 3):
        assert count_matrix(22, workers=workers).rows == want[:23], workers


def test_compiled_histogram_matches_python_per_task(compiled_kernel):
    for g_max in range(25):
        for i in range(g_max * (g_max - 1) // 2):
            compiled, python = _per_task("hist", i, g_max)
            assert compiled == python, (g_max, i)


def test_compiled_histogram_matches_python_in_the_top_word(compiled_kernel):
    for i in _top_word_tasks(62, 60):
        compiled, python = _per_task("hist", i, 62)
        assert compiled == python, i


@pytest.mark.parametrize("g_max", [31, 32])
def test_compiled_walks_match_python_at_the_word_boundary(compiled_kernel, g_max):
    # the 64-bit walks take g_max = 31, whose words use bit 63, and the
    # 128-bit walks start at 32: the tasks from root genus g_max - 4 up fill
    # the window to 2 g_max + 1, and those of multiplicity m = 2 and 3 (root
    # genus 2 and 3) put rev's top bit, W - m, highest (W = 2 g_max + 3);
    # the rest would make the test long
    tasks = [i for i in range(g_max * (g_max - 1) // 2) if not 3 < tree._task(i, g_max)[1] < g_max - 4]
    assert len(tasks) == sum(range(g_max - 5, g_max)) + 1 + 2
    for i in tasks:
        for walk in ("count", "hist"):
            compiled, python = _per_task(walk, i, g_max)
            assert compiled == python, (walk, i)


@pytest.mark.parametrize("g_max", [29, 30])
def test_compiled_tables_on_the_64_bit_word_match_the_reference(compiled_kernel, g_max):
    want = [COUNTS_BY_GENUS[g] for g in range(g_max + 1)]
    assert [list(row) for row in count_matrix(g_max).rows] == want
    assert [[sum(cells) for cells in row] for row in tree._histogram(g_max)] == want


def test_histogram_matches_a_count_of_each_semigroup(monkeypatch):
    # (genus, depth, gap intervals, odd member <= genus) of every
    # semigroup of genus <= 21, by the definition, against the histogram
    # of each kernel that loads
    want = Counter()
    for bitmap, g, r in tree._nodes(21):
        odd = any(bitmap >> x & 1 for x in range(1, g + 1, 2))
        want[g, r, len(gap_runs(Semigroup._from_bitmap(bitmap, g))), int(odd)] += 1
    for kernel in filter(None, (tree._compiled_kernel(), False)):
        monkeypatch.setattr(tree, "_kernel", kernel)
        hist = tree._histogram(21)
        got = Counter({
            (g, r, i >> 1, i & 1): count
            for g, row in enumerate(hist) for r, cells in enumerate(row) for i, count in enumerate(cells) if count
        })
        assert got == want, kernel
        assert [len(cells) for row in hist for cells in row] == [
            2 * g + 2 for g in range(22) for _r in range(g // 2 + 1)
        ]


def test_histogram_marginal_matches_the_tables_above_genus_30(compiled_kernel):
    # to genus 30 the reference table; at 31 and 32, where no reference
    # table reaches, depth 1 by its formula, the last depth 1 semigroup,
    # and each high-depth cell f_value(g // 2 - r), by the pairing
    rows = [[sum(cells) for cells in row] for row in tree._histogram(32)]
    assert rows[:31] == [COUNTS_BY_GENUS[g] for g in range(31)]
    for g in (31, 32):
        assert rows[g][1] == n_g1_formula(g) and rows[g][-1] == 1, g
    high = range((32 + 4) // 3, 17)
    assert [rows[32][r] for r in high] == [f_value(16 - r) for r in high]


def test_cell_checks_equal_at_1_and_2_workers(compiled_kernel, fork_calls, thread_calls):
    # at genus 30 threads share the histogram's 435 tasks, as the table's
    for check in (verify_parity_lemma, verify_interval_theorem):
        report = check(30)
        assert report.passed and check(30, workers=2) == report
    assert thread_calls == [(sum(range(30)), 2)] * 2 and fork_calls == []


def _as_only_child(omega: Semigroup) -> tuple[int, int]:
    """The extended window E of the parent of ``omega`` in the
    generator-removal tree, and the one bit of the generator that omega
    removes from it, its Frobenius number: closed_siblings on (E, that
    bit) counts omega alone."""
    g, frob = omega.genus, omega.frobenius
    extended = analytics._raw_parent_in_T(omega.bitmap, g) | 3 << (2 * g)
    assert extended ^ 1 << frob == omega.bitmap
    return extended, 1 << frob


def test_compiled_closed_count_matches_python_per_semigroup(exposed_kernel):
    # closed_siblings, the f-value walk's one counter, on each semigroup of
    # genus 1 to 12 as the only child of its parent, one semigroup a call,
    # so that errors in two semigroups cannot cancel
    checked = 0
    for bitmap, g, _r in tree._nodes(12):
        if g:
            omega = Semigroup._from_bitmap(bitmap, g)
            assert exposed_kernel.closed_siblings(*_as_only_child(omega), g) == count_closed_sets(omega, g + 1), omega
            checked += 1
    assert checked == sum(sum(COUNTS_BY_GENUS[g]) for g in range(1, 13))


@pytest.mark.parametrize("w", [29, 30, 31])
def test_compiled_closed_count_matches_python_in_the_top_bits(exposed_kernel, w):
    # the deepest semigroup, counted on its parent, whose extended window
    # [0, 2w + 1] reaches bit 63 at w = 31
    omega = max_ordinarization_attainer(w)
    extended, eff = _as_only_child(omega)
    assert exposed_kernel.closed_siblings(extended, eff, w) == count_closed_sets(omega, w + 1) == w + 1
    assert extended >> 63 == (w == 31)


def _siblings(parent: Semigroup) -> tuple[int, int, list[Semigroup]]:
    """The extended window E of ``parent``, its effective generators and
    its children E less each of them, in the generator-removal tree."""
    g = parent.genus
    extended, eff = parent.bitmap | 3 << (2 * g + 2), tree._effective_generators(parent.bitmap, g)
    kids = [Semigroup._from_bitmap(extended ^ 1 << a, g + 1) for a in range(2 * g + 2) if eff >> a & 1]
    return extended, eff, kids


def test_compiled_sibling_count_matches_python_per_parent(exposed_kernel):
    # closed_siblings, which each parent of genus w - 1 of the f-value walk
    # calls for all its children at once, on one parent a call.  Every
    # child's last maximum is 2w, its w-th non-zero member, so the cases
    # hold children that remove a generator a below 2w - 1, whose maxima
    # from a + 1 to 2w - 1 are counted on the child alone, and children
    # that remove 2w - 1 itself; and parents of two or more children, which
    # reuse the counts of the maxima the first one shared.
    # Every semigroup of genus w >= 1 is one parent's child, so the sums by
    # genus are the f-values
    by_genus, below, at, shared = Counter(), 0, 0, 0
    for bitmap, g, _r in tree._nodes(11):
        extended, eff, kids = _siblings(Semigroup._from_bitmap(bitmap, g))
        if not eff:
            continue
        want = sum(count_closed_sets(kid, g + 2) for kid in kids)
        assert exposed_kernel.closed_siblings(extended, eff, g + 1) == want, (bitmap, g)
        assert {kid.nth_member(g + 1) for kid in kids} == {2 * g + 2}
        below += (eff & ((1 << (2 * g + 1)) - 1)).bit_count()
        at += eff >> (2 * g + 1) & 1
        shared += len(kids) > 1
        by_genus[g + 1] += want
    assert [by_genus[w] for w in range(1, 13)] == F_SEQUENCE[1:13]
    assert below and at and shared


@pytest.mark.parametrize("g", [28, 29, 30])
def test_compiled_sibling_count_matches_python_in_the_top_bits(exposed_kernel, g):
    # the parent with gaps 2 and the odd numbers below 2g - 2 has the
    # effective generators 2g - 1 and 2g + 1: the second child reuses the
    # parent's counts of the maxima to 2g - 1 that the first one made and
    # adds 2g and 2g + 1, the largest maximum a parent of genus g shares;
    # at g = 30 the extended window [0, 2g + 3] reaches bit 63, and one
    # maximum has 31 free gaps below it
    parent = Semigroup.from_gaps([1, 2, *range(3, 2 * g - 2, 2)])
    extended, eff, kids = _siblings(parent)
    assert parent.genus == g and eff == (1 << (2 * g - 1)) | (1 << (2 * g + 1))
    want = sum(count_closed_sets(kid, g + 2) for kid in kids)
    assert exposed_kernel.closed_siblings(extended, eff, g + 1) == want
    assert extended >> 63 == (g == 30)


def test_compiled_f_value_matches_python_per_task(compiled_kernel, monkeypatch):
    # task by task, the ordinary root of genus w - 1 too, so that errors in
    # two tasks cannot cancel in the sum
    for w in range(1, 13):
        for i in range((w - 1) * (w - 2) // 2 + 1):
            compiled, python = _per_task("f_value", i, w)
            assert compiled == python, (w, i)
    # each genus-w semigroup is counted where a walk makes it: no listing
    monkeypatch.setattr(tree, "_nodes", lambda g_max: pytest.fail(f"f_value listed genus {g_max}"))
    for kernel in (compiled_kernel, False):
        monkeypatch.setattr(tree, "_kernel", kernel)
        assert [f_value(w, workers=workers) for workers in (1, 2) for w in range(12)] == F_SEQUENCE[:12] * 2


def test_compiled_f_value_matches_the_published_sequence(compiled_kernel, monkeypatch):
    # at 1, 2 and 3 workers, threads sharing a sibling-counting walk's
    # tasks from omega 10; the Python engine, forked from omega 9, to 12
    for workers in (1, 2, 3):
        assert [f_value(w, workers=workers) for w in range(len(F_SEQUENCE))] == F_SEQUENCE, workers
    monkeypatch.setattr(tree, "_kernel", False)
    for workers in (1, 2, 3):
        assert [f_value(w, workers=workers) for w in range(13)] == F_SEQUENCE[:13], workers


def test_compiled_kernel_counts_closed_sets_to_genus_31(compiled_kernel, monkeypatch):
    # f_value(w) shares the (w - 1)(w - 2)/2 tasks of count_matrix(w - 1)
    # and its ordinary semigroup, one task more, on the f-value floors;
    # both walks take their indices; here no worker counts anything
    routes = _routes(monkeypatch)
    assert f_value(31) == f_value(32) == 0
    monkeypatch.setattr(tree, "_kernel", False)
    assert f_value(31) == 0
    assert routes == [
        ("f_value", range(30 * 29 // 2 + 1), 31),
        (closedsets._f_into, range(31 * 30 // 2 + 1), 32), (closedsets._f_into, range(30 * 29 // 2 + 1), 31),
    ]


def test_f_value_at_genus_0_walks_nothing(monkeypatch):
    # the one semigroup of genus 0 has the one closed set {0}, and there is
    # no table to genus -1 to walk, in either engine
    routes = _routes(monkeypatch)
    for kernel in filter(None, (tree._compiled_kernel(), False)):
        monkeypatch.setattr(tree, "_kernel", kernel)
        assert [f_value(0, workers=workers) for workers in (0, 1, 2)] == [1, 1, 1]
    assert routes == []


def test_compiled_f_value_never_forks_and_threads_from_omega_10(compiled_kernel, fork_calls, thread_calls):
    # threads share the (w - 1)(w - 2)/2 + 1 tasks of a compiled f-value
    # from the f-value floor, omega 10 (37 tasks) and up
    assert 8 * 7 // 2 + 1 < tree._F_MIN_TASKS[1] <= 9 * 8 // 2 + 1
    assert [f_value(w, workers=2) for w in range(10)] == F_SEQUENCE[:10]
    assert thread_calls == []
    for workers in (1, 2, 3):
        assert [f_value(w, workers=workers) for w in (10, 14)] == [F_SEQUENCE[10], F_SEQUENCE[14]], workers
    assert f_value(15, workers=2) == f_value(15, workers=3) == f_value(15, workers=1)
    assert thread_calls == [((w - 1) * (w - 2) // 2 + 1, workers) for workers in (2, 3) for w in (10, 14)] + [
        (14 * 13 // 2 + 1, workers) for workers in (2, 3)
    ]
    assert fork_calls == []


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


def _kernel_level(kernel, bitmaps, effs, g, cap, room) -> tuple[int, list[list[int]]]:
    """``semiforge_tg_level`` on one level, with cap + 2 slots a buffer
    preset to 7: its return code and the three buffers (children, their
    effs, parents)."""
    words = [array("Q", bitmaps), array("Q", effs)]
    out = array("Q", [7]) * (cap + 2), array("Q", [7]) * (cap + 2), array("i", [7]) * (cap + 2)
    code = kernel.semiforge_tg_level(*map(tree._address, words), len(bitmaps), g, *map(tree._address, out), cap, room)
    return code, [list(buffer) for buffer in out]


def test_compiled_tg_level_writes_cap_children_and_counts_to_room(compiled_kernel):
    # every level of the genus at the cutoff, the first ones larger than
    # their parents: the full count whatever the cap, exactly the first
    # cap children written, and -1 once the count passes room
    g = tree._COMPILED_TG_MIN_GENUS
    for _parents, bitmaps, effs in tree._tg_levels(g):
        bitmaps, effs = list(bitmaps), list(effs)
        parents, children, child_effs = tree._tg_level(bitmaps, effs, g, math.inf)
        total = len(children)
        for cap in sorted({0, 1, len(bitmaps), total - 1, total} & set(range(total + 1))):
            code, out = _kernel_level(compiled_kernel, bitmaps, effs, g, cap, total)
            assert code == total, (g, cap)
            assert out == [want[:cap] + [7, 7] for want in (children, child_effs, parents)], (g, cap)
            assert _kernel_level(compiled_kernel, bitmaps, effs, g, cap, total - 1)[0] == (-1 if total else 0)


def test_compiled_tg_level_equals_python_and_keeps_no_slack(compiled_kernel):
    # every level of genus 13 to 24, and the first two at genus 31, whose
    # first holds 360 children of one parent: past the guess of one child
    # a parent, which the levels growing from the root all pass.  Each
    # level handed out is an array of exactly its children
    genera = range(tree._COMPILED_TG_MIN_GENUS, 25)
    grown = 0
    for g, depth in [*((g, None) for g in genera), (31, 2)]:
        for _parents, bitmaps, effs in itertools.islice(tree._tg_levels(g), depth):
            compiled = tree._tg_level_compiled(bitmaps, effs, g, math.inf)
            assert [list(x) for x in compiled] == list(tree._tg_level(list(bitmaps), list(effs), g, math.inf)), g
            grown += len(compiled[1]) > len(bitmaps)
            for buffer in compiled:
                assert sys.getsizeof(buffer) == sys.getsizeof(array(buffer.typecode)) + buffer.itemsize * len(buffer)
    rows = [[c for c in COUNTS_BY_GENUS[g] if c] for g in genera]
    assert grown == sum(b > a for row in rows for a, b in zip(row, row[1:])) + 2


def test_compiled_trees_check_passes_to_genus_21_without_the_python_loop(compiled_kernel, monkeypatch):
    # one sweep a genus from 0 on, handed the size of its genus and
    # returning the children in T of its genus (0 at g_max, which is not
    # expanded); no level reaches Python
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", 0)

    def python_loop(*args):
        raise AssertionError("the Python loop of verify_tree_relations ran")

    monkeypatch.setattr(analytics, "_Counterexamples", python_loop)
    monkeypatch.setattr(tree, "_tg_levels", python_loop)
    calls = []
    sweep = compiled_kernel.semiforge_tg_sweep

    def spy(g, expand, size):
        code = sweep(g, expand, size)
        calls.append((g, expand, size, code))
        return code

    monkeypatch.setattr(compiled_kernel, "semiforge_tg_sweep", spy)
    for g_max in range(22):
        calls.clear()
        assert verify_tree_relations(g_max) == VerificationReport("trees", f"genus <= {g_max}", True)
        assert calls == [
            (g, g < g_max, sum(COUNTS_BY_GENUS[g]), sum(COUNTS_BY_GENUS[g + 1]) if g < g_max else 0)
            for g in range(g_max + 1)
        ]
    # a walk larger or smaller than the size it is handed fails
    for g in (0, 8, tree._COMPILED_TG_MIN_GENUS):
        size = sum(COUNTS_BY_GENUS[g])
        assert [sweep(g, True, n) for n in (size - 1, size + 1)] == [-1, -1], g


def _wrong_eff(wrong: str) -> str:
    """C that gives the first child whose eff ``e`` the expression
    ``wrong`` changes the eff ``wrong`` in place of ``e``."""
    return (
        "for (int j = 0; j < count && j < cap; j++) {\n"
        f"            uint64_t e = child_effs[j];\n"
        f"            if ({wrong} != e) {{ child_effs[j] = {wrong}; break; }}\n"
        "        }"
    )


# Faults planted at the end of semiforge_tg_level, on the level below the
# ordinary root of genus `planted_genus`, whose children it has counted
# and, within `cap`, written: each fault edits the same children as the
# Python edit of its name would, so that the compiled sweep and the Python
# loop, which walks its levels by the same function, both see it.  With the
# g_max, as an offset from that genus, from which the trees check must fail.
_WALK_FAULTS = {
    "dropped child": ("count--;", 0),
    "repeated child": (
        """if (count == room) return -1;
        if (count < cap)
            children[count] = children[count - 1], child_effs[count] = child_effs[count - 1], parents[count] = 0;
        count++;""",
        0,
    ),
    # the last child becomes the first grandchild, with its own eff
    "misplaced child": (
        """uint64_t kid, kid_eff;
        int up, all = 0x7fffffff;
        if (count <= cap && semiforge_tg_level(children, child_effs, count, genus, &kid, &kid_eff, &up, 1, all) > 0)
            children[count - 1] = kid, child_effs[count - 1] = kid_eff;""",
        0,
    ),
    # the first eff that the edit changes
    "eff bit cleared": (_wrong_eff("(e & (e - 1))"), 1),
    "eff bit set": (_wrong_eff("(e | (uint64_t)1 << (2 * genus + 1))"), 1),
    # as many children in T, one of them no semigroup: the eff check at
    # genus g sees it
    "eff bit moved": (_wrong_eff("(e ? (e & (e - 1)) | (uint64_t)1 << (2 * genus + 1) : e)"), 1),
    # the root's first child, a leaf, becomes a non-semigroup without
    # children, the root plus 1 less 2g + 1: g gaps, the root as its
    # transform, depth 1 and the first key, so only the closure check sees it
    "non-semigroup child": ("if (cap) children[0] = (bitmaps[0] ^ (uint64_t)1 << (2 * genus + 1)) | 2;", 0),
    # the root's second child, a leaf as the first is, becomes a copy of
    # the first: only the sibling order sees it
    "copied sibling": ("if (cap >= 2) children[1] = children[0], child_effs[1] = child_effs[0];", 0),
    # the last child gains the word's top bit, past the window below genus
    # 31: a check masked to the window would pass it
    "child past the word": ("if (count <= cap) children[count - 1] |= (uint64_t)1 << 63;", 0),
}


def _planted(fault: str) -> list[tuple[str, str]]:
    """The edits of ``_kernel.c`` that plant ``fault``."""
    root = "window(genus) & ~(((uint64_t)2 << genus) - 2)"
    return [
        ("int semiforge_tg_level(", "int planted_genus = -1;\nint semiforge_tg_level("),
        (
            "    return count;\n}\n\n/* semiforge.semigroup._ordinarize_bitmap",
            f"    if (genus == planted_genus && n == 1 && bitmaps[0] == ({root}) && count) {{\n"
            f"        {_WALK_FAULTS[fault][0]}\n    }}\n"
            "    return count;\n}\n\n/* semiforge.semigroup._ordinarize_bitmap",
        ),
    ]


@pytest.fixture(scope="module")
def planted_kernels(tmp_path_factory):
    """The kernel with a fault of ``_WALK_FAULTS`` planted, by name, each
    built once a module; the test is skipped where no kernel loads."""
    if tree._compiled_kernel() is None:
        pytest.skip("no compiled count kernel")
    built = {}

    def kernel(fault):
        if fault not in built:
            built[fault] = scratch_kernel(tmp_path_factory.mktemp("fault"), *_planted(fault))
        return built[fault]

    return kernel


@pytest.mark.parametrize("fault", _WALK_FAULTS)
@pytest.mark.parametrize("at", ["genus 8", "the cutoff"])
def test_compiled_trees_check_fails_under_each_walk_fault(fault, at, planted_kernels, monkeypatch):
    # the compiled decision fails, and the Python loop, which writes the
    # report, fails too on the same walk; the same kernel with the fault
    # planted at no genus passes
    g = 8 if at == "genus 8" else tree._COMPILED_TG_MIN_GENUS
    g_max = g + _WALK_FAULTS[fault][1]
    kernel = planted_kernels(fault)
    monkeypatch.setattr(tree, "_kernel", kernel)
    monkeypatch.setattr(tree, "_COMPILED_TG_MIN_GENUS", min(g, tree._COMPILED_TG_MIN_GENUS))
    planted = ctypes.c_int.in_dll(kernel, "planted_genus")
    assert tree._tg_plan(g) is tree._tg_level_compiled
    planted.value = -1
    assert analytics._trees_hold(g_max) is True
    planted.value = g
    assert analytics._trees_hold(g_max) is False
    report = verify_tree_relations(g_max)
    assert report.passed is False and report.counterexample


def test_a_sweep_out_of_memory_is_no_failed_check(compiled_kernel, tmp_path, capsys, monkeypatch):
    # a sweep that cannot allocate its levels raises MemoryError, and the
    # CLI exits 2 with one line, without the Python loop that a failed
    # check would run
    kernel = scratch_kernel(tmp_path, ("malloc(s * (4 * sizeof(uint64_t) + sizeof(int)))", "NULL"))
    assert kernel.semiforge_tg_sweep(0, True, 1) == -2
    monkeypatch.setattr(tree, "_kernel", kernel)

    def python_loop(*args):
        raise AssertionError("the Python loop of verify_tree_relations ran")

    monkeypatch.setattr(tree, "_tg_levels", python_loop)
    g_max = tree._COMPILED_TG_MIN_GENUS
    with pytest.raises(MemoryError, match="could not allocate the levels of genus 0"):
        verify_tree_relations(g_max)
    assert cli.run(["verify", "--check", "trees", "--gmax", str(g_max)]) == 2
    assert capsys.readouterr() == ("", "the compiled trees check could not allocate the levels of genus 0\n")


def _check_level(kernel, parents, children, effs, up, g, depth, expand=True) -> int:
    """``semiforge_tg_check`` on one hand-built level: the number of
    children in T it checked, or -1."""

    def words(values, ctype=ctypes.c_uint64):
        return (ctype * len(values))(*values)

    c_int, address = ctypes.c_int, ctypes.c_void_p  # the library calls it only from semiforge_tg_sweep
    kernel.semiforge_tg_check.argtypes = [address, address, address, c_int, address, c_int, c_int, c_int, c_int]
    kernel.semiforge_tg_check.restype = c_int
    return kernel.semiforge_tg_check(
        words(parents, ctypes.c_int), words(children), words(effs), len(children), words(up), len(up), g, depth, expand
    )


def test_compiled_trees_check_sees_what_the_python_checks_see(compiled_kernel):
    # one node of genus g <= 8 a level, under its true parent or as its own
    # (a root), with its effective generators or one bit of the next
    # window flipped: the kernel fails exactly where the Python edge check
    # or _expand_checked reports a failure or raises, or where the eff is
    # not the node's, and else counts the children in T that Python expands
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
                code = _check_level(compiled_kernel, [0], [bitmap], [eff ^ flip], [up], g, r)
                assert code == (-1 if verdict or flip else len(nxt)), (bitmap, g, up, flip, verdict)
    # each Python failure, and a pass, is met
    assert set(seen) >= {
        None,
        "edge child does not transform to parent",
        "transform left the ancestor line",
        "siblings transform to different parents",
    }, seen


def test_compiled_lemma_checks_fail_on_a_wrong_eff(compiled_kernel, tmp_path):
    # with the eff check taken out of a scratch copy, a flipped bit of the
    # eff of a genus-8 node, at its place in its level, reaches the ancestor
    # line and the sibling lemma, each returning a code of its own: the
    # kernel fails exactly where _expand_checked reports a failure, and each
    # of the two checks fails somewhere
    ancestor_line = "            if (((child_t | child_frob) & mask) != t)\n                return -"
    siblings = "                else if (child_t != first)\n                    return -"
    kernel = scratch_kernel(
        tmp_path,
        ("        if (effs[i] != (nonzero & ~sums & mask & -((uint64_t)2 << frob)))\n            return -1;\n", ""),
        (ancestor_line + "1;", ancestor_line + "3;"),
        (siblings + "1;", siblings + "4;"),
    )
    codes = Counter()
    g = 8
    prev = ()
    for depth, level in enumerate(tree._tg_levels(g)):
        parents, children, effs = map(list, level)
        up = prev or children
        for i, (child, eff) in enumerate(zip(children, effs)):
            for flip in (1 << x for x in range(2 * g + 4)):
                bad, nxt = analytics._Counterexamples(), set()
                analytics._expand_checked(child, g, eff ^ flip, up[parents[i]], nxt, bad)
                wrong = effs[:i] + [eff ^ flip] + effs[i + 1 :]
                code = _check_level(kernel, parents, children, wrong, up, g, depth)
                assert (code < 0) == (bad.best is not None), (child, flip)
                codes[code if code < 0 else "pass"] += 1
        prev = children
    assert codes[-3] and codes[-4] and set(codes) == {-3, -4, "pass"}, codes


def test_compiled_trees_check_refuses_repeats_and_wrong_depths(compiled_kernel):
    # faults that only a broken walk makes, each seen by one check: a node
    # repeated four times (buffers past ctypes' 16 inline bytes, so that
    # ASan watches them), twice, or around a node of a later parent, and
    # the root twice; a node one level too deep; and a non-semigroup with
    # 4 of the members <= 4, deeper than any genus-4 node can be (the
    # Python loop raises on it)
    node, g, r = next(node for node in tree._nodes(8) if node[1:] == (8, 1) and tree._effective_generators(node[0], 8))
    up, eff = [_ordinarize_bitmap(node, g)], tree._effective_generators(node, g)
    assert _check_level(compiled_kernel, [0], [node], [eff], up, g, r) == eff.bit_count()
    assert _check_level(compiled_kernel, [0] * 4, [node] * 4, [eff] * 4, up, g, r) == -1
    assert _check_level(compiled_kernel, [0, 0], [node, node], [eff, eff], up, g, r) == -1
    assert _check_level(compiled_kernel, [0], [node], [eff], up, g, r + 1) == -1
    deep = 0b1000011111  # gaps 5 to 8
    assert _check_level(compiled_kernel, [0], [deep], [0], [_ordinarize_bitmap(deep, 4)], 4, 4) == -1
    # the root twice at depth 0, each its own parent
    root = Semigroup.ordinary(g).bitmap
    root_eff = tree._effective_generators(root, g)
    assert _check_level(compiled_kernel, [0], [root], [root_eff], [root], g, 0) == g + 1
    assert _check_level(compiled_kernel, [0, 1], [root] * 2, [root_eff] * 2, [root] * 2, g, 0) == -1
    # the first and the last (parent, child, eff) at depth 2, then the first again
    (_, up, _), level = itertools.islice(tree._tg_levels(g), 1, 3)
    nodes = [[list(x)[i] for x in level] for i in (0, -1, 0)]
    assert nodes[0][0] < nodes[1][0]
    assert _check_level(compiled_kernel, *zip(*nodes[:2]), up, g, 2) == sum(eff.bit_count() for *_, eff in nodes[:2])
    assert _check_level(compiled_kernel, *zip(*nodes), up, g, 2) == -1


def test_compiled_trees_check_expands_genus_30_into_bit_63(compiled_kernel):
    # the genus-30 nodes at depth 1 expand into genus 31, whose window is
    # the whole word; the genus-31 nodes at depth 1 are checked there
    for g in (30, 31):
        levels = [tuple(map(list, level)) for level in itertools.islice(tree._tg_levels(g), 2)]
        (_, (root,), _), (parents, children, effs) = levels
        code = _check_level(compiled_kernel, parents, children, effs, [root], g, 1, expand=g < 31)
        if g == 30:
            want, bad = set(), analytics._Counterexamples()
            for child, eff in zip(children, effs):
                analytics._expand_checked(child, g, eff, root, want, bad)
            assert bad.best is None and code == len(want)
            assert all(child >> 63 for child in want)
        else:
            assert code == 0
        # a node with its top member dropped is no semigroup of genus g
        broken = [children[0] ^ 1 << (2 * g + 1)] + children[1:]
        assert _check_level(compiled_kernel, parents, broken, effs, [root], g, 1, expand=g < 31) == -1


def test_compiled_trees_check_orders_siblings_and_sums_at_genus_31(compiled_kernel):
    # the 360 nodes at depth 1 of genus 31, whose window [0, 63] is the
    # whole word, under the ordinary root in increasing (multiplicity,
    # Frobenius number): out of that order, with a sibling replaced by a
    # copy of its neighbour, or with bit 0 or 63 of a node flipped, the
    # level fails
    (_, (root,), _), (_, level, _) = (tuple(map(list, level)) for level in itertools.islice(tree._tg_levels(31), 2))

    def check(nodes):
        return _check_level(compiled_kernel, [0] * len(nodes), nodes, [0] * len(nodes), [root], 31, 1, expand=False)

    assert check(level) == 0
    assert check(level[::-1]) == -1
    assert check(level[:1] + level[2:3] + level[1:2] + level[3:]) == -1
    assert check(level[:100] + level[99:100] + level[101:]) == -1
    for bit in (0, 63):
        assert check(level[:100] + [level[100] ^ 1 << bit] + level[101:]) == -1, bit
    # the root plus one b in [16, 31] less 63, put where its key (b, 63)
    # sorts: g gaps, the root as its transform and depth 1, but
    # b + (63 - b) = 63 is no member, the one sum that misses, which only
    # a sum set that keeps bit 63 sees
    multiplicities = [(node & -2 & -(node & -2)).bit_length() - 1 for node in level]
    assert sorted(set(multiplicities)) == [*range(16, 32)]
    for b in range(16, 32):
        node, at = root ^ 1 << 63 | 1 << b, multiplicities.index(b) + multiplicities.count(b)
        assert _ordinarize_bitmap(node, 31) == root
        assert check(level[:at] + [node] + level[at:]) == -1, b


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


def test_compiled_tree_command_refuses_at_the_node_cap(compiled_kernel, tmp_path, capsys, monkeypatch):
    # `tree --node-cap`, the cap crossed in levels that pass the guess of
    # one child a parent and in levels that do not: the same exit code and
    # message as the Python walk, and no file
    g = tree._COMPILED_TG_MIN_GENUS
    ends = list(itertools.accumulate(tg_bfs_row(g)))
    dot = tmp_path / "t.dot"

    def outcomes():
        out = []
        for cap in sorted({1, 2} | {end + d for end in ends for d in (-1, 0)}):
            code = cli.run(["tree", "--genus", str(g), "--dot", str(dot), "--node-cap", str(cap)])
            out.append((cap, code, capsys.readouterr().err, dot.exists()))
            dot.unlink(missing_ok=True)
        return out

    compiled = outcomes()
    *refusals, last = compiled
    assert refusals == [(cap, 4, f"fixed-genus tree for g={g} exceeds {cap} nodes\n", False) for cap, *_ in refusals]
    assert last == (ends[-1], 0, f"wrote {dot}\n", True)
    monkeypatch.setattr(tree, "_kernel", False)
    assert outcomes() == compiled


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
