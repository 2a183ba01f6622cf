"""Both trees: child generation, exact counts, and the DOT export."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from semiforge import (
    CountMatrix,
    Semigroup,
    TooLarge,
    children_in_Tg,
    count_matrix,
    enumerate_genus,
    export_tree_dot,
    f_value,
    max_ordinarization_attainer,
    n_g1_formula,
    tg_bfs_row,
    tree,
)
from semiforge.cli import run
from semiforge.semigroup import _ordinarize_bitmap, _sum_bitmap
from conftest import children_in_T, scratch_entry, scratch_kernel
from reference_tables import COUNTS_BY_GENUS, F_SEQUENCE, FIG6_EDGES, FIG6_NODES_BY_DEPTH


def node(s):
    """``s`` as a walk's node: (bitmap, genus, depth)."""
    return s.bitmap, s.genus, s.ordinarization_number()


def test_children_in_T_of_root():
    kids = children_in_T(Semigroup.from_gaps([]))
    assert [k.gaps() for k in kids] == [(1,)]


def test_children_in_T_of_ordinary_1():
    kids = children_in_T(Semigroup.ordinary(1))
    assert [k.gaps() for k in kids] == [(1, 2), (1, 3)]


def test_children_in_T_genus_and_parent():
    for g in range(8):
        count = 0

        def check(s):
            nonlocal count
            for child in children_in_T(s):
                count += 1
                assert child.genus == s.genus + 1
                # adjoining the Frobenius number recovers the parent
                back = sorted(set(child.gaps()) - {child.frobenius})
                assert Semigroup.from_gaps(back) == s

        enumerate_genus(g, check)
        assert count == sum(COUNTS_BY_GENUS[g + 1])


def test_enumerate_genus_counts():
    assert enumerate_genus(0) == 1
    assert enumerate_genus(6) == 23
    assert enumerate_genus(10) == 204


def test_enumerate_genus_visits_each_once():
    seen = []
    total = enumerate_genus(7, seen.append)
    assert total == len(seen) == 39
    assert len(set(seen)) == 39
    assert all(s.genus == 7 for s in seen)


def test_children_in_Tg_fig_tree_root():
    kids = children_in_Tg(Semigroup.ordinary(6))
    assert sorted(k.gap_string() for k in kids) == sorted(FIG6_NODES_BY_DEPTH[1])


def test_children_in_Tg_fig_tree_interior():
    node = Semigroup.from_gap_string("1,2,3,4,5,7")
    expected = {c for p, c in FIG6_EDGES if p == "1,2,3,4,5,7"}
    assert {k.gap_string() for k in children_in_Tg(node)} == expected


def test_children_in_Tg_leaf():
    assert children_in_Tg(max_ordinarization_attainer(6)) == []


def test_children_in_Tg_order_and_parenthood(semigroups_by_genus):
    for g, group in semigroups_by_genus.items():
        for s in group:
            kids = children_in_Tg(s)
            assert all(k.genus == g for k in kids)
            assert all(k.ordinarize() == s for k in kids)
            # the added member is the child's multiplicity, the removed
            # generator its Frobenius number; output is ordered by that pair
            keys = [(k.multiplicity, k.frobenius) for k in kids]
            assert keys == sorted(keys)


def test_dual_method_agreement_small():
    # the enumeration grouped by depth and the breadth-first walk of the
    # fixed-genus tree are independent routes to the same row
    matrix = count_matrix(12)
    for g in range(13):
        row = list(matrix.row(g))
        assert row == COUNTS_BY_GENUS[g]
        bfs = tg_bfs_row(g)
        assert bfs + [0] * (len(row) - len(bfs)) == row
    assert matrix.row(6) == (1, 12, 9, 1)
    assert matrix.row(11) == (1, 45, 196, 97, 3, 1)


def test_count_matrix_matches_reference_to_16():
    matrix = count_matrix(16)
    for g in range(17):
        assert list(matrix.row(g)) == COUNTS_BY_GENUS[g], f"genus {g}"


def test_count_matrix_workers_deterministic(fork_calls, python_kernel):
    # one task per non-ordinary child of the ordinary semigroups of genus
    # 0..g-1, so g = 21 is the first table with enough tasks to fork
    assert sum(range(20)) < tree._FORK_MIN_TASKS <= sum(range(21))
    assert count_matrix(21, workers=2) == count_matrix(21, workers=1)
    assert fork_calls == [(sum(range(21)), 2)]
    assert count_matrix(20, workers=3) == count_matrix(20, workers=1)
    assert len(fork_calls) == 1  # below the crossover genus the count stays serial


def test_count_matrix_workers_match_serial_across_crossover(fork_calls, python_kernel):
    want = count_matrix(22, workers=1).rows
    for workers in (2, 3):
        for g in range(23):
            assert count_matrix(g, workers=workers).rows == want[: g + 1], (g, workers)
    assert fork_calls == [(sum(range(g)), workers) for workers in (2, 3) for g in (21, 22)]


def test_negative_workers_rejected(monkeypatch):
    for kernel in (None, False):  # the compiled kernel where it loads, then Python
        monkeypatch.setattr(tree, "_kernel", kernel)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            count_matrix(5, workers=-1)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            f_value(3, workers=-1)


def test_serial_runs_never_import_multiprocessing():
    # runs below the fork floor stay in process, and the Python walks fork
    # by os.fork, so the module is never loaded; a fresh interpreter, since
    # pytest may load it itself
    code = (
        "import sys, semiforge\n"
        "from semiforge import cli, tree\n"
        "semiforge.count_matrix(20, workers=2)\n"
        "semiforge.f_value(9, workers=2)\n"
        "tree._kernel = False\n"
        "tree._fork_map = lambda *args, fork_map=tree._fork_map: print('forked') or fork_map(*args)\n"
        "print(semiforge.count_matrix(21, workers=2).row(21), semiforge.f_value(10, workers=2))\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == f"forked\nforked\n{tuple(COUNTS_BY_GENUS[21])} {F_SEQUENCE[10]}\nFalse\n"


def test_fork_map_more_workers_than_chunks(forks):
    # the two non-ordinary children of {0, 3, 4, 5, ...}, tasks 1 and 2:
    # remove 4 or 5; one child takes the second, where two CPUs are usable
    _ordinary, *kids = children_in_T(Semigroup.ordinary(2))
    tasks, arg = range(1, 3), (tree._count_into, 12, 13 * 7)
    assert [kid.gaps() for kid in kids] == [(1, 2, 4), (1, 2, 5)]
    assert [tree._task(i, 12)[:3] for i in tasks] == [node(kid) for kid in kids]
    parts = tree._fork_map(tree._walk_python, tasks, arg, workers=5)
    assert len(parts) == min(2, len(tree._usable_cpus())) == len(forks[0]) + 1
    assert [sum(cells) for cells in zip(*parts)] == tree._walk_python((tasks, arg))


def test_pools_start_no_more_workers_than_usable_cpus(forks, fork_calls, python_kernel):
    # whatever the request, a call forks one child per usable CPU besides
    # its own (``forks`` fails the test before one more would start)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    want = tuple(tuple(COUNTS_BY_GENUS[g]) for g in range(22))
    assert count_matrix(21, workers=1000).rows == count_matrix(21, workers=0).rows == want
    assert f_value(11, workers=5000) == F_SEQUENCE[11]
    assert forks and all(len(pids) == cpus - 1 for pids in forks)
    # workers = 0 asks for one per usable CPU, and one CPU counts serially
    assert [workers for _tasks, workers in fork_calls] == [1000] + ([cpus] if cpus > 1 else []) + [5000]


def test_compiled_histograms_match_at_1_2_3_workers(compiled_kernel, thread_calls):
    # either side of the thread floor (genus 20 and 21), and at 27 and 30
    for g in (20, 21, 27, 30):
        want = tree._histogram(g, workers=1)
        for workers in (2, 3):
            assert tree._histogram(g, workers=workers) == want, (g, workers)
    assert thread_calls == [(sum(range(g)), workers) for g in (21, 27, 30) for workers in (2, 3)]


def _needs_two_cpus() -> None:
    if not hasattr(os, "sched_getaffinity") or len(tree._usable_cpus()) < 2:
        pytest.skip("one usable CPU: no thread shares the tasks")


@pytest.fixture
def kernel_failing_in_threads(compiled_kernel, tmp_path, monkeypatch) -> list[int]:
    """The compiled kernel, but semiforge_count fails outside the main
    thread, out of memory: there it runs a build in which no malloc
    succeeds.  The main thread's call waits for that failure; the list
    records the nodes that each of its calls counted."""
    _needs_two_cpus()
    failing = scratch_kernel(tmp_path, ("#include <stdlib.h>\n", "#include <stdlib.h>\n#define malloc(size) NULL\n"))
    failed, counted = threading.Event(), []

    def semiforge_count(g_max, next_task, end, tally):
        if threading.current_thread() is not threading.main_thread():
            code = failing.semiforge_count(g_max, next_task, end, tally)
            failed.set()
            return code
        assert failed.wait(60), "no thread failed"
        failed.clear()
        code = compiled_kernel.semiforge_count(g_max, next_task, end, tally)
        counted.append(sum(tally))
        return code

    monkeypatch.setattr(tree, "_kernel", SimpleNamespace(semiforge_count=semiforge_count))
    return counted


def test_a_kernel_failure_in_a_thread_fails_the_call_and_stops_every_thread(kernel_failing_in_threads, capsys):
    baseline, cpus = threading.active_count(), os.sched_getaffinity(0)
    with pytest.raises(MemoryError, match="could not allocate"):
        count_matrix(27, workers=2)
    # the failing call stores the end of the tasks as the next claim, so
    # the caller's call, which starts after it, stops at its first claim
    assert kernel_failing_in_threads == [0]
    assert threading.active_count() == baseline and os.sched_getaffinity(0) == cpus
    assert run(["table", "--gmax", "27", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "the compiled count kernel could not allocate its stack and tally\n"
    assert kernel_failing_in_threads == [0, 0]
    assert threading.active_count() == baseline and os.sched_getaffinity(0) == cpus


def test_back_to_back_forks_never_warn(forks, python_kernel):
    # Python 3.12 and later warn on a fork while the process has another
    # thread, as a multiprocessing pool's helpers could leave behind
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for _ in range(20):
            assert count_matrix(22, workers=2).row(22) == tuple(COUNTS_BY_GENUS[22])
    assert [w for w in seen if issubclass(w.category, DeprecationWarning) and "fork" in str(w.message)] == []
    assert len(forks) == 20


def _reaped(pid: int) -> bool:
    """Whether the child ``pid`` of this process has been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def doctored_walk(python_kernel, monkeypatch):
    """Makes ``_count_into`` call ``child`` first in a forked child and
    ``caller`` first in this process, each a function of no argument."""
    _needs_two_cpus()
    pid, count_into = os.getpid(), tree._count_into

    def doctor(child=lambda: None, caller=lambda: None):
        def doctored(*args):
            (caller if os.getpid() == pid else child)()
            return count_into(*args)

        monkeypatch.setattr(tree, "_count_into", doctored)

    return doctor


def _fail(message: str):
    def fail():
        raise MemoryError(message)

    return fail


def test_an_error_in_a_forked_child_fails_the_call(doctored_walk, forks, capsys):
    cpus = os.sched_getaffinity(0)
    doctored_walk(child=_fail("out of memory in a child"))
    with pytest.raises(MemoryError, match="in a child"):
        count_matrix(22, workers=2)
    assert run(["table", "--gmax", "22", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "out of memory in a child\n"
    assert [len(pids) for pids in forks] == [1, 1] and all(_reaped(pid) for pids in forks for pid in pids)
    assert os.sched_getaffinity(0) == cpus


def test_a_failing_caller_kills_its_forked_children(doctored_walk, forks):
    cpus = os.sched_getaffinity(0)
    # the child sleeps, then leaves unheard: a caller that waited for it would take 20 s
    doctored_walk(child=lambda: time.sleep(20) or os._exit(0), caller=_fail("out of memory in the caller"))
    started = time.perf_counter()
    with pytest.raises(MemoryError, match="in the caller"):
        count_matrix(22, workers=2)
    assert time.perf_counter() - started < 10
    assert [len(pids) for pids in forks] == [1] and _reaped(forks[0][0])
    assert os.sched_getaffinity(0) == cpus


def test_a_child_killed_by_a_signal_fails_the_call_instead_of_hanging():
    # a multiprocessing pool would wait for the killed worker for ever, so
    # the table is counted in a fresh interpreter under a timeout
    _needs_two_cpus()
    code = textwrap.dedent(
        """
        import os, signal
        from semiforge import cli, tree

        tree._kernel = False
        caller, cpus, count_into = os.getpid(), os.sched_getaffinity(0), tree._count_into

        def doctored(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return count_into(*args)

        tree._count_into = doctored
        print(cli.run(["table", "--gmax", "22", "--workers", "2"]))
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("every child reaped")
        print(os.sched_getaffinity(0) == cpus)
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "2\nevery child reaped\nTrue\n"
    assert proc.stderr == "a forked worker was killed by SIGKILL\n"


def test_threads_leave_the_callers_cpus_as_they_were(compiled_kernel):
    _needs_two_cpus()
    cpus = os.sched_getaffinity(0)
    assert count_matrix(27, workers=2).rows == count_matrix(27, workers=1).rows
    assert f_value(13, workers=2) == F_SEQUENCE[13]
    assert os.sched_getaffinity(0) == cpus


def test_one_worker_and_work_below_the_floor_start_no_thread(compiled_kernel, threads_made, capsys):
    assert run(["table", "--gmax", "27", "--workers", "1"]) == 0
    assert run(["fseq", "--omega-max", "13", "--workers", "1"]) == 0
    # 190 tasks, the histogram's too, and the 29 of f_value(9)
    assert 8 * 7 // 2 + 1 < tree._F_MIN_TASKS[1]
    assert count_matrix(20, workers=3).rows == tuple(tuple(COUNTS_BY_GENUS[g]) for g in range(21))
    assert [sum(cells) for cells in tree._histogram(20, workers=3)[20]] == COUNTS_BY_GENUS[20]
    assert f_value(9, workers=3) == F_SEQUENCE[9]
    assert run(["table", "--gmax", "11", "--workers", "0"]) == 0
    assert run(["fseq", "--omega-max", "9", "--workers", "0"]) == 0
    assert threads_made == []


def test_threads_never_outnumber_the_usable_cpus(compiled_kernel, threads_made):
    # a task claimed twice or by no thread would change the result; a
    # switch interval of a microsecond lets the threads take turns between
    # almost any two bytecodes
    cpus = len(tree._usable_cpus())
    calls = [
        lambda workers: count_matrix(27, workers=workers).rows,
        lambda workers: tree._histogram(27, workers=workers),
        lambda workers: f_value(13, workers=workers),
    ]
    interval = sys.getswitchinterval()
    try:
        for call in calls:
            want = call(1)
            sys.setswitchinterval(1e-6)
            made = len(threads_made)
            assert call(10**6) == want
            assert len(threads_made) - made <= cpus - 1
            sys.setswitchinterval(interval)
    finally:
        sys.setswitchinterval(interval)


def test_tables_too_large_for_the_memory_are_refused_before_anything_is_built(monkeypatch):
    # a table's tallies are sized up front; building them would take
    # every byte before the MemoryError came
    def never(*_args):
        raise AssertionError("built a table past the memory")

    for name in ("_walk_python", "_walk_compiled", "_compiled_kernel"):
        monkeypatch.setattr(tree, name, never)
    for g_max in (10**7, 10**20):
        with pytest.raises(MemoryError):
            count_matrix(g_max)
        with pytest.raises(MemoryError):
            tree._histogram(g_max)
    # the histogram's tallies, about g_max^3, pass the memory long before
    # the table's do: at 600 and one worker, 3.5 GB against 2.9 MB
    monkeypatch.setattr(tree, "_physical_memory", lambda: 10**9)
    with pytest.raises(MemoryError):
        tree._histogram(600)
    with pytest.raises(AssertionError, match="past the memory"):
        count_matrix(600)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_computation_needs_its_tally_and_one_more_per_worker(workers, monkeypatch):
    # 8 bytes a cell, and nothing a task: a table or histogram to 21, whose
    # 210 tasks both engines share from two workers, runs with exactly the
    # memory its tallies take and is refused with a byte less
    used = min(workers, len(tree._usable_cpus()))
    want = tuple(tuple(COUNTS_BY_GENUS[g]) for g in range(22))
    for compute, cells in ((count_matrix, 22 * 11), (tree._histogram, 22 * 11 * 44)):
        need = 8 * cells * (used + 1)
        monkeypatch.setattr(tree, "_physical_memory", lambda: need)
        out = compute(21, workers=workers)
        assert (out.rows if compute is count_matrix else tuple(tuple(map(sum, row)) for row in out)) == want
        monkeypatch.setattr(tree, "_physical_memory", lambda: need - 1)
        with pytest.raises(MemoryError):
            compute(21, workers=workers)


def test_count_matrix_csv_json_round_trip():
    matrix = count_matrix(9)
    assert CountMatrix.from_csv(matrix.to_csv()) == matrix
    assert CountMatrix.from_json_obj(matrix.to_json_obj()) == matrix
    assert matrix.to_csv().startswith("g,r,count\n0,0,1\n")
    assert matrix.cell(9, 4) == 1 and matrix.cell(9, 5) == 0
    # outside the table a cell is zero and a row does not exist; a negative
    # genus does not read from the end
    assert matrix.cell(-1, 0) == matrix.cell(10, 0) == matrix.cell(9, -1) == 0
    for g in (-1, 10):
        with pytest.raises(IndexError):
            matrix.row(g)
    assert sum(matrix.row(9)) == 118


@pytest.mark.parametrize("body", [
    "0,0,1\n0,1,5\n",               # row 0 has one cell
    "0,0,1\n1,0,1\n2,0,1\n",       # row 2 lacks its r = 1 cell
    "0,0,1\n1,0,1\n2,0,1\n3,0,1\n3,1,3\n",  # ... also when a later row follows
    "0,0,1\n1,0,-1\n",              # negative count
    "0,0,\u0661\n",                 # a non-ASCII digit
    "0,0, 1\n",                      # a space
    "0,0,1_0\n",                     # a digit separator
    "0,0,+1\n",
    "0,0\n",                         # two fields
    "0,0,1,1\n",                     # four fields
    "0,0,1\n2,0,1\n",               # row 1 missing
    "0,0,1\n1,1,1\n",               # r out of order
])
def test_count_matrix_from_csv_rejects_malformed_tables(body):
    with pytest.raises(ValueError):
        CountMatrix.from_csv("g,r,count\n" + body)


def test_count_matrix_from_csv_rejects_a_table_without_rows():
    with pytest.raises(ValueError, match="at least the row g = 0"):
        CountMatrix.from_csv("g,r,count\n")


@pytest.mark.parametrize("rows, match", [
    ([{"g": 0, "counts": [1, 5]}, {"g": 3, "counts": [-2, "x"]}], "row 1 is keyed g = 3"),
    ([{"g": 0, "counts": [1, 5]}, {"g": 1, "counts": [1]}], "row 0 needs floor"),
    ([{"g": 0, "counts": [1]}, {"g": True, "counts": [1]}], "row 1 is keyed g = True"),
    ([{"g": 0, "counts": [1]}, {"g": 1, "counts": [-1]}], "no non-negative integer"),
    ([{"g": 0, "counts": [1]}, {"g": 1, "counts": ["1"]}], "no non-negative integer"),
    ([{"g": 0, "counts": [True]}], "no non-negative integer"),
    ([{"g": 0, "counts": [1.0]}], "no non-negative integer"),
    ([{"g": 0, "counts": "1"}], "no list of counts"),
    ([], "at least the row g = 0"),
    ("{}", "an object with a list of rows"),
    ("[]", "an object with a list of rows"),
    ("null", "an object with a list of rows"),
    ('{"rows": 5}', "an object with a list of rows"),
    ('{"rows": [5]}', "row 0 is keyed g = None"),
    ('{"rows": [{"g": 0}]}', "row 0 has no list of counts"),
    ('{"g_max": 7, "rows": [{"g": 0, "counts": [1]}]}', "g_max = 7 does not match the 1 rows"),
    ('{"g_max": true, "rows": [{"g": 0, "counts": [1]}, {"g": 1, "counts": [1]}]}', "g_max = True"),
    ('{"g_max": 0.0, "rows": [{"g": 0, "counts": [1]}]}', "g_max = 0.0"),
    ('{"g_max": "0", "rows": [{"g": 0, "counts": [1]}]}', "g_max = '0'"),
])
def test_count_matrix_from_json_obj_rejects_malformed_tables(rows, match):
    # a list is the rows of a table object, a string a whole JSON document
    obj = {"rows": rows} if isinstance(rows, list) else json.loads(rows)
    with pytest.raises(ValueError, match=match):
        CountMatrix.from_json_obj(obj)


def test_tg_edges_depths():
    root = Semigroup.ordinary(6)
    levels = list(tree._tg_levels(6))
    assert tuple(map(list, levels[0])) == ([0], [root.bitmap], [tree._effective_generators(root.bitmap, 6)])
    depths = {}
    level = [root.bitmap]  # the root is its own parent
    for depth, (parents, children, effs) in enumerate(levels):
        for parent, child, eff in zip(parents, children, effs):
            assert _ordinarize_bitmap(child, 6) == level[parent]
            assert depth == (child & ((1 << 7) - 2)).bit_count()  # members in [1, g]
            assert eff == tree._effective_generators(child, 6)
            depths[child] = depth
        level = children
    assert len(depths) == 23  # every node has exactly one parent, the root itself


def test_tg_levels_inherit_effective_generators(monkeypatch):
    # on the Python level every child's eff, inherited from its parent's by
    # one AND, is the one its sum set gives, at every genus <= 16
    monkeypatch.setattr(tree, "_kernel", False)
    for g in range(17):
        checked = 0
        for _parents, children, effs in tree._tg_levels(g):
            assert effs == [tree._effective_generators(child, g) for child in children], g
            checked += len(children)
        assert checked == sum(COUNTS_BY_GENUS[g])


def test_export_dot_fig_tree():
    text = export_tree_dot(6)
    assert text.startswith('digraph "Tg_6" {\n')
    node_lines = [l for l in text.splitlines() if "depth=" in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 23
    assert len(edge_lines) == 22
    assert '  "1,2,3,5,7,9" -> "1,3,5,7,9,11";' in edge_lines
    for depth, nodes in FIG6_NODES_BY_DEPTH.items():
        for label in nodes:
            assert f'"{label}" [label="{label}", depth={depth}];' in text


def test_export_dot_trivial_and_small():
    t0 = export_tree_dot(0)
    assert '"" [label="", depth=0];' in t0
    assert "->" not in t0
    t4 = export_tree_dot(4)
    assert sum(1 for l in t4.splitlines() if "depth=" in l) == 7
    for d, want in enumerate([1, 5, 1]):
        assert sum(1 for l in t4.splitlines() if f"depth={d}]" in l) == want


def test_export_dot_node_cap():
    with pytest.raises(TooLarge):
        export_tree_dot(6, node_cap=5)
    with pytest.raises(TooLarge):
        export_tree_dot(6, node_cap=22)
    assert export_tree_dot(6, node_cap=23) == export_tree_dot(6)  # 23 nodes


def test_export_dot_refuses_exactly_the_trees_over_the_cap():
    # the ordinary root's n_g1(g) children are counted before any is made,
    # and the refusals stay those of counting every node as it is made
    for g in range(9):
        size = sum(tg_bfs_row(g))
        assert len(children_in_Tg(Semigroup.ordinary(g))) == n_g1_formula(g)
        for cap in range(size + 2):
            if cap < size:
                with pytest.raises(TooLarge, match=f"^fixed-genus tree for g={g} exceeds {cap} nodes$"):
                    export_tree_dot(g, node_cap=cap)
            else:
                assert export_tree_dot(g, node_cap=cap) == export_tree_dot(g), (g, cap)


def test_export_dot_refused_before_oversized_level(monkeypatch):
    # genus 36 has 38 217 nodes at depth <= 2 and 899 285 at depth 3; the
    # walk must stop expanding depth-2 nodes once the cap is crossed
    made: list[int] = []
    raw = tree._tg_children_raw

    def spy(bitmap, genus, eff):
        kids = raw(bitmap, genus, eff)
        made.append(len(kids))
        return kids

    monkeypatch.setattr(tree, "_tg_children_raw", spy)
    with pytest.raises(TooLarge, match="g=36 exceeds 100000 nodes"):
        export_tree_dot(36)
    assert 1 + sum(made[:-1]) <= 100_000 < 1 + sum(made)


# ----------------------------------------------------------------------
# fully independent oracles: no tree machinery at all

def brute_force_genus(g: int) -> set[tuple[int, ...]]:
    """Every gap set of genus g, by filtering all subsets of [1, 2g-1]
    through the closure definition."""
    import itertools

    if g == 0:
        return {()}
    out = set()
    for gaps in itertools.combinations(range(1, 2 * g), g):
        gapset = set(gaps)
        members = [x for x in range(2 * gaps[-1] + 2) if x not in gapset and not (0 < x < 1)]
        ok = True
        for a in members:
            for b in members:
                if a and b and a + b <= gaps[-1] and (a + b) in gapset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(gaps))
    return out


def test_enumeration_matches_brute_force():
    for g in range(8):
        via_tree = set()
        enumerate_genus(g, lambda s: via_tree.add(s.gaps()))
        assert via_tree == brute_force_genus(g)


def test_tg_children_complete_by_definition():
    # c is a child of s exactly when c != s and c ordinarizes to s; the
    # children come ordered by (added member, removed generator), that is
    # by the child's (multiplicity, Frobenius number)
    for g in range(15):
        group: list[Semigroup] = []
        enumerate_genus(g, group.append)
        expected: dict[Semigroup, list[Semigroup]] = {s: [] for s in group}
        for c in group:
            if c.ordinarize() != c:
                expected[c.ordinarize()].append(c)
        for s in group:
            want = sorted(expected[s], key=lambda c: (c.multiplicity, c.frobenius))
            assert children_in_Tg(s) == want


def test_tg_children_skip_only_b_that_give_no_child():
    # the definition without the b + m prefilter: every b in [1, m), with
    # closure of S + b minus a checked from scratch
    for bitmap, g, _r in tree._nodes(12):
        s = Semigroup._from_bitmap(bitmap, g)
        want = []
        for b in range(1, s.multiplicity):
            for a in (a for a in s.minimal_generators() if a > s.frobenius):
                child = (bitmap ^ (1 << a)) | (1 << b)
                gaps = ~child & ((1 << (2 * g + 2)) - 1)
                if not _sum_bitmap(child, g) & gaps:
                    want.append(child)
        kids = tree._tg_children_raw(bitmap, g, tree._effective_generators(bitmap, g))
        assert [child for child, _eff in kids] == want, s


def test_effective_generators_by_definition():
    # the minimal generators above the Frobenius number, which the bitmap
    # alone gives; it is -1 at genus 0, where 1 is the one generator
    checked = 0
    for bitmap, g, _r in tree._nodes(12):
        s = Semigroup._from_bitmap(bitmap, g)
        want = sum(1 << a for a in s.minimal_generators() if a > s.frobenius)
        assert tree._effective_generators(s.bitmap, s.genus) == want, s
        checked += 1
    assert checked == sum(sum(COUNTS_BY_GENUS[g]) for g in range(13))


def test_effective_generators_inherited_down_T():
    # the rule the walk under each count task relies on: removing the
    # effective generator a from a non-ordinary S (multiplicity m) keeps S's
    # effective generators above a and adds a + m exactly when a + m is no
    # sum of two non-zero members of the child (within its window
    # [0, 2g + 1]); and the state ``_subtree`` carries to every node of
    # genus <= 16 equals the state built from scratch
    edges = 0
    for i in range(16 * 15 // 2):
        for entry in tree._subtree(i, 16, 16):
            assert entry == scratch_entry(Semigroup._from_bitmap(*entry[:2]), 16)
            bitmap, g, _r, eff, _rev = entry
            nonzero = bitmap & -2
            m = (nonzero & -nonzero).bit_length() - 1
            for child in children_in_T(Semigroup._from_bitmap(bitmap, g)) if g < 16 else ():
                a, g1 = child.frobenius, g + 1
                s = a + m
                new = s <= 2 * g1 + 1 and not (_sum_bitmap(child.bitmap, g1) >> s) & 1
                assert tree._effective_generators(child.bitmap, g1) == (eff & -(2 << a)) | (new << s)
                edges += 1
    # every edge into genus 1..16 except the g children of each ordinary parent
    assert edges == sum(sum(COUNTS_BY_GENUS[g]) - g for g in range(1, 17))


def test_nodes_match_a_walk_by_definition():
    # a plain depth-first walk that expands every node by the definition;
    # cutting it at genus g_max keeps the order of what is left
    want = []
    stack = [Semigroup.ordinary(0)]
    while stack:
        s = stack.pop()
        want.append(node(s))
        if s.genus < 18:
            stack.extend(children_in_T(s))
    assert len(want) == sum(sum(COUNTS_BY_GENUS[g]) for g in range(19))
    for g_max in range(-1, 19):
        assert list(tree._nodes(g_max)) == [entry for entry in want if entry[1] <= max(g_max, 0)], g_max


def test_T_children_complete_by_definition():
    # child of s in the generator-removal tree == semigroup of genus g+1
    # whose gap set is gaps(s) plus one value above all of them... i.e.
    # whose Frobenius-adjoined parent is s
    for g in range(7):
        parents: list[Semigroup] = []
        children: list[Semigroup] = []
        enumerate_genus(g, parents.append)
        enumerate_genus(g + 1, children.append)
        for s in parents:
            expected = set()
            for c in children:
                back = sorted(set(c.gaps()) - {c.frobenius})
                if Semigroup.from_gaps(back) == s:
                    expected.add(c)
            assert set(children_in_T(s)) == expected
