import os
import threading
from pathlib import Path

import pytest
from hypothesis import settings

from semiforge import Semigroup, analytics, enumerate_genus, tree

# ``pytest --hypothesis-profile=ci`` draws the same examples on every run,
# so a generative failure in CI reproduces locally with the same flag
settings.register_profile("ci", derandomize=True)

# pyproject's ``pythonpath`` puts src/ on this process's path; the CLI
# subprocesses of the acceptance suite need it too when the package is
# run from a checkout without being installed
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def forks(monkeypatch) -> list[list[int]]:
    """The pids of the children that each ``_fork_map`` call forked, one
    list a call; the children still run.  A call that would fork more than
    one child per usable CPU besides its own fails the test before it forks."""
    calls: list[list[int]] = []
    fork_map, fork, room = tree._fork_map, os.fork, len(tree._usable_cpus()) - 1

    def map_spy(*args, **kwargs):
        calls.append([])
        return fork_map(*args, **kwargs)

    def fork_spy():
        if len(calls[-1]) >= room:
            pytest.fail(f"one call forked more than {room} children")
        pid = fork()
        if pid:
            calls[-1].append(pid)
        return pid

    monkeypatch.setattr(tree, "_fork_map", map_spy)
    monkeypatch.setattr(os, "fork", fork_spy)
    return calls


@pytest.fixture
def fork_calls(monkeypatch, forks) -> list[tuple[int, int]]:
    """(number of tasks, workers) of every run shared with forked children,
    each held to the usable CPUs (see ``forks``); the children still run."""
    calls: list[tuple[int, int]] = []
    fork_map = tree._fork_map

    def spy(fn, tasks, arg, workers):
        calls.append((len(tasks), workers))
        return fork_map(fn, tasks, arg, workers)

    monkeypatch.setattr(tree, "_fork_map", spy)
    return calls


@pytest.fixture
def thread_calls(monkeypatch) -> list[tuple[int, int]]:
    """(number of tasks, workers) of every run shared among threads; the
    threads still run."""
    calls: list[tuple[int, int]] = []
    thread_map = tree._thread_map

    def spy(walk, claims, g_max, workers):
        calls.append((claims[1], workers))
        return thread_map(walk, claims, g_max, workers)

    monkeypatch.setattr(tree, "_thread_map", spy)
    return calls


@pytest.fixture
def threads_made(monkeypatch) -> list[threading.Thread]:
    """Every ``threading.Thread`` constructed; each still runs."""
    made: list[threading.Thread] = []

    class Spy(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Thread", Spy)
    return made


@pytest.fixture
def python_kernel(monkeypatch) -> None:
    """Count tables with the pure-Python kernel only."""
    monkeypatch.setattr(tree, "_kernel", False)


@pytest.fixture
def compiled_kernel():
    """The compiled count kernel; the test is skipped where it cannot load
    (``test_kernel_loads_where_a_compiler_is_on_path`` fails instead when
    a compiler is there)."""
    kernel = tree._compiled_kernel()
    if kernel is None:
        pytest.skip("no compiled count kernel")
    return kernel


_TG_LEVEL_COMPILED = tree._tg_level_compiled


def doctor_compiled_levels(patch: pytest.MonkeyPatch, g: int, edit) -> None:
    """Make the compiled fixed-genus walk of genus g, level by level through
    Python, find ``edit(kids)`` below the ordinary root instead of its true
    children ``kids``, each a (bitmap, eff) pair; a second call replaces
    the first edit.  The compiled trees check walks in C and never reads
    these levels, so it is made to fail at once and the Python loop decides
    on them; ``tests/test_kernel.py`` plants faults in C that both see."""
    root = Semigroup.ordinary(g).bitmap
    patch.setattr(analytics, "_trees_hold", lambda g_max: False)

    def doctored(bitmaps, effs, genus, room):
        out = _TG_LEVEL_COMPILED(bitmaps, effs, genus, room)
        if (list(bitmaps), genus) != ([root], g):
            return out
        kids = edit(list(zip(out[1], out[2])))
        return [0] * len(kids), [kid for kid, _eff in kids], [eff for _kid, eff in kids]

    patch.setattr(tree, "_tg_level_compiled", doctored)


def scratch_kernel(directory, *edits):
    """The kernel built from a copy of ``_kernel.c`` in ``directory``, with
    each (old, new) edit made to the one place that holds ``old``."""
    text = Path(tree._KERNEL_SOURCE).read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    source = directory / "_kernel.c"
    source.write_text(text)
    kernel = tree._load_kernel(str(source))
    assert kernel is not None
    return kernel


@pytest.fixture(scope="session")
def semigroups_by_genus() -> dict[int, list[Semigroup]]:
    """All semigroups of genus <= 9, grouped by genus."""
    table = {}
    for g in range(10):
        items: list[Semigroup] = []
        enumerate_genus(g, items.append)
        table[g] = items
    return table


@pytest.fixture(scope="session")
def small_semigroups(semigroups_by_genus) -> list[Semigroup]:
    return [s for group in semigroups_by_genus.values() for s in group]


def children_in_T(s: Semigroup) -> list[Semigroup]:
    """The children of ``s`` in the generator-removal tree, by the
    definition: remove each minimal generator above the Frobenius number,
    in increasing order."""
    return [Semigroup.from_gaps(s.gaps() + (a,)) for a in s.minimal_generators() if a > s.frobenius]


def scratch_entry(s: Semigroup, g_max: int) -> tuple[int, int, int, int, int]:
    """``s`` as an entry of a walk of a table to g_max, built from its
    definition: (bitmap, genus, depth, effective generators, rev), where
    rev holds each non-zero member x <= W = 2 g_max + 3 as bit W - x."""
    W = 2 * g_max + 3
    members = (s.bitmap | -(1 << (2 * s.genus + 2))) & ((2 << W) - 2)
    rev = int(format(members >> 1, f"0{W}b")[::-1], 2)
    return s.bitmap, s.genus, s.ordinarization_number(), tree._effective_generators(s.bitmap, s.genus), rev


def members_upto(s: Semigroup, limit: int) -> list[int]:
    """The members x of ``s`` with 0 <= x <= limit."""
    return [x for x in range(limit + 1) if s.contains(x)]


def gap_runs(s: Semigroup) -> list[tuple[int, int]]:
    """The maximal runs of consecutive gaps of ``s`` as (first, last),
    ascending."""
    runs: list[tuple[int, int]] = []
    for x in s.gaps():
        if runs and runs[-1][1] == x - 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs
