"""Two trees on numerical semigroups and exact per-depth counts.

The generator-removal tree contains every numerical semigroup once:
its root is the full set of non-negative integers, and the children of
a semigroup of genus g are obtained by removing one minimal generator
larger than the Frobenius number (the parent map adjoins the Frobenius
number back).  Depth equals genus, so a depth-first traversal from the
root enumerates each genus exhaustively.

The fixed-genus tree keeps the genus constant instead: the parent of a
non-ordinary semigroup is its ordinarization transform, the root is the
ordinary semigroup, and the depth of a node is its ordinarization
number.  Children are produced by removing an effective generator `a`
(a minimal generator above the Frobenius number) and inserting a new
member `b` below the multiplicity; a candidate survives iff it is still
additively closed, which one shift test per added member `b` decides
because removing a minimal generator cannot break any old pair.

A walk of the generator-removal tree holds one depth-first stack, not a
whole genus; ``verify_tree_relations`` holds genera g and g + 1 as
sets, or two levels of the walk where the kernel checks them.  Most of
that tree hangs below the ordinary semigroups, so every walk splits
along that ordinary spine: the spine and its non-ordinary children are
built by formula (``_spine_tasks``), and the subtree under each such
child, one task, by one walk (``_subtree``) in which every child
inherits its effective generators from its parent.  A table tallies the
spine directly and counts its tasks by a C kernel, built on first use by
the system C compiler, or by that walk where the kernel cannot load, in
process, or shared by threads where the kernel runs (it releases the
GIL) and by forked children where the walk does.  The kernel makes each
task from its index, and each thread makes one call, which claims
indices from a counter that all share; each forked child walks every
k-th task.  The tallies merge by addition, so results do not depend on
the worker count.  The same
tasks, walked the same ways, tally the histogram (``_histogram``), on
which the ``parity`` and ``intervals`` checks are decided, and count
the closed sets of each genus-w semigroup for ``f_value(w)``.

The fixed-genus tree is walked breadth first (``_tg_levels``) from the
root at depth 0, holding one whole level while it builds the next (the
DOT export keeps them all, under its node cap); each child inherits its
effective generators from its parent's.  From genus 13 to 31 a level is
one call into the same C kernel, which counts it, refusing it if too
large, and fills arrays guessed at one child a parent, which the next
level reads in place; a level with more children than parents takes a
second call, into arrays of its exact size.  Elsewhere, or where the
kernel cannot load, ``_tg_level`` walks it in Python.  It has three
readers: ``tg_bfs_row``, the DOT export and the ``trees`` check, whose
compiled decision, where g_max is in that range, walks every genus from
0 inside C, one call a genus that hands back a count or a failure.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .semigroup import Semigroup, _sum_bitmap

if TYPE_CHECKING:
    import ctypes
    from array import array

# Forked children share the Python walks' tasks of a table from this many
# (2 CPUs, Python 3.11; median ms, one process vs two, 15 pairs of fresh
# interpreters): count_matrix(20) (190 tasks) 35.7 vs 35.6, (21) (210) 74.6 vs 46.8.
_FORK_MIN_TASKS = 200

# Threads share a compiled kernel's tasks of a table from this many (2 CPUs,
# Python 3.11; median ms of 21 calls, one thread vs two, 31 interleaved pairs
# of fresh interpreters, pairs two won): count_matrix(20) (190 tasks) 0.39 vs
# 0.43 (8), (21) (210) 0.62 vs 0.56 (27).
_THREAD_MIN_TASKS = 21 * 20 // 2

# An f-value's tasks, its ordinary semigroup one of them, are shared by forks from 36 and threads from 46 (2 CPUs,
# Python 3.11; median ms, one worker vs two, pairs of fresh interpreters, two won): Python f_value(8) (29 tasks) 4.23
# vs 4.01 (9 of 11; two spread to 5.6), (9) (37) 11.3 vs 8.1 (11 of 11); compiled, of 21 calls, f_value(9) (37) 0.15
# vs 0.28 (2 of 21), (10) (46) 0.49 vs 0.47 (16 of 21).
_F_MIN_TASKS = (36, 46)

# The compiled kernel (``_kernel.c``) holds a table's window 2*g_max + 3
# in one 64-bit word to g_max = 31, else a 128-bit one (_KERNEL_GMAX), and
# [0, 2g + 1] of a fixed-genus level or closed-set count in 64 (_WORD_GMAX).
# ``_kernel`` is None until the first table, f-value or fixed-genus walk
# looks for it, then the loaded library, or False where it cannot load.
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_KERNEL_GMAX = 62
_WORD_GMAX = 31
_INT_MAX = 2**31 - 1

# Below this genus the fixed-genus tree is walked in Python, and so is the
# trees check to a g_max below it: loading the kernel costs more than the
# walk it would speed (fresh interpreters, 2 CPUs, Python 3.11; median ms
# of the kernel load plus compiled walk vs the Python walk, two runs of 15
# interleaved pairs): tg_bfs_row(12) 3.4-3.5 vs 2.2 (compiled faster in 2,
# 0), tg_bfs_row(13) 3.7-3.9 vs 3.9 (11, 9), tg_bfs_row(14) 3.6-3.9 vs
# 6.3-6.8 (14, 15).
_COMPILED_TG_MIN_GENUS = 13
_kernel = None
_pin = getattr(os, "sched_setaffinity", lambda _pid, _cpus: None)  # sets a thread's CPUs, where it can


class TooLarge(RuntimeError):
    """Tree export would materialize more nodes than the configured cap."""


class CountMatrix(NamedTuple):
    """Exact counts by genus (row) and ordinarization number (column).

    Row g has floor(g/2) + 1 entries; cells outside the table are zero.
    Cells are Python ints, so counts are exact at any genus.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def g_max(self) -> int:
        return len(self.rows) - 1

    def row(self, g: int) -> tuple[int, ...]:
        if not 0 <= g <= self.g_max:
            raise IndexError(f"genus {g} is outside the table's 0..{self.g_max}")
        return self.rows[g]

    def cell(self, g: int, r: int) -> int:
        return self.rows[g][r] if 0 <= g <= self.g_max and 0 <= r < len(self.rows[g]) else 0

    def to_csv(self) -> str:
        lines = ["g,r,count"]
        for g, row in enumerate(self.rows):
            lines.extend(f"{g},{r},{count}" for r, count in enumerate(row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "CountMatrix":
        lines = text.strip().splitlines()
        if not lines or lines[0] != "g,r,count":
            raise ValueError("missing 'g,r,count' header")
        rows: list[list[int]] = []
        for line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 3 or not all(f.isascii() and f.isdigit() for f in fields):
                raise ValueError(f"expected three non-negative integers, got {line!r}")
            g, r, count = map(int, fields)
            if g == len(rows):
                rows.append([])
            if g != len(rows) - 1 or r != len(rows[g]) or r > g // 2:
                raise ValueError(f"cell {line!r} is out of order or past r = g // 2")
            rows[g].append(count)
        return cls._checked(rows)

    def to_json_obj(self) -> dict:
        return {
            "g_max": self.g_max,
            "rows": [{"g": g, "counts": list(row)} for g, row in enumerate(self.rows)],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CountMatrix":
        entries = obj.get("rows") if isinstance(obj, dict) else None
        if not isinstance(entries, list):
            raise ValueError("expected an object with a list of rows")
        rows = []
        for g, entry in enumerate(entries):
            entry = entry if isinstance(entry, dict) else {}
            if type(entry.get("g")) is not int or entry["g"] != g:
                raise ValueError(f"row {g} is keyed g = {entry.get('g')!r}")
            if not isinstance(entry.get("counts"), list):
                raise ValueError(f"row {g} has no list of counts")
            rows.append(entry["counts"])
        g_max = obj.get("g_max", len(rows) - 1)
        if type(g_max) is not int or g_max != len(rows) - 1:
            raise ValueError(f"g_max = {g_max!r:.20} does not match the {len(rows)} rows")
        return cls._checked(rows)

    @classmethod
    def _checked(cls, rows: list[list]) -> "CountMatrix":
        """The table of ``rows``, refused unless it has a row and row g
        holds floor(g/2) + 1 non-negative ints."""
        if not rows:
            raise ValueError("a table needs at least the row g = 0")
        for g, row in enumerate(rows):
            if len(row) != g // 2 + 1:
                raise ValueError(f"row {g} needs floor(g/2) + 1 = {g // 2 + 1} cells, not {len(row)}")
            if not all(type(count) is int and count >= 0 for count in row):
                raise ValueError(f"row {g} holds a count that is no non-negative integer: {row!r:.100}")
        return cls(tuple(tuple(row) for row in rows))


# ----------------------------------------------------------------------
# raw engines (bitmap ints on the stack, no Semigroup objects)

Node = tuple[int, int, int]  # bitmap, genus, ordinarization number
Entry = tuple[int, int, int, int, int]  # a Node's fields, then eff and rev (see _subtree)
TgLevel = tuple[Sequence[int], Sequence[int], Sequence[int]]  # parent indices, children, their eff
Claims = tuple["ctypes.c_int", int]  # a claim counter and the index past the last task (see _claims)


def _effective_generators(bitmap: int, genus: int) -> int:
    """Bitmask of minimal generators in (F, 2*genus + 1], F the Frobenius
    number: the largest gap in the window [0, 2*genus + 1], -1 at genus 0."""
    mask = (1 << (2 * genus + 2)) - 1
    return bitmap & -2 & ~_sum_bitmap(bitmap, genus) & mask & -(1 << (~bitmap & mask).bit_length())


def _nodes(g_max: int) -> Iterator[Node]:
    """Every node with genus <= g_max, depth first from the root, each
    ordinary semigroup followed by the subtrees under its non-ordinary
    children, last first; within one genus, this is the enumeration order."""
    tasks = _spine_tasks(g_max)
    for g in range(max(g_max, 0) + 1):
        yield Semigroup.ordinary(g).bitmap, g, 0
        # the g tasks of genus g follow the g(g - 1)/2 of the genera below
        for task in reversed(tasks[g * (g - 1) // 2 : g * (g + 1) // 2]):
            for bitmap, genus, r, _eff, _rev in _subtree(task, g_max, g_max):
                yield bitmap, genus, r


def _task_start(root: Node, g_max: int) -> tuple[Entry, int]:
    """The first entry of ``_subtree(root, g_max, ...)``, built from scratch, and the
    multiplicity m of the walk.  Refuses an ordinary root below g_max, which it would expand."""
    W = 2 * g_max + 3
    bitmap, g, r = root
    nonzero = bitmap & -2
    m = (nonzero & -nonzero).bit_length() - 1
    if m > g < g_max:
        raise ValueError(f"the ordinary semigroup of genus {g} is not a count task")
    members = (bitmap | -(1 << (g + g + 2))) & ((2 << W) - 2)
    rev = int(format(members >> 1, f"0{W}b")[::-1], 2)
    return (bitmap, g, r, _effective_generators(bitmap, g), rev), m


def _subtree(task: Node, g_max: int, last: int) -> Iterator[Entry]:
    """``task``, non-ordinary or of genus g_max, and every node below it down
    to genus ``last`` <= ``g_max``, depth first in ``_nodes``' order, as
    (bitmap, genus, depth, ``eff``, ``rev``).

    The multiplicity m <= g of ``task`` is below every removed generator
    a > F >= g + 1, so m is the whole subtree's and a child's depth is its
    parent's plus bit g + 1.  An entry carries ``rev``, its non-zero
    members x in [1, W] as bits W - x (W = 2*g_max + 3), and a child's
    ``eff`` follows from its parent's, so no node below ``task`` rebuilds
    its sum set (Fromentin and Hivert, "Exploring the tree of numerical
    semigroups", Math. Comp. 2016).  ``_kernel.c`` is this walk in C.

    Inheritance rule.  Let S have multiplicity m < a, where a is the
    effective generator removed to give the child S' = S minus a, whose
    Frobenius number is a.  Every generator of S above a stays one of
    S', and the only new one can be a + m: a new generator x must have
    been a sum a + z in S, and if z != m then x - m > a is in S', so x =
    m + (x - m) is a sum without a.  So the child's ``eff`` is the
    parent's above a, plus a + m exactly when a + m <= 2g + 3 (the
    child's window) and no pair of non-zero members of S' sums to it;
    one AND against ``rev`` shifted by W - (a + m) decides that.
    """
    W = 2 * g_max + 3
    start, m = _task_start(task, g_max)
    shift = W - m
    stack = [start]
    push = stack.append
    pop = stack.pop
    while stack:
        entry = pop()
        yield entry
        bitmap, g, r, eff, rev = entry
        if g >= last or not eff:
            continue
        g1 = g + 1
        rbase = r + ((bitmap >> g1) & 1)
        head = g + g + 2
        extended = bitmap | (3 << head)
        nonzero = extended & -2
        a_max = head + 1 - m  # a + m must fit the child's window [0, 2g + 3]
        while eff:
            low = eff & -eff
            eff ^= low
            a = low.bit_length() - 1
            child_rev = rev ^ (1 << (W - a))
            new = low << m if a <= a_max and not (nonzero ^ low) & (child_rev >> (shift - a)) else 0
            push((extended ^ low, g1, rbase, eff | new, child_rev))


def _count_into(rows: list[list[int]], root: Node, g_max: int) -> None:
    """Tally (genus, ordinarization number) for every node under the
    non-ordinary ``root``: ``_subtree`` to genus g_max - 1, then a popcount
    of each parent's ``eff``.  ``_kernel.c`` is this in C; this is its oracle."""
    last = g_max - 1
    for bitmap, g, r, eff, _rev in _subtree(root, g_max, last):
        rows[g][r] += 1
        if g == last and eff:
            rows[g_max][r + ((bitmap >> g_max) & 1)] += eff.bit_count()


def _empty_rows(g_max: int) -> list[list[int]]:
    return [[0] * (g // 2 + 1) for g in range(g_max + 1)]


def _count_worker(payload: tuple[list[Node], int]) -> list[list[int]]:
    tasks, g_max = payload
    rows = _empty_rows(g_max)
    for task in tasks:
        _count_into(rows, task, g_max)
    return rows


def _walk_compiled(walk: str, payload: tuple[Claims, int], cells: int, top: int = _KERNEL_GMAX) -> ctypes.Array:
    """One call of the compiled ``walk``, which makes the tasks of a table to g_max <= ``top``, claims
    them (``_claims``) and tallies them into the new buffer of ``cells`` uint64 cells returned."""
    from ctypes import c_uint64

    (next_task, end), g_max = payload
    if g_max > top:
        raise ValueError(f"the compiled kernel counts to genus {top}, not {g_max}")
    tally = (c_uint64 * cells)()
    if getattr(_kernel, walk)(g_max, next_task, end, tally):
        raise MemoryError("the compiled count kernel could not allocate its stack")
    return tally


def _count_worker_compiled(payload: tuple[Claims, int]) -> list[list[int]]:
    """``_count_worker`` on the compiled kernel, tallied into g_max // 2 + 1 cells per row."""
    g_max = payload[1]
    stride = g_max // 2 + 1
    tally = _walk_compiled("semiforge_count", payload, (g_max + 1) * stride)
    return [tally[g * stride : g * stride + g // 2 + 1] for g in range(g_max + 1)]


def _gap_intervals(bitmap: int, g: int) -> int:
    """The number of maximal runs of consecutive gaps of the genus-g ``bitmap``."""
    gaps = ~bitmap & ((1 << (2 * g + 2)) - 1)
    return (gaps & ~(gaps >> 1)).bit_count()


def _odd_low(g: int) -> int:
    """The bits 1, 3, 5, ... up to g."""
    return ((1 << ((g + 1) & -2)) - 1) // 3 << 1


def _hist_into(hist: list[list[list[int]]], root: Node, g_max: int) -> None:
    """Tally every node under the non-ordinary ``root`` into
    hist[g][r][2n + odd], by its genus g, depth r and number n of gap
    intervals, odd = 1 when it has an odd member <= g: ``_subtree`` to
    genus g_max - 1, then a split popcount of each parent's ``eff``.
    ``_kernel.c`` is this in C (``semiforge_hist``); this is its oracle.

    A child of a node of genus g removes a generator a > F >= g + 1 (F
    the Frobenius number, as the node is not ordinary), so the children
    of one node keep its members <= g + 1; a child has one interval more
    than its parent when a - 1 is a member, and as many when a - 1 = F."""
    last = g_max - 1
    odd_low = [_odd_low(g) for g in range(g_max + 1)]
    for bitmap, g, r, eff, _rev in _subtree(root, g_max, last):
        # bit x of opens: x - 1 is a member; where x is a gap, an interval
        # starts at x, and x = 2g + 2, just past the window, counts once
        opens = bitmap << 1
        n = (opens & ~bitmap).bit_count() - 1
        hist[g][r][2 * n + (bitmap & odd_low[g] != 0)] += 1
        if g == last and eff:
            more = (eff & opens).bit_count()
            cells = hist[g_max][r + ((bitmap >> g_max) & 1)]
            odd = bitmap & odd_low[g_max] != 0
            cells[2 * n + odd] += eff.bit_count() - more
            cells[2 * n + 2 + odd] += more


def _empty_hist(g_max: int) -> list[list[list[int]]]:
    return [[[0] * (2 * g + 2) for _r in range(g // 2 + 1)] for g in range(g_max + 1)]


def _hist_worker(payload: tuple[list[Node], int]) -> list[list[list[int]]]:
    tasks, g_max = payload
    hist = _empty_hist(g_max)
    for task in tasks:
        _hist_into(hist, task, g_max)
    return hist


def _hist_worker_compiled(payload: tuple[Claims, int]) -> list[list[list[int]]]:
    """``_hist_worker`` on the compiled kernel, tallied into g_max // 2 + 1
    depths per genus and g_max + 1 (n, odd) pairs per depth."""
    g_max = payload[1]
    stride, depths = 2 * (g_max + 1), g_max // 2 + 1
    tally = _walk_compiled("semiforge_hist", payload, (g_max + 1) * depths * stride)
    return [
        [tally[(g * depths + r) * stride : (g * depths + r) * stride + 2 * g + 2] for r in range(g // 2 + 1)]
        for g in range(g_max + 1)
    ]


def _compiled_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, looked for on the first call; None
    where it cannot load."""
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel(_KERNEL_SOURCE) or False
    return _kernel or None


def _load_kernel(source: str) -> Optional[ctypes.CDLL]:
    """The library built from ``source``, with the signatures of its six
    functions declared, cached in the __pycache__ beside it under a name
    keyed on the source and the interpreter's platform tag, so that a
    stale or foreign build never loads; None when there is no compiler,
    the build fails or the cache cannot be written."""
    import binascii  # a CRC keys the source; hashlib would load OpenSSL, 3.6 MB
    import ctypes
    from importlib.machinery import EXTENSION_SUFFIXES

    try:
        with open(source, "rb") as fh:
            digest = f"{binascii.crc32(fh.read()):08x}"
        library = os.path.join(os.path.dirname(source), "__pycache__", f"_kernel-{digest}{EXTENSION_SUFFIXES[0]}")
        if not os.path.exists(library):
            _build_kernel(source, library)
        lib = ctypes.CDLL(library)
    except OSError:
        return None
    c_int, address = ctypes.c_int, ctypes.c_void_p
    for walk in (lib.semiforge_count, lib.semiforge_hist, lib.semiforge_f_value):
        walk.argtypes = [c_int, ctypes.POINTER(c_int), c_int, ctypes.POINTER(ctypes.c_uint64)]
        walk.restype = c_int
    lib.semiforge_tg_level.argtypes = [address, address, c_int, c_int, address, address, address, c_int, c_int]
    lib.semiforge_tg_level.restype = c_int
    lib.semiforge_tg_check.argtypes = [address, address, address, c_int, address, c_int, c_int, c_int, c_int]
    lib.semiforge_tg_check.restype = c_int
    lib.semiforge_tg_sweep.argtypes = [c_int, c_int, c_int]
    lib.semiforge_tg_sweep.restype = c_int
    return lib


def _build_kernel(source: str, library: str) -> None:
    """Compile ``source`` with the system C compiler into a temporary file
    and move it to ``library``, so that processes building at once never
    load a half-written library.  Raises OSError when the build fails."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(library), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(library))
    os.close(fd)
    try:
        done = subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", tmp, source],
            stdin=subprocess.DEVNULL, capture_output=True,
        )
        if done.returncode:
            raise OSError(f"cc exited {done.returncode}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # this interpreter's builds of older sources are stale now; a build is
    # named "_kernel-", an 8-digit key, then the interpreter's suffix
    cache, name = os.path.split(library)
    with contextlib.suppress(OSError):
        for old in os.listdir(cache):
            if old != name and old[:8] == "_kernel-" and old[16:] == name[16:]:
                os.remove(os.path.join(cache, old))


def _tg_children_raw(bitmap: int, genus: int, eff: int) -> list[tuple[int, int]]:
    """Children in the fixed-genus tree, ordered by (added b, removed a), of
    the semigroup ``bitmap`` with effective generators ``eff``, each as
    (bitmap, its effective generators).

    A candidate is kept iff still additively closed.  Old member pairs
    cannot sum to the removed minimal generator, so closure reduces to
    the sums x + b with x a non-zero member of S + b.  Those that land on
    an old gap other than b do not depend on a (a + b > a > F), so one
    test per b settles them; the rest only ask that a is not such a sum.
    The sum b + m (m the multiplicity) is one of them, so a b with b + m
    not in S is skipped before the test.

    Inheritance rule.  Let S have effective generators E, and let the
    child S' = S minus a plus b, a in E and b < m, whose Frobenius number
    is a.  Then S' has the effective generators x in E above a with x - b
    not in S', so no child rebuilds its sum set.  Take a < x <= 2g + 1.
    If x - b is in S', x = b + (x - b) is no generator of S'.  Otherwise
    x - b <= a, as S' holds every integer above a.  A sum y + z = x in S
    that used a would then need x - a <= b < m as a non-zero member, which
    cannot exist; so x is a sum in S' without b exactly when x is not in
    E, and x is a sum using b exactly when x - b is in S'.
    """
    mask = (1 << (2 * genus + 2)) - 1
    nonzero = bitmap & -2
    mult = (nonzero & -nonzero).bit_length() - 1
    out = []
    for b in range(2, mult):  # not 1: a set holding 1 is closed only as all of N, of genus 0
        if not (bitmap >> (b + mult)) & 1:
            continue
        added = 1 << b
        sums = (nonzero | added) << b
        if sums & mask & ~(bitmap | added):
            continue
        kept = eff & ~sums
        while kept:
            low = kept & -kept
            kept ^= low
            child = (bitmap ^ low) | added
            out.append((child, eff & -(low << 1) & ~(child << b)))
    return out


def _tg_level(bitmaps: Sequence[int], effs: Sequence[int], g: int, room: float) -> Optional[TgLevel]:
    """The next level of ``_tg_levels`` below the semigroups ``bitmaps`` of
    genus g with effective generators ``effs``, as lists; None once it
    holds more than ``room`` children.  ``semiforge_tg_level`` is this in C."""
    parents: list[int] = []
    kids: list[tuple[int, int]] = []
    for i, (bitmap, eff) in enumerate(zip(bitmaps, effs)):
        new = _tg_children_raw(bitmap, g, eff)
        parents += [i] * len(new)
        kids += new
        if len(kids) > room:
            return None
    return parents, [child for child, _eff in kids], [eff for _child, eff in kids]


def _tg_level_compiled(bitmaps: Sequence[int], effs: Sequence[int], g: int, room: float) -> Optional[TgLevel]:
    """``_tg_level`` by the compiled kernel, as arrays that the next level
    reads in place.  One call counts the children, refusing an oversized
    level, and writes those that fit buffers guessed at one child a
    parent; only a level with more children than parents is walked again,
    into buffers of its exact size, and the guess's slack is cut off, so
    that a level handed out holds its children and nothing more."""
    from array import array

    if g > _WORD_GMAX:
        raise ValueError(f"the compiled kernel walks the fixed-genus tree to genus {_WORD_GMAX}, not {g}")
    n, room = len(bitmaps), int(min(room, _INT_MAX))
    words = [x if isinstance(x, array) else array("Q", x) for x in (bitmaps, effs)]
    cap = n  # the guess
    while True:
        parents, children, child_effs = array("i", [0]) * cap, array("Q", [0]) * cap, array("Q", [0]) * cap
        count = _kernel.semiforge_tg_level(
            *map(_address, words), n, g, _address(children), _address(child_effs), _address(parents), cap, room
        )
        if count <= cap:
            break
        cap = count
        del parents, children, child_effs  # before the exact buffers are made
    if count < 0:
        return None
    if count < cap:  # copies, each guess freed once copied: an array shrunk in place keeps spare room
        parents = parents[:count]
        children = children[:count]
        child_effs = child_effs[:count]
    return parents, children, child_effs


def _address(buffer: array) -> int:
    """The address of the first item of ``buffer``, for a ``c_void_p``
    argument; the caller keeps it alive, and unresized, while C reads it."""
    return buffer.buffer_info()[0]


def _tg_plan(g: int) -> Callable:
    """The level function of ``_tg_levels`` at genus g: the compiled kernel
    where it loads and _COMPILED_TG_MIN_GENUS <= g <= 31, else ``_tg_level``."""
    if _COMPILED_TG_MIN_GENUS <= g <= _WORD_GMAX and _compiled_kernel():
        return _tg_level_compiled
    return _tg_level


def _tg_levels(g: int, node_cap: float = math.inf) -> Iterator[TgLevel]:
    """Breadth-first levels of the fixed-genus tree: per depth d >= 0, the
    parallel sequences (parent, child, child's effective generators), where
    parent indexes the level before, in the order the parents were reached.
    Depth 0 is ([0], [root], [its effective generators]): the transform
    fixes the ordinary semigroup, so the root is its own parent.  Only the
    root builds a sum set: each child inherits its effective generators
    (see ``_tg_children_raw``).

    Raises TooLarge as soon as the nodes reached exceed ``node_cap``, so an
    oversized level is never completed; the root's n_g1(g) children, about
    3g^2/8, are counted before even the root is made.  Raises MemoryError
    there too when those children, at the window's 2g + 2 bits each, would
    not fit this machine's physical memory.
    """
    first = n_g1_formula(g)
    if first > node_cap - 1:
        raise TooLarge(f"fixed-genus tree for g={g} exceeds {node_cap} nodes")
    if first * ((2 * g + 9) // 8) > _physical_memory():
        raise MemoryError
    root = Semigroup.ordinary(g).bitmap
    level = _tg_plan(g)
    room = node_cap
    parents, bitmaps, effs = [0], [root], [_effective_generators(root, g)]
    while bitmaps:
        yield parents, bitmaps, effs
        room -= len(bitmaps)
        out = level(bitmaps, effs, g, room)
        if out is None:
            raise TooLarge(f"fixed-genus tree for g={g} exceeds {node_cap} nodes")
        parents, bitmaps, effs = out


def _physical_memory() -> float:
    """Bytes of physical memory on this machine; inf where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [*range(os.cpu_count() or 1)]


def _run_tasks(fn: Callable, tasks: Sequence, arg: object, workers: int, compiled: bool,
               floors: tuple[int, int] = (_FORK_MIN_TASKS, _THREAD_MIN_TASKS)) -> list:
    """fn((tasks, arg)) in this thread when there is one worker or too few tasks to pay for sharing them;
    else shared by threads from floors[1] (a table's by default) where fn runs the compiled kernel
    (``compiled``), which releases the GIL, and by forked children from floors[0], where it does not.
    The kernel makes its tasks from their indices, so there ``tasks`` is a range of them, which fn
    takes as claims (``_claims``).  ``workers`` = 0 means one per usable CPU."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    workers = workers or len(_usable_cpus())
    if workers == 1 or len(tasks) < floors[compiled]:
        return [fn((_claims(tasks) if compiled else tasks, arg))]
    return (_thread_map if compiled else _fork_map)(fn, tasks, arg, workers)


def _claims(tasks: range) -> Claims:
    """The task indices ``tasks`` as a compiled walk claims them, one call a worker: a counter at
    the first, which the workers of one computation share, and the index past the last."""
    from ctypes import c_int

    return c_int(tasks.start), tasks.stop


def _thread_map(fn: Callable, tasks: range, arg: object, workers: int) -> list:
    """fn((claims, arg)) in this thread and up to ``workers`` - 1 more, each
    pinned to a usable CPU of its own (unpinned, a new thread stays on its
    creator's for about 100 ms); ``claims`` = ``_claims(tasks)`` is one
    counter for all, from which each kernel call claims the tasks it walks.
    A thread's error is raised once all stop; a kernel call that fails
    stops the others at their next claim."""
    import threading

    cpus, claims, results = _usable_cpus(), _claims(tasks), []

    def work(cpu: int) -> None:
        try:
            _pin(0, {cpu})
            results.append(fn((claims, arg)))
        except BaseException as exc:
            results.insert(0, exc)

    threads = [threading.Thread(target=work, args=(cpu,)) for cpu in cpus[1:workers]]
    try:
        for thread in threads:
            thread.start()
        work(cpus[0])
    finally:
        for thread in filter(threading.Thread.is_alive, threads):  # not one that failed to start
            thread.join()
        _pin(0, cpus)  # this thread's CPUs, as they were
    if isinstance(results[0], BaseException):
        raise results[0]
    return results


def _fork_map(fn: Callable, tasks: list, arg: object, workers: int) -> list:
    """fn((tasks[i::k], arg)) for i < k = min(workers, usable CPUs, tasks): i = 0 in this process,
    each other i in a child forked for it and pinned to a usable CPU of its own, which pickles its
    result or error back through a pipe.  A child's error, or MemoryError for one that a signal
    killed, is raised once all are reaped; if this process fails, it kills them first."""
    import pickle
    import signal

    cpus, children = _usable_cpus(), []
    k = min(workers, len(cpus), len(tasks))
    with contextlib.ExitStack() as pipes:  # closes every end, whatever fails
        try:
            for i in range(1, k):
                read, write = map(pipes.enter_context, map(open, os.pipe(), ("rb", "wb")))
                pid = os.fork()
                if not pid:
                    try:
                        try:
                            _pin(0, {cpus[i]})
                            out = fn((tasks[i::k], arg))
                        except BaseException as exc:
                            out = exc
                        pickle.dump(out, write)
                        write.flush()
                    finally:
                        os._exit(0)
                write.close()
                children.append((pid, read))
            results = [fn((tasks[::k], arg))]
        except BaseException:
            for pid, _read in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:  # each reply is read first: one past the pipe's buffer blocks its child until read
            replies = [(read.read(), os.waitpid(pid, 0)[1]) for pid, read in children]
    for reply, status in replies:
        killed = os.WIFSIGNALED(status) and signal.Signals(os.WTERMSIG(status)).name
        results.append(MemoryError(f"a forked worker was killed by {killed}") if killed else pickle.loads(reply))
    for out in results:
        if isinstance(out, BaseException):
            raise out
    return results


# ----------------------------------------------------------------------
# public operations

def children_in_Tg(s: Semigroup) -> list[Semigroup]:
    """Same-genus children: every semigroup whose ordinarization transform
    is s.  Ordered by (added member, removed generator)."""
    eff = _effective_generators(s.bitmap, s.genus)
    return [Semigroup._from_bitmap(child, s.genus) for child, _eff in _tg_children_raw(s.bitmap, s.genus, eff)]


def n_g1_formula(g: int) -> int:
    """Number of genus-g semigroups at depth 1.

    Both printed forms of the closed formula are evaluated and compared,
    guarding against transcription slips:
    ceil((g-1)/2) * floor((g+1)/2) + floor((g-1)/2) * floor((g+1)/2) / 2,
    and (3g^2 - 2g)/8 for even g, (3g^2 - 3)/8 for odd g.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    half_up = -((1 - g) // 2)          # ceil((g-1)/2)
    count = half_up * ((g + 1) // 2)
    prod = ((g - 1) // 2) * ((g + 1) // 2)
    assert prod % 2 == 0
    count += prod // 2
    piecewise = (3 * g * g - 2 * g) // 8 if g % 2 == 0 else (3 * g * g - 3) // 8
    assert count == piecewise, (g, count, piecewise)
    return count


def enumerate_genus(g: int, visitor: Optional[Callable[[Semigroup], None]] = None) -> int:
    """Visit every semigroup of genus g exactly once (depth-first from the
    root, deterministic order); returns how many there are."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    count = 0
    for bitmap, genus, _r in _nodes(g):
        if genus == g:
            count += 1
            if visitor is not None:
                visitor(Semigroup._from_bitmap(bitmap, g))
    return count


def _spine_tasks(g_max: int) -> list[Node]:
    """The count tasks of a table to ``g_max``: the non-ordinary children
    of the ordinary semigroups of genus g < g_max.  The ordinary semigroup
    of genus g has the minimal generators g + 1, ..., 2g + 1, all above
    its Frobenius number g; removing a >= g + 2 leaves a semigroup of
    genus g + 1 and depth 1."""
    tasks = []
    for g in range(g_max):
        extended = Semigroup.ordinary(g + 1).bitmap | 1 << (g + 1)  # genus g on the next window
        tasks += [(extended ^ 1 << a, g + 1, 1) for a in range(g + 2, 2 * g + 2)]
    return tasks


def _check_table(g_max: int, cells: int) -> None:
    """Refuses g_max < 0, and with MemoryError a table to g_max of ``cells`` tallies past the memory."""
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    if 50 * g_max * (g_max - 1) + 8 * cells > _physical_memory():  # 100 bytes or more a task, 8 a tally
        raise MemoryError


def count_matrix(g_max: int, *, workers: int = 1) -> CountMatrix:
    """Exact table of counts by genus and ordinarization number, g <= g_max.

    The ordinary spine (the ordinary semigroups, genus 0 to g_max) is
    tallied directly; the subtree under each non-ordinary child of a
    spine node is one task, g_max*(g_max - 1)/2 in all, counted in this
    thread or shared among workers (see ``_run_tasks``), by the compiled
    kernel where it loads and g_max <= 62 (on 64-bit words to 31), else
    by ``_count_into``.  Tallies merge by addition;
    a table too large for the memory raises MemoryError before any count.
    """
    _check_table(g_max, (g_max + 1) * (g_max // 2 + 1))
    compiled = g_max <= _KERNEL_GMAX and _compiled_kernel() is not None
    worker = _count_worker_compiled if compiled else _count_worker
    tasks = range(g_max * (g_max - 1) // 2) if compiled else _spine_tasks(g_max)
    rows, *others = _run_tasks(worker, tasks, g_max, workers, compiled)
    for part in others:
        for row, counts in zip(rows, part):
            for r, c in enumerate(counts):
                row[r] += c
    for row in rows:
        row[0] += 1  # the spine: one ordinary semigroup per genus, at depth 0
    return CountMatrix(tuple(tuple(row) for row in rows))


def _histogram(g_max: int, *, workers: int = 1) -> list[list[list[int]]]:
    """hist[g][r][2n + odd]: how many semigroups of genus g <= g_max have
    depth r, n gap intervals and (odd = 1) or no (odd = 0) odd member <= g.
    The spine is tallied directly and the count tasks of ``count_matrix``
    by ``semiforge_hist`` or ``_hist_into``, with its workers and floors
    (``_run_tasks``); tallies merge by addition."""
    _check_table(g_max, 2 * (g_max + 1) ** 2 * (g_max // 2 + 1))
    compiled = g_max <= _KERNEL_GMAX and _compiled_kernel() is not None
    worker = _hist_worker_compiled if compiled else _hist_worker
    tasks = range(g_max * (g_max - 1) // 2) if compiled else _spine_tasks(g_max)
    hist, *others = _run_tasks(worker, tasks, g_max, workers, compiled)
    for part in others:
        for row, part_row in zip(hist, part):
            for cells, counts in zip(row, part_row):
                for i, c in enumerate(counts):
                    cells[i] += c
    for g, row in enumerate(hist):
        row[0][2 * (g > 0)] += 1  # the ordinary semigroup: gaps 1..g, one interval, no member in 1..g
    return hist


def tg_bfs_row(g: int) -> list[int]:
    """Counts per depth of the fixed-genus tree, by breadth-first walk from
    the ordinary semigroup."""
    return [len(children) for _parents, children, _effs in _tg_levels(g)]


def export_tree_dot(g: int, *, node_cap: int = 100_000) -> str:
    """DOT text for the fixed-genus tree.

    Node ids are canonical gap strings; each node carries its depth.
    Raises TooLarge once more than ``node_cap`` nodes materialize.
    """
    # walk first and label afterwards, so an oversized tree is refused
    # before any label is formatted
    levels = list(_tg_levels(g, node_cap))
    labels = [[Semigroup._from_bitmap(bm, g).gap_string() for bm in children] for _parents, children, _effs in levels]
    lines = [f'digraph "Tg_{g}" {{']
    lines.extend(f'  "{label}" [label="{label}", depth={d}];' for d, level in enumerate(labels) for label in level)
    # an edge joins each level below the root to the one above it
    for above, (parents, _children, _effs), level in zip(labels, levels[1:], labels[1:]):
        lines.extend(f'  "{above[p]}" -> "{label}";' for p, label in zip(parents, level))
    lines.append("}")
    return "\n".join(lines) + "\n"
