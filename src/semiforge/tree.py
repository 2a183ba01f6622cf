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
built by formula, each child, one task, from its index (``_task``), and
the subtree under it by one walk (``_subtree``) in which every child
inherits its effective generators from its parent.  A table tallies the
spine directly and counts its tasks by a C kernel, built on first use by
the system C compiler, or by that walk where the kernel cannot load, in
process, or shared by threads where the kernel runs (it releases the
GIL) and by forked children where the walk does (``_run_tasks``).  Each
thread makes one kernel call, which claims indices from a counter and
adds its own tally into a tally, both shared by all; each forked child
walks every k-th task into a tally of its own, and those are added up.
Either way one flat tally results, whatever the worker count.  The same
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
Claims = tuple["ctypes.c_int", int, "ctypes.Array"]  # a claim counter, the index past the last task, the shared tally


def _effective_generators(bitmap: int, genus: int) -> int:
    """Bitmask of minimal generators in (F, 2*genus + 1], F the Frobenius
    number: the largest gap in the window [0, 2*genus + 1], -1 at genus 0."""
    mask = (1 << (2 * genus + 2)) - 1
    return bitmap & -2 & ~_sum_bitmap(bitmap, genus) & mask & -(1 << (~bitmap & mask).bit_length())


def _nodes(g_max: int) -> Iterator[Node]:
    """Every node with genus <= g_max, depth first from the root, each
    ordinary semigroup followed by the subtrees under its non-ordinary
    children, last first; within one genus, this is the enumeration order."""
    tasks = g_max * (g_max - 1) // 2
    for g in range(max(g_max, 0) + 1):
        yield Semigroup.ordinary(g).bitmap, g, 0
        # the g tasks under the ordinary semigroup of genus g follow the g(g - 1)/2 of the genera below
        for i in reversed(range(g * (g - 1) // 2, min(g * (g + 1) // 2, tasks))):
            for bitmap, genus, r, _eff, _rev in _subtree(i, g_max, g_max):
                yield bitmap, genus, r


def _task(i: int, g_max: int) -> Entry:
    """Task i of a table to ``g_max``, as the first entry of its walk (see ``_subtree``), by the closed form
    that ``_kernel.c``'s header derives: for i = g(g - 1)/2 + a - g - 2, the ordinary semigroup of genus
    g < g_max less its generator a, of genus and multiplicity g + 1; for i = g_max(g_max - 1)/2, the
    ordinary semigroup of genus g_max."""
    W, g = 2 * g_max + 3, 0
    while g < g_max and i >= g:  # past the g(g - 1)/2 tasks below genus g + 1
        i -= g
        g += 1
    a = i + g + 2
    if g == g_max:
        ordinary = (2 << (2 * g + 1)) - (2 << g) + 1
        return ordinary, g, 0, ordinary & -2, (2 << (W - g - 1)) - 1
    eff = (2 << (2 * g + 1)) - (2 << a) | (a == g + 2) << (2 * g + 3)
    return ((2 << (2 * g + 3)) - (2 << g) + 1) ^ 1 << a, g + 1, 1, eff, ((2 << (W - g - 1)) - 1) ^ 1 << (W - a)


def _subtree(i: int, g_max: int, last: int) -> Iterator[Entry]:
    """Task i of a table to ``g_max`` (``_task``) and every node below it
    down to genus ``last`` <= ``g_max``, depth first in ``_nodes``' order,
    as (bitmap, genus, depth, ``eff``, ``rev``).

    The multiplicity m <= g of the task is below every removed generator
    a > F >= g + 1, so m is the whole subtree's and a child's depth is its
    parent's plus bit g + 1.  An entry carries ``rev``, its non-zero
    members x in [1, W] as bits W - x (W = 2*g_max + 3), and a child's
    ``eff`` follows from its parent's, so no node rebuilds
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
    stack = [_task(i, g_max)]
    m = stack[0][1]  # a task's multiplicity is its genus; the ordinary one of genus g_max is not expanded
    shift = W - m
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


def _count_into(tally: list[int], i: int, g_max: int) -> None:
    """Adds every node under task i of a table to g_max to tally[g D + r]
    by its genus g and depth r (D = g_max // 2 + 1): ``_subtree`` to genus
    g_max - 1, then a popcount of each parent's ``eff``.  ``_kernel.c`` is
    this in C (``semiforge_count``); this is its oracle."""
    last, depths = g_max - 1, g_max // 2 + 1
    for bitmap, g, r, eff, _rev in _subtree(i, g_max, last):
        tally[g * depths + r] += 1
        if g == last and eff:
            tally[g_max * depths + r + ((bitmap >> g_max) & 1)] += eff.bit_count()


def _walk_compiled(walk: str, claims: Claims, g_max: int) -> None:
    """One call of the compiled walk ``semiforge_<walk>``, which claims tasks of a table to g_max from
    ``claims`` (the caller's ``_run_tasks``) and adds what it tallies into their tally."""
    if getattr(_kernel, f"semiforge_{walk}")(g_max, *claims):
        raise MemoryError(f"the compiled {walk} kernel could not allocate its stack and tally")


def _walk_python(payload: tuple[Sequence[int], tuple[Callable, int, int]]) -> list[int]:
    """``into(tally, i, g_max)`` for each task i of ``tasks``, into a new flat tally of ``cells`` cells."""
    tasks, (into, g_max, cells) = payload
    tally = [0] * cells
    for i in tasks:
        into(tally, i, g_max)
    return tally


def _gap_intervals(bitmap: int, g: int) -> int:
    """The number of maximal runs of consecutive gaps of the genus-g ``bitmap``."""
    gaps = ~bitmap & ((1 << (2 * g + 2)) - 1)
    return (gaps & ~(gaps >> 1)).bit_count()


def _odd_low(g: int) -> int:
    """The bits 1, 3, 5, ... up to g."""
    return ((1 << ((g + 1) & -2)) - 1) // 3 << 1


def _hist_into(tally: list[int], i: int, g_max: int) -> None:
    """Adds every node under task i of a table to g_max to
    tally[((g D + r)(g_max + 1) + n) 2 + odd] (D = g_max // 2 + 1) by its
    genus g, depth r and number n of gap intervals, odd = 1 when it has an
    odd member <= g: ``_subtree`` to genus g_max - 1, then a split popcount
    of each parent's ``eff``.  ``_kernel.c`` is this in C
    (``semiforge_hist``); this is its oracle.

    A child of a node of genus g removes a generator a > F >= g + 1 (F
    the Frobenius number, as the node is not ordinary), so the children
    of one node keep its members <= g + 1; a child has one interval more
    than its parent when a - 1 is a member, and as many when a - 1 = F."""
    last, depths, stride = g_max - 1, g_max // 2 + 1, 2 * (g_max + 1)
    odd_low = [_odd_low(g) for g in range(g_max + 1)]
    for bitmap, g, r, eff, _rev in _subtree(i, g_max, last):
        # bit x of opens: x - 1 is a member; where x is a gap, an interval
        # starts at x, and x = 2g + 2, just past the window, counts once
        opens = bitmap << 1
        n = (opens & ~bitmap).bit_count() - 1
        tally[(g * depths + r) * stride + 2 * n + (bitmap & odd_low[g] != 0)] += 1
        if g == last and eff:
            more = (eff & opens).bit_count()
            cell = (g_max * depths + r + ((bitmap >> g_max) & 1)) * stride + 2 * n + (bitmap & odd_low[g_max] != 0)
            tally[cell] += eff.bit_count() - more
            tally[cell + 2] += more


def _compiled_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, looked for on the first call; None
    where it cannot load."""
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel(_KERNEL_SOURCE) or False
    return _kernel or None


def _load_kernel(source: str) -> Optional[ctypes.CDLL]:
    """The library built from ``source``, with the signatures of the five
    functions this package calls declared, cached in the __pycache__ beside it under a name
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


def _run_tasks(walk: str, into: Callable, g_max: int, cells: int, tasks: int, workers: int,
               floors: tuple[int, int] = (_FORK_MIN_TASKS, _THREAD_MIN_TASKS), top: int = _KERNEL_GMAX,
               ) -> Sequence[int]:
    """The flat tally of ``cells`` cells of tasks 0 to ``tasks`` - 1 of a table to g_max, by the compiled walk
    ``walk`` (``_walk_compiled``) where the kernel loads and g_max <= ``top``, else by ``into(tally, i, g_max)``
    for each task i (``_walk_python``).  In this thread when there is one worker or too few tasks to pay for
    sharing them; else shared by threads from floors[1] (a table's by default) where the kernel runs, which
    releases the GIL, and by forked children from floors[0], where it does not.  Threads claim from one
    counter and add into one tally; forked children's tallies are added up here.  ``workers`` = 0 means one
    per usable CPU."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    cpus = len(_usable_cpus())
    workers = workers or cpus
    _check_table(g_max, cells, min(workers, cpus))
    compiled = g_max <= top and _compiled_kernel() is not None
    shared = workers > 1 and tasks >= floors[compiled]
    if compiled:
        from ctypes import c_int, c_uint64

        claims = c_int(0), tasks, (c_uint64 * cells)()
        if shared:
            _thread_map(walk, claims, g_max, workers)
        else:
            _walk_compiled(walk, claims, g_max)
        return claims[2]
    payload = range(tasks), (into, g_max, cells)
    parts = _fork_map(_walk_python, *payload, workers) if shared else [_walk_python(payload)]
    return [*map(sum, zip(*parts))]


def _thread_map(walk: str, claims: Claims, g_max: int, workers: int) -> None:
    """``_walk_compiled(walk, claims, g_max)`` in this thread and up to ``workers`` - 1 more, each pinned to
    a usable CPU of its own (unpinned, a new thread stays on its creator's for about 100 ms); every call
    claims its tasks from the one counter and adds into the one tally of ``claims``.  A thread's error is
    raised once all stop; a kernel call that fails stops the others at their next claim."""
    import threading

    cpus, errors = _usable_cpus(), []

    def work(cpu: int) -> None:
        try:
            _pin(0, {cpu})
            _walk_compiled(walk, claims, g_max)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(cpu,)) for cpu in cpus[1:workers]]
    try:
        for thread in threads:
            thread.start()
        work(cpus[0])
    finally:
        for thread in filter(threading.Thread.is_alive, threads):  # not one that failed to start
            thread.join()
        _pin(0, cpus)  # this thread's CPUs, as they were
    if errors:
        raise errors[0]


def _fork_map(fn: Callable, tasks: Sequence, arg: object, workers: int) -> list:
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


def _check_table(g_max: int, cells: int, workers: int) -> None:
    """Refuses g_max < 0, and with MemoryError a computation to g_max whose tally of ``cells`` cells, with
    one more per worker, would pass the memory at 8 bytes a cell."""
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    if 8 * cells * (workers + 1) > _physical_memory():
        raise MemoryError


def count_matrix(g_max: int, *, workers: int = 1) -> CountMatrix:
    """Exact table of counts by genus and ordinarization number, g <= g_max.

    The ordinary spine (the ordinary semigroups, genus 0 to g_max) is
    tallied directly; the subtree under each non-ordinary child of a
    spine node is one task, g_max*(g_max - 1)/2 in all, counted in this
    thread or shared among workers (see ``_run_tasks``), by the compiled
    kernel where it loads and g_max <= 62 (on 64-bit words to 31), else
    by ``_count_into``, into cell g (g_max // 2 + 1) + r of one tally;
    a table too large for the memory raises MemoryError before any count.
    """
    depths = g_max // 2 + 1
    tally = _run_tasks("count", _count_into, g_max, (g_max + 1) * depths, g_max * (g_max - 1) // 2, workers)
    rows = [tally[g * depths : g * depths + g // 2 + 1] for g in range(g_max + 1)]
    for row in rows:
        row[0] += 1  # the spine: one ordinary semigroup per genus, at depth 0
    return CountMatrix(tuple(tuple(row) for row in rows))


def _histogram(g_max: int, *, workers: int = 1) -> list[list[list[int]]]:
    """hist[g][r][2n + odd]: how many semigroups of genus g <= g_max have
    depth r, n gap intervals and (odd = 1) or no (odd = 0) odd member <= g.
    The spine is tallied directly and the count tasks of ``count_matrix``
    by ``semiforge_hist`` or ``_hist_into``, with its workers and floors
    (``_run_tasks``), into one tally laid out as ``_hist_into`` says."""
    depths, stride = g_max // 2 + 1, 2 * (g_max + 1)
    tally = _run_tasks("hist", _hist_into, g_max, (g_max + 1) * depths * stride, g_max * (g_max - 1) // 2, workers)
    hist = [
        [tally[(g * depths + r) * stride : (g * depths + r) * stride + 2 * g + 2] for r in range(g // 2 + 1)]
        for g in range(g_max + 1)
    ]
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
