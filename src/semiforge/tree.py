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
whole genus, though a caller may collect one: ``f_value(w)`` lists genus
w, and ``verify_tree_relations`` holds genera g and g + 1, as uint64
arrays where the kernel checks them and as sets elsewhere.  Most
of that tree hangs below the ordinary semigroups, so every walk splits
along that ordinary spine: the spine and its non-ordinary children are
built by formula (``_spine_tasks``), and the subtree under each such
child, one task, by one walk (``_subtree``) in which every child
inherits its effective generators from its parent.  A table tallies the
spine directly and counts its tasks in process or by forked workers, by
a C kernel, built on first use by the system C compiler, or by that walk
where the kernel cannot load; the per-(genus, depth) tallies merge by
addition, so results do not depend on the worker count.

The fixed-genus tree is walked breadth first (``_tg_levels``) from the
root at depth 0, holding one whole level while it builds the next (the
DOT export keeps them all, under its node cap); each child inherits its
effective generators from its parent's.  From genus 13 to 31 a level is
two calls into the same C kernel: one counts it, refusing it if too
large, and one fills buffers of that size, which the next level reads
in place; elsewhere, or where the kernel cannot load, ``_tg_level``
walks it in Python.  Besides ``tg_bfs_row``, the DOT export and the
``trees`` check, that walk feeds the ``parity``, ``intervals`` and
``bijection`` checks one level at a time (``_runs``) wherever it is
compiled; elsewhere they read ``_nodes``.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Optional, Sequence

from .semigroup import Semigroup, _sum_bitmap

if TYPE_CHECKING:
    import ctypes

# Forking a pool costs more than the work it shares below this many
# tasks (2 CPUs, Python 3.11; median ms, serial vs 2-worker pool, 21
# interleaved pairs): count_matrix(20) (190 tasks) 53 vs 83 (pool faster
# in 4), count_matrix(21) (210) 77 vs 62 (16), count_matrix(22) (231) 126
# vs 106 (19).  ``closedsets`` measures its own cutoffs.
_POOL_MIN_TASKS = 200

# The same crossover for tables counted by the compiled kernel, which
# makes each task about 40 times cheaper (same machine; median ms, serial
# vs 2-worker pool, two runs of 21 interleaved pairs): count_matrix(27)
# (351 tasks) 36-39 vs 46-57 (pool faster in 0 and 7), count_matrix(28)
# (378) 60-62 vs 48-54 (17, 16), count_matrix(29) (406) 94-100 vs 69-72
# (18, 19); count_matrix(30) 149 vs 93 (faster in 11 of 11 pairs).
_COMPILED_POOL_MIN_TASKS = 28 * 27 // 2

# The compiled kernel (``_kernel.c``) holds the window 2*g_max + 3 of a
# table in one 128-bit word, and the window [0, 2g + 1] of a fixed-genus
# level or a closed-set count in one 64-bit word, so to genus _WORD_GMAX.
# ``_kernel`` is None until the first table, f-value or fixed-genus walk
# looks for it, then the loaded library, or False where it cannot load.
_KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_KERNEL_GMAX = 62
_WORD_GMAX = 31
_INT_MAX = 2**31 - 1

# Below this genus the fixed-genus tree is walked in Python: loading the
# kernel costs more than the walk it would speed (fresh interpreters, 2
# CPUs, Python 3.11; median ms of the kernel load plus compiled walk vs
# the Python walk, two runs of 15 interleaved pairs): tg_bfs_row(12)
# 3.4-3.5 vs 2.2 (compiled faster in 2, 0), tg_bfs_row(13) 3.7-3.9 vs 3.9
# (11, 9), tg_bfs_row(14) 3.6-3.9 vs 6.3-6.8 (14, 15).
_COMPILED_TG_MIN_GENUS = 13
_WORD = (1 << 64) - 1
_kernel = None


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
    """The first entry of ``_subtree(root, g_max, ...)``, built from
    scratch, and the multiplicity m of the walk.  Refuses an ordinary root."""
    W = 2 * g_max + 3
    bitmap, g, r = root
    nonzero = bitmap & -2
    m = (nonzero & -nonzero).bit_length() - 1
    if m > g:
        raise ValueError(f"the ordinary semigroup of genus {g} is not a count task")
    members = (bitmap | -(1 << (g + g + 2))) & ((2 << W) - 2)
    rev = int(format(members >> 1, f"0{W}b")[::-1], 2)
    return (bitmap, g, r, _effective_generators(bitmap, g), rev), m


def _subtree(task: Node, g_max: int, last: int) -> Iterator[Entry]:
    """The non-ordinary ``task`` and every node below it down to genus
    ``last`` <= ``g_max``, depth first in ``_nodes``' order, as (bitmap,
    genus, depth, ``eff``, ``rev``).

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


def _count_worker_compiled(payload: tuple[list[Node], int]) -> list[list[int]]:
    """``_count_worker`` on the compiled kernel, which tallies into one
    uint64 buffer of g_max // 2 + 1 cells per row."""
    from ctypes import c_uint64

    tasks, g_max = payload
    if g_max > _KERNEL_GMAX:
        raise ValueError(f"the compiled kernel counts to genus {_KERNEL_GMAX}, not {g_max}")
    stride = g_max // 2 + 1
    tally = (c_uint64 * ((g_max + 1) * stride))()
    for task in tasks:
        (bitmap, g, r, eff, rev), m = _task_start(task, g_max)
        words = (c_uint64 * 6)(*(x >> s & _WORD for x in (bitmap, eff, rev) for s in (0, 64)))
        if _kernel.semiforge_count(words, g, r, m, g_max, tally):
            raise MemoryError("the compiled count kernel could not allocate its stack")
    return [tally[g * stride : g * stride + g // 2 + 1] for g in range(g_max + 1)]


def _compiled_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, looked for on the first call; None
    where it cannot load."""
    global _kernel
    if _kernel is None:
        _kernel = _load_kernel(_KERNEL_SOURCE) or False
    return _kernel or None


def _load_kernel(source: str) -> Optional[ctypes.CDLL]:
    """The library built from ``source``, with the signatures of its four
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
    words, c_int = ctypes.POINTER(ctypes.c_uint64), ctypes.c_int
    lib.semiforge_count.argtypes = [words, c_int, c_int, c_int, c_int, words]
    lib.semiforge_count.restype = c_int
    lib.semiforge_closed.argtypes = [words, c_int, c_int]
    lib.semiforge_closed.restype = ctypes.c_uint64
    lib.semiforge_tg_level.argtypes = [words, words, c_int, c_int, words, words, ctypes.POINTER(c_int), c_int]
    lib.semiforge_tg_level.restype = c_int
    lib.semiforge_tg_check.argtypes = [
        ctypes.POINTER(c_int), words, words, c_int, words, c_int, c_int, c_int, words, c_int, words, c_int, words
    ]
    lib.semiforge_tg_check.restype = c_int
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


def _count_plan(g_max: int) -> tuple[Callable, int]:
    """The worker that counts a table to ``g_max``, and the fewest tasks
    for which its pool pays: the compiled kernel where it loads and the
    window 2*g_max + 3 fits its 128-bit word, else ``_count_worker``."""
    if g_max <= _KERNEL_GMAX and _compiled_kernel():
        return _count_worker_compiled, _COMPILED_POOL_MIN_TASKS
    return _count_worker, _POOL_MIN_TASKS


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
    for b in range(1, mult):
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
    """``_tg_level`` by the compiled kernel, as memoryviews over its output
    buffers, which the next level reads in place.  A first call only
    counts the children, so the buffers are allocated to the exact size
    and an oversized level is refused before any is."""
    from ctypes import c_int, c_uint64

    if g > _WORD_GMAX:
        raise ValueError(f"the compiled kernel walks the fixed-genus tree to genus {_WORD_GMAX}, not {g}")
    n = len(bitmaps)
    words = [_c_array(x, c_uint64) for x in (bitmaps, effs)]
    count = _kernel.semiforge_tg_level(*words, n, g, None, None, None, int(min(room, _INT_MAX)))
    if count < 0:
        return None
    parents, children, child_effs = (c_int * count)(), (c_uint64 * count)(), (c_uint64 * count)()
    _kernel.semiforge_tg_level(*words, n, g, children, child_effs, parents, count)
    return tuple(
        memoryview(buffer).cast("B").cast(code)
        for buffer, code in ((parents, "i"), (children, "Q"), (child_effs, "Q"))
    )


def _c_array(values: Sequence[int], ctype: type) -> ctypes.Array:
    """``values`` as a ctypes array of ``ctype``: over the same memory where
    it is a memoryview, as a compiled level's sequences are, else a copy."""
    n = len(values)
    return (ctype * n).from_buffer(values) if isinstance(values, memoryview) else (ctype * n)(*values)


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


def _runs(g_max: int) -> Iterator[tuple[int, int, Sequence[int]]]:
    """Every node of genus <= g_max, as runs (genus, depth, bitmaps) in no
    promised order: each level of ``_tg_levels(g)`` for g = 0..g_max where
    the fixed-genus walk at g_max is compiled, else each node of
    ``_nodes(g_max)`` as a run of one.  The order is free because every
    reader keeps the smallest counterexample by its key, or a set per
    (genus, depth) cell."""
    if _tg_plan(g_max) is _tg_level_compiled:
        return (
            (g, r, children)
            for g in range(g_max + 1)
            for r, (_parents, children, _effs) in enumerate(_tg_levels(g))
        )
    return ((g, r, (bitmap,)) for bitmap, g, r in _nodes(g_max))


def _physical_memory() -> float:
    """Bytes of physical memory on this machine; inf where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_tasks(fn: Callable, tasks: list, arg: object, workers: int, min_tasks: int) -> list:
    """fn((chunk, arg)) over ``tasks``: one call in this process when there
    is one worker or fewer than ``min_tasks`` tasks, too few to pay for a
    pool, else ``_fork_map``.  ``workers`` = 0 means one per usable CPU."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    workers = workers or _usable_cpus()
    if workers == 1 or len(tasks) < min_tasks:
        return [fn((tasks, arg))]
    return _fork_map(fn, tasks, arg, workers)


def _fork_map(fn: Callable, tasks: list, arg: object, workers: int) -> list:
    """fn((chunk, arg)) over four chunks of ``tasks`` per worker, in a pool
    of forked processes; results come back in completion order.  Workers
    beyond the usable CPUs would only wait for one, so they are not started.

    Chunks are strided (``tasks[i::n]``), so neighbouring tasks, which
    tend to be alike in size, land in different chunks.
    """
    import multiprocessing  # loaded only by runs that fork

    workers = min(workers, _usable_cpus())
    n = min(4 * workers, len(tasks))
    payloads = [(tasks[i::n], arg) for i in range(n)]
    with multiprocessing.get_context("fork").Pool(min(workers, n)) as pool:
        return list(pool.imap_unordered(fn, payloads))


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


def count_matrix(g_max: int, *, workers: int = 1) -> CountMatrix:
    """Exact table of counts by genus and ordinarization number, g <= g_max.

    The ordinary spine (the ordinary semigroups, genus 0 to g_max) is
    tallied directly; the subtree under each non-ordinary child of a
    spine node is one task, g_max*(g_max - 1)/2 in all, counted in this
    process or by forked workers (see ``_run_tasks``), by the compiled
    kernel where it loads and g_max <= 62, else by ``_count_into``
    (see ``_count_plan``).  Tallies merge by addition.
    """
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    rows = _empty_rows(g_max)
    for row in rows:
        row[0] += 1  # the spine: one ordinary semigroup per genus, at depth 0
    worker, min_tasks = _count_plan(g_max)
    for part in _run_tasks(worker, _spine_tasks(g_max), g_max, workers, min_tasks):
        for row, counts in zip(rows, part):
            for r, c in enumerate(counts):
                row[r] += c
    return CountMatrix(tuple(tuple(row) for row in rows))


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
