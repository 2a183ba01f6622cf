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
additively closed, which a single shift test decides because removing a
minimal generator cannot break any old pair.

Counting is streaming: traversals never materialize a whole genus
except in the capped DOT export.  Worker processes count disjoint
subtrees rooted at a fixed split depth and the per-(genus, depth)
tallies merge by addition, so results do not depend on the worker
count.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from .semigroup import Semigroup, _sum_bitmap

_ROOT = (0b11, 0, -1, 0)  # bitmap, genus, frobenius, ordinarization number


class TooLarge(RuntimeError):
    """Tree export would materialize more nodes than the configured cap."""


class TreeEdge(NamedTuple):
    parent: Semigroup
    child: Semigroup
    depth_of_child: int


@dataclass(frozen=True)
class CountMatrix:
    """Exact counts by genus (row) and ordinarization number (column).

    Row g has floor(g/2) + 1 entries; cells outside that range are zero.
    Cells are Python ints, so counts are exact at any genus.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def g_max(self) -> int:
        return len(self.rows) - 1

    def row(self, g: int) -> tuple[int, ...]:
        return self.rows[g]

    def cell(self, g: int, r: int) -> int:
        row = self.rows[g]
        return row[r] if 0 <= r < len(row) else 0

    def genus_total(self, g: int) -> int:
        return sum(self.rows[g])

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
            g, r, count = map(int, line.split(","))
            if g == len(rows):
                rows.append([])
            if g != len(rows) - 1 or r != len(rows[g]):
                raise ValueError(f"out-of-order row {line!r}")
            rows[g].append(count)
        return cls(tuple(tuple(row) for row in rows))

    def to_json_obj(self) -> dict:
        return {
            "g_max": self.g_max,
            "rows": [{"g": g, "counts": list(row)} for g, row in enumerate(self.rows)],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CountMatrix":
        rows = [tuple(entry["counts"]) for entry in obj["rows"]]
        return cls(tuple(rows))


# ----------------------------------------------------------------------
# raw engines (bitmap ints on the stack, no Semigroup objects)

Node = tuple[int, int, int, int]  # bitmap, genus, frobenius, ordinarization number


def _effective_generators(bitmap: int, genus: int, frobenius: int) -> int:
    """Bitmask of minimal generators in (frobenius, 2*genus + 1]."""
    window = (1 << (2 * genus + 2)) - (1 << (frobenius + 1))
    return bitmap & -2 & ~_sum_bitmap(bitmap, genus) & window


def _children(bitmap: int, g: int, frob: int, r: int) -> list[Node]:
    """Children in the generator-removal tree, by removed generator a.

    Effective generators sit above the Frobenius number, hence above g, so
    the count of members <= g+1 only shifts at a == g+1.
    """
    eff = _effective_generators(bitmap, g, frob)
    g1 = g + 1
    extended = bitmap | (3 << (g + g + 2))
    rbase = r + ((bitmap >> g1) & 1)
    out = []
    while eff:
        low = eff & -eff
        a = low.bit_length() - 1
        out.append((extended ^ low, g1, a, rbase - (a == g1)))
        eff ^= low
    return out


def _nodes(g_max: int) -> Iterator[Node]:
    """Every node with genus <= g_max, depth first from the root; the
    order is deterministic and, within one genus, the enumeration order."""
    stack = [_ROOT]
    while stack:
        node = stack.pop()
        yield node
        if node[1] < g_max:
            stack.extend(_children(*node))


def _count_into(rows: list[list[int]], root: Node, g_max: int) -> None:
    """Tally (genus, ordinarization number) for every node of the subtree.

    This is ``_children`` written out inline, plus a shortcut that tallies
    the last genus without pushing it.  The counting kernel carries the
    table's time: tallying over ``_nodes`` instead took 1.55x as long for
    g <= 23 (Python 3.11, one core).
    """
    stack = [root]
    push = stack.append
    pop = stack.pop
    while stack:
        bitmap, g, frob, r = pop()
        rows[g][r] += 1
        if g == g_max:
            continue
        g1 = g + 1
        head = g + g + 2
        nonzero = bitmap & -2
        sums = 0
        e = bitmap & ((1 << g1) - 2)
        while e:
            low = e & -e
            sums |= nonzero << (low.bit_length() - 1)
            e ^= low
        eff = nonzero & ~sums & ((1 << head) - (1 << (frob + 1)))
        if not eff:
            continue
        rbase = r + ((bitmap >> g1) & 1)
        if g1 == g_max:
            row = rows[g1]
            while eff:
                low = eff & -eff
                row[rbase - (low.bit_length() - 1 == g1)] += 1
                eff ^= low
        else:
            extended = bitmap | (3 << head)
            while eff:
                low = eff & -eff
                a = low.bit_length() - 1
                push((extended ^ low, g1, a, rbase - (a == g1)))
                eff ^= low


def _empty_rows(g_max: int) -> list[list[int]]:
    return [[0] * (g // 2 + 1) for g in range(g_max + 1)]


def _count_worker(payload: tuple[list[Node], int]) -> list[list[int]]:
    tasks, g_max = payload
    rows = _empty_rows(g_max)
    for task in tasks:
        _count_into(rows, task, g_max)
    return rows


def _tg_children_raw(bitmap: int, genus: int) -> list[int]:
    """Child bitmaps in the fixed-genus tree, ordered by (added b, removed a).

    A candidate is kept iff still additively closed.  Old member pairs
    cannot sum to the removed minimal generator, so closure reduces to
    checking the sums that involve the new member b.
    """
    mask = (1 << (2 * genus + 2)) - 1
    frob = (~bitmap & mask).bit_length() - 1
    nonzero = bitmap & -2
    mult = (nonzero & -nonzero).bit_length() - 1
    eff = _effective_generators(bitmap, genus, frob)
    gens = []
    while eff:
        low = eff & -eff
        gens.append(low)
        eff ^= low
    out = []
    for b in range(1, mult):
        added = 1 << b
        for low in gens:
            child = (bitmap ^ low) | added
            if not ((child & -2) << b) & mask & ~child:
                out.append(child)
    return out


def _tg_levels(g: int) -> Iterator[tuple[list[int], list[int]]]:
    """Breadth-first levels of the fixed-genus tree below the ordinary
    semigroup: per depth d >= 1, the parallel lists (parent, child) of its
    edges, in the order the parents were reached."""
    frontier = [Semigroup.ordinary(g).bitmap]
    while True:
        parents: list[int] = []
        children: list[int] = []
        for bm in frontier:
            kids = _tg_children_raw(bm, g)
            parents.extend([bm] * len(kids))
            children.extend(kids)
        if not children:
            return
        yield parents, children
        frontier = children


def _make(bitmap: int, genus: int) -> Semigroup:
    return Semigroup._from_bitmap(bitmap, genus)


def _resolve_workers(workers: int) -> int:
    if workers < 0:
        raise ValueError("workers must be >= 0")
    return workers if workers else (os.cpu_count() or 1)


def _fork_map(fn: Callable, tasks: list, arg: object, workers: int) -> list:
    """fn((chunk, arg)) over about four chunks of ``tasks`` per worker, in a
    pool of forked processes; results come back in completion order."""
    chunk = max(1, len(tasks) // (workers * 4))
    payloads = [(tasks[i : i + chunk], arg) for i in range(0, len(tasks), chunk)]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return list(pool.imap_unordered(fn, payloads))


# ----------------------------------------------------------------------
# public operations

def children_in_T(s: Semigroup) -> list[Semigroup]:
    """Genus g+1 children: remove one minimal generator above the Frobenius
    number.  Sorted by the removed generator."""
    return [_make(bm, s.genus + 1) for bm, *_ in _children(s.bitmap, s.genus, s.frobenius, 0)]


def children_in_Tg(s: Semigroup) -> list[Semigroup]:
    """Same-genus children: every semigroup whose ordinarization transform
    is s.  Ordered by (added member, removed generator)."""
    return [_make(child, s.genus) for child in _tg_children_raw(s.bitmap, s.genus)]


def enumerate_genus(g: int, visitor: Optional[Callable[[Semigroup], None]] = None) -> int:
    """Visit every semigroup of genus g exactly once (depth-first from the
    root, deterministic order); returns how many there are."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    count = 0
    for bitmap, genus, _frob, _r in _nodes(g):
        if genus == g:
            count += 1
            if visitor is not None:
                visitor(_make(bitmap, g))
    return count


def count_matrix(g_max: int, *, workers: int = 1, split_depth: int = 8) -> CountMatrix:
    """Exact table of counts by genus and ordinarization number, g <= g_max.

    With several workers, subtrees rooted at ``split_depth`` are counted
    in separate processes and merged by addition.
    """
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    workers = _resolve_workers(workers)
    rows = _empty_rows(g_max)
    if workers <= 1 or g_max <= split_depth:
        _count_into(rows, _ROOT, g_max)
    else:
        tasks = []
        for node in _nodes(split_depth):
            if node[1] == split_depth:
                tasks.append(node)
            else:
                rows[node[1]][node[3]] += 1
        for part in _fork_map(_count_worker, tasks, g_max, workers):
            for g in range(split_depth, g_max + 1):
                row = rows[g]
                for r, c in enumerate(part[g]):
                    row[r] += c
    return CountMatrix(tuple(tuple(row) for row in rows))


def tg_bfs_row(g: int) -> list[int]:
    """Counts per depth of the fixed-genus tree, by breadth-first walk from
    the ordinary semigroup."""
    return [1] + [len(children) for _parents, children in _tg_levels(g)]


def iter_tg_edges(g: int) -> Iterator[TreeEdge]:
    """Edges of the fixed-genus tree in breadth-first order."""
    for depth, (parents, children) in enumerate(_tg_levels(g), 1):
        for parent, child in zip(parents, children):
            yield TreeEdge(_make(parent, g), _make(child, g), depth)


def export_tree_dot(g: int, *, node_cap: int = 100_000) -> str:
    """DOT text for the fixed-genus tree.

    Node ids are canonical gap strings; each node carries its depth.
    Raises TooLarge once more than ``node_cap`` nodes materialize.
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    too_large = TooLarge(f"fixed-genus tree for g={g} exceeds {node_cap} nodes")
    if node_cap < 1:
        raise too_large
    root = Semigroup.ordinary(g)
    labels = {root.bitmap: root.gap_string()}
    nodes = [(labels[root.bitmap], 0)]
    edges: list[tuple[str, str]] = []
    for depth, (parents, children) in enumerate(_tg_levels(g), 1):
        if len(nodes) + len(children) > node_cap:
            raise too_large
        child_labels = [_make(bm, g).gap_string() for bm in children]
        nodes.extend((label, depth) for label in child_labels)
        edges.extend(zip(map(labels.__getitem__, parents), child_labels))
        labels = dict(zip(children, child_labels))
    lines = [f'digraph "Tg_{g}" {{']
    lines.extend(f'  "{label}" [label="{label}", depth={d}];' for label, d in nodes)
    lines.extend(f'  "{a}" -> "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
