"""Closed-form counts, sumset structure, and finite-range verification.

Everything here is exact integer arithmetic.  The depth threshold
"r at least (g+2)/3" is always evaluated as 3r >= g + 2, never through
floating point.

Each harness returns a ``VerificationReport`` that names one failure:
the tree walks (``verify_parity_lemma``, ``verify_interval_theorem``,
``verify_tree_relations``) the smallest by (genus, gap list),
``verify_sumset_bound`` the smallest set by (size, elements), and the
table-cell checks (``check_conjecture``, ``high_depth_cross_check``,
``verify_bijection``) the first failing (g, r) cell, by g, then r.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from . import closedsets, tree
from .semigroup import Semigroup, _ordinarize_bitmap


class VerificationReport(NamedTuple):
    check_name: str
    range_tested: str
    passed: bool
    counterexample: Optional[str] = None

    def as_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "range": self.range_tested,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _high_depth(g: int, r: int) -> bool:
    return 3 * r >= g + 2


def _min_high_r(g: int) -> int:
    return (g + 4) // 3  # smallest r with 3r >= g + 2


class _Counterexamples:
    """Collects failures, keeping the smallest by (genus, gap list)."""

    def __init__(self):
        self.best: Optional[tuple[int, tuple[int, ...], str]] = None

    def add(self, genus: int, gaps: tuple[int, ...], detail: str) -> None:
        key = (genus, gaps, detail)
        if self.best is None or key < self.best:
            self.best = key

    def text(self) -> Optional[str]:
        if self.best is None:
            return None
        genus, gaps, detail = self.best
        return f"gaps={','.join(map(str, gaps))} {detail}"


def _report(name: str, rng: str, bad: _Counterexamples) -> VerificationReport:
    return VerificationReport(name, rng, bad.best is None, bad.text())


# ----------------------------------------------------------------------
# closed formulas

def max_ordinarization_attainer(g: int) -> Semigroup:
    """The alternating-evens semigroup (evens through 2g, then everything),
    which attains the maximal depth floor(g/2).  It is the only attainer
    for every genus outside {3, 5}; at 3 and 5 the count table itself
    records two extra attainers."""
    if g < 1:
        raise ValueError("genus must be positive")
    bitmap = 1 << (2 * g + 1)
    for j in range(0, 2 * g + 1, 2):
        bitmap |= 1 << j
    return Semigroup._from_bitmap(bitmap, g)


# ----------------------------------------------------------------------
# sumsets

def verify_sumset_bound(max_value: int = 30, max_size: int = 6) -> VerificationReport:
    """Exhaustive |A+A| >= 2|A| - 1 over subsets of [0, max_value], with
    equality exactly on arithmetic progressions."""
    import itertools

    bad = _Counterexamples()
    universe = range(max_value + 1)
    for n in range(1, max_size + 1):
        for els in itertools.combinations(universe, n):
            bits = 0
            for x in els:
                bits |= 1 << x
            acc = 0
            for x in els:
                acc |= bits << x
            size = acc.bit_count()
            if size < 2 * n - 1:
                bad.add(n, els, f"sumset size {size} < {2 * n - 1}")
                continue
            diffs = {b - a for a, b in zip(els, els[1:])}
            if (size == 2 * n - 1) != (len(diffs) <= 1):
                bad.add(n, els, f"equality/progression mismatch, size {size}")
    return _report("sumset-bound", f"subsets of [0,{max_value}] of size <= {max_size}", bad)


# ----------------------------------------------------------------------
# lemma harnesses over the tree

def verify_parity_lemma(g_max: int) -> VerificationReport:
    """Members <= g are all even whenever the depth satisfies 3r >= g + 2."""
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    bad = _Counterexamples()
    for g, r, bitmaps in tree._runs(g_max):
        if not _high_depth(g, r):
            continue
        odd_low = ((1 << ((g + 1) & -2)) - 1) // 3 << 1  # bits 1, 3, 5, ... up to g
        for bitmap in bitmaps:
            culprits = bitmap & odd_low
            if culprits:
                x = (culprits & -culprits).bit_length() - 1
                bad.add(g, Semigroup._from_bitmap(bitmap, g).gaps(), f"odd member {x} <= g={g}")
    return _report("parity", f"genus <= {g_max}, depth 3r >= g+2", bad)


def verify_interval_theorem(g_max: int) -> VerificationReport:
    """Three statements tying gap-interval counts n to tree depth r:
    (i) r >= floor(n/2) always, (ii) high depth forces n = 2r or 2r + 1
    according to the parity of g, (iii) a high interval count forces the
    parity match and r = floor(n/2) exactly."""
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    bad = _Counterexamples()
    for g, r, bitmaps in tree._runs(g_max):
        window = (1 << (2 * g + 2)) - 1
        high = _high_depth(g, r)
        for bitmap in bitmaps:
            gapbits = ~bitmap & window
            n = (gapbits & ~(gapbits >> 1)).bit_count()
            gaps = None
            if r < n // 2:
                gaps = Semigroup._from_bitmap(bitmap, g).gaps()
                bad.add(g, gaps, f"r={r} < floor(n/2) with n={n}")
            if high and n != 2 * r + (g & 1):
                gaps = gaps or Semigroup._from_bitmap(bitmap, g).gaps()
                bad.add(g, gaps, f"high depth r={r} but n={n}")
            if 3 * (n // 2) >= g + 2 and ((g - n) & 1 or r != n // 2):
                gaps = gaps or Semigroup._from_bitmap(bitmap, g).gaps()
                bad.add(g, gaps, f"n={n} high but r={r}, genus parity {g & 1}")
    return _report("intervals", f"genus <= {g_max}", bad)


def check_conjecture(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Scan for any depth r where the count drops from genus g to g+1."""
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    matrix = tree.count_matrix(g_max, workers=workers)
    for g in range(g_max):
        for r, count in enumerate(matrix.row(g)):
            if count > matrix.cell(g + 1, r):
                drop = f"n({g},{r})={count} > n({g + 1},{r})={matrix.cell(g + 1, r)}"
                return VerificationReport("conjecture", f"genus <= {g_max}", False, drop)
    return VerificationReport("conjecture", f"genus <= {g_max}", True)


def high_depth_cross_check(g_max: int) -> VerificationReport:
    """Every high-depth cell of the count table must equal the closed-set
    sum for w = floor(g/2) - r."""
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    matrix = tree.count_matrix(g_max)
    f = functools.cache(closedsets.f_value)
    for g in range(2, g_max + 1):
        for r in range(_min_high_r(g), g // 2 + 1):
            if matrix.cell(g, r) != f(g // 2 - r):
                worst = f"n({g},{r})={matrix.cell(g, r)} != f({g // 2 - r})={f(g // 2 - r)}"
                return VerificationReport("high-depth-cross-check", f"genus <= {g_max}", False, worst)
    return VerificationReport("high-depth-cross-check", f"genus <= {g_max}", True)


def verify_bijection(g_max: int) -> VerificationReport:
    """Round-trip and counting checks for the high-depth pairing.

    For every g <= g_max and depth r with 3r >= g + 2: building from all
    (omega, B) pairs is injective, lands exactly on the semigroups of
    genus g at depth r in the fixed-genus tree, splitting is its
    two-sided inverse, and the image size matches both the count table
    and the closed-set sum.  Where that tree's walk is compiled (see
    ``tree._runs``), it is a third engine beside the generator-removal
    walk of ``count_matrix`` and the pairing.  The pairing's checks
    raise ValueError or AssertionError exactly when a side condition
    fails: that is the cell's counterexample."""
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    matrix = tree.count_matrix(g_max)
    deep: dict[tuple[int, int], set[int]] = {}
    for g, r, bitmaps in tree._runs(g_max):
        if _high_depth(g, r):
            deep.setdefault((g, r), set()).update(bitmaps)
    pair_pool: dict[int, list[tuple[Semigroup, closedsets.ClosedSet]]] = {}

    def fail(why: str) -> VerificationReport:
        return VerificationReport("bijection", f"genus <= {g_max}, depth 3r >= g+2", False, f"g={g} r={r}: {why}")

    for g in range(2, g_max + 1):
        for r in range(_min_high_r(g), g // 2 + 1):
            w = g // 2 - r
            try:
                if w not in pair_pool:
                    omegas: list[Semigroup] = []
                    tree.enumerate_genus(w, omegas.append)
                    pair_pool[w] = [(om, b) for om in omegas for b in closedsets.closed_sets(om, w + 1)]
                pairs = [closedsets.PairDecomposition(om, b, g) for om, b in pair_pool[w]]
                built = [closedsets.build_from_pair(p) for p in pairs]
                image = {s.bitmap for s in built}
                if len(image) != len(built):
                    return fail("pairing not injective")
                if image != deep.get((g, r), set()) or len(built) != matrix.cell(g, r):
                    return fail(f"image size {len(built)} vs table {matrix.cell(g, r)}")
                for p, s in zip(pairs, built):
                    back = closedsets.decompose(s)
                    if back.omega != p.omega or back.b.elements != p.b.elements:
                        return fail(f"decompose does not invert build on {s.gap_string()}")
                    if closedsets.build_from_pair(back) != s:
                        return fail(f"build does not invert decompose on {s.gap_string()}")
            except (ValueError, AssertionError) as exc:
                return fail(f"{type(exc).__name__}: {exc}")
    return VerificationReport("bijection", f"genus <= {g_max}, depth 3r >= g+2", True)


# ----------------------------------------------------------------------
# relations between the two trees

def _raw_parent_in_T(bitmap: int, g: int) -> int:
    """Parent in the generator-removal tree: genus drops to g - 1."""
    mask = (1 << (2 * g + 2)) - 1
    frob = (~bitmap & mask).bit_length() - 1
    return (bitmap | (1 << frob)) & ((1 << (2 * g)) - 1)


def _expand_checked(bitmap: int, g: int, eff: int, transform: int, nxt: set[int], bad: _Counterexamples) -> None:
    """Add the children of ``bitmap`` in the generator-removal tree, one
    per effective generator in ``eff``, to ``nxt``, and check that their
    transforms adjoin back to the parent's ``transform`` and that the
    non-ordinary ones share one transform."""
    g1 = g + 1
    extended = bitmap | (3 << (2 * g + 2))
    first = None
    while eff:
        low = eff & -eff
        eff ^= low
        child = extended ^ low
        nxt.add(child)
        child_t = _ordinarize_bitmap(child, g1)
        if _raw_parent_in_T(child_t, g1) != transform:
            bad.add(g1, Semigroup._from_bitmap(child, g1).gaps(), "transform left the ancestor line")
        cm = ((child & -2) & -(child & -2)).bit_length() - 1
        if cm > g1:  # the ordinary child
            continue
        if first is None:
            first = child_t
        elif child_t != first:
            bad.add(g1, Semigroup._from_bitmap(child, g1).gaps(), "siblings transform to different parents")


def _trees_hold(g_max: int) -> bool:
    """Whether ``verify_tree_relations(g_max)`` passes, decided level by
    level by the compiled ``semiforge_tg_check`` on the fixed-genus walk
    to genus g_max <= 31, each genus held as uint64 arrays; False as soon
    as a check fails, or a level's values do not fit its C types."""
    from ctypes import c_int, c_uint64

    check = tree._kernel.semiforge_tg_check
    expected = (c_uint64 * 1)(Semigroup.ordinary(0).bitmap)  # genus g, as the expansion of g - 1
    for g in range(g_max + 1):
        total, filled, pieces, prev = len(expected), 0, [], ()
        seen = (c_uint64 * total)()
        for depth, level in enumerate(tree._tg_levels(g)):
            arrays = [tree._c_array(x, ctype) for x, ctype in zip(level, (c_int, c_uint64, c_uint64))]
            # the kernel would misread sequences of unequal lengths, or a
            # value that its C type truncates
            if len(set(map(len, level))) > 1 or any(
                list(array) != list(x) for array, x in zip(arrays, level) if not isinstance(x, memoryview)
            ):
                return False
            parents, children, effs = arrays
            up = prev or children  # the root is its own parent
            nxt = None
            if g < g_max:  # one child in T per bit of eff
                nxt = (c_uint64 * int.from_bytes(memoryview(effs).cast("B"), "little").bit_count())()
                pieces.append(nxt)
            if check(parents, children, effs, len(children), up, len(up), g, depth, seen, filled, expected, total, nxt):
                return False
            filled += len(children)
            prev = children
        if filled != total:
            return False
        joined = bytearray().join(pieces)
        expected = (c_uint64 * (len(joined) // 8)).from_buffer(joined)
    return True


def verify_tree_relations(g_max: int) -> VerificationReport:
    """Cross-checks between the generator-removal tree and the fixed-genus
    trees, for every genus <= g_max:

    - the breadth-first depth profile of the fixed-genus tree matches the
      enumeration grouped by ordinarization number, on the same node set,
      and each edge child ordinarizes to its parent, the root to itself;
    - transforms of a parent/child pair in the generator-removal tree
      stay parent/child there (adjoining the Frobenius number of the
      child's transform gives the parent's transform);
    - non-ordinary children of one node all share the same transform.

    Each genus is the set of children of the one before.  Every
    semigroup of genus < g_max is expanded into the next genus exactly
    once, when the fixed-genus walk first reaches it, with the effective
    generators that walk made and the transform its edge check took.  A
    semigroup the walk misses is reported at its genus, under the
    smallest key there, and is not expanded: all it could add lies at a
    larger genus, so it could not change the report.

    Where the fixed-genus walk at g_max is compiled (``tree._tg_plan``),
    the compiled ``_trees_hold`` decides first, and the loop below runs
    only when it fails, to write the report; so every report comes from
    the loop.  A compiled pass implies the loop's, genus by genus.  Let
    W be the nodes of the walk of genus g, each of whose values must fit
    its C type, and E the kernel's expansion of genus g - 1 (the root, at
    genus 0); by induction, ``level`` is set(E) when genus g begins.  The
    kernel requires:

    - W and E, sorted, equal and strictly increasing: set equality with
      no repeat on either side.  So the walk reaches each member of
      ``level`` once, which is removed and expanded then; ``level`` ends
      empty, sum(row) = |W| = sum(expected_row), and ``nxt`` is the set
      of the kernel's expansion of W, which carries the induction;
    - every edge: a node's transform is its parent, the root its own;
      the kernel fails wherever the Python transform would raise;
    - the ancestor line and the sibling lemma on every node's expansion,
      with the same eff and transform as ``_expand_checked``;
    - each node at depth d has d non-zero members <= g, and 2d <= g.  So
      row[d] counts the members of ``level`` with ordinarization number
      d, which is expected_row[d], and no depth passes g // 2.  On true
      semigroups this follows from the edge check and set equality, by
      induction on depth: only the ordinary root is its own transform,
      and a transform trades a multiplicity <= g for a Frobenius number
      > g.  The kernel checks it per node, so that the implication holds
      for any walk, a broken one too.
    """
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    if tree._tg_plan(g_max) is tree._tg_level_compiled and _trees_hold(g_max):
        return VerificationReport("trees", f"genus <= {g_max}", True)
    bad = _Counterexamples()
    level = {Semigroup.ordinary(0).bitmap}  # the bitmaps of genus g
    for g in range(g_max + 1):
        expected_row = [0] * (g // 2 + 1)
        for bm in level:
            expected_row[(bm & ((1 << (g + 1)) - 2)).bit_count()] += 1
        nxt: set[int] = set()
        row: list[int] = []
        prev: Sequence[int] = ()
        for parents, children, effs in tree._tg_levels(g):
            row.append(len(children))
            up = prev or children  # the root is its own parent
            for parent, child, eff in zip(parents, children, effs):
                transform = _ordinarize_bitmap(child, g)
                if transform != up[parent]:
                    bad.add(g, Semigroup._from_bitmap(child, g).gaps(), "edge child does not transform to parent")
                # the fixed-genus tree must reach each member of ``level`` once
                if child in level:
                    level.remove(child)
                    if g < g_max:
                        _expand_checked(child, g, eff, transform, nxt, bad)
            prev = children
        row += [0] * (len(expected_row) - len(row))
        if row != expected_row:
            bad.add(g, (), f"depth profile {row} != enumeration {expected_row}")
        if level or sum(row) != sum(expected_row):
            bad.add(g, (), "fixed-genus tree misses or repeats semigroups")
        level = nxt
    return _report("trees", f"genus <= {g_max}", bad)
