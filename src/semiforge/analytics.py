"""Closed-form counts, sumset structure, and finite-range verification.

Everything here is exact integer arithmetic.  The depth threshold
"r at least (g+2)/3" is always evaluated as 3r >= g + 2, never through
floating point.

Each harness returns a ``VerificationReport`` that names one failure:
the tree walks (``verify_parity_lemma``, ``verify_interval_theorem``,
``verify_tree_relations``) the smallest by (genus, gap list),
``verify_sumset_bound`` the smallest set by (size, elements), and the
table-cell checks (``check_conjecture``, ``verify_bijection``) the first
failing (g, r) cell, by g, then r.  The parity and interval checks are
decided on a histogram of the tree and walk it only to name a failure;
a failing histogram cell in which the walk finds no semigroup is
reported as that cell.
"""

from __future__ import annotations

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

def _failing_cell(g_max: int, workers: int, fails) -> Optional[tuple[int, int, int, int]]:
    """The first cell (g, r, n, odd) of ``tree._histogram(g_max)``, by g,
    r, n, odd, that holds a semigroup and on which ``fails(g, r, n, odd)``
    is true; None where there is none."""
    for g, row in enumerate(tree._histogram(g_max, workers=workers)):
        for r, cells in enumerate(row):
            for i, count in enumerate(cells):
                if count and fails(g, r, i >> 1, i & 1):
                    return g, r, i >> 1, i & 1
    return None


def _cell_report(name: str, rng: str, bad: _Counterexamples, cell: tuple[int, int, int, int]) -> VerificationReport:
    """The failing report of a check whose histogram ``cell`` fails: the
    smallest counterexample the walk found, else the cell itself."""
    if bad.best is None:
        g, r, n, odd = cell
        why = f"histogram cell g={g} r={r} n={n} odd={odd} fails, but the walk finds no semigroup in it"
        return VerificationReport(name, rng, False, why)
    return _report(name, rng, bad)


def verify_parity_lemma(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Members <= g are all even whenever the depth satisfies 3r >= g + 2.

    Decided on ``tree._histogram``: it passes when no high-depth cell
    holds a semigroup with an odd member <= g.  Otherwise the walk of the
    generator-removal tree (``tree._nodes``) names the smallest
    counterexample."""
    rng = f"genus <= {g_max}, depth 3r >= g+2"
    cell = _failing_cell(g_max, workers, lambda g, r, n, odd: odd and _high_depth(g, r))
    if cell is None:
        return VerificationReport("parity", rng, True)
    bad = _Counterexamples()
    for bitmap, g, r in tree._nodes(g_max):
        culprits = bitmap & tree._odd_low(g)
        if culprits and _high_depth(g, r):
            x = (culprits & -culprits).bit_length() - 1
            bad.add(g, Semigroup._from_bitmap(bitmap, g).gaps(), f"odd member {x} <= g={g}")
    return _cell_report("parity", rng, bad, cell)


def _interval_faults(g: int, r: int, n: int) -> list[str]:
    """The statements of ``verify_interval_theorem`` that a semigroup of
    genus g, depth r and n gap intervals breaks, as report details."""
    faults = []
    if r < n // 2:
        faults.append(f"r={r} < floor(n/2) with n={n}")
    if _high_depth(g, r) and n != 2 * r + (g & 1):
        faults.append(f"high depth r={r} but n={n}")
    if 3 * (n // 2) >= g + 2 and ((g - n) & 1 or r != n // 2):
        faults.append(f"n={n} high but r={r}, genus parity {g & 1}")
    return faults


def verify_interval_theorem(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Three statements tying gap-interval counts n to tree depth r:
    (i) r >= floor(n/2) always, (ii) high depth forces n = 2r or 2r + 1
    according to the parity of g, (iii) a high interval count forces the
    parity match and r = floor(n/2) exactly.

    Decided on ``tree._histogram``: it passes when no cell (g, r, n) that
    holds a semigroup breaks one.  Otherwise the walk of the
    generator-removal tree (``tree._nodes``) names the smallest
    counterexample."""
    rng = f"genus <= {g_max}"
    cell = _failing_cell(g_max, workers, lambda g, r, n, odd: _interval_faults(g, r, n))
    if cell is None:
        return VerificationReport("intervals", rng, True)
    bad = _Counterexamples()
    for bitmap, g, r in tree._nodes(g_max):
        faults = _interval_faults(g, r, tree._gap_intervals(bitmap, g))
        if faults:
            gaps = Semigroup._from_bitmap(bitmap, g).gaps()
            for detail in faults:
                bad.add(g, gaps, detail)
    return _cell_report("intervals", rng, bad, cell)


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


def verify_bijection(g_max: int) -> VerificationReport:
    """Round-trip and counting checks for the high-depth pairing.

    For every g <= g_max and depth r with 3r >= g + 2, building from all
    (omega, B) pairs with omega of genus w = floor(g/2) - r is injective,
    lands exactly on the semigroups of genus g at depth r, and splitting
    is its two-sided inverse.  Three engines agree on each such cell:

    - the count table, ``tree.count_matrix``, gives its size n(g, r);
    - the pair listing is ``tree.enumerate_genus(w)`` times
      ``closedsets.closed_sets`` of size w + 1, built once per w;
    - the closed-set count ``closedsets.f_value(w)`` must equal the
      listing's length when the listing is built.

    The image is the whole cell with no walk of it: each built semigroup
    is checked here to be a semigroup of genus g and depth r, so the image
    lies in the cell; the pairing is injective, so the image has as many
    members as there are pairs; and that is n(g, r), the cell's size.

    The pairing's checks raise ValueError or AssertionError exactly when
    a side condition fails: that is the cell's counterexample."""
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    matrix = tree.count_matrix(g_max)
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
                    f = closedsets.f_value(w)
                    if len(pair_pool[w]) != f:
                        return fail(f"{len(pair_pool[w])} pairs vs f({w}) = {f}")
                pairs = [closedsets.PairDecomposition(om, b, g) for om, b in pair_pool[w]]
                built = [closedsets.build_from_pair(p) for p in pairs]
                for s in built:
                    if s.genus != g or s.ordinarization_number() != r:
                        return fail(f"built {s.gap_string()} has genus {s.genus} and depth {s.ordinarization_number()}")
                    Semigroup._from_bitmap(s.bitmap, g, validate=True)  # raises unless a semigroup
                if len({s.bitmap for s in built}) != len(built):
                    return fail("pairing not injective")
                if len(built) != matrix.cell(g, r):
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
    """Whether ``verify_tree_relations(g_max)`` passes, decided genus by
    genus to g_max <= 31 by one call of the compiled ``semiforge_tg_sweep``,
    which walks and checks the fixed-genus tree in C; False as soon as one
    fails.  Raises MemoryError where the sweep cannot allocate its levels."""
    size = 1  # n(g): the children in T of genus g - 1, the root at genus 0
    for g in range(g_max + 1):
        size = tree._kernel.semiforge_tg_sweep(g, g < g_max, size)
        if size == -2:
            raise MemoryError(f"the compiled trees check could not allocate the levels of genus {g}")
        if size < 0:
            return False
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
    the compiled ``_trees_hold`` decides first, for every genus from 0,
    and the loop below runs only when it fails, to write the report; so
    every report comes from the loop.  A compiled pass implies the loop's,
    genus by genus, on the walk that ``semiforge_tg_level`` makes, which
    is the loop's from ``tree._COMPILED_TG_MIN_GENUS`` on; below it the
    loop walks ``tree._tg_level``, which ``tests/test_kernel.py`` holds
    level by level to that function.  Let
    W be the nodes of the walk of genus g that ``semiforge_tg_sweep``
    makes from the ordinary root, checking every node of each level as
    the level is made; by induction, W of genus g - 1 was every semigroup
    of its genus once, with its true effs, and ``level`` is all of genus
    g.  The kernel requires of each node at depth d (the root, its own
    parent, at depth 0):

    - 0 and g + 2 members in [0, 2g + 1], none above, and every sum in
      that window a member: it is a semigroup of genus g, on which the
      Python transform does not raise;
    - its transform is its parent, d non-zero members <= g, and 2d <= g;
    - a parent index no smaller than the node's before, and if equal, a
      larger (multiplicity, Frobenius number); at depth 0, one node;
    - below g_max, the eff of ``_effective_generators``, and the ancestor
      line and sibling lemma on the children in T it makes, with the eff
      and transform of ``_expand_checked``.

    Equal nodes have equal transforms, so by induction on depth the same
    parent and the same key: W repeats nothing.  The sweep of genus g - 1
    returns the sum of the popcounts of its effs, which are true, and the
    sweep of genus g compares |W| with it in C, so |W| = n(g) and W is all
    of genus g.  So the walk removes each member of ``level`` once and
    expands it; ``level`` ends empty, sum(row) = |W| = sum(expected_row),
    row[d] = expected_row[d] by the depth check, and ``nxt``, made from
    the true effs, is all of genus g + 1.
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
