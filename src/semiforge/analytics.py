"""Closed-form counts, sumset structure, and finite-range verification.

Everything here is exact integer arithmetic.  The depth threshold
"r at least (g+2)/3" is always evaluated as 3r >= g + 2, never through
floating point.

The ``verify_*`` harnesses stream over the generator-removal tree and
return a ``VerificationReport``; a failed report carries the
lexicographically smallest counterexample (by genus, then gap list).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import closedsets, tree
from .semigroup import Semigroup, _ordinarize_bitmap


@dataclass(frozen=True)
class VerificationReport:
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


@dataclass(frozen=True)
class SumsetProfile:
    """|A+A| against the 2n-1 floor, with arithmetic-progression detection.

    ``is_arithmetic`` is computed from consecutive differences, not from
    the sumset, so the equality characterization stays a two-route check.
    """

    set_a: tuple[int, ...]
    sumset_size: int
    is_arithmetic: bool
    common_difference: Optional[int]


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

def sumset_profile(a: Sequence[int]) -> SumsetProfile:
    els = tuple(sorted(set(a)))
    if not els:
        raise ValueError("set must be non-empty")
    if els[0] < 0:
        raise ValueError("set must be non-negative")
    bits = 0
    for x in els:
        bits |= 1 << x
    acc = 0
    for x in els:
        acc |= bits << x
    diffs = {b - a for a, b in zip(els, els[1:])}
    arithmetic = len(diffs) <= 1
    d = diffs.pop() if len(diffs) == 1 else None
    return SumsetProfile(
        set_a=els,
        sumset_size=acc.bit_count(),
        is_arithmetic=arithmetic,
        common_difference=d,
    )


def freiman_progression_bound(a: Sequence[int]) -> Optional[int]:
    """If |A+A| <= 3k - 4 (k = |A| >= 3), the bound |A+A| - k + 1 on the
    length of an arithmetic progression containing A; None when the
    hypothesis fails.  The containment is verified before returning."""
    els = tuple(sorted(set(a)))
    k = len(els)
    if k < 3:
        raise ValueError("need at least 3 elements")
    size = sumset_profile(els).sumset_size
    if size > 3 * k - 4:
        return None
    bound = size - k + 1
    step = math.gcd(*(x - els[0] for x in els[1:]))
    span = (els[-1] - els[0]) // step + 1
    if span > bound:
        raise AssertionError(f"{els} spans {span} > promised progression length {bound}")
    return bound


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
    odd_positions = int("10" * (g_max + 1), 2) if g_max else 0
    for bitmap, g, _frob, r in tree._nodes(g_max):
        if not _high_depth(g, r):
            continue
        culprits = bitmap & odd_positions & ((1 << (g + 1)) - 2)
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
    for bitmap, g, _frob, r in tree._nodes(g_max):
        gapbits = ~bitmap & ((1 << (2 * g + 2)) - 1)
        n = (gapbits & ~(gapbits >> 1)).bit_count()
        gaps = None
        if r < n // 2:
            gaps = Semigroup._from_bitmap(bitmap, g).gaps()
            bad.add(g, gaps, f"r={r} < floor(n/2) with n={n}")
        if _high_depth(g, r) and n != 2 * r + (g & 1):
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
    worst: Optional[str] = None
    for g in range(g_max):
        for r, count in enumerate(matrix.row(g)):
            nxt = matrix.cell(g + 1, r)
            if count > nxt and worst is None:
                worst = f"n({g},{r})={count} > n({g + 1},{r})={nxt}"
    return VerificationReport("conjecture", f"genus <= {g_max}", worst is None, worst)


def high_depth_cross_check(g_max: int, *, workers: int = 1) -> VerificationReport:
    """Every high-depth cell of the count table must equal the closed-set
    sum for w = floor(g/2) - r."""
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    matrix = tree.count_matrix(g_max, workers=workers)
    f_cache: dict[int, int] = {}
    worst: Optional[str] = None
    for g in range(2, g_max + 1):
        for r in range(_min_high_r(g), g // 2 + 1):
            w = g // 2 - r
            if w not in f_cache:
                f_cache[w] = closedsets.f_value(w)
            got = matrix.cell(g, r)
            if got != f_cache[w] and worst is None:
                worst = f"n({g},{r})={got} != f({w})={f_cache[w]}"
    return VerificationReport("high-depth-cross-check", f"genus <= {g_max}", worst is None, worst)


def verify_bijection(g_max: int) -> VerificationReport:
    """Round-trip and counting checks for the high-depth pairing.

    For every g <= g_max and depth r with 3r >= g + 2: building from all
    (omega, B) pairs is injective, lands exactly on the enumerated
    semigroups of genus g and depth r, splitting is its two-sided
    inverse, and the image size matches both the count table and the
    closed-set sum."""
    if g_max < 2:
        raise ValueError("g_max must be >= 2")
    matrix = tree.count_matrix(g_max)
    deep: dict[tuple[int, int], set[int]] = {}
    for bitmap, g, _frob, r in tree._nodes(g_max):
        if _high_depth(g, r):
            deep.setdefault((g, r), set()).add(bitmap)
    pair_pool: dict[int, list[tuple[Semigroup, closedsets.ClosedSet]]] = {}
    worst: Optional[str] = None

    def note(text: str) -> None:
        nonlocal worst
        if worst is None:
            worst = text

    for g in range(2, g_max + 1):
        for r in range(_min_high_r(g), g // 2 + 1):
            w = g // 2 - r
            if w not in pair_pool:
                pool: list[tuple[Semigroup, closedsets.ClosedSet]] = []

                def collect(om: Semigroup, pool: list = pool) -> None:
                    pool.extend((om, b) for b in closedsets.closed_sets(om, om.genus + 1))

                tree.enumerate_genus(w, collect)
                pair_pool[w] = pool
            pairs = [closedsets.PairDecomposition(om, b, g) for om, b in pair_pool[w]]
            built = [closedsets.build_from_pair(p) for p in pairs]
            image = {s.bitmap for s in built}
            want = deep.get((g, r), set())
            if len(image) != len(built):
                note(f"g={g} r={r}: pairing not injective")
                continue
            if image != want or len(built) != matrix.cell(g, r):
                note(f"g={g} r={r}: image size {len(built)} vs table {matrix.cell(g, r)}")
                continue
            for p, s in zip(pairs, built):
                back = closedsets.decompose(s)
                if back.omega != p.omega or back.b.elements != p.b.elements:
                    note(f"g={g} r={r}: decompose does not invert build on {s.gap_string()}")
                elif closedsets.build_from_pair(back) != s:
                    note(f"g={g} r={r}: build does not invert decompose on {s.gap_string()}")
    return VerificationReport(
        "bijection", f"genus <= {g_max}, depth 3r >= g+2", worst is None, worst
    )


# ----------------------------------------------------------------------
# relations between the two trees

def _raw_adjoin_frobenius(bitmap: int, g: int) -> int:
    """Parent in the generator-removal tree: genus drops to g - 1."""
    mask = (1 << (2 * g + 2)) - 1
    frob = (~bitmap & mask).bit_length() - 1
    return (bitmap | (1 << frob)) & ((1 << (2 * g)) - 1)


def verify_tree_relations(g_max: int) -> VerificationReport:
    """Cross-checks between the generator-removal tree and the fixed-genus
    trees, for every genus <= g_max:

    - the breadth-first depth profile of the fixed-genus tree matches the
      enumeration grouped by ordinarization number, on the same node set,
      and each edge child ordinarizes to its parent;
    - transforms of a parent/child pair in the generator-removal tree
      stay parent/child there (adjoining the Frobenius number of the
      child's transform gives the parent's transform);
    - non-ordinary children of one node all share the same transform.
    """
    if g_max < 0:
        raise ValueError("g_max must be non-negative")
    bad = _Counterexamples()

    for g in range(g_max + 1):
        # genus g is reached as the children of each genus g-1 node, so the
        # lemmas below see every edge into genus g, siblings together
        expected_nodes = {tree._ROOT[0]} if g == 0 else set()
        for bitmap, pg, frob, _r in tree._nodes(g - 1):
            if pg != g - 1:
                continue
            parent_t = _ordinarize_bitmap(bitmap, pg)
            transforms = []
            for child, *_ in tree._children(bitmap, pg, frob, 0):
                expected_nodes.add(child)
                child_t = _ordinarize_bitmap(child, g)
                if _raw_adjoin_frobenius(child_t, g) != parent_t:
                    bad.add(g, Semigroup._from_bitmap(child, g).gaps(), "transform left the ancestor line")
                cm = ((child & -2) & -(child & -2)).bit_length() - 1
                if cm <= g:  # non-ordinary child
                    transforms.append((child_t, child))
            for (t, c) in transforms[1:]:
                if t != transforms[0][0]:
                    bad.add(g, Semigroup._from_bitmap(c, g).gaps(), "siblings transform to different parents")
        expected_row = [0] * (g // 2 + 1)
        for bm in expected_nodes:
            expected_row[(bm & ((1 << (g + 1)) - 2)).bit_count()] += 1
        seen = {Semigroup.ordinary(g).bitmap}
        row = [1]
        for parents, children in tree._tg_levels(g):
            row.append(len(children))
            seen.update(children)
            for parent, child in zip(parents, children):
                if _ordinarize_bitmap(child, g) != parent:
                    bad.add(g, Semigroup._from_bitmap(child, g).gaps(), "edge child does not transform to parent")
        row += [0] * (len(expected_row) - len(row))
        if row != expected_row:
            bad.add(g, (), f"depth profile {row} != enumeration {expected_row}")
        if seen != expected_nodes:
            bad.add(g, (), "fixed-genus tree misses or repeats semigroups")
    return _report("trees", f"genus <= {g_max}", bad)
