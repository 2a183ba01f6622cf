"""Translation-closed finite sets and the high-depth pairing.

A finite set B is closed over a semigroup O when b + x lands in B or
beyond max(B) for every b in B and every member x of O.  Subtracting
min(B) preserves the property, so the canonical representatives contain
0.

These sets classify the semigroups that sit deep in the fixed-genus
tree.  Whenever the ordinarization number r of a genus-g semigroup
satisfies 3r >= g + 2, its members up to g are all even, its even
members halve to a semigroup O of genus w = floor(g/2) - r, and its odd
members below 2g shift down to an O-closed set B of size w + 1.  The
inverse map doubles O, plants B against the top of the window, and
fills in everything from 2g on:

    {2j : j in O}  |  {2j - 2 max(B) + 2g + 1 : j in B}  |  {2g, 2g+1, ...}

Both directions are implemented and are exact inverses; the number of
genus-g semigroups at depth r therefore depends only on w, giving the
sequence summed here by ``f_value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .semigroup import Semigroup
from .tree import _fork_map, _nodes, _resolve_workers


class PreconditionViolated(ValueError):
    """The depth threshold 3r >= g + 2 does not hold, so the pairing is
    not guaranteed."""


def is_closed_set(omega: Semigroup, elements: Iterable[int]) -> bool:
    """Definition-level check: every b + x with x in omega is in the set or
    exceeds its maximum.  Used as the independent oracle for the pruned
    enumerator."""
    els = sorted(set(elements))
    if not els:
        raise ValueError("elements must be non-empty")
    if els[0] < 0:
        raise ValueError("elements must be non-negative")
    top = els[-1]
    member = set(els)
    for b in els:
        for x in range(1, top - b + 1):
            if omega.contains(x) and (b + x) not in member and (b + x) <= top:
                return False
    return True


@dataclass(frozen=True)
class ClosedSet:
    """A translation-closed set over ``base``, canonical (minimum 0)."""

    base: Semigroup
    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements or self.elements[0] != 0:
            raise ValueError("elements must be non-empty with minimum 0")
        if any(b <= a for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")
        if not is_closed_set(self.base, self.elements):
            raise ValueError(f"{self} is not closed over its base semigroup")

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


@dataclass(frozen=True)
class PairDecomposition:
    """A base semigroup of genus w together with a closed set of size w+1,
    standing for one genus-g semigroup of depth floor(g/2) - w."""

    omega: Semigroup
    b: ClosedSet
    g: int

    def __post_init__(self):
        if len(self.b.elements) != self.omega.genus + 1:
            raise ValueError("closed set must have size genus(omega) + 1")

    @property
    def r(self) -> int:
        return self.g // 2 - self.omega.genus


# ----------------------------------------------------------------------
# enumeration

def _extended_members(omega: Semigroup, upto: int) -> int:
    """Membership bitmap of omega on [0, upto] (window plus implicit tail)."""
    width = 2 * omega.genus + 2
    bits = omega.bitmap
    if upto >= width:
        bits |= ((1 << (upto - width + 2)) - 1) << width
    return bits & ((1 << (upto + 1)) - 1)


def _closed_element_sets(omega: Semigroup, size: int) -> list[tuple[int, ...]]:
    """All closed sets of the given size containing 0, unsorted.

    Grouped by maximum M.  Members of omega below M are forced in by
    closure at 0, which both prunes the search and bounds M: past the
    (size-1)-th member of omega the forced part alone overflows the
    size, so M never exceeds 2 * genus for size = genus + 1.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size == 1:
        return [(0,)]
    out: list[tuple[int, ...]] = []
    for top in range(size - 1, omega.nth_member(size - 1) + 1):
        members = _extended_members(omega, top)
        below = members & ((1 << top) - 1)
        forced = below.bit_count() + 1
        need = size - forced
        if need < 0:
            continue
        free = []
        gapbits = ~below & ((1 << top) - 2)
        while gapbits:
            low = gapbits & -gapbits
            free.append(low.bit_length() - 1)
            gapbits ^= low
        if need > len(free):
            continue
        free.reverse()  # decide larger candidates first
        nonzero = members & -2
        top_mask = (1 << top) - 1
        base_bits = below | (1 << top)
        found: list[int] = []

        def descend(idx: int, chosen: int, have: int) -> None:
            if have == size:
                found.append(chosen)
                return
            if len(free) - idx < size - have:
                return
            x = free[idx]
            # including x forces x + member positions below top, all of
            # which are already decided because they exceed x
            if not ((nonzero << x) & top_mask) & ~(members | chosen):
                descend(idx + 1, chosen | (1 << x), have + 1)
            descend(idx + 1, chosen, have)

        descend(0, base_bits, forced)
        for bits in found:
            els = []
            while bits:
                low = bits & -bits
                els.append(low.bit_length() - 1)
                bits ^= low
            out.append(tuple(els))
    return out


def closed_sets(omega: Semigroup, size: int) -> list[ClosedSet]:
    """Every closed set over omega of the given size containing 0, in
    lexicographic order."""
    return [ClosedSet(omega, els) for els in sorted(_closed_element_sets(omega, size))]


def count_closed_sets(omega: Semigroup, size: int) -> int:
    return len(_closed_element_sets(omega, size))


def _f_worker(payload: tuple[list[int], int]) -> int:
    bitmaps, genus = payload
    total = 0
    for bm in bitmaps:
        omega = Semigroup._from_bitmap(bm, genus)
        total += count_closed_sets(omega, genus + 1)
    return total


def f_value(omega_genus: int, *, workers: int = 1) -> int:
    """Sum of the closed-set counts of size w+1 over every semigroup of
    genus w.  Equals the number of genus-g semigroups at depth r whenever
    3r >= g + 2 and w = floor(g/2) - r."""
    if omega_genus < 0:
        raise ValueError("genus must be non-negative")
    bitmaps = [bm for bm, g, _frob, _r in _nodes(omega_genus) if g == omega_genus]
    workers = _resolve_workers(workers)
    if workers <= 1 or len(bitmaps) < 4 * workers:
        return _f_worker((bitmaps, omega_genus))
    return sum(_fork_map(_f_worker, bitmaps, omega_genus, workers))


# ----------------------------------------------------------------------
# the pairing

def build_from_pair(pair: PairDecomposition) -> Semigroup:
    """Rebuild the genus-g semigroup encoded by (omega, B).

    Raises PreconditionViolated below the depth threshold, where the
    construction is not guaranteed to have the stated depth.
    """
    g = pair.g
    w = pair.omega.genus
    r = g // 2 - w
    if 3 * r < g + 2:
        raise PreconditionViolated(f"need 3r >= g + 2, got r={r} for g={g}")
    top = 2 * g + 1
    bitmap = (1 << (2 * g)) | (1 << top)
    members = _extended_members(pair.omega, g)
    while members:
        low = members & -members
        bitmap |= 1 << (2 * (low.bit_length() - 1))
        members ^= low
    shift = top - 2 * pair.b.elements[-1]
    for j in pair.b.elements:
        bitmap |= 1 << (2 * j + shift)
    built = Semigroup._from_bitmap(bitmap, g, validate=True)
    if built.ordinarization_number() != r:
        raise AssertionError(f"built semigroup has wrong depth: {built!r}")
    return built


def decompose(s: Semigroup) -> PairDecomposition:
    """Split a deep semigroup into its (omega, B) pair; exact inverse of
    ``build_from_pair``.

    The side conditions established along the way (the halved even
    members form a semigroup of the right genus with small Frobenius
    number, the shifted odd members form a closed set of the right size)
    are re-verified and fail loudly if violated.
    """
    g = s.genus
    r = s.ordinarization_number()
    if 3 * r < g + 2:
        raise PreconditionViolated(f"need 3r >= g + 2, got r={r} for g={g}")
    w = g // 2 - r
    obitmap = 0
    for i in range(2 * w + 2):
        if s.contains(2 * i):
            obitmap |= 1 << i
    omega = Semigroup._from_bitmap(obitmap, w, validate=True)  # genus enforced by bit count
    if omega.frobenius > g // 2:
        raise ValueError(f"halved even members have Frobenius {omega.frobenius} > {g // 2}")
    odd = [j for j in range(1, 2 * g, 2) if s.contains(j)]
    shifted = [(j - 1) // 2 for j in odd] + [g]
    els = tuple(x - shifted[0] for x in shifted)
    if len(els) != w + 1:
        raise ValueError(f"odd members give a set of size {len(els)}, expected {w + 1}")
    return PairDecomposition(omega=omega, b=ClosedSet(omega, els), g=g)
