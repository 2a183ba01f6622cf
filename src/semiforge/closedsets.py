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
sequence summed here by ``f_value``.  Listing and counting share one
pruned descent over membership bitmaps, but counting never lists: it
tallies the last choice in place and builds no set.  ``f_value`` walks
the tasks of ``count_matrix(w)`` and counts each genus-w semigroup where
the walk makes it: by ``semiforge_f_value`` in ``_kernel.c`` for w <= 31
where it loads, else by ``_subtree`` and this descent, with one result.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .semigroup import Semigroup
from .tree import (
    _F_MIN_TASKS, _WORD_GMAX, Claims, Node, _compiled_kernel, _run_tasks, _spine_tasks, _subtree, _walk_compiled,
)


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


class _ClosedSetFields(NamedTuple):
    base: Semigroup
    elements: tuple[int, ...]


class ClosedSet(_ClosedSetFields):
    """A translation-closed set over ``base``, canonical (minimum 0);
    checked on every build, as ``Semigroup`` is."""

    __slots__ = ()

    def __new__(cls, base: Semigroup, elements: tuple[int, ...]) -> "ClosedSet":
        self = super().__new__(cls, base, elements)
        if not elements or elements[0] != 0:
            raise ValueError("elements must be non-empty with minimum 0")
        if any(b <= a for a, b in zip(elements, elements[1:])):
            raise ValueError("elements must be strictly increasing")
        if not is_closed_set(base, elements):
            raise ValueError(f"{self} is not closed over its base semigroup")
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "ClosedSet":
        return cls(*iterable)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.elements)) + "}"


class _PairFields(NamedTuple):
    omega: Semigroup
    b: ClosedSet
    g: int


class PairDecomposition(_PairFields):
    """A base semigroup of genus w together with a closed set of size w+1,
    standing for one genus-g semigroup of depth floor(g/2) - w."""

    __slots__ = ()

    def __new__(cls, omega: Semigroup, b: ClosedSet, g: int) -> "PairDecomposition":
        if b.base != omega:
            raise ValueError("closed set must be closed over omega")
        if len(b.elements) != omega.genus + 1:
            raise ValueError("closed set must have size genus(omega) + 1")
        return super().__new__(cls, omega, b, g)

    @classmethod
    def _make(cls, iterable: Iterable) -> "PairDecomposition":
        return cls(*iterable)

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


def _descend(reqs: list[int], bits: list[int], idx: int, chosen: int, left: int,
             found: list[int] | None) -> int:
    """Count the ways to add ``left`` more of the candidates from ``idx``
    on to ``chosen``, appending each completed bitmap to ``found`` unless
    it is None.  Candidate j is admissible when its required mask is
    already chosen; the last choice is tallied in this loop, never
    recursed into."""
    nc = ~chosen
    total = 0
    for j in range(idx, len(reqs) - left + 1):
        if not reqs[j] & nc:
            if left > 1:
                total += _descend(reqs, bits, j + 1, chosen | bits[j], left - 1, found)
            else:
                total += 1
                if found is not None:
                    found.append(chosen | bits[j])
    return total


def _closed_masks(omega: Semigroup, size: int, found: list[int] | None) -> int:
    """Count the closed sets of the given size containing 0, appending each
    one's membership bitmap to ``found`` unless it is None.

    Grouped by maximum top.  Members of omega below top are forced in by
    closure at 0, which both prunes the search and bounds top: past the
    (size-1)-th member of omega the forced part alone overflows the
    size, so top never exceeds 2 * genus for size = genus + 1.  The free
    candidates are the gaps below top, decided largest first; including x
    requires x + m for every nonzero member m that lands below top, and
    those positions all exceed x, so they are decided before x is.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    total = 0
    for top in range(size - 1, omega.nth_member(size - 1) + 1):
        members = _extended_members(omega, top)
        top_mask = (1 << top) - 1
        below = members & top_mask
        base = below | (1 << top)
        need = size - base.bit_count()
        if need == 0:
            total += 1
            if found is not None:
                found.append(base)
        elif need > 0:
            free = [x for x in range(top - 1, 0, -1) if not below >> x & 1]
            nonzero = members & -2
            reqs = [(nonzero << x) & top_mask & ~members for x in free]
            total += _descend(reqs, [1 << x for x in free], 0, base, need, found)
    return total


def closed_sets(omega: Semigroup, size: int) -> list[ClosedSet]:
    """Every closed set over omega of the given size containing 0, in
    lexicographic order."""
    found: list[int] = []
    _closed_masks(omega, size, found)
    tuples = (tuple(x for x in range(bits.bit_length()) if bits >> x & 1) for bits in found)
    return [ClosedSet(omega, els) for els in sorted(tuples)]


def count_closed_sets(omega: Semigroup, size: int) -> int:
    """The number of closed sets ``closed_sets`` would list, counted
    without building any of them."""
    return _closed_masks(omega, size, None)


def _f_worker(payload: tuple[Iterable[Node], int]) -> int:
    tasks, w = payload
    nodes = (bitmap for task in tasks for bitmap, g, _r, _eff, _rev in _subtree(task, w, w) if g == w)
    return sum(count_closed_sets(Semigroup._from_bitmap(bitmap, w), w + 1) for bitmap in nodes)


def _f_worker_compiled(payload: tuple[Claims, int]) -> int:
    """``_f_worker`` on the compiled kernel, whose walk to w <= 31 makes the tasks of ``f_value(w)``."""
    return _walk_compiled("semiforge_f_value", payload, 1, _WORD_GMAX)[0]


def f_value(omega_genus: int, *, workers: int = 1) -> int:
    """Sum of the closed-set counts of size w+1 over every semigroup of genus w: those under the tasks
    of ``count_matrix(w)``, and the ordinary one, one task more.  Equals the number of genus-g
    semigroups at depth r whenever 3r >= g + 2 and w = floor(g/2) - r."""
    if omega_genus < 0:
        raise ValueError("genus must be non-negative")
    w = omega_genus
    compiled = w <= _WORD_GMAX and _compiled_kernel() is not None
    worker = _f_worker_compiled if compiled else _f_worker
    tasks = range(w * (w - 1) // 2 + 1) if compiled else [*_spine_tasks(w), (Semigroup.ordinary(w).bitmap, w, 0)]
    return sum(_run_tasks(worker, tasks, w, workers, compiled, _F_MIN_TASKS))


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
