"""Numerical semigroups encoded as membership bitmaps.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition, and leaves out only finitely many
integers.  The missing integers are the gaps, their number is the genus
g, the largest gap is the Frobenius number F, and the smallest non-zero
member is the multiplicity m.  Because F <= 2g - 1, membership on the
window [0, 2g+1] determines the whole set: every integer above 2g+1 is
a member.

``Semigroup`` therefore stores a single int whose bit i records whether
i is a member, plus the cached genus, Frobenius number and
multiplicity.  Values are immutable, hashable, and safe to share
between worker processes; every operation is a pure function.

The canonical textual form of a semigroup is its comma-separated gap
list ("1,2,3,6,7,11"; the empty string for the full set of non-negative
integers).  Parsing and formatting round-trip byte-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple


class NotClosed(ValueError):
    """A prospective gap set whose complement is not closed under addition.

    ``witness`` is a pair of non-zero members whose sum is a gap.
    """

    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(
            f"{a} + {b} = {a + b} is a gap, so the complement is not closed under addition"
        )


@dataclass(frozen=True)
class GapIntervalProfile:
    """Maximal runs of consecutive gaps, ascending; run lengths sum to the genus."""

    interval_count: int
    intervals: tuple[tuple[int, int], ...]


def _sum_bitmap(bitmap: int, genus: int) -> int:
    """Bitmap of all sums of two non-zero members, restricted to [0, 2g+1].

    Any sum x + y <= 2g+1 with x <= y forces x <= g, so shifting the
    non-zero-member bitmap by each member in [1, g] covers everything.
    """
    nonzero = bitmap & -2
    sums = 0
    e = bitmap & ((1 << (genus + 1)) - 2)  # members in [1, g]
    while e:
        low = e & -e
        sums |= nonzero << (low.bit_length() - 1)
        e ^= low
    return sums


def _ordinarize_bitmap(bitmap: int, genus: int) -> int:
    """The transform on a raw bitmap: swap the multiplicity for the Frobenius
    number; identity on the ordinary semigroup."""
    nonzero = bitmap & -2
    mult = (nonzero & -nonzero).bit_length() - 1
    if mult > genus:
        return bitmap
    frob = (~bitmap & ((1 << (2 * genus + 2)) - 1)).bit_length() - 1
    return (bitmap ^ (1 << mult)) | (1 << frob)


def _sum_witness(x: int, member: Callable[[int], object]) -> NotClosed:
    """NotClosed for the gap x, with the smallest a such that a and x - a
    are both members."""
    a = next(a for a in range(1, x // 2 + 1) if member(a) and member(x - a))
    return NotClosed(a, x - a)


class _Fields(NamedTuple):
    bitmap: int        # bit i set iff i is a member, 0 <= i <= 2*genus + 1
    genus: int
    frobenius: int     # largest gap, -1 when there are none
    multiplicity: int  # smallest non-zero member


class Semigroup(_Fields):
    """One numerical semigroup; construct via ``from_gaps`` / ``ordinary``.

    Calling ``Semigroup(bitmap, genus, frobenius, multiplicity)`` checks
    all four fields (``_make``, ``_replace`` and unpickling go through the
    same check); the internal constructors build unchecked values.
    """

    __slots__ = ()

    def __new__(cls, bitmap: int, genus: int, frobenius: int, multiplicity: int) -> "Semigroup":
        s = cls._from_bitmap(bitmap, genus, validate=True)
        if (frobenius, multiplicity) != (s.frobenius, s.multiplicity):
            raise ValueError(
                f"frobenius {frobenius} and multiplicity {multiplicity} do not match the"
                f" bitmap's {s.frobenius} and {s.multiplicity}"
            )
        return s

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Semigroup":
        return cls(*iterable)  # NamedTuple's skips the check; ``_replace`` calls this

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _from_bitmap(cls, bitmap: int, genus: int, validate: bool = False) -> "Semigroup":
        width = 2 * genus + 2
        mask = (1 << width) - 1
        gapbits = ~bitmap & mask
        frobenius = gapbits.bit_length() - 1
        nonzero = bitmap & -2
        multiplicity = (nonzero & -nonzero).bit_length() - 1
        if validate:
            if bitmap & ~mask or not bitmap & 1:
                raise ValueError("bitmap outside the [0, 2g+1] window or missing 0")
            if bitmap.bit_count() != genus + 2:
                raise ValueError(f"bitmap has {width - bitmap.bit_count()} gaps, expected {genus}")
            bad = _sum_bitmap(bitmap, genus) & gapbits
            if bad:
                raise _sum_witness((bad & -bad).bit_length() - 1, lambda y: (bitmap >> y) & 1)
        return tuple.__new__(cls, (bitmap, genus, frobenius, multiplicity))

    @classmethod
    def from_gaps(cls, gaps: Iterable[int]) -> "Semigroup":
        """Semigroup whose gap set is exactly ``gaps`` (strictly increasing).

        Raises ValueError for a malformed list and NotClosed (with the
        witness pair) when the complement is not additively closed.
        """
        gap_list = list(gaps)
        if any(not isinstance(x, int) or x < 1 for x in gap_list):
            raise ValueError("gaps must be positive integers")
        if any(b <= a for a, b in zip(gap_list, gap_list[1:])):
            raise ValueError("gaps must be strictly increasing")
        genus = len(gap_list)
        width = 2 * genus + 2
        bitmap = (1 << width) - 1
        for x in gap_list:
            if x < width:
                bitmap ^= 1 << x
        if not gap_list or gap_list[-1] < width:
            return cls._from_bitmap(bitmap, genus, validate=True)
        # A gap x > 2g+1 is a sum: the other g-1 gaps block at most 2g-2 of
        # the x-1 splits a + (x-a).  The witness is the smallest gap that is
        # a sum, so gaps inside the window are tried first.
        bad = _sum_bitmap(bitmap, genus) & ~bitmap & ((1 << width) - 1)
        x = (bad & -bad).bit_length() - 1 if bad else next(y for y in gap_list if y >= width)
        gap_set = set(gap_list)
        raise _sum_witness(x, lambda y: y not in gap_set)

    @classmethod
    def ordinary(cls, genus: int) -> "Semigroup":
        """The semigroup {0, g+1, g+2, ...} whose gaps are 1..g in a row."""
        if genus < 0:
            raise ValueError("genus must be non-negative")
        bitmap = ((1 << (2 * genus + 2)) - 1) ^ ((1 << (genus + 1)) - 2)
        return tuple.__new__(cls, (bitmap, genus, genus if genus else -1, genus + 1))

    @classmethod
    def from_gap_string(cls, text: str) -> "Semigroup":
        """Parse the canonical comma-separated gap list ("" is allowed)."""
        tokens = text.split(",") if text else []
        # int() alone would also take signs, spaces, "_" and non-ASCII digits
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"expected comma-separated ASCII digits, got {text!r}")
        return cls.from_gaps(list(map(int, tokens)))

    # ------------------------------------------------------------------
    # views

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x > 2 * self.genus + 1:
            return True
        return bool((self.bitmap >> x) & 1)

    __contains__ = contains

    def gaps(self) -> tuple[int, ...]:
        g = ~self.bitmap & ((1 << (2 * self.genus + 2)) - 1)
        out = []
        while g:
            low = g & -g
            out.append(low.bit_length() - 1)
            g ^= low
        return tuple(out)

    def gap_string(self) -> str:
        return ",".join(map(str, self.gaps()))

    def members_upto(self, limit: int) -> list[int]:
        """All members x with 0 <= x <= limit."""
        return [x for x in range(limit + 1) if self.contains(x)]

    def nth_member(self, i: int) -> int:
        """The i-th member in increasing order (the 0-th is 0)."""
        if i < 0:
            raise ValueError("index must be non-negative")
        if i > self.genus + 1:
            # beyond the window every integer is a member
            return 2 * self.genus + 1 + (i - self.genus - 1)
        bits = self.bitmap
        for _ in range(i):
            bits ^= bits & -bits
        return (bits & -bits).bit_length() - 1

    @property
    def is_ordinary(self) -> bool:
        """True when the gaps are exactly 1..g (this includes genus 0)."""
        return self.multiplicity > self.genus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Semigroup(gaps={self.gap_string()!r})"

    # ------------------------------------------------------------------
    # structure

    def minimal_generators(self) -> list[int]:
        """Non-zero members not expressible as a sum of two non-zero members.

        Generators never exceed 2g+1: anything larger splits as m plus a
        member beyond the Frobenius number.
        """
        nonzero = self.bitmap & -2
        gens = nonzero & ~_sum_bitmap(self.bitmap, self.genus)
        out = []
        while gens:
            low = gens & -gens
            out.append(low.bit_length() - 1)
            gens ^= low
        return out

    def ordinarize(self) -> "Semigroup":
        """Swap the multiplicity for the Frobenius number; identity on ordinary."""
        if self.is_ordinary:
            return self
        return Semigroup._from_bitmap(_ordinarize_bitmap(self.bitmap, self.genus), self.genus)

    def ordinarization_number(self) -> int:
        """Count of non-zero members <= g; equals the number of transform
        steps needed to reach the ordinary semigroup of the same genus."""
        return (self.bitmap & ((1 << (self.genus + 1)) - 2)).bit_count()

    def ordinarization_chain(self) -> list["Semigroup"]:
        """[self, self', self'', ..., ordinary]; length is one more than
        the ordinarization number."""
        chain = [self]
        while not chain[-1].is_ordinary:
            chain.append(chain[-1].ordinarize())
        return chain

    def gap_intervals(self) -> GapIntervalProfile:
        gapbits = ~self.bitmap & ((1 << (2 * self.genus + 2)) - 1)
        starts = gapbits & ~(gapbits << 1)
        ends = gapbits & ~(gapbits >> 1)
        runs = []
        while starts:
            lo = starts & -starts
            hi = ends & -ends
            runs.append((lo.bit_length() - 1, hi.bit_length() - 1))
            starts ^= lo
            ends ^= hi
        return GapIntervalProfile(interval_count=len(runs), intervals=tuple(runs))
