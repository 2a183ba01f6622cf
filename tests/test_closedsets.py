"""Closed-set enumeration against a brute-force oracle, the counting
sequence, and the high-depth pairing."""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from semiforge import (
    PreconditionViolated,
    Semigroup,
    decompose,
    enumerate_genus,
    f_value,
    max_ordinarization_attainer,
    tree,
)
from semiforge.closedsets import (
    ClosedSet,
    PairDecomposition,
    build_from_pair,
    closed_sets,
    count_closed_sets,
    is_closed_set,
)
from conftest import members_upto
from reference_tables import COUNTS_BY_GENUS, F_SEQUENCE

N0 = Semigroup.from_gaps([])
G1 = Semigroup.ordinary(1)  # {0, 2, 3, ...}


def brute_closed_sets(omega: Semigroup, size: int, window: int) -> list[tuple[int, ...]]:
    """Filter every candidate subset of [0, window] through the
    definition-level predicate."""
    out = []
    for rest in itertools.combinations(range(1, window + 1), size - 1):
        els = (0,) + rest
        if is_closed_set(omega, els):
            out.append(els)
    return out


def all_of_genus(g: int) -> list[Semigroup]:
    out: list[Semigroup] = []
    enumerate_genus(g, out.append)
    return out


# ----------------------------------------------------------------------
# the predicate

def test_is_closed_set_examples():
    assert is_closed_set(N0, {0})
    assert is_closed_set(G1, {0, 2})
    assert is_closed_set(G1, {0, 2, 3})
    assert not is_closed_set(N0, {0, 2})  # 0 + 1 = 1 is missing and below 2
    assert not is_closed_set(G1, {0, 1, 4})  # 1 + 2 = 3 is missing and below 4
    with pytest.raises(ValueError):
        is_closed_set(N0, set())
    with pytest.raises(ValueError):
        is_closed_set(N0, {-1, 0})


def test_closed_set_type_validates():
    ClosedSet(G1, (0, 2))
    with pytest.raises(ValueError):
        ClosedSet(G1, (2, 0))
    with pytest.raises(ValueError):
        ClosedSet(G1, (1, 2))
    with pytest.raises(ValueError):
        ClosedSet(N0, (0, 2))
    assert str(ClosedSet(G1, (0, 2))) == "{0,2}"


# ----------------------------------------------------------------------
# enumeration

def test_closed_sets_examples():
    assert [c.elements for c in closed_sets(N0, 1)] == [(0,)]
    assert [c.elements for c in closed_sets(G1, 2)] == [(0, 1), (0, 2)]
    assert sum(len(closed_sets(om, 4)) for om in all_of_genus(3)) == 23


def test_closed_sets_match_brute_force():
    # window 3w + 4 comfortably exceeds the 2w reach of any closed set,
    # so exact agreement with the brute filter is also a window check
    for w in range(5):
        for om in all_of_genus(w):
            for size in range(1, w + 3):
                expect = sorted(brute_closed_sets(om, size, 3 * w + 4))
                got = [c.elements for c in closed_sets(om, size)]
                assert got == expect, (om, size)
                assert count_closed_sets(om, size) == len(expect)


def test_count_matches_listing_through_genus_8():
    for w in range(9):
        for om in all_of_genus(w):
            for size in range(1, w + 3):
                assert count_closed_sets(om, size) == len(closed_sets(om, size)), (om, size)
    with pytest.raises(ValueError):
        count_closed_sets(G1, 0)


def test_widened_window_finds_nothing_new():
    # brute search over [0, 3w] at the size the pairing uses
    for w in (5, 6):
        for om in all_of_genus(w):
            expect = sorted(brute_closed_sets(om, w + 1, 3 * w))
            got = [c.elements for c in closed_sets(om, w + 1)]
            assert got == expect
            assert all(els[-1] <= 2 * w for els in expect)


def test_max_element_bound_through_genus_8():
    # every enumerated set stays within [0, 2w]; past 2w the members of
    # the base semigroup below the maximum already overflow the size, so
    # no candidate of size w+1 can exist (checked by direct count)
    for w in range(1, 9):
        for om in all_of_genus(w):
            for c in closed_sets(om, w + 1):
                assert c.elements[-1] <= min(2 * w, om.nth_member(w))
            for top in range(2 * w + 1, 3 * w + 1):
                forced = sum(1 for x in range(top) if om.contains(x))
                assert forced + 1 > w + 1


def test_f_sequence_prefix():
    assert [f_value(w) for w in range(9)] == F_SEQUENCE[:9]


def test_f_value_workers_deterministic(fork_calls, python_kernel):
    # the w(w - 1)/2 tasks of count_matrix(w) and the ordinary semigroup;
    # the Python walk forks from genus 9, on the f-value floor
    assert 8 * 7 // 2 + 1 < tree._F_MIN_TASKS[0] <= 9 * 8 // 2 + 1
    assert [f_value(w, workers=2) for w in (9, 10)] == F_SEQUENCE[9:11]
    assert fork_calls == [(37, 2), (46, 2)]
    assert f_value(8, workers=2) == F_SEQUENCE[8]
    assert len(fork_calls) == 2  # the 29 tasks of genus 8 stay serial


@pytest.mark.parametrize("w", [12, 13])
def test_f_value_pooled_at_12_and_13(w, fork_calls, python_kernel):
    assert f_value(w, workers=2) == F_SEQUENCE[w]
    assert fork_calls == [(w * (w - 1) // 2 + 1, 2)]


# ----------------------------------------------------------------------
# the pairing

def test_build_from_pair_examples():
    hyper6 = build_from_pair(PairDecomposition(N0, ClosedSet(N0, (0,)), 6))
    assert hyper6 == max_ordinarization_attainer(6)
    assert members_upto(hyper6, 13) == [0, 2, 4, 6, 8, 10, 12, 13]

    s20 = build_from_pair(PairDecomposition(G1, ClosedSet(G1, (0, 2)), 20))
    assert s20.genus == 20 and s20.ordinarization_number() == 9

    built = set()
    for om in all_of_genus(2):
        for b in closed_sets(om, 3):
            built.add(build_from_pair(PairDecomposition(om, b, 20)))
    assert len(built) == 7
    assert all(s.genus == 20 and s.ordinarization_number() == 8 for s in built)


def test_build_from_pair_threshold():
    # w = 2, g = 10 gives r = 3 and 3r = 9 < 12
    om = all_of_genus(2)[0]
    b = closed_sets(om, 3)[0]
    with pytest.raises(PreconditionViolated):
        build_from_pair(PairDecomposition(om, b, 10))


def test_pair_type_validates_size():
    with pytest.raises(ValueError):
        PairDecomposition(G1, ClosedSet(G1, (0,)), 20)
    # (0, 1, 3) is closed over {0, 3, 4, ...} but not over {0, 2, 4, 5, ...}
    o1, o2 = Semigroup.from_gaps([1, 2]), Semigroup.from_gaps([1, 3])
    with pytest.raises(ValueError):
        PairDecomposition(o2, ClosedSet(o1, (0, 1, 3)), 20)


def test_closed_set_and_pair_builders_check_their_fields():
    # NamedTuple's own builders go through the constructors' checks
    single = ClosedSet(N0, (0,))
    with pytest.raises(ValueError):
        single._replace(elements=(0, 2))  # 0 + 1 = 1 is missing
    with pytest.raises(ValueError):
        ClosedSet._make((N0, (0, 2)))
    pair = decompose(max_ordinarization_attainer(6))
    with pytest.raises(ValueError):
        pair._replace(b=ClosedSet(G1, (0,)))  # closed over G1, not over omega = N0
    with pytest.raises(ValueError):
        PairDecomposition._make((G1, ClosedSet(G1, (0,)), 20))
    for record in (single, pair):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], G1)
        assert record._replace() == record and type(record._replace()) is type(record)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and hash(back) == hash(record) and type(back) is type(record)
    assert pair == PairDecomposition(N0, single, 6) and pair != PairDecomposition(N0, single, 7)


def test_decompose_examples():
    pair = decompose(max_ordinarization_attainer(6))
    assert pair.omega == N0 and pair.b.elements == (0,) and pair.r == 3

    with pytest.raises(PreconditionViolated):
        decompose(Semigroup.ordinary(6))  # r = 0


def test_round_trip_exhaustive():
    for g in range(2, 19):
        for s in all_of_genus(g):
            r = s.ordinarization_number()
            if 3 * r < g + 2:
                continue
            pair = decompose(s)
            assert pair.omega.genus == g // 2 - r
            assert build_from_pair(pair) == s


@st.composite
def valid_pairs(draw):
    w = draw(st.integers(min_value=0, max_value=3))
    omegas = all_of_genus(w)
    om = omegas[draw(st.integers(min_value=0, max_value=len(omegas) - 1))]
    sets = closed_sets(om, w + 1)
    b = sets[draw(st.integers(min_value=0, max_value=len(sets) - 1))]
    g = draw(st.integers(min_value=6 * w + 4, max_value=6 * w + 40))
    return PairDecomposition(om, b, g)


@settings(deadline=None)
@given(valid_pairs())
def test_pair_round_trip(pair):
    r = pair.g // 2 - pair.omega.genus
    if 3 * r < pair.g + 2:
        with pytest.raises(PreconditionViolated):
            build_from_pair(pair)
        return
    s = build_from_pair(pair)
    assert s.genus == pair.g and s.ordinarization_number() == r
    # members up to g are even
    assert all(x % 2 == 0 for x in members_upto(s, s.genus))
    back = decompose(s)
    assert back.omega == pair.omega and back.b.elements == pair.b.elements
