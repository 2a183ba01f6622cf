"""Closed formulas, sumset structure, and the verification harnesses."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from semiforge import (
    Semigroup,
    check_conjecture,
    enumerate_genus,
    max_ordinarization_attainer,
    n_g1_formula,
    verify_bijection,
    verify_interval_theorem,
    verify_parity_lemma,
    verify_sumset_bound,
    verify_tree_relations,
)
from semiforge import tree
from semiforge.cli import run
from semiforge.analytics import (
    freiman_progression_bound,
    high_depth_cross_check,
    sumset_profile,
)
from reference_tables import COUNTS_BY_GENUS


def brute_sumset(els):
    return {a + b for a in els for b in els}


# ----------------------------------------------------------------------
# depth-1 formula

def test_n_g1_formula_values():
    assert [n_g1_formula(g) for g in range(7)] == [0, 0, 1, 3, 5, 9, 12]
    assert n_g1_formula(20) == 145
    assert n_g1_formula(49) == 900


def test_n_g1_formula_matches_enumeration():
    for g in range(2, 15):
        assert n_g1_formula(g) == COUNTS_BY_GENUS[g][1]


def test_n_g1_increments():
    # consecutive difference is g for even g, (g+1)/2 for odd g
    for g in range(0, 60):
        step = g if g % 2 == 0 else (g + 1) // 2
        assert n_g1_formula(g + 1) - n_g1_formula(g) == step


# ----------------------------------------------------------------------
# sumsets

def test_sumset_profile_examples():
    p = sumset_profile((0, 2, 4))
    assert p.sumset_size == 5 and p.is_arithmetic and p.common_difference == 2

    p = sumset_profile((0, 1, 3))
    assert p.sumset_size == 6 and not p.is_arithmetic
    assert brute_sumset((0, 1, 3)) == {0, 1, 2, 3, 4, 6}

    p = sumset_profile((5,))
    assert p.sumset_size == 1 and p.is_arithmetic and p.common_difference is None


def test_sumset_bound_small_exhaustive():
    for n in range(1, 5):
        for els in itertools.combinations(range(13), n):
            size = len(brute_sumset(els))
            p = sumset_profile(els)
            assert p.sumset_size == size
            assert size >= 2 * n - 1
            assert (size == 2 * n - 1) == p.is_arithmetic


def test_verify_sumset_bound_report():
    report = verify_sumset_bound(max_value=14, max_size=4)
    assert report.passed and report.counterexample is None


@given(st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=8))
def test_sumset_profile_matches_brute(els):
    p = sumset_profile(tuple(els))
    assert p.sumset_size == len(brute_sumset(els))


def test_freiman_progression_bound_examples():
    assert freiman_progression_bound((0, 2, 4, 6)) == 4
    assert freiman_progression_bound((0, 1, 2, 9)) is None
    with pytest.raises(ValueError):
        freiman_progression_bound((0, 1))


def test_freiman_bound_on_deep_semigroups():
    # members up to g of a deep semigroup sit inside a progression of
    # difference 2 (they are exactly the even members up to g)
    import math

    for g in range(6, 17):
        def check(s, g=g):
            r = s.ordinarization_number()
            if 3 * r < g + 2 or r < 2:
                return
            members = tuple(s.members_upto(g))
            bound = freiman_progression_bound(members)
            assert bound is not None
            assert math.gcd(*(x for x in members[1:])) == 2

        enumerate_genus(g, check)


# ----------------------------------------------------------------------
# attainer

def test_max_ordinarization_attainer():
    h6 = max_ordinarization_attainer(6)
    assert h6.gaps() == (1, 3, 5, 7, 9, 11)
    assert h6.ordinarization_number() == 3

    h1 = max_ordinarization_attainer(1)
    assert h1 == Semigroup.ordinary(1) and h1.ordinarization_number() == 0

    deepest = [s for s in _all(12) if s.ordinarization_number() == 6]
    assert deepest == [max_ordinarization_attainer(12)]

    with pytest.raises(ValueError):
        max_ordinarization_attainer(0)


def _all(g):
    out = []
    enumerate_genus(g, out.append)
    return out


# ----------------------------------------------------------------------
# harness reports

def test_parity_report():
    assert verify_parity_lemma(0).passed
    assert verify_parity_lemma(12).passed


def test_interval_report_and_examples():
    h6 = max_ordinarization_attainer(6)
    assert h6.gap_intervals().interval_count == 6  # = 2r with r = 3
    assert Semigroup.ordinary(5).gap_intervals().interval_count == 1
    report = verify_interval_theorem(14)
    assert report.passed, report


def test_conjecture_report():
    assert check_conjecture(1).passed
    report = check_conjecture(14)
    assert report.passed, report
    with pytest.raises(ValueError):
        check_conjecture(0)


def test_cross_check_report():
    report = high_depth_cross_check(16)
    assert report.passed, report


def test_bijection_report():
    report = verify_bijection(14)
    assert report.passed, report


def test_tree_relations_report():
    report = verify_tree_relations(8)
    assert report.passed, report


def _doctor_tg_children(monkeypatch, edit):
    """Make the fixed-genus expansion of the genus-6 ordinary semigroup
    return ``edit(children)`` instead of its true children."""
    original = tree._tg_children_raw
    root = Semigroup.ordinary(6).bitmap

    def doctored(bitmap, genus):
        kids = original(bitmap, genus)
        return edit(kids) if bitmap == root else kids

    monkeypatch.setattr(tree, "_tg_children_raw", doctored)


def test_tree_relations_catch_a_dropped_child(monkeypatch):
    _doctor_tg_children(monkeypatch, lambda kids: kids[:-1])
    report = verify_tree_relations(6)
    assert report.passed is False
    assert "depth profile" in report.counterexample


def test_tree_relations_catch_a_repeated_child(monkeypatch):
    _doctor_tg_children(monkeypatch, lambda kids: kids + kids[-1:])
    report = verify_tree_relations(6)
    assert report.passed is False
    assert "depth profile" in report.counterexample


def test_report_json_shape():
    report = verify_parity_lemma(4)
    obj = report.as_json_dict()
    assert set(obj) == {"check", "range", "passed", "counterexample"}
    assert obj["passed"] is True and obj["counterexample"] is None


def test_counterexample_reporting(monkeypatch, capsys):
    # the table-cell checks and `verify` on a doctored table whose count
    # drops at two cells: (6, 3), a high-depth cell, and (10, 1)
    rows = [list(row) for row in tree.count_matrix(12).rows]
    rows[6][3] = 3  # n(7, 3) = 1 and f(0) = 1
    rows[10][1] = 50  # n(11, 1) = 45
    doctored = tree.CountMatrix(tuple(map(tuple, rows)))

    def fake_count_matrix(g_max, *, workers=1):
        assert g_max == 12
        return doctored

    monkeypatch.setattr(tree, "count_matrix", fake_count_matrix)
    want = "n(6,3)=3 > n(7,3)=1"
    report = check_conjecture(12)
    assert not report.passed and report.counterexample == want
    report = high_depth_cross_check(12)
    assert not report.passed and report.counterexample == "n(6,3)=3 != f(0)=1"
    assert run(["verify", "--check", "conjecture", "--gmax", "12"]) == 1
    out = capsys.readouterr().out
    assert '"passed": false' in out
    assert json.loads(out)["counterexample"] == want
