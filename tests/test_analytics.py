"""Closed formulas, sumset structure, and the verification harnesses."""

import itertools
import json
import pickle
from collections import Counter
from types import SimpleNamespace

import pytest

from semiforge import (
    Semigroup,
    check_conjecture,
    count_matrix,
    enumerate_genus,
    max_ordinarization_attainer,
    n_g1_formula,
    verify_bijection,
    verify_interval_theorem,
    verify_parity_lemma,
    verify_sumset_bound,
    verify_tree_relations,
)
from semiforge import analytics, closedsets, tree
from semiforge.cli import run
from semiforge.analytics import high_depth_cross_check
from conftest import children_in_T, doctor_compiled_levels, gap_runs
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

def test_sumset_bound_small_exhaustive():
    # the statement verify_sumset_bound checks, by brute force on its range
    for n in range(1, 5):
        for els in itertools.combinations(range(13), n):
            size = len(brute_sumset(els))
            assert size >= 2 * n - 1
            assert (size == 2 * n - 1) == (len({b - a for a, b in zip(els, els[1:])}) <= 1)
    assert verify_sumset_bound(max_value=12, max_size=4).passed


def test_verify_sumset_bound_report():
    report = verify_sumset_bound(max_value=14, max_size=4)
    assert report.passed and report.counterexample is None


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
    assert len(gap_runs(h6)) == 6  # = 2r with r = 3
    assert len(gap_runs(Semigroup.ordinary(5))) == 1
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


@pytest.fixture
def reported(monkeypatch) -> list[str]:
    """Every failure detail a harness adds, not only the smallest it keeps."""
    details: list[str] = []
    add = analytics._Counterexamples.add

    def spy(self, genus, gaps, detail):
        details.append(detail)
        add(self, genus, gaps, detail)

    monkeypatch.setattr(analytics._Counterexamples, "add", spy)
    return details


def _tg_walks(monkeypatch, reported: list[str]):
    """Each kind of fixed-genus walk in turn, as (G, doctor): the
    pure-Python level at genus 6, then, where the kernel loads, the
    compiled level at the smallest genus it walks.  ``doctor(edit)`` makes
    the walk of genus G find ``edit(kids)`` below the ordinary root
    instead of its true children ``kids``, each a (bitmap, eff) pair as
    ``tree._tg_children_raw`` makes them.  Each kind runs in its own
    monkeypatch context, with ``reported`` emptied."""
    kinds = [("python", 6)]
    if tree._compiled_kernel():
        kinds.append(("compiled", tree._COMPILED_TG_MIN_GENUS))
    raw = tree._tg_children_raw
    for kind, g in kinds:
        root = Semigroup.ordinary(g).bitmap
        with monkeypatch.context() as patch:
            if kind == "python":
                patch.setattr(tree, "_kernel", False)

            def doctor(edit):
                def doctored_raw(bitmap, genus, eff):
                    kids = raw(bitmap, genus, eff)
                    return edit(kids) if (bitmap, genus) == (root, g) else kids

                if kind == "python":
                    patch.setattr(tree, "_tg_children_raw", doctored_raw)
                else:
                    doctor_compiled_levels(patch, g, edit)

            reported.clear()
            yield g, doctor


def test_tree_relations_catch_a_dropped_child(monkeypatch, reported):
    for g, doctor in _tg_walks(monkeypatch, reported):
        doctor(lambda kids: kids[:-1])
        report = verify_tree_relations(g)
        assert report.passed is False
        assert "depth profile" in report.counterexample
        assert "fixed-genus tree misses or repeats semigroups" in reported


def test_tree_relations_catch_a_repeated_child(monkeypatch, reported):
    for g, doctor in _tg_walks(monkeypatch, reported):
        doctor(lambda kids: kids + kids[-1:])
        report = verify_tree_relations(g)
        assert report.passed is False
        assert "depth profile" in report.counterexample


def test_tree_relations_catch_a_misplaced_child(monkeypatch, reported):
    # the root's last child is swapped for a grandchild: same level sizes
    # at depth 1, but that edge is wrong and the last child is never reached
    for g, doctor in _tg_walks(monkeypatch, reported):

        def edit(kids):
            grandchild = next(gc for kid, eff in kids for gc in tree._tg_children_raw(kid, g, eff))
            return kids[:-1] + [grandchild]

        doctor(edit)
        assert verify_tree_relations(g).passed is False
        assert "edge child does not transform to parent" in reported
        assert "fixed-genus tree misses or repeats semigroups" in reported


def test_tree_relations_catch_a_wrong_inherited_eff(monkeypatch, reported):
    # the generator-removal expansion takes each semigroup's effective
    # generators from the fixed-genus walk, so one bit of a child's
    # inherited eff cleared (a child in T lost) or set (a member that is
    # no generator removed) reaches the report of the next genus
    for g, doctor in _tg_walks(monkeypatch, reported):
        for wrong in (lambda eff: eff & (eff - 1), lambda eff: eff | 1 << (2 * g + 1)):

            def edit(kids):
                i = next(i for i, (_kid, eff) in enumerate(kids) if wrong(eff) != eff)
                return kids[:i] + [(kids[i][0], wrong(kids[i][1]))] + kids[i + 1 :]

            doctor(edit)
            reported.clear()
            report = verify_tree_relations(g + 1)
            assert report.passed is False
            assert "depth profile" in report.counterexample
            assert "fixed-genus tree misses or repeats semigroups" in reported


def _python_loop_only(monkeypatch) -> None:
    """Let the compiled trees check fail at once, so that the Python loop
    decides on either walk: the compiled check calls none of the Python
    functions that the tests below doctor or spy on.  ``tests/test_kernel.py``
    plants faults that it can see."""
    monkeypatch.setattr(analytics, "_trees_hold", lambda g_max: False)


def test_tree_relations_catch_a_broken_transform(monkeypatch, reported):
    # the transform does nothing at even genus from G on: a genus-(2k+1)
    # parent's transform no longer adjoins back from its children's, and
    # siblings keep their own bitmaps
    _python_loop_only(monkeypatch)
    transform = analytics._ordinarize_bitmap
    for g, _doctor in _tg_walks(monkeypatch, reported):
        monkeypatch.setattr(
            analytics, "_ordinarize_bitmap", lambda bm, genus: transform(bm, genus) if genus & 1 or genus < g else bm
        )
        assert verify_tree_relations(g + 2).passed is False
        assert "transform left the ancestor line" in reported
        assert "siblings transform to different parents" in reported


def test_tree_relations_check_the_root_edge(monkeypatch, reported):
    # the root is its own parent: a transform that moves the ordinary
    # semigroup of genus G, and nothing else, breaks that one edge
    _python_loop_only(monkeypatch)
    transform = analytics._ordinarize_bitmap
    for g, _doctor in _tg_walks(monkeypatch, reported):
        root = Semigroup.ordinary(g).bitmap
        monkeypatch.setattr(
            analytics, "_ordinarize_bitmap", lambda bm, genus: bm ^ 2 if (bm, genus) == (root, g) else transform(bm, genus)
        )
        report = verify_tree_relations(g)
        gaps = ",".join(map(str, range(1, g + 1)))
        assert (report.passed, report.counterexample) == (False, f"gaps={gaps} edge child does not transform to parent")


def test_tree_relations_miss_below_g_max_is_reported_at_its_genus(monkeypatch, reported):
    # a semigroup the walk of genus G misses is reported there, under the
    # smallest key of genus G, so a longer run names the same failure;
    # and it is not expanded, since nothing below it could change that
    expand = analytics._expand_checked
    expanded: list[tuple[int, int]] = []

    def spy(bitmap, g, *rest):
        expanded.append((bitmap, g))
        return expand(bitmap, g, *rest)

    monkeypatch.setattr(analytics, "_expand_checked", spy)
    for g, doctor in _tg_walks(monkeypatch, reported):
        dropped: list[int] = []

        def drop(kids):
            dropped.append(kids[-1])
            return kids[:-1]

        doctor(drop)
        at_g = verify_tree_relations(g)
        expanded.clear()
        report = verify_tree_relations(g + 2)
        assert report.passed is False and report.counterexample == at_g.counterexample
        assert "depth profile" in report.counterexample
        assert (dropped[-1], g) not in expanded


def test_tree_relations_expand_each_node_once(monkeypatch):
    # on either walk, each semigroup of genus < g_max is expanded once,
    # from the state the fixed-genus walk made, and the generator-removal
    # tree is never walked
    _python_loop_only(monkeypatch)
    expand = analytics._expand_checked

    def restart(*args):
        raise AssertionError("the harness walked the generator-removal tree")

    monkeypatch.setattr(tree, "_nodes", restart)
    monkeypatch.setattr(tree, "_subtree", restart)
    g_max = tree._COMPILED_TG_MIN_GENUS + 1
    want, stack = set(), [Semigroup.ordinary(0)]  # genus < g_max, by the definition
    while stack:
        s = stack.pop()
        want.add((s.bitmap, s.genus))
        if s.genus < g_max - 1:
            stack.extend(children_in_T(s))
    for kernel in (False, tree._compiled_kernel()):
        expanded = []

        def spy(bitmap, g, *rest):
            expanded.append((bitmap, g))
            return expand(bitmap, g, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(tree, "_kernel", kernel or False)
            patch.setattr(analytics, "_expand_checked", spy)
            assert verify_tree_relations(g_max).passed
        assert len(set(expanded)) == len(expanded)
        assert Counter(g for _, g in expanded) == {g: sum(COUNTS_BY_GENUS[g]) for g in range(g_max)}
        assert set(expanded) == want


def _doctor_depths(monkeypatch, depth):
    """Make ``tree._runs`` report ``depth(g, r)`` as the ordinarization
    number of every run."""
    runs = tree._runs
    monkeypatch.setattr(
        tree, "_runs", lambda g_max: ((g, depth(g, r), bitmaps) for g, r, bitmaps in runs(g_max))
    )


# a g_max whose checks read ``tree._nodes``, and the first whose checks
# read the compiled fixed-genus levels where the kernel loads
_RUN_SOURCES = [8, tree._COMPILED_TG_MIN_GENUS]


def test_parity_catches_a_wrong_depth(monkeypatch):
    _doctor_depths(monkeypatch, lambda g, r: g // 2)
    for g_max in _RUN_SOURCES:
        report = verify_parity_lemma(g_max)
        assert report.passed is False, g_max
        assert " odd member " in report.counterexample


@pytest.mark.parametrize("depth, label", [
    (lambda g, r: 0, "< floor(n/2) with n="),
    (lambda g, r: 0, " high but r="),
    (lambda g, r: g // 2, "high depth r="),
])
def test_intervals_catch_a_wrong_depth(monkeypatch, reported, depth, label):
    _doctor_depths(monkeypatch, depth)
    for g_max in _RUN_SOURCES:
        reported.clear()
        assert verify_interval_theorem(g_max).passed is False, g_max
        assert any(label in d for d in reported), g_max


@pytest.mark.parametrize("g_max", _RUN_SOURCES)
def test_bijection_catches_a_dropped_deep_node(monkeypatch, g_max):
    # the first run at the shallowest deep cell of g_max loses one bitmap
    cell = (g_max, analytics._min_high_r(g_max))
    runs = tree._runs

    def doctored(limit):
        dropped = False
        for g, r, bitmaps in runs(limit):
            if (g, r) == cell and not dropped:
                dropped, bitmaps = True, list(bitmaps)[1:]
            yield g, r, bitmaps

    monkeypatch.setattr(tree, "_runs", doctored)
    count = closedsets.f_value(g_max // 2 - cell[1])  # 1 at genus 8, 2 at 13
    report = verify_bijection(g_max)
    assert (report.passed, report.counterexample) == (
        False, f"g={g_max} r={cell[1]}: image size {count} vs table {count}"
    )


def _decompose_into(monkeypatch, edit):
    decompose = closedsets.decompose
    monkeypatch.setattr(closedsets, "decompose", lambda s: edit(decompose(s)))


def test_bijection_catches_a_collapsed_pairing(monkeypatch):
    # every pair of one genus builds the same semigroup; the first pool
    # with two pairs is w = 1, reached at g = 10, r = 4
    build = closedsets.build_from_pair
    first: dict[int, Semigroup] = {}
    monkeypatch.setattr(closedsets, "build_from_pair", lambda p: first.setdefault(p.g, build(p)))
    report = verify_bijection(10)
    assert (report.passed, report.counterexample) == (False, "g=10 r=4: pairing not injective")


def test_bijection_catches_a_table_mismatch(monkeypatch):
    rows = [list(row) for row in tree.count_matrix(8).rows]
    rows[4][2] += 1
    doctored = tree.CountMatrix(tuple(map(tuple, rows)))
    monkeypatch.setattr(tree, "count_matrix", lambda g_max, *, workers=1: doctored)
    report = verify_bijection(8)
    assert (report.passed, report.counterexample) == (False, "g=4 r=2: image size 1 vs table 2")


def test_bijection_stops_at_its_first_failing_cell(monkeypatch):
    # the table is doctored at g = 4, r = 2; no later cell is built
    rows = [list(row) for row in tree.count_matrix(8).rows]
    rows[4][2] += 1
    doctored = tree.CountMatrix(tuple(map(tuple, rows)))
    monkeypatch.setattr(tree, "count_matrix", lambda g_max, *, workers=1: doctored)
    build = closedsets.build_from_pair
    cells: list[tuple[int, int]] = []

    def spy(pair):
        cells.append((pair.g, pair.g // 2 - pair.omega.genus))
        return build(pair)

    monkeypatch.setattr(closedsets, "build_from_pair", spy)
    assert verify_bijection(8).counterexample == "g=4 r=2: image size 1 vs table 2"
    assert max(cells) == (4, 2)


def test_bijection_catches_a_wrong_decomposition(monkeypatch):
    _decompose_into(monkeypatch, lambda back: SimpleNamespace(omega=None, b=back.b, g=back.g))
    report = verify_bijection(8)
    assert report.passed is False
    assert report.counterexample == "g=4 r=2: decompose does not invert build on 1,3,5,7"


def test_bijection_catches_a_build_that_does_not_invert(monkeypatch):
    # same (omega, B), but read at genus g + 2
    _decompose_into(
        monkeypatch, lambda back: closedsets.PairDecomposition(back.omega, back.b, back.g + 2)
    )
    report = verify_bijection(8)
    assert report.passed is False
    assert report.counterexample == "g=4 r=2: build does not invert decompose on 1,3,5,7"


def test_report_json_shape():
    report = verify_parity_lemma(4)
    obj = report.as_json_dict()
    assert list(obj) == ["check", "range", "passed", "counterexample"]
    assert obj["passed"] is True and obj["counterexample"] is None


def test_reports_and_tables_are_immutable_values():
    report = verify_parity_lemma(4)
    matrix = count_matrix(6)
    for record in (report, matrix):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and hash(back) == hash(record) and type(back) is type(record)
    assert report == verify_parity_lemma(4) and report != verify_parity_lemma(5)
    assert matrix == count_matrix(6) and matrix != count_matrix(7)


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
