"""Both trees: child generation, exact counts, and the DOT export."""

import pytest

from semiforge import (
    CountMatrix,
    Semigroup,
    TooLarge,
    children_in_T,
    children_in_Tg,
    count_matrix,
    enumerate_genus,
    export_tree_dot,
    iter_tg_edges,
    max_ordinarization_attainer,
    tg_bfs_row,
)
from reference_tables import COUNTS_BY_GENUS, FIG6_EDGES, FIG6_NODES_BY_DEPTH


def test_children_in_T_of_root():
    kids = children_in_T(Semigroup.from_gaps([]))
    assert [k.gaps() for k in kids] == [(1,)]


def test_children_in_T_of_ordinary_1():
    kids = children_in_T(Semigroup.ordinary(1))
    assert [k.gaps() for k in kids] == [(1, 2), (1, 3)]


def test_children_in_T_genus_and_parent():
    for g in range(8):
        count = 0

        def check(s):
            nonlocal count
            for child in children_in_T(s):
                count += 1
                assert child.genus == s.genus + 1
                # adjoining the Frobenius number recovers the parent
                back = sorted(set(child.gaps()) - {child.frobenius})
                assert Semigroup.from_gaps(back) == s

        enumerate_genus(g, check)
        assert count == sum(COUNTS_BY_GENUS[g + 1])


def test_enumerate_genus_counts():
    assert enumerate_genus(0) == 1
    assert enumerate_genus(6) == 23
    assert enumerate_genus(10) == 204


def test_enumerate_genus_visits_each_once():
    seen = []
    total = enumerate_genus(7, seen.append)
    assert total == len(seen) == 39
    assert len(set(seen)) == 39
    assert all(s.genus == 7 for s in seen)


def test_children_in_Tg_fig_tree_root():
    kids = children_in_Tg(Semigroup.ordinary(6))
    assert sorted(k.gap_string() for k in kids) == sorted(FIG6_NODES_BY_DEPTH[1])


def test_children_in_Tg_fig_tree_interior():
    node = Semigroup.from_gap_string("1,2,3,4,5,7")
    expected = {c for p, c in FIG6_EDGES if p == "1,2,3,4,5,7"}
    assert {k.gap_string() for k in children_in_Tg(node)} == expected


def test_children_in_Tg_leaf():
    assert children_in_Tg(max_ordinarization_attainer(6)) == []


def test_children_in_Tg_order_and_parenthood(semigroups_by_genus):
    for g, group in semigroups_by_genus.items():
        for s in group:
            kids = children_in_Tg(s)
            assert all(k.genus == g for k in kids)
            assert all(k.ordinarize() == s for k in kids)
            # the added member is the child's multiplicity, the removed
            # generator its Frobenius number; output is ordered by that pair
            keys = [(k.multiplicity, k.frobenius) for k in kids]
            assert keys == sorted(keys)


def test_dual_method_agreement_small():
    # the enumeration grouped by depth and the breadth-first walk of the
    # fixed-genus tree are independent routes to the same row
    matrix = count_matrix(12)
    for g in range(13):
        row = list(matrix.row(g))
        assert row == COUNTS_BY_GENUS[g]
        bfs = tg_bfs_row(g)
        assert bfs + [0] * (len(row) - len(bfs)) == row
    assert matrix.row(6) == (1, 12, 9, 1)
    assert matrix.row(11) == (1, 45, 196, 97, 3, 1)


def test_count_matrix_matches_reference_to_16():
    matrix = count_matrix(16)
    for g in range(17):
        assert list(matrix.row(g)) == COUNTS_BY_GENUS[g], f"genus {g}"


def test_count_matrix_workers_deterministic():
    single = count_matrix(12, workers=1)
    forked = count_matrix(12, workers=2, split_depth=4)
    assert single == forked
    assert count_matrix(12, workers=3, split_depth=20) == single  # no split possible


def test_count_matrix_csv_json_round_trip():
    matrix = count_matrix(9)
    assert CountMatrix.from_csv(matrix.to_csv()) == matrix
    assert CountMatrix.from_json_obj(matrix.to_json_obj()) == matrix
    assert matrix.to_csv().startswith("g,r,count\n0,0,1\n")
    assert matrix.cell(9, 4) == 1 and matrix.cell(9, 5) == 0
    assert matrix.genus_total(9) == 118


def test_tg_edges_depths():
    depths = {}
    for edge in iter_tg_edges(6):
        assert edge.child.ordinarize() == edge.parent
        assert edge.depth_of_child == edge.child.ordinarization_number()
        depths[edge.child] = edge.depth_of_child
    assert len(depths) == 22  # every non-root node has exactly one parent


def test_export_dot_fig_tree():
    text = export_tree_dot(6)
    assert text.startswith('digraph "Tg_6" {\n')
    node_lines = [l for l in text.splitlines() if "depth=" in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 23
    assert len(edge_lines) == 22
    assert '  "1,2,3,5,7,9" -> "1,3,5,7,9,11";' in edge_lines
    for depth, nodes in FIG6_NODES_BY_DEPTH.items():
        for label in nodes:
            assert f'"{label}" [label="{label}", depth={depth}];' in text


def test_export_dot_trivial_and_small():
    t0 = export_tree_dot(0)
    assert '"" [label="", depth=0];' in t0
    assert "->" not in t0
    t4 = export_tree_dot(4)
    assert sum(1 for l in t4.splitlines() if "depth=" in l) == 7
    for d, want in enumerate([1, 5, 1]):
        assert sum(1 for l in t4.splitlines() if f"depth={d}]" in l) == want


def test_export_dot_node_cap():
    with pytest.raises(TooLarge):
        export_tree_dot(6, node_cap=5)


# ----------------------------------------------------------------------
# fully independent oracles: no tree machinery at all

def brute_force_genus(g: int) -> set[tuple[int, ...]]:
    """Every gap set of genus g, by filtering all subsets of [1, 2g-1]
    through the closure definition."""
    import itertools

    if g == 0:
        return {()}
    out = set()
    for gaps in itertools.combinations(range(1, 2 * g), g):
        gapset = set(gaps)
        members = [x for x in range(2 * gaps[-1] + 2) if x not in gapset and not (0 < x < 1)]
        ok = True
        for a in members:
            for b in members:
                if a and b and a + b <= gaps[-1] and (a + b) in gapset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(gaps))
    return out


def test_enumeration_matches_brute_force():
    for g in range(8):
        via_tree = set()
        enumerate_genus(g, lambda s: via_tree.add(s.gaps()))
        assert via_tree == brute_force_genus(g)


def test_tg_children_complete_by_definition():
    # c is a child of s exactly when c != s and c ordinarizes to s
    for g in range(8):
        group: list[Semigroup] = []
        enumerate_genus(g, group.append)
        for s in group:
            expected = {c for c in group if c != s and c.ordinarize() == s}
            assert set(children_in_Tg(s)) == expected


def test_T_children_complete_by_definition():
    # child of s in the generator-removal tree == semigroup of genus g+1
    # whose gap set is gaps(s) plus one value above all of them... i.e.
    # whose Frobenius-adjoined parent is s
    for g in range(7):
        parents: list[Semigroup] = []
        children: list[Semigroup] = []
        enumerate_genus(g, parents.append)
        enumerate_genus(g + 1, children.append)
        for s in parents:
            expected = set()
            for c in children:
                back = sorted(set(c.gaps()) - {c.frobenius})
                if Semigroup.from_gaps(back) == s:
                    expected.add(c)
            assert set(children_in_T(s)) == expected
