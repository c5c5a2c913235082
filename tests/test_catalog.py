import pytest

from delpezzo.catalog import (CENTER_PIECES, QUADRIC_PIECES, enumerate_degenerations,
                              entries_for, lookup)
from delpezzo.errors import BudgetExceeded, UnknownDegree, UnsupportedDegree


def test_lookup_quintic():
    e = lookup(5)
    assert e.w_fibration == "quadric threefold fibration"
    assert e.curve_bidegree == (1, 2)
    assert e.curve == "generalized twisted cubic"
    assert e.max_nodes == 3


def test_lookup_quartic():
    e = lookup(4)
    assert e.w_fibration == "P^3 fibration"
    assert e.curve_bidegree == (2, 3)
    assert e.curve == "arithmetic genus two curve"
    assert e.max_nodes == 6


def test_lookup_sextic_variants():
    assert lookup(6).curve_bidegree == (1, 1)
    prime = lookup(6, "prime")
    assert prime.curve_bidegree == (0, 2)
    assert prime.curve == "two disjoint lines"
    assert prime.max_nodes == 0


def test_lookup_unknown():
    with pytest.raises(UnknownDegree):
        lookup(9)
    with pytest.raises(UnknownDegree):
        lookup(5, "prime")
    with pytest.raises(UnknownDegree):
        entries_for(0)


def test_entries_exist_for_all_degrees():
    assert sorted({e.d for e in entries_for()}) == list(range(1, 9))
    assert len(entries_for(6)) == 2
    smooth = [e for e in entries_for() if e.max_nodes == 0]
    assert {(e.d, e.variant) for e in smooth} == \
        {(6, "prime"), (7, None), (8, None)}


def test_singularity_budget():
    budgets = {d: (lookup(d).max_nodes, lookup(d).singularity_note) for d in (4, 5, 6)}
    assert budgets == {4: (6, "only cA_n"), 5: (3, "only nodal"), 6: (1, "only nodal")}


def test_degree_five_node_budget_is_the_piece_tables():
    # row k of each piece table is the piece that carries k nodes
    assert len(CENTER_PIECES) - 1 + len(QUADRIC_PIECES) - 1 == lookup(5).max_nodes == 3


@pytest.mark.parametrize("total,expected", [
    (0, {(0, 0)}),
    (1, {(1, 0), (0, 1)}),
    (2, {(2, 0), (1, 1)}),
    (3, {(2, 1)}),
])
def test_degenerations(total, expected):
    cases = enumerate_degenerations(5, total)
    assert {(c.nodes_c, c.nodes_q) for c in cases} == expected
    for c in cases:
        assert c.nodes_c + c.nodes_q == total
        assert 0 <= c.nodes_c <= 2 and 0 <= c.nodes_q <= 1


def test_degeneration_labels():
    (case,) = enumerate_degenerations(5, 3)
    assert case.a_c_shape == "3-vertex chain algebra"
    assert case.a_q_shape == "single 2-vertex algebra"
    smooth = enumerate_degenerations(5, 0)[0]
    assert smooth.a_c_shape == "exceptional object"


def test_degeneration_errors():
    with pytest.raises(UnsupportedDegree):
        enumerate_degenerations(4, 1)
    with pytest.raises(BudgetExceeded):
        enumerate_degenerations(5, 4)
