import pytest

from delpezzo.dsl import load_builtin_script
from delpezzo.errors import (InvalidDegree, SmoothInput, UnmodeledComponent,
                             UnsupportedDegree)
from delpezzo.intersection import BlowupGeometry, he
from delpezzo.ktheory import (ComponentModel, KProfile, consistency_check,
                              k0_total, k_minus1_total, kawamata_gate,
                              standard_models)
from delpezzo.mutations import replay
from delpezzo.quivers import double_burban, single_burban
from delpezzo.sod import Decomposition, FactStore, LineBundle, standard_opaque


def _line_side(d, nodes_c, nodes_q):
    name = "prop-Y-to-V" if d == 5 else "prop-Y-to-V-4"
    store = FactStore()
    final, _ = replay(load_builtin_script(name), store, BlowupGeometry(d))
    return final, standard_models(d, nodes_c, nodes_q)


def test_smooth_quintic_total_is_zero():
    dec, models = _line_side(5, 0, 0)
    assert k_minus1_total(dec, models) == 0


def test_three_nodal_quintic_total_matches_node_count():
    dec, models = _line_side(5, 2, 1)
    assert k_minus1_total(dec, models) == 3


def test_nodal_quartic_total_is_positive():
    for nu in (1, 2, 6):
        dec, models = _line_side(4, nu, 0)
        assert k_minus1_total(dec, models) == nu
        assert k_minus1_total(dec, models) >= 1


@pytest.mark.parametrize("nodes_c", [-1, 7])
def test_quartic_models_keep_the_catalog_node_budget(nodes_c):
    # the degree-4 center carries at most catalog.lookup(4).max_nodes = 6 nodes
    assert standard_models(4, 6)["DbC"].k_profile.k_minus1_rank == 6
    with pytest.raises(ValueError, match="at most 6 nodes"):
        standard_models(4, nodes_c)


def test_unmodeled_component():
    dec = Decomposition("Y5", (standard_opaque("A_V5"), LineBundle(he(0, 0))))
    with pytest.raises(UnmodeledComponent):
        k_minus1_total(dec, {})


def test_model_quiver_consistency_enforced():
    ComponentModel("A_C", KProfile(2, 1), single_burban())
    ComponentModel("A_C", KProfile(3, 2), double_burban())
    with pytest.raises(ValueError):
        ComponentModel("A_C", KProfile(3, 2), single_burban())


def test_k0_totals_agree_across_the_two_quintic_descriptions():
    store = FactStore()
    geom = BlowupGeometry(5)
    left, _ = replay(load_builtin_script("prop-Y-to-V"), store, geom)
    right, _ = replay(load_builtin_script("prop-Y-to-W-5"), store, geom)
    models = standard_models(5, 2, 1)
    assert k0_total(left, models) == k0_total(right, models) == 9


def test_k0_total_unknown_for_quartic():
    dec, models = _line_side(4, 2, 0)
    assert k0_total(dec, models) is None


def test_consistency_check_examples():
    store = FactStore()
    final, _ = replay(load_builtin_script("prop-Y-to-W-5"), store,
                      BlowupGeometry(5))
    for nodes_c, nodes_q in ((1, 0), (2, 1), (0, 0)):
        assert consistency_check(final, nodes_c, nodes_q)


def test_consistency_across_all_enumerated_partitions():
    from delpezzo.catalog import enumerate_degenerations
    store = FactStore()
    final, _ = replay(load_builtin_script("prop-Y-to-W-5"), store,
                      BlowupGeometry(5))
    for total in range(0, 4):
        for case in enumerate_degenerations(5, total):
            models = standard_models(5, case.nodes_c, case.nodes_q)
            assert k_minus1_total(final, models) == total
            assert consistency_check(final, case.nodes_c, case.nodes_q)


def test_consistency_check_detects_dropped_component():
    store = FactStore()
    final, _ = replay(load_builtin_script("prop-Y-to-W-5"), store,
                      BlowupGeometry(5))
    assert consistency_check(final, 2, 1)
    truncated = Decomposition(final.ambient, final.nodes[1:])
    assert not consistency_check(truncated, 2, 1)


@pytest.mark.parametrize("ambient, error", [
    ("Y", InvalidDegree), ("X5", InvalidDegree), ("V5", InvalidDegree),
    ("W5", InvalidDegree), ("Y7", UnsupportedDegree)])
def test_consistency_check_needs_a_modeled_degree_in_the_ambient(ambient, error):
    with pytest.raises(error) as exc:
        consistency_check(Decomposition(ambient, ()), 1)
    assert exc.value.code == {InvalidDegree: 51, UnsupportedDegree: 61}[error]


def test_gate_exists_only_for_five_and_six():
    assert kawamata_gate(5, 2).exists
    assert kawamata_gate(6, 1).exists
    for d in (1, 2, 3, 4):
        assert not kawamata_gate(d, 1).exists


def test_gate_reason_chain():
    verdict = kawamata_gate(3, 1)
    assert verdict.reasons[0].code == "hypersurface-defect"
    verdict4 = kawamata_gate(4, 2)
    assert verdict4.reasons[0].code == "curve-k-minus-one"
    verdict5 = kawamata_gate(5, 3)
    assert verdict5.reasons[0].code == "line-projection-construction"


def test_gate_rejects_smooth_and_rigid_inputs():
    with pytest.raises(SmoothInput):
        kawamata_gate(5, 0)
    with pytest.raises(InvalidDegree):
        kawamata_gate(7, 1)
    with pytest.raises(InvalidDegree):
        kawamata_gate(8, 1)
    with pytest.raises(InvalidDegree):
        kawamata_gate(0, 1)
    with pytest.raises(InvalidDegree):
        kawamata_gate(9, 1)
