"""Acceptance suite: one test per criterion, each printing a pass line.

All checks are exact (integer or rational arithmetic throughout); run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random

import pytest

from delpezzo.catalog import enumerate_degenerations, singularity_budget
from delpezzo.dsl import builtin_script_names, load_builtin_script
from delpezzo.errors import FinalMismatch, SideConditionFailed
from delpezzo.intersection import (BlowupGeometry, E, H, canonical_class,
                                   from_hd, rewrite, triple)
from delpezzo.ktheory import k_minus1_total, kawamata_gate, standard_models
from delpezzo.mutations import compare_and_solve, replay
from delpezzo.quivers import (cartan_matrix, double_burban, path_basis,
                              single_burban)
from delpezzo.sod import FactStore, Opaque, TwistedStructureSheaf
from delpezzo.wps import (WeightedSpace, build_nodal_hypersurface, defect,
                          enumerate_monomials)
from corrupt import corrupted_scripts
from oracles import brute_force_monomials, transfer_dimension
from test_mutations import random_walk

P4 = WeightedSpace((1, 1, 1, 1, 1))
P11112 = WeightedSpace((1, 1, 1, 1, 2))
P11123 = WeightedSpace((1, 1, 1, 2, 3))

COORD_POINTS = [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0),
                (0, 1, 0, 0, 0)]


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_defect_suite():
    checked = []
    for mu in (1, 2, 3, 4):
        hyp = build_nodal_hypersurface(P4, 3, COORD_POINTS[:mu])
        rep = defect(hyp)
        assert rep.mu == mu
        assert rep.delta < rep.mu
        checked.append((f"cubic mu={mu}", rep.delta))
    for space, degree, label in ((P11112, 4, "quartic double cover"),
                                 (P11123, 6, "sextic")):
        hyp = build_nodal_hypersurface(space, degree, [(1, 0, 0, 0, 0)])
        rep = defect(hyp)
        assert rep.mu == 1
        assert rep.delta < rep.mu
        checked.append((label, rep.delta))
    _report(1, "delta < mu on all generated nodal instances: "
            + ", ".join(f"{name} delta={d}" for name, d in checked))


def test_criterion_2_monomial_counts():
    cases = [(P4, 1, 5), (P11123, 4, 25), (P11112, 2, 11)]
    for space, degree, expected in cases:
        mons = enumerate_monomials(space, degree)
        assert len(mons) == expected
        assert mons == brute_force_monomials(space.weights, degree)
    _report(2, "h0 counts 5, 25, 11 match the brute-force oracle")


def test_criterion_3_intersection_suite():
    hme = H - E
    for d in (4, 5, 6):
        # Iskovskikh's degree of the projection image, H^3 - (3H + K_V).L
        # + 2g - 2 with H.L = 1, K_V.L = -2 and g = 0
        assert triple(BlowupGeometry(d), hme, hme, hme) == d - 3 * 1 + 2 + 0 - 2
    assert rewrite(canonical_class(4), 4) == (-4, 1)
    assert rewrite(canonical_class(5), 5) == (-3, 1)
    for d in (4, 5):
        assert from_hd(*rewrite(canonical_class(d), d), d) == canonical_class(d)
    _report(3, "(H-E)^3 = d-3 for d in {4,5,6}; canonical class rewrites "
            "to -4h+D and -3h+D")


def _replay_by_name(name, store=None):
    script = load_builtin_script(name)
    store = FactStore() if store is None else store
    return replay(script, store, BlowupGeometry(script.d)), store


def test_criterion_4_replay_suite():
    finals = {}
    for name in builtin_script_names():
        (final, audit), _ = _replay_by_name(name)
        finals[name] = final
        assert final == load_builtin_script(name).expected
        for entry in audit.entries:
            assert entry.evidence
    # the displayed decompositions, node for node
    head, *tail = finals["prop-Y-to-V"].nodes
    assert isinstance(head, Opaque) and len(tail) == 4
    assert all(isinstance(n, TwistedStructureSheaf) and n.support == "" for n in tail)
    corrupted = checked = 0
    for name in builtin_script_names():
        script = load_builtin_script(name)
        for _, bad in corrupted_scripts(script, len(script.expected.nodes)):
            checked += 1
            with pytest.raises((SideConditionFailed, FinalMismatch)):
                replay(bad, FactStore(), BlowupGeometry(bad.d))
            corrupted += 1
    assert checked == corrupted > 0
    _report(4, f"4 scripts replay node-for-node; {corrupted} single-step "
            "corruptions all caught")


def test_criterion_5_head_extraction():
    statements = []
    for d in (4, 5):
        vname = "prop-Y-to-V-4" if d == 4 else "prop-Y-to-V"
        store = FactStore()
        geom = BlowupGeometry(d)
        left, _ = replay(load_builtin_script(vname), store, geom)
        right, _ = replay(load_builtin_script(f"prop-Y-to-W-{d}"), store, geom)
        eq = compare_and_solve(left, right, d)
        statements.append(eq.text())
    assert statements == ["A_V4 = Db(C)", "A_V5 = <A_C, A_Q>"]
    _report(5, "; ".join(statements))


def test_criterion_6_burban_dimensions():
    single, double = single_burban(), double_burban()
    for q, dim, size in ((single, 4, 2), (double, 9, 3)):
        report = path_basis(q)
        assert report.dimension == dim
        assert transfer_dimension(q.vertices, q.arrows, q.relations) == dim
        assert cartan_matrix(q) == tuple((1,) * size for _ in range(size))
    _report(6, "dimensions 4 and 9 by two independent enumerations; "
            "all-ones Cartan matrices of sizes 2 and 3")


def test_criterion_7_k_theory_invariance():
    rng = random.Random(1105)
    applications = 0
    for name in builtin_script_names():
        script = load_builtin_script(name)
        d = script.d
        models = standard_models(d, 2, 1) if d == 5 else standard_models(d, 3)
        store = FactStore()
        geom = BlowupGeometry(d)
        start, _ = replay(script, store, geom)
        names0 = sorted(n.name for n in start.nodes if isinstance(n, Opaque))
        total0 = k_minus1_total(start, models)
        for state in random_walk(start, store, geom, rng, steps=75):
            applications += 1
            assert sorted(n.name for n in state.nodes
                          if isinstance(n, Opaque)) == names0
            assert k_minus1_total(state, models) == total0
    assert applications >= 200
    _report(7, f"{applications} randomized rule applications preserve the "
            "opaque multiset and the K_-1 total")


def test_criterion_8_gate_table_and_degenerations():
    checked = 0
    for d in (1, 2, 3, 4, 5, 6):
        budget = singularity_budget(d)[0] if d >= 4 else 6
        for nu in range(1, budget + 1):
            verdict = kawamata_gate(d, nu)
            assert verdict.exists == (d in (5, 6))
            checked += 1
    expected_partitions = {1: {(1, 0), (0, 1)}, 2: {(2, 0), (1, 1)},
                           3: {(2, 1)}}
    for total, expected in expected_partitions.items():
        cases = enumerate_degenerations(5, total)
        assert {(c.nodes_c, c.nodes_q) for c in cases} == expected
    _report(8, f"gate verdicts match on {checked} (d, nodes) pairs; "
            "degree-5 partitions match for 1..3 nodes")
