import random

import pytest

from delpezzo.dsl import builtin_script_names, load_builtin_script
from delpezzo.errors import (FinalMismatch, PerfectnessUnknown,
                             SideConditionFailed, TailMismatch)
from delpezzo.intersection import BlowupGeometry, from_hd, he
from delpezzo.mutations import (MutationRule, apply_rule, blowup_expansion,
                                compare_and_solve, pushforward_vanishing,
                                replay, ruling_fiber_degree)
from delpezzo.sod import (AXIOM, Decomposition, FactStore, LineBundle, Opaque,
                          TwistedStructureSheaf, record_decomposition,
                          standard_opaque)
from corrupt import corrupted_scripts


def O(a, b):
    return LineBundle(he(a, b))


def OE(a, b):
    return TwistedStructureSheaf("E", he(a, b))


def _fresh(name):
    script = load_builtin_script(name)
    return script, FactStore(), BlowupGeometry(script.d)


LINE_SIDE_TAIL = (O(-1, 1), O(0, -1), O(0, 0), O(1, -1))


def test_replay_line_side_quintic():
    script, store, geom = _fresh("prop-Y-to-V")
    final, audit = replay(script, store, geom)
    assert final.nodes == (standard_opaque("A_V5"),) + LINE_SIDE_TAIL
    assert len(script.rules) == 9
    assert len(audit.entries) == 10  # one axiom preamble entry


def test_replay_line_side_quartic():
    script, store, geom = _fresh("prop-Y-to-V-4")
    final, _ = replay(script, store, geom)
    assert final.nodes == (standard_opaque("A_V4"),) + LINE_SIDE_TAIL


def test_replay_projection_side_quartic():
    script, store, geom = _fresh("prop-Y-to-W-4")
    final, audit = replay(script, store, geom)
    assert final.nodes == (standard_opaque("DbC"),) + LINE_SIDE_TAIL
    # the swap must cite evidence from two different provenances
    swap_entry = next(e for e in audit.entries if e.rule.startswith("swap"))
    assert len(swap_entry.evidence) == 2
    assert any("axiom" in e for e in swap_entry.evidence)
    assert any("recorded-from-decomposition" in e for e in swap_entry.evidence)


def test_replay_projection_side_quintic():
    script, store, geom = _fresh("prop-Y-to-W-5")
    final, audit = replay(script, store, geom)
    assert final.nodes == (standard_opaque("A_C"), standard_opaque("A_Q")) \
        + LINE_SIDE_TAIL
    swap_like = [e for e in audit.entries if e.rule.startswith("swap")]
    assert swap_like == []


def test_every_rule_cites_evidence():
    for name in builtin_script_names():
        script, store, geom = _fresh(name)
        _, audit = replay(script, store, geom)
        for entry in audit.entries:
            assert entry.evidence


def test_serre_rotate_moves_prefix_right():
    # rotating the two twisted sheaves to the end absorbs the inverse
    # canonical twist: E-H and E become H and 2H
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (OE(-1, 1), OE(0, 1), standard_opaque("A_V5"),
                               O(0, 0), O(1, 0)))
    rule = MutationRule("serre_rotate", 1, position_end=2, direction="left")
    out, _ = apply_rule(dec, rule, store, geom)
    assert out.nodes == (standard_opaque("A_V5"), O(0, 0), O(1, 0),
                         OE(1, 0), OE(2, 0))


def test_serre_rotate_requires_perfect_block():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (standard_opaque("A_V5"), standard_opaque("DbY")))
    rule = MutationRule("serre_rotate", 1, position_end=1, direction="left")
    with pytest.raises(PerfectnessUnknown):
        apply_rule(dec, rule, store, geom)


def test_serre_rotate_reads_perfectness_from_the_name():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (Opaque("A_C"), Opaque("A_V5")))
    rule = MutationRule("serre_rotate", 1, position_end=1, direction="left")
    out, _ = apply_rule(dec, rule, store, geom)
    assert out.nodes == (Opaque("A_V5"), Opaque("A_C"))


def test_fiber_rebase_refuses_two_line_bundles():
    dec = Decomposition("Y5", (O(1, 0), O(2, 0)))
    with pytest.raises(SideConditionFailed,
                       match="pair must be twisted sheaves on one divisor"):
        apply_rule(dec, MutationRule("fiber_rebase", 1, shift="+F"),
                   FactStore(), BlowupGeometry(5))


def test_fiber_rebase_example():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (OE(1, 0), OE(2, 0)))
    out, _ = apply_rule(dec, MutationRule("fiber_rebase", 1, shift="-F"),
                        store, geom)
    assert out.nodes == (OE(0, 0), OE(1, 0))


def test_fiber_rebase_round_trip():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (OE(1, 0), OE(2, 0)))
    for first, second in (("-F", "+F"), ("+F", "-F")):
        mid, _ = apply_rule(dec, MutationRule("fiber_rebase", 1, shift=first),
                            store, geom)
        back, _ = apply_rule(mid, MutationRule("fiber_rebase", 1, shift=second),
                             store, geom)
        assert back.nodes == dec.nodes


def test_triangle_exchange_cycles_to_identity():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (O(1, 0), OE(1, 0)))
    rule = MutationRule("triangle_exchange", 1, support="E", direction=1)
    state = dec
    seen = [dec.nodes]
    for _ in range(3):
        state, _ = apply_rule(state, rule, store, geom)
        seen.append(state.nodes)
    assert state.nodes == dec.nodes
    assert len({s for s in seen[:3]}) == 3


def test_swap_on_empty_store_fails():
    store, geom = FactStore(), BlowupGeometry(5)
    h = from_hd(1, 0, 5)
    dec = Decomposition("Y5", (O(0, 0), LineBundle(h)))
    with pytest.raises(SideConditionFailed):
        apply_rule(dec, MutationRule("swap", 1), store, geom)


def test_pushforward_oracle():
    geom = BlowupGeometry(5)
    # difference H+E has ruling fiber degree -1: Horns vanish
    assert pushforward_vanishing(geom, he(1, -1), OE(2, 0))
    # difference H has fiber degree 0: the oracle stays silent
    assert not pushforward_vanishing(geom, he(1, 0), OE(2, 0))
    # the projection-side divisor works through the registered relations
    d_sheaf = TwistedStructureSheaf("D", from_hd(0, 1, 5))
    assert pushforward_vanishing(geom, he(0, 0), d_sheaf)
    # the same twists on the whole space: no ruling, so no answer
    for twist in (he(2, 0), d_sheaf.twist):
        assert not pushforward_vanishing(geom, he(1, -1), LineBundle(twist))
        assert ruling_fiber_degree(geom, "", twist) is None


def test_swap_discharged_by_oracle():
    store, geom = FactStore(), BlowupGeometry(5)
    dec = Decomposition("Y5", (O(1, -1), OE(2, 0)))
    record_decomposition(dec, store, AXIOM)
    out, _ = apply_rule(dec, MutationRule("swap", 1), store, geom)
    assert out.nodes == (OE(2, 0), O(1, -1))


def test_an_unknown_rule_is_refused():
    rule = MutationRule("bogus", 1)
    with pytest.raises(ValueError, match="^unknown rule id 'bogus'$"):
        rule.text()
    with pytest.raises(SideConditionFailed) as err:
        apply_rule(Decomposition("Y5", (O(0, 0), O(1, 0))), rule, FactStore(),
                   BlowupGeometry(5))
    assert (err.value.code, str(err.value)) == (30, "bogus: unknown rule")


def test_replay_refuses_a_geometry_of_another_degree():
    script = load_builtin_script("prop-Y-to-V")
    with pytest.raises(ValueError, match="^script is for degree 5, geometry for 4$"):
        replay(script, FactStore(), BlowupGeometry(4))


def test_expansion_registry():
    assert blowup_expansion(6, "L") is not None
    assert blowup_expansion(6, "C") is None
    assert blowup_expansion(5, "X") is None
    head, *tail = blowup_expansion(4, "C")
    assert isinstance(head, Opaque) and len(tail) == 4
    assert all(isinstance(n, TwistedStructureSheaf) and n.support == "" for n in tail)


def test_replay_determinism():
    for name in builtin_script_names():
        script, store, geom = _fresh(name)
        _, audit_one = replay(script, store, geom)
        script2, store2, geom2 = _fresh(name)
        _, audit_two = replay(script2, store2, geom2)
        assert audit_one.text() == audit_two.text()
        assert audit_one.text().encode() == audit_two.text().encode()


def test_shipped_scripts_are_short():
    for name in builtin_script_names():
        assert len(load_builtin_script(name).rules) <= 30


def test_final_mismatch_reports_positions():
    script, store, geom = _fresh("prop-Y-to-V")
    wrong = Decomposition(script.ambient,
                          script.expected.nodes[:1] + script.expected.nodes[:1]
                          + script.expected.nodes[2:])
    bad = type(script)(script.name, script.d, script.axioms, script.rules,
                       wrong, script.hd_degree)
    with pytest.raises(FinalMismatch) as err:
        replay(bad, store, geom)
    assert any("position 2" in d for d in err.value.diffs)


# -- mutation-testing harness -------------------------------------------------

def _corruption_cases():
    cases = []
    for name in builtin_script_names():
        script = load_builtin_script(name)
        n = len(script.expected.nodes)
        for step, bad in corrupted_scripts(script, n):
            cases.append(pytest.param(name, step, bad,
                                      id=f"{name}-step{step}-{bad.rules[step-1].text()}"))
    return cases


@pytest.mark.parametrize("name,step,bad", _corruption_cases())
def test_single_step_corruption_is_caught(name, step, bad):
    store = FactStore()
    geom = BlowupGeometry(bad.d)
    with pytest.raises((SideConditionFailed, FinalMismatch)):
        replay(bad, store, geom)


# -- head comparison -----------------------------------------------------------

def _replayed_pair(d):
    vname = "prop-Y-to-V" if d == 5 else "prop-Y-to-V-4"
    wname = f"prop-Y-to-W-{d}"
    store = FactStore()
    geom = BlowupGeometry(d)
    left, _ = replay(load_builtin_script(vname), store, geom)
    right, _ = replay(load_builtin_script(wname), store, geom)
    return left, right


def test_compare_quartic():
    left, right = _replayed_pair(4)
    eq = compare_and_solve(left, right, 4)
    assert eq.lhs == ("A_V4",)
    assert eq.rhs == ("DbC",)
    assert eq.text() == "A_V4 = Db(C)"


def test_compare_quintic():
    left, right = _replayed_pair(5)
    eq = compare_and_solve(left, right, 5)
    assert eq.lhs == ("A_V5",)
    assert eq.rhs == ("A_C", "A_Q")
    assert eq.text() == "A_V5 = <A_C, A_Q>"


def test_compare_rejects_permuted_tail():
    left, right = _replayed_pair(4)
    nodes = list(left.nodes)
    nodes[1], nodes[2] = nodes[2], nodes[1]
    with pytest.raises(TailMismatch) as err:
        compare_and_solve(Decomposition(left.ambient, tuple(nodes)), right, 4)
    assert err.value.position == 1


def test_compare_refuses_what_it_cannot_match():
    head = Decomposition("Y5", (Opaque("A"), O(0, 0)))
    with pytest.raises(ValueError, match="^ambients differ: Y5 vs Y4$"):
        compare_and_solve(head, Decomposition("Y4", head.nodes), 5)
    with pytest.raises(ValueError,
                       match="^decomposition head must consist of opaque components$"):
        compare_and_solve(head, Decomposition("Y5", (O(0, 0), Opaque("B"))), 5)
    longer = Decomposition("Y5", (Opaque("B"), O(0, 0), O(1, 0)))
    with pytest.raises(TailMismatch) as err:
        compare_and_solve(head, longer, 5)
    assert (err.value.code, err.value.position) == (34, 2)
    assert str(err.value) == ("tail position 2: expected a tail of length 1, "
                              "found a tail of length 2")


# -- K-theory level soundness ---------------------------------------------------

def _candidate_rules(n, rng):
    rules = []
    for j in range(1, n):
        rules.append(MutationRule("serre_rotate", 1, position_end=j,
                                  direction="left"))
        rules.append(MutationRule("serre_rotate", j + 1, position_end=n,
                                  direction="right"))
    for i in range(1, n):
        for support in ("E", "D"):
            rules.append(MutationRule("triangle_exchange", i, support=support,
                                      direction=rng.choice((1, 2))))
        rules.append(MutationRule("swap", i))
        rules.append(MutationRule("fiber_rebase", i,
                                  shift=rng.choice(("+F", "-F"))))
    for i in range(1, n + 1):
        rules.append(MutationRule("opaque_transpose", i,
                                  direction=rng.choice(("left", "right"))))
    return rules


def random_walk(dec, store, geom, rng, steps):
    """Yield the states of a walk applying randomly chosen valid rules."""
    current = dec
    for _ in range(steps):
        rules = _candidate_rules(len(current.nodes), rng)
        rng.shuffle(rules)
        for rule in rules:
            try:
                current, _ = apply_rule(current, rule, store, geom)
            except SideConditionFailed:
                continue
            break
        else:
            return
        yield current


def test_k_theory_invariance_under_random_walks():
    from delpezzo.ktheory import k_minus1_total, standard_models
    rng = random.Random(20240)
    total_applications = 0
    for d, nodes_c, nodes_q in ((5, 2, 1), (4, 3, 0)):
        models = standard_models(d, nodes_c, nodes_q)
        for name in builtin_script_names():
            script = load_builtin_script(name)
            if script.d != d:
                continue
            store = FactStore()
            geom = BlowupGeometry(d)
            start, _ = replay(script, store, geom)
            names0 = sorted(n.name for n in start.nodes
                            if isinstance(n, Opaque))
            total0 = k_minus1_total(start, models)
            for state in random_walk(start, store, geom, rng, steps=60):
                names = sorted(n.name for n in state.nodes
                               if isinstance(n, Opaque))
                assert names == names0
                assert k_minus1_total(state, models) == total0
                total_applications += 1
    assert total_applications >= 200
