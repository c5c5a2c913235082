"""The Riemann-Roch oracle against the replay engine: every Vanish fact
between twistable nodes needs chi(x, y) = 0, and chi obeys Serre duality
under the canonical twist that ``serre_rotate`` applies."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo.dsl import builtin_script_names, load_builtin_script, parse_node
from delpezzo.intersection import BlowupGeometry, canonical_class, he
from delpezzo.mutations import pushforward_vanishing, replay
from delpezzo.sod import FactStore, LineBundle, Opaque, TwistedStructureSheaf, tensor
from oracles import chi_line_bundle, euler_form

DEGREES = st.sampled_from([4, 5])
CLASSES = st.builds(he, st.integers(-4, 4), st.integers(-4, 4))
NODES = st.builds(TwistedStructureSheaf, st.sampled_from(["", "E", "D"]), CLASSES)


@pytest.mark.parametrize("d", [4, 5])
def test_chi_special_values(d):
    assert chi_line_bundle(d, 0, 0) == 1
    assert chi_line_bundle(d, -1, 0) == 0
    assert chi_line_bundle(d, *canonical_class(d).coords) == -1
    assert chi_line_bundle(d, 1, 0) == d + 2
    assert chi_line_bundle(d, 0, 1) == 1
    # O_E: E is ruled over the line; O_D: D is ruled over the blown-down
    # curve, a twisted cubic for d = 5 and a genus-2 quintic for d = 4
    assert euler_form(d, LineBundle(he(0, 0)), TwistedStructureSheaf("E", he(0, 0))) == 1
    assert euler_form(d, LineBundle(he(0, 0)), TwistedStructureSheaf("D", he(0, 0))) == \
        (1 if d == 5 else -1)


def test_every_twistable_fact_of_the_builtin_replays_has_chi_zero():
    checked = 0
    for name in builtin_script_names():
        script, store = load_builtin_script(name), FactStore()
        replay(script, store, BlowupGeometry(script.d))
        for line in store.dump():
            x, y = (parse_node(t, script.d)
                    for t in re.fullmatch(r"vanish (\S+) -> (\S+)  \[.*\]", line).groups())
            if isinstance(x, Opaque) or isinstance(y, Opaque):
                continue
            assert euler_form(script.d, x, y) == 0, (name, line)
            checked += 1
    assert checked == 45


@given(DEGREES, CLASSES, NODES)
def test_pushforward_vanishing_implies_chi_zero(d, source, target):
    if pushforward_vanishing(BlowupGeometry(d), source, target):
        assert euler_form(d, LineBundle(source), target) == 0


@given(DEGREES, NODES, NODES)
def test_chi_obeys_serre_duality(d, x, y):
    assert euler_form(d, x, y) == -euler_form(d, y, tensor(x, canonical_class(d)))
