import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo.intersection import he
from delpezzo.sod import (AXIOM, Decomposition, FactStore, LineBundle, Opaque,
                          RECORDED, TwistedStructureSheaf, is_perfect,
                          missing_pairs, node_text, query_complete_orthogonality,
                          record_decomposition, standard_opaque, tensor,
                          validate, vanish_key)


def O(a, b):
    return LineBundle(he(a, b))


def test_record_definition_unfolding():
    a, b = standard_opaque("A_C"), O(0, 0)
    dec = Decomposition("Y5", (a, b))
    store = FactStore()
    record_decomposition(dec, store, AXIOM)
    assert store.has(b, a)
    assert not store.has(a, b)
    assert validate(dec, store)


def test_record_line_side_output():
    # the line-side decomposition records Vanish(O(-E) -> O(E-H))
    dec = Decomposition("Y4", (standard_opaque("A_V4"), O(-1, 1), O(0, -1),
                               O(0, 0), O(1, -1)))
    store = FactStore()
    record_decomposition(dec, store, AXIOM)
    assert store.has(O(0, -1), O(-1, 1))


def test_record_idempotent():
    dec = Decomposition("Y5", (O(0, 0), O(1, 0)))
    store = FactStore()
    first = record_decomposition(dec, store, AXIOM)
    assert len(first) == 1
    again = record_decomposition(dec, store, AXIOM)
    assert again == []
    assert len(store) == 1


def test_complete_orthogonality_needs_both_sources():
    """The middle pair of the projection-side derivation is completely
    orthogonal because each of the two decompositions supplies one
    direction: the line-side result gives Vanish(O(-E) -> O(E-H)) and the
    projection-side intermediate order gives the reverse."""
    store = FactStore()
    line_side = Decomposition("Y4", (standard_opaque("A_V4"), O(-1, 1),
                                     O(0, -1), O(0, 0), O(1, -1)))
    record_decomposition(line_side, store, AXIOM)
    a, b = O(0, -1), O(-1, 1)   # O(D-2h) = O(-E) and O(-h) = O(E-H) at d=4
    assert not query_complete_orthogonality(store, a, b)
    intermediate = Decomposition("Y4", (standard_opaque("DbC"), a, b,
                                        O(0, 0), O(1, -1)))
    record_decomposition(intermediate, store, RECORDED)
    assert query_complete_orthogonality(store, a, b)


def test_one_directional_pair_is_not_orthogonal():
    store = FactStore()
    record_decomposition(Decomposition("Y4", (O(0, 0), O(1, -1))), store, AXIOM)
    assert not query_complete_orthogonality(store, O(0, 0), O(1, -1))


def test_twist_closure():
    store = FactStore()
    store.add(O(0, -1), O(-1, 1), AXIOM)
    store.add(O(-1, 1), O(0, -1), AXIOM)
    # twist both sides by h = H - E: O(D-2h+h), O(-h+h) = O(0)
    t = he(1, -1)
    a = LineBundle(he(0, -1) + t)
    b = LineBundle(he(-1, 1) + t)
    assert query_complete_orthogonality(store, a, b)
    assert "twist-closure" in store.describe(a, b)


@given(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_twist_closure_composes(x, y, t1):
    # closure under t then t' agrees with closure under t + t'
    store = FactStore()
    store.add(O(*x), O(*y), AXIOM)
    t = he(*t1)
    once = LineBundle(he(*x) + t), LineBundle(he(*y) + t)
    assert store.has(*once)
    twice = LineBundle(he(*x) + t + t), LineBundle(he(*y) + t + t)
    assert store.has(*twice)


def test_twist_closure_never_crosses_kinds():
    store = FactStore()
    store.add(O(1, -1), TwistedStructureSheaf("E", he(2, 0)), AXIOM)
    # same difference but a different pair of kinds must not match
    assert not store.has(O(1, -1), O(2, 0))
    assert store.has(O(0, -1), TwistedStructureSheaf("E", he(1, 0)))
    assert not store.has(O(1, -1), TwistedStructureSheaf("D", he(2, 0)))


def test_opaque_equality_is_by_name():
    a = standard_opaque("A_C")
    b = Opaque("A_C")
    assert is_perfect(a) is is_perfect(b) is True
    assert a == b
    assert hash(a) == hash(b)
    assert a != standard_opaque("A_Q")
    store = FactStore()
    store.add(a, O(0, 0), AXIOM)
    assert store.has(b, O(0, 0))


def test_a_line_bundle_is_the_structure_sheaf_of_the_whole_space():
    a = he(2, -1)
    assert TwistedStructureSheaf("", a) == LineBundle(a)
    assert hash(TwistedStructureSheaf("", a)) == hash(LineBundle(a))
    assert vanish_key(TwistedStructureSheaf("", a), O(0, 0)) == \
        vanish_key(LineBundle(a), O(0, 0))
    store = FactStore()
    assert store.add(TwistedStructureSheaf("", a), O(0, 0), AXIOM)
    assert not store.add(LineBundle(a), O(0, 0), AXIOM)
    assert node_text(TwistedStructureSheaf("", a)) == "O(2H-E)"
    with pytest.raises(ValueError):
        TwistedStructureSheaf("Q", a)


def test_opaque_facts_do_not_twist():
    store = FactStore()
    store.add(standard_opaque("A_C"), O(0, 0), AXIOM)
    assert store.has(standard_opaque("A_C"), O(0, 0))
    assert not store.has(standard_opaque("A_C"), O(1, 0))


def test_perfectness_flags():
    assert is_perfect(O(3, -2)) is True
    assert is_perfect(TwistedStructureSheaf("E", he(0, 1))) is True
    assert is_perfect(standard_opaque("A_C")) is True
    assert is_perfect(standard_opaque("A_Q")) is True
    assert is_perfect(standard_opaque("A_V5")) is None
    assert is_perfect(standard_opaque("DbY")) is None


def test_validate_reports_missing():
    dec = Decomposition("Y5", (O(0, 0), O(1, 0), O(2, 0)))
    store = FactStore()
    assert missing_pairs(dec, store) == [(1, 2), (1, 3), (2, 3)]
    record_decomposition(dec, store, AXIOM)
    assert validate(dec, store)


def test_tensor_and_node_text():
    n = tensor(O(1, 0), he(-2, 1))
    assert node_text(n) == "O(E-H)"
    sheaf = tensor(TwistedStructureSheaf("E", he(0, 1)), he(2, -1))
    assert node_text(sheaf) == "O_E(2H)"
    assert node_text(O(0, -1), 4) == "O(D-2h)"
    cat = tensor(standard_opaque("A_C"), he(1, 0))
    assert cat == standard_opaque("A_C")


def test_describe_and_dump_texts():
    store = FactStore()
    store.add(O(0, -1), O(-1, 1), AXIOM)
    store.add(standard_opaque("A_C"), O(0, 0), RECORDED)
    assert store.describe(O(0, -1), O(-1, 1)) == "Vanish(O(-E) -> O(E-H)) [axiom]"
    assert store.describe(O(1, -2), O(0, 0)) == (
        "Vanish(O(-E) -> O(E-H)) [axiom] (twist-closure at O(H-2E) -> O(0))")
    assert store.describe(Opaque("A_C"), O(0, 0)) == \
        "Vanish(CAT(A_C) -> O(0)) [recorded-from-decomposition]"
    assert store.describe(O(0, 0), O(1, 0)) is None
    assert store.dump() == [
        "vanish CAT(A_C) -> O(0)  [recorded-from-decomposition]",
        "vanish O(-E) -> O(E-H)  [axiom]"]

