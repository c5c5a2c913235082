import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delpezzo.catalog import lookup
from delpezzo.errors import NoRelationsForDegree, OutOfRangeDegree
from delpezzo.intersection import (BlowupGeometry, DivisorClass, E, H,
                                   canonical_class, class_text, from_hd, he,
                                   rewrite, triple)

coords = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
degrees = st.sampled_from([4, 5])


def test_degree_validation():
    with pytest.raises(OutOfRangeDegree):
        BlowupGeometry(3)
    with pytest.raises(OutOfRangeDegree):
        BlowupGeometry(7)
    with pytest.raises(OutOfRangeDegree):
        canonical_class(2)


def test_polarization_cube():
    assert triple(BlowupGeometry(5), H, H, H) == 5


def test_projection_image_degree():
    hme = H - E
    assert triple(BlowupGeometry(5), hme, hme, hme) == 2
    assert triple(BlowupGeometry(4), hme, hme, hme) == 1


def test_mixed_product_vanishes():
    # the pullback polarization squared restricts trivially to the
    # exceptional divisor: it comes from a curve class downstairs
    assert triple(BlowupGeometry(5), H, H, E) == 0


@pytest.mark.parametrize("d,expected", [(4, 1), (5, 2), (6, 3)])
def test_iskovskikh_degree(d, expected):
    # H^3 - (3H + K_V).L + 2g - 2 with H.L = 1, K_V.L = -2 and g = 0
    hme = H - E
    assert triple(BlowupGeometry(d), hme, hme, hme) == expected
    assert expected == d - 3 * 1 + 2 + 0 - 2


@pytest.mark.parametrize("d,curve", [(4, (5, 2)), (5, (3, 0))])
def test_projection_center_matches_the_catalog(d, curve):
    """h and D, derived from K_Y, describe the blow-up of the projection
    image W (degree d - 3, index 8 - d) along a curve C.  Its degree
    -h.D^2 and its genus from D^3 = -(index deg C + 2g - 2) are those of
    a curve of the catalog's bidegree (a, b): degree a + b, genus
    (a - 1)(b - 1)."""
    geom = BlowupGeometry(d)
    h, D = from_hd(1, 0, d), from_hd(0, 1, d)
    assert h == H - E
    assert triple(geom, h, h, h) == d - 3
    assert triple(geom, h, h, D) == 0   # D lies over a curve
    deg = -triple(geom, h, D, D)
    genus, odd = divmod(2 - (8 - d) * deg - triple(geom, D, D, D), 2)
    assert odd == 0
    assert (deg, genus) == curve
    a, b = lookup(d).curve_bidegree
    assert (deg, genus) == (a + b, (a - 1) * (b - 1))


@given(degrees, coords, coords, coords)
def test_triple_symmetric(d, a, b, c):
    geom = BlowupGeometry(d)
    classes = [DivisorClass(a), DivisorClass(b), DivisorClass(c)]
    values = {triple(geom, *perm) for perm in itertools.permutations(classes)}
    assert len(values) == 1


@given(degrees, coords, coords, coords, st.integers(-5, 5), st.integers(-5, 5))
def test_triple_multilinear(d, a, b, c, m, n):
    geom = BlowupGeometry(d)
    ca, cb, cc = (DivisorClass(v) for v in (a, b, c))
    assert triple(geom, m * ca + n * cb, cb, cc) == \
        m * triple(geom, ca, cb, cc) + n * triple(geom, cb, cb, cc)


def test_rewrite_examples():
    assert rewrite(H - E, 5) == (1, 0)
    assert rewrite(he(-2, 1), 4) == (-4, 1)
    assert rewrite(he(-2, 1), 5) == (-3, 1)
    # generators themselves
    assert rewrite(E, 4) == (2, -1)
    assert rewrite(E, 5) == (1, -1)


def test_canonical_class():
    for d in (4, 5, 6):
        assert canonical_class(d) == he(-2, 1)
    assert rewrite(canonical_class(4), 4) == (-4, 1)
    assert rewrite(canonical_class(5), 5) == (-3, 1)
    with pytest.raises(NoRelationsForDegree):
        rewrite(canonical_class(6), 6)


@given(degrees, coords)
def test_rewrite_round_trip(d, v):
    cls = DivisorClass(v)
    assert from_hd(*rewrite(cls, d), d) == cls
    assert rewrite(from_hd(*v, d), d) == v


@given(coords)
def test_no_relations_for_degree_six(v):
    with pytest.raises(NoRelationsForDegree):
        rewrite(DivisorClass(v), 6)
    with pytest.raises(NoRelationsForDegree):
        from_hd(*v, 6)
    # writing a class in {H, E} never needs relations, in {h, D} it does
    assert class_text(H) == "H"
    with pytest.raises(NoRelationsForDegree):
        class_text(DivisorClass(v), 6)


def test_class_text():
    assert class_text(he(2, -1)) == "2H-E"
    assert class_text(from_hd(-2, 1, 4), 4) == "D-2h"
    assert class_text(he(0, 0)) == "0"
    assert class_text(from_hd(-1, 0, 5), 5) == "-h"
    assert class_text(he(1, 1)) == "H+E"
