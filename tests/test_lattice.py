import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo.lattice import (IntMatrix, _eliminate, from_rational_rows,
                              invert_rational, rank, rational_nullspace,
                              smith_normal_form)
from oracles import (det_int, fraction_inverse, fraction_nullspace,
                     fraction_rank, smith_diagonal_from_minors)

matrices = st.integers(1, 8).flatmap(
    lambda nr: st.integers(1, 8).flatmap(
        lambda nc: st.lists(
            st.lists(st.integers(-20, 20), min_size=nc, max_size=nc),
            min_size=nr, max_size=nr)))


def test_identity_snf():
    snf = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert snf.diagonal == (1, 1)
    assert snf.rank == 2


def test_snf_two_by_two():
    # gcd of entries is 2, gcd of the 2x2 minors is 8, so d2 = 8 / 2
    rows = [[2, 4], [6, 8]]
    assert smith_diagonal_from_minors(rows) == (2, 4)
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    assert snf.diagonal == (2, 4)
    assert snf.rank == 2


def test_zero_matrix_snf():
    snf = smith_normal_form(IntMatrix(3, 3, (0,) * 9))
    assert snf.diagonal == (0, 0, 0)
    assert snf.rank == 0


@settings(max_examples=150)
@given(matrices)
def test_divisibility_chain_and_rank(rows):
    m = IntMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    nonzero = [d for d in snf.diagonal if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert all(d == 0 for d in snf.diagonal[len(nonzero):])
    assert snf.rank == len(nonzero)
    assert snf.rank == m.cols - len(rational_nullspace(m))


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_snf_matches_minor_gcds(rows):
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    assert snf.diagonal == smith_diagonal_from_minors(rows)


def _random_unimodular(n, rng):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("seed", range(8))
def test_snf_invariant_under_unimodular(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
    left = _random_unimodular(nr, rng)
    right = _random_unimodular(nc, rng)
    base = smith_normal_form(IntMatrix.from_rows(rows))
    twisted = smith_normal_form(
        IntMatrix.from_rows(_mat_mul(left, _mat_mul(rows, right))))
    assert base.diagonal == twisted.diagonal


def test_nullspace_identity():
    assert rational_nullspace(IntMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_nullspace_hyperplane():
    basis = rational_nullspace(IntMatrix.from_rows([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_random_rank3(seed):
    rng = random.Random(seed)
    while True:
        rows = [[rng.randint(-20, 20) for _ in range(5)] for _ in range(3)]
        m = IntMatrix.from_rows(rows)
        if rank(m) == 3:
            break
    basis = rational_nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(Fraction(x) * c for x, c in zip(row, v)) == 0


def test_from_rational_rows_preserves_rank():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
    m = from_rational_rows(rows)
    assert m.entries == (3, 2, 3, 1)
    assert rank(m) == 2


def test_invert_rational_round_trip():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_rational(rows)
    prod = _mat_mul(rows, inv)
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        invert_rational([[1, 2], [2, 4]])


# -- the fraction-free kernel against Gauss-Jordan over Fraction --------------

small_ints = st.integers(-9, 9)
small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def deficient_rows(draw, entries, square=False):
    """(rows, cols) of a product of an nr x k and a k x nc matrix with
    k <= min(nr, nc), so usually rank deficient, with some columns zeroed.
    Zero rows are allowed."""
    nr = draw(st.integers(0, 7))
    nc = nr if square else draw(st.integers(0, 7))
    k = draw(st.integers(0, min(nr, nc)))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=nc))
    rows = [[0 if j in zeroed else sum(a * right[t][j] for t, a in enumerate(row))
             for j in range(nc)] for row in left]
    return rows, nc


def _int_matrix(rows, nc):
    return IntMatrix(len(rows), nc, tuple(x for row in rows for x in row))


@settings(max_examples=300)
@given(deficient_rows(small_ints))
def test_integer_kernel_matches_fraction_reference(case):
    rows, nc = case
    m = _int_matrix(rows, nc)
    assert rank(m) == fraction_rank(rows)
    assert rational_nullspace(m) == fraction_nullspace(rows, nc)


@settings(max_examples=300)
@given(deficient_rows(small_fractions))
def test_rational_kernel_matches_fraction_reference(case):
    rows, nc = case
    assume(rows)
    m = from_rational_rows(rows)
    assert rank(m) == fraction_rank(rows)
    assert rational_nullspace(m) == fraction_nullspace(rows, nc)


@settings(max_examples=200)
@given(st.one_of(
    deficient_rows(small_fractions, square=True),
    st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small_fractions, min_size=n, max_size=n),
                 min_size=n, max_size=n), st.just(n)))))
def test_invert_matches_fraction_reference(case):
    rows, _ = case
    expected = fraction_inverse(rows)
    if expected is None:
        with pytest.raises(ValueError):
            invert_rational(rows)
    else:
        assert invert_rational(rows) == expected


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_last_pivot_is_the_determinant(rows):
    det = det_int(rows)
    _, pivots, d = _eliminate([list(row) for row in rows])
    assert (len(pivots) == len(rows)) == (det != 0)
    if det:
        assert abs(d) == abs(det)


@settings(max_examples=60, deadline=None)
@given(deficient_rows(small_ints))
def test_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, nc = case
    expected = sympy.Matrix(len(rows), nc, [x for row in rows for x in row]).rank()
    assert rank(_int_matrix(rows, nc)) == expected
