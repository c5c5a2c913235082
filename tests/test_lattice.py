import random
from fractions import Fraction
from itertools import chain
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo.lattice import (_PAIR_BITS, _PAIR_ROWS, IntMatrix, _carry, _forward,
                              _replay, from_rational_rows, invert_rational, rank,
                              rational_nullspace)
from oracles import (det_int, dense_forward, fraction_inverse, fraction_nullspace,
                     fraction_rank)


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_nullspace_identity():
    assert rational_nullspace(IntMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_nullspace_hyperplane():
    basis = rational_nullspace(IntMatrix.from_rows([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


@pytest.mark.parametrize("rows,kernel", [
    ([[True, True]], [(-1, 1)]),
    ([[False, True]], [(1, 0)]),
    ([[1, 0, 0], [0, True, True]], [(0, -1, 1)]),
])
def test_nullspace_of_bool_entries_is_plain_ints(rows, kernel):
    # the last pivot is an untouched True, so D must be converted to int
    basis = rational_nullspace(IntMatrix.from_rows(rows))
    assert basis == kernel
    assert all(type(x) is int for v in basis for x in v)


@pytest.mark.parametrize("other", [5, None, 2.5, object()])
def test_kernel_is_unequal_to_a_value_that_is_not_a_sequence(other):
    # the comparison falls back to identity instead of iterating other
    kernel = rational_nullspace(IntMatrix.from_rows([[1, 1]]))
    assert (kernel == other) is False and (kernel != other) is True
    assert kernel == [(-1, 1)] and kernel != [(1, -1)]
    assert kernel == rational_nullspace(IntMatrix(1, 2, (1, 1)))


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


def test_from_rational_rows_keeps_integer_rows_as_plain_ints():
    # a row whose lcm is 1 is taken as it is, a Fraction by its numerator
    m = from_rational_rows([[Fraction(4, 2), -3, True], [Fraction(1, 2), 1, 0]])
    assert m.entries == (2, -3, 1, 1, 2, 0)
    assert all(type(x) is int for x in m.entries)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(4, 2), 2.7, 2.0])
def test_from_rows_rejects_non_integers(entry):
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[entry, 2], [1, 0]])


def test_invert_rational_round_trip():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_rational(rows)
    prod = _mat_mul(rows, inv)
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        invert_rational([[1, 2], [2, 4]])


# -- the fraction-free kernel against Gauss-Jordan over Fraction --------------

# toward the builder's scale, where a 12-node sextic reduces 60 x 64 rows
MAX_SIZE = 14
wide_ints = st.integers(-1000, 1000)
wide_fractions = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 7))


@st.composite
def deficient_rows(draw, entries, square=False, sizes=st.integers(0, MAX_SIZE)):
    """(rows, cols) of a product of an nr x k and a k x nc matrix with
    k < min(nr, nc), so rank deficient unless a side is 0, with some columns
    zeroed.  Zero rows are allowed."""
    nr = draw(sizes)
    nc = nr if square else draw(sizes)
    k = draw(st.integers(0, max(min(nr, nc) - 1, 0)))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=nc))
    rows = [[0 if j in zeroed else sum(a * right[t][j] for t, a in enumerate(row))
             for j in range(nc)] for row in left]
    return rows, nc


@st.composite
def random_rows(draw, entries, square=False, sizes=st.integers(0, MAX_SIZE)):
    """(rows, cols) with independent entries, so usually of full rank."""
    nr = draw(sizes)
    nc = nr if square else draw(sizes)
    return draw(st.lists(st.lists(entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr)), nc


@st.composite
def sparse_rows(draw, entries, square=False, sizes=st.integers(0, MAX_SIZE)):
    """(rows, cols) in which every row is at least half zeros, with zero
    columns, zero rows and repeated rows, like the builder's node
    constraints: most multipliers of the forward pass are 0."""
    nr = draw(sizes)
    nc = nr if square else draw(sizes)
    cols = st.integers(0, max(nc - 1, 0))
    zeroed = draw(st.sets(cols, max_size=nc))
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "repeat"]))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([0] * nc)
        else:
            support = draw(st.sets(cols, max_size=nc // 2)) - zeroed
            rows.append([draw(entries) if j in support else 0 for j in range(nc)])
    return rows, nc


def _int_matrix(rows, nc):
    return IntMatrix(len(rows), nc, tuple(x for row in rows for x in row))


def assert_integer_kernel(int_rows, nc, basis, expected):
    """basis holds plain ints; every vector has D, the last pivot of
    ``_forward``, at its free column as its last nonzero entry; and basis / D
    is the Fraction reference ``expected``."""
    _, pivots, d, _ = _forward([list(r) for r in int_rows])
    free = [c for c in range(nc) if c not in pivots]
    assert all(type(x) is int for v in basis for x in v)
    assert len(basis) == len(free)
    assert [v[f] for v, f in zip(basis, free)] == [d] * len(free)
    assert not any(x for v, f in zip(basis, free) for x in v[f + 1:])
    assert [tuple(Fraction(x, d) for x in v) for v in basis] == expected


@settings(max_examples=200, deadline=None)
@given(sparse_rows(wide_ints) | deficient_rows(wide_ints) | random_rows(wide_ints))
def test_integer_kernel_matches_fraction_reference(case):
    rows, nc = case
    m = _int_matrix(rows, nc)
    assert rank(m) == fraction_rank(rows)
    assert_integer_kernel(rows, nc, rational_nullspace(m), fraction_nullspace(rows, nc))
    assert rank(m) == m.cols - len(rational_nullspace(m))


@settings(max_examples=200, deadline=None)
@given(sparse_rows(wide_fractions) | deficient_rows(wide_fractions)
       | random_rows(wide_fractions))
def test_rational_kernel_matches_fraction_reference(case):
    rows, nc = case
    assume(rows)
    m = from_rational_rows(rows)
    assert rank(m) == fraction_rank(rows)
    assert_integer_kernel(m.to_rows(), nc, rational_nullspace(m),
                          fraction_nullspace(rows, nc))


@settings(max_examples=200, deadline=None)
@given(sparse_rows(wide_fractions, square=True)
       | deficient_rows(wide_fractions, square=True)
       | random_rows(wide_fractions, square=True))
def test_invert_matches_fraction_reference(case):
    rows, _ = case
    expected = fraction_inverse(rows)
    if expected is None:
        with pytest.raises(ValueError):
            invert_rational(rows)
    else:
        assert invert_rational(rows) == expected


@settings(max_examples=300, deadline=None)
@given(sparse_rows(wide_ints) | deficient_rows(wide_ints) | random_rows(wide_ints)
       | sparse_rows(st.booleans()) | random_rows(st.booleans()))
def test_forward_matches_dense_reference(case):
    """Skipping the rows whose multiplier is 0 and stopping at full row rank
    change no pivot and no last pivot; the eliminated rows followed by the
    columns carried through the log are the dense pass's echelon rows from
    each pivot on, and the input is left as it is."""
    rows, nc = case
    lazy, dense = [list(r) for r in rows], [list(r) for r in rows]
    u, pivots, d, log = _forward(lazy)
    assert lazy == rows
    assert (pivots, d) == dense_forward(dense)
    w = len(u[0]) if u else nc
    assert all(len(row) == w for row in u) and (not pivots or pivots[-1] < w)
    carried = [_carry(log, [row[j] for row in rows]) for j in range(w, nc)]
    for r, c in enumerate(pivots):
        assert u[r][c:] + [y[r] for y in carried] == dense[r][c:]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-20, 20), min_size=2 * n, max_size=2 * n),
             min_size=n, max_size=n))))
def test_full_row_rank_stops_the_pass(case):
    """On [A | B] with A square and nonsingular the pass eliminates A's
    columns and no more; B is left to the log."""
    a, b = case
    assume(det_int(a) != 0)
    u, pivots, _, log = _forward([ra + rb for ra, rb in zip(a, b)])
    assert pivots == list(range(len(a))) and _swept_pivot_rows(log) == pivots
    assert [len(row) for row in u] == [len(a)] * len(a)


def _swept_pivot_rows(log):
    """The pivot rows of the logged sweeps: r for a one-step entry, whose
    last field is (), r and r + 1 for a two-step one, ((t1, pair),)."""
    return sorted(chain.from_iterable([r] + [r + 1] * len(second)
                                      for r, *_, second in log))


# -- two-step sweeps: rows enough at a pivot to pair it with the next ---------

paired_sizes = st.integers(_PAIR_ROWS + 1, _PAIR_ROWS + 6)
# entries of about _PAIR_BITS / 2 bits: the first pivots pair, the larger
# ones that follow sweep alone
huge_ints = st.builds(lambda hi, lo: (hi << _PAIR_BITS // 2) + lo, wide_ints, wide_ints)


@st.composite
def shifted_rows(draw, cases):
    """A case behind z zero columns, z often the last column of a window, so
    that a pivot falls where no second pivot column is eliminated."""
    rows, nc = draw(cases)
    nr = len(rows)
    z = draw(st.sampled_from([0, nr - 1, 2 * nr - 1]) | st.integers(0, 2 * nr))
    return [[0] * z + row for row in rows], z + nc


@settings(max_examples=100, deadline=None)
@given(shifted_rows(sparse_rows(wide_ints, sizes=paired_sizes)
                    | deficient_rows(wide_ints, sizes=paired_sizes)
                    | random_rows(wide_ints, sizes=paired_sizes)
                    | random_rows(huge_ints, sizes=paired_sizes)))
def test_two_step_sweeps_match_dense_reference(case):
    """With more than _PAIR_ROWS rows left at a pivot, pivots in adjacent
    columns are eliminated in one sweep: pivots, last pivot and echelon
    rows are the dense pass's, the columns left to the log come out of
    ``_replay`` and ``_carry`` as the dense pass's, each pivot row is swept
    once, a row 0 at the first pivot column takes the second step alone,
    and rank, kernel and mixed draws agree with the pivots."""
    rows, nc = case
    dense = [list(r) for r in rows]
    u, pivots, d, log = _forward([list(r) for r in rows])
    assert (pivots, d) == dense_forward(dense)
    assert _swept_pivot_rows(log) == list(range(len(pivots)))
    for r, *_, second in log:   # a row 0 at the first pivot column: p1 alone
        assert all(a == u[r + 1][pivots[r + 1]] for _, pair in second
                   for _, a, f, _, _ in pair if not f)
    w = len(u[0])
    replayed = _replay(log, [row[w:] for row in rows])
    carried = [_carry(log, [row[j] for row in rows]) for j in range(w, nc)]
    assert replayed == [[y[i] for y in carried] for i in range(len(rows))]
    for r, c in enumerate(pivots):
        assert u[r][c:] + replayed[r] == dense[r][c:]
    m = _int_matrix(rows, nc)
    assert rank(m) == len(pivots)
    kernel, free = rational_nullspace(m), [c for c in range(nc) if c not in pivots]
    # D at its free column, 0 at the others, in the kernel: D times the reduced basis
    assert [[v[f] for f in free] for v in kernel] == [[d * (f == g) for f in free]
                                                        for g in free]
    assert not any(sum(map(mul, row, v)) for row in rows for v in kernel)
    assert_lazy_kernel(kernel, nc, list(range(1, len(kernel) + 1)))


@settings(max_examples=100)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_last_pivot_is_the_determinant(rows):
    det = det_int(rows)
    _, pivots, d, _ = _forward([list(row) for row in rows])
    assert (len(pivots) == len(rows)) == (det != 0)
    if det:
        assert abs(d) == abs(det)


@settings(max_examples=60, deadline=None)
@given(deficient_rows(wide_ints) | random_rows(wide_ints))
def test_rank_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    rows, nc = case
    expected = sympy.Matrix(len(rows), nc, [x for row in rows for x in row]).rank()
    assert rank(_int_matrix(rows, nc)) == expected


# -- the lazy kernel: one solve per combination, one for the basis ------------

def assert_lazy_kernel(kernel, nc, coeffs):
    assert kernel.mix(coeffs) == [sum(c * v[i] for c, v in zip(coeffs, kernel))
                                  for i in range(nc)]
    assert kernel == list(kernel)
    assert (kernel == []) == (len(kernel) == 0) == (not kernel)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(wide_ints) | deficient_rows(wide_ints) | random_rows(wide_ints)
       | sparse_rows(st.booleans()) | random_rows(st.booleans()), st.data())
def test_mix_matches_the_basis(case, data):
    rows, nc = case
    kernel = rational_nullspace(_int_matrix(rows, nc))
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(kernel),
                                max_size=len(kernel)))
    assert_lazy_kernel(kernel, nc, coeffs)


@pytest.mark.parametrize("rows,nc", [
    ([], 4),                                   # no rows: the standard basis
    ([[1, 0, 0], [0, 2, 0], [0, 0, -3]], 3),   # full rank: an empty kernel
    ([[True, False, True], [False, True, True]], 3),
])
def test_lazy_kernel_edge_cases(rows, nc):
    kernel = rational_nullspace(_int_matrix(rows, nc))
    assert_lazy_kernel(kernel, nc, list(range(2, 2 + len(kernel))))


@pytest.mark.parametrize("coeffs", [[2, 5, 9], []])
def test_mix_refuses_the_wrong_number_of_coefficients(coeffs):
    # [2, 5, 9] used to lose two coefficients and [] to raise a bare IndexError
    kernel = rational_nullspace(IntMatrix.from_rows([[1, 1]]))
    assert len(kernel) == 1
    with pytest.raises(ValueError, match=rf"one coefficient per kernel vector: "
                                         rf"expected 1, got {len(coeffs)}$"):
        kernel.mix(coeffs)
