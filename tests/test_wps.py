import json
import random
import time
from fractions import Fraction
from math import gcd, prod
from operator import mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo import dsl, lattice, wps
from delpezzo.errors import (DegreeTooLarge, InvalidNode, InvariantViolation,
                             NegativeLDegree, NodalityFailed, NodeAtAmbientSingularity,
                             NoSolution, ToolError, UnsupportedChart)
from delpezzo.lattice import IntMatrix, rational_nullspace
from delpezzo.wps import (NodalHypersurface, WeightedSpace, _det4, _jets, _monomials,
                          _node_constraint_rows, _node_values, adjoint_degree,
                          apply_linear_change, build_nodal_hypersurface, defect,
                          enumerate_monomials, hessian_rank, poly_eval, poly_partial)
from oracles import (brute_force_monomials, chart_hessian_rank, chart_normalize,
                     det_int, fraction_build, fraction_defect, fraction_linear_change,
                     fraction_nullspace, fraction_rank, naive_constraint_rows,
                     weighted_hessian_rank)

P4 = WeightedSpace((1, 1, 1, 1, 1))
P11112 = WeightedSpace((1, 1, 1, 1, 2))
P11123 = WeightedSpace((1, 1, 1, 2, 3))

E4 = (0, 0, 0, 0, 1)
GOLDEN = Path(__file__).parent / "golden"


def test_weighted_space_invariants():
    with pytest.raises(ValueError):
        WeightedSpace((2, 2))
    with pytest.raises(ValueError):
        WeightedSpace((1, 0))
    assert P11123.dim == 4


@pytest.mark.parametrize("space,degree,count", [
    (P4, 1, 5),
    (P11123, 4, 25),
    (P11112, 2, 11),
])
def test_monomial_counts(space, degree, count):
    mons = enumerate_monomials(space, degree)
    assert len(mons) == count
    assert mons == brute_force_monomials(space.weights, degree)
    assert mons == sorted(mons)


def test_degree_four_count_by_cases():
    # split the 25 forms by the exponents of the weight-2 and weight-3
    # variables: 15 + 6 + 1 pure in the unit weights, plus 3 with the
    # weight-3 variable
    mons = enumerate_monomials(P11123, 4)
    by_case = {
        (0, 0): sum(1 for e in mons if e[3] == 0 and e[4] == 0),
        (1, 0): sum(1 for e in mons if e[3] == 1 and e[4] == 0),
        (2, 0): sum(1 for e in mons if e[3] == 2 and e[4] == 0),
        (0, 1): sum(1 for e in mons if e[4] == 1),
    }
    assert by_case == {(0, 0): 15, (1, 0): 6, (2, 0): 1, (0, 1): 3}


weight_lists = st.lists(st.integers(1, 4), min_size=3, max_size=5).filter(
    lambda ws: gcd(*ws) == 1)


@settings(max_examples=60, deadline=None)
@given(weight_lists, st.integers(0, 12))
def test_monomials_match_brute_force(weights, degree):
    space = WeightedSpace(tuple(weights))
    assert enumerate_monomials(space, degree) == \
        brute_force_monomials(weights, degree)


def test_singular_points():
    for space, point in [(P11123, (0, 0, 0, 1, 0)), (P11123, (0, 0, 0, 0, 1)),
                         (P11112, (0, 0, 0, 0, 1))]:
        with pytest.raises(NodeAtAmbientSingularity):
            space.normalize(point)
    # smooth points: the first has no weight-1 chart, the second is a node
    with pytest.raises(UnsupportedChart):
        P11123.normalize((0, 0, 0, 1, 1))
    assert P11112.normalize((1, 0, 0, 0, 1)) == (1, 0, 0, 0, 1)


def test_cubic_one_node_kills_top_coefficients():
    hyp = build_nodal_hypersurface(P4, 3, [E4])
    for mono, coeff in zip(hyp.monomials(), hyp.coefficients):
        if mono[4] >= 2:
            assert coeff == 0
    poly = {m: c for m, c in zip(hyp.monomials(), hyp.coefficients) if c != 0}
    node = hyp.nodes[0]
    assert poly_eval(poly, node) == 0
    for i in range(5):
        assert poly_eval(poly_partial(poly, i), node) == 0


def test_node_at_ambient_singularity_rejected():
    with pytest.raises(NodeAtAmbientSingularity):
        build_nodal_hypersurface(P11123, 6, [(0, 0, 0, 1, 0)])


def test_hypersurface_through_a_singular_point_rejected():
    # no power of the weight-2 variable has degree 3: every cubic on
    # P(1,1,1,1,2) passes through e4, and no draw can help
    with pytest.raises(NodeAtAmbientSingularity,
                       match=r"through e4 = \(0:0:0:0:1\), a singular point") as info:
        build_nodal_hypersurface(P11112, 3, [(1, 0, 0, 0, 0)])
    assert info.value.code == 11
    # a quartic double solid without its y^2 term passes through e4
    hyp = build_nodal_hypersurface(P11112, 4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    coeffs = list(hyp.coefficients)
    coeffs[hyp.monomials().index((0, 0, 0, 0, 2))] = 0
    with pytest.raises(NodeAtAmbientSingularity, match=r"through e4 = \(0:0:0:0:1\)"):
        NodalHypersurface.checked(P11112, 4, coeffs, hyp.nodes)


def test_node_without_chart_rejected():
    with pytest.raises(UnsupportedChart):
        build_nodal_hypersurface(P11123, 6, [(0, 0, 0, 1, 1)])


def test_duplicate_nodes_rejected():
    # same projective point written with two scalings
    with pytest.raises(ValueError):
        build_nodal_hypersurface(P4, 3, [(0, 0, 0, 1, 1), (0, 0, 0, 2, 2)])


@pytest.mark.parametrize("node", [(1, 0, 0), (1, 0, 0, 0, 0, 0)])
def test_node_of_wrong_length_rejected(node):
    with pytest.raises(ValueError, match="expected 5"):
        build_nodal_hypersurface(P4, 3, [node])
    with pytest.raises(ValueError, match="expected 5"):
        NodalHypersurface.checked(P4, 3, [1] + [0] * 34, [node])


def test_empty_node_list_gives_smooth_candidate():
    hyp = build_nodal_hypersurface(P4, 3, [])
    assert hyp.mu == 0
    assert defect(hyp).delta == 0


def test_defect_one_node_cubic():
    # the five linear monomials evaluate at one point with rank exactly 1
    hyp = build_nodal_hypersurface(P4, 3, [E4])
    report = defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == (1, 5, 1, 0)


def test_defect_one_node_quartic_double_cover():
    hyp = build_nodal_hypersurface(P11112, 4, [(1, 0, 0, 0, 0)])
    report = defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == (1, 11, 1, 0)


def test_defect_one_node_sextic():
    hyp = build_nodal_hypersurface(P11123, 6, [(1, 0, 0, 0, 0)])
    report = defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == (1, 25, 1, 0)


def test_adjoint_degrees_are_derived():
    # the degrees on which the nodes impose conditions: 4, 2, 1
    assert adjoint_degree(P11123, 6) == 4
    assert adjoint_degree(P11112, 4) == 2
    assert adjoint_degree(P4, 3) == 1


def test_negative_adjoint_degree():
    hyp = build_nodal_hypersurface(P4, 2, [E4])
    with pytest.raises(NegativeLDegree):
        defect(hyp)


def test_checked_constructor_validates():
    hyp = build_nodal_hypersurface(P4, 3, [E4])
    again = NodalHypersurface.checked(P4, 3, hyp.coefficients, hyp.nodes)
    assert again == hyp
    bad = [c + 1 for c in hyp.coefficients]
    with pytest.raises(InvariantViolation):
        NodalHypersurface.checked(P4, 3, bad, hyp.nodes)


@pytest.mark.parametrize("space, degree, nodes", [
    # x4 has weight 2, so t = -1 fixes it: one point of P(1,1,1,1,2)
    (P11112, 4, [(1, 0, 0, 0, 1), (-1, 0, 0, 0, 1)]),
    (P4, 3, [(1, Fraction(1, 2), 0, 0, 0), (2, 1, 0, 0, 0)]),
])
def test_two_representatives_of_one_point_are_refused_before_evaluation(
        monkeypatch, space, degree, nodes):
    monkeypatch.setattr(wps, "_node_values", mock.Mock(side_effect=AssertionError))
    ones = [1] * len(enumerate_monomials(space, degree))
    for make in (lambda: NodalHypersurface.checked(space, degree, ones, nodes),
                 lambda: build_nodal_hypersurface(space, degree, nodes)):
        with pytest.raises(InvalidNode) as info:
            make()
        assert str(info.value) == "nodes must be pairwise distinct"
    wps._node_values.assert_not_called()


def test_a_sign_on_the_weight_two_coordinate_moves_the_point(monkeypatch):
    # t = -1 takes (1,0,0,0,1) to (-1,0,0,0,1), never to (1,0,0,0,-1); a
    # quartic singular at both contains e4, so the octic is drawn
    calls = []
    values = wps._node_values
    monkeypatch.setattr(wps, "_node_values",
                        lambda *args: calls.append(args[2]) or values(*args))
    nodes = [(1, 0, 0, 0, 1), (1, 0, 0, 0, -1)]
    hyp = build_nodal_hypersurface(P11112, 8, nodes)
    assert NodalHypersurface.checked(P11112, 8, hyp.coefficients, nodes) == hyp
    assert calls == nodes * 2
    assert defect(hyp).mu == 2


def test_checked_names_the_first_failed_invariant():
    hyp = build_nodal_hypersurface(P4, 3, [E4])
    monos = hyp.monomials()
    at = "at (0:0:0:0:1)"
    # x4^3 is 1 at E4; x0 x4^2 vanishes there but its x0-partial does not;
    # x0^3 vanishes to order 3, so its Hessian is zero
    for bump, message in [((0, 0, 0, 0, 3), f"form does not vanish {at}"),
                          ((1, 0, 0, 0, 2), f"gradient does not vanish {at}")]:
        bad = list(hyp.coefficients)
        bad[monos.index(bump)] += 1
        with pytest.raises(InvariantViolation) as info:
            NodalHypersurface.checked(P4, 3, bad, hyp.nodes)
        assert str(info.value) == message
    cube = [int(e == (3, 0, 0, 0, 0)) for e in monos]
    with pytest.raises(InvariantViolation) as info:
        NodalHypersurface.checked(P4, 3, cube, [E4])
    assert str(info.value) == f"Hessian is degenerate {at}"


def test_checked_names_whichever_failing_node_comes_first():
    # x0 (x1^2 + x2^2 + x3^2) + x4^3 is singular at e0 with a Hessian of
    # rank 3, and vanishes at (1, 1, 0, 0, -1) where its x0-partial is 1
    squares = {(1, 2, 0, 0, 0), (1, 0, 2, 0, 0), (1, 0, 0, 2, 0), (0, 0, 0, 0, 3)}
    form = [int(e in squares) for e in enumerate_monomials(P4, 3)]
    flat, smooth = (1, 0, 0, 0, 0), (1, 1, 0, 0, -1)
    for nodes, message in [([flat, smooth], "Hessian is degenerate"),
                           ([smooth, flat], "gradient does not vanish")]:
        with pytest.raises(InvariantViolation) as info:
            NodalHypersurface.checked(P4, 3, form, nodes)
        assert str(info.value) == f"{message} at ({':'.join(map(str, nodes[0]))})"


def test_a_failing_node_is_named_by_its_normalized_coordinates():
    cube = [int(e == (0, 3, 0, 0, 0)) for e in enumerate_monomials(P4, 3)]
    with pytest.raises(InvariantViolation) as info:
        NodalHypersurface.checked(P4, 3, cube, [(2, 1, 0, 0, 0)])
    assert str(info.value) == "form does not vanish at (1:1/2:0:0:0)"


def test_checked_stops_evaluating_at_the_first_failing_node(monkeypatch):
    # the Segre cubic plus x0^3 is 1 or -1 at each of its ten nodes: the
    # certificate raises at the first and evaluates no monomial at the others
    calls = []
    values = wps._node_values
    monkeypatch.setattr(wps, "_node_values",
                        lambda *args: calls.append(args[2]) or values(*args))
    space, degree, nodes, coeffs = dsl.parse_instance(
        (GOLDEN / "segre-cubic.hyp").read_text())
    NodalHypersurface.checked(space, degree, coeffs, nodes)
    assert calls == list(map(space.normalize, nodes))
    calls.clear()
    bad = list(coeffs)
    bad[enumerate_monomials(space, degree).index((3, 0, 0, 0, 0))] += 1
    with pytest.raises(InvariantViolation) as info:
        NodalHypersurface.checked(space, degree, bad, nodes)
    first = space.normalize(nodes[0])
    assert str(info.value) == f"form does not vanish at ({':'.join(map(str, first))})"
    assert calls == [first]


def _random_weight_preserving(space, rng):
    n = len(space.weights)
    while True:
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if space.weights[i] == space.weights[j]:
                    mat[i][j] = Fraction(rng.randint(-3, 3))
        for i in range(n):
            if mat[i][i] == 0:
                mat[i][i] = Fraction(1)
        try:
            from delpezzo.lattice import invert_rational
            invert_rational(mat)
            return mat
        except ValueError:
            continue


@pytest.mark.parametrize("space,degree,nodes", [
    (P4, 3, [E4, (0, 1, 0, 0, 0)]),
    (P11112, 4, [(1, 0, 0, 0, 0)]),
    (P11123, 6, [(1, 0, 0, 0, 0), (0, 1, 0, 1, 1)]),
])
def test_defect_invariant_under_recoordinatization(space, degree, nodes):
    hyp = build_nodal_hypersurface(space, degree, nodes)
    base = defect(hyp)
    rng = random.Random(7)
    for _ in range(3):
        moved = apply_linear_change(hyp, _random_weight_preserving(space, rng))
        assert defect(moved) == base


@pytest.mark.parametrize("matrix", [
    # identity on P^4 padded by a zero row and column: singular as a whole
    [[int(i == j < 5) for j in range(6)] for i in range(6)],
    [[1, 0], [0, 1]],
    [[1, 0, 0, 0, 0]] * 4 + [[0, 0, 0, 0]],
])
def test_linear_change_rejects_a_matrix_of_the_wrong_shape(matrix):
    hyp = build_nodal_hypersurface(P4, 3, [E4])
    with pytest.raises(ValueError, match="matrix must be 5 x 5"):
        apply_linear_change(hyp, matrix)


def test_linear_change_refuses_a_matrix_that_mixes_weights():
    hyp = build_nodal_hypersurface(P11112, 4, [(1, 0, 0, 0, 1)])
    mixed = [[int(i == j or (i, j) == (0, 4)) for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError) as info:
        apply_linear_change(hyp, mixed)
    assert str(info.value) == "substitution must preserve weights"


def test_a_coefficient_count_off_the_basis_is_refused():
    with pytest.raises(ValueError) as info:
        NodalHypersurface(P11112, 4, (Fraction(1), Fraction(2)), ())
    assert str(info.value) == "expected 46 coefficients"


def test_monomial_enumeration_is_bounded():
    assert len(enumerate_monomials(P4, 12)) == 1820
    with pytest.raises(DegreeTooLarge, match="more than 2,000 monomials"):
        enumerate_monomials(P4, 13)
    line = WeightedSpace((1, 1))
    assert len(enumerate_monomials(line, 1999)) == 2000
    with pytest.raises(DegreeTooLarge, match="more than 2,000 monomials"):
        enumerate_monomials(line, 2000)
    # a lex search over x0 would take 10**12 steps for these 1,000 monomials
    skewed = WeightedSpace((1, 1_000_000_007))
    assert len(enumerate_monomials(skewed, 10**12)) == 1000
    with pytest.raises(DegreeTooLarge, match="more than 2,000 monomials"):
        enumerate_monomials(skewed, 10**13)
    # without a weight-1 variable most branches end in no monomial
    with pytest.raises(DegreeTooLarge, match="steps"):
        enumerate_monomials(WeightedSpace((1_000_003, 1_000_033)), 10**15)


def test_defect_names_the_adjoint_degree_it_refuses():
    # degree 12 has 1,820 monomials; its adjoint degree 19 has 8,855
    hyp = NodalHypersurface(P4, 12, (Fraction(1),) + (Fraction(0),) * 1819, ())
    with pytest.raises(DegreeTooLarge, match="^adjoint twist L: degree 19 "):
        defect(hyp)


def test_enumerate_monomials_returns_a_fresh_list():
    mons = enumerate_monomials(P11123, 4)
    mons.clear()
    assert len(enumerate_monomials(P11123, 4)) == 25
    with pytest.raises(ValueError):
        enumerate_monomials(P11123, -1)


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
nonzero_fractions = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                              st.integers(1, 4))


@st.composite
def rational_instances(draw):
    """An ambient with its del Pezzo degree and 1-4 nodes with rational
    coordinates; the first node vanishes at x0, so its chart coordinate is
    another weight-1 variable."""
    space, degree = draw(st.sampled_from([(P4, 3), (P11112, 4), (P11123, 6)]))
    unit = [i for i, w in enumerate(space.weights) if w == 1]
    nodes = []
    for k in range(draw(st.integers(1, 4))):
        chart = draw(st.sampled_from(unit[1:] if k == 0 else unit))
        node = [Fraction(0) if w == 1 and i < chart else draw(small_fractions)
                for i, w in enumerate(space.weights)]
        node[chart] = draw(nonzero_fractions)
        nodes.append(tuple(node))
    return space, degree, nodes


@settings(max_examples=40, deadline=None)
@given(rational_instances(), st.integers(0, 3))
def test_builder_matches_fraction_reference(case, seed):
    space, degree, nodes = case
    norm = [chart_normalize(space.weights, p)[0] for p in nodes]
    assume(len(set(norm)) == len(norm))
    assume(any(c.denominator > 1 for p in norm for c in p))
    expected = fraction_build(space.weights, degree, nodes, seed=seed)
    if isinstance(expected, str):
        with pytest.raises(ToolError) as info:
            build_nodal_hypersurface(space, degree, nodes, seed=seed)
        assert type(info.value).__name__ == expected
        return
    hyp = build_nodal_hypersurface(space, degree, nodes, seed=seed)
    assert (hyp.coefficients, hyp.nodes) == expected
    report = defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == \
        fraction_defect(space.weights, degree, hyp.nodes)
    again = NodalHypersurface.checked(space, degree, hyp.coefficients, nodes)
    assert again == hyp


# integer nodes in general position: six on a cubic threefold, seven on a
# quartic double solid
INTEGER_BUILDS = [
    (P4, 3, [(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
             (1, 0, 0, 0, 1), (1, 2, -1, 3, -2)]),
    (P11112, 4, [(1, 0, 0, 0, 0), (1, 1, 0, 0, 1), (1, 0, 1, 0, -1), (1, 0, 0, 1, 2),
                 (1, 1, 1, 0, 0), (1, -1, 2, 1, 1), (1, 2, -1, -2, -2)]),
]


@pytest.mark.parametrize("space,degree,nodes", INTEGER_BUILDS,
                         ids=["cubic-6n", "quartic-7n"])
@pytest.mark.parametrize("seed", [0, 1])
def test_integer_builds_match_fraction_reference(space, degree, nodes, seed):
    # the reference keeps the value rows and reduces over Fraction
    expected = fraction_build(space.weights, degree, nodes, seed=seed)
    hyp = build_nodal_hypersurface(space, degree, nodes, seed=seed)
    assert (hyp.coefficients, hyp.nodes) == expected
    report = defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == \
        fraction_defect(space.weights, degree, hyp.nodes)


def _recording_solves(monkeypatch):
    """(solves, kernels): per back substitution the number of its
    right-hand-side columns, 1 for a draw and len(kernel) for a read of the
    basis, and every kernel that rational_nullspace returns."""
    from delpezzo import lattice
    back_substitute, nullspace = lattice._back_substitute, lattice.rational_nullspace
    solves, kernels = [], []

    def counted(a, pivots, d, columns):
        solves.append(len(columns))
        return back_substitute(a, pivots, d, columns)
    monkeypatch.setattr(lattice, "_back_substitute", counted)
    monkeypatch.setattr(lattice, "rational_nullspace",
                        lambda m: kernels.append(nullspace(m)) or kernels[-1])
    return solves, kernels


@pytest.mark.parametrize("seed,draws", [(0, 1), (4, 2)])
def test_builder_solves_once_per_draw(monkeypatch, seed, draws):
    # seed 4 rejects its first draw; iterating the kernel anywhere in the
    # builder would add a back substitution with one column per kernel vector
    solves, kernels = _recording_solves(monkeypatch)
    space, degree, nodes, _ = dsl.parse_instance((GOLDEN / "cubic-6n.hyp").read_text())
    hyp = build_nodal_hypersurface(space, degree, nodes, seed=seed)
    assert solves == [1] * draws
    assert defect(hyp).delta == 1
    list(kernels[0])   # reading the basis is the one solve with a column per vector
    assert solves[-1] == len(kernels[0]) == 5


def _counting(monkeypatch, owner, name, calls):
    """Wrap owner.name to append its arguments, after self, to calls."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda self, *args: calls.append(args) or original(self, *args))


@pytest.mark.parametrize("name", ["cubic-6n.hyp", "quartic-rational.hyp",
                                  "segre-cubic.hyp", "sextic-12n.hyp"])
def test_builder_checks_sing_w_only_when_a_draw_misses_it(monkeypatch, name):
    # a draw is one solve with one column; the basis is read by one solve
    # with a column per kernel vector, only when a draw misses Sing W
    from delpezzo import lattice
    solves, kernels = _recording_solves(monkeypatch)
    draws = []
    _counting(monkeypatch, lattice.Kernel, "mix", draws)
    space, degree, nodes, _ = dsl.parse_instance((GOLDEN / name).read_text())
    if name != "sextic-12n.hyp":
        build_nodal_hypersurface(space, degree, nodes)
        assert solves == [1] * len(draws)
        return
    # every kernel vector is 0 at x3^3, so the first draw misses it and the
    # basis is read once for both power columns, x3^3 and x4^2
    with pytest.raises(NodeAtAmbientSingularity,
                       match=r"through e3 = \(0:0:0:1:0\), a singular point"):
        build_nodal_hypersurface(space, degree, nodes)
    assert len(draws) == 1
    assert solves == [1, len(kernels[0])] == [1, 4]


def test_builder_redraws_when_a_draw_misses_a_power_column(monkeypatch):
    # the kernel is nonzero at y^2, but the first draw is made to miss it:
    # the basis is read, nothing is raised and the next draw wins
    from delpezzo import lattice
    solves, kernels = _recording_solves(monkeypatch)
    draws, mix = [], lattice.Kernel.mix
    column = enumerate_monomials(P11112, 4).index((0, 0, 0, 0, 2))

    def missing_first(self, coeffs):
        draws.append(coeffs)
        out = mix(self, coeffs)
        if len(draws) == 1:
            out[column] = 0
        return out
    monkeypatch.setattr(lattice.Kernel, "mix", missing_first)
    space, degree, nodes, _ = dsl.parse_instance(
        (GOLDEN / "quartic-rational.hyp").read_text())
    hyp = build_nodal_hypersurface(space, degree, nodes)
    kernel = kernels[0]
    assert len(draws) == 2 and solves == [1, len(kernel), 1]
    assert any(v[column] for v in kernel)
    assert hyp.coefficients == tuple(Fraction(c, kernel.d)
                                     for c in mix(kernel, draws[1]))
    assert NodalHypersurface.checked(space, degree, hyp.coefficients, nodes) == hyp


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(P11112, 4), (P11123, 6)]),
       st.lists(st.tuples(st.just(1), *[st.integers(-1, 1)] * 4),
                min_size=1, max_size=12, unique=True))
def test_builder_refuses_sing_w_exactly_where_the_kernel_vanishes(case, nodes):
    # every form through the nodes passes through e_i exactly when the
    # reference kernel over Fraction is zero at x_i's power column; the
    # builder names the first such e_i and otherwise refuses through none
    space, degree = case
    monos = enumerate_monomials(space, degree)
    kernel = fraction_nullspace(naive_constraint_rows(monos, nodes, degree), len(monos))
    if not kernel:
        with pytest.raises(NoSolution):
            build_nodal_hypersurface(space, degree, nodes)
        return
    missed = [i for i, w in enumerate(space.weights) if w > 1 and not any(
        v[monos.index(tuple(degree // w * (j == i) for j in range(5)))] for v in kernel)]
    refused = None
    try:
        build_nodal_hypersurface(space, degree, nodes)
    except NodeAtAmbientSingularity as exc:
        refused = str(exc)
    except NodalityFailed:
        pass
    assert (refused is not None) == bool(missed)
    if missed:
        assert refused.startswith(f"the hypersurface passes through e{missed[0]} = ")


coordinates = st.integers(-5, 5) | small_fractions | st.just(0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P4.weights, P11112.weights, P11123.weights]) | weight_lists,
       st.integers(0, 8), st.data())
def test_node_values_match_direct_power_products(weights, degree, data):
    # each value is q_i times a value of a lower table degree where there is
    # one; integer, rational and zero coordinates all give the direct product
    weights = tuple(weights)
    q = tuple(data.draw(st.lists(coordinates, min_size=len(weights),
                                 max_size=len(weights))))
    # the table's degrees: those of the first and second partials
    degrees = {degree - a - b for a in (0, *weights) for b in weights}
    assert _node_values(weights, degree, q) == \
        {s: [prod(map(pow, q, m)) for m in brute_force_monomials(weights, s)]
         for s in degrees}


def test_node_values_of_a_huge_weight_stay_bounded():
    # the table of degree 1000 * (10**9 + 7) on P(1, 10**9 + 7) spans degrees
    # about 10**12 apart: the values visit the table's degrees, not a range
    space = WeightedSpace((1, 1_000_000_007))
    degree = 1000 * space.weights[1]
    start = time.perf_counter()
    for q in [(1, 0), (1, 1), (1, -1)]:
        values = _node_values(space.weights, degree, q)
        assert all(values[s] == [prod(map(pow, q, m)) for m in _monomials(space.weights, s)]
                   for s in values)
    report = defect(build_nodal_hypersurface(space, degree, [(1, 1)]))
    assert (report.mu, report.h0_L, report.delta) == (1, 1999, 0)
    assert time.perf_counter() - start < 10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([P4.weights, P11112.weights, P11123.weights]) | weight_lists,
       st.integers(1, 6),
       st.lists(st.lists(st.integers(-5, 5), min_size=5, max_size=5),
                min_size=1, max_size=3))
def test_value_row_is_the_euler_combination_of_the_partial_rows(weights, degree,
                                                                  points):
    monos = brute_force_monomials(weights, degree)
    assume(monos)
    points = [tuple(q[:len(weights)]) for q in points]
    rows = naive_constraint_rows(monos, points, degree)
    n = len(weights)
    assert len(rows) == n * len(points)
    with_values = []
    for k, q in enumerate(points):
        partials = rows[k * n:(k + 1) * n]
        value = [prod(map(pow, q, e)) for e in monos]
        assert [degree * v for v in value] == \
            [sum(w * x * row[j] for w, x, row in zip(weights, q, partials))
             for j in range(len(monos))]
        with_values += [value] + partials
    # the two matrices have different last pivots D: compare basis / D
    assert _over_d(rational_nullspace(IntMatrix.from_rows(rows))) == \
        _over_d(rational_nullspace(IntMatrix.from_rows(with_values)))


def constraint_rows(weights, degree, points):
    weights = tuple(weights)
    return _node_constraint_rows(weights, degree,
                                 [_node_values(weights, degree, q) for q in points])


def heavy_first(weights, rows):
    """Node-major partial rows, n per node, reordered heaviest partial
    first and node-major within a weight."""
    n = len(weights)
    return [rows[k * n + i] for w in sorted(set(weights), reverse=True)
            for k in range(len(rows) // n) for i in range(n) if weights[i] == w]


def _over_d(basis):
    """An integer kernel basis divided by D, each vector's last nonzero entry."""
    return [tuple(Fraction(x, next(filter(None, reversed(v)))) for x in v)
            for v in basis]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P4.weights, P11112.weights, P11123.weights]) | weight_lists,
       st.integers(0, 6),
       st.lists(st.lists(st.integers(-5, 5), min_size=5, max_size=5),
                min_size=1, max_size=3))
def test_constraint_rows_match_naive_assembly(weights, degree, points):
    monos = brute_force_monomials(weights, degree)
    assume(monos)
    points = [tuple(q[:len(weights)]) for q in points]
    rows = constraint_rows(weights, degree, points)
    naive = naive_constraint_rows(monos, points, degree)
    # degree 0 keeps each node's value row, node-major, ahead of its partials
    assert rows == (heavy_first(weights, naive) if degree else naive)
    assert all(type(x) is int for row in rows for x in row)


class _Stop(Exception):
    """Raised by a spy to end a build once it has what it needs."""


def _rows_handed_to_the_nullspace(space, degree, nodes):
    """The constraint rows the builder hands lattice.rational_nullspace."""
    handed = []

    def spy(m):
        handed.append(m.to_rows())
        raise _Stop
    with mock.patch.object(lattice, "rational_nullspace", spy), pytest.raises(_Stop):
        build_nodal_hypersurface(space, degree, nodes)
    return handed[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(P4.weights, 3), (P11112.weights, 4), (P11123.weights, 6)])
       | st.tuples(st.lists(st.integers(1, 4), min_size=2, max_size=4).map(
           lambda ws: (1, *ws)), st.integers(1, 6)),
       st.data())
def test_heavy_first_row_order_changes_no_draw(case, data):
    # the builder hands over the partial rows heaviest variable first, node-major
    # within a weight; the reduced echelon basis depends on the row space only,
    # so each draw, mix(c) / D, is the one of the node-major rows
    weights, degree = case
    n = len(weights)
    nodes = data.draw(st.lists(st.tuples(st.just(1), *[st.integers(-3, 3)] * (n - 1)),
                               min_size=1, max_size=8, unique=True))
    rows = naive_constraint_rows(brute_force_monomials(weights, degree), nodes, degree)
    heavy = _rows_handed_to_the_nullspace(WeightedSpace(weights), degree, nodes)
    assert heavy == [rows[k * n + i] for w in sorted(set(weights), reverse=True)
                     for k in range(len(nodes)) for i in range(n) if weights[i] == w]
    if len(set(weights)) == 1:
        assert heavy == rows
    if weights == P11123.weights:
        assert heavy[:len(nodes)] == rows[4::5]   # every node's d/dx4 row
    kernels = [rational_nullspace(IntMatrix.from_rows(m)) for m in (rows, heavy)]
    assert len(kernels[0]) == len(kernels[1])
    c = data.draw(st.lists(st.integers(-9, 9), min_size=len(kernels[0]),
                           max_size=len(kernels[0])))
    draws = [[Fraction(x, k.d) for x in k.mix(c)] for k in kernels]
    assert draws[0] == draws[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(P4.weights, 3), (P11112.weights, 4), (P11123.weights, 6)]),
       st.data())
def test_a_scaled_node_hands_over_primitive_rows_and_changes_no_draw(case, data):
    # a node with a denominator has the integer point q = t.p, t > 1, whose
    # degree-s rows carry t**s; the builder divides each of its rows by the
    # row's content and hands an integral node's rows over as written; the
    # row space is unchanged, so each draw is the one of the oracle's rows
    weights, degree = case
    n, space = len(weights), WeightedSpace(weights)
    coordinate = st.fractions(-3, 3, max_denominator=4)
    nodes = data.draw(st.lists(st.tuples(st.just(Fraction(1)), *[coordinate] * (n - 1)),
                               min_size=1, max_size=6, unique=True))
    norm = [space.normalize(p) for p in nodes]
    points = [wps._integral(space, p) for p in norm]
    rows = naive_constraint_rows(brute_force_monomials(weights, degree), points, degree)

    def handed(k, row):
        g = gcd(*row) if any(c.denominator > 1 for c in norm[k]) else 1
        return [x // g for x in row] if g > 1 else row
    heavy = _rows_handed_to_the_nullspace(space, degree, nodes)
    assert heavy == [handed(k, rows[k * n + i]) for w in sorted(set(weights), reverse=True)
                     for k in range(len(nodes)) for i in range(n) if weights[i] == w]
    kernels = [rational_nullspace(IntMatrix.from_rows(m)) for m in (rows, heavy)]
    assert len(kernels[0]) == len(kernels[1])
    c = data.draw(st.lists(st.integers(-9, 9), min_size=len(kernels[0]),
                           max_size=len(kernels[0])))
    draws = [[Fraction(x, k.d) for x in k.mix(c)] for k in kernels]
    assert draws[0] == draws[1]


BUILD_DIGESTS = json.loads((GOLDEN / "build-digests.json").read_text())


def _golden_sextic_nodes(mu):
    return next([tuple(p) for p in c["nodes"]] for c in BUILD_DIGESTS
                if c["degree"] == 6 and len(c["nodes"]) == mu)


def _rewrites(rows):
    """The row sweeps of the forward pass: its logged steps, one per row
    whether the row is rewritten by one pivot or by both of a two-step sweep."""
    return sum(len(steps) + sum(len(pair) for _, pair in second)
               for *_, steps, second in lattice._forward(rows)[3])


@pytest.mark.parametrize("mu,rewrites", [(9, (382, 373)), (12, (685, 642))])
def test_heavy_first_rows_rewrite_fewer_rows(mu, rewrites):
    # node-major rows, then the builder's: a d/dx4 row is nonzero only on the
    # 14 of 64 monomials with x4, 10 of them in the first 32 columns; as
    # pivots there these rows spare the dense weight-1 rows some rewrites
    nodes = _golden_sextic_nodes(mu)
    rows = naive_constraint_rows(enumerate_monomials(P11123, 6), nodes, 6)
    heavy = _rows_handed_to_the_nullspace(P11123, 6, nodes)
    assert (_rewrites(rows), _rewrites(heavy)) == rewrites


def test_certificate_runs_on_the_primitive_draw(monkeypatch):
    # mix returns D times the draw; the certificate gets the draw over its content
    forms = []
    monkeypatch.setattr(wps, "_jets", lambda weights, degree, form:
                        forms.append(form) or _jets(weights, degree, form))
    nodes = _golden_sextic_nodes(7)
    hyp = build_nodal_hypersurface(P11123, 6, nodes)
    assert forms and all(gcd(*form) == 1 for form in forms)
    cleared = lattice.from_rational_rows([hyp.coefficients]).entries
    content = gcd(*cleared)
    assert [c // content for c in cleared] in (forms[-1], [-c for c in forms[-1]])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P4.weights, P11112.weights, P11123.weights]) | weight_lists,
       st.integers(0, 6), st.data())
def test_jets_match_the_sparse_partials(weights, degree, data):
    weights = tuple(weights)
    monos = brute_force_monomials(weights, degree)
    assume(monos)
    n = len(weights)
    form = data.draw(st.lists(st.integers(-9, 9), min_size=len(monos),
                              max_size=len(monos)))
    q = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    poly = {e: c for e, c in zip(monos, form) if c}
    gradient, second = _jets(weights, degree, form)
    values = _node_values(weights, degree, q)

    def at(partial):
        s, vector = partial
        return sum(map(mul, vector, values[s]))

    for i in range(n):
        assert at(gradient[i]) == poly_eval(poly_partial(poly, i), q)
        for j in range(n):
            assert at(second[min(i, j), max(i, j)]) == \
                poly_eval(poly_partial(poly_partial(poly, i), j), q)

    # each vector lists the partial's coefficients over the whole basis of
    # its degree, in order
    def coefficients(partial, s):
        return s, [partial.get(m, 0) for m in brute_force_monomials(weights, s)]

    assert gradient == [coefficients(poly_partial(poly, i), degree - weights[i])
                        for i in range(n)]
    assert second == {(a, b): coefficients(poly_partial(poly_partial(poly, a), b),
                                           degree - weights[a] - weights[b])
                      for a in range(n) for b in range(a, n)}


def _poly_times(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(u + v for u, v in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P4.weights, P11112.weights, P11123.weights])
       | weight_lists.map(lambda ws: (1, *ws)), st.data())
def test_hessian_rank_at_singular_points_matches_the_full_hessian(weights, data):
    # the y_i = x_i - a_i x_c**w_i vanish at q = (a_i t**w_i), q_c = t; the
    # form sum_{k in S} b_k x_c**(d - 2 w_k) y_k**2 plus cubic terms in the y_i
    # vanishes with its gradient at q, and its Hessian there has rank |S|
    n = len(weights)
    degree = 2 * max(weights) + data.draw(st.integers(0, 2))
    c = data.draw(st.sampled_from([i for i, w in enumerate(weights) if w == 1]))
    others = [i for i in range(n) if i != c]
    t = data.draw(st.integers(1, 3))
    a = {i: data.draw(st.integers(-2, 2)) for i in others}
    q = tuple(t if i == c else a[i] * t ** weights[i] for i in range(n))

    def unit(i, m=1):   # the exponent of x_i**m
        return tuple(m * int(k == i) for k in range(n))

    y = {i: {unit(i): 1, unit(c, weights[i]): -a[i]} for i in others}
    squares = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=n - 1))
    cubes = data.draw(st.lists(st.tuples(*[st.sampled_from(others)] * 3), max_size=3))
    poly = {}
    for term in [(k, k) for k in squares] + cubes:
        rest = degree - sum(weights[i] for i in term)
        if rest < 0:
            continue
        product, b = {unit(c, rest): 1}, data.draw(st.integers(1, 4) | st.integers(-4, -1))
        for i in term:
            product = _poly_times(product, y[i])
        for e, v in product.items():
            poly[e] = poly.get(e, 0) + b * v
    poly = {e: v for e, v in poly.items() if v}
    form = [poly.get(e, 0) for e in enumerate_monomials(WeightedSpace(weights), degree)]
    gradient, second = _jets(weights, degree, form)
    values = _node_values(weights, degree, q)
    assert poly_eval(poly, q) == 0
    assert not any(sum(map(mul, vector, values[s])) for s, vector in gradient)
    # integer jets at an integer point: the rows go to the forward pass as built
    with mock.patch.object(lattice, "from_rational_rows", side_effect=AssertionError):
        rank = hessian_rank(second, q, values)
    assert rank == weighted_hessian_rank(poly, q) == len(squares)
    # rational jets at a rational representative are cleared first
    u = data.draw(st.integers(2, 5))
    p = tuple(Fraction(v, u ** w) for v, w in zip(q, weights))
    _, thirds = _jets(weights, degree, [Fraction(v, 3) for v in form])
    assert hessian_rank(thirds, p, _node_values(weights, degree, p)) == rank


def test_hessian_rank_rejects_the_zero_tuple():
    form = [{(1, 1, 0, 0, 0): 1, (0, 0, 2, 0, 0): 1, (0, 0, 0, 1, 1): 1}.get(e, 0)
            for e in enumerate_monomials(P4, 2)]
    _, second = _jets(P4.weights, 2, form)
    zero = (0, 0, 0, 0, 0)
    with pytest.raises(InvalidNode, match="the zero tuple is not a point") as exc:
        hessian_rank(second, zero, _node_values(P4.weights, 2, zero))
    assert exc.value.code == 16


big_ints = st.integers(-2 ** 150, 2 ** 150) | st.integers(-3, 3)


@st.composite
def planted_rank_4x4(draw):
    """sum_k c_k u_k v_k^T over 0 to 4 terms, so rank at most the term
    count; v_k = u_k for a symmetric matrix.  Entries reach about 300 bits."""
    symmetric, terms = draw(st.booleans()), draw(st.integers(0, 4))
    rows = [[0] * 4 for _ in range(4)]
    for _ in range(terms):
        u = draw(st.lists(big_ints, min_size=4, max_size=4))
        v = u if symmetric else draw(st.lists(big_ints, min_size=4, max_size=4))
        c = draw(st.integers(1, 9) | st.integers(-9, -1))
        for a in range(4):
            for b in range(4):
                rows[a][b] += c * u[a] * v[b]
    return rows, terms


@settings(max_examples=200, deadline=None)
@given(planted_rank_4x4())
def test_det4_is_nonzero_exactly_at_full_rank(case):
    rows, terms = case
    rank = fraction_rank(rows)
    assert rank <= terms
    assert _det4(rows) == det_int(rows)
    assert bool(_det4(rows)) == (rank == 4)


def test_a_full_fourfold_minor_never_reaches_the_forward_pass():
    text = (GOLDEN / "segre-cubic.hyp").read_text()
    space, degree, nodes, coeffs = dsl.parse_instance(text)
    with mock.patch.object(lattice, "_forward", side_effect=AssertionError):
        hyp = NodalHypersurface.checked(space, degree, coeffs, nodes)
        # its rational representative takes the route once cleared
        _, second = _jets(space.weights, degree, hyp.coefficients)
        p = tuple(c / 2 for c in hyp.nodes[0])
        assert hessian_rank(second, p, _node_values(space.weights, degree, p)) == 4


def test_a_singular_or_smaller_minor_goes_to_the_forward_pass():
    # x0 (x1^2 + x2^2 + x3^2) is nodal only in three directions at e0;
    # x0 x1^2 + x2^3 on P^2 has a 2 x 2 minor of rank 1 there
    for weights, form in [((1,) * 5, {(1, 2, 0, 0, 0): 1, (1, 0, 2, 0, 0): 1,
                                      (1, 0, 0, 2, 0): 1}),
                          ((1, 1, 1), {(1, 2, 0): 1, (0, 0, 3): 1})]:
        e0 = tuple(int(i == 0) for i in range(len(weights)))
        _, second = _jets(weights, 3, [form.get(e, 0) for e in _monomials(weights, 3)])
        with mock.patch.object(lattice, "_forward", wraps=lattice._forward) as forward:
            rank = hessian_rank(second, e0, _node_values(weights, 3, e0))
        assert rank == weighted_hessian_rank(form, e0) == len(weights) - 2
        assert forward.call_count == 1


def assert_hessian_rank_needs_no_chart(hyp):
    """At every node, hessian_rank has the rank of the full weighted Hessian,
    dim W, and so does the minor without any nonvanishing coordinate."""
    poly = {m: c for m, c in zip(hyp.monomials(), hyp.coefficients) if c != 0}
    weights, degree = hyp.ambient.weights, hyp.degree
    _, second = _jets(weights, degree, hyp.coefficients)
    for node in hyp.nodes:
        rank = hessian_rank(second, node, _node_values(weights, degree, node))
        assert rank == weighted_hessian_rank(poly, node) == hyp.ambient.dim
        for j, c in enumerate(node):
            if c != 0:
                assert chart_hessian_rank(poly, node, j) == rank


@pytest.mark.parametrize("name", ["cubic-6n.hyp", "sextic-12n.hyp",
                                  "quartic-rational.hyp", "segre-cubic.hyp"])
def test_hessian_rank_needs_no_chart_on_golden_files(name):
    space, degree, nodes, coeffs = dsl.parse_instance((GOLDEN / name).read_text())
    if name == "sextic-12n.hyp":
        # its x3^3 coefficient is 0: the sextic passes through e3
        with pytest.raises(NodeAtAmbientSingularity,
                           match=r"through e3 = \(0:0:0:1:0\), a singular point"):
            NodalHypersurface.checked(space, degree, coeffs, nodes)
        return
    assert_hessian_rank_needs_no_chart(
        NodalHypersurface.checked(space, degree, coeffs, nodes))


def test_hessian_rank_leaves_out_a_heavier_coordinate():
    # weights out of order: the first nonvanishing coordinate has weight 2,
    # the chart is x1
    space = WeightedSpace((2, 1, 1, 1, 1))
    hyp = build_nodal_hypersurface(space, 4, [(1, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    assert_hessian_rank_needs_no_chart(hyp)


@settings(max_examples=30, deadline=None)
@given(rational_instances(), st.integers(0, 3))
def test_hessian_rank_needs_no_chart_on_rational_builds(case, seed):
    space, degree, nodes = case
    try:
        hyp = build_nodal_hypersurface(space, degree, nodes, seed=seed)
    except (ToolError, ValueError):
        assume(False)
    assert_hessian_rank_needs_no_chart(hyp)


@st.composite
def weight_preserving_matrices(draw, weights):
    """Rational matrices that only mix variables of equal weight.  The
    entries of the weight-2 and weight-3 blocks have denominators 2 to 5
    (and may be 0, so the matrix may be singular)."""
    n = len(weights)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if weights[i] == weights[j] == 1:
                mat[i][j] = draw(small_fractions)
            elif weights[i] == weights[j]:
                mat[i][j] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(2, 5)))
    return mat


@settings(max_examples=40, deadline=None)
@given(rational_instances(), st.data())
def test_linear_change_matches_fraction_reference(case, data):
    space, degree, nodes = case
    try:
        hyp = build_nodal_hypersurface(space, degree, nodes)
    except (ToolError, ValueError):
        assume(False)
    matrix = data.draw(weight_preserving_matrices(space.weights))
    expected = fraction_linear_change(space.weights, degree, hyp.coefficients,
                                      hyp.nodes, matrix)
    if isinstance(expected, str):
        with pytest.raises(ValueError):
            apply_linear_change(hyp, matrix)
        return
    moved = apply_linear_change(hyp, matrix)
    assert (moved.coefficients, moved.nodes) == expected
    assert all(type(c) is Fraction for c in moved.coefficients)
    report = defect(moved)
    assert report == defect(hyp)
    assert (report.mu, report.h0_L, report.eval_rank, report.delta) == \
        fraction_defect(space.weights, degree, expected[1])


@st.composite
def high_degree_forms(draw):
    """A form of degree up to 12 on P^1, P^2 or P(1,1,2), with no nodes
    (random coefficients) or with one node the builder certified."""
    weights = draw(st.sampled_from([(1, 1), (1, 1, 1), (1, 1, 2)]))
    space = WeightedSpace(weights)
    # a form of odd degree on P(1,1,2) passes through its singular point
    degree = draw(st.integers(1, 6)) * 2 if weights[-1] == 2 else draw(st.integers(1, 12))
    if draw(st.booleans()):
        node = (1, *draw(st.lists(small_fractions, min_size=len(weights) - 1,
                                  max_size=len(weights) - 1)))
        try:
            return build_nodal_hypersurface(space, degree, [node],
                                            seed=draw(st.integers(0, 3)))
        except ToolError:
            assume(False)
    size = len(enumerate_monomials(space, degree))
    coeffs = draw(st.lists(small_fractions, min_size=size, max_size=size))
    try:
        return NodalHypersurface.checked(space, degree, coeffs, [])
    except ToolError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(high_degree_forms(), st.data())
def test_high_degree_linear_change_matches_fraction_reference(hyp, data):
    # x_i**degree puts exponent degree in one digit of the packed key
    weights = hyp.ambient.weights
    matrix = data.draw(weight_preserving_matrices(weights))
    expected = fraction_linear_change(weights, hyp.degree, hyp.coefficients,
                                      hyp.nodes, matrix)
    if isinstance(expected, str):
        with pytest.raises(ValueError):
            apply_linear_change(hyp, matrix)
        return
    moved = apply_linear_change(hyp, matrix)
    assert (moved.coefficients, moved.nodes) == expected
