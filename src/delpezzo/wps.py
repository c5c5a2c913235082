"""Weighted projective spaces, nodal hypersurfaces and their defect.

The defect of a nodal hypersurface X inside a weighted projective fourfold
W measures Weil-minus-Cartier divisor classes.  It is computed from linear
algebra only:

    delta = mu - rank(evaluation of H^0(W, L) at the nodes),

where mu is the node count and L is the adjoint twist of degree
deg(L) = -sum(weights) + 2 deg(X).  Because L is basepoint free away from
the singular points of W and the nodes avoid those, the evaluation matrix
has rank at least 1 whenever mu >= 1, so delta < mu for the hypersurface
del Pezzo cases (degrees 6, 4, 3 on the three standard ambients).

``WeightedSpace.normalize`` is the one gate for nodes.  A point counts as
singular when the weights of its nonvanishing coordinates have a common
factor; coordinate points of weight larger than one are the typical case.
The canonical form scales a weight-1 coordinate to 1, so points without a
nonvanishing one are rejected rather than guessed.  Nodality (Hessian rank
dim W) needs no chart; see ``hessian_rank``.

Monomial bases and the search for them are bounded (``MAX_MONOMIALS``), and
so is the number of weights (``MAX_WEIGHTS``): the search costs up to n**2
per monomial and the derivative table n**2 partials, for n weights.  So no
degree or ambient makes the builder, the certifier or the defect run unbounded.

Internally the builder and the certifier run on integers.  A node is kept
chart-normalized (chart coordinate 1, Fraction coordinates) and evaluated at
its integer representative t.p, coordinate i times t**w_i for t the lcm of
the denominators.  That scales the value of a form of degree d by t**d, a
first partial d/dx_i by t**(d - w_i) and a second partial d2/dx_a dx_b by
t**(d - w_a - w_b), so vanishing and ranks are unchanged.  Forms are
likewise cleared to integer coefficients.  One table per (weights, degree)
gives each partial of each monomial as a factor and the lowered monomial's
index: a form's partials are dense vectors, a node's monomial values one
list per degree, and each partial at a node is one dot product; ``checked``
and the builder's draws run one certificate per node.  The builder takes
dim W + 1 constraint rows per node, one per first partial: in positive
degree the Euler identity deg.f = sum_i w_i x_i f_i makes the value vanish
wherever the gradient does, so the value row is left out (degree 0 keeps it).

A weight-preserving change of coordinates A is block diagonal by weight,
so it commutes with D_t = diag(t**w_i), and f(D_t.y) = t**deg f(y).
Scaling the weight-w block of A by t**w, for t the lcm of A's denominators,
gives an integer matrix B = D_t.A with f(A x) = f(B x) / t**deg; the
substitution is expanded over the integers and divided back once.  The
inverse is cleared the same way, and since a block-scaled matrix moves a
point only by a weighted rescaling, the nodes' images are computed from
their integer representatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm, prod
from operator import add, mul, sub

from . import lattice
from .errors import (TOKEN_ECHO, DegreeTooLarge, InvalidNode, InvariantViolation,
                     NegativeLDegree, NoSolution, NodalityFailed,
                     NodeAtAmbientSingularity, UnsupportedChart, clip)

Mono = tuple[int, ...]
Point = tuple[Fraction, ...]
Poly = dict[Mono, Fraction]   # integer coefficients in this module's own algebra

MAX_TRIES = 64   # coefficient draws the builder makes before giving up
MAX_MONOMIALS = 2_000   # largest monomial basis enumerate_monomials lists
MAX_WEIGHTS = 16   # most weights a WeightedSpace takes


def _fraction(c) -> Fraction:
    """c itself when it already is a Fraction, else Fraction(c)."""
    return c if isinstance(c, Fraction) else Fraction(c)


@dataclass(frozen=True)
class WeightedSpace:
    """P(w_0, ..., w_n); 2 to MAX_WEIGHTS weights, all >= 1, with gcd 1."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= len(self.weights) <= MAX_WEIGHTS:
            raise ValueError(f"need 2 to {MAX_WEIGHTS} weights, got {len(self.weights)}")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive")
        if gcd(*self.weights) != 1:
            raise ValueError("weights must have gcd 1")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def normalize(self, point) -> Point:
        """The node gate: the canonical form of rational coordinates, the
        first nonzero weight-1 coordinate c_j scaled to 1 (coordinate i
        becomes c_i / c_j**w_i, one Fraction from integers).  Raises, in
        this order, InvalidNode (wrong length, the zero tuple),
        NodeAtAmbientSingularity (the weights of the nonzero coordinates
        have gcd > 1, a partial test) and UnsupportedChart (no such c_j)."""
        point = tuple(map(_fraction, point))
        if len(point) != len(self.weights):
            # each coordinate prints as at least one character, so the first
            # TOKEN_ECHO of them fill the clipped echo
            shown = clip(" ".join(map(str, point[:TOKEN_ECHO])), TOKEN_ECHO)
            raise InvalidNode(f"node {shown} has {len(point)} "
                              f"coordinates, expected {len(self.weights)}")
        active = [w for w, c in zip(self.weights, point) if c]
        if not active:
            raise InvalidNode("the zero tuple is not a point")
        if gcd(*active) > 1:
            raise NodeAtAmbientSingularity(
                "hypersurfaces with at worst nodes cannot pass through "
                "singular points of the ambient space")
        j = next((i for i, (w, c) in enumerate(zip(self.weights, point))
                  if w == 1 and c), None)
        if j is None:
            raise UnsupportedChart(
                "point has no nonvanishing weight-1 coordinate")
        a, b = point[j].numerator, point[j].denominator
        return tuple(Fraction(c.numerator * b ** w, c.denominator * a ** w)
                     for w, c in zip(self.weights, point))


def enumerate_monomials(space: WeightedSpace, degree: int) -> list[Mono]:
    """All exponent vectors e with sum(e_i * w_i) = degree, ascending lex.

    Raises DegreeTooLarge past MAX_MONOMIALS monomials.  Each call returns
    a fresh list; the enumeration itself is memoized."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials(space.weights, degree))


@lru_cache(maxsize=64)
def _monomials(weights: tuple[int, ...], degree: int) -> tuple[Mono, ...]:
    """The search takes the variables heaviest first and solves for the
    lightest one last.  With a weight-1 variable every branch ends in a
    monomial, so it makes at most len(weights) steps per monomial; the same
    step budget bounds the search on spaces without one."""
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    ws = [weights[i] for i in order]
    budget = len(ws) * (MAX_MONOMIALS + 1)
    found: list[Mono] = []
    steps = 0

    def rec(k: int, remaining: int, prefix: tuple[int, ...]):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise DegreeTooLarge(
                f"listing the monomials of degree {degree} on P{weights} "
                f"takes more than {budget:,} steps")
        if k == len(ws) - 1:
            if remaining % ws[k] == 0:
                if len(found) == MAX_MONOMIALS:
                    raise DegreeTooLarge(
                        f"degree {degree} on P{weights} has more than "
                        f"{MAX_MONOMIALS:,} monomials")
                found.append(prefix + (remaining // ws[k],))
            return
        for e in range(remaining // ws[k] + 1):
            rec(k + 1, remaining - e * ws[k], prefix + (e,))

    rec(0, degree, ())
    place = sorted(range(len(ws)), key=order.__getitem__)
    return tuple(sorted(tuple(e[k] for k in place) for e in found))


@lru_cache(maxsize=64)
def _derivatives(weights: tuple[int, ...], degree: int):
    """(first, second, degrees, powers): first[i] and second[a, b], a <= b,
    are (s, column) for d/dx_i and d2/dx_a dx_b, s the partial's degree and
    column per basis monomial e the integer factor the partial puts on e (0
    if it kills e) and the lowered monomial's index in the degree-s basis;
    degrees lists every s, powers (i, index of x_i**(degree/w_i) or None)."""
    monos, n = _monomials(weights, degree), len(weights)
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]

    def partial(shift):
        s = degree - sum(map(mul, shift, weights))
        index = {m: k for k, m in enumerate(_monomials(weights, s))}
        return s, tuple((k, index[tuple(map(sub, e, shift))]) if k else (0, 0)
                        for e in monos for k in [prod(map(perm, e, shift))])

    first = tuple(map(partial, unit))
    second = {(a, b): partial(tuple(map(add, unit[a], unit[b])))
              for a in range(n) for b in range(a, n)}
    powers = [(i, monos.index(tuple(degree // w * u for u in unit[i]))
                  if degree % w == 0 else None) for i, w in enumerate(weights) if w > 1]
    return first, second, sorted({s for s, _ in (*first, *second.values())}), powers


# -- exact polynomial helpers ---------------------------------------------

def _poly_from_vector(monos: list[Mono], coeffs) -> Poly:
    return {m: c for m, c in zip(monos, coeffs) if c != 0}

def _integral(space: WeightedSpace, p: Point) -> tuple[int, ...]:
    """The integer representative t.p of a point: coordinate i times
    t**w_i, for t the lcm of the coordinates' denominators."""
    t = lcm(*(c.denominator for c in p))
    return tuple(c.numerator * (t ** w // c.denominator)
                 for w, c in zip(space.weights, p))

def poly_eval(poly: Poly, p: Point) -> Fraction | int:
    """Value at p; integer for an integer form at an integer point."""
    return sum(c * prod(map(pow, p, e)) for e, c in poly.items())

def poly_partial(poly: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in poly.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, 0) + c * e[i]
    return {e: c for e, c in out.items() if c != 0}

def _jets(weights: tuple[int, ...], degree: int, form):
    """(gradient, Hessian) of a form, each partial as (s, its dense vector
    over the degree-s basis, onto which the kept monomials map in order)."""
    first, second, _, _ = _derivatives(weights, degree)
    jets = [(s, [k * c for (k, _), c in zip(column, form) if k])
            for s, column in (*first, *second.values())]
    return jets[:len(first)], dict(zip(second, jets[len(first):]))

def _node_values(weights: tuple[int, ...], degree: int, q) -> dict[int, list]:
    """The values at q of the monomials of every degree in the table."""
    return {s: [prod(map(pow, q, m)) for m in _monomials(weights, s)]
            for s in _derivatives(weights, degree)[2]}

def _ambient_fault(space: WeightedSpace, degree: int, form):
    """NodeAtAmbientSingularity if the form passes through a coordinate point
    e_i with w_i > 1, where x_i**(degree/w_i) alone is nonzero, else None.
    These are all of Sing W on P^4, P(1,1,1,1,2) and P(1,1,1,2,3), but only
    part of it where two weights share a factor and Sing W has curves."""
    for i, k in _derivatives(space.weights, degree)[3]:
        if k is None or not form[k]:
            e = ":".join(str(int(j == i)) for j in range(len(space.weights)))
            return NodeAtAmbientSingularity(
                f"the hypersurface passes through e{i} = ({e}), a singular point "
                f"of P{space.weights}")

def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def hessian_rank(second, point, values) -> int:
    """Rank of the weighted Hessian of a form at a point where its gradient
    vanishes, from second[a, b] of ``_jets`` and ``_node_values`` there.

    The Euler relation gives sum_i w_i x_i F_ij = (deg - w_j) F_j = 0 there,
    so the row and column of a nonvanishing x_j depend on the others: the
    minor without the first one has the full rank.  Rescaling the point by
    t multiplies entry (a, b) by t**(deg - w_a - w_b), so any representative
    gives the same rank."""
    j = next((i for i, c in enumerate(point) if c), None)
    if j is None:
        raise InvalidNode("the zero tuple is not a point")
    others = [i for i in range(len(point)) if i != j]
    rows = [[0] * len(others) for _ in others]
    for r, a in enumerate(others):
        for c in range(r, len(others)):
            s, vector = second[a, others[c]]
            rows[r][c] = rows[c][r] = sum(map(mul, vector, values[s]))
    return lattice.rank(lattice.from_rational_rows(rows))


def _is_node(poly: Poly, gradient, second, q, values, p) -> bool:
    """The certificate at q, the integer point of the node p: raises unless
    the form and its gradient vanish, tells whether the Hessian is full."""
    if poly_eval(poly, q) != 0:
        raise InvariantViolation(f"form does not vanish at {p}")
    if any(sum(map(mul, vector, values[s])) for s, vector in gradient):
        raise InvariantViolation(f"gradient does not vanish at {p}")
    return hessian_rank(second, q, values) == len(q) - 1


@dataclass(frozen=True)
class NodalHypersurface:
    """Hypersurface of given weighted degree with a list of declared nodes.

    Coefficients are exact rationals indexed by the lex-ordered monomial
    basis of the degree.  Nodes are stored as ``WeightedSpace.normalize``
    returns them.  At every node the form and its gradient vanish and the
    weighted Hessian has rank 4, and the hypersurface misses the coordinate
    points of Sing W.  ``checked`` certifies this on the integer form
    (coefficients times the lcm of their denominators) at each node's
    integer representative, with the certificate ``_is_node``.
    """

    ambient: WeightedSpace
    degree: int
    coefficients: tuple[Fraction, ...]
    nodes: tuple[Point, ...]

    def __post_init__(self):
        n = len(enumerate_monomials(self.ambient, self.degree))
        if len(self.coefficients) != n:
            raise ValueError(f"expected {n} coefficients")

    def monomials(self) -> list[Mono]:
        return enumerate_monomials(self.ambient, self.degree)

    @property
    def mu(self) -> int:
        return len(self.nodes)

    @classmethod
    def checked(cls, ambient: WeightedSpace, degree: int, coefficients,
                nodes) -> "NodalHypersurface":
        """Validating constructor: normalizes the nodes and verifies every
        declared invariant, raising on the first violation."""
        norm = _prepare_nodes(ambient, nodes)
        coeffs = tuple(map(_fraction, coefficients))
        hyp = cls(ambient, degree, coeffs, norm)
        form = lattice.from_rational_rows([coeffs]).entries
        poly = _poly_from_vector(hyp.monomials(), form)
        if not poly:
            raise InvariantViolation("the zero form is not a hypersurface")
        jets = _jets(ambient.weights, degree, form)
        for p in norm:
            q = _integral(ambient, p)
            if not _is_node(poly, *jets, q, _node_values(ambient.weights, degree, q), p):
                raise InvariantViolation(f"Hessian is degenerate at {p}")
        if fault := _ambient_fault(ambient, degree, form):
            raise fault
        return hyp


def _prepare_nodes(space: WeightedSpace, nodes) -> tuple[Point, ...]:
    norm = tuple(map(space.normalize, nodes))
    if len(set(norm)) != len(norm):
        raise InvalidNode("nodes must be pairwise distinct")
    return norm


def _node_constraint_rows(weights: tuple[int, ...], degree: int,
                          values: list[dict[int, list]]) -> list[list[int]]:
    """First-partial rows of the monomials at points given by their
    ``_node_values``, and value rows in degree 0 only: for degree > 0 the
    Euler identity deg * m(q) = sum_i w_i q_i d_i m(q) puts the value row in
    the span of the partial rows, so dropping it leaves the row space the same."""
    first = _derivatives(weights, degree)[0]
    rows = []
    for vals in values:
        if degree == 0:
            rows.append([1])   # the value of the one monomial, the constant
        rows += [[k * v[j] if k else 0 for k, j in column]
                 for s, column in first for v in [vals[s]]]
    return rows


def build_nodal_hypersurface(space: WeightedSpace, degree: int, nodes,
                             seed: int = 0) -> NodalHypersurface:
    """Solve for a form with prescribed nodes.

    Vanishing of the form and its gradient at each node is an exact linear
    system on the coefficients; a seeded pseudo-random element of its
    solution space is drawn and redrawn (MAX_TRIES draws) until ``checked``
    would accept it (raising before any draw if every form passes through a
    point of Sing W).  The system is assembled at the nodes' integer
    representatives, which scales each row and leaves the kernel unchanged.
    ``lattice.rational_nullspace`` returns the kernel scaled to integers by
    one divisor D, the last Bareiss pivot, which sits at each vector's free
    column; draws mix these integer vectors, and only the accepted draw is
    divided by D.
    """
    norm = _prepare_nodes(space, nodes)
    points = [_integral(space, p) for p in norm]
    monos = enumerate_monomials(space, degree)
    if not monos:
        raise NoSolution(f"no monomials of degree {degree}")
    values = [_node_values(space.weights, degree, q) for q in points]
    if norm:
        constraints = lattice.IntMatrix.from_rows(
            _node_constraint_rows(space.weights, degree, values))
    else:
        constraints = lattice.IntMatrix(0, len(monos), ())
    kernel = lattice.rational_nullspace(constraints)
    if not kernel:
        raise NoSolution("node constraints force the zero form")
    den = next(filter(None, reversed(kernel[0])))   # D, at the free column
    columns = list(zip(*kernel))
    if fault := _ambient_fault(space, degree, list(map(any, columns))):
        raise fault
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        mix = [rng.randint(-9, 9) for _ in kernel]
        if not any(mix):
            continue
        coeffs = [sum(map(mul, mix, col)) for col in columns]
        if not any(coeffs) or _ambient_fault(space, degree, coeffs):
            continue
        poly = _poly_from_vector(monos, coeffs)
        jets = _jets(space.weights, degree, coeffs)
        if all(_is_node(poly, *jets, *node) for node in zip(points, values, norm)):
            return NodalHypersurface(space, degree,
                                     tuple(Fraction(c, den) for c in coeffs), norm)
    raise NodalityFailed(
        f"no draw out of {MAX_TRIES} gave rank-{space.dim} Hessians at all "
        "nodes; choose different nodes")


@dataclass(frozen=True)
class DefectReport:
    mu: int
    h0_L: int
    eval_rank: int
    delta: int


def adjoint_degree(space: WeightedSpace, degree: int) -> int:
    """Degree of the adjoint twist L: -sum(weights) + 2 * degree."""
    return 2 * degree - sum(space.weights)


def defect(x: NodalHypersurface) -> DefectReport:
    """Defect via the node evaluation matrix on sections of the adjoint twist.

    delta = mu - rank, where rank counts the independent linear conditions
    the nodes impose on forms of the adjoint degree; 0 <= delta <= mu.
    """
    l_deg = adjoint_degree(x.ambient, x.degree)
    if l_deg < 0:
        raise NegativeLDegree(
            f"adjoint twist has degree {l_deg}; formula does not apply")
    try:
        monos = enumerate_monomials(x.ambient, l_deg)
    except DegreeTooLarge as exc:
        raise DegreeTooLarge(f"adjoint twist L: {exc}") from None
    h0 = len(monos)
    points = [_integral(x.ambient, p) for p in x.nodes]
    rows = [[prod(map(pow, q, e)) for e in monos] for q in points]
    eval_rank = lattice.rank(lattice.from_rational_rows(rows))
    delta = x.mu - eval_rank
    assert 0 <= delta <= x.mu
    return DefectReport(x.mu, h0, eval_rank, delta)


def _block_cleared(weights: tuple[int, ...],
                   mat: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(t, D_t.A) for a weight-preserving A: t is the lcm of A's
    denominators and D_t scales the weight-w block by t**w."""
    t = lcm(*(a.denominator for row in mat for a in row))
    return t, [[a.numerator * (t ** w // a.denominator) for a in row]
               for w, row in zip(weights, mat)]


def apply_linear_change(x: NodalHypersurface,
                        matrix: list[list[Fraction | int]]) -> NodalHypersurface:
    """Re-coordinatize by an invertible weight-preserving linear substitution.

    Entry (i, j) may only be nonzero when the weights of variables i and j
    agree; the substituted form is g(x) = f(A x) and the nodes move by the
    inverse matrix.  The defect report is invariant under such changes.

    Both run on integers.  With f = F/s for an integer form F, and
    B = D_t.A integral (t the lcm of A's denominators, D_t scaling the
    weight-w block by t**w, which commutes with A), f(D_t.y) = t**deg f(y)
    gives g = F(B x) / (s t**deg): the powers of the forms (B x)_i are built
    once, the products expanded over the integers and each coefficient
    divided back once.  A node p moves to C.q for q its integer
    representative and C = D_u.A^-1 integral, a weighted rescaling of
    A^-1.p that normalizes to the same chart point.
    """
    weights = x.ambient.weights
    n = len(weights)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be {n} x {n}, one row and column per variable")
    mat = [[_fraction(a) for a in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            if mat[i][j] != 0 and weights[i] != weights[j]:
                raise ValueError("substitution must preserve weights")
    inv = lattice.invert_rational(mat)
    t, forward = _block_cleared(weights, mat)
    _, backward = _block_cleared(weights, inv)

    monos = x.monomials()
    s = lcm(*(c.denominator for c in x.coefficients))
    terms = [(e, c.numerator * (s // c.denominator))
             for e, c in zip(monos, x.coefficients) if c != 0]
    powers: list[list[Poly]] = []
    for i, row in enumerate(forward):
        form = {tuple(int(k == j) for k in range(n)): v
                for j, v in enumerate(row) if v}
        powers.append([{(0,) * n: 1}])
        for _ in range(max((e[i] for e, _ in terms), default=0)):
            powers[i].append(_poly_mul(powers[i][-1], form))
    image: Poly = {}
    for e, c in terms:
        term = powers[0][e[0]]
        for i in range(1, n):
            if e[i]:
                term = _poly_mul(term, powers[i][e[i]])
        for m, v in term.items():
            image[m] = image.get(m, 0) + c * v
    den = s * t ** x.degree
    index = {m: k for k, m in enumerate(monos)}
    coeffs = [Fraction(0)] * len(monos)
    for m, v in image.items():
        coeffs[index[m]] = Fraction(v, den)
    points = [_integral(x.ambient, p) for p in x.nodes]
    new_nodes = [tuple(sum(map(mul, row, q)) for row in backward) for q in points]
    return NodalHypersurface.checked(x.ambient, x.degree, coeffs, new_nodes)
