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
the denominators (the numerators alone when t = 1).  That scales the value
of a form of degree d by t**d, a first partial d/dx_i by t**(d - w_i) and a
second partial d2/dx_a dx_b by t**(d - w_a - w_b), so vanishing and ranks
are unchanged.  Forms are likewise cleared to integer coefficients.  One
table per (weights, degree), ``_derivatives``, gives per partial the
(position, factor) pairs of the monomials it keeps, whose lowered monomials
fall in order onto the basis of the partial's degree s, and per degree-s
monomial a step down: a node's value of it is q_i times one of degree
s - w_i wherever the table has that degree.  So a form's partials are dense
vectors read off the pairs, a node's monomial values one list per degree,
each partial at a node one dot product and one constraint row, and the
Hessian minor int rows, of rank 4 on a fourfold when the determinant is
nonzero and else ranked by ``lattice.rank``; ``checked`` and the
builder's draws run one certificate (``_degenerate``).  The builder
takes dim W + 1 constraint rows per node, one per first partial: in positive
degree the Euler identity deg.f = sum_i w_i x_i f_i makes the value vanish
wherever the gradient does, so the value row is left out (degree 0 keeps it).
``_node_constraint_rows`` writes them heaviest variable first: a heavy
partial keeps only the monomials containing its variable (on the sextic 14
of 64 for x4, 10 of them in the first 32 lex columns), so its sparse rows
take those pivots and the dense weight-1 rows are rewritten less often.
Row order leaves the row space, hence the reduced echelon basis and every
draw, as they are.  A draw is certified as its primitive form, the integer
draw divided by the gcd of its entries.

A weight-preserving change of coordinates A is block diagonal by weight,
so it commutes with D_t = diag(t**w_i), and f(D_t.y) = t**deg f(y).
Scaling the weight-w block of A by t**w, for t the lcm of A's denominators,
gives an integer matrix B = D_t.A with f(A x) = f(B x) / t**deg; the
substitution is expanded over the integers and divided back once.  Its
monomials are keyed by one int, sum_i e_i (deg + 1)**i, so a product adds
keys; no exponent passes deg, so no digit carries.  The inverse is
cleared the same way, and since a block-scaled matrix moves a point only
by a weighted rescaling, the nodes' images are computed from their
integer representatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, perm, prod
from operator import add, mul

from . import lattice
from .errors import (NAME_ECHO, TOKEN_ECHO, DegreeTooLarge, InvalidNode,
                     InvariantViolation, NegativeLDegree, NoSolution,
                     NodalityFailed, NodeAtAmbientSingularity, UnsupportedChart,
                     clip)

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
        if a == b == 1:   # already in canonical form
            return point
        return tuple(Fraction(c.numerator * b ** w, c.denominator * a ** w)
                     for w, c in zip(self.weights, point))


def enumerate_monomials(space: WeightedSpace, degree: int) -> list[Mono]:
    """All exponent vectors e with sum(e_i * w_i) = degree, ascending lex.

    Raises DegreeTooLarge past MAX_MONOMIALS monomials.  Each call returns
    a fresh list; the enumeration itself is memoized."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return list(_monomials(space.weights, degree))


def _clipped(n: int) -> str:
    """n for a message, cut after TOKEN_ECHO characters.  Decimal writes it
    also past Python's int-string limit, which an adjoint degree can pass."""
    from decimal import Decimal
    return clip(str(Decimal(n)), TOKEN_ECHO)


def _at(p: Point) -> str:
    """A node for a message, (c0:c1:...) cut after NAME_ECHO characters."""
    return clip("(" + ":".join(map(str, p)) + ")", NAME_ECHO)


def _on(weights: tuple[int, ...], degree: int) -> str:
    """'<degree> on P<weights>' for a message, each part clipped."""
    return f"{_clipped(degree)} on {clip(f'P{weights}', NAME_ECHO)}"


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
                f"listing the monomials of degree {_on(weights, degree)} "
                f"takes more than {budget:,} steps")
        if k == len(ws) - 1:
            if remaining % ws[k] == 0:
                if len(found) == MAX_MONOMIALS:
                    raise DegreeTooLarge(
                        f"degree {_on(weights, degree)} has more than "
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
    """(pairs, powers, kept, steps), the one table per (weights, degree).
    kept is (s, (position, k) per basis monomial e kept) per partial, d/dx_i
    first, then d2/dx_a dx_b for (a, b) in pairs, a <= b: s is the partial's
    degree, k the integer factor it puts on e, and the lowered monomials of
    the kept e fall in order onto the degree-s basis.  powers is (i, index of
    x_i**(degree/w_i) or None) per w_i > 1.  steps is (s, steps) per degree s
    of kept, ascending; per degree-s monomial m, step (i, t, k) is m = x_i
    times monomial k of degree t = s - w_i, the first such t in the table,
    and (None, None, m) is m when there is none."""
    monos, n = _monomials(weights, degree), len(weights)
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    kept = [(degree - sum(map(mul, shift, weights)),
             [(j, k) for j, e in enumerate(monos) for k in [prod(map(perm, e, shift))] if k])
            for shift in unit + [tuple(map(add, unit[a], unit[b])) for a, b in pairs]]
    powers = [(i, monos.index(tuple(degree // w * u for u in unit[i]))
                  if degree % w == 0 else None) for i, w in enumerate(weights) if w > 1]
    index = {s: {m: k for k, m in enumerate(_monomials(weights, s))}
             for s in sorted({s for s, _ in kept})}
    def step(s, m):
        return next(((i, s - w, index[s - w][m[:i] + (m[i] - 1,) + m[i + 1:]])
                     for i, w in enumerate(weights) if m[i] and s - w in index),
                    (None, None, m))
    steps = [(s, [step(s, m) for m in basis]) for s, basis in index.items()]
    return pairs, powers, kept, steps


# -- exact polynomial helpers ---------------------------------------------

def _integral(space: WeightedSpace, p: Point) -> tuple[int, ...]:
    """The integer representative t.p of a point: coordinate i times
    t**w_i, for t the lcm of the coordinates' denominators."""
    if (t := lcm(*(c.denominator for c in p))) == 1:
        return tuple(c.numerator for c in p)
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
    over the degree-s basis), k * form[j] per kept pair (j, k) in order."""
    pairs, _, kept, _ = _derivatives(weights, degree)
    jets = [(s, [k * form[j] for j, k in column]) for s, column in kept]
    return jets[:len(weights)], dict(zip(pairs, jets[len(weights):]))

def _node_values(weights: tuple[int, ...], degree: int, q) -> dict[int, list]:
    """The values at q of the monomials of every degree in the table."""
    *_, value_steps = _derivatives(weights, degree)
    values: dict[int, list] = {}
    for s, steps in value_steps:
        values[s] = [q[i] * values[t][k] if t is not None else prod(map(pow, q, k))
                     for i, t, k in steps]
    return values

def _ambient_fault(space: WeightedSpace, degree: int, form):
    """NodeAtAmbientSingularity if the form passes through a coordinate point
    e_i with w_i > 1, where x_i**(degree/w_i) alone is nonzero, else None.
    These are all of Sing W on P^4, P(1,1,1,1,2) and P(1,1,1,2,3), but only
    part of it where two weights share a factor and Sing W has curves."""
    _, powers, _, _ = _derivatives(space.weights, degree)
    for i, k in powers:
        if k is None or not form[k]:
            e = ":".join(str(int(j == i)) for j in range(len(space.weights)))
            return NodeAtAmbientSingularity(
                f"the hypersurface passes through e{i} = ({e}), a singular point "
                f"of {clip(f'P{space.weights}', NAME_ECHO)}")

def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of forms keyed by packed exponents (``apply_linear_change``)."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}

def _det4(rows) -> int:
    """A 4 x 4 determinant by Laplace expansion along the first two rows."""
    (a, b, c, d), (e, f, g, h), (i, j, k, l), (m, n, o, p) = rows
    return ((a * f - b * e) * (k * p - l * o) - (a * g - c * e) * (j * p - l * n)
            + (a * h - d * e) * (j * o - k * n) + (b * g - c * f) * (i * p - l * m)
            - (b * h - d * f) * (i * o - k * m) + (c * h - d * g) * (i * n - j * m))


def hessian_rank(second, point, values) -> int:
    """Rank of the weighted Hessian of a form at a point where its gradient
    vanishes, from second[a, b] of ``_jets`` and ``_node_values`` there.

    The Euler relation gives sum_i w_i x_i F_ij = (deg - w_j) F_j = 0 there,
    so the row and column of a nonvanishing x_j depend on the others: the
    minor without the first one has the full rank.  Rescaling the point by
    t multiplies entry (a, b) by t**(deg - w_a - w_b), so any representative
    gives the same rank.  A 4 x 4 minor with a nonzero determinant
    (``_det4``, exact on Fraction rows too) has rank 4; any other minor is
    ranked by ``lattice.rank``, its rows cleared of denominators first."""
    j = next((i for i, c in enumerate(point) if c), None)
    if j is None:
        raise InvalidNode("the zero tuple is not a point")
    others = [i for i in range(len(point)) if i != j]
    rows = [[0] * len(others) for _ in others]
    for r, a in enumerate(others):
        for c in range(r, len(others)):
            s, vector = second[a, others[c]]
            rows[r][c] = rows[c][r] = sum(map(mul, vector, values[s]))
    if len(rows) == 4 and _det4(rows):
        return 4
    return lattice.rank(lattice.from_rational_rows(rows))


def _degenerate(weights: tuple[int, ...], degree: int, form, points) -> Point | None:
    """The node certificate of an integer form, node by node in order over
    ``_prepare_nodes``' (q, values, p): raises unless the form and its
    gradient vanish at q, the integer point of the node p, and returns the
    first p whose Hessian is not full, else None."""
    poly = {m: c for m, c in zip(_monomials(weights, degree), form) if c}
    gradient, second = _jets(weights, degree, form)
    for q, values, p in points:
        if poly_eval(poly, q) != 0:
            raise InvariantViolation(f"form does not vanish at {_at(p)}")
        if any(sum(map(mul, vector, values[s])) for s, vector in gradient):
            raise InvariantViolation(f"gradient does not vanish at {_at(p)}")
        if hessian_rank(second, q, values) != len(q) - 1:
            return p


@dataclass(frozen=True)
class NodalHypersurface:
    """Hypersurface of given weighted degree with a list of declared nodes.

    Coefficients are exact rationals indexed by the lex-ordered monomial
    basis of the degree.  Nodes are stored as ``WeightedSpace.normalize``
    returns them.  At every node the form and its gradient vanish and the
    weighted Hessian has rank 4, and the hypersurface misses the coordinate
    points of Sing W.  ``checked`` certifies this on the integer form
    (coefficients times the lcm of their denominators) at each node's
    integer representative, with the builder's certificate ``_degenerate``.
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
        norm, points = _prepare_nodes(ambient, degree, nodes)
        coeffs = tuple(map(_fraction, coefficients))
        hyp = cls(ambient, degree, coeffs, norm)
        form = lattice.from_rational_rows([coeffs]).entries
        if not any(form):
            raise InvariantViolation("the zero form is not a hypersurface")
        if p := _degenerate(ambient.weights, degree, form, points):
            raise InvariantViolation(f"Hessian is degenerate at {_at(p)}")
        if fault := _ambient_fault(ambient, degree, form):
            raise fault
        return hyp


def _prepare_nodes(space: WeightedSpace, degree: int, nodes):
    """The normalized nodes p, pairwise distinct by their integer points q
    (q_j = t at p's chart coordinate j, so p is q scaled by t**-w_i), and
    a lazy iterable of (q, ``_node_values`` at q, p) per node."""
    norm = tuple(map(space.normalize, nodes))
    ints = [_integral(space, p) for p in norm]
    if len(set(ints)) != len(norm):
        raise InvalidNode("nodes must be pairwise distinct")
    return norm, ((q, _node_values(space.weights, degree, q), p)
                  for q, p in zip(ints, norm))


def _node_constraint_rows(weights: tuple[int, ...], degree: int,
                          values: list[dict[int, list]], scaled=()) -> list[list[int]]:
    """First-partial rows of the monomials at points given by their
    ``_node_values``, heaviest partial first and node-major within a weight,
    each written from the partial's kept (position, factor) pairs; the rows
    of the nodes whose indices are in ``scaled`` are divided by their content.
    For degree > 0 the Euler identity deg * m(q) = sum_i w_i q_i d_i m(q) puts
    the value row in the span of the partial rows, so it is left out; in
    degree 0 each node gives the constant's value row, then zero partials."""
    if degree == 0:
        return [[int(i == 0)] for _ in values for i in range(len(weights) + 1)]
    _, _, kept, _ = _derivatives(weights, degree)
    width = len(_monomials(weights, degree))
    rows = []
    for w in sorted(set(weights), reverse=True):
        for n, vals in enumerate(values):
            for s, column in (kept[i] for i, wi in enumerate(weights) if wi == w):
                row = [0] * width
                for (j, k), v in zip(column, vals[s]):
                    row[j] = k * v
                if n in scaled and (g := gcd(*row)) > 1:
                    row = [x // g for x in row]
                rows.append(row)
    return rows


def build_nodal_hypersurface(space: WeightedSpace, degree: int, nodes,
                             seed: int = 0) -> NodalHypersurface:
    """Solve for a form with prescribed nodes.

    Vanishing of the form and its gradient at each node is an exact linear
    system on the coefficients; a seeded pseudo-random element of its
    solution space is drawn and redrawn (MAX_TRIES draws) until ``checked``
    would accept it.  The system is assembled at the nodes' integer
    representatives, which scales each row and leaves the kernel unchanged;
    the rows of a node whose representative is scaled (q = t.p, t > 1) are
    divided by their content, so the elimination does not carry t**s.
    ``lattice.rational_nullspace`` runs the forward pass on the constraint
    rows only until each row has its pivot (over every column if the rows
    are dependent) and keeps the log of its steps; the kernel is scaled to
    integers by one divisor D, the last Bareiss pivot.  Each draw forms one
    combination of the free columns, carries it through that log and
    solves it by one back substitution (``Kernel.mix``); only the accepted
    draw is divided by D.  In positive degree the rows go in heaviest
    partial first, node-major within a weight (``_node_constraint_rows``):
    the pivot columns and the reduced echelon rows depend on the row space
    only, so the order may change D but no draw divided by D.  The
    certificate, ``checked``'s ``_degenerate``, runs on the draw's
    primitive form, D times the draw divided by the gcd of its entries,
    whose integers are smaller by the draw's content.
    Sing W is checked only when a draw misses a power column or none is
    accepted: the kernel's basis, solved then, tells whether every kernel
    form passes through it.
    """
    norm, points = _prepare_nodes(space, degree, nodes)
    monos = enumerate_monomials(space, degree)
    if not monos:
        raise NoSolution(f"no monomials of degree {_clipped(degree)}")
    points = list(points)
    if norm:
        constraints = lattice.IntMatrix.from_rows(_node_constraint_rows(
            space.weights, degree, [values for _, values, _ in points],
            {n for n, (q, _, p) in enumerate(points) if q != p}))
    else:
        constraints = lattice.IntMatrix(0, len(monos), ())
    kernel = lattice.rational_nullspace(constraints)
    if not kernel:
        raise NoSolution("node constraints force the zero form")
    _, powers, _, _ = _derivatives(space.weights, degree)
    def sing_w():   # raises if every form of the kernel passes through Sing W
        support = {k: any(v[k] for v in kernel) for _, k in powers if k is not None}
        if fault := _ambient_fault(space, degree, support):
            raise fault
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        mix = [rng.randint(-9, 9) for _ in range(len(kernel))]
        if not any(mix):
            continue
        coeffs = kernel.mix(mix)
        if not any(coeffs) or _ambient_fault(space, degree, coeffs):
            sing_w()
            continue
        g = gcd(*coeffs)
        if not _degenerate(space.weights, degree, [c // g for c in coeffs], points):
            return NodalHypersurface(space, degree,
                                     tuple(Fraction(c, kernel.d) for c in coeffs), norm)
    sing_w()
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
            f"adjoint twist has degree {_clipped(l_deg)}; formula does not apply")
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
    once, the products expanded over the integers on packed exponents and
    each coefficient divided back once.  A node p moves to C.q for q its
    integer representative and C = D_u.A^-1 integral, a weighted rescaling
    of A^-1.p that normalizes to the same chart point.
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
    places = [(x.degree + 1) ** i for i in range(n)]   # the packed key of x_i
    powers: list[list[dict[int, int]]] = []
    for i, row in enumerate(forward):
        form = {places[j]: v for j, v in enumerate(row) if v}
        powers.append([{0: 1}])
        for _ in range(max((e[i] for e, _ in terms), default=0)):
            powers[i].append(_poly_mul(powers[i][-1], form))
    image: dict[int, int] = {}
    for e, c in terms:
        term = powers[0][e[0]]
        for i in range(1, n):
            if e[i]:
                term = _poly_mul(term, powers[i][e[i]])
        for m, v in term.items():
            image[m] = image.get(m, 0) + c * v
    den = s * t ** x.degree
    index = {sum(map(mul, m, places)): k for k, m in enumerate(monos)}
    coeffs = [Fraction(0)] * len(monos)
    for m, v in image.items():
        coeffs[index[m]] = Fraction(v, den)
    points = [_integral(x.ambient, p) for p in x.nodes]
    new_nodes = [tuple(sum(map(mul, row, q)) for row in backward) for q in points]
    return NodalHypersurface.checked(x.ambient, x.degree, coeffs, new_nodes)
