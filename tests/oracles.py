"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths they check: monomial counting by
raw exponent search, determinants by Laplace expansion, ranks, kernels and
inverses by Gauss-Jordan over ``Fraction``, the forward elimination pass by
dense Bareiss that rewrites every row at every pivot, the node constraint
rows by multiplying out every entry on its own, the seeded
hypersurface builder and the defect with every value, kernel vector and
chart Hessian over ``Fraction`` at chart-normalized nodes, the linear
change of coordinates by expanding f(Ax) over ``Fraction`` one linear
factor at a time, quiver dimensions by a forbidden-factor automaton walk,
quiver bases by a brute-force search of composable words, and the Euler
form of twisted structure sheaves by Hirzebruch-Riemann-Roch, which no
replay computes: facts enter replays as axioms and rules, never as Ext
groups.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def brute_force_monomials(weights, degree):
    """All exponent tuples with the given weighted degree, by raw search."""
    ranges = [range(degree // w + 1) for w in weights]
    return sorted(e for e in itertools.product(*ranges)
                  if sum(ei * wi for ei, wi in zip(e, weights)) == degree)


def det_int(rows):
    """Integer determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * head * det_int(minor)
    return total


def fraction_row_reduce(rows):
    """Gauss-Jordan over the rationals; returns (reduced rows, pivot columns).

    The reference for ``lattice``'s fraction-free kernel: every cell update
    is a ``Fraction`` operation, so the reduced row echelon form comes out
    directly, with no common denominator.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        row = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots


def fraction_rank(rows):
    return len(fraction_row_reduce(rows)[1])


def fraction_nullspace(rows, ncols):
    """Kernel basis read off the reduced rows: one vector per free column,
    1 there, minus the reduced entries at the pivot columns."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    reduced, pivots = fraction_row_reduce(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def fraction_inverse(rows):
    """Inverse by reducing [A | I]; None when A is singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = fraction_row_reduce(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def dense_forward(a):
    """Dense fraction-free forward pass in place, the reference for
    ``lattice._forward``: every row below a pivot p in column c is rewritten
    right of c as ``(p * row - row[c] * pivot_row) // d``, d the previous
    pivot, even when row[c] is 0.  Returns (pivot columns, last pivot or 1);
    row r < rank holds the r-th echelon row from its pivot on."""
    nr, nc = len(a), len(a[0]) if a else 0
    pivots = []
    d = 1
    for c in range(nc):
        r = len(pivots)
        row = next((i for i in range(r, nr) if a[i][c]), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        p, tail = a[r][c], a[r][c + 1:]
        for x in a[r + 1:]:
            f = x[c]
            x[c + 1:] = [(p * u - f * v) // d for u, v in zip(x[c + 1:], tail)]
        d = p
        pivots.append(c)
    return pivots, d


def naive_constraint_rows(monos, points, degree):
    """The builder's node constraint rows, the reference for
    ``wps._node_constraint_rows``: at each integer point q the value row in
    degree 0 only, then for each variable i the row e_i * q**(e - 1_i) over
    the monomials e, every entry multiplied out on its own."""
    def power(e, q):
        v = 1
        for ei, qi in zip(e, q):
            for _ in range(ei):
                v *= qi
        return v

    rows = []
    for q in points:
        if degree == 0:
            rows.append([power(e, q) for e in monos])
        for i in range(len(q)):
            rows.append([e[i] * power(_lower(e, i), q) if e[i] else 0 for e in monos])
    return rows


def monomial_value(e, p):
    """prod p_i ** e_i over ``Fraction``."""
    v = Fraction(1)
    for ei, pi in zip(e, p):
        if ei:
            v *= Fraction(pi) ** ei
    return v


def _lower(e, i):
    return e[:i] + (e[i] - 1,) + e[i + 1:]


def _fraction_partial(poly, i):
    out = {}
    for e, c in poly.items():
        if e[i]:
            d = _lower(e, i)
            out[d] = out.get(d, Fraction(0)) + c * e[i]
    return {e: c for e, c in out.items() if c != 0}


def _fraction_eval(poly, p):
    return sum((c * monomial_value(e, p) for e, c in poly.items()), Fraction(0))


def chart_normalize(weights, point):
    """(point scaled so its first nonzero weight-1 coordinate is 1, that
    coordinate's index)."""
    j = next(i for i, (w, c) in enumerate(zip(weights, point)) if w == 1 and c != 0)
    t = 1 / Fraction(point[j])
    return tuple(Fraction(c) * t ** w for w, c in zip(weights, point)), j


def chart_hessian_rank(poly, node, chart):
    """Rank of the second partials in every variable but the chart one."""
    others = [i for i in range(len(node)) if i != chart]
    return fraction_rank([[_fraction_eval(_fraction_partial(_fraction_partial(poly, a), b),
                                          node) for b in others] for a in others])


def weighted_hessian_rank(poly, node):
    """Rank of the full matrix of second partials, in every variable."""
    return fraction_rank([[_fraction_eval(_fraction_partial(_fraction_partial(poly, a), b),
                                          node) for b in range(len(node))]
                          for a in range(len(node))])


def fraction_build(weights, degree, nodes, seed=0, max_tries=64):
    """The seeded builder over ``Fraction``: (coefficients, normalized
    nodes), or the name of the error the builder raises.

    At each chart-normalized node the value row and the first-partial rows
    of the monomials are assembled, the kernel is read off their reduced
    row echelon form, and kernel vectors are mixed with the same seeded
    draw until the chart Hessian has full rank at every node and the form
    is nonzero at each coordinate point of weight > 1; when every kernel
    vector vanishes at one of them, no draw is made."""
    monos = brute_force_monomials(weights, degree)
    norm = [chart_normalize(weights, p) for p in nodes]
    rows = []
    for node, _ in norm:
        rows.append([monomial_value(e, node) for e in monos])
        for i in range(len(weights)):
            rows.append([e[i] * monomial_value(_lower(e, i), node) if e[i]
                         else Fraction(0) for e in monos])
    kernel = fraction_nullspace(rows, len(monos))
    if not kernel:
        return "NoSolution"
    # a form passes through the coordinate point e_i, singular when w_i > 1,
    # exactly when it vanishes there
    corners = [tuple(int(k == i) for k in range(len(weights)))
               for i, w in enumerate(weights) if w > 1]
    if any(all(_fraction_eval(dict(zip(monos, v)), e) == 0 for v in kernel)
           for e in corners):
        return "NodeAtAmbientSingularity"
    rng = random.Random(seed)
    for _ in range(max_tries):
        mix = [rng.randint(-9, 9) for _ in kernel]
        if not any(mix):
            continue
        coeffs = [sum((m * v[k] for m, v in zip(mix, kernel)), Fraction(0))
                  for k in range(len(monos))]
        if not any(coeffs) or any(_fraction_eval(dict(zip(monos, coeffs)), e) == 0
                                  for e in corners):
            continue
        poly = {e: c for e, c in zip(monos, coeffs) if c != 0}
        if all(chart_hessian_rank(poly, node, j) == len(weights) - 1
               for node, j in norm):
            return tuple(coeffs), tuple(node for node, _ in norm)
    return "NodalityFailed"


def fraction_defect(weights, degree, nodes):
    """(mu, h0(L), evaluation rank, delta) with the adjoint-degree
    monomials evaluated over ``Fraction`` at the given nodes."""
    monos = brute_force_monomials(weights, 2 * degree - sum(weights))
    rank = fraction_rank([[monomial_value(e, p) for e in monos] for p in nodes])
    return len(nodes), len(monos), rank, len(nodes) - rank


def _fraction_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def fraction_linear_change(weights, degree, coefficients, nodes, matrix):
    """g(x) = f(Ax) over ``Fraction``: (coefficients of g, the images
    A^-1 p of the nodes, chart-normalized), or "ValueError" for a matrix
    that mixes weights or is singular.

    Every monomial of f is expanded by multiplying in its linear forms
    (A x)_i one at a time; the inverse comes from ``fraction_inverse``."""
    n = len(weights)
    mat = [[Fraction(a) for a in row] for row in matrix]
    if any(mat[i][j] != 0 and weights[i] != weights[j]
           for i in range(n) for j in range(n)):
        return "ValueError"
    inv = fraction_inverse(mat)
    if inv is None:
        return "ValueError"
    monos = brute_force_monomials(weights, degree)
    forms = [{tuple(int(k == j) for k in range(n)): mat[i][j]
              for j in range(n) if mat[i][j] != 0} for i in range(n)]
    image = {}
    for e, c in zip(monos, coefficients):
        if c == 0:
            continue
        term = {(0,) * n: Fraction(1)}
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = _fraction_mul(term, forms[i])
        for m, v in term.items():
            image[m] = image.get(m, Fraction(0)) + c * v
    moved = [chart_normalize(weights, [sum((inv[i][j] * p[j] for j in range(n)),
                                           Fraction(0)) for i in range(n)])[0]
             for p in nodes]
    return tuple(image.get(m, Fraction(0)) for m in monos), tuple(moved)


def transfer_dimension(vertices, arrows, relations):
    """Path algebra dimension by a forbidden-factor automaton walk.

    States are (vertex, recent arrow names); weights count surviving words
    per length.  A walk of length L passes L + 1 states, so once a walk is
    longer than the number of distinct states reached so far some state
    repeats and pumps: the algebra is infinite (None).  Otherwise the walks
    die out and the total count is returned.
    """
    relations = {tuple(r) for r in relations}
    memory = max((len(r) for r in relations), default=1) - 1
    by_name = {name: (s, t) for s, t, name in arrows}

    def step(state, name):
        vertex, recent = state
        src, dst = by_name[name]
        if src != vertex:
            return None
        word = recent + (name,)
        if any(word[-len(r):] == r for r in relations if len(r) <= len(word)):
            return None
        return (dst, word[-memory:] if memory else ())

    weights = {(v, ()): 1 for v in vertices}
    seen = set(weights)
    total = sum(weights.values())
    length = 0
    while weights:
        length += 1
        nxt = {}
        for state, w in weights.items():
            for name in by_name:
                out = step(state, name)
                if out is not None:
                    nxt[out] = nxt.get(out, 0) + w
        seen.update(nxt)
        if nxt and length >= len(seen):
            return None
        total += sum(nxt.values())
        weights = nxt
    return total


def nonzero_words(vertices, arrows, relations):
    """Basis texts of a finite monomial path algebra by brute force.

    Grows composable words one arrow at a time and keeps those in which no
    relation occurs anywhere as a contiguous factor; every factor of every
    word is scanned.  Loops forever on an infinite algebra.
    """
    relations = [tuple(r) for r in relations]

    def clean(word):
        return not any(word[i:i + len(r)] == r for r in relations
                       for i in range(len(word) - len(r) + 1))

    texts = {f"e_{v}" for v in vertices}
    words = [((name,), t) for s, t, name in arrows if clean((name,))]
    while words:
        texts.update(".".join(word) for word, _ in words)
        words = [(word + (name,), t) for word, end in words
                 for s, t, name in arrows
                 if s == end and clean(word + (name,))]
    return texts


# The exceptional divisors in {H, E}: E itself, and D = h - E where the
# projection from the line gives H = 3h - D (d = 4) or H = 2h - D (d = 5).
_DIVISOR = {"E": {4: (0, 1), 5: (0, 1)}, "D": {4: (2, -3), 5: (1, -2)}}


def chi_line_bundle(d, a, b):
    """chi(O(D)) for D = aH + bE on the line blow-up Y_d, by
    Hirzebruch-Riemann-Roch: D^3/6 - K.D^2/4 + D.(K^2 + c2)/12 + 1 with
    K = -2H + E.  chi(O(H)) = d + 2 and chi(O(E)) = 1 fix the linear term
    as a(d/3 + 1) + b/2."""
    from delpezzo.intersection import BlowupGeometry, he, triple
    geom, D, K = BlowupGeometry(d), he(a, b), he(-2, 1)
    return (Fraction(triple(geom, D, D, D), 6) - Fraction(triple(geom, K, D, D), 4)
            + Fraction(a * (d + 3), 3) + Fraction(b, 2) + 1)


def _k_class(d, node):
    """The class of O_S(t) in K_0 as signed line bundles (sign, a, b):
    O(t) on the whole space, O(t) - O(t - S) on a divisor S."""
    a, b = node.twist.coords
    if not node.support:
        return [(1, a, b)]
    s0, s1 = _DIVISOR[node.support][d]
    return [(1, a, b), (-1, a - s0, b - s1)]


def euler_form(d, x, y):
    """chi(x, y) = sum of (-1)^i dim Ext^i(x, y) for twistable nodes on Y_d,
    bilinear on K_0 with chi(O(A), O(B)) = chi(O(B - A)).  It is 0 whenever
    every graded Hom from x to y vanishes."""
    return sum(sx * sy * chi_line_bundle(d, ya - xa, yb - xb)
               for sx, xa, xb in _k_class(d, x) for sy, ya, yb in _k_class(d, y))
