"""Exact computations the benchmark checks the program's outputs against.

Nothing here imports delpezzo.  Ranks come from fraction-free (Bareiss)
integer elimination, monomials from a raw exponent search, polynomials are
plain dicts from exponent tuples to Fractions, and quiver dimensions come
from a forbidden-factor automaton.  The program uses none of these code
paths, so agreement is evidence, not repetition.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

Poly = dict[tuple[int, ...], Fraction]


# -- linear algebra ------------------------------------------------------------

def integer_rows(rows) -> list[list[int]]:
    """Scale each rational row by the lcm of its denominators."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        m = lcm(*(f.denominator for f in fr)) if fr else 1
        out.append([int(f * m) for f in fr])
    return out


def rank(rows) -> int:
    """Rank over Q by Bareiss elimination on the cleared integer rows."""
    a = integer_rows(rows)
    if not a or not a[0]:
        return 0
    nr, nc = len(a), len(a[0])
    r, prev = 0, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, nr):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == nr:
            break
    return r


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Right kernel basis over Q by Gauss-Jordan elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][free]
        basis.append(v)
    return basis


def integer_inverse(matrix: list[list[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix (raises if it is not one)."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


# -- polynomials -------------------------------------------------------------------

def monomials(weights, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the given weighted degree, by raw search, lex order."""
    if degree < 0:
        return []
    ranges = [range(degree // w + 1) for w in weights]
    return sorted(e for e in product(*ranges)
                  if sum(x * w for x, w in zip(e, weights)) == degree)


def evaluate(poly: Poly, point) -> Fraction:
    total = Fraction(0)
    for e, c in poly.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= Fraction(x) ** k
        total += term
    return total


def partial(poly: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in poly.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def hessian_rank(poly: Poly, point) -> int:
    """Rank of the full matrix of second partials at a point (no chart)."""
    n = len(point)
    firsts = [partial(poly, i) for i in range(n)]
    return rank([[evaluate(partial(firsts[i], j), point) for j in range(n)]
                 for i in range(n)])


def is_node(poly: Poly, point, dim: int) -> bool:
    """Form and gradient vanish and the weighted Hessian has rank dim.

    By the derivative of the Euler relation the weighted Euler vector lies
    in the Hessian's kernel at a singular point, so at a smooth point of
    the ambient an ordinary double point is exactly full rank dim."""
    if evaluate(poly, point):
        return False
    if any(evaluate(partial(poly, i), point) for i in range(len(point))):
        return False
    return hessian_rank(poly, point) == dim


def _mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute(poly: Poly, matrix: list[list[int]]) -> Poly:
    """g(x) = f(A x): variable i becomes the linear form sum_j A[i][j] x_j."""
    n = len(matrix)
    forms = [{tuple(int(k == j) for k in range(n)): Fraction(matrix[i][j])
              for j in range(n) if matrix[i][j]} for i in range(n)]
    out: Poly = {}
    for e, c in poly.items():
        term: Poly = {(0,) * n: Fraction(c)}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _mul(term, forms[i])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return {e: c for e, c in out.items() if c}


def apply_matrix(matrix, point) -> tuple[Fraction, ...]:
    return tuple(sum((Fraction(a) * x for a, x in zip(row, point)), Fraction(0))
                 for row in matrix)


# -- quivers -------------------------------------------------------------------

def _automaton(vertices, arrows, relations):
    """Forbidden-factor automaton: states (vertex, last m arrows), m the
    longest relation length minus one.  Walks from the states (v, ()) are
    exactly the nonzero paths starting at v."""
    relations = {tuple(r) for r in relations}
    memory = max((len(r) for r in relations), default=1) - 1

    def successors(state):
        vertex, recent = state
        for s, t, name in arrows:
            if s != vertex:
                continue
            word = recent + (name,)
            if any(word[-len(r):] == r for r in relations if len(r) <= len(word)):
                continue
            yield (t, word[-memory:] if memory else ())
    return successors


def quiver_report(vertices, arrows, relations):
    """(dimension, Cartan matrix) of the monomial path algebra, or
    (None, None) when a cycle of the automaton is reachable (infinite)."""
    successors = _automaton(vertices, arrows, relations)
    # iterative depth-first search for a reachable cycle
    colour: dict = {}
    for v in vertices:
        start = (v, ())
        if start in colour:
            continue
        colour[start] = 1
        stack = [(start, iter(list(successors(start))))]
        while stack:
            state, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                colour[state] = 2
                stack.pop()
            elif colour.get(nxt) == 1:
                return None, None
            elif nxt not in colour:
                colour[nxt] = 1
                stack.append((nxt, iter(list(successors(nxt)))))
    # acyclic: count walks from each start state by memoized recursion
    index = {v: i for i, v in enumerate(vertices)}
    ends: dict = {}

    def count(state) -> list[int]:
        if state not in ends:
            row = [0] * len(vertices)
            row[index[state[0]]] += 1
            for nxt in successors(state):
                row = [x + y for x, y in zip(row, count(nxt))]
            ends[state] = row
        return ends[state]

    cartan = [count((v, ())) for v in vertices]
    return sum(map(sum, cartan)), cartan
