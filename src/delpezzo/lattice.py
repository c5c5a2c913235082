"""Exact integer and rational linear algebra on small dense matrices.

No floating point appears anywhere in this module.  One fraction-free
kernel (Bareiss, Math. Comp. 22, 1968) runs on integer rows; rational input
is cleared of denominators row by row first.  The forward pass ``_forward``
rewrites a row below a pivot p in column c only when its entry f = row[c]
is nonzero, to ``(p * row - f * pivot_row) // last`` right of c, where last
is the pivot under which the row was last rewritten (1 at first).  Bareiss
scale factors telescope, so a row skipped since equals the dense pass's
row times last / d, d the previous pivot: every division is exact
(Sylvester's identity), entries stay integer minors and no gcd is taken.
A stale row chosen as pivot is scaled by d / last from its pivot column on
first, so pivots, last pivot and echelon rows are the dense pass's.
``rank`` runs this pass alone.  ``_back_substitute`` solves the echelon rows
u bottom up for just the columns f a caller reads, ``y_r = (D * u[r][f] -
sum_{s>r} u[r][p_s] * y_s) // u[r][p_r]`` with p_s the pivot columns and D
the last pivot; y_r is an integer minor (Cramer's rule), so the division is
exact, and y_r / D is entry (r, f) of the reduced row echelon form.
``rational_nullspace`` returns the integer basis D times the reduced form's
kernel: D at the free column, each vector's last nonzero entry, and -y_r at
pivot column p_r.  ``invert_rational`` reads the identity block of [A | I].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")
        if not all(map(isinstance, self.entries, repeat(int))):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, tuple(x for r in rows for x in r))

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


def from_rational_rows(rows: Sequence[Sequence[Fraction | int]]) -> IntMatrix:
    """Clear denominators row by row; rank and kernel are unchanged."""
    cleared = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (mult // x.denominator) for x in row])
    return IntMatrix.from_rows(cleared)


def _forward(a: list[list[int]]) -> tuple[list[int], int]:
    """Forward pass in place; returns (pivot columns, last pivot or 1).  Row
    r < rank holds the r-th echelon row from its pivot on; the rest is stale."""
    nr, nc = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    d = 1
    last = [1] * nr     # pivot under which row i was last rewritten
    for c in range(nc):
        r = len(pivots)
        row = next((i for i in range(r, nr) if a[i][c]), None)
        if row is None:
            continue
        if row != r:
            a[r], a[row] = a[row], a[r]
            last[r], last[row] = last[row], last[r]
        s = last[r]
        if s != d:
            a[r][c:] = [u * d // s for u in a[r][c:]]
        p, tail = a[r][c], a[r][c + 1:]
        for i in range(r + 1, nr):
            x = a[i]
            f = x[c]
            if f:
                s, last[i] = last[i], p
                x[c + 1:] = [(p * u - f * v) // s for u, v in zip(x[c + 1:], tail)]
        d = p
        pivots.append(c)
    return pivots, d


def _back_substitute(a: list[list[int]], pivots: list[int], d: int,
                     cols: list[int]) -> list[list[int]]:
    """y[r][j] = d * entry (r, cols[j]) of the reduced row echelon form."""
    y: list[list[int]] = []   # y[s - r - 1] is row s while row r is solved
    for r in reversed(range(len(pivots))):
        row = a[r]
        acc = [d * row[f] for f in cols]
        for k, ys in zip([row[c] for c in pivots[r + 1:]], y):
            if k:
                acc = [t - k * v for t, v in zip(acc, ys)]
        y.insert(0, [t // row[pivots[r]] for t in acc])
    return y


def rank(m: IntMatrix) -> int:
    return len(_forward(m.to_rows())[0])


def rational_nullspace(m: IntMatrix) -> list[tuple[int, ...]]:
    """Integer basis of the right kernel of m over the rationals.

    Returns cols - rank(m) independent vectors of plain ints, each
    annihilated by m: D times the reduced row echelon form's kernel vector
    for each free column f, so D sits at f, its last nonzero entry.  D is
    the last pivot of ``_forward``, 1 when m has no rows (standard basis).
    """
    nc, rows = m.cols, m.to_rows()
    pivots, d = _forward(rows)
    d = int(d)   # a pivot never rewritten may be a bool
    free = [c for c in range(nc) if c not in pivots]
    y = _back_substitute(rows, pivots, d, free)
    basis = []
    for j, f in enumerate(free):
        v = [0] * nc
        v[f] = d
        for r, pc in enumerate(pivots):
            v[pc] = -y[r][j]
        basis.append(tuple(v))
    return basis


def invert_rational(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aug = from_rational_rows([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(rows)]).to_rows()
    pivots, d = _forward(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    y = _back_substitute(aug, pivots, d, list(range(n, 2 * n)))
    return [[Fraction(x, d) for x in row] for row in y]
