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
u bottom up, ``y_r = (D * b_r - sum_{s>r} u[r][p_s] * y_s) // u[r][p_r]`` for
p_s the pivot columns, D the last pivot and b_r a right-hand side; for b_r =
u[r][f], f a free column, y_r is an integer minor (Cramer's rule) and y_r / D
entry (r, f) of the reduced row echelon form.  ``rational_nullspace`` returns
a ``Kernel``, whose basis (D at the free column, its last nonzero entry, and
-y_r at pivot column p_r) is solved on first read; ``mix`` solves one integer
combination, b_r = sum_j c_j u[r][f_j].
``invert_rational`` solves [A | I] for the identity block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul


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
        cleared.append([x.numerator * (mult // x.denominator) for x in row] if mult > 1
                       else [x.numerator for x in row])
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
                     rhs: list[list[int]]) -> list[list[int]]:
    """y[r][j] = d * entry (r, j) of the reduced form of [echelon rows | rhs]."""
    y: list[list[int]] = []   # y[s - r - 1] is row s while row r is solved
    for r in reversed(range(len(pivots))):
        row = a[r]
        acc = [d * t for t in rhs[r]]
        for k, ys in zip([row[c] for c in pivots[r + 1:]], y):
            if k:
                acc = [t - k * v for t, v in zip(acc, ys)]
        y.insert(0, [t // row[pivots[r]] for t in acc])
    return y


def rank(m: IntMatrix) -> int:
    return len(_forward(m.to_rows())[0])


class Kernel:
    """cols - rank(m) tuples of plain ints spanning m's kernel; D is ``d``."""

    def __init__(self, m: IntMatrix):
        self._rows, self._cols, self._basis = m.to_rows(), m.cols, None
        self._pivots, d = _forward(self._rows)
        self.d = int(d)   # a pivot never rewritten may be a bool
        free = [c for c in range(m.cols) if c not in self._pivots]
        self._at_free = [[row[f] for f in free] for row in self._rows[:len(self._pivots)]]
        self._place = sorted(range(m.cols), key=(self._pivots + free).__getitem__)

    def __len__(self) -> int:
        return self._cols - len(self._pivots)

    def __getitem__(self, i):   # iteration falls back to indexing
        if self._basis is None:   # one batched back substitution
            n = len(self)
            self._basis = list(map(tuple, self._solve(
                self._at_free, [[int(t == j) for t in range(n)] for j in range(n)])))
        return self._basis[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Kernel, Sequence)):   # 5, None: not equal
            return NotImplemented
        return list(self) == list(other)

    def _solve(self, rhs, at_free) -> list[list[int]]:
        """d * at_free[j] at the free columns, pivot entries solving rhs[r][j]."""
        y = _back_substitute(self._rows, self._pivots, self.d, rhs)
        return [[w[i] for i in self._place] for values, *solved in zip(at_free, *y)
                for w in [[-t for t in solved] + [self.d * c for c in values]]]

    def mix(self, coeffs: Sequence[int]) -> list[int]:
        """sum_j coeffs[j] * self[j], from one back substitution."""
        if len(coeffs) != len(self):
            raise ValueError(f"mix takes one coefficient per kernel vector: "
                             f"expected {len(self)}, got {len(coeffs)}")
        return self._solve([[sum(map(mul, coeffs, r))] for r in self._at_free], [coeffs])[0]


rational_nullspace = Kernel


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
    y = _back_substitute(aug, pivots, d, [row[n:] for row in aug])
    return [[Fraction(x, d) for x in row] for row in y]
