"""Exact integer and rational linear algebra on small dense matrices.

No floating point appears anywhere in this module.  Ranks, rational
kernels and inverses come from one fraction-free Gauss-Jordan routine,
``_eliminate`` (Bareiss, Math. Comp. 22, 1968), on integer rows; rational
input is cleared of denominators row by row first.  Each pivot step sets
every other row to ``(p * row - row[c] * pivot_row) // d``, p the new pivot
and d the previous one.  Every such division is exact (Sylvester's
identity), so entries stay integer minors and no gcd is taken per cell.
The final rows divided by the last pivot are the reduced row echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, tuple(int(x) for r in rows for x in r))

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


def _eliminate(a: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan, in place; returns (rows, pivot columns, d)
    with rows / d the reduced row echelon form (d = 1 without pivots)."""
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots: list[int] = []
    d = 1
    for c in range(nc):
        r = len(pivots)
        row = next((i for i in range(r, nr) if a[i][c]), None)
        if row is None:
            continue
        a[r], a[row] = a[row], a[r]
        top, p = a[r], a[r][c]
        for i in range(nr):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // d for x, y in zip(a[i], top)]
        d = p
        pivots.append(c)
    return a, pivots, d


def rank(m: IntMatrix) -> int:
    return len(_eliminate(m.to_rows())[1])


def rational_nullspace(m: IntMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of m over the rationals.

    Returns cols - rank(m) linearly independent vectors, each annihilated
    by m.  An empty matrix (no rows) has the full standard basis as kernel.
    """
    nc = m.cols
    rows, pivots, d = _eliminate(m.to_rows())
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][f], d)
        basis.append(tuple(v))
    return basis


def invert_rational(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aug = from_rational_rows([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(rows)]).to_rows()
    reduced, pivots, d = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(x, d) for x in row[n:]] for row in reduced]
