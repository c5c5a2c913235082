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
first, so pivots, last pivot and echelon rows are the dense pass's.  When
the next pivot sits in column c + 1, one sweep may eliminate both columns
(Bareiss's two-step method): the second pivot row, the first whose entry
at c + 1 is nonzero after the step by p, takes that step and gives w with
pivot p1; a row below it with f != 0 becomes ``(p * p1 * row - f * p1 * v
- g * w) // (last * p)`` right of c + 1, v the first pivot row and g =
p * row[c + 1] - f * v[c + 1], and a row with f = 0 takes the step by p1
alone.  The pass stops at full row rank: it eliminates a window of columns
that starts at the row count, carries the next column in while pivots are
missing at its end, and logs each sweep, linear in a column: ``_carry``,
the log replayed on a column the pass left, gives the dense pass's.
``rank`` runs the pass alone.  ``_back_substitute`` solves the echelon rows
u bottom up, ``y_r = (D * b_r - sum_{s>r} u[r][p_s] * y_s) // u[r][p_r]`` for
p_s the pivot columns, D the last pivot and b a carried column; for b_r =
u[r][f], f a free column, y_r is an integer minor (Cramer's rule) and y_r / D
entry (r, f) of the reduced row echelon form.  ``rational_nullspace`` returns
a ``Kernel``, whose basis (D at the free column, its last nonzero entry, and
-y_r at pivot column p_r) is solved on first read; ``mix`` carries one
combination of the free columns, ``invert_rational`` [A | I]'s identity block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import mul

# measured: a two-step sweep pays with many rows left and small entries
_PAIR_ROWS, _PAIR_BITS = 16, 512


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
        return cls(nr, nc, tuple(chain.from_iterable(rows)))

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


def _forward(a: list[list[int]]) -> tuple[list[list[int]], list[int], int, list]:
    """Forward pass up to full row rank, a left as it is: (u, pivot columns,
    last pivot or 1, step log).  Row r < rank of u holds the r-th echelon row
    from its pivot on, over the window of columns eliminated: the first nr,
    and one more carried in per column reached.  Pivot columns c and c + 1
    pair unless c + 1 is past the window or a pair costs more than two
    sweeps: at most _PAIR_ROWS rows left, or p of more than _PAIR_BITS bits.
    A sweep logs (r, t, d, last, p, steps, second): rows r and t swapped,
    row r scaled by d / last, rows rewritten by p alone as (row, f, last),
    and second, () or for a pair ((t1, pair),): the second pivot row t1,
    swapped into r + 1 after steps, and the rows rewritten to
    (a * row - f * v - g * w) // s as (row, a, f, g, s)."""
    nr, nc = len(a), len(a[0]) if a else 0
    u, log, d = [row[:nr] for row in a], [], 1
    pivots: list[int] = []
    last = [1] * nr     # pivot under which row i was last rewritten
    for c in (columns := iter(range(nc))):
        r = len(pivots)
        if r == nr:
            break
        if c == len(u[r]):      # pivots are still missing: carry column c in
            for x, y in zip(u, _carry(log, [row[c] for row in a])):
                x.append(y)
        t = next((i for i in range(r, nr) if u[i][c]), None)
        if t is None:
            continue
        u[r], u[t], last[r], last[t] = u[t], u[r], last[t], last[r]
        s = last[r]
        if s != d:
            u[r][c:] = [x * d // s for x in u[r][c:]]
        p, tail, steps, t1 = u[r][c], u[r][c + 1:], [], None
        pairing = tail and nr - r > _PAIR_ROWS and p.bit_length() <= _PAIR_BITS
        for i in range(r + 1, nr):
            x = u[i]
            if (f := x[c]) or pairing and x[c + 1] and last[i] != p:
                s, last[i] = last[i], p
                steps.append((i, f, s))
                x[c + 1:] = [(p * y - f * v) // s for y, v in zip(x[c + 1:], tail)]
            if pairing and x[c + 1]:    # the second pivot row
                t1, pair = i, []
                break
        log.append((r, t, d, last[r], p, steps, () if t1 is None else ((t1, pair),)))
        d = p
        pivots.append(c)
        if t1 is not None:
            u[r + 1], u[t1], last[r + 1], last[t1] = u[t1], u[r + 1], last[t1], last[r + 1]
            d, q, tail, w = u[r + 1][c + 1], tail[0], tail[1:], u[r + 1][c + 2:]
            pd = p * d
            for i in range(t1 + 1, nr):
                x = u[i]
                if f := x[c]:   # both steps in one sweep
                    g, s, last[i], h = p * x[c + 1] - f * q, last[i] * p, d, f * d
                    pair.append((i, pd, h, g, s))
                    x[c + 2:] = [(pd * y - h * v - g * z) // s
                                 for y, v, z in zip(x[c + 2:], tail, w)]
                elif e := x[c + 1]:     # the second step alone
                    s, last[i] = last[i], d
                    pair.append((i, d, 0, e, s))
                    x[c + 2:] = [(d * y - e * z) // s for y, z in zip(x[c + 2:], w)]
            pivots.append(next(columns))    # c + 1, skipped by the loop
    return u, pivots, d, log


def _carry(log, y: list[int]) -> list[int]:
    """The log replayed on y, a column of the pass's input, as u would hold it."""
    for r, t, d, s, p, steps, second in log:
        y[t], y[r] = y[r], y[t] if s == d else y[t] * d // s
        v = y[r]
        for i, f, s in steps:
            y[i] = (p * y[i] - f * v) // s
        for t1, pair in second:
            y[t1], y[r + 1] = y[r + 1], y[t1]
            for i, a, f, g, s in pair:
                y[i] = (a * y[i] - f * v - g * y[r + 1]) // s
    return y


def _back_substitute(a: list[list[int]], pivots: list[int], d: int,
                     columns: list[list[int]]) -> list[list[int]]:
    """y[r] = d * entry (r, b) of the reduced form of [echelon rows | b], per b."""
    rows = [([row[c] for c in pivots[r + 1:]], row[p])
            for r, (row, p) in enumerate(zip(a, pivots))][::-1]
    out = []
    for b in columns:
        y: list[int] = []   # y[s - r - 1] is row s while row r is solved
        for (upper, p), t in zip(rows, reversed(b[:len(rows)])):
            y.insert(0, (d * t - sum(map(mul, upper, y))) // p)
        out.append(y)
    return out


def rank(m: IntMatrix) -> int:
    """The number of pivots of the forward pass."""
    return len(_forward(m.to_rows())[1])


class Kernel:
    """cols - rank(m) tuples of plain ints spanning m's kernel; D is ``d``."""

    def __init__(self, m: IntMatrix):
        self._rows, self._basis = m.to_rows(), None
        self._u, self._pivots, d, self._log = _forward(self._rows)
        self.d = int(d)   # a pivot never rewritten may be a bool
        self._free = sorted(set(range(m.cols)).difference(self._pivots))
        self._place = sorted(range(m.cols), key=(self._pivots + self._free).__getitem__)

    def __len__(self) -> int:
        return len(self._free)

    def __getitem__(self, i):   # iteration falls back to indexing
        if self._basis is None:   # one batched back substitution
            n = len(self)
            self._basis = list(map(tuple, self._solve(
                [_carry(self._log, [row[f] for row in self._rows]) for f in self._free],
                [[int(t == j) for t in range(n)] for j in range(n)])))
        return self._basis[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (type(self), Sequence)):   # 5, None: not equal
            return NotImplemented
        return list(self) == list(other)

    def _solve(self, columns, at_free) -> list[list[int]]:
        """d * at_free[j] at the free columns, pivot entries solving columns[j]."""
        y = _back_substitute(self._u, self._pivots, self.d, columns)
        return [[w[i] for i in self._place] for values, solved in zip(at_free, y)
                for w in [[-t for t in solved] + [self.d * c for c in values]]]

    def mix(self, coeffs: Sequence[int]) -> list[int]:
        """sum_j coeffs[j] * self[j], from one carried column and one solve."""
        if len(coeffs) != len(self):
            raise ValueError(f"mix takes one coefficient per kernel vector: "
                             f"expected {len(self)}, got {len(coeffs)}")
        b = [sum(map(mul, coeffs, map(row.__getitem__, self._free))) for row in self._rows]
        return self._solve([_carry(self._log, b)], [coeffs])[0]


rational_nullspace = Kernel


def invert_rational(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Inverse of a square rational matrix; raises ValueError if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    aug = from_rational_rows([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(rows)]).to_rows()
    u, pivots, d, log = _forward(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    y = _back_substitute(u, pivots, d, [_carry(log, [row[j] for row in aug])
                                        for j in range(n, 2 * n)])
    return [[Fraction(x, d) for x in row] for row in zip(*y)]
