"""Divisor class arithmetic on the blow-up of a del Pezzo threefold along a
standard line.

Every divisor class is an integer vector over one basis of the rank-2
lattice: {H, E}, the pullback of the polarization and the exceptional
divisor of the line blow-up.  For degrees 4 and 5 the projection from the
line gives a second coordinate system, {h, D}: the pullback of the
hyperplane from the projection image W and the exceptional divisor over the
curve that Y blows down to in W.  Both follow from the canonical class:

    h = H - E,  the projection from the line;
    D = K_Y + (8 - d)h,  since K_Y = pi^*K_W + D and K_W = -(8 - d)h.

W is P^3 (index 4) for d = 4 and a quadric in P^4 (index 3) for d = 5.
Degree 6 has no {h, D}: there W = P^1 x P^2 has Picard rank 2.
``from_hd`` reads a class from those coordinates and ``rewrite`` writes
one into them.  ``class_text`` writes a class in {h, D} when it is given
a degree, in {H, E} otherwise.  The trilinear form on {H, E} is

    H^3 = d,  H^2.E = 0,  H.E^2 = -1,  E^3 = 0.

The last two values are forced by the standard-line geometry: the
exceptional divisor is a ruled surface over the line with trivial normal
bundle degree, so the relative hyperplane class xi on it satisfies
xi^2 = 0, giving E^3 = -(xi^2) = 0, while a ruling fiber meets E in degree
-1 and the polarization meets the line once, giving H.E^2 = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoRelationsForDegree, OutOfRangeDegree


@dataclass(frozen=True)
class DivisorClass:
    """The class a*H + b*E, stored as coords = (a, b)."""

    coords: tuple[int, int]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass((self.coords[0] + other.coords[0],
                             self.coords[1] + other.coords[1]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass((self.coords[0] - other.coords[0],
                             self.coords[1] - other.coords[1]))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass((self.coords[0] * n, self.coords[1] * n))

    __rmul__ = __mul__


def he(a: int, b: int) -> DivisorClass:
    """Class a*H + b*E."""
    return DivisorClass((a, b))


H = he(1, 0)
E = he(0, 1)


@dataclass(frozen=True)
class BlowupGeometry:
    """Intersection data of the line blow-up of a degree-d del Pezzo threefold."""

    d: int

    def __post_init__(self):
        if self.d not in (4, 5, 6):
            raise OutOfRangeDegree(f"degree must be 4, 5 or 6, got {self.d}")


def canonical_class(d: int) -> DivisorClass:
    """Canonical class of the line blow-up: -2H + E."""
    BlowupGeometry(d)   # raises OutOfRangeDegree outside 4..6
    return he(-2, 1)


# h and D over {H, E}, per degree that has them
_hD = {d: ((H - E).coords, (canonical_class(d) + (8 - d) * (H - E)).coords)
       for d in (4, 5)}


def _relations(d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if d not in _hD:
        raise NoRelationsForDegree(
            f"no hD relations registered for degree {d}")
    return _hD[d]


def rewrite(cls: DivisorClass, d: int) -> tuple[int, int]:
    """{h, D} coordinates (u, v) of a class: cls = u*h + v*D.  The matrix
    of h and D has determinant -1, so its inverse is integral."""
    (h0, h1), (d0, d1) = _relations(d)
    a, b = cls.coords
    return d0 * b - d1 * a, h1 * a - h0 * b


def from_hd(u: int, v: int, d: int) -> DivisorClass:
    """The class u*h + v*D; on integer vectors it inverts ``rewrite``."""
    (h0, h1), (d0, d1) = _relations(d)
    return he(u * h0 + v * d0, u * h1 + v * d1)


def class_text(cls: DivisorClass, hd_degree: int | None = None) -> str:
    """Canonical text like '2H-E', 'D-2h', '-h' or '0' (positive terms
    first): in {H, E}, or in {h, D} at degree hd_degree when one is given."""
    symbols, coords = (("HE", cls.coords) if hd_degree is None
                       else ("hD", rewrite(cls, hd_degree)))
    terms = []
    for s, c in sorted(zip(symbols, coords), key=lambda t: (t[1] < 0,)):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        terms.append(("-" if c < 0 else "+") + mag + s)
    if not terms:
        return "0"
    out = "".join(terms)
    return out[1:] if out.startswith("+") else out


def triple(geom: BlowupGeometry, a: DivisorClass, b: DivisorClass,
           c: DivisorClass) -> int:
    """Trilinear intersection number, symmetric and Z-linear in each slot:
    H^3 = d, H.E^2 = -1 and H^2.E = E^3 = 0 written out on {H, E}."""
    (a0, a1), (b0, b1), (c0, c1) = (x.coords for x in (a, b, c))
    return geom.d * a0 * b0 * c0 - (a0 * b1 * c1 + a1 * b0 * c1 + a1 * b1 * c0)
