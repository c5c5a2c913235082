"""Divisor class arithmetic on the blow-up of a del Pezzo threefold along a
standard line.

Every divisor class is an integer vector over one basis of the rank-2
lattice: {H, E}, the pullback of the polarization and the exceptional
divisor of the line blow-up.  For degrees 4 and 5 the projection from the
line gives a second coordinate system, {h, D} (pullback of the hyperplane
from the projection image and the exceptional divisor of the blow-down to
it); ``from_hd`` reads a class from those coordinates and ``rewrite``
writes one into them.  ``class_text`` writes a class in {h, D} when it is
given a degree, in {H, E} otherwise.  The trilinear form on {H, E} is

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

# Images of H and E in (h, D) coordinates, per degree.  Degree 6 has no
# registered relations: the projection image there is a product surface
# fibration whose divisor lattice is not rank 2, so no rewrite is offered.
_H_E_IN_hD: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    4: ((3, -1), (2, -1)),   # H = 3h - D,  E = 2h - D
    5: ((2, -1), (1, -1)),   # H = 2h - D,  E = h - D
}


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

    def __neg__(self) -> "DivisorClass":
        return DivisorClass((-self.coords[0], -self.coords[1]))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass((self.coords[0] * n, self.coords[1] * n))

    __rmul__ = __mul__


def he(a: int, b: int) -> DivisorClass:
    """Class a*H + b*E."""
    return DivisorClass((a, b))


H = he(1, 0)
E = he(0, 1)


def _relations(d: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if d not in _H_E_IN_hD:
        raise NoRelationsForDegree(
            f"no hD relations registered for degree {d}")
    return _H_E_IN_hD[d]


def rewrite(cls: DivisorClass, d: int) -> tuple[int, int]:
    """{h, D} coordinates (u, v) of a class: cls = u*h + v*D."""
    (h0, h1), (e0, e1) = _relations(d)
    a, b = cls.coords
    return a * h0 + b * e0, a * h1 + b * e1


def from_hd(u: int, v: int, d: int) -> DivisorClass:
    """The class u*h + v*D.  The registered relations are unimodular, so
    this inverts ``rewrite`` on integer vectors."""
    (h0, h1), (e0, e1) = _relations(d)
    det = h0 * e1 - h1 * e0   # +-1, its own inverse
    return he((u * e1 - v * e0) * det, (v * h0 - u * h1) * det)


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


@dataclass(frozen=True)
class BlowupGeometry:
    """Intersection data of the line blow-up of a degree-d del Pezzo threefold."""

    d: int

    def __post_init__(self):
        if self.d not in (4, 5, 6):
            raise OutOfRangeDegree(f"degree must be 4, 5 or 6, got {self.d}")


def triple(geom: BlowupGeometry, a: DivisorClass, b: DivisorClass,
           c: DivisorClass) -> int:
    """Trilinear intersection number, symmetric and Z-linear in each slot:
    H^3 = d, H.E^2 = -1 and H^2.E = E^3 = 0 written out on {H, E}."""
    (a0, a1), (b0, b1), (c0, c1) = (x.coords for x in (a, b, c))
    return geom.d * a0 * b0 * c0 - (a0 * b1 * c1 + a1 * b0 * c1 + a1 * b1 * c0)


def iskovskikh_degree(d: int) -> int:
    """Degree of the image of projection from a standard line.

    Evaluates H^3 - (3H + K_V).L + 2g - 2 with H.L = 1, K_V.L = -2 and
    g = 0, and asserts agreement with (H-E)^3 from the intersection form.
    """
    geom = BlowupGeometry(d)
    value = d - (3 * 1 + (-2)) + 2 * 0 - 2
    hme = H - E
    assert value == triple(geom, hme, hme, hme)
    return value


def canonical_class(d: int) -> DivisorClass:
    """Canonical class of the line blow-up: -2H + E."""
    BlowupGeometry(d)   # raises OutOfRangeDegree outside 4..6
    return he(-2, 1)
