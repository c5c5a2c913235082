"""Divisor class arithmetic on the blow-up of a del Pezzo threefold along a
standard line.

Two integer bases are registered for the rank-2 lattice spanned by divisor
classes that matter here: {H, E} (pullback of the polarization and the
exceptional divisor of the line blow-up) and, for degrees 4 and 5, {h, D}
(pullback of the hyperplane from the projection image and the exceptional
divisor of the blow-down to it).  The trilinear intersection form is given
on {H, E}:

    H^3 = d,  H^2.E = 0,  H.E^2 = -1,  E^3 = 0.

The last two values are forced by the standard-line geometry: the
exceptional divisor is a ruled surface over the line with trivial normal
bundle degree, so the relative hyperplane class xi on it satisfies
xi^2 = 0, giving E^3 = -(xi^2) = 0, while a ruling fiber meets E in degree
-1 and the polarization meets the line once, giving H.E^2 = -1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoRelationsForDegree, OutOfRangeDegree, UnknownBasis

BASIS_HE = "HE"
BASIS_hD = "hD"

_BASIS_SYMBOLS = {BASIS_HE: ("H", "E"), BASIS_hD: ("h", "D")}

# Images of H and E in (h, D) coordinates, per degree.  Degree 6 has no
# registered relations: the projection image there is a product surface
# fibration whose divisor lattice is not rank 2, so no rewrite is offered.
_H_E_IN_hD: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {
    4: ((3, -1), (2, -1)),   # H = 3h - D,  E = 2h - D
    5: ((2, -1), (1, -1)),   # H = 2h - D,  E = h - D
}


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector over a named basis of the divisor lattice."""

    basis_id: str
    coords: tuple[int, int]

    def __post_init__(self):
        if self.basis_id not in _BASIS_SYMBOLS:
            raise UnknownBasis(f"unknown basis {self.basis_id!r}")
        if len(self.coords) != 2:
            raise ValueError("coords must have length 2")

    def _check_same_basis(self, other: "DivisorClass") -> None:
        if self.basis_id != other.basis_id:
            raise UnknownBasis(
                f"mixed bases {self.basis_id!r} and {other.basis_id!r}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_basis(other)
        return DivisorClass(self.basis_id,
                            (self.coords[0] + other.coords[0],
                             self.coords[1] + other.coords[1]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same_basis(other)
        return DivisorClass(self.basis_id,
                            (self.coords[0] - other.coords[0],
                             self.coords[1] - other.coords[1]))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.basis_id, (-self.coords[0], -self.coords[1]))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(self.basis_id, (self.coords[0] * n, self.coords[1] * n))

    __rmul__ = __mul__


def he(a: int, b: int) -> DivisorClass:
    """Class a*H + b*E."""
    return DivisorClass(BASIS_HE, (a, b))


def hd(a: int, b: int) -> DivisorClass:
    """Class a*h + b*D."""
    return DivisorClass(BASIS_hD, (a, b))


H = he(1, 0)
E = he(0, 1)


def rewrite(cls: DivisorClass, target_basis: str, d: int) -> DivisorClass:
    """Rewrite a class into the other registered basis.

    The maps are unimodular, so rewrite followed by the inverse rewrite is
    the identity on integer vectors.
    """
    if target_basis not in _BASIS_SYMBOLS:
        raise UnknownBasis(f"unknown basis {target_basis!r}")
    if cls.basis_id == target_basis:
        return cls
    if d not in _H_E_IN_hD:
        raise NoRelationsForDegree(
            f"no {BASIS_hD} relations registered for degree {d}")
    (h0, h1), (e0, e1) = _H_E_IN_hD[d]
    if target_basis == BASIS_hD:
        a, b = cls.coords
        return DivisorClass(BASIS_hD, (a * h0 + b * e0, a * h1 + b * e1))
    # invert the 2x2 integer matrix; the registered relations are unimodular
    det = h0 * e1 - h1 * e0
    if abs(det) != 1:
        raise AssertionError("registered relations must be unimodular")
    u, v = cls.coords
    a = (u * e1 - v * e0) * det
    b = (v * h0 - u * h1) * det
    return DivisorClass(BASIS_HE, (a, b))


def class_text(cls: DivisorClass) -> str:
    """Canonical text like '2H-E', 'D-2h', '-h' or '0' (positive terms first)."""
    sym = _BASIS_SYMBOLS[cls.basis_id]
    terms = []
    for s, c in sorted(zip(sym, cls.coords), key=lambda t: (t[1] < 0,)):
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

    def divisor_generator(self, name: str) -> DivisorClass:
        """Class of a named divisor (H, E, h or D) in {H, E} coordinates."""
        if name == "H":
            return H
        if name == "E":
            return E
        if name == "h":
            return rewrite(hd(1, 0), BASIS_HE, self.d)
        if name == "D":
            return rewrite(hd(0, 1), BASIS_HE, self.d)
        raise UnknownBasis(f"unknown divisor name {name!r}")

    def to_he(self, cls: DivisorClass) -> DivisorClass:
        return rewrite(cls, BASIS_HE, self.d)


def triple(geom: BlowupGeometry, a: DivisorClass, b: DivisorClass,
           c: DivisorClass) -> int:
    """Trilinear intersection number, symmetric and Z-linear in each slot:
    H^3 = d, H.E^2 = -1 and H^2.E = E^3 = 0 written out on {H, E}."""
    (a0, a1), (b0, b1), (c0, c1) = (geom.to_he(x).coords for x in (a, b, c))
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


def canonical_class(d: int, basis: str = BASIS_HE) -> DivisorClass:
    """Canonical class of the line blow-up: -2H + E, rewritten on request."""
    BlowupGeometry(d)   # raises OutOfRangeDegree outside 4..6
    k = he(-2, 1)
    return rewrite(k, basis, d) if basis != BASIS_HE else k
