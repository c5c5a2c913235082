"""K-profile bookkeeping and the existence gate for Kawamata-type
decompositions of nodal del Pezzo threefolds.

The negative K-group of a reduced nodal curve contributes one rank per
node; that rank survives in any indecomposable component containing the
curve's derived category and obstructs decompositions into derived
categories of finite-dimensional algebras.  This module assigns profiles
to the opaque components appearing in the replayed decompositions (the
degree-5 pieces from the catalog's tables), sums them, and reproduces the
existence verdict: among nodal degrees 1..6, decompositions of the Kawamata
kind exist exactly for degrees 5 and 6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .catalog import CENTER_PIECES, QUADRIC_PIECES, lookup
from .errors import InvalidDegree, SmoothInput, UnmodeledComponent, UnsupportedDegree
from .quivers import Quiver, k0_rank
from .sod import Decomposition, Opaque


@dataclass(frozen=True)
class KProfile:
    """Ranks of K_0 (or None when unknown) and K_{-1} of a component."""

    k0_rank: int | None
    k_minus1_rank: int


LINE_BUNDLE_PROFILE = KProfile(1, 0)


@dataclass(frozen=True)
class ComponentModel:
    """Named model of an opaque component: its K-profile and, when the
    component is the derived category of a path algebra, that quiver."""

    name: str
    k_profile: KProfile
    algebra: Quiver | None = None

    def __post_init__(self):
        if self.algebra is not None and self.k_profile.k0_rank is not None:
            if self.k_profile.k0_rank != k0_rank(self.algebra):
                raise ValueError(
                    f"model {self.name}: K_0 rank {self.k_profile.k0_rank} "
                    f"disagrees with the quiver vertex count")


def _piece_model(name: str, pieces, nodes: int) -> ComponentModel:
    """A degree-5 piece with k nodes: profile (k+1, k) and the catalog's
    quiver for it."""
    _, algebra = pieces[nodes]
    return ComponentModel(name, KProfile(nodes + 1, nodes),
                          algebra() if algebra else None)


def standard_models(d: int, nodes_c: int, nodes_q: int = 0) -> dict[str, ComponentModel]:
    """Profiles of the opaque components of the replayed decompositions.

    For degree 5 the blow-down center is a chain with nodes_c nodes on a
    quadric with nodes_q nodes.  For degree 4 the center is a genus-2
    curve with nodes_c nodes (its K_0 rank is not modeled), at most the
    catalog's node budget, and the image space is smooth, so nodes_q must
    be 0.
    """
    total = nodes_c + nodes_q
    if d == 5:
        limits = (len(CENTER_PIECES) - 1, len(QUADRIC_PIECES) - 1)
        if not (0 <= nodes_c <= limits[0] and 0 <= nodes_q <= limits[1]):
            raise ValueError(f"degree 5 allows at most {limits} nodes")
        return {
            "A_C": _piece_model("A_C", CENTER_PIECES, nodes_c),
            "A_Q": _piece_model("A_Q", QUADRIC_PIECES, nodes_q),
            "A_V5": ComponentModel("A_V5", KProfile(nodes_c + nodes_q + 2, total)),
            "DbY": ComponentModel("DbY", KProfile(None, total)),
        }
    if d == 4:
        if nodes_q != 0:
            raise ValueError("degree 4 projects to a smooth space")
        limit = lookup(4).max_nodes
        if not 0 <= nodes_c <= limit:
            raise ValueError(f"degree 4 allows at most {limit} nodes")
        return {
            "DbC": ComponentModel("DbC", KProfile(None, nodes_c)),
            "A_V4": ComponentModel("A_V4", KProfile(None, nodes_c)),
            "DbY": ComponentModel("DbY", KProfile(None, nodes_c)),
        }
    raise UnsupportedDegree(f"no component models for degree {d}")


def _profile(node, models: Mapping[str, ComponentModel]) -> KProfile:
    if not isinstance(node, Opaque):
        return LINE_BUNDLE_PROFILE
    model = models.get(node.name)
    if model is None:
        raise UnmodeledComponent(f"no K-profile for component {node.name!r}")
    return model.k_profile


def k_minus1_total(dec: Decomposition,
                   models: Mapping[str, ComponentModel]) -> int:
    """Sum of K_{-1} ranks over the nodes; bundle-like nodes contribute 0."""
    return sum(_profile(n, models).k_minus1_rank for n in dec.nodes)


def k0_total(dec: Decomposition,
             models: Mapping[str, ComponentModel]) -> int | None:
    """Sum of K_0 ranks, or None when any component's rank is unknown."""
    total = 0
    for n in dec.nodes:
        p = _profile(n, models)
        if p.k0_rank is None:
            return None
        total += p.k0_rank
    return total


def consistency_check(replayed: Decomposition, nodes_c: int,
                      nodes_q: int = 0) -> bool:
    """The summed K_{-1} rank of a replayed decomposition must equal the
    total node count of the threefold (center nodes plus image nodes).  The
    degree is read off the ambient name, Y<d>, V<d> or W<d>."""
    match = re.fullmatch(r"[YVW](\d+)", replayed.ambient)
    if match is None:
        raise InvalidDegree(f"ambient {replayed.ambient!r} is not Y<d>, V<d> or W<d>")
    models = standard_models(int(match.group(1)), nodes_c, nodes_q)
    return k_minus1_total(replayed, models) == nodes_c + nodes_q


@dataclass(frozen=True)
class GateReason:
    code: str
    detail: str


@dataclass(frozen=True)
class GateVerdict:
    d: int
    node_count: int
    exists: bool
    reasons: tuple[GateReason, ...]

    @property
    def verdict(self) -> str:
        return ("Kawamata decomposition exists" if self.exists
                else "no Kawamata decomposition")


def kawamata_gate(d: int, node_count: int) -> GateVerdict:
    """Existence verdict for a nodal degree-d del Pezzo threefold.

    Exists iff d is 5 or 6.  The reason chain follows the proof route:
    small degrees fail the defect bound, degree 4 fails through the
    negative K-theory of its associated genus-2 curve, and degrees whose
    catalog entry allows no node (7 and 8) have no nodal members at all.
    """
    if d < 1 or d > 8:
        raise InvalidDegree(f"degree must lie in 1..8, got {d}")
    if lookup(d).max_nodes == 0:
        raise InvalidDegree(
            f"degree-{d} del Pezzo threefolds are smooth and rigid; no nodal "
            "member exists")
    if node_count < 1:
        raise SmoothInput("gate applies to non-smooth inputs only")
    if d <= 3:
        return GateVerdict(d, node_count, False, (
            GateReason("hypersurface-defect",
                       "the hypersurface defect satisfies delta < mu, so the "
                       "threefold is not maximally nonfactorial"),
            GateReason("necessary-condition",
                       "maximal nonfactoriality is necessary for a Kawamata "
                       "decomposition"),
        ))
    if d == 4:
        return GateVerdict(d, node_count, False, (
            GateReason("curve-k-minus-one",
                       "the residual component is the derived category of a "
                       "nodal genus-2 curve with nonzero K_{-1}"),
            GateReason("defect-obstruction",
                       "nonzero K_{-1} rules out maximal defect, hence any "
                       "Kawamata decomposition"),
        ))
    if d == 5:
        return GateVerdict(d, node_count, True, (
            GateReason("line-projection-construction",
                       "projection from a standard line decomposes the "
                       "residual component into chain and quadric pieces, "
                       "each the derived category of a finite-dimensional "
                       "algebra"),
        ))
    return GateVerdict(d, node_count, True, (
        GateReason("sextic-construction",
                   "the unique nodal sextic del Pezzo threefold carries a "
                   "known decomposition with three exceptional objects and "
                   "a chain component"),
    ))
