"""Semiorthogonal decompositions, their nodes, and a store of Hom-vanishing
facts with provenance.

A decomposition is an ordered list of nodes; validity relative to a fact
store means Vanish(node_j -> node_i) for every pair with j > i, where
Vanish(x, y) asserts that all graded Horns from x to y vanish.  Facts only
ever enter through four channels: axioms, recording a decomposition that is
already known to be valid, the pushforward vanishing oracle of the mutation
engine, and twist closure (Vanish(x, y) implies Vanish(x(t), y(t)) for a
common line-bundle twist t).  No Ext group is ever computed from sheaf data.

A node's value is its identity.  Every twistable node is O_S(A), S the
whole space ("": a line bundle O(A)) or an exceptional divisor, E or D,
and A an {H, E} class; an opaque node is its name, kept by mutations.
``node_text`` and ``decomposition_text`` write classes in {H, E}, or in
{h, D} when they are given a degree.  Twist closure is built into the
fact keys: a twistable pair is stored by its supports and the difference
of its classes, the invariant of a common twist.  Facts with an opaque
member only match on the nose.  The store keeps each fact's nodes and
renders text only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intersection import DivisorClass, class_text

# provenance tags for fact-store entries
AXIOM = "axiom"
RECORDED = "recorded-from-decomposition"
PUSHFORWARD = "pushforward-oracle"
TWIST_CLOSURE = "twist-closure"


@dataclass(frozen=True)
class TwistedStructureSheaf:
    """O_S(A): the structure sheaf of S twisted by the ambient class A.  S is
    "" for the whole space, which makes the node the line bundle O(A), or an
    exceptional divisor, E or D."""

    support: str
    twist: DivisorClass

    def __post_init__(self):
        if self.support not in ("", "E", "D"):
            raise ValueError(f"support must be '', 'E' or 'D', got {self.support!r}")


def LineBundle(divisor: DivisorClass) -> TwistedStructureSheaf:
    """O(divisor), the twisted structure sheaf of the whole space."""
    return TwistedStructureSheaf("", divisor)


@dataclass(frozen=True)
class Opaque:
    """An admissible subcategory up to abstract equivalence, known by its name:
    a mutation moves the node but keeps its identity; no embedding is tracked."""

    name: str


standard_opaque = Opaque

SodNode = TwistedStructureSheaf | Opaque

# The opaque categories declared perfect: the quadric and rational-curve
# residual components are generated by perfect objects.  No flag is claimed
# for the del Pezzo residual components or the singular spaces' Db.
_PERFECT = frozenset({"A_C", "A_Q"})

DISPLAY_NAMES = {"DbC": "Db(C)", "DbY": "Db(Y)"}


def is_perfect(node: SodNode) -> bool | None:
    """Perfectness flag: twisted structure sheaves are always perfect, an
    opaque node is perfect when its name is declared so (None = unknown)."""
    return True if not isinstance(node, Opaque) or node.name in _PERFECT else None


def tensor(node: SodNode, cls: DivisorClass) -> SodNode:
    """Tensor a node by a line bundle class; opaque nodes are unchanged."""
    if isinstance(node, Opaque):
        return node
    return TwistedStructureSheaf(node.support, node.twist + cls)


@dataclass(frozen=True)
class Decomposition:
    """Ordered semiorthogonal decomposition of the derived category of an
    ambient space; node order is semantically significant."""

    ambient: str
    nodes: tuple[SodNode, ...]


def node_text(node: SodNode, hd_degree: int | None = None) -> str:
    """Parseable literal for a node, its class written in {h, D} at degree
    hd_degree when one is given and in {H, E} otherwise."""
    if isinstance(node, Opaque):
        return f"CAT({node.name})"
    head = "O_" + node.support if node.support else "O"
    return f"{head}({class_text(node.twist, hd_degree)})"


def decomposition_text(dec: Decomposition, hd_degree: int | None = None) -> str:
    return "<" + ", ".join(node_text(n, hd_degree) for n in dec.nodes) + ">"


def vanish_key(x: SodNode, y: SodNode):
    """Canonical key of the fact Vanish(x, y).

    For a pair of twistable nodes the key depends only on the supports and
    the class difference, taken on the {H, E} coordinates, which makes
    twist closure automatic, involutive and additive under composed twists.
    Pairs involving an opaque node match exactly, by value.
    """
    if isinstance(x, Opaque) or isinstance(y, Opaque):
        return ("exact", x, y)
    (a, b), (c, e) = x.twist.coords, y.twist.coords
    return ("tw", x.support, y.support, c - a, e - b)


def vanish_text(x: SodNode, y: SodNode, provenance: str) -> str:
    return f"Vanish({node_text(x)} -> {node_text(y)}) [{provenance}]"


class FactStore:
    """Append-only database of Vanish facts, each its (x, y, provenance)."""

    def __init__(self):
        self._by_key: dict[object, tuple[SodNode, SodNode, str]] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def add(self, x: SodNode, y: SodNode, provenance: str) -> bool:
        """Record Vanish(x, y); returns False if already derivable."""
        key = vanish_key(x, y)
        if key in self._by_key:
            return False
        self._by_key[key] = (x, y, provenance)
        return True

    def has(self, x: SodNode, y: SodNode) -> bool:
        return vanish_key(x, y) in self._by_key

    def describe(self, x: SodNode, y: SodNode) -> str | None:
        """Evidence string for Vanish(x, y), noting twist closure when the
        match is through a common twist of a stored fact."""
        fact = self._by_key.get(vanish_key(x, y))
        if fact is None:
            return None
        text = vanish_text(*fact)
        if fact[0] != x:
            return text + f" ({TWIST_CLOSURE} at {node_text(x)} -> {node_text(y)})"
        return text

    def dump(self) -> list[str]:
        lines = [f"vanish {node_text(x)} -> {node_text(y)}  [{provenance}]"
                 for x, y, provenance in self._by_key.values()]
        return sorted(lines)


def record_decomposition(dec: Decomposition, store: FactStore,
                         provenance: str) -> list[str]:
    """Add all pairwise Vanish(node_j, node_i) facts, j > i.

    Recording the same decomposition twice leaves the store unchanged.
    Returns descriptions of the newly added facts.
    """
    added = []
    nodes = dec.nodes
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if store.add(nodes[j], nodes[i], provenance):
                added.append(vanish_text(nodes[j], nodes[i], provenance))
    return added


def query_complete_orthogonality(store: FactStore, a: SodNode, b: SodNode) -> bool:
    """True iff both Vanish(a, b) and Vanish(b, a) are derivable, twist
    closure included."""
    return store.has(a, b) and store.has(b, a)


def missing_pairs(dec: Decomposition, store: FactStore) -> list[tuple[int, int]]:
    """Ordered pairs (i, j), j > i, whose Vanish fact is not derivable."""
    out = []
    for i in range(len(dec.nodes)):
        for j in range(i + 1, len(dec.nodes)):
            if not store.has(dec.nodes[j], dec.nodes[i]):
                out.append((i + 1, j + 1))
    return out


def validate(dec: Decomposition, store: FactStore) -> bool:
    """A decomposition is valid for a store when every backwards Hom space
    is known to vanish."""
    return not missing_pairs(dec, store)
