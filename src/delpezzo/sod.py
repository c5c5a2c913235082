"""Semiorthogonal decompositions, their nodes, and a store of Hom-vanishing
facts with provenance.

A decomposition is an ordered list of nodes; validity relative to a fact
store means Vanish(node_j -> node_i) for every pair with j > i, where
Vanish(x, y) asserts that all graded Horns from x to y vanish.  Facts only
ever enter through four channels: axioms, recording a decomposition that is
already known to be valid, the pushforward vanishing oracle of the mutation
engine, and twist closure (Vanish(x, y) implies Vanish(x(t), y(t)) for a
common line-bundle twist t).  No Ext group is ever computed from sheaf data.

A node's value is its identity.  Line bundles and twisted structure
sheaves carry {H, E} classes (``node_text`` can write them in {h, D}), and
an opaque node is known by its name alone (mutating it keeps the name).
Twist closure is built into the fact keys: a pair of twistable nodes is
stored by the difference of their classes, which is exactly the invariant
of a common twist.  Facts with an opaque member only match on the nose.
The store keeps each fact's nodes and renders text only when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .intersection import BASIS_HE, DivisorClass, class_text

# provenance tags for fact-store entries
AXIOM = "axiom"
RECORDED = "recorded-from-decomposition"
PUSHFORWARD = "pushforward-oracle"
TWIST_CLOSURE = "twist-closure"


@dataclass(frozen=True)
class LineBundle:
    divisor: DivisorClass


@dataclass(frozen=True)
class TwistedStructureSheaf:
    """Structure sheaf of an exceptional divisor (E or D), twisted by an
    ambient divisor class."""

    support: str
    twist: DivisorClass

    def __post_init__(self):
        if self.support not in ("E", "D"):
            raise ValueError(f"support must be 'E' or 'D', got {self.support!r}")


@dataclass(frozen=True)
class Opaque:
    """An admissible subcategory tracked up to abstract equivalence.

    Equality and hashing are by name only; a mutation moves the node but
    keeps its identity, and no embedding is tracked.
    """

    name: str
    perfect: bool | None = field(default=None, compare=False)


SodNode = LineBundle | TwistedStructureSheaf | Opaque

# Declared perfectness of the opaque categories the shipped replays use.
# The quadric and rational-curve residual components are generated by
# perfect objects; for the del Pezzo residual component and the full
# derived categories of the singular spaces no flag is claimed.
_STANDARD_OPAQUE: dict[str, bool | None] = {
    "A_C": True,
    "A_Q": True,
    "A_V4": None,
    "A_V5": None,
    "A_V6": None,
    "DbC": None,
    "DbY": None,
}

DISPLAY_NAMES = {"DbC": "Db(C)", "DbY": "Db(Y)"}


def standard_opaque(name: str) -> Opaque:
    return Opaque(name, perfect=_STANDARD_OPAQUE.get(name))


def is_perfect(node: SodNode) -> bool | None:
    """Perfectness flag; line bundles and twisted structure sheaves are
    always perfect, opaque nodes carry a declared flag (None = unknown)."""
    if isinstance(node, Opaque):
        return node.perfect
    return True


def tensor(node: SodNode, cls: DivisorClass) -> SodNode:
    """Tensor a node by a line bundle class; opaque nodes are unchanged."""
    if isinstance(node, LineBundle):
        return LineBundle(node.divisor + cls)
    if isinstance(node, TwistedStructureSheaf):
        return TwistedStructureSheaf(node.support, node.twist + cls)
    return node


@dataclass(frozen=True)
class Decomposition:
    """Ordered semiorthogonal decomposition of the derived category of an
    ambient space; node order is semantically significant."""

    ambient: str
    nodes: tuple[SodNode, ...]


def node_text(node: SodNode, basis: str = BASIS_HE, d: int | None = None) -> str:
    """Parseable literal for a node, optionally written in {h, D} at degree d."""
    if isinstance(node, LineBundle):
        return f"O({class_text(node.divisor, basis, d)})"
    if isinstance(node, TwistedStructureSheaf):
        return f"O_{node.support}({class_text(node.twist, basis, d)})"
    return f"CAT({node.name})"


def decomposition_text(dec: Decomposition, basis: str = BASIS_HE,
                       d: int | None = None) -> str:
    return "<" + ", ".join(node_text(n, basis, d) for n in dec.nodes) + ">"


def _twist(node: SodNode) -> tuple[str, DivisorClass] | None:
    """(kind, class) of a twistable node; None for an opaque one."""
    if isinstance(node, LineBundle):
        return "O", node.divisor
    if isinstance(node, TwistedStructureSheaf):
        return "O_" + node.support, node.twist
    return None


def vanish_key(x: SodNode, y: SodNode):
    """Canonical key of the fact Vanish(x, y).

    For a pair of twistable nodes the key depends only on the class
    difference, which makes twist closure automatic, involutive and
    additive under composed twists.  Pairs involving an opaque node match
    exactly, by value.  The difference is taken on the {H, E} coordinates.
    """
    tx, ty = _twist(x), _twist(y)
    if tx is None or ty is None:
        return ("exact", x, y)
    (a, b), (c, e) = tx[1].coords, ty[1].coords
    return ("tw", tx[0], ty[0], c - a, e - b)


def vanish_text(x: SodNode, y: SodNode, provenance: str) -> str:
    return f"Vanish({node_text(x)} -> {node_text(y)}) [{provenance}]"


@dataclass
class _Fact:
    x: SodNode
    y: SodNode
    provenance: str


class FactStore:
    """Append-only database of Vanish facts with provenance."""

    def __init__(self):
        self._by_key: dict[object, _Fact] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def add(self, x: SodNode, y: SodNode, provenance: str) -> bool:
        """Record Vanish(x, y); returns False if already derivable."""
        key = vanish_key(x, y)
        if key in self._by_key:
            return False
        self._by_key[key] = _Fact(x, y, provenance)
        return True

    def has(self, x: SodNode, y: SodNode) -> bool:
        return vanish_key(x, y) in self._by_key

    def describe(self, x: SodNode, y: SodNode) -> str | None:
        """Evidence string for Vanish(x, y), noting twist closure when the
        match is through a common twist of a stored fact."""
        fact = self._by_key.get(vanish_key(x, y))
        if fact is None:
            return None
        text = vanish_text(fact.x, fact.y, fact.provenance)
        if fact.x != x:
            return text + f" ({TWIST_CLOSURE} at {node_text(x)} -> {node_text(y)})"
        return text

    def dump(self) -> list[str]:
        lines = [f"vanish {node_text(f.x)} -> {node_text(f.y)}  [{f.provenance}]"
                 for f in self._by_key.values()]
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
