"""Rewrite rules on semiorthogonal decompositions with machine-checked side
conditions, script replay with audit logs, and the tail comparison that
identifies the residual components.

Six rule families are implemented:

  expand_blowup      replace the undecomposed category node by the
                     registered blow-up expansion for a named center;
  serre_rotate       move a prefix block to the right end tensored by the
                     inverse canonical twist ("left", the list rotates
                     left), or a suffix block to the front tensored by the
                     canonical twist ("right"); one of the two blocks must
                     be perfect;
  triangle_exchange  cycle an adjacent pair through the three presentations
                     coming from the twisted restriction triangle
                     O(A-S) -> O(A) -> O_S(A) of a divisor S in {E, D};
  swap               exchange an adjacent pair certified completely
                     orthogonal by the fact store;
  fiber_rebase       shift an adjacent pair O_S(c), O_S(c+F) by the ruling
                     class F (F = H on the line-side divisor), both twists
                     moving together;
  opaque_transpose   move an opaque node past a neighbor, preserving its
                     abstract identity.

``RULES`` is the one registry of the families: each rule id maps to its
script grammar template, its applier and the number of nodes its position
addresses.  ``MutationRule.text`` renders the template, the script parser
walks its tokens, and replay checks the position and dispatches through
it, so rendering and parsing agree by construction.

Every application either fails with a named side-condition error or yields
a new decomposition whose backwards Hom-vanishing facts are recorded into
the store.  Node classes are {H, E} vectors, so final states compare by
value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import takewhile

from .errors import (FinalMismatch, NoRelationsForDegree, PerfectnessUnknown,
                     PositionOutOfRange, SideConditionFailed, TailMismatch)
from .intersection import (BlowupGeometry, DivisorClass, E, canonical_class,
                           class_text, from_hd, he, rewrite)
from .sod import (AXIOM, Decomposition, DISPLAY_NAMES, FactStore, LineBundle,
                  Opaque, PUSHFORWARD, RECORDED, SodNode, TwistedStructureSheaf,
                  decomposition_text, is_perfect, node_text,
                  query_complete_orthogonality, record_decomposition, tensor,
                  vanish_text)

# A template slot: {field} is an integer, {field:a|b} one of the listed
# words, {field:*} any word.
SLOT = re.compile(r"\{(\w+)(?::([^}]*))?\}")


@dataclass(frozen=True)
class MutationRule:
    """One rule application; positions are 1-based."""

    rule_id: str
    position: int
    position_end: int | None = None   # serre_rotate block end
    direction: str | int | None = None  # left/right, or 1..3 for triangles
    support: str | None = None          # E or D for triangle_exchange
    shift: str | None = None            # +F or -F for fiber_rebase
    center: str | None = None           # L or C for expand_blowup
    codim: int | None = None

    def text(self) -> str:
        if self.rule_id not in RULES:
            raise ValueError(f"unknown rule id {self.rule_id!r}")
        return SLOT.sub(lambda m: str(getattr(self, m.group(1))),
                        RULES[self.rule_id][0])


@dataclass(frozen=True)
class ReplayScript:
    """A transcribed proof: axioms, rule list and the expected final state.

    The first axiom is the initial decomposition; any further axioms are
    recorded into the fact store before replay starts (they supply side
    condition evidence, typically the output of another replay).
    """

    name: str
    d: int
    axioms: tuple[Decomposition, ...]
    rules: tuple[MutationRule, ...]
    expected: Decomposition
    hd_degree: int | None = None   # writers show classes in {h, D} at this degree

    @property
    def ambient(self) -> str:
        return f"Y{self.d}"


# -- registered blow-up expansions -----------------------------------------

def blowup_expansion(d: int, center: str) -> tuple[SodNode, ...] | None:
    """Expansion of the whole derived category for a registered center.

    Center L (the standard line): one twisted copy of the center's derived
    category, written as two twisted sheaves on the exceptional divisor,
    followed by the pullback of the three-piece decomposition of the
    threefold.  Center C (the blow-down curve): one twisted copy of the
    center in front of the pullback of the image space's decomposition,
    degree 4 giving the four-term projective-space collection and degree 5
    the quadric's residual component plus three line bundles.
    """
    if center == "L" and d in (4, 5, 6):
        return (
            TwistedStructureSheaf("E", he(-1, 1)),   # O_E(E-H)
            TwistedStructureSheaf("E", he(0, 1)),    # O_E(E)
            Opaque(f"A_V{d}"),
            LineBundle(he(0, 0)),
            LineBundle(he(1, 0)),
        )
    if center != "C" or d not in (4, 5):
        return None
    h = from_hd(1, 0, d)
    if d == 4:
        return (
            Opaque("DbC"),
            LineBundle(-1 * h),
            LineBundle(he(0, 0)),
            LineBundle(h),
            LineBundle(2 * h),
        )
    return (
        Opaque("A_C"),
        TwistedStructureSheaf("D", from_hd(0, 1, d) - h),  # O_D(D-h)
        Opaque("A_Q"),
        LineBundle(-1 * h),
        LineBundle(he(0, 0)),
        LineBundle(h),
    )


# -- pushforward vanishing oracle -------------------------------------------

def ruling_fiber_degree(geom: BlowupGeometry, support: str,
                        cls: DivisorClass) -> int | None:
    """Degree of a class on the ruling fibers of an exceptional divisor.

    On either exceptional divisor the pullback polarization is trivial on
    fibers and the divisor itself restricts with fiber degree -1; classes
    on the D side need the {h, D} coordinates of the degree.  The whole
    space has no ruling (None).
    """
    if support == "E":
        return -cls.coords[1]
    if support != "D":
        return None
    try:
        return -rewrite(cls, geom.d)[1]
    except NoRelationsForDegree:
        return None


def pushforward_vanishing(geom: BlowupGeometry, source: DivisorClass,
                          target: TwistedStructureSheaf) -> bool:
    """All graded Horns from O(source) to O_S(twist) vanish when the
    difference restricts to the ruling fibers with degree -1: the extension
    groups compute the cohomology of that restriction, and the pushforward
    along the ruling of a fiber-degree -1 twist vanishes in all degrees;
    never for a target on the whole space, which has no ruling."""
    fd = ruling_fiber_degree(geom, target.support, target.twist - source)
    return fd == -1


# -- rule application -------------------------------------------------------

def _apply_expand(nodes, rule, geom, store):
    i = rule.position
    node = nodes[i - 1]
    if not (isinstance(node, Opaque) and node.name == "DbY"):
        raise SideConditionFailed(
            "expand_blowup", "expansion applies to the undecomposed category "
            f"node, found {node_text(node)}")
    if rule.codim != 2:
        raise SideConditionFailed(
            "expand_blowup", f"registered centers are curves (codimension 2), "
            f"got codim {rule.codim}")
    expansion = blowup_expansion(geom.d, rule.center or "")
    if expansion is None:
        raise SideConditionFailed(
            "expand_blowup",
            f"no expansion registered for center {rule.center!r} at degree {geom.d}")
    out = nodes[:i - 1] + list(expansion) + nodes[i:]
    ev = [f"registered expansion for center {rule.center} at degree {geom.d}"]
    return out, ev, AXIOM


def _apply_serre(nodes, rule, geom, store):
    i, j = rule.position, rule.position_end
    m = len(nodes)
    k = canonical_class(geom.d)
    if rule.direction == "left":
        if i != 1 or j >= m:
            raise SideConditionFailed(
                "serre_rotate", "a left rotation moves a proper prefix block")
        block, rest = nodes[:j], nodes[j:]
        moved = [tensor(n, -1 * k) for n in block]
        out = rest + moved
    elif rule.direction == "right":
        if j != m or i <= 1:
            raise SideConditionFailed(
                "serre_rotate", "a right rotation moves a proper suffix block")
        block, rest = nodes[i - 1:], nodes[:i - 1]
        moved = [tensor(n, k) for n in block]
        out = moved + rest
    else:
        raise SideConditionFailed("serre_rotate",
                                  f"direction must be left or right, got {rule.direction!r}")
    if all(map(is_perfect, block)):
        ev = ["rotated block is perfect: "
              + ", ".join(node_text(n) for n in block)]
    elif all(map(is_perfect, rest)):
        ev = ["complementary block is perfect: "
              + ", ".join(node_text(n) for n in rest)]
    else:
        raise PerfectnessUnknown(
            "serre_rotate", "neither block is flagged perfect")
    return out, ev, RECORDED


def _triangle_pair(form: int, a: DivisorClass, s_class: DivisorClass,
                   support: str):
    """Presentation `form` of the twisted restriction triangle of S."""
    if form == 1:
        return [LineBundle(a - s_class), LineBundle(a)]             # <O(A-S), O(A)>
    if form == 2:
        return [LineBundle(a), TwistedStructureSheaf(support, a)]   # <O(A), O_S(A)>
    return [TwistedStructureSheaf(support, a), LineBundle(a - s_class)]  # <O_S(A), O(A-S)>


def _triangle_form(pair, s_class: DivisorClass, support: str) -> tuple[int, DivisorClass] | None:
    """Match an adjacent pair against the three presentations; returns
    (form index, twist A).  A is the class of the second node in form 1
    and of the first node in forms 2 and 3."""
    for form, node in ((1, pair[1]), (2, pair[0]), (3, pair[0])):
        if isinstance(node, TwistedStructureSheaf) \
                and _triangle_pair(form, node.twist, s_class, support) == pair:
            return form, node.twist
    return None


def _apply_triangle(nodes, rule, geom, store):
    i = rule.position
    support = rule.support or ""
    if support not in ("E", "D"):
        raise SideConditionFailed("triangle_exchange",
                                  f"support must be E or D, got {support!r}")
    try:
        s_class = E if support == "E" else from_hd(0, 1, geom.d)
    except NoRelationsForDegree as exc:
        raise SideConditionFailed("triangle_exchange", str(exc)) from exc
    pair = nodes[i - 1:i + 1]
    match = _triangle_form(pair, s_class, support)
    if match is None:
        raise SideConditionFailed(
            "triangle_exchange",
            f"pair ({node_text(pair[0])}, {node_text(pair[1])}) matches no "
            f"presentation of the {support}-restriction triangle")
    if rule.direction not in (1, 2, 3):
        raise SideConditionFailed("triangle_exchange",
                                  f"direction must be 1, 2 or 3, got {rule.direction!r}")
    form, a = match
    target = (form - 1 + rule.direction) % 3 + 1
    out = nodes[:i - 1] + _triangle_pair(target, a, s_class, support) + nodes[i + 1:]
    ev = [f"pair matches presentation {form} with twist {class_text(a)}; "
          f"advanced {rule.direction} to presentation {target}"]
    return out, ev, RECORDED


def _apply_swap(nodes, rule, geom, store):
    i = rule.position
    a, b = nodes[i - 1], nodes[i]
    ev = []
    for x, y in ((a, b), (b, a)):
        found = store.describe(x, y)
        if found is None and isinstance(x, TwistedStructureSheaf) \
                and isinstance(y, TwistedStructureSheaf) and not x.support \
                and pushforward_vanishing(geom, x.twist, y):
            store.add(x, y, PUSHFORWARD)
            found = vanish_text(x, y, f"{PUSHFORWARD}: ruling fiber degree -1")
        if found is None:
            raise SideConditionFailed(
                "swap", f"Vanish({node_text(x)} -> {node_text(y)}) is not "
                "derivable; the pair is not known completely orthogonal")
        ev.append(found)
    assert query_complete_orthogonality(store, a, b)
    out = nodes[:i - 1] + [b, a] + nodes[i + 1:]
    return out, ev, RECORDED


def _apply_rebase(nodes, rule, geom, store):
    i = rule.position
    a, b = nodes[i - 1], nodes[i]
    if isinstance(a, Opaque) or isinstance(b, Opaque) \
            or not a.support or a.support != b.support:
        raise SideConditionFailed(
            "fiber_rebase", "pair must be twisted sheaves on one divisor")
    if a.support != "E":
        raise SideConditionFailed(
            "fiber_rebase", "a rebase class is registered only for the "
            "line-side exceptional divisor")
    f = he(1, 0)  # fiber degree 1 along the base of the ruling, 0 on fibers
    if b.twist - a.twist != f:
        raise SideConditionFailed(
            "fiber_rebase", f"pair twists must differ by {class_text(f)}")
    if rule.shift == "-F":
        out_pair = [TwistedStructureSheaf("E", a.twist - f), a]
    elif rule.shift == "+F":
        out_pair = [b, TwistedStructureSheaf("E", b.twist + f)]
    else:
        raise SideConditionFailed("fiber_rebase",
                                  f"shift must be +F or -F, got {rule.shift!r}")
    out = nodes[:i - 1] + out_pair + nodes[i + 1:]
    ev = [f"pair is the ruling image of adjacent twists; shifted {rule.shift}"]
    return out, ev, RECORDED


def _apply_transpose(nodes, rule, geom, store):
    i = rule.position
    node = nodes[i - 1]
    if not isinstance(node, Opaque):
        raise SideConditionFailed(
            "opaque_transpose", f"node {node_text(node)} is not opaque")
    if rule.direction == "left":
        if i < 2:
            raise SideConditionFailed("opaque_transpose", "no left neighbor")
        other = nodes[i - 2]
        out = nodes[:i - 2] + [node, other] + nodes[i:]
    elif rule.direction == "right":
        if i == len(nodes):
            raise SideConditionFailed("opaque_transpose", "no right neighbor")
        other = nodes[i]
        out = nodes[:i - 1] + [other, node] + nodes[i + 1:]
    else:
        raise SideConditionFailed("opaque_transpose",
                                  f"direction must be left or right, got {rule.direction!r}")
    ev = [f"mutation of the admissible component {node.name} through "
          f"{node_text(other)} exists; abstract identity preserved"]
    return out, ev, RECORDED


# rule id -> (script grammar template, applier(nodes, rule, geom, store),
# nodes the position addresses: 1, 2 for a pair, 0 for a block i..j)
RULES = {
    "expand_blowup": ("expand_blowup at {position} center {center:*} codim {codim}",
                      _apply_expand, 1),
    "serre_rotate": ("serre_rotate {direction:left|right} at {position}..{position_end}",
                     _apply_serre, 0),
    "triangle_exchange": ("triangle_exchange at {position} support {support:E|D} "
                          "direction {direction}", _apply_triangle, 2),
    "swap": ("swap at {position}", _apply_swap, 2),
    "fiber_rebase": ("fiber_rebase at {position} shift {shift:+F|-F}", _apply_rebase, 2),
    "opaque_transpose": ("opaque_transpose at {position} {direction:left|right}",
                         _apply_transpose, 1),
}


def _apply(dec: Decomposition, rule: MutationRule, store: FactStore,
           geom: BlowupGeometry):
    if rule.rule_id not in RULES:
        raise SideConditionFailed(rule.rule_id, "unknown rule")
    _, applier, span = RULES[rule.rule_id]
    i, j, m = rule.position, rule.position_end, len(dec.nodes)
    if span == 0 and not (j is not None and 1 <= i <= j <= m):
        raise PositionOutOfRange(f"block {i}..{j} outside 1..{m}")
    if span and not 1 <= i <= m - span + 1:
        raise PositionOutOfRange(("pair " if span == 2 else "")
                                 + f"position {i} outside 1..{m - span + 1}")
    out, ev, prov = applier(list(dec.nodes), rule, geom, store)
    new_dec = Decomposition(dec.ambient, tuple(out))
    facts = record_decomposition(new_dec, store, prov)
    return new_dec, ev, facts


def apply_rule(dec: Decomposition, rule: MutationRule, store: FactStore,
               geom: BlowupGeometry) -> tuple[Decomposition, FactStore]:
    """Apply one rule; the store gains the new order's vanishing facts."""
    new_dec, _, _ = _apply(dec, rule, store, geom)
    return new_dec, store


# -- replay -----------------------------------------------------------------

@dataclass(frozen=True)
class AuditEntry:
    index: int
    rule: str
    evidence: tuple[str, ...]
    result: str
    facts_added: tuple[str, ...]

    def lines(self) -> list[str]:
        out = [f"step {self.index}: {self.rule}"]
        out += [f"  evidence: {e}" for e in self.evidence]
        out.append(f"  result: {self.result}")
        out += [f"  fact: {f}" for f in self.facts_added]
        return out


@dataclass
class AuditLog:
    script: str
    ambient: str
    entries: list[AuditEntry] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"replay {self.script} on {self.ambient}"]
        for entry in self.entries:
            lines.extend(entry.lines())
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"script": self.script, "ambient": self.ambient,
                "steps": [dict(vars(e)) for e in self.entries]}


def _diff(found: Decomposition, expected: Decomposition) -> list[str]:
    diffs = []
    if len(found.nodes) != len(expected.nodes):
        diffs.append(f"length {len(found.nodes)} != {len(expected.nodes)}")
    for pos, (f, e) in enumerate(zip(found.nodes, expected.nodes), start=1):
        if f != e:
            diffs.append(f"position {pos}: expected {node_text(e)}, "
                         f"found {node_text(f)}")
    return diffs


def replay(script: ReplayScript, store: FactStore,
           geom: BlowupGeometry) -> tuple[Decomposition, AuditLog]:
    """Replay a script: record its axioms, apply its rules in order, and
    check the final state node for node against the expected one.

    The audit log lists every rule with its side-condition evidence and
    the fact-store delta; identical scripts on identical stores render to
    byte-identical logs.
    """
    if geom.d != script.d:
        raise ValueError(f"script is for degree {script.d}, geometry for {geom.d}")
    audit = AuditLog(script.name, script.ambient)
    for k, axiom in enumerate(script.axioms):
        facts = record_decomposition(axiom, store, AXIOM)
        audit.entries.append(AuditEntry(
            0, f"axiom {decomposition_text(axiom)}",
            ("accepted as axiom" if k == 0 or facts else "already recorded",),
            decomposition_text(axiom), tuple(facts)))
    current = script.axioms[0]
    for idx, rule in enumerate(script.rules, start=1):
        try:
            current, evidence, facts = _apply(current, rule, store, geom)
        except SideConditionFailed as exc:
            raise type(exc)(exc.rule_id, exc.detail, idx) from None
        audit.entries.append(AuditEntry(idx, rule.text(), tuple(evidence),
                                        decomposition_text(current),
                                        tuple(facts)))
    diffs = _diff(current, script.expected)
    if diffs:
        exc = FinalMismatch(diffs)
        exc.audit = audit
        raise exc
    return current, audit


# -- head comparison ---------------------------------------------------------

@dataclass(frozen=True)
class Equivalence:
    """Identification of the head blocks of two decompositions whose
    line-bundle tails agree node for node."""

    d: int
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def text(self) -> str:
        def show(names):
            pretty = [DISPLAY_NAMES.get(n, n) for n in names]
            return pretty[0] if len(pretty) == 1 else "<" + ", ".join(pretty) + ">"
        return f"{show(self.lhs)} = {show(self.rhs)}"


def _split(dec: Decomposition) -> tuple[list[Opaque], list[SodNode]]:
    """The leading opaque nodes, and the line bundles after them."""
    head = list(takewhile(lambda n: isinstance(n, Opaque), dec.nodes))
    tail = list(dec.nodes[len(head):])
    if not head or any(isinstance(n, Opaque) or n.support for n in tail):
        raise ValueError("decomposition head must consist of opaque components")
    return head, tail


def compare_and_solve(left: Decomposition, right: Decomposition,
                      d: int) -> Equivalence:
    """Match the line-bundle tails of two decompositions of the same
    blown-up threefold and emit the identification of their heads."""
    if left.ambient != right.ambient:
        raise ValueError(f"ambients differ: {left.ambient} vs {right.ambient}")
    lhead, ltail = _split(left)
    rhead, rtail = _split(right)
    if len(ltail) != len(rtail):
        raise TailMismatch(min(len(ltail), len(rtail)) + 1,
                           f"a tail of length {len(ltail)}",
                           f"a tail of length {len(rtail)}")
    for pos, (a, b) in enumerate(zip(ltail, rtail), start=1):
        if a != b:
            raise TailMismatch(pos, node_text(a), node_text(b))
    return Equivalence(d, tuple(n.name for n in lhead),
                       tuple(n.name for n in rhead))
