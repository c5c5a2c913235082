"""Line-oriented text formats: mutation scripts, hypersurface instances,
quiver definitions and intersection expressions.

Script grammar (one statement per line, '#' starts a comment):

    ambient Y d=<n>
    axiom <decomposition>
    <rule>            e.g. swap at 3, serre_rotate left at 1..2
    expect <decomposition>

A rule line follows its template in ``mutations.RULES``: literal words,
integer slots, word choices such as left|right, and the block <i>..<j>.
A decomposition literal is `<node, node, ...>` with node syntax
O(aH+bE), O_E(aH+bE), O(ah+bD), O_D(ah+bD) or CAT(name); class syntax is a
signed integer combination of H and E or of h and D, or 0.  A script
whose expect line writes a class in h and D renders in {h, D} at its
degree, any other in {H, E}.  Parse errors report line and column; a
header degree other than 4, 5 or 6 is an OutOfRangeDegree naming the
header line, and an {h, D} literal at a degree without registered
relations is a NoRelationsForDegree naming its line and column.  Only
the script and rule readers import ``mutations``, so instances, quivers
and intersection expressions parse without loading it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING

from .errors import (NAME_ECHO, InstanceFormatError, NoRelationsForDegree,
                     OutOfRangeDegree, ScriptSyntaxError, echo)
from .intersection import BlowupGeometry, DivisorClass, from_hd, he
from .sod import (Decomposition, Opaque, SodNode, TwistedStructureSheaf,
                  decomposition_text)

if TYPE_CHECKING:
    from .mutations import MutationRule, ReplayScript
    from .quivers import Quiver
    from .wps import NodalHypersurface

_NODE_RE = re.compile(r"^(O_E|O_D|O|CAT)\((.*)\)$")
_TERM_RE = re.compile(r"([+-]?)(\d*)([HEhD])")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _read_int(digits: str, line: int, col: int) -> int:
    """An integer token that a pattern has matched.  One longer than
    Python's int-string limit is a syntax error at its column."""
    try:
        return int(digits)
    except ValueError:
        raise ScriptSyntaxError(line, col, "an integer of at most "
                                f"{sys.get_int_max_str_digits()} digits") from None


def parse_class(text: str, line: int = 0, col: int = 0) -> tuple[bool, int, int]:
    """Parse '2H-E', '-h', 'D-2h' or '0' into (hd, a, b): the class
    a*H + b*E, or a*h + b*D when hd is True."""
    col += len(text) - len(text.lstrip())
    text = text.strip()
    if not text:
        raise ScriptSyntaxError(line, col, "a class like H-E, -h or 0")
    if text in ("0", "-0", "+0"):
        return False, 0, 0
    pos = 0
    coeffs: dict[str, int] = {}
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (pos > 0 and m.group(1) == ""):
            raise ScriptSyntaxError(line, col + pos,
                                    "a signed term like 2H, -E or +D")
        sign = -1 if m.group(1) == "-" else 1
        mag = _read_int(m.group(2), line, col + m.start(2)) if m.group(2) else 1
        sym = m.group(3)
        coeffs[sym] = coeffs.get(sym, 0) + sign * mag
        pos = m.end()
    for hd, (s, t) in ((False, "HE"), (True, "hD")):
        if set(coeffs) <= {s, t}:
            return hd, coeffs.get(s, 0), coeffs.get(t, 0)
    raise ScriptSyntaxError(line, col, "a class over one basis, {H,E} or {h,D}")


def _read_class(hd: bool, a: int, b: int, d: int) -> DivisorClass:
    return from_hd(a, b, d) if hd else he(a, b)


def parse_node(token: str, d: int, line: int = 0, col: int = 0) -> SodNode:
    return _read_node(token, d, line, col)[0]


def _read_node(token: str, d: int, line: int, col: int) -> tuple[SodNode, bool]:
    """A node literal, and whether its class is written in {h, D}."""
    m = _NODE_RE.match(token)
    if m is None:
        raise ScriptSyntaxError(line, col, "a node like O(H-E), O_E(E), CAT(A_C)")
    head, body = m.groups()
    if head == "CAT":
        if not re.fullmatch(r"[A-Za-z0-9_*']+", body):
            raise ScriptSyntaxError(line, col, "a category name")
        return Opaque(body), False
    hd, a, b = parse_class(body, line, col + len(head) + 1)
    try:
        cls = _read_class(hd, a, b, d)
    except NoRelationsForDegree as exc:
        raise NoRelationsForDegree(f"line {line}, col {col}: {exc}") from None
    return TwistedStructureSheaf(head[2:], cls), hd


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """(number from 1, text) of each line that still has a token once its
    '#' comment is cut: the line grammar of scripts, instances and quivers."""
    for number, raw in enumerate(text.splitlines(), start=1):
        if (line := raw.split("#", 1)[0]).strip():
            yield number, line


class _Line:
    """Whitespace tokens of one source line with column positions."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text
        self.tokens: list[tuple[str, int]] = [
            (m.group(0), m.start() + 1) for m in re.finditer(r"\S+", text)]
        self.pos = 0

    def peek(self) -> tuple[str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            last_col = self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens else 1
            raise ScriptSyntaxError(self.number, last_col, expected or "more input")
        self.pos += 1
        if expected is not None and tok[0] != expected:
            raise ScriptSyntaxError(self.number, tok[1], f"'{expected}'")
        return tok

    def take_int(self, what: str) -> int:
        tok, col = self.take(None)
        if not re.fullmatch(r"-?\d+", tok):
            raise ScriptSyntaxError(self.number, col, what)
        return _read_int(tok, self.number, col)

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ScriptSyntaxError(self.number, tok[1], "end of line")


def _parse_decomposition(ln: _Line, d: int) -> tuple[Decomposition, bool]:
    """The literal that is the rest of the line, split on <, ',' and >, and
    whether one of its classes is written in {h, D}."""
    tok = ln.peek()
    if tok is None:
        raise ScriptSyntaxError(ln.number, 1, "a decomposition literal")
    col = tok[1]
    text = ln.text[col - 1:].rstrip()
    ln.pos = len(ln.tokens)
    if not (text.startswith("<") and text.endswith(">")):
        raise ScriptSyntaxError(ln.number, col, "a literal of the form <...>")
    if not text[1:-1].strip():
        raise ScriptSyntaxError(ln.number, col + 1, "at least one node")
    nodes, start = [], col + 1
    for part in text[1:-1].split(","):
        lead = len(part) - len(part.lstrip())
        nodes.append(_read_node(part.strip(), d, ln.number, start + lead))
        start += len(part) + 1
    return (Decomposition(f"Y{d}", tuple(node for node, _ in nodes)),
            any(hd for _, hd in nodes))


# what an integer slot of a rule template expects
_INT_SLOTS = {"position": "a position", "direction": "a direction in 1..3",
              "codim": "a codimension"}


def _parse_rule(rule_id: str, ln: _Line) -> MutationRule:
    """Read the rest of a rule line along the rule's grammar template."""
    from .mutations import RULES, SLOT, MutationRule
    fields: dict[str, int | str] = {}
    for word in RULES[rule_id][0].split()[1:]:
        slots = SLOT.findall(word)
        if not slots:
            ln.take(word)
        elif len(slots) == 2:   # a block {i}..{j}
            tok, col = ln.take()
            m = re.fullmatch(r"(\d+)\.\.(\d+)", tok)
            if m is None:
                raise ScriptSyntaxError(ln.number, col, "a block like 1..2")
            (first, _), (second, _) = slots
            fields[first] = _read_int(m.group(1), ln.number, col)
            fields[second] = _read_int(m.group(2), ln.number, col + m.start(2))
        else:
            name, spec = slots[0]
            if not spec:
                fields[name] = ln.take_int(_INT_SLOTS[name])
            else:
                tok, col = ln.take()
                if spec != "*" and tok not in spec.split("|"):
                    raise ScriptSyntaxError(ln.number, col, " or ".join(
                        f"'{w}'" for w in spec.split("|")))
                fields[name] = tok
    ln.done()
    return MutationRule(rule_id, **fields)


def parse_script(text: str, name: str = "script") -> ReplayScript:
    """Parse a mutation script; the first error reports line and column."""
    from .mutations import RULES, ReplayScript
    lines = [_Line(number, line) for number, line in _lines(text)]
    if not lines:
        raise ScriptSyntaxError(1, 1, "a header line 'ambient Y d=<n>'")
    header = lines[0]
    header.take("ambient")
    header.take("Y")
    tok, col = header.take()
    m = re.fullmatch(r"d=(\d+)", tok)
    if m is None:
        raise ScriptSyntaxError(header.number, col, "d=<n>")
    d = _read_int(m.group(1), header.number, col + 2)
    header.done()
    try:
        BlowupGeometry(d)
    except OutOfRangeDegree as exc:
        raise OutOfRangeDegree(f"line {header.number}: {exc}") from None

    axioms: list[Decomposition] = []
    rules: list[MutationRule] = []
    expected: Decomposition | None = None
    hd_degree = None
    for ln in lines[1:]:
        if expected is not None:
            tok, col = ln.tokens[0]
            raise ScriptSyntaxError(ln.number, col, "nothing after 'expect'")
        keyword, col = ln.take()
        if keyword == "axiom":
            if rules:
                raise ScriptSyntaxError(ln.number, col,
                                        "axioms before the first rule")
            axioms.append(_parse_decomposition(ln, d)[0])
        elif keyword == "expect":
            expected, hd = _parse_decomposition(ln, d)
            hd_degree = d if hd else None
        elif keyword in RULES:
            rules.append(_parse_rule(keyword, ln))
        else:
            raise ScriptSyntaxError(ln.number, col,
                                    "axiom, expect or a rule keyword")
    if not axioms:
        raise ScriptSyntaxError(lines[-1].number, 1, "at least one axiom line")
    if expected is None:
        raise ScriptSyntaxError(lines[-1].number, 1, "a final expect line")
    return ReplayScript(name, d, tuple(axioms), tuple(rules), expected,
                        hd_degree)


def render_script(script: ReplayScript) -> str:
    """Canonical text of a script; parsing it back gives an equal structure."""
    hd_degree = script.hd_degree
    out = [f"ambient Y d={script.d}"]
    out += [f"axiom {decomposition_text(a, hd_degree)}" for a in script.axioms]
    out += [r.text() for r in script.rules]
    out.append(f"expect {decomposition_text(script.expected, hd_degree)}")
    return "\n".join(out) + "\n"


def builtin_script_names() -> list[str]:
    files = resources.files("delpezzo") / "data"
    return sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".sod"))


def load_builtin_script(name: str) -> ReplayScript:
    base = name[:-4] if name.endswith(".sod") else name
    try:   # a name the system refuses, such as one too long, is not found either
        text = (resources.files("delpezzo") / "data" / f"{base}.sod").read_text()
    except OSError:
        raise InstanceFormatError(
            f"no builtin script {echo(name, NAME_ECHO)}; available: "
            + ", ".join(builtin_script_names())) from None
    return parse_script(text, name=base)


# -- hypersurface instances (.hyp) ------------------------------------------

def _number_error(kind: str, tok: str, line: int) -> InstanceFormatError:
    if _INTEGER_RE.fullmatch(tok):   # int() refuses a decimal integer only for its length
        kind = f"integer, over {sys.get_int_max_str_digits()} digits:"
    return InstanceFormatError(f"line {line}: bad {kind} {echo(tok)}")


def _parse_fraction(tok: str, line: int) -> Fraction:
    """A rational token; plain decimal integers skip Fraction's string parser."""
    try:
        return Fraction(int(tok)) if _INTEGER_RE.fullmatch(tok) else Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise _number_error("rational", tok, line) from None


def _parse_int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise _number_error("integer", tok, line) from None


def parse_instance(text: str):
    """Parse a .hyp file into (space, degree, nodes, coefficients or None).
    A second weights, degree or coeffs line is a format error naming its line."""
    from .wps import WeightedSpace, enumerate_monomials
    space = degree = None
    nodes: list[tuple[Fraction, ...]] = []
    coeffs: list[Fraction] | None = None
    seen: set[str] = set()
    for lineno, line in _lines(text):
        key, *rest = line.split()
        if key in seen:
            raise InstanceFormatError(f"line {lineno}: duplicate {key} line")
        if key != "node":
            seen.add(key)
        if key == "weights":
            weights = tuple([_parse_int(w, lineno) for w in rest])
            try:
                space = WeightedSpace(weights)
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno}: {exc}") from None
        elif key == "degree":
            if len(rest) != 1:
                raise InstanceFormatError(f"line {lineno}: degree takes one value")
            degree = _parse_int(rest[0], lineno)
            if degree < 0:
                raise InstanceFormatError(f"line {lineno}: degree must be nonnegative")
        elif key == "node":
            nodes.append(tuple([_parse_fraction(t, lineno) for t in rest]))
        elif key == "coeffs":
            coeffs = [_parse_fraction(t, lineno) for t in rest]
        else:
            raise InstanceFormatError(
                f"line {lineno}: expected weights, degree, node or coeffs")
    if space is None or degree is None:
        raise InstanceFormatError("instance needs 'weights' and 'degree' lines")
    if coeffs is not None:
        expected = len(enumerate_monomials(space, degree))
        if len(coeffs) != expected:
            raise InstanceFormatError(
                f"coeffs line has {len(coeffs)} values, expected {expected}")
    return space, degree, nodes, coeffs


def render_instance(hyp: NodalHypersurface) -> str:
    out = ["weights " + " ".join(str(w) for w in hyp.ambient.weights),
           f"degree {hyp.degree}"]
    out += ["node " + " ".join(str(c) for c in p) for p in hyp.nodes]
    out.append("coeffs " + " ".join(str(c) for c in hyp.coefficients))
    return "\n".join(out) + "\n"


# -- quiver definitions -------------------------------------------------------

def parse_quiver(text: str) -> Quiver:
    """Quiver file: 'vertices ...', 'arrow <name> <src> <dst>' and
    'relation <arrow names...>' lines.  Duplicate vertices, duplicate arrow
    names and arrow endpoints that no 'vertices' line declares are format
    errors naming their line."""
    from .quivers import Quiver
    vertices: dict[str, None] = {}   # a dict keeps the order and tests membership in O(1)
    arrows: list[tuple[str, str, str]] = []
    arrow_lines: dict[str, int] = {}
    relations: list[tuple[str, ...]] = []
    for lineno, line in _lines(text):
        key, *rest = line.split()
        if key == "vertices":
            for v in rest:
                if v in vertices:
                    raise InstanceFormatError(
                        f"line {lineno}: duplicate vertex {echo(v)}")
                vertices[v] = None
        elif key == "arrow":
            if len(rest) != 3:
                raise InstanceFormatError(
                    f"line {lineno}: arrow takes name, source, target")
            if rest[0] in arrow_lines:
                raise InstanceFormatError(
                    f"line {lineno}: duplicate arrow name {echo(rest[0])}")
            arrow_lines[rest[0]] = lineno
            arrows.append((rest[1], rest[2], rest[0]))
        elif key == "relation":
            if not rest:
                raise InstanceFormatError(f"line {lineno}: empty relation")
            relations.append(tuple(rest))
        else:
            raise InstanceFormatError(
                f"line {lineno}: expected vertices, arrow or relation")
    if not vertices:
        raise InstanceFormatError("quiver needs a 'vertices' line")
    for s, t, name in arrows:
        for end in (s, t):
            if end not in vertices:
                raise InstanceFormatError(
                    f"line {arrow_lines[name]}: arrow {echo(name)} ends at "
                    f"{echo(end)}, which is not a declared vertex")
    return Quiver.build(vertices, arrows, relations)


# -- intersection expressions -------------------------------------------------

def parse_intersection_expr(text: str, d: int) -> list[DivisorClass]:
    """Parse a degree-3 product like '(H-E)^3' or 'H^2*E' at degree d into factors.

    Spaces are ignored; a malformed class or power names its column in
    ``text``, counted from 1, and no line.  Powers are counted, not
    expanded, so a huge one is refused without building its factors.  The
    degree is checked, and {h, D} factors read, after the factor count."""
    terms: list[tuple[tuple[str, int, int], int]] = []
    pos = 0
    cols = [i + 1 for i, ch in enumerate(text) if ch != " "]
    text = text.replace(" ", "")
    try:   # a ScriptSyntaxError's col indexes the spaceless text
        while pos < len(text):
            if terms and text[pos] == "*":
                pos += 1
            if pos < len(text) and text[pos] == "(":
                end = text.find(")", pos)
                if end < 0:
                    raise InstanceFormatError("unbalanced parenthesis")
                term = parse_class(text[pos + 1:end], col=pos + 1)
                pos = end + 1
            else:
                m = re.match(r"-?\d*[HEhD]", text[pos:])
                if m is None:
                    raise InstanceFormatError(
                        f"expected a class factor at {echo(text[pos:])}")
                term = parse_class(text[pos:pos + m.end()], col=pos)
                pos += m.end()
            power = 1
            if pos < len(text) and text[pos] == "^":
                m = re.match(r"\^(\d+)", text[pos:])
                if m is None:
                    raise InstanceFormatError("expected an integer power after ^")
                power = _read_int(m.group(1), 0, pos + 1)
                pos += m.end()
            terms.append((term, power))
    except ScriptSyntaxError as exc:
        raise InstanceFormatError(
            f"col {cols[exc.col]}: expected {exc.expected}") from None
    count = sum(power for _, power in terms)
    if count != 3:
        got = count if count < 10 ** 300 else "at least 10^300"
        raise InstanceFormatError(
            f"intersection products are trilinear; got {got} factors")
    BlowupGeometry(d)
    return [_read_class(*term, d) for term, power in terms for _ in range(power)]
