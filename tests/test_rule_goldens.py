"""Byte-identical regressions for the mutation-rule grammar and replay.

``golden/replay-<name>.txt`` and ``.json`` are the output of ``delpezzo
replay <name>`` and ``delpezzo replay <name> --json`` for the four builtin
scripts.  ``golden/rule-parse-outcomes.json`` maps malformed and
well-formed rule lines to their parse outcome: every prefix truncation,
every trailing extra token and every single-token substitution of one line
per rule form, each parsed as the only rule of a script.  An outcome is
the exception class, line, column and message, or the repr and rendered
text of the parsed rules.  Both were recorded before the rule grammar moved
into one table, and must not move.

``golden/rule-apply-outcomes.json`` pins rule application.  Every state of
the four builtin replays (the first axiom, then the state after each rule,
each with the fact store as it stood then) meets every rule at positions
0, 1, 2, n-1, n and n+1 for n nodes, with every valid word of each field
plus one invalid value (see ``APPLY_FIELDS``; a serre block ends at one of
the same positions), each on its own copy of the store.  An outcome is the
exception class and message, or the rendered result, the evidence and the
facts added.  The file lists the distinct outcomes once and, per state,
the index of each case's outcome in the order ``apply_cases`` yields them.
It was recorded before node identity moved onto node values.
"""

import copy
import itertools
import json
from pathlib import Path

import pytest

from delpezzo.cli import main
from delpezzo.dsl import builtin_script_names, load_builtin_script, parse_script
from delpezzo.errors import ToolError
from delpezzo.intersection import BlowupGeometry
from delpezzo.mutations import MutationRule, _apply, apply_rule
from delpezzo.sod import (AXIOM, FactStore, decomposition_text,
                          record_decomposition)

GOLDEN = Path(__file__).parent / "golden"

RULE_LINES = (
    "expand_blowup at 1 center L codim 2",
    "serre_rotate left at 1..2",
    "triangle_exchange at 2 support E direction 1",
    "swap at 3",
    "fiber_rebase at 1 shift +F",
    "opaque_transpose at 2 left",
)

# grammar words of every rule form, plus near misses of each slot
VOCABULARY = (
    "expand_blowup", "serre_rotate", "triangle_exchange", "swap",
    "fiber_rebase", "opaque_transpose", "at", "center", "codim", "support",
    "direction", "shift", "left", "right", "E", "D", "+F", "-F", "F", "L",
    "0", "1", "-1", "+1", "01", "1..2", "2..1", "-1..2", "1..", "x", "axiom",
    "#",
)


def _variants(line: str) -> list[str]:
    tokens = line.split()
    out = [" ".join(tokens[:k]) for k in range(1, len(tokens))]
    out += [f"{line} {extra}" for extra in VOCABULARY]
    for i, tok in enumerate(tokens):
        out += [" ".join(tokens[:i] + [sub] + tokens[i + 1:])
                for sub in VOCABULARY if sub != tok]
    return out


def parse_outcome(line: str) -> list:
    text = f"ambient Y d=5\naxiom <CAT(DbY)>\n{line}\nexpect <CAT(DbY)>\n"
    try:
        script = parse_script(text)
    except ToolError as exc:
        return [type(exc).__name__, getattr(exc, "line", None),
                getattr(exc, "col", None), str(exc)]
    return ["ok", [[repr(r), r.text()] for r in script.rules]]


def parse_outcomes() -> dict[str, list]:
    return {v: parse_outcome(v) for line in RULE_LINES for v in _variants(line)}


def test_rule_parse_outcomes_match_golden():
    expected = json.loads((GOLDEN / "rule-parse-outcomes.json").read_text())
    assert parse_outcomes() == expected


@pytest.mark.parametrize("name", builtin_script_names())
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_replay_report_matches_golden(name, fmt, capsys):
    argv = ["replay", name] + (["--json"] if fmt == "json" else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / f"replay-{name}.{fmt}").read_text()


# rule id -> field -> the valid values, then one invalid value
APPLY_FIELDS = {
    "expand_blowup": {"center": ("L", "C", "X"), "codim": (2, 3)},
    "serre_rotate": {"direction": ("left", "right", "up")},
    "triangle_exchange": {"support": ("E", "D", "X"), "direction": (1, 2, 3, 0)},
    "swap": {},
    "fiber_rebase": {"shift": ("+F", "-F", "F")},
    "opaque_transpose": {"direction": ("left", "right", "up")},
}


def _copy_store(store: FactStore) -> FactStore:
    """A store that shares no container with the original."""
    out = copy.copy(store)
    out.__dict__ = {k: copy.copy(v) for k, v in vars(store).items()}
    return out


def replay_states(name: str):
    """(geometry, [(state, copy of its store)]) along a builtin replay."""
    script = load_builtin_script(name)
    geom = BlowupGeometry(script.d)
    store = FactStore()
    for axiom in script.axioms:
        record_decomposition(axiom, store, AXIOM)
    current = script.axioms[0]
    states = [(current, _copy_store(store))]
    for rule in script.rules:
        current, _ = apply_rule(current, rule, store, geom)
        states.append((current, _copy_store(store)))
    return geom, states


def apply_cases(n: int):
    positions = sorted({0, 1, 2, n - 1, n, n + 1})
    for rule_id, fields in APPLY_FIELDS.items():
        if rule_id == "serre_rotate":
            fields = {**fields, "position_end": positions}
        for i in positions:
            for values in itertools.product(*fields.values()):
                yield MutationRule(rule_id, i, **dict(zip(fields, values)))


def apply_outcome(dec, rule, store, geom) -> list:
    try:
        new, evidence, facts = _apply(dec, rule, store, geom)
    except ToolError as exc:
        return [type(exc).__name__, str(exc)]
    return [decomposition_text(new), list(evidence), list(facts)]


def apply_outcomes() -> dict[str, dict[str, list]]:
    """state label -> rule text -> outcome."""
    out = {}
    for name in builtin_script_names():
        geom, states = replay_states(name)
        for k, (dec, store) in enumerate(states):
            out[f"{name} {k}: {decomposition_text(dec)}"] = {
                rule.text(): apply_outcome(dec, rule, _copy_store(store), geom)
                for rule in apply_cases(len(dec.nodes))}
    return out


def test_rule_apply_outcomes_match_golden():
    golden = json.loads((GOLDEN / "rule-apply-outcomes.json").read_text())
    found = apply_outcomes()
    assert list(found) == list(golden["states"])
    for label, outcomes in found.items():
        expected = [golden["outcomes"][i] for i in golden["states"][label]]
        assert len(expected) == len(outcomes)
        assert dict(zip(outcomes, expected)) == outcomes
