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
"""

import json
from pathlib import Path

import pytest

from delpezzo.cli import main
from delpezzo.dsl import builtin_script_names, parse_script
from delpezzo.errors import ToolError

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
