"""Byte-identical regressions for the verdict side: the gate, the catalog,
the degree-5 degeneration enumerator, intersection products and the
component models of the K-theory check.

``golden/verdicts.json`` holds two maps.  ``cli`` maps each command line
below, run as text and with ``--json``, to its exit code, stdout and
stderr.  ``models`` maps each ``standard_models(d, nodes_c, nodes_q)``
call to ``{name: [k0 rank, K_{-1} rank, quiver vertex count or null]}``,
or to the exception class and message.  Quivers are recorded by vertex
count only: a raw ``Quiver`` repr prints a frozenset whose order follows
the hash seed.  The file was recorded before the degree-5 pieces moved
into the catalog, and must not move.  The one exception so far: the ten
``(H-)^3`` entries were re-recorded when a malformed class in an
intersection expression began to name its column in the expression, with
no line.
"""

import contextlib
import io
import json
from pathlib import Path

from delpezzo.cli import main
from delpezzo.errors import ToolError
from delpezzo.ktheory import standard_models

GOLDEN = Path(__file__).parent / "golden"

# both bases, mixed bases, the canonical class, and malformed products
EXPRESSIONS = (
    "H^3", "(H-E)^3", "H^2*E", "H*E^2", "E^3", "(2H-E)*H*E", "(-2H+E)^3",
    "h^3", "D^3", "h^2*D", "(h-D)*(2h-D)*D", "H*h*D",
    "H^2", "H^4", "(H-E", "H*X*E", "H^*E", "(H-)^3",
)


def command_lines() -> list[list[str]]:
    lines = [["gate", f"d={d}", f"nodes={n}"]
             for d in range(10) for n in range(8)]
    lines += [["catalog"]] + [["catalog", str(d)] for d in range(10)]
    lines += [["degenerations", f"d={d}", f"nodes={n}"]
              for d in range(4, 7) for n in range(-1, 6)]
    lines += [["intersect", f"d={d}", expr]
              for d in range(3, 8) for expr in EXPRESSIONS]
    return lines


def run_cli(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, out.getvalue(), err.getvalue()]


def cli_outcomes() -> dict[str, list]:
    return {" ".join(argv): run_cli(argv)
            for line in command_lines()
            for argv in (line, line + ["--json"])}


def model_outcome(d: int, nodes_c: int, nodes_q: int):
    try:
        models = standard_models(d, nodes_c, nodes_q)
    except (ToolError, ValueError) as exc:
        return [type(exc).__name__, str(exc)]
    return {name: [m.k_profile.k0_rank, m.k_profile.k_minus1_rank,
                   None if m.algebra is None else len(m.algebra.vertices)]
            for name, m in models.items()}


def model_outcomes() -> dict[str, object]:
    return {f"{d} {c} {q}": model_outcome(d, c, q)
            for d in range(3, 7) for c in range(-1, 4) for q in range(-1, 3)}


def verdicts() -> dict[str, dict]:
    return {"cli": cli_outcomes(), "models": model_outcomes()}


def test_verdicts_match_golden():
    expected = json.loads((GOLDEN / "verdicts.json").read_text())
    found = verdicts()
    assert list(found["cli"]) == list(expected["cli"])
    for argv, outcome in found["cli"].items():
        assert outcome == expected["cli"][argv], argv
    assert found["models"] == expected["models"]
