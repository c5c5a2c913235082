"""Byte-identical regressions for the seeded hypersurface builder and the
quiver report.

Each ``.hyp`` file under ``golden/`` was rendered by ``dsl.render_instance``
from ``build_nodal_hypersurface(space, degree, nodes, seed=0)`` while the
builder still assembled and mixed over ``Fraction``: the cubic and the
sextic with the Fraction Gauss-Jordan kernel, the quartic on P(1,1,1,1,2)
(nodes with denominators and charts at x0, x1 and x2, defect 0) with the
fraction-free kernel.  Its weights, degree and nodes are the builder's
input; the whole file, coefficients included, is the expected output.  Any
change to the kernel basis, the draw or the rendering shows up here as a
text difference.

Each ``.json`` file is the output of ``delpezzo quiver <name> --json`` from
the enumerator that ran to length |vertices| x |arrows| + 1 before testing
for a pumpable cycle: a builtin quiver, a 6-cycle with all six length-3
relations, and two loops x, y with xx = yy = 0 and alternations of length 7
zero.  Basis order, Cartan matrix and layout must not move.
"""

from pathlib import Path

import pytest

from delpezzo import dsl, wps
from delpezzo.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["cubic-6n.hyp", "sextic-12n.hyp",
                                  "quartic-rational.hyp"])
def test_build_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    space, degree, nodes, _ = dsl.parse_instance(expected)
    hyp = wps.build_nodal_hypersurface(space, degree, nodes, seed=0)
    assert dsl.render_instance(hyp) == expected


@pytest.mark.parametrize("name", ["double-burban", "cycle6-r3", "alternating-3"])
def test_quiver_report_matches_golden(name, capsys):
    source = GOLDEN / f"{name}.quiver"
    arg = str(source) if source.is_file() else name
    assert main(["quiver", arg, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
