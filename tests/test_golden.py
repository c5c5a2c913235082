"""Byte-identical regression for the seeded hypersurface builder.

Each file under ``golden/`` was rendered by ``dsl.render_instance`` from
``build_nodal_hypersurface(space, degree, nodes, seed=0)`` with the
Fraction Gauss-Jordan kernel.  Its weights, degree and nodes are the
builder's input; the whole file, coefficients included, is the expected
output.  Any change to the kernel basis, the draw or the rendering shows
up here as a text difference.
"""

from pathlib import Path

import pytest

from delpezzo import dsl, wps

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["cubic-6n.hyp", "sextic-12n.hyp"])
def test_build_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    space, degree, nodes, _ = dsl.parse_instance(expected)
    hyp = wps.build_nodal_hypersurface(space, degree, nodes, seed=0)
    assert dsl.render_instance(hyp) == expected
