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
text difference.  The sextic's x3^3 coefficient is 0, so it passes through
e3 = (0:0:0:1:0), a singular point of P(1,1,1,2,3), for every draw; since
the builder and ``checked`` test that X misses Sing W, both refuse it, and
its coefficients only record what the builder drew before that test.

Each ``.json`` file is the output of ``delpezzo quiver <name> --json`` from
the enumerator that ran to length |vertices| x |arrows| + 1 before testing
for a pumpable cycle: a builtin quiver, a 6-cycle with all six length-3
relations, and two loops x, y with xx = yy = 0 and alternations of length 7
zero.  Basis order, Cartan matrix and layout must not move.

``segre-cubic.hyp`` is not a build but a known special value: the Segre
cubic, written by hand, whose defect is pinned at 5.

``build-digests.json`` pins 50 more builds without storing their
coefficients: general node sets, one for each count from 1 to 6 on the
cubic, 1 to 7 on the quartic double solid and 1 to 12 on the sextic, drawn
by perfbench's ``general_nodes`` from its ``BASE_SEED``, each built with
seeds 0 and 1.  Each entry holds the SHA-256 of ``repr((coefficients,
DefectReport))``, recorded with the dense Bareiss pass that
``oracles.dense_forward`` keeps.

``defect-survey.txt`` and ``replay-proofs.txt`` are the standard output of
the two scripts under ``scripts/``, recorded with the same kernel; each
script runs in a fresh process under three hash seeds, because set order
follows the seed, and must print its file byte for byte.

``defect-reports.json`` holds the argv, exit code, stdout and stderr of
``delpezzo defect <file> --seed 0``, as text and with ``--json``, for every
``.hyp`` file here and under ``perfbench/instances/``, recorded while
``NodalHypersurface.checked`` still evaluated each partial as a sparse
polynomial; paths are relative to the repository root.  The two sextic-12n
entries were re-recorded as the refusal above.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import pytest

import delpezzo
from delpezzo import dsl, wps
from delpezzo.cli import main
from delpezzo.errors import NodeAtAmbientSingularity
from oracles import brute_force_monomials

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


@pytest.mark.parametrize("name", ["cubic-6n.hyp", "sextic-12n.hyp",
                                  "quartic-rational.hyp"])
def test_build_matches_golden(name):
    expected = (GOLDEN / name).read_text()
    space, degree, nodes, _ = dsl.parse_instance(expected)
    if name == "sextic-12n.hyp":
        # every kernel vector of its node constraints vanishes on x3^3, so
        # every such sextic passes through e3, a singular point of P(1,1,1,2,3)
        with pytest.raises(NodeAtAmbientSingularity,
                           match=r"through e3 = \(0:0:0:1:0\)"):
            wps.build_nodal_hypersurface(space, degree, nodes, seed=0)
        return
    hyp = wps.build_nodal_hypersurface(space, degree, nodes, seed=0)
    assert dsl.render_instance(hyp) == expected


BUILD_DIGESTS = json.loads((GOLDEN / "build-digests.json").read_text())


@pytest.mark.parametrize("case", BUILD_DIGESTS, ids=lambda c: (
    f"{c['degree']}-{len(c['nodes'])}n-seed{c['seed']}"))
def test_build_digest_matches_golden(case):
    space = wps.WeightedSpace(tuple(case["weights"]))
    nodes = [tuple(p) for p in case["nodes"]]
    hyp = wps.build_nodal_hypersurface(space, case["degree"], nodes, seed=case["seed"])
    text = repr((hyp.coefficients, wps.defect(hyp)))
    assert sha256(text.encode()).hexdigest() == case["sha256"]


def test_segre_cubic_has_defect_five(capsys):
    """``segre-cubic.hyp`` is sum x_i^3 - (sum x_i)^3 on P^4 with its ten
    nodes, the permutations of (1, 1, 1, -1, -1): mu = 10 and defect 5."""
    path = GOLDEN / "segre-cubic.hyp"
    space, degree, nodes, coeffs = dsl.parse_instance(path.read_text())
    assert sorted(nodes) == sorted(set(permutations((1, 1, 1, -1, -1))))
    cube = [int(max(e) == 3) - 6 // prod(map(factorial, e))
            for e in brute_force_monomials(space.weights, degree)]
    assert coeffs == cube
    assert main(["defect", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "weights": [1, 1, 1, 1, 1], "degree": 3,
        "mu": 10, "h0_L": 5, "eval_rank": 5, "delta": 5}


@pytest.mark.parametrize("name", ["double-burban", "cycle6-r3", "alternating-3"])
def test_quiver_report_matches_golden(name, capsys):
    source = GOLDEN / f"{name}.quiver"
    arg = str(source) if source.is_file() else name
    assert main(["quiver", arg, "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


DEFECT_REPORTS = json.loads((GOLDEN / "defect-reports.json").read_text())


@pytest.mark.parametrize("case", DEFECT_REPORTS, ids=lambda c: " ".join(c["argv"][1:]))
def test_defect_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(case["argv"])
    assert (code, out.getvalue(), err.getvalue()) == \
        (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("seed", ["0", "1", "7"])
@pytest.mark.parametrize("script, golden", [
    ("defect_survey.py", "defect-survey.txt"),
    ("replay_proofs.py", "replay-proofs.txt"),
])
def test_script_prints_its_golden_text(script, golden, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(delpezzo.__file__).parent.parent))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / golden).read_text()
