import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import delpezzo
from delpezzo.cli import SUBCOMMANDS, _json_report, _route, build_parser, main
from delpezzo.dsl import render_instance, render_script, load_builtin_script
from delpezzo.wps import WeightedSpace, build_nodal_hypersurface


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODULE_ENV = dict(os.environ, PYTHONPATH=str(Path(delpezzo.__file__).parent.parent))
GOLDEN = Path(__file__).parent / "golden"


def run_module(*argv, timeout=60, **options):
    """`python -m delpezzo <argv>` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "delpezzo", *argv],
                          capture_output=True, text=True, env=MODULE_ENV,
                          timeout=timeout, **options)


def test_seed_belongs_to_defect_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "d=5", "nodes=2", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_gate_subcommand(capsys):
    code, out, _ = run(capsys, "gate", "d=5", "nodes=2")
    assert code == 0
    assert "Kawamata decomposition exists" in out


def test_gate_json(capsys):
    code, out, _ = run(capsys, "gate", "--json", "d=4", "nodes=1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is False
    assert payload["reasons"][0]["code"] == "curve-k-minus-one"


def test_gate_input_errors(capsys):
    code, _, err = run(capsys, "gate", "d=7", "nodes=1")
    assert code == 2
    assert "InvalidDegree" in err
    code, _, err = run(capsys, "gate", "d=5")
    assert code == 2


def test_error_reports_carry_stable_codes(capsys):
    code, _, err = run(capsys, "gate", "--json", "d=7", "nodes=1")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["name"] == "InvalidDegree"
    assert payload["error"]["code"] == 51


def test_replay_subcommand(capsys):
    code, out, _ = run(capsys, "replay", "prop-Y-to-W-4", "--quiet")
    assert code == 0
    assert "<Db(C), O(-h), O(D-2h), O, O(h)>" in out


def test_replay_audit_text(capsys):
    code, out, _ = run(capsys, "replay", "prop-Y-to-V")
    assert code == 0
    assert "step 9: opaque_transpose at 2 left" in out
    assert "<A_V5, O(E-H), O(-E), O, O(H-E)>" in out


def test_replay_json(capsys):
    code, out, _ = run(capsys, "replay", "prop-Y-to-W-5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["final"] == ["A_C", "A_Q", "O(-h)", "O(D-h)", "O", "O(h)"]
    assert len(payload["audit"]["steps"]) == 4  # one axiom entry + 3 rules


def test_replay_corrupted_script_fails(tmp_path, capsys):
    script = load_builtin_script("prop-Y-to-V")
    text = render_script(script).replace("swap at 4", "swap at 3")
    bad = tmp_path / "bad.sod"
    bad.write_text(text)
    code, _, err = run(capsys, "replay", str(bad))
    assert code == 1
    assert "SideConditionFailed" in err


def test_replay_final_mismatch_exit_code(tmp_path, capsys):
    script = load_builtin_script("prop-Y-to-W-5")
    text = render_script(script).replace("O(0), O(h)>", "O(h), O(0)>")
    bad = tmp_path / "mismatch.sod"
    bad.write_text(text)
    code, _, err = run(capsys, "replay", str(bad))
    assert code == 1
    assert "FinalMismatch" in err


@pytest.mark.parametrize("d, axiom, rule, detail", [
    (6, "O(0), O(H)", "triangle_exchange at 1 support D direction 1",
     "triangle_exchange (step 1): no hD relations registered for degree 6"),
    # ruling_fiber_degree has no {h, D} at degree 6, so the oracle stays silent
    (6, "O(H), O_D(H)", "swap at 1",
     "swap (step 1): Vanish(O(H) -> O_D(H)) is not derivable; "
     "the pair is not known completely orthogonal"),
    (5, "O_D(0), O_D(H)", "fiber_rebase at 1 shift -F",
     "fiber_rebase (step 1): a rebase class is registered only for the "
     "line-side exceptional divisor"),
    (5, "O_E(H), O_E(3H)", "fiber_rebase at 1 shift -F",
     "fiber_rebase (step 1): pair twists must differ by H"),
])
def test_replay_refuses_a_side_condition(tmp_path, capsys, d, axiom, rule, detail):
    bad = tmp_path / "refused.sod"
    bad.write_text(f"ambient Y d={d}\naxiom <{axiom}>\n{rule}\nexpect <{axiom}>\n")
    code, out, err = run(capsys, "replay", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error [SideConditionFailed/30]: {detail}\n"


def test_replay_refuses_an_expect_line_one_node_short(tmp_path, capsys):
    bad = tmp_path / "short.sod"
    bad.write_text("ambient Y d=5\naxiom <O(0), O(H)>\nexpect <O(0)>\n")
    code, out, err = run(capsys, "replay", str(bad))
    assert (code, out) == (1, "")
    assert err.splitlines()[:3] == [
        "error [FinalMismatch/33]: final decomposition differs from the expected one:",
        "length 2 != 1", "replay short on Y5"]


def test_replay_syntax_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "syntax.sod"
    bad.write_text("ambient Y d=5\nswap att 3\n")
    code, _, err = run(capsys, "replay", str(bad))
    assert code == 2
    assert "ScriptSyntaxError" in err


def test_hd_literal_without_relations_names_its_position(tmp_path, capsys):
    bad = tmp_path / "sextic.sod"
    bad.write_text("ambient Y d=6\naxiom <CAT(DbY)>\nexpect <O(0), O(h)>\n")
    code, _, err = run(capsys, "replay", str(bad))
    assert code == 2
    assert err == ("error [NoRelationsForDegree/22]: line 3, col 15: "
                   "no hD relations registered for degree 6\n")


def test_intersect_subcommand(capsys):
    code, out, _ = run(capsys, "intersect", "d=4", "(H-E)^3")
    assert code == 0
    assert "= 1" in out
    code, out, _ = run(capsys, "intersect", "--json", "d=5", "(H-E)^3")
    assert json.loads(out)["value"] == 2


def test_intersect_rejects_wrong_degree(capsys):
    code, _, err = run(capsys, "intersect", "d=4", "(H-E)^2")
    assert code == 2


@pytest.mark.parametrize("argv, key", [
    (["gate", "d=5", "d=3", "nodes=1"], "d"),
    (["intersect", "d=4", "d=5", "H^3"], "d"),
    (["degenerations", "d=5", "nodes=1", "nodes=2"], "nodes"),
], ids=["gate", "intersect", "degenerations"])
def test_a_repeated_argument_is_refused(capsys, argv, key):
    # the last value used to win silently
    assert run(capsys, *argv) == (
        2, "", f"error [InstanceFormatError/71]: argument {key} given more than once\n")


def test_intersect_refuses_an_empty_class(capsys):
    # '()' used to read as the class 0
    assert run(capsys, "intersect", "d=5", "()^3") == (
        2, "", "error [InstanceFormatError/71]: col 2: expected a class like H-E, -h or 0\n")


def test_defect_subcommand(tmp_path, capsys):
    hyp = build_nodal_hypersurface(WeightedSpace((1, 1, 1, 1, 1)), 3,
                                   [(0, 0, 0, 0, 1)])
    inst = tmp_path / "cubic.hyp"
    inst.write_text(render_instance(hyp))
    code, out, _ = run(capsys, "defect", "--json", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"weights": [1, 1, 1, 1, 1], "degree": 3, "mu": 1,
                       "h0_L": 5, "eval_rank": 1, "delta": 0}


def test_defect_builds_when_no_coefficients(tmp_path, capsys):
    inst = tmp_path / "build.hyp"
    inst.write_text("weights 1 1 1 1 2\ndegree 4\nnode 1 0 0 0 0\n")
    code, out, _ = run(capsys, "defect", "--json", "--seed", "3", str(inst))
    assert code == 0
    assert json.loads(out)["delta"] == 0


def test_degree_zero_with_a_node_has_no_solution(tmp_path, capsys):
    # degree 0 keeps the value row: the Euler identity puts it in the span
    # of the partial rows only in positive degree
    inst = tmp_path / "constant.hyp"
    inst.write_text("weights 1 1 1 1 1\ndegree 0\nnode 1 0 0 0 0\n")
    code, out, err = run(capsys, "defect", str(inst))
    assert (code, out) == (2, "")
    assert err == "error [NoSolution/10]: node constraints force the zero form\n"


def test_defect_rejects_singular_node(tmp_path, capsys):
    inst = tmp_path / "sing.hyp"
    inst.write_text("weights 1 1 1 2 3\ndegree 6\nnode 0 0 0 1 0\n")
    code, _, err = run(capsys, "defect", str(inst))
    assert code == 2
    assert "NodeAtAmbientSingularity" in err


@pytest.mark.parametrize("body", [
    "weights 1 1 x\ndegree 3\n",
    "weights 2 2\ndegree 4\n",
    "weights 1 1 1 1 0\ndegree 3\n",
    "weights 1 1 1 1 1\ndegree x\n",
    "weights 1 1 1 1 1\ndegree -1\n",
])
def test_defect_malformed_instance_is_an_input_fault(tmp_path, body):
    inst = tmp_path / "bad.hyp"
    inst.write_text(body)
    proc = run_module("defect", str(inst))
    assert proc.returncode == 2
    assert "InstanceFormatError" in proc.stderr
    assert "line " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("nodes, message", [
    ("node 0 0 0 0 0\n", "the zero tuple is not a point"),
    ("node 1 0 0 0 0\nnode 2 0 0 0 0\n", "nodes must be pairwise distinct"),
    ("node 1 0 0\n", "node 1 0 0 has 3 coordinates, expected 5"),
])
def test_defect_invalid_node_is_an_input_fault(tmp_path, nodes, message):
    inst = tmp_path / "bad.hyp"
    inst.write_text("weights 1 1 1 1 1\ndegree 3\n" + nodes)
    proc = run_module("defect", str(inst))
    assert proc.returncode == 2
    assert proc.stderr == f"error [InvalidNode/16]: {message}\n"


@pytest.mark.parametrize("count, name, message", [
    (16, "NegativeLDegree", "adjoint twist has degree -10; formula does not apply"),
    (17, "InstanceFormatError", "line 1: need 2 to 16 weights, got 17"),
    # past the recursion limit of the monomial search, which recurses per weight
    (3000, "InstanceFormatError", "line 1: need 2 to 16 weights, got 3000"),
], ids=["16", "17", "3000"])
def test_defect_bounds_the_number_of_weights(tmp_path, count, name, message):
    inst = tmp_path / "wide.hyp"
    inst.write_text("weights" + " 1" * count + "\ndegree 3\n")
    proc = run_module("defect", "--json", str(inst), timeout=20)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert (error["name"], error["message"]) == (name, message)


@pytest.mark.parametrize("body, message", [
    ("weights 1 1 1 1 1\ndegree 1000000\nnode 1 0 0 0 0\n",
     "degree 1000000 on P(1, 1, 1, 1, 1) has more than 2,000 monomials"),
    ("weights 1 1000000007\ndegree 10000000000000\n",
     "degree 10000000000000 on P(1, 1000000007) has more than 2,000 monomials"),
    # degree 12 has 1,820 monomials, its adjoint degree 19 has 8,855
    ("weights 1 1 1 1 1\ndegree 12\ncoeffs 1" + " 0" * 1819 + "\n",
     "adjoint twist L: degree 19 on P(1, 1, 1, 1, 1) has more than 2,000 monomials"),
])
def test_defect_refuses_a_degree_with_too_many_monomials(tmp_path, body, message):
    inst = tmp_path / "big.hyp"
    inst.write_text(body)
    proc = run_module("defect", "--json", str(inst), timeout=20)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == {
        "name": "DegreeTooLarge", "code": 17, "message": message}


def test_defect_answers_a_skewed_degree_with_few_monomials(tmp_path):
    # 1,001 monomials, and 1,999 in the adjoint degree: within the bound;
    # the degree is 1,000 times the heavy weight, so x1^1000 keeps the
    # form off the singular point e1 = (0:1)
    inst = tmp_path / "skewed.hyp"
    inst.write_text("weights 1 1000000007\ndegree 1000000007000\n")
    proc = run_module("defect", "--json", str(inst), timeout=20)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h0_L"] == 1999
    # no power of x1 has degree 10**12, so every such form passes through e1
    inst.write_text("weights 1 1000000007\ndegree 1000000000000\n")
    proc = run_module("defect", "--json", str(inst), timeout=20)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["name"] == "NodeAtAmbientSingularity"


def test_defect_of_a_heavy_node_with_a_denominator(tmp_path):
    # the node's integer point is (2, 2**999999, 2**1000000), so each constraint
    # row carries a factor of about 2 * 10**6 bits; the builder divides it out
    # before the elimination, whose integers would otherwise carry it
    inst = tmp_path / "heavy.hyp"
    inst.write_text("weights 1 1000000 1000000\ndegree 2000000\nnode 1 1/2 1\n")
    proc = run_module("defect", str(inst), timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("hypersurface of degree 2000000 on P(1, 1000000, 1000000)\n"
                           "mu = 1, h0(L) = 3, evaluation rank = 1, defect = 0\n")


_NINES = "9" * 4300   # the longest integer a .hyp line can hold


@pytest.mark.parametrize("body, name", [
    ("weights 1 {s} {s}\ndegree 3\n".format(s="7" * 4000), "NodeAtAmbientSingularity"),
    ("weights 1 1 1 1 1\ndegree {}\n".format("9" * 4000), "DegreeTooLarge"),
    # the adjoint degrees 2 * 5997 * 10**4296 - 3 * 10**4296 - 1 and
    # 2 * N - 15 * N - 1 have 4,301 and 4,302 digits, past Python's
    # int-string limit
    ("weights 1 3{z}\ndegree 5997{z}\n".format(z="0" * 4296), "DegreeTooLarge"),
    (f"weights 1{f' {_NINES}' * 15}\ndegree {_NINES}\n", "NegativeLDegree"),
], ids=["weights", "degree", "adjoint-degree", "negative-adjoint-degree"])
def test_defect_clips_long_weights_and_degrees(tmp_path, body, name):
    inst = tmp_path / "long.hyp"
    inst.write_text(body)
    proc = run_module("defect", str(inst), timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error [{name}/")
    assert len(proc.stderr.encode()) < 300


def test_defect_clips_a_long_node_that_fails_its_check(tmp_path):
    inst = tmp_path / "long-node.hyp"
    inst.write_text("weights 1 1 1 1 1\ndegree 1\n"
                    "node 1 {} 0 0 0\ncoeffs 1 0 0 0 0\n".format("7" * 4000))
    proc = run_module("defect", str(inst), timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("error [InvariantViolation/15]: "
                           f"gradient does not vanish at (1:{'7' * 125}...\n")


def test_quiver_subcommand(capsys):
    code, out, _ = run(capsys, "quiver", "single-burban", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["cartan"] == [[1, 1], [1, 1]]
    assert payload["k0_rank"] == 2


def test_quiver_from_file(tmp_path, capsys):
    qf = tmp_path / "loop.quiver"
    qf.write_text("vertices 1\narrow a 1 1\nrelation a a\n")
    code, out, _ = run(capsys, "quiver", str(qf), "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 2


@pytest.mark.parametrize("body, line", [
    ("vertices 1 1\n", "line 1"),
    ("vertices 1 2\narrow a 1 2\narrow a 2 1\n", "line 3"),
    ("vertices 1\narrow a 1 9\n", "line 2"),
])
def test_quiver_malformed_file_is_an_input_fault(tmp_path, body, line):
    qf = tmp_path / "bad.quiver"
    qf.write_text(body)
    proc = run_module("quiver", str(qf))
    assert proc.returncode == 2
    assert "InstanceFormatError" in proc.stderr
    assert line in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("n", [3, 4])
def test_quiver_complete_graph_is_infinite_at_once(tmp_path, n):
    vertices = [str(i) for i in range(1, n + 1)]
    lines = ["vertices " + " ".join(vertices)]
    lines += [f"arrow a{s}{t} {s} {t}" for s in vertices for t in vertices if s != t]
    qf = tmp_path / f"complete-{n}.quiver"
    qf.write_text("\n".join(lines) + "\n")
    proc = run_module("quiver", str(qf), "--json", timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] is None


def test_quiver_basis_past_the_cap_is_an_input_fault(tmp_path):
    # a line of 14 vertices, 4 parallel arrows per edge: ~10^8 paths
    lines = ["vertices " + " ".join(str(i) for i in range(14))]
    lines += [f"arrow a{i}_{k} {i} {i + 1}" for i in range(13) for k in range(4)]
    qf = tmp_path / "wide-line.quiver"
    qf.write_text("\n".join(lines) + "\n")
    proc = run_module("quiver", str(qf), "--json", timeout=20)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert (error["name"], error["code"]) == ("BasisTooLarge", 42)


@pytest.mark.parametrize("command, name, body", [
    ("quiver", "bad.quiver", b"vertices 1\n\xff\n"),
    ("defect", "bad.hyp", b"weights 1 1 1 1 1\ndegree 3\n\xfe\n"),
    ("replay", "bad.sod", b"ambient \xff\n"),
])
def test_non_utf8_input_is_an_input_fault(tmp_path, command, name, body):
    path = tmp_path / name
    path.write_bytes(body)
    proc = run_module(command, str(path), "--json")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert (error["name"], error["code"]) == ("UndecodableInput", 72)
    assert str(path) in error["message"]


def test_defect_on_a_directory_is_an_input_fault(tmp_path):
    folder = tmp_path / "instances"
    folder.mkdir()
    proc = run_module("defect", str(folder), "--json")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert (error["name"], error["code"]) == ("InstanceFormatError", 71)
    assert str(folder) in error["message"]


def test_defect_on_a_missing_file_is_an_input_fault(capsys, tmp_path):
    missing = tmp_path / "absent.hyp"
    code, out, err = run(capsys, "defect", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error [InstanceFormatError/71]: {missing}: No such file or directory\n"
    code, out, err = run(capsys, "defect", str(missing), "--json")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "name": "InstanceFormatError", "code": 71,
        "message": f"{missing}: No such file or directory"}


def test_quiver_unknown_name(capsys):
    code, _, err = run(capsys, "quiver", "missing-quiver")
    assert code == 2


def test_catalog_subcommand(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 9
    code, out, _ = run(capsys, "catalog", "5")
    assert code == 0
    assert "quadric threefold fibration" in out


def test_catalog_unknown_degree(capsys):
    code, _, _ = run(capsys, "catalog", "11")
    assert code == 2


def test_degenerations_subcommand(capsys):
    code, out, _ = run(capsys, "degenerations", "--json", "d=5", "nodes=3")
    assert code == 0
    assert json.loads(out)["cases"] == [
        {"nodes_C": 2, "nodes_Q": 1, "A_C": "3-vertex chain algebra",
         "A_Q": "single 2-vertex algebra"}]
    code, _, err = run(capsys, "degenerations", "d=5", "nodes=9")
    assert code == 2
    assert "BudgetExceeded" in err


def test_reports_are_deterministic(tmp_path, capsys):
    inst = tmp_path / "det.hyp"
    inst.write_text("weights 1 1 1 1 1\ndegree 3\nnode 0 0 0 0 1\nnode 0 0 1 0 0\n")
    _, out1, _ = run(capsys, "defect", "--json", "--seed", "5", str(inst))
    _, out2, _ = run(capsys, "defect", "--json", "--seed", "5", str(inst))
    assert out1 == out2
    _, replay1, _ = run(capsys, "replay", "prop-Y-to-V")
    _, replay2, _ = run(capsys, "replay", "prop-Y-to-V")
    assert replay1 == replay2


def test_parser_is_shared_but_calls_are_independent(capsys):
    assert build_parser() is build_parser()
    calls = [("gate", "--json", "d=5", "nodes=2"), ("catalog", "5"),
             ("intersect", "d=4", "(H-E)^3", "--json"), ("gate", "d=5", "nodes=2")]
    first = [run(capsys, *argv) for argv in calls]
    again = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert first == again
    assert json.loads(first[0][1])["exists"] is True
    assert first[3][1].startswith("d=5, nodes=2:")
    assert json.loads(first[2][1])["value"] == 1
    assert not first[1][1].lstrip().startswith("{")


def _parsed(parse, argv):
    """The namespace fields parse(argv) returns, or the exit code and the
    stdout and stderr text of the SystemExit it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


_DOCUMENTED = [
    ("defect", "x.hyp"), ("defect", "x.hyp", "--seed", "3"), ("defect", "--seed", "3", "x.hyp"),
    ("replay", "prop-Y-to-V"), ("replay", "--quiet", "prop-Y-to-V"),
    ("intersect", "d=5", "(H-E)^3"), ("intersect", "d=5", "(H-E)^3", "--json"),
    ("quiver", "double-burban"), ("quiver", "double-burban", "--json", "--quiet"),
    ("catalog",), ("catalog", "5"), ("catalog", "--json", "5"),
    ("gate", "d=5", "nodes=2"), ("gate", "--json", "d=5", "nodes=2"),
    ("degenerations", "d=5", "nodes=3"),
    ("defect", "--seed=-1", "x.hyp"), ("gate", "--", "d=5", "nodes=2"), ("quiver", "--", "-x"),
    ("gate", "d=5", "nodes=2", "--js"), ("catalog", "5", "--q"),
]
# forms argparse alone reads: an option's '=' value, '--', an abbreviation
_FULL_PARSER = _DOCUMENTED[-5:]


@pytest.mark.parametrize("argv", _DOCUMENTED)
def test_a_plain_form_is_matched_without_argparse_and_the_rest_by_the_full_parser(argv):
    spies = [mock.patch.object(argparse.ArgumentParser, method, autospec=True,
                               side_effect=getattr(argparse.ArgumentParser, method))
             for method in ("parse_known_args", "parse_args")]
    with spies[0] as parse_known_args, spies[1] as parse_args:
        fields = _parsed(_route, argv)
    assert fields == _parsed(build_parser().parse_args, argv)
    assert fields["command"] == argv[0]
    if argv in _FULL_PARSER:
        assert [call.args for call in parse_args.call_args_list] == \
            [(build_parser(), list(argv))]
    else:
        assert parse_known_args.call_count == parse_args.call_count == 0


@pytest.mark.parametrize("argv", [
    (), ("-h",), ("--help",), ("gate", "-h"), ("gate", "--help"), ("defect", "-h", "x.hyp"),
    ("bogus",), ("gat", "d=5"), ("gate",), ("defect",), ("defect", "x.hyp", "--seed", "x"),
    ("catalog", "x"), ("catalog", "5", "6"), ("gate", "d=5", "nodes=2", "--seed", "1"),
    ("quiver", "double-burban", "extra"), ("gate", "d=5", "--json", "nodes=2"),
    ("--", "gate", "d=5", "nodes=2"), ("--json", "gate", "d=5", "nodes=2"),
    ("--quiet",), ("-h", "gate"), ("gate", "--help=1"), ("gate", "-x", "d=5"),
])
def test_help_usage_and_errors_are_the_full_parsers(argv):
    code, out, err = _parsed(_route, argv)
    assert (code, out, err) == _parsed(build_parser().parse_args, argv)
    assert (code, bool(out)) == ((0, True) if "-h" in argv or "--help" in argv else (2, False))
    assert err.startswith("usage: delpezzo") or (code, err) == (0, "")


_WORDS = st.sampled_from([name for name, *_ in SUBCOMMANDS]
                         + ["--json", "--quiet", "-h", "--", "--seed", "--seed=3", "3", "5",
                            "-1", "", "x.hyp", "d=5", "nodes=2", "k=v", "extra", "-x", "--js"])


@given(st.lists(_WORDS, max_size=6))
@example(["gate", "d=5", "nodes=2"])
def test_the_route_gives_what_the_full_parser_gives(argv):
    assert _parsed(_route, argv) == _parsed(build_parser().parse_args, argv)


_INTS = ["5", "-1", "5_0", "\u0665", ""]   # \u0665 is the Arabic-Indic digit 5
_RUN_WORDS = st.sampled_from(["x.hyp", "some dir/y.quiver", "double-burban", "d=5",
                              "nodes=2", "(H-E)^3", *_INTS])


@st.composite
def _row_argv(draw):
    """argv of one SUBCOMMANDS row: a run of positional words, with --json,
    --quiet and the row's own options put before it, after it or inside it."""
    name, _, _, arguments = draw(st.sampled_from(SUBCOMMANDS))
    options = [["--json"], ["--quiet"]]
    for arg, _ in arguments:
        if arg.startswith("--"):
            options += [[arg, n] for n in _INTS] + [[f"{arg}={n}"] for n in _INTS]
    argv = draw(st.lists(_RUN_WORDS, max_size=3))
    for option in draw(st.lists(st.sampled_from(options), max_size=3)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = option
    return [name, *argv]


@settings(max_examples=400)
@given(_row_argv())
@example(["gate", "d=5", "--json", "nodes=2"])
@example(["defect", "--seed", "1", "x.hyp", "--seed", "2"])
@example(["catalog", "--quiet", "\u0665"])
def test_the_route_gives_what_the_full_parser_gives_on_each_rows_forms(argv):
    assert _parsed(_route, argv) == _parsed(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    ("defect", str(GOLDEN / "segre-cubic.hyp")),
    ("replay", "prop-Y-to-V"),
    ("replay", "prop-Y-to-W-5"),
    ("intersect", "d=5", "(H-E)^3"),
    ("quiver", "double-burban"),
    ("quiver", str(GOLDEN / "cycle6-r3.quiver")),
    ("catalog",),
    ("catalog", "5"),
    ("gate", "d=5", "nodes=2"),
    ("gate", "d=3", "nodes=1"),
    ("degenerations", "d=5", "nodes=3"),
])
def test_quiet_prints_the_first_line_of_the_text_report(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and out
    assert run(capsys, *argv, "--quiet") == (code, out.splitlines(True)[0], err)


def test_quiet_final_mismatch_prints_the_error_without_the_audit(tmp_path, capsys):
    text = render_script(load_builtin_script("prop-Y-to-W-5"))
    bad = tmp_path / "mismatch.sod"
    bad.write_text(text.replace("O(0), O(h)>", "O(h), O(0)>"))
    code, out, err = run(capsys, "replay", str(bad), "--quiet")
    assert (code, out) == (1, "")
    assert err.startswith("error [FinalMismatch/33]: final decomposition differs")
    full = run(capsys, "replay", str(bad))
    assert full[:2] == (1, "")
    assert full[2].startswith(err) and len(full[2]) > len(err)


@pytest.mark.parametrize("argv", [
    ("quiver", "double-burban", "--json"),
    ("replay", "prop-Y-to-V"),
    ("catalog", "--json"),
])
def test_a_closed_stdout_ends_quietly_with_the_command_exit_code(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)   # every write to stdout fails with EPIPE
    try:
        proc = subprocess.Popen([sys.executable, "-m", "delpezzo", *argv],
                                stdout=write_end, stderr=subprocess.PIPE,
                                env=MODULE_ENV)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("expr, got", [
    ("H^10000000000", "10000000000"),
    ("H^{0}*H^{0}".format("9" * 4300), "at least 10^300"),
], ids=["ten-billion", "two-4300-digit-powers"])
def test_intersect_counts_a_huge_power_instead_of_expanding_it(expr, got):
    proc = run_module("intersect", "d=5", expr,
                      preexec_fn=_one_gigabyte_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error [InstanceFormatError/71]: intersection "
                           f"products are trilinear; got {got} factors\n")


_LONG = "7" * 5000   # over Python's int-string limit
_TOO_LONG = f"expected an integer of at most {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize("body, where", [
    (f"ambient Y d=5\naxiom <O({_LONG}H), O(0)>\nexpect <O(0)>\n",
     "line 2, col 10"),
    (f"ambient Y d=5\naxiom <O(H)>\nexpect <O(-{_LONG}E)>\n",
     "line 3, col 12"),
    (f"ambient Y d=5\naxiom <O(H), O(0)>\nswap at {_LONG}\nexpect <O(0)>\n",
     "line 3, col 9"),
    (f"ambient Y d=5\naxiom <O(H)>\nserre_rotate left at {_LONG}..2\n"
     "expect <O(0)>\n", "line 3, col 22"),
    (f"ambient Y d=5\naxiom <O(H)>\nserre_rotate left at 1..{_LONG}\n"
     "expect <O(0)>\n", "line 3, col 25"),
    (f"ambient Y d={_LONG}\naxiom <O(H)>\nexpect <O(0)>\n", "line 1, col 13"),
], ids=["axiom-class", "expect-class", "position", "block-start", "block-end",
        "header-d"])
def test_a_long_integer_in_a_script_is_a_syntax_error(tmp_path, capsys, body, where):
    script = tmp_path / "long.sod"
    script.write_text(body)
    assert run(capsys, "replay", str(script)) == (
        2, "", f"error [ScriptSyntaxError/70]: {where}: {_TOO_LONG}\n")


@pytest.mark.parametrize("expr, col", [
    (f"{_LONG}H^3", 1),
    (f"H * (H-{_LONG}E)^2", 8),
    (f"H^{_LONG}", 3),
    (f"E^2 * H ^{_LONG}", 10),
], ids=["class", "class-in-parens", "power", "power-after-space"])
def test_a_long_integer_in_an_intersection_names_its_column(capsys, expr, col):
    assert run(capsys, "intersect", "d=5", expr) == (
        2, "", f"error [InstanceFormatError/71]: col {col}: {_TOO_LONG}\n")


@pytest.mark.parametrize("arg, message", [
    ("d=" + "9" * 5000, f"d needs an integer of at most {sys.get_int_max_str_digits()} "
                        "digits, got '{}'...".format("9" * 32)),
    ("d=" + "x" * 5000, "d needs an integer, got '{}'...".format("x" * 32)),
    ("d=x", "d needs an integer, got 'x'"),
    ("k" * 5000 + "=1", "unknown argument '{}'...".format("k" * 32)),
    ("q" * 5000, "expected key=value, got '{}'...".format("q" * 32)),
], ids=["long-integer", "long-word", "word", "long-key", "long-pair"])
def test_a_key_value_error_echoes_a_bounded_argument(capsys, arg, message):
    code, out, err = run(capsys, "gate", arg, "nodes=1")
    assert (code, out) == (2, "")
    assert err == f"error [InstanceFormatError/71]: {message}\n"
    assert len(err.encode()) < 200


_NAME = "x" * 5000


@pytest.mark.parametrize("argv", [
    ("defect", _NAME), ("replay", _NAME), ("quiver", _NAME),
    ("defect", str(GOLDEN / "cubic-6n.hyp" / "x")),
], ids=["defect-long-name", "replay-long-name", "quiver-long-name", "defect-below-a-file"])
def test_a_path_the_system_refuses_is_an_input_fault(argv):
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error [InstanceFormatError/71]: ")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 300


@pytest.mark.parametrize("name, body, message", [
    ("degree.hyp", "weights 1 1 1 1 1\ndegree " + "9" * 5000 + "\n",
     f"InstanceFormatError/71]: line 2: bad integer, over "
     f"{sys.get_int_max_str_digits()} digits: '{'9' * 32}'..."),
    ("node.hyp", "weights 1 1 1 1 1\ndegree 3\nnode " + "a" * 5000 + "\n",
     f"InstanceFormatError/71]: line 3: bad rational '{'a' * 32}'..."),
    ("twice.quiver", f"vertices {_NAME} {_NAME}\n",
     f"InstanceFormatError/71]: line 1: duplicate vertex '{'x' * 32}'..."),
    ("relation.quiver", f"vertices a\narrow r a a\nrelation {_NAME}\n",
     f"MalformedRelation/40]: unknown arrow '{'x' * 32}'... in relation"),
    ("wide-node.hyp", "weights 1 1 1 1 1\ndegree 3\nnode 1" + " 0" * 2999 + "\n",
     f"InvalidNode/16]: node 1{' 0' * 15} ... has 3000 coordinates, expected 5"),
    ("tall-node.hyp", "weights 1 1 1 1 1\ndegree 3\nnode" + (" " + "7" * 4000) * 3 + "\n",
     f"InvalidNode/16]: node {'7' * 32}... has 3 coordinates, expected 5"),
], ids=["long-degree", "long-node-token", "long-duplicate-vertex", "long-relation-arrow",
        "node-of-3000-coordinates", "node-of-4000-digit-coordinates"])
def test_a_file_token_error_echoes_a_bounded_token(tmp_path, capsys, name, body, message):
    path = tmp_path / name
    path.write_text(body)
    command = "quiver" if name.endswith(".quiver") else "defect"
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"error [{message}\n"
    assert len(err.encode()) < 200


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
_TEXT = st.text(st.characters(exclude_categories=()))   # lone surrogates too
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _TEXT,
    st.builds(lambda n, sign: sign * (10 ** n - 1),   # n digits, up to the limit
              st.integers(1, _INT_DIGITS), st.sampled_from((1, -1))))
_KEYS = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())
_REPORTS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(_TEXT, max_size=4), st.lists(st.integers() | st.booleans(), max_size=4),
    st.dictionaries(_TEXT, inner, max_size=4),
    _KEYS.flatmap(lambda key: st.dictionaries(st.just(key) | _KEYS.filter(
        lambda k: type(k) is type(key)), inner, max_size=3))), max_leaves=12)


@given(_REPORTS)
@example({"a": [[], {}, ()], "b": {1: [{"c": ()}], 2: {}}, "": [[[]]]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, True, 1, "\ud800\x7f\u00e9"])
def test_the_json_writer_writes_what_json_dumps_writes(report):
    assert _json_report(report) == json.dumps(report, indent=2, sort_keys=True)


_INPUTS = {"built.hyp": "weights 1 1 1 1 1\ndegree 3\nnode 0 0 0 0 1\nnode 0 0 1 0 0\n",
           "loop.quiver": "vertices 1\narrow a 1 1\n"}   # a free loop: infinite


@pytest.mark.parametrize("argv, exit_code", [
    (("gate", "d=5", "nodes=2"), 0),
    (("catalog",), 0),
    (("degenerations", "d=5", "nodes=3"), 0),
    (("intersect", "d=5", "(H-E)^3"), 0),
    (("replay", "prop-Y-to-W-5"), 0),
    (("quiver", "double-burban"), 0),
    (("quiver", str(GOLDEN / "cycle6-r3.quiver")), 0),
    (("quiver", "loop.quiver"), 0),
    (("defect", str(GOLDEN / "cubic-6n.hyp")), 0),
    (("defect", "built.hyp"), 0),
    (("replay", "mismatch.sod"), 1),
    (("gate", "d=7", "nodes=1"), 2),
])
def test_a_json_report_is_its_own_json_dumps(tmp_path, capsys, argv, exit_code):
    script = render_script(load_builtin_script("prop-Y-to-W-5"))
    inputs = dict(_INPUTS, **{"mismatch.sod": script.replace("O(0), O(h)>", "O(h), O(0)>")})
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    code, out, err = run(capsys, *argv, "--json")
    text = err if code else out
    assert code == exit_code and text
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
