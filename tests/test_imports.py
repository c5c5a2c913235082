"""Which modules each entry point loads, and the package's public names.

Every check runs in a fresh interpreter, since a module loaded by an
earlier test would hide an import that the entry point makes itself.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo

SRC = Path(delpezzo.__file__).parent.parent

# The package's public names, by defining module.
EXPORTS = {
    "catalog": ["DegenerationCase", "DelPezzoEntry", "enumerate_degenerations",
                "lookup"],
    "intersection": ["BlowupGeometry", "DivisorClass", "canonical_class",
                     "from_hd", "he", "rewrite", "triple"],
    "ktheory": ["ComponentModel", "GateVerdict", "KProfile", "consistency_check",
                "k0_total", "k_minus1_total", "kawamata_gate", "standard_models"],
    "lattice": ["IntMatrix", "rank", "rational_nullspace"],
    "mutations": ["AuditLog", "Equivalence", "MutationRule", "ReplayScript",
                  "apply_rule", "compare_and_solve", "pushforward_vanishing",
                  "replay"],
    "quivers": ["PathAlgebraReport", "Quiver", "double_burban", "k0_rank",
                "path_basis", "single_burban"],
    "sod": ["Decomposition", "FactStore", "LineBundle", "Opaque", "SodNode",
            "TwistedStructureSheaf", "query_complete_orthogonality",
            "record_decomposition", "validate"],
    "wps": ["DefectReport", "NodalHypersurface", "WeightedSpace",
            "build_nodal_hypersurface", "defect", "enumerate_monomials"],
}


def fresh(code: str):
    """Run `code` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(statement: str) -> set[str]:
    """The delpezzo submodules loaded by `statement`, short names."""
    return set(fresh(
        "import json, sys\n" + statement + "\n"
        "print(json.dumps(sorted(m[len('delpezzo.'):] for m in sys.modules"
        " if m.startswith('delpezzo.'))))"))


def test_the_suite_imports_the_checkout():
    # pyproject's pytest pythonpath puts src/ ahead of any installed copy;
    # without it, a run with no PYTHONPATH would test the installed package
    checkout = Path(__file__).resolve().parent.parent / "src"
    assert Path(delpezzo.__file__).resolve().is_relative_to(checkout)


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import delpezzo") == set()


def test_wps_loads_only_its_own_layers():
    assert loaded_after("from delpezzo import wps") == {"errors", "lattice", "wps"}


def test_cli_loads_only_errors():
    assert loaded_after("import delpezzo.cli") == {"cli", "errors"}


def test_cli_replay_is_the_mutations_replay():
    from delpezzo import cli, mutations
    assert cli.replay is mutations.replay
    assert "replay" not in vars(cli)   # read through the module __getattr__
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


GOLDEN = SRC.parent / "tests" / "golden"
PARSE_LAYERS = {"dsl", "sod", "intersection"}
REPLAY_LAYERS = PARSE_LAYERS | {"mutations"}
# The README's Cold start table: the modules each subcommand loads besides
# cli and errors; a file argument names a file in tests/golden.  So the
# verdict commands skip wps and lattice, defect skips ktheory and catalog,
# and only replay, which reads a script, loads mutations.
LOADS = {
    "gate d=5 nodes=2": {"ktheory", "catalog", "quivers", "sod", "intersection"},
    "catalog": {"catalog", "quivers"},
    "catalog 5": {"catalog", "quivers"},
    "degenerations d=5 nodes=2": {"catalog", "quivers"},
    "quiver double-burban": {"quivers"},
    "quiver alternating-3.quiver": {"quivers"} | PARSE_LAYERS,
    "replay prop-Y-to-V": REPLAY_LAYERS,
    "intersect d=5 (H-E)^3": PARSE_LAYERS,
    "defect segre-cubic.hyp": {"wps", "lattice"} | PARSE_LAYERS,
}


@pytest.mark.parametrize("command", LOADS)
def test_each_subcommand_loads_exactly_its_layers(command):
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in command.split()]
    loaded = loaded_after(f"from delpezzo.cli import main\nassert main({argv!r}) == 0")
    assert loaded == {"cli", "errors"} | LOADS[command]


def test_every_export_is_the_object_its_module_defines():
    mismatched = fresh(
        "import importlib, json\n"
        f"exports = {EXPORTS!r}\n"
        "bad = []\n"
        "for module, names in exports.items():\n"
        "    for name in names:\n"
        "        space = {}\n"
        "        exec(f'from delpezzo import {name}', space)\n"
        "        owner = importlib.import_module('delpezzo.' + module)\n"
        "        if space[name] is not getattr(owner, name):\n"
        "            bad.append(name)\n"
        "print(json.dumps(bad))")
    assert mismatched == []


def test_all_and_dir_list_the_exports():
    names = sorted(n for names in EXPORTS.values() for n in names)
    assert len(names) == 51
    listed = fresh("import delpezzo, json\n"
                   "print(json.dumps([sorted(delpezzo.__all__), dir(delpezzo)]))")
    assert listed[0] == names
    assert set(names) <= set(listed[1])


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        delpezzo.no_such_name
    with pytest.raises(ImportError):
        exec("from delpezzo import no_such_name", {})


def test_only_lattice_names_its_private_names():
    # every other layer goes through lattice's public entries (rank, ...)
    private = re.compile(r"\blattice\._|\.lattice import [^\n]*\b_")
    named = [path.name for path in sorted((SRC / "delpezzo").glob("*.py"))
             if path.name != "lattice.py" and private.search(path.read_text())]
    assert named == []
