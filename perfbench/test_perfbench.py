"""Tests of the benchmark itself: wrong answers count as failures, a seed
always makes the same inputs, another seed makes other inputs that still
pass every check, and tracing reaches the layers each workload touches.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from run import WORKLOADS, Tracer  # noqa: E402

run.import_program()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _edit_json(output, edit):
    code, out, err = output
    data = json.loads(out)
    edit(data)
    return code, json.dumps(data), err


def _off_by_one_rank(output):
    hyp, report = output
    return hyp, dataclasses.replace(report, eval_rank=report.eval_rank + 1)


# (workload, job, corruption of that job's correct output)
INJECTED = [
    ("defect-build", "quartic-2n-2", _off_by_one_rank),
    ("defect-verify", "segre",
     lambda o: _edit_json(o, lambda d: d.update(eval_rank=d["eval_rank"] + 1))),
    ("defect-verify", "linear-change-0", _off_by_one_rank),
    ("proofs", "gate-d5-n",
     lambda o: _edit_json(o, lambda d: d.update(exists=not d["exists"]))),
    ("quivers", "chain-4",
     lambda o: _edit_json(o, lambda d: d.update(dimension=d["dimension"] + 1))),
]


@pytest.mark.parametrize("workload,prefix,corrupt", INJECTED,
                         ids=[f"{w}:{j}" for w, j, _ in INJECTED])
def test_wrong_answer_counts_as_failed(tmp_path, workload, prefix, corrupt):
    job = next(j for j in WORKLOADS[workload](1, tmp_path).jobs
               if j.name.startswith(prefix))
    tally = run.Tally()
    _, _, output, error = run.run_job(job)
    tally.judge(job, output, error)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)
    tally.judge(job, corrupt(output), None)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def _inputs(workload, seed, workdir):
    made = WORKLOADS[workload](seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*"))}
    return made, json.dumps(made.inputs, sort_keys=True).encode(), files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_repeats_and_another_seed_passes(tmp_path, workload):
    _, first, first_files = _inputs(workload, 7, tmp_path / "a")
    _, again, again_files = _inputs(workload, 7, tmp_path / "b")
    assert first == again and first_files == again_files
    other, text, _ = _inputs(workload, 8, tmp_path / "c")
    assert text != first
    tally = run.Tally()
    for job in other.jobs:
        _, _, output, error = run.run_job(job)
        tally.judge(job, output, error)
    assert tally.attempted == len(other.jobs) and tally.failed == 0


def test_metrics_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {name: run.unit_of(name) for name in [*Tracer().metrics(), "host.ref_ms"]}
    assert per_layer == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


# Metrics each workload must move when traced, and ones it must leave at 0.
TOUCHED = {
    "defect-build": (["wps.build_ms", "wps.build_self_ms", "wps.hessian_rank_calls",
                      "wps.defect_ms", "wps.poly_eval_calls", "lattice.nullspace_ms",
                      "lattice.nullspace_cells", "lattice.kernel_bits_max",
                      "lattice.rank_calls", "lattice.from_rational_rows_ms"],
                     ["cli.main_ms", "sod.add_calls"]),
    "defect-verify": (["cli.main_ms", "cli.self_ms", "cli.build_parser_ms", "dsl.parse_ms",
                       "wps.checked_ms", "wps.linear_change_ms", "wps.hessian_rank_ms",
                       "wps.enumerate_monomials_calls", "lattice.invert_ms",
                       "lattice.rank_ms"],
                      ["lattice.nullspace_ms", "wps.build_ms"]),
    "proofs": (["mutations.replay_ms", "mutations.apply_rule_calls",
                "mutations.rule_accept_ratio", "mutations.compare_ms", "sod.record_ms",
                "sod.add_new_ratio", "sod.lookup_hit_ratio", "sod.facts_max",
                "sod.node_text_calls", "intersection.rewrite_calls",
                "intersection.triple_ms", "ktheory.gate_ms", "ktheory.consistency_ms",
                "catalog.degenerations_ms", "catalog.entries_ms", "dsl.parse_calls"],
               ["lattice.rank_calls", "wps.defect_ms"]),
    "quivers": (["quivers.path_basis_finite_ms", "quivers.path_basis_infinite_ms",
                 "quivers.basis_paths", "quivers.infinite_verdicts", "cli.self_ms"],
                ["sod.add_calls", "lattice.rank_ms"]),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_sees_the_layers_a_workload_touches(tmp_path, workload):
    from delpezzo import cli, mutations
    replay = mutations.replay
    jobs = WORKLOADS[workload](3, tmp_path).jobs
    if workload == "defect-build":
        jobs = jobs[:4] + [j for j in jobs if j.name.startswith("sextic-3n")]
    tracer = Tracer()
    tracer.install()
    try:
        for job in jobs:
            run.run_job(job)
            tracer.end_job()
    finally:
        tracer.uninstall()
    assert cli.replay is replay and mutations.replay is replay
    values = tracer.metrics()
    moved, untouched = TOUCHED[workload]
    assert [m for m in moved if not values[m] > 0] == []
    assert [m for m in untouched if values[m] != 0] == []
