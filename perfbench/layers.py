"""Per-layer tracing from outside the program.

The tracer replaces public functions of delpezzo's modules at every
attribute through which callers look them up: ``cli`` reaches ``replay``
as ``delpezzo.cli.replay``, ``wps`` reaches ``lattice.rank`` through the
module, ``mutations`` imports ``record_decomposition`` by name.  Each
wrapped call records a span (name, start, end, parent); a few functions
that run very often are only counted.  Spans stay in memory: each job's
spans are folded into per-job sums when the job ends, and the first
SPAN_CAP of them are kept to be written out with the result.  Times are
scaled job by job with the harness's host-speed factors, like the
end-to-end ones.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN_CAP = 100_000

# Functions timed as spans, as (module, attribute path).
SPANNED = (
    ("cli", "main"), ("cli", "build_parser"),
    ("dsl", "parse_script"), ("dsl", "load_builtin_script"),
    ("dsl", "parse_instance"), ("dsl", "parse_quiver"),
    ("wps", "build_nodal_hypersurface"), ("wps", "hessian_rank"),
    ("wps", "enumerate_monomials"), ("wps", "NodalHypersurface.checked"),
    ("wps", "apply_linear_change"), ("wps", "defect"),
    ("lattice", "rational_nullspace"), ("lattice", "rank"),
    ("lattice", "from_rational_rows"), ("lattice", "invert_rational"),
    ("intersection", "rewrite"), ("intersection", "triple"),
    ("sod", "record_decomposition"),
    ("mutations", "replay"), ("mutations", "apply_rule"),
    ("mutations", "compare_and_solve"),
    ("quivers", "path_basis"),
    ("ktheory", "kawamata_gate"), ("ktheory", "consistency_check"),
    ("catalog", "enumerate_degenerations"), ("catalog", "entries_for"),
)
# Functions only counted: called thousands of times per job.
COUNTED = (
    ("wps", "poly_eval"), ("wps", "poly_partial"), ("sod", "node_text"),
    ("sod", "FactStore.add"), ("sod", "FactStore.has"), ("sod", "FactStore.describe"),
)
DSL_PARSE = {"dsl.parse_script", "dsl.load_builtin_script", "dsl.parse_instance",
             "dsl.parse_quiver"}


def _group(name: str) -> str:
    """Spans of one group nested in each other are timed once (outermost)."""
    return "dsl.parse" if name in DSL_PARSE else name


class Tracer:
    def __init__(self):
        self.live: list[list] = []        # spans of the running job
        self.stack: list[int] = []
        self.kept: list[tuple] = []       # (name, start, end, parent) across jobs
        self.calls: Counter = Counter()   # counted functions and hook counts
        self.spans: Counter = Counter()   # span count per name
        self.maxima: dict[str, int] = {}
        # per job: seconds per span name ("total"), per group counting only
        # outermost spans ("outer"), minus every child span ("self"), minus
        # child spans of other layers ("layer_self")
        self.job_times: list[dict[str, Counter]] = []
        self._restore: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        live, stack, clock = self.live, self.stack, perf_counter

        def wrapper(*args, **kwargs):
            idx = len(live)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            live.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                after(span, args, result)
            return result
        return wrapper

    def _count(self, name, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(None, args, result)
            return result
        return wrapper

    def _raise_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def _hooks(self):
        calls = self.calls

        def nullspace(span, args, result):
            m = args[0]
            calls["lattice.nullspace_cells"] += m.rows * m.cols
            self._raise_max("lattice.kernel_bits_max", max(
                (max(x.numerator.bit_length(), x.denominator.bit_length())
                 for v in result for x in v), default=0))

        def add(span, args, result):
            calls["sod.add_new"] += bool(result)
            self._raise_max("sod.facts_max", len(args[0]))

        def lookup(span, args, result):
            calls["sod.lookup_hits"] += result is not None and result is not False

        def applied(span, args, result):
            calls["mutations.apply_rule_accepted"] += 1

        def path_basis(span, args, result):
            if result.dimension is None:
                span[0] = "quivers.path_basis.infinite"
                calls["quivers.infinite_verdicts"] += 1
            else:
                span[0] = "quivers.path_basis.finite"
                calls["quivers.basis_paths"] += result.dimension

        return {"lattice.rational_nullspace": nullspace, "sod.FactStore.add": add,
                "sod.FactStore.has": lookup, "sod.FactStore.describe": lookup,
                "mutations.apply_rule": applied, "quivers.path_basis": path_basis}

    def install(self) -> None:
        hooks = self._hooks()
        for mod_name, _ in SPANNED + COUNTED:
            importlib.import_module(f"delpezzo.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "delpezzo" or n.startswith("delpezzo.")]
        for kind, table in ((self._span, SPANNED), (self._count, COUNTED)):
            for mod_name, attr in table:
                name = f"{mod_name}.{attr}"
                owner = sys.modules[f"delpezzo.{mod_name}"]
                if "." in attr:   # a method or classmethod of a class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(kind(name, raw.__func__, hooks.get(name)))
                    else:
                        new = kind(name, raw, hooks.get(name))
                    setattr(cls, meth, new)
                    self._restore.append((cls, meth, raw))
                    continue
                original = getattr(owner, attr)
                wrapper = kind(name, original, hooks.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def end_job(self) -> None:
        """Fold the finished job's spans into its sums."""
        live = self.live
        n = len(live)
        sums = {k: Counter() for k in ("total", "outer", "self", "layer_self")}
        child_total = [0.0] * n
        child_layer_self = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, start, end, parent = live[i]
            dur = end - start
            own = dur - child_total[i]
            layer_own = own + child_layer_self[i]
            sums["total"][name] += dur
            sums["self"][name] += own
            sums["layer_self"][name] += layer_own
            self.spans[name] += 1
            group, p = _group(name), parent
            while p >= 0 and _group(live[p][0]) != group:
                p = live[p][3]
            if p < 0:
                sums["outer"][group] += dur
            if parent >= 0:
                child_total[parent] += dur
                if live[parent][0].split(".")[0] == name.split(".")[0]:
                    child_layer_self[parent] += layer_own
        self.job_times.append(sums)
        base = len(self.kept)
        room = SPAN_CAP - base
        if room > 0:
            self.kept.extend((name, start, end, parent + base if parent >= 0 else -1)
                             for name, start, end, parent in live[:room])
        live.clear()

    def metrics(self, scales=None) -> dict[str, float]:
        """Per-layer metrics; times in ms per job, each job's times
        multiplied by its entry of `scales`."""
        jobs = max(len(self.job_times), 1)
        scaled = {k: Counter() for k in ("total", "outer", "self", "layer_self")}
        for sums, k in zip(self.job_times, scales or [1.0] * len(self.job_times)):
            for kind, counter in sums.items():
                for name, t in counter.items():
                    scaled[kind][name] += t * k
        ms = {name: 1000.0 * t / jobs for name, t in scaled["total"].items()}
        outer = {name: 1000.0 * t / jobs for name, t in scaled["outer"].items()}
        c = self.calls

        def per_job(key):
            return c[key] / jobs

        def ratio(num, den):
            return num / den if den else 0.0

        add_calls = c["sod.FactStore.add"]
        lookups = c["sod.FactStore.has"] + c["sod.FactStore.describe"]
        tries = self.spans["mutations.apply_rule"]
        return {
            "cli.main_ms": ms.get("cli.main", 0.0),
            "cli.self_ms": 1000.0 * scaled["layer_self"]["cli.main"] / jobs,
            "cli.build_parser_ms": ms.get("cli.build_parser", 0.0),
            "dsl.parse_ms": outer.get("dsl.parse", 0.0),
            "dsl.parse_calls": sum(self.spans[n] for n in DSL_PARSE) / jobs,
            "wps.build_ms": ms.get("wps.build_nodal_hypersurface", 0.0),
            "wps.build_self_ms":
                1000.0 * scaled["self"]["wps.build_nodal_hypersurface"] / jobs,
            "wps.hessian_rank_calls": self.spans["wps.hessian_rank"] / jobs,
            "wps.hessian_rank_ms": ms.get("wps.hessian_rank", 0.0),
            "wps.enumerate_monomials_calls": self.spans["wps.enumerate_monomials"] / jobs,
            "wps.enumerate_monomials_ms": outer.get("wps.enumerate_monomials", 0.0),
            "wps.checked_ms": ms.get("wps.NodalHypersurface.checked", 0.0),
            "wps.poly_eval_calls": per_job("wps.poly_eval"),
            "wps.poly_partial_calls": per_job("wps.poly_partial"),
            "wps.linear_change_ms": ms.get("wps.apply_linear_change", 0.0),
            "wps.defect_ms": ms.get("wps.defect", 0.0),
            "lattice.nullspace_ms": ms.get("lattice.rational_nullspace", 0.0),
            "lattice.nullspace_cells": per_job("lattice.nullspace_cells"),
            "lattice.kernel_bits_max": self.maxima.get("lattice.kernel_bits_max", 0),
            "lattice.rank_calls": self.spans["lattice.rank"] / jobs,
            "lattice.rank_ms": ms.get("lattice.rank", 0.0),
            "lattice.from_rational_rows_ms": ms.get("lattice.from_rational_rows", 0.0),
            "lattice.invert_ms": ms.get("lattice.invert_rational", 0.0),
            "intersection.rewrite_calls": self.spans["intersection.rewrite"] / jobs,
            "intersection.rewrite_ms": outer.get("intersection.rewrite", 0.0),
            "intersection.triple_ms": ms.get("intersection.triple", 0.0),
            "sod.record_ms": outer.get("sod.record_decomposition", 0.0),
            "sod.add_calls": add_calls / jobs,
            "sod.add_new_ratio": ratio(c["sod.add_new"], add_calls),
            "sod.lookup_calls": lookups / jobs,
            "sod.lookup_hit_ratio": ratio(c["sod.lookup_hits"], lookups),
            "sod.facts_max": self.maxima.get("sod.facts_max", 0),
            "sod.node_text_calls": per_job("sod.node_text"),
            "mutations.replay_ms": ms.get("mutations.replay", 0.0),
            "mutations.apply_rule_calls": tries / jobs,
            "mutations.apply_rule_ms": ms.get("mutations.apply_rule", 0.0),
            "mutations.rule_accept_ratio":
                ratio(c["mutations.apply_rule_accepted"], tries),
            "mutations.compare_ms": ms.get("mutations.compare_and_solve", 0.0),
            "quivers.path_basis_finite_ms": ms.get("quivers.path_basis.finite", 0.0),
            "quivers.path_basis_infinite_ms": ms.get("quivers.path_basis.infinite", 0.0),
            "quivers.basis_paths": per_job("quivers.basis_paths"),
            "quivers.infinite_verdicts": per_job("quivers.infinite_verdicts"),
            "ktheory.gate_ms": ms.get("ktheory.kawamata_gate", 0.0),
            "ktheory.consistency_ms": ms.get("ktheory.consistency_check", 0.0),
            "catalog.degenerations_ms": ms.get("catalog.enumerate_degenerations", 0.0),
            "catalog.entries_ms": ms.get("catalog.entries_for", 0.0),
        }
