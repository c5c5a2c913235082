"""Command line front end.

Each row of ``SUBCOMMANDS`` names a subcommand, its handler, help and
arguments.  A handler returns (JSON payload, text lines) or raises a
ToolError; ``main`` alone prints either: the payload under --json, the
first line under --quiet, every line otherwise.  Exit code 0 means success
or a verdict, 1 a verification failure (a replay or comparison that does
not check out), 2 an input error; a reader closing stdout early changes none.

``cli`` itself loads only ``errors``; each handler imports the modules its
subcommand uses, so ``gate``, ``catalog``, ``degenerations`` and the builtin
quivers load neither ``wps`` nor ``mutations``.  The module ``__getattr__``
keeps ``cli.replay`` (``mutations.replay``) for perfbench's tests, which pin
it; the alias goes once ROADMAP item 4 drops that pin.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import NAME_ECHO, InstanceFormatError, ToolError, UndecodableInput, clip, echo


def __getattr__(name: str):
    if name == "replay":
        from .mutations import replay
        return replay
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_kv(pairs: list[str], wanted: dict[str, bool]) -> dict[str, int]:
    """Parse 'key=value' arguments; wanted maps key -> required."""
    out: dict[str, int] = {}
    for item in pairs:
        if "=" not in item:
            raise InstanceFormatError(f"expected key=value, got {echo(item)}")
        key, _, value = item.partition("=")
        if key not in wanted:
            raise InstanceFormatError(f"unknown argument {echo(key)}")
        try:
            out[key] = int(value)
        except ValueError:
            need = "an integer"
            if re.fullmatch(r"\s*[+-]?\d+\s*", value):   # over the int-string limit
                need += f" of at most {sys.get_int_max_str_digits()} digits"
            raise InstanceFormatError(f"{key} needs {need}, got {echo(value)}") from None
    for key, required in wanted.items():
        if required and key not in out:
            raise InstanceFormatError(f"missing required argument {key}=<n>")
    return out


def _read_input(path: Path) -> str:
    """Text of an input file.  Bytes that are not UTF-8 and a path the
    system cannot read (missing, a directory, unreadable, too long) are
    input faults naming the path, cut after NAME_ECHO characters."""
    where = clip(str(path), NAME_ECHO)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(
            f"{where}: byte {exc.start} is not UTF-8 text") from None
    except OSError as exc:
        raise InstanceFormatError(f"{where}: {exc.strerror}") from None


def _cmd_defect(args) -> tuple[dict, list[str]]:
    from . import dsl, wps
    text = _read_input(Path(args.instance))
    space, degree, nodes, coeffs = dsl.parse_instance(text)
    if coeffs is not None:
        hyp = wps.NodalHypersurface.checked(space, degree, coeffs, nodes)
    else:
        hyp = wps.build_nodal_hypersurface(space, degree, nodes, seed=args.seed)
    report = wps.defect(hyp)
    payload = {"weights": list(space.weights), "degree": degree,
               "mu": report.mu, "h0_L": report.h0_L,
               "eval_rank": report.eval_rank, "delta": report.delta}
    return payload, [
        f"hypersurface of degree {degree} on P{space.weights}",
        f"mu = {report.mu}, h0(L) = {report.h0_L}, "
        f"evaluation rank = {report.eval_rank}, defect = {report.delta}",
    ]


def _resolve_script(name: str):
    from . import dsl
    path = Path(name)
    if os.path.isfile(path):   # False, not an error, for a name too long
        return dsl.parse_script(_read_input(path), name=path.stem)
    return dsl.load_builtin_script(name)


def _cmd_replay(args) -> tuple[dict, list[str]]:
    from . import mutations   # replay is looked up per call, so a tracer's wrapper runs
    from .intersection import BlowupGeometry
    from .sod import DISPLAY_NAMES, FactStore, Opaque, node_text
    script = _resolve_script(args.script)
    store = FactStore()
    final, audit = mutations.replay(script, store, BlowupGeometry(script.d))
    basis, d = script.display_basis, script.d

    def pretty(node) -> str:
        if isinstance(node, Opaque):
            return DISPLAY_NAMES.get(node.name, node.name)
        text = node_text(node, basis, d)
        return "O" if text == "O(0)" else text

    payload = {
        "script": script.name,
        "ambient": script.ambient,
        "final": [pretty(n) for n in final.nodes],
        "audit": audit.to_dict(),
        "facts": store.dump(),
        "ok": True,
    }
    return payload, [f"replayed {script.name}: final <"
                     + ", ".join(payload["final"]) + ">",
                     "", audit.text().rstrip("\n")]


def _cmd_intersect(args) -> tuple[dict, list[str]]:
    from . import dsl
    from .intersection import BlowupGeometry, triple
    kv = [a for a in args.args if a.startswith("d=")]
    rest = [a for a in args.args if not a.startswith("d=")]
    params = _parse_kv(kv, {"d": True})
    if len(rest) != 1:
        raise InstanceFormatError("expected exactly one product expression")
    factors = dsl.parse_intersection_expr(rest[0], params["d"])
    value = triple(BlowupGeometry(params["d"]), *factors)
    return ({"d": params["d"], "expr": rest[0], "value": value},
            [f"{rest[0]} = {value} on Y{params['d']}"])


_BUILTIN_QUIVERS = ("single-burban", "double-burban")


def _cmd_quiver(args) -> tuple[dict, list[str]]:
    from . import quivers
    if args.quiver in _BUILTIN_QUIVERS:
        q = getattr(quivers, args.quiver.replace("-", "_"))()
    elif os.path.isfile(args.quiver):
        from . import dsl
        q = dsl.parse_quiver(_read_input(Path(args.quiver)))
    else:
        raise InstanceFormatError(
            f"{echo(args.quiver, NAME_ECHO)} is neither a file nor one of: "
            + ", ".join(_BUILTIN_QUIVERS))
    report = quivers.path_basis(q)
    payload = {
        "vertices": list(q.vertices),
        "dimension": report.dimension,
        "basis": list(report.basis),
        "cartan": [list(r) for r in report.cartan] if report.cartan else None,
        "k0_rank": report.k0_rank,
    }
    dim = "infinite" if report.dimension is None else str(report.dimension)
    lines = [f"path algebra dimension: {dim}", f"k0 rank: {report.k0_rank}"]
    if report.dimension is not None:
        lines.append("basis: " + ", ".join(report.basis))
        lines.append("cartan: " + "; ".join(
            " ".join(str(x) for x in row) for row in report.cartan))
    return payload, lines


def _cmd_catalog(args) -> tuple[dict, list[str]]:
    from . import catalog as cat
    entries = cat.entries_for(args.d)
    payload = {"entries": [asdict(e) for e in entries]}
    lines = []
    for e in entries:
        name = f"V{e.d}" + ("'" if e.variant == "prime" else "")
        lines.append(f"{name}: {e.ambient}")
        if e.max_nodes is not None:
            lines.append(f"  max nodes: {e.max_nodes} ({e.singularity_note})")
        if e.w_fibration is not None:
            lines.append(f"  projection image: {e.w_fibration}; center "
                         f"bidegree {e.curve_bidegree}, {e.curve}")
        if e.a_v_shape is not None:
            lines.append(f"  residual component: {e.a_v_shape}")
    return payload, lines


def _cmd_gate(args) -> tuple[dict, list[str]]:
    from . import ktheory
    params = _parse_kv(args.args, {"d": True, "nodes": True})
    verdict = ktheory.kawamata_gate(params["d"], params["nodes"])
    payload = {"d": verdict.d, "nodes": verdict.node_count,
               "exists": verdict.exists,
               "reasons": [{"code": r.code, "detail": r.detail}
                           for r in verdict.reasons]}
    lines = [f"d={verdict.d}, nodes={verdict.node_count}: {verdict.verdict}"]
    lines += [f"  [{r.code}] {r.detail}" for r in verdict.reasons]
    return payload, lines


def _cmd_degenerations(args) -> tuple[dict, list[str]]:
    from . import catalog as cat
    params = _parse_kv(args.args, {"d": True, "nodes": True})
    cases = cat.enumerate_degenerations(params["d"], params["nodes"])
    payload = {"d": params["d"], "nodes": params["nodes"],
               "cases": [{"nodes_C": c.nodes_c, "nodes_Q": c.nodes_q,
                          "A_C": c.a_c_shape, "A_Q": c.a_q_shape}
                         for c in cases]}
    lines = [f"degenerations of V{params['d']} with {params['nodes']} nodes:"]
    lines += [f"  (nodes_C={c.nodes_c}, nodes_Q={c.nodes_q}): "
              f"A_C {c.a_c_shape}; A_Q {c.a_q_shape}" for c in cases]
    return payload, lines


# rows (name, handler, help, ((argument, add_argument keywords), ...))
SUBCOMMANDS = (
    ("defect", _cmd_defect, "defect report of a nodal hypersurface instance",
     (("instance", {"help": "a .hyp instance file"}),
      ("--seed", {"type": int, "default": 0,
                  "help": "seed for the hypersurface coefficient draw"}))),
    ("replay", _cmd_replay, "replay a mutation script and audit it",
     (("script", {"help": "a .sod file or a builtin script name"}),)),
    ("intersect", _cmd_intersect, "evaluate a trilinear intersection product",
     (("args", {"nargs": "+", "metavar": "d=<n> <expr>"}),)),
    ("quiver", _cmd_quiver, "path algebra report of a quiver",
     (("quiver", {"help": "builtin name or a quiver file"}),)),
    ("catalog", _cmd_catalog, "classification entries",
     (("d", {"nargs": "?", "type": int, "default": None}),)),
    ("gate", _cmd_gate, "Kawamata existence verdict",
     (("args", {"nargs": "+", "metavar": "d=<n> nodes=<k>"}),)),
    ("degenerations", _cmd_degenerations,
     "node partitions for the degree-5 family",
     (("args", {"nargs": "+", "metavar": "d=5 nodes=<k>"}),)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call; parse_args leaves it unchanged and returns a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    common.add_argument("--quiet", action="store_true",
                        help="suppress everything but the verdict line")

    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="exact computations around nodal del Pezzo threefolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    code, out = 0, sys.stdout
    try:
        payload, lines = args.func(args)
    except ToolError as exc:
        code, out, name = exc.exit_code, sys.stderr, type(exc).__name__
        payload = {"error": {"name": name, "code": exc.code, "message": str(exc)}}
        lines = [f"error [{name}/{exc.code}]: {exc}"]
        if getattr(exc, "audit", None) is not None:
            lines.append(exc.audit.text().rstrip("\n"))
    if args.json:
        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    elif args.quiet:
        lines = lines[:1]
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except BrokenPipeError:
        # the reader left early: send the interpreter's exit flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
