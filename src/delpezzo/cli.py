"""Command line front end.

Subcommands: defect, replay, intersect, quiver, catalog, gate,
degenerations.  Reports are printed as human-readable text by default and
as JSON with --json; exit code 0 means success or a verdict was produced,
1 a verification failure (a replay or comparison that does not check out),
2 an input error.

Each handler imports the modules its subcommand uses (``gate`` and
``quiver`` never load ``wps``); ``replay`` stays a module-level name, the
attribute ``cli.replay`` through which perfbench's tracer times replays.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import InstanceFormatError, ToolError, UndecodableInput
from .intersection import BlowupGeometry, triple
# `mutations`, kept for `cli.replay`, loads `sod` and `intersection` anyway
from .mutations import replay
from .sod import DISPLAY_NAMES, FactStore, Opaque, node_text


def _pretty_node(node, basis, d) -> str:
    if isinstance(node, Opaque):
        return DISPLAY_NAMES.get(node.name, node.name)
    text = node_text(node, basis, d)
    return "O" if text == "O(0)" else text


def _pretty_decomposition(dec, basis, d) -> str:
    return "<" + ", ".join(_pretty_node(n, basis, d) for n in dec.nodes) + ">"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif not args.quiet:
        for line in text_lines:
            print(line)
    elif text_lines:
        print(text_lines[0])


def _parse_kv(pairs: list[str], wanted: dict[str, bool]) -> dict[str, int]:
    """Parse 'key=value' arguments; wanted maps key -> required."""
    out: dict[str, int] = {}
    for item in pairs:
        if "=" not in item:
            raise InstanceFormatError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in wanted:
            raise InstanceFormatError(f"unknown argument {key!r}")
        try:
            out[key] = int(value)
        except ValueError:
            raise InstanceFormatError(f"{key} needs an integer, got {value!r}") from None
    for key, required in wanted.items():
        if required and key not in out:
            raise InstanceFormatError(f"missing required argument {key}=<n>")
    return out


def _read_input(path: Path) -> str:
    """Text of an input file.  Bytes that are not UTF-8, a missing path, a
    directory and an unreadable file are input faults naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(
            f"{path}: byte {exc.start} is not UTF-8 text") from None
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror}") from None


def _cmd_defect(args) -> int:
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
    _emit(args, payload, [
        f"hypersurface of degree {degree} on P{space.weights}",
        f"mu = {report.mu}, h0(L) = {report.h0_L}, "
        f"evaluation rank = {report.eval_rank}, defect = {report.delta}",
    ])
    return 0


def _resolve_script(name: str):
    from . import dsl
    path = Path(name)
    if path.is_file():
        return dsl.parse_script(_read_input(path), name=path.stem)
    return dsl.load_builtin_script(name)


def _cmd_replay(args) -> int:
    script = _resolve_script(args.script)
    store = FactStore()
    geom = BlowupGeometry(script.d)
    final, audit = replay(script, store, geom)
    basis, d = script.display_basis, script.d
    payload = {
        "script": script.name,
        "ambient": script.ambient,
        "final": [_pretty_node(n, basis, d) for n in final.nodes],
        "audit": audit.to_dict(),
        "facts": store.dump(),
        "ok": True,
    }
    lines = [f"replayed {script.name}: final "
             f"{_pretty_decomposition(final, basis, d)}"]
    if not args.quiet:
        lines += ["", audit.text().rstrip("\n")]
    _emit(args, payload, lines)
    return 0


def _cmd_intersect(args) -> int:
    from . import dsl
    kv = [a for a in args.args if a.startswith("d=")]
    rest = [a for a in args.args if not a.startswith("d=")]
    params = _parse_kv(kv, {"d": True})
    if len(rest) != 1:
        raise InstanceFormatError("expected exactly one product expression")
    factors = dsl.parse_intersection_expr(rest[0])
    geom = BlowupGeometry(params["d"])
    value = triple(geom, *factors)
    _emit(args, {"d": params["d"], "expr": rest[0], "value": value},
          [f"{rest[0]} = {value} on Y{params['d']}"])
    return 0


_BUILTIN_QUIVERS = ("single-burban", "double-burban")


def _cmd_quiver(args) -> int:
    from . import dsl, quivers
    if args.quiver in _BUILTIN_QUIVERS:
        q = getattr(quivers, args.quiver.replace("-", "_"))()
    elif Path(args.quiver).is_file():
        q = dsl.parse_quiver(_read_input(Path(args.quiver)))
    else:
        raise InstanceFormatError(
            f"{args.quiver!r} is neither a file nor one of: "
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
    lines = [f"path algebra dimension: {dim}",
             f"k0 rank: {report.k0_rank}"]
    if report.dimension is not None:
        lines.append("basis: " + ", ".join(report.basis))
        lines.append("cartan: " + "; ".join(
            " ".join(str(x) for x in row) for row in report.cartan))
    _emit(args, payload, lines)
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog as cat
    entries = cat.entries_for(args.d)
    payload = {"entries": [e.to_dict() for e in entries]}
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
    _emit(args, payload, lines)
    return 0


def _cmd_gate(args) -> int:
    from . import ktheory
    params = _parse_kv(args.args, {"d": True, "nodes": True})
    verdict = ktheory.kawamata_gate(params["d"], params["nodes"])
    payload = {"d": verdict.d, "nodes": verdict.node_count,
               "exists": verdict.exists,
               "reasons": [{"code": r.code, "detail": r.detail}
                           for r in verdict.reasons]}
    lines = [f"d={verdict.d}, nodes={verdict.node_count}: {verdict.verdict}"]
    lines += [f"  [{r.code}] {r.detail}" for r in verdict.reasons]
    _emit(args, payload, lines)
    return 0


def _cmd_degenerations(args) -> int:
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
    _emit(args, payload, lines)
    return 0


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

    p = sub.add_parser("defect", parents=[common],
                       help="defect report of a nodal hypersurface instance")
    p.add_argument("instance", help="a .hyp instance file")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the hypersurface coefficient draw")
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("replay", parents=[common],
                       help="replay a mutation script and audit it")
    p.add_argument("script", help="a .sod file or a builtin script name")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("intersect", parents=[common],
                       help="evaluate a trilinear intersection product")
    p.add_argument("args", nargs="+", metavar="d=<n> <expr>")
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("quiver", parents=[common],
                       help="path algebra report of a quiver")
    p.add_argument("quiver", help="builtin name or a quiver file")
    p.set_defaults(func=_cmd_quiver)

    p = sub.add_parser("catalog", parents=[common],
                       help="classification entries")
    p.add_argument("d", nargs="?", type=int, default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("gate", parents=[common],
                       help="Kawamata existence verdict")
    p.add_argument("args", nargs="+", metavar="d=<n> nodes=<k>")
    p.set_defaults(func=_cmd_gate)

    p = sub.add_parser("degenerations", parents=[common],
                       help="node partitions for the degree-5 family")
    p.add_argument("args", nargs="+", metavar="d=5 nodes=<k>")
    p.set_defaults(func=_cmd_degenerations)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolError as exc:
        payload = {"error": {"name": type(exc).__name__, "code": exc.code,
                             "message": str(exc)}}
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
        else:
            print(f"error [{type(exc).__name__}/{exc.code}]: {exc}",
                  file=sys.stderr)
        audit = getattr(exc, "audit", None)
        if audit is not None and not getattr(args, "quiet", False) \
                and not getattr(args, "json", False):
            print(audit.text().rstrip("\n"), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
