"""The four workloads: seeded inputs, the jobs that run them, and the
checks that judge each output.

A workload is a list of jobs.  ``job.run()`` is the timed call into the
program; ``job.check(output)`` raises ``WrongAnswer`` unless the output
agrees with an independent computation or a property of the method.  All
inputs come from ``random.Random(seed)`` and from files committed under
``perfbench/instances``, so one seed always gives the same jobs.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Callable

import exact

HERE = Path(__file__).resolve().parent
INSTANCES = HERE / "instances"

# Fixes the node sets, coefficient draws and unimodular matrices shared by
# every seed; a run's seed only picks symmetries, labels and parameters
# that leave the amount of work unchanged (see each workload).
BASE_SEED = 2108_04499


class WrongAnswer(Exception):
    """An output disagrees with its independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    jobs: list[Job]
    inputs: dict[str, str]   # every generated input, as text, for the tests


def _cli(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    from delpezzo import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _json_ok(output) -> dict:
    code, out, err = output
    expect(code == 0, f"exit {code}: {err.strip()[:200]}")
    return json.loads(out)


# -- defect-build ----------------------------------------------------------------

# (label, weights, degree, node counts in one pass).  The counts stay within
# the general-position limits below: cubic threefolds through 7 general
# points, or quartic double solids through 8, have no nodal member.
#
# Every pass holds 25 jobs (N = 25, so 0.5 N and 0.1 N are half-integers).
# Sorted by size: 11 light jobs (up to 3 nodes on the cubic, 2 on the
# quartic), three 3-node quartics, then 11 larger ones, the 7-node sextic
# being the third largest.  The 50th percentile then lies in the middle of
# the copies of the three 3-node quartics and the 90th in the middle of the
# copies of the 7-node sextic, whatever the number of passes, instead of
# on the edge of a group of similar jobs, where one slow copy moves it.
BUILD_MIX = (
    ("cubic", (1, 1, 1, 1, 1), 3, (1, 1, 1, 2, 2, 2, 3, 6, 6)),
    ("quartic", (1, 1, 1, 1, 2), 4, (1, 1, 2, 2, 3, 3, 3, 5, 5, 6, 6, 7)),
    ("sextic", (1, 1, 1, 2, 3), 6, (3, 7, 9, 12)),
)
# Weight-one coordinates other than x0 = 1 lie in [-B, B]; B is 3 on the
# sextic because a 5 x 5 grid holds at most 10 points with no three in a
# line.  Coordinates of weight 2 and 3 lie in [-2, 2].
WEIGHT_ONE_BOX = {3: 2, 4: 2, 6: 3}
HIGH_WEIGHT_BOX = 2


def _det(rows) -> int:
    """Integer determinant by Bareiss elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            a[i] = [(a[c][c] * a[i][j] - a[i][c] * a[c][j]) // prev
                    for j in range(n)]
        prev = a[c][c]
    return sign * a[-1][-1]


def general_nodes(weights, degree: int, count: int,
                  rng: random.Random) -> list[tuple[int, ...]]:
    """Seeded nodes in general position.

    Each node has x0 = 1, so it is a smooth point of the ambient with a
    chart.  The rule: the weight-one parts of any n1 nodes are linearly
    independent, n1 being the number of weight-one coordinates (5, 4 and 3
    on the three ambients).  So no five cubic nodes lie in a hyperplane,
    no four nodes of the quartic double solid project to coplanar points
    of P^3, and no three nodes of the sextic project to collinear points
    of P^2.  A draw that breaks the rule is redrawn; after 300 rejections
    in a row the set starts again.
    """
    n1 = sum(1 for w in weights if w == 1)
    box = WEIGHT_ONE_BOX[degree]
    while True:
        nodes: list[tuple[int, ...]] = []
        misses = 0
        while len(nodes) < count and misses < 300:
            p = (1,) + tuple(rng.randint(-box, box) if w == 1 else
                             rng.randint(-HIGH_WEIGHT_BOX, HIGH_WEIGHT_BOX)
                             for w in weights[1:])
            parts = [q[:n1] for q in nodes]
            if p[:n1] in parts or not all(
                    _det([p[:n1], *sub]) for sub in combinations(parts, n1 - 1)):
                misses += 1
                continue
            nodes.append(p)
        if len(nodes) == count:
            return nodes


def _check_build(weights, degree, nodes):
    def check(output):
        hyp, report = output
        dim = len(weights) - 1
        adjoint = exact.monomials(weights, 2 * degree - sum(weights))
        eval_rank = exact.rank([[exact.evaluate({e: Fraction(1)}, p)
                                 for e in adjoint] for p in nodes])
        monos = exact.monomials(weights, degree)
        expect(tuple(hyp.ambient.weights) == tuple(weights), "wrong ambient")
        expect(len(hyp.coefficients) == len(monos), "wrong coefficient count")
        poly = {e: Fraction(c) for e, c in zip(monos, hyp.coefficients) if c}
        expect(bool(poly), "zero form")
        for p in nodes:
            expect(exact.is_node(poly, p, dim), f"not a node at {p}")
        expect(report.mu == len(nodes), f"mu {report.mu} != {len(nodes)}")
        expect(report.h0_L == len(adjoint), f"h0_L {report.h0_L} != {len(adjoint)}")
        expect(report.eval_rank == eval_rank,
               f"eval_rank {report.eval_rank} != {eval_rank}")
        expect(report.delta == report.mu - eval_rank, "delta != mu - eval_rank")
        expect(report.delta < report.mu, "delta not below mu")
    return check


def _flip(nodes, signs):
    return [(p[0],) + tuple(s * x for s, x in zip(signs, p[1:])) for p in nodes]


def defect_build(seed: int, workdir: Path) -> Workload:
    """Build plus defect on general node sets of the three ambients.

    The node sets and coefficient draws come from BASE_SEED; the run's
    seed changes the sign of every coordinate but x0, job by job.  That
    is a weight-preserving automorphism, so each seed gives other inputs
    but exactly the same arithmetic, and runs differ only by the host.
    """
    from delpezzo import wps
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    jobs, inputs = [], {}
    for label, weights, degree, counts in BUILD_MIX:
        space = wps.WeightedSpace(weights)
        for k, count in enumerate(counts):
            nodes = general_nodes(weights, degree, count, base)
            draw = base.randrange(1 << 16)
            nodes = _flip(nodes, [rng.choice((1, -1)) for _ in weights[1:]])
            name = f"{label}-{count}n-{k}"
            inputs[name] = f"weights {weights} degree {degree} nodes {nodes} draw {draw}"

            def run(space=space, degree=degree, nodes=nodes, draw=draw):
                hyp = wps.build_nodal_hypersurface(space, degree, nodes, seed=draw)
                return hyp, wps.defect(hyp)
            jobs.append(Job(name, run, _check_build(weights, degree, nodes)))
    return Workload(jobs, inputs)


# -- defect-verify ---------------------------------------------------------------

P4 = (1, 1, 1, 1, 1)
SEGRE_NODES = [p for p in product((1, -1), repeat=5) if p.count(1) == 3]


def segre_cubic() -> exact.Poly:
    """x0^3 + ... + x4^3 - (x0 + ... + x4)^3, expanded."""
    total = [[1] * 5] + [[0] * 5 for _ in range(4)]
    cube = exact.substitute({(3, 0, 0, 0, 0): Fraction(1)}, total)
    poly = {e: -c for e, c in cube.items()}
    for i in range(5):
        e = (0,) * i + (3,) + (0,) * (4 - i)
        poly[e] = poly.get(e, 0) + 1
    return {e: c for e, c in poly.items() if c}


def hyp_text(weights, degree, nodes, poly: exact.Poly) -> str:
    monos = exact.monomials(weights, degree)
    lines = ["weights " + " ".join(map(str, weights)), f"degree {degree}"]
    lines += ["node " + " ".join(str(x) for x in p) for p in nodes]
    lines.append("coeffs " + " ".join(str(poly.get(e, 0)) for e in monos))
    return "\n".join(lines) + "\n"


def read_hyp(text: str):
    """(weights, degree, nodes, poly) of a .hyp text, parsed here."""
    weights = degree = None
    nodes, coeffs = [], []
    for line in text.splitlines():
        key, *rest = line.split("#")[0].split() or [""]
        if key == "weights":
            weights = tuple(map(int, rest))
        elif key == "degree":
            degree = int(rest[0])
        elif key == "node":
            nodes.append(tuple(Fraction(x) for x in rest))
        elif key == "coeffs":
            coeffs = [Fraction(x) for x in rest]
    monos = exact.monomials(weights, degree)
    return weights, degree, nodes, {e: c for e, c in zip(monos, coeffs) if c}


def unimodular(rng: random.Random, n: int = 5, steps: int = 3) -> list[list[int]]:
    """Product of `steps` elementary matrices I + s E_ij, s = +-1, i != j."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        a = [row[:] for row in a]
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    return a


def signed_permutation(rng: random.Random, n: int = 5) -> list[list[int]]:
    perm = rng.sample(range(n), n)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)]
            for i in range(n)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _image(poly, nodes, matrix):
    """g(x) = f(Ax) with its nodes A^{-1} p."""
    inv = exact.integer_inverse(matrix)
    return exact.substitute(poly, matrix), [exact.apply_matrix(inv, p) for p in nodes]


def _check_defect_report(weights, degree, nodes, poly, known_rank):
    """Checks a `delpezzo defect --json` payload against this module's own
    vanishing, Hessian and rank computations (and a known rank, if any)."""
    def check(output):
        data = _json_ok(output)
        for p in nodes:
            expect(exact.is_node(poly, p, len(weights) - 1), f"input is not nodal at {p}")
        adjoint = exact.monomials(weights, 2 * degree - sum(weights))
        rank = exact.rank([[exact.evaluate({e: Fraction(1)}, p) for e in adjoint]
                           for p in nodes])
        expect(known_rank in (None, rank), f"independent rank {rank} != {known_rank}")
        expect(data["weights"] == list(weights) and data["degree"] == degree,
               "wrong ambient")
        expect(data["mu"] == len(nodes), f"mu {data['mu']} != {len(nodes)}")
        expect(data["h0_L"] == len(adjoint), f"h0_L {data['h0_L']} != {len(adjoint)}")
        expect(data["eval_rank"] == rank, f"eval_rank {data['eval_rank']} != {rank}")
        expect(data["delta"] == len(nodes) - rank, "delta != mu - eval_rank")
    return check


def _check_rejected(output):
    code, out, err = output
    expect(code == 2, f"corrupted instance exited {code}, not 2")
    error = json.loads(err)["error"]
    expect(error["name"] == "InvariantViolation" and error["code"] == 15,
           f"corrupted instance gave {error}")


def _corrupt(weights, degree, nodes, poly, rng):
    """Add 1 to one seeded coefficient, keeping only corruptions that this
    module's own evaluation shows break vanishing at some node."""
    monos = exact.monomials(weights, degree)
    while True:
        e = rng.choice(monos)
        bad = dict(poly)
        bad[e] = bad.get(e, 0) + 1
        if any(exact.evaluate(bad, p) or
               any(exact.evaluate(exact.partial(bad, i), p) for i in range(len(p)))
               for p in nodes):
            return {m: c for m, c in bad.items() if c}


# With the Segre cubic, 4 committed instances and a corrupted copy of each
# of the 9 files, a pass holds 25 jobs, for the reason given at BUILD_MIX.
VERIFY_IMAGES = 4    # Segre images checked through the CLI
VERIFY_CHANGES = 7   # Segre images computed by wps.apply_linear_change


def defect_verify(seed: int, workdir: Path) -> Workload:
    """Certification of instances with explicit coefficients.

    The Segre cubic, its images under A = U Q with U a fixed unimodular
    matrix and Q a seeded signed permutation (so every seed expands to
    coefficients of the same sizes), the committed weighted instances,
    and corrupted copies.  Every file goes through `delpezzo defect
    --json`; the library jobs re-coordinatise the Segre cubic with
    `wps.apply_linear_change`.
    """
    from delpezzo import wps
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    segre = segre_cubic()
    cases = [("segre", P4, 3, SEGRE_NODES, segre, 5)]
    matrices = []
    for _ in range(VERIFY_IMAGES + VERIFY_CHANGES):
        matrices.append(_matmul(unimodular(base), signed_permutation(rng)))
    for k, a in enumerate(matrices[:VERIFY_IMAGES]):
        g, g_nodes = _image(segre, SEGRE_NODES, a)
        cases.append((f"segre-image-{k}", P4, 3, g_nodes, g, 5))
    for path in sorted(INSTANCES.glob("*.hyp")):
        weights, degree, nodes, poly = read_hyp(path.read_text())
        cases.append((path.stem, weights, degree, nodes, poly, None))

    jobs, inputs = [], {}
    workdir.mkdir(parents=True, exist_ok=True)
    for name, weights, degree, nodes, poly, rank in cases:
        text = hyp_text(weights, degree, nodes, poly)
        path = workdir / f"{name}.hyp"
        path.write_text(text)
        inputs[name] = text
        jobs.append(Job(name, _cli(["defect", str(path), "--json"]),
                        _check_defect_report(weights, degree, nodes, poly, rank)))
    for name, weights, degree, nodes, poly, _ in cases:
        text = hyp_text(weights, degree, nodes, _corrupt(weights, degree, nodes,
                                                         poly, rng))
        path = workdir / f"{name}-corrupt.hyp"
        path.write_text(text)
        inputs[path.stem] = text
        jobs.append(Job(path.stem, _cli(["defect", str(path), "--json"]),
                        _check_rejected))

    space = wps.WeightedSpace(P4)
    monos = exact.monomials(P4, 3)
    start = wps.NodalHypersurface(space, 3, tuple(segre.get(e, Fraction(0)) for e in monos),
                                  tuple(tuple(map(Fraction, p)) for p in SEGRE_NODES))
    for k, a in enumerate(matrices[VERIFY_IMAGES:]):
        inputs[f"linear-change-{k}"] = f"{a}"

        def run(a=a):
            hyp = wps.apply_linear_change(start, a)
            return hyp, wps.defect(hyp)

        def check(output, a=a):
            hyp, report = output
            g, g_nodes = _image(segre, SEGRE_NODES, a)
            expect(list(hyp.coefficients) == [g.get(e, 0) for e in monos],
                   "coefficients differ from f(Ax)")
            for p in g_nodes:
                expect(exact.is_node(g, p, 4), f"not a node at {p}")
            expect((report.mu, report.h0_L, report.eval_rank, report.delta)
                   == (10, 5, 5, 5), f"Segre image report {report}")
        jobs.append(Job(f"linear-change-{k}", run, check))
    return Workload(jobs, inputs)


# -- proofs ------------------------------------------------------------------

DATA = HERE.parent / "src" / "delpezzo" / "data"
WALKS = 10         # seeded rule walks per pass (35 jobs, see BUILD_MIX)
WALK_STEPS = 30    # rule applications attempted per walk
_DISPLAY = {"DbC": "Db(C)", "DbY": "Db(Y)"}


def _expected_final(script_text: str) -> list[str]:
    """The script's `expect` literal, in the CLI's display spelling."""
    line = next(ln for ln in script_text.splitlines() if ln.startswith("expect"))
    literal = line.split(None, 1)[1].strip()[1:-1]
    out = []
    for node in (n.strip() for n in literal.split(",")):
        m = re.fullmatch(r"CAT\((.*)\)", node)
        out.append(_DISPLAY.get(m.group(1), m.group(1)) if m
                   else "O" if node == "O(0)" else node)
    return out


def _check_replay(script_text: str):
    rules = sum(1 for ln in script_text.splitlines()
                if ln.split("#")[0].strip() and not ln.startswith(("ambient", "expect")))

    def check(output):
        data = _json_ok(output)
        expect(data["ok"] is True, "replay not ok")
        expect(data["final"] == _expected_final(script_text),
               f"final {data['final']} differs from the script's expect line")
        expect(len(data["audit"]["steps"]) == rules, "audit step count")
        expect(len(data["facts"]) > 0, "no facts recorded")
    return check


def _check_gate(d: int, nodes: int):
    def check(output):
        data = _json_ok(output)
        expect((data["d"], data["nodes"]) == (d, nodes), "gate echoed other input")
        expect(data["exists"] is (d in (5, 6)), f"gate verdict {data['exists']} at d={d}")
    return check


def _check_intersect(d: int, value: int):
    def check(output):
        data = _json_ok(output)
        expect(data["value"] == value, f"{data['expr']} = {data['value']}, not {value}")
    return check


def _cube(d: int, a: int, b: int) -> int:
    """(aH + bE)^3 from H^3 = d, H^2E = 0, HE^2 = -1, E^3 = 0."""
    return a ** 3 * d - 3 * a * b * b


def _degeneration_pairs(nodes: int) -> set[tuple[int, int]]:
    return {(c, q) for c in range(3) for q in range(2) if c + q == nodes}


def _check_degenerations(nodes: int):
    def check(output):
        data = _json_ok(output)
        pairs = {(c["nodes_C"], c["nodes_Q"]) for c in data["cases"]}
        expect(pairs == _degeneration_pairs(nodes), f"degeneration pairs {pairs}")
        expect(len(pairs) == len(data["cases"]), "repeated degeneration case")
    return check


def _check_catalog(d: int | None):
    def check(output):
        entries = _json_ok(output)["entries"]
        degrees = {e["d"] for e in entries}
        expect(degrees == (set(range(1, 9)) if d is None else {d}),
               f"catalog degrees {sorted(degrees)}")
        for e in entries:
            if e["max_nodes"] is not None and e["d"] >= 7:
                expect(e["max_nodes"] == 0, "degree >= 7 entry with nodes")
            if e["d"] == 5:
                expect(e["max_nodes"] == max(c + q for c, q in _degeneration_pairs(3)),
                       "degree-5 node budget differs from the degenerations")
    return check


# K_{-1} ranks for a degree-5 threefold whose center has 2 nodes on a
# quadric with 1 node: A_C carries the center's nodes, A_Q the quadric's,
# A_V5 all three, line bundles none.
_K_MINUS1 = {"A_C": 2, "A_Q": 1, "A_V5": 3}


def _final_5(*heads: str):
    """A degree-5 final state: opaque heads, then the common line-bundle
    tail O(E-H), O(-E), O(0), O(H-E) of both shipped descriptions."""
    from delpezzo import intersection as ix, sod
    tail = [sod.LineBundle(ix.he(a, b)) for a, b in ((-1, 1), (0, -1), (0, 0), (1, -1))]
    return sod.Decomposition("Y5", tuple(map(sod.standard_opaque, heads)) + tuple(tail))


def _candidate_rules(n: int, rng: random.Random):
    from delpezzo.mutations import MutationRule as R
    rules = []
    for j in range(1, n):
        rules.append(R("serre_rotate", 1, position_end=j, direction="left"))
        rules.append(R("serre_rotate", j + 1, position_end=n, direction="right"))
        for support in ("E", "D"):
            rules.append(R("triangle_exchange", j, support=support,
                           direction=rng.choice((1, 2))))
        rules.append(R("swap", j))
        rules.append(R("fiber_rebase", j, shift=rng.choice(("+F", "-F"))))
    for i in range(1, n + 1):
        rules.append(R("opaque_transpose", i, direction=rng.choice(("left", "right"))))
    return rules


def _walk(start, store, geom, walk_seed: int):
    """Try WALK_STEPS randomly chosen rules, skipping those whose side
    conditions fail; returns the final state and its K_{-1} total."""
    from delpezzo import errors, ktheory, mutations
    rng = random.Random(walk_seed)
    current = start
    for _ in range(WALK_STEPS):
        rule = rng.choice(_candidate_rules(len(current.nodes), rng))
        try:
            current, _ = mutations.apply_rule(current, rule, store, geom)
        except errors.SideConditionFailed:
            pass
    models = ktheory.standard_models(5, 2, 1)
    return current, ktheory.k_minus1_total(current, models)


def _opaque_names(dec) -> list[str]:
    from delpezzo.sod import Opaque
    return sorted(n.name for n in dec.nodes if isinstance(n, Opaque))


def _check_walk(start):
    names = _opaque_names(start)
    total = sum(_K_MINUS1.get(n, 0) for n in names)

    def check(output):
        final, k_total = output
        expect(_opaque_names(final) == names, "walk changed the opaque components")
        expect(k_total == total, f"K_-1 total {k_total} != {total}")
    return check


def proofs(seed: int, workdir: Path) -> Workload:
    """Replays, verdicts and bookkeeping on the categorical side.

    The seed picks the gate node counts, the intersection products, the
    catalog degree and the walk seeds; the job list is the same for
    every seed.
    """
    from delpezzo import catalog, dsl, intersection, ktheory, mutations, sod
    rng = random.Random(seed)
    jobs, inputs = [], {}

    def add(name, run, check, text=""):
        inputs[name] = text or name
        jobs.append(Job(name, run, check))

    for path in sorted(DATA.glob("*.sod")):
        text = path.read_text()
        add(f"replay-{path.stem}", _cli(["replay", path.stem, "--json"]),
            _check_replay(text), text)
    for d in range(1, 7):
        k = rng.randint(1, 6)
        add(f"gate-d{d}-n{k}", _cli(["gate", f"d={d}", f"nodes={k}", "--json"]),
            _check_gate(d, k))
    for d in (4, 5, 6):
        add(f"intersect-d{d}-(H-E)^3", _cli(["intersect", f"d={d}", "(H-E)^3", "--json"]),
            _check_intersect(d, d - 3))
        a, b = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3)
        expr = f"({a}H{b:+d}E)^3"
        add(f"intersect-d{d}-{expr}", _cli(["intersect", f"d={d}", expr, "--json"]),
            _check_intersect(d, _cube(d, a, b)))
    for nodes in range(4):
        add(f"degenerations-n{nodes}",
            _cli(["degenerations", "d=5", f"nodes={nodes}", "--json"]),
            _check_degenerations(nodes))
    d = rng.randint(1, 8)
    add("catalog", _cli(["catalog", "--json"]), _check_catalog(None))
    add(f"catalog-d{d}", _cli(["catalog", str(d), "--json"]), _check_catalog(d))

    for d, tail in ((4, "A_V4 = Db(C)"), (5, "A_V5 = <A_C, A_Q>")):
        def compare(d=d):
            store, geom = sod.FactStore(), intersection.BlowupGeometry(d)
            left, _ = mutations.replay(dsl.load_builtin_script(
                "prop-Y-to-V" if d == 5 else "prop-Y-to-V-4"), store, geom)
            right, _ = mutations.replay(dsl.load_builtin_script(f"prop-Y-to-W-{d}"),
                                        store, geom)
            return mutations.compare_and_solve(left, right, d).text()

        def check_compare(output, tail=tail):
            expect(output == tail, f"tail comparison gave {output!r}")
        add(f"compare-d{d}", compare, check_compare)

    final_w5 = _final_5("A_C", "A_Q")

    def consistency():
        return [((c.nodes_c, c.nodes_q), ktheory.consistency_check(final_w5, c.nodes_c,
                                                                 c.nodes_q))
                for total in range(4)
                for c in catalog.enumerate_degenerations(5, total)]

    def check_consistency(output):
        expect({pair for pair, _ in output}
               == set().union(*map(_degeneration_pairs, range(4))), "case list")
        expect(all(ok for _, ok in output), f"inconsistent K_-1 totals {output}")
    add("consistency-d5", consistency, check_consistency)

    # One store shared by every walk, saturated with both degree-5 replays.
    store, geom = sod.FactStore(), intersection.BlowupGeometry(5)
    for name in ("prop-Y-to-V", "prop-Y-to-W-5"):
        mutations.replay(dsl.load_builtin_script(name), store, geom)
    starts = (_final_5("A_V5"), final_w5)
    for k in range(WALKS):
        start, walk_seed = starts[k % 2], rng.randrange(1 << 30)
        add(f"walk-{k}", lambda s=start, w=walk_seed: _walk(s, store, geom, w),
            _check_walk(start), f"walk from {k % 2} seed {walk_seed}")
    return Workload(jobs, inputs)


# -- quivers -------------------------------------------------------------------

# 25 jobs per pass (see BUILD_MIX); the three relation-free cycles are the
# slowest jobs, so the 90th percentile falls on the 12-cycle.
CHAIN_SIZES = range(2, 14)
# (vertex count, relation length, relation start positions) on an oriented
# cycle: any relation on a cycle makes the algebra finite.
CYCLES = ((6, 3, (0, 1, 2, 3, 4, 5)), (8, 5, (0, 3)), (10, 4, (0,)), (12, 7, (0, 5)))
ALTERNATING = (2, 3, 4, 5, 6, 7)   # loops x, y with xx = yy = 0 and alternation bound
FREE_CYCLES = (12, 16, 20)   # oriented cycles without relations: infinite


def quiver_text(vertices, arrows, relations) -> str:
    lines = ["vertices " + " ".join(vertices)]
    lines += [f"arrow {n} {s} {t}" for s, t, n in arrows]
    lines += ["relation " + " ".join(r) for r in relations]
    return "\n".join(lines) + "\n"


def _labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """n distinct seeded labels of one fixed width."""
    return [f"{prefix}{k:02d}" for k in rng.sample(range(100), n)]


def _chain(n, rng):
    v, a, b = _labels(rng, n, "v"), _labels(rng, n - 1, "a"), _labels(rng, n - 1, "b")
    arrows = [(v[i], v[i + 1], a[i]) for i in range(n - 1)]
    arrows += [(v[i + 1], v[i], b[i]) for i in range(n - 1)]
    relations = [(a[i], b[i]) for i in range(n - 1)] + [(b[i], a[i]) for i in range(n - 1)]
    return v, arrows, relations


def _cycle(n, length, starts, rng):
    v, a = _labels(rng, n, "v"), _labels(rng, n, "c")
    turn = rng.randrange(n)   # rotating the relation pattern keeps the algebra
    arrows = [(v[i], v[(i + 1) % n], a[i]) for i in range(n)]
    relations = [tuple(a[(s + turn + j) % n] for j in range(length)) for s in starts]
    return v, arrows, relations


def _alternating(bound, rng):
    (v,), (x, y) = _labels(rng, 1, "v"), _labels(rng, 2, "l")
    relations = [(x, x), (y, y)]
    for first, second in ((x, y), (y, x)):
        relations.append(tuple((first, second)[i % 2] for i in range(2 * bound + 1)))
    return [v], [(v, v, x), (v, v, y)], relations


def _check_quiver(vertices, arrows, relations, chain: bool):
    n = len(vertices)

    def check(output):
        data = _json_ok(output)
        expect(data["vertices"] == list(vertices), "vertex order")
        expect(data["k0_rank"] == n, "k0 rank is not the vertex count")
        if chain:
            expect(data["dimension"] == n * n, f"chain dimension {data['dimension']} != {n * n}")
            expect(data["cartan"] == [[1] * n] * n, "chain Cartan matrix is not all ones")
            return
        dim, cartan = exact.quiver_report(vertices, arrows, relations)
        if dim is None:
            expect(data["dimension"] is None, "infinite algebra reported finite")
        else:
            expect(data["dimension"] == dim, f"dimension {data['dimension']} != {dim}")
            expect(data["cartan"] == cartan, "Cartan matrix differs from the automaton")
            expect(len(data["basis"]) == dim, "basis size")
    return check


def quivers(seed: int, workdir: Path) -> Workload:
    """`delpezzo quiver <file> --json` on finite and infinite algebras.

    The seed picks vertex and arrow labels and the rotation of each
    relation pattern, which leave the algebra and the work unchanged.
    """
    rng = random.Random(seed)
    cases = [(f"chain-{n}", *_chain(n, rng), True) for n in CHAIN_SIZES]
    cases += [(f"cycle-{n}-r{length}x{len(starts)}", *_cycle(n, length, starts, rng), False)
              for n, length, starts in CYCLES]
    cases += [(f"alternating-{b}", *_alternating(b, rng), False) for b in ALTERNATING]
    cases += [(f"free-cycle-{n}", *_cycle(n, 1, (), rng), False) for n in FREE_CYCLES]
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, inputs = [], {}
    for name, vertices, arrows, relations, chain in cases:
        text = quiver_text(vertices, arrows, relations)
        path = workdir / f"{name}.quiver"
        path.write_text(text)
        inputs[name] = text
        jobs.append(Job(name, _cli(["quiver", str(path), "--json"]),
                        _check_quiver(vertices, arrows, relations, chain)))
    return Workload(jobs, inputs)


WORKLOADS = {
    "defect-build": defect_build,
    "defect-verify": defect_verify,
    "proofs": proofs,
    "quivers": quivers,
}
