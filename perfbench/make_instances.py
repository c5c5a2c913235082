"""Regenerate the committed weighted instances in perfbench/instances.

Each instance is a hypersurface on P(1,1,1,1,2) or P(1,1,1,2,3) with
explicit integer coefficients and nodes in general position (the rule of
workloads.general_nodes).  The solve and the nodality test use this
directory's own exact code, not delpezzo, so the files are independent
inputs for the defect-verify workload.

    python3 perfbench/make_instances.py
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import exact
from workloads import INSTANCES, general_nodes, hyp_text

SEED = 5
CASES = (("quartic", (1, 1, 1, 1, 2), 4, (5,)),
         ("sextic", (1, 1, 1, 2, 3), 6, (8, 10, 12)))


def nodal_form(weights, degree, nodes, rng) -> exact.Poly:
    monos = exact.monomials(weights, degree)
    rows = []
    for p in nodes:
        rows.append([exact.evaluate({e: Fraction(1)}, p) for e in monos])
        for i in range(len(weights)):
            rows.append([exact.evaluate(exact.partial({e: Fraction(1)}, i), p)
                         for e in monos])
    kernel = exact.nullspace(rows, len(monos))
    while True:
        mix = [rng.randint(-3, 3) for _ in kernel]
        coeffs = [sum(m * v[k] for m, v in zip(mix, kernel)) for k in range(len(monos))]
        scale = lcm(*(Fraction(c).denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        g = gcd(*ints)
        if not g:
            continue
        poly = {e: Fraction(c // g) for e, c in zip(monos, ints) if c}
        if all(exact.is_node(poly, p, len(weights) - 1) for p in nodes):
            return poly


def main() -> None:
    rng = random.Random(SEED)
    for label, weights, degree, counts in CASES:
        for count in counts:
            nodes = general_nodes(weights, degree, count, rng)
            poly = nodal_form(weights, degree, nodes, rng)
            path = INSTANCES / f"{label}-{count}n.hyp"
            path.write_text("# written by perfbench/make_instances.py\n"
                            + hyp_text(weights, degree, nodes, poly))
            print(f"wrote {path.name}: {len(poly)} nonzero coefficients")


if __name__ == "__main__":
    main()
