"""Static classification data for del Pezzo threefolds and the degeneration
enumerator for the degree-5 family.

Degrees run from 1 to 8 with an extra product variant in degree 6.  Nodal
members exist for degrees 1 through 6; the projection-from-a-line picture
records, for degrees 4 to 6, the image fibration, the bidegree of the
blow-down center on the exceptional quadric, and the node budget.  The two
degree-5 piece tables are the one source of those pieces' shapes and quivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, OutOfRangeDegree, UnknownDegree, UnsupportedDegree
from .quivers import double_burban, single_burban


@dataclass(frozen=True)
class DelPezzoEntry:
    d: int
    variant: str | None
    ambient: str
    max_nodes: int | None
    singularity_note: str | None
    w_fibration: str | None
    curve_bidegree: tuple[int, int] | None
    curve: str | None
    a_v_shape: str | None


ENTRIES: tuple[DelPezzoEntry, ...] = (
    DelPezzoEntry(1, None, "degree-6 hypersurface in P(1,1,1,2,3)",
                  None, None, None, None, None, None),
    DelPezzoEntry(2, None, "degree-4 hypersurface in P(1,1,1,1,2)",
                  None, None, None, None, None, None),
    DelPezzoEntry(3, None, "cubic hypersurface in P^4",
                  None, None, None, None, None, None),
    DelPezzoEntry(4, None, "intersection of two quadrics in P^5",
                  6, "only cA_n", "P^3 fibration", (2, 3),
                  "arithmetic genus two curve",
                  "Db(C) of the associated genus-2 curve"),
    DelPezzoEntry(5, None, "linear section of Gr(2,5) in P^6",
                  3, "only nodal", "quadric threefold fibration", (1, 2),
                  "generalized twisted cubic",
                  "<A_C, A_Q>"),
    DelPezzoEntry(6, None, "linear section of P^2 x P^2 in P^7",
                  1, "only nodal", "P^1 x P^2 fibration", (1, 1),
                  "conic",
                  "<E1, E2, E3, A_C>"),
    DelPezzoEntry(6, "prime", "product of three projective lines",
                  0, "smooth", "P^1 x P^2 fibration", (0, 2),
                  "two disjoint lines", None),
    DelPezzoEntry(7, None, "blow-up of P^3 at a point",
                  0, "smooth", None, None, None, None),
    DelPezzoEntry(8, None, "P^3",
                  0, "smooth", None, None, None, None),
)


def lookup(d: int, variant: str | None = None) -> DelPezzoEntry:
    for entry in ENTRIES:
        if entry.d == d and entry.variant == variant:
            return entry
    raise UnknownDegree(f"no del Pezzo threefold entry for d={d}"
                        + (f", variant {variant!r}" if variant else ""))


def entries_for(d: int | None = None) -> list[DelPezzoEntry]:
    if d is None:
        return list(ENTRIES)
    found = [e for e in ENTRIES if e.d == d]
    if not found:
        raise UnknownDegree(f"no del Pezzo threefold entry for d={d}")
    return found


def singularity_budget(d: int) -> tuple[int, str]:
    """Maximal node count and singularity type note, degrees 4 to 6."""
    if d not in (4, 5, 6):
        raise OutOfRangeDegree(f"node budgets cover degrees 4..6, got {d}")
    entry = lookup(d)
    return entry.max_nodes, entry.singularity_note


# The degree-5 pieces by node count, each (shape, Burban quiver or None): the
# center is a chain of at most three smooth rational curves, so it carries at
# most two nodes, and the image quadric is smooth or has one node.
CENTER_PIECES = (("exceptional object", None),
                 ("single 2-vertex algebra", single_burban),
                 ("3-vertex chain algebra", double_burban))
QUADRIC_PIECES = (("exceptional pair piece", None),
                  ("single 2-vertex algebra", single_burban))


@dataclass(frozen=True)
class DegenerationCase:
    nodes_c: int
    nodes_q: int
    a_c_shape: str
    a_q_shape: str


def enumerate_degenerations(d: int, total_nodes: int) -> list[DegenerationCase]:
    """Partitions of the node count between the center curve and the image
    quadric for degree 5, each labeled by the resulting algebra shapes."""
    if d != 5:
        raise UnsupportedDegree(
            "the degeneration enumerator covers degree 5 only")
    budget, _ = singularity_budget(5)
    if not 0 <= total_nodes <= budget:
        raise BudgetExceeded(
            f"degree-5 threefolds carry at most {budget} nodes")
    return [DegenerationCase(c, q, CENTER_PIECES[c][0], QUADRIC_PIECES[q][0])
            for c in reversed(range(len(CENTER_PIECES)))
            for q in range(len(QUADRIC_PIECES)) if c + q == total_nodes]
