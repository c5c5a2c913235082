"""Path algebras of quivers with monomial relations.

Paths are written left to right in travel order: in the three-vertex
quiver below, "a b" is the path 1 -> 2 -> 3.  Only monomial relations are
supported; a path is zero exactly when some relation occurs in it as a
contiguous subword.

Nonzero paths are the walks of a forbidden-factor automaton.  A state is
(vertex, last m arrow names), m one less than the longest relation, and a
move appends an outgoing arrow unless a relation is then a suffix of the
recent arrows.  By Ufnarovski's criterion (V. A. Ufnarovskii, "A growth
criterion for graphs and algebras defined by words", Math. Notes 31, 1982)
the algebra is infinite dimensional exactly when a cycle of this finite
automaton is reachable from some (vertex, ()) start, so finiteness is
decided before any path is listed.

The two built-in quivers model the residual components that appear for
nodal degenerations: a pair of vertices with back-and-forth arrows whose
length-2 round trips vanish (dimension 4), and its three-vertex chain
analogue (dimension 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BasisTooLarge, InfiniteDimensional, MalformedRelation, echo

Arrow = tuple[str, str, str]  # (source, target, name)

MAX_BASIS = 200_000  # largest basis path_basis lists for a finite algebra


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[str, ...]]

    def __post_init__(self):
        names = [a[2] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow names must be unique")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex ids must be unique")
        for s, t, _ in self.arrows:
            if s not in self.vertices or t not in self.vertices:
                raise ValueError("arrow endpoint is not a vertex")

    @classmethod
    def build(cls, vertices, arrows, relations=()) -> "Quiver":
        # tuple() of a list, not of a generator: CPython starts the latter at
        # 10 slots and shrinks it, filling the free lists of tuples of other
        # sizes, which only a full garbage collection empties
        return cls(tuple([str(v) for v in vertices]),
                   tuple([(str(s), str(t), str(n)) for s, t, n in arrows]),
                   frozenset(tuple(w) for w in relations))


def single_burban() -> Quiver:
    return Quiver.build(
        ["1", "2"],
        [("1", "2", "a"), ("2", "1", "a*")],
        [("a", "a*"), ("a*", "a")],
    )


def double_burban() -> Quiver:
    return Quiver.build(
        ["1", "2", "3"],
        [("1", "2", "a"), ("2", "1", "a*"), ("2", "3", "b"), ("3", "2", "b*")],
        [("a", "a*"), ("a*", "a"), ("b", "b*"), ("b*", "b")],
    )


@dataclass(frozen=True)
class PathAlgebraReport:
    """Basis data of a path algebra; dimension None means infinite."""

    dimension: int | None
    basis: tuple[str, ...]
    cartan: tuple[tuple[int, ...], ...] | None
    k0_rank: int


State = tuple[str, tuple[str, ...]]  # (vertex, last m arrow names)
Move = tuple[str, State]               # (arrow name, next state)


def _arrow_map(q: Quiver) -> dict[str, Arrow]:
    return {name: (s, t, name) for s, t, name in q.arrows}


def _check_relations(q: Quiver) -> None:
    arrows = _arrow_map(q)
    for word in q.relations:
        if not word:
            raise MalformedRelation("empty relation word")
        for name in word:
            if name not in arrows:
                raise MalformedRelation(f"unknown arrow {echo(name)} in relation")
        for u, v in zip(word, word[1:]):
            if arrows[u][1] != arrows[v][0]:
                raise MalformedRelation(
                    f"relation word {' '.join(word)} is not composable")


def k0_rank(q: Quiver) -> int:
    """Vertex count: rank of K_0 of a finite-dimensional basic algebra."""
    return len(q.vertices)


def _automaton(q: Quiver) -> tuple[dict[State, list[Move]], int] | None:
    """Moves of the reachable forbidden-factor automaton and its number of
    walks from the (vertex, ()) starts, or None when a cycle is reachable.

    States are discovered by an iterative three-colour depth-first search
    from every (vertex, ()) start (unseen: not in the table; grey: in the
    table, no walk count yet; black: finished).  Meeting a grey state
    closes a cycle.  A state finishes after all its successors, so its
    walk count is one plus theirs.  The search keeps its own stack, so deep
    automata do not reach Python's recursion limit.
    """
    outgoing: dict[str, list[tuple[str, str]]] = {v: [] for v in q.vertices}
    for s, t, name in q.arrows:
        outgoing[s].append((name, t))
    lengths = {len(w) for w in q.relations}
    memory = max(lengths, default=1) - 1

    def moves_from(state: State) -> list[Move]:
        vertex, recent = state
        moves = []
        for name, t in outgoing[vertex]:
            word = recent + (name,)
            if not any(word[-k:] in q.relations for k in lengths):
                moves.append((name, (t, word[-memory:] if memory else ())))
        return moves

    table: dict[State, list[Move]] = {}
    walks: dict[State, int] = {}
    for v in q.vertices:
        start = (v, ())
        if start in table:
            continue
        table[start] = moves_from(start)
        stack = [(start, iter(table[start]))]
        while stack:
            state, pending = stack[-1]
            move = next(pending, None)
            if move is None:
                walks[state] = 1   # a plain loop: sum() over a generator costs 3x
                for _, nxt in table[state]:
                    walks[state] += walks[nxt]
                stack.pop()
                continue
            nxt = move[1]
            if nxt not in table:
                table[nxt] = moves_from(nxt)
                stack.append((nxt, iter(table[nxt])))
            elif nxt not in walks:
                return None
    return table, sum(walks[(v, ())] for v in q.vertices)


def path_basis(q: Quiver) -> PathAlgebraReport:
    """Decide finiteness on the forbidden-factor automaton, then list paths.

    A reachable cycle of the automaton pumps to arbitrarily long nonzero
    paths, so the report is infinite (dimension None) without listing any.
    Otherwise every walk ends, and the nonzero paths are enumerated by
    increasing length, each carrying its automaton state so that extending
    it is a lookup in the move table.  The automaton's walk count is the
    dimension, so more than MAX_BASIS paths are refused before any is
    listed.  The basis is sorted by length, then word, then source vertex.
    """
    _check_relations(q)
    automaton = _automaton(q)
    if automaton is None:
        return PathAlgebraReport(None, (), None, k0_rank(q))
    table, size = automaton
    if size > MAX_BASIS:
        raise BasisTooLarge(f"path algebra has more than {MAX_BASIS} basis paths")

    level = [(v, (), (v, ())) for v in q.vertices]
    basis: list[tuple[str, tuple[str, ...], State]] = []
    while level:
        basis.extend(level)
        level = [(source, word + (name,), nxt)
                 for source, word, state in level
                 for name, nxt in table[state]]

    basis.sort(key=lambda p: (len(p[1]), p[1], p[0]))
    index = {v: i for i, v in enumerate(q.vertices)}
    n = len(q.vertices)
    cartan = [[0] * n for _ in range(n)]
    for source, _, (target, _) in basis:
        cartan[index[source]][index[target]] += 1
    return PathAlgebraReport(
        dimension=len(basis),
        basis=tuple([".".join(word) if word else f"e_{source}"
                     for source, word, _ in basis]),
        cartan=tuple([tuple(row) for row in cartan]),
        k0_rank=k0_rank(q),
    )


def cartan_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) counts nonzero basis paths from vertex i to vertex j."""
    report = path_basis(q)
    if report.dimension is None:
        raise InfiniteDimensional("path algebra is infinite dimensional")
    return report.cartan
