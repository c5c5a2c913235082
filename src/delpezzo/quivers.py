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
        vertices = set(self.vertices)
        if len(vertices) != len(self.vertices):
            raise ValueError("vertex ids must be unique")
        for s, t, _ in self.arrows:
            if s not in vertices or t not in vertices:
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


def _check_relations(q: Quiver) -> None:
    arrows = {name: (s, t) for s, t, name in q.arrows}
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

    Moves are in arrow-name order.  A move by arrow x looks up the relations
    ending in x, and is refused when the recent arrows end with one minus x.

    States are discovered by an iterative three-colour depth-first search
    from every (vertex, ()) start (unseen: not in the table; grey: in the
    table, no walk count yet; black: finished).  Meeting a grey state
    closes a cycle.  A state finishes after all its successors, so its
    walk count is one plus theirs.  The search keeps its own stack, so deep
    automata do not reach Python's recursion limit.
    """
    heads: dict[str, list[tuple[str, ...]]] = {}   # last arrow -> the rest of each relation
    for word in q.relations:
        heads.setdefault(word[-1], []).append(word[:-1])
    outgoing: dict[str, list[tuple[str, str, list]]] = {v: [] for v in q.vertices}
    for s, t, name in sorted(q.arrows, key=lambda a: a[2]):
        outgoing[s].append((name, t, heads.get(name, [])))
    memory = max(map(len, q.relations), default=1) - 1

    def moves_from(state: State) -> list[Move]:
        vertex, recent = state
        k = len(recent)
        moves = []
        for name, t, ends in outgoing[vertex]:
            for head in ends:   # a start below 0 slices fewer arrows than head has
                if recent[k - len(head):] == head:
                    break
            else:
                moves.append((name, (t, (recent + (name,))[-memory:] if memory else ())))
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
    Otherwise every walk ends.  The automaton's walk count is the dimension,
    so more than MAX_BASIS paths are refused before any is listed.  Paths
    are listed by length, each with its text, source and automaton state,
    so extending one is a lookup in the move table.  They come out ordered
    by length, word, then source without a sort: the e_v by vertex name,
    the arrows by name, and each longer path by extending the level before
    in order by moves in name order; a nonempty word fixes its source.
    """
    _check_relations(q)
    automaton = _automaton(q)
    if automaton is None:
        return PathAlgebraReport(None, (), None, k0_rank(q))
    table, size = automaton
    if size > MAX_BASIS:
        raise BasisTooLarge(f"path algebra has more than {MAX_BASIS} basis paths")

    index = {v: i for i, v in enumerate(q.vertices)}
    cartan = [[int(i == j) for j in range(len(index))] for i in range(len(index))]  # the e_v
    basis = [f"e_{v}" for v in sorted(index)]
    # arrow names are unique, so sorting the arrows compares names only
    level = sorted([(name, i, nxt) for v, i in index.items() for name, nxt in table[(v, ())]])
    while level:
        for text, source, (target, _) in level:
            basis.append(text)
            cartan[source][index[target]] += 1
        level = [(f"{text}.{name}", source, nxt) for text, source, state in level
                 for name, nxt in table[state]]
    return PathAlgebraReport(len(basis), tuple(basis),
                             tuple([tuple(row) for row in cartan]), k0_rank(q))


def cartan_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """Entry (i, j) counts nonzero basis paths from vertex i to vertex j."""
    report = path_basis(q)
    if report.dimension is None:
        raise InfiniteDimensional("path algebra is infinite dimensional")
    return report.cartan
