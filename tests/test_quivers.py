import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpezzo import quivers
from delpezzo.errors import BasisTooLarge, MalformedRelation
from delpezzo.quivers import (MAX_BASIS, Quiver, double_burban, k0_rank, path_basis,
                              single_burban)
from oracles import nonzero_words, transfer_dimension


def test_single_burban_dimension():
    report = path_basis(single_burban())
    assert report.dimension == 4
    assert set(report.basis) == {"e_1", "e_2", "a", "a*"}
    assert report.cartan == ((1, 1), (1, 1))
    assert report.k0_rank == 2


def test_double_burban_dimension():
    report = path_basis(double_burban())
    assert report.dimension == 9
    assert set(report.basis) == {"e_1", "e_2", "e_3", "a", "a*", "b", "b*",
                                 "a.b", "b*.a*"}
    assert report.cartan == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert report.k0_rank == 3


def test_one_vertex_quiver():
    q = Quiver.build(["1"], [])
    report = path_basis(q)
    assert report.dimension == 1
    assert report.cartan == ((1,),)
    assert k0_rank(q) == 1


def test_empty_quiver():
    q = Quiver.build([], [])
    assert k0_rank(q) == 0
    assert path_basis(q).dimension == 0


@pytest.mark.parametrize("builder", [single_burban, double_burban])
def test_dimension_matches_transfer_oracle(builder):
    q = builder()
    assert path_basis(q).dimension == \
        transfer_dimension(q.vertices, q.arrows, q.relations)


def test_burban_paths_of_length_three_vanish():
    # exhaust all composable length-3 words and check each hits a relation
    for q in (single_burban(), double_burban()):
        arrows = {n: (s, t) for s, t, n in q.arrows}
        words = []
        for n1 in arrows:
            for n2 in arrows:
                if arrows[n1][1] != arrows[n2][0]:
                    continue
                for n3 in arrows:
                    if arrows[n2][1] == arrows[n3][0]:
                        words.append((n1, n2, n3))
        assert words
        for w in words:
            assert any(w[i:i + len(r)] == tuple(r)
                       for r in q.relations for i in range(len(w)))


def test_loop_quiver_is_infinite():
    q = Quiver.build(["1"], [("1", "1", "a")])
    report = path_basis(q)
    assert report.dimension is None
    assert report.cartan is None
    assert transfer_dimension(q.vertices, q.arrows, q.relations) is None


def test_loop_with_square_zero_is_finite():
    q = Quiver.build(["1"], [("1", "1", "a")], [("a", "a")])
    report = path_basis(q)
    assert report.dimension == 2
    assert report.cartan == ((2,),)


def test_kronecker_quiver():
    q = Quiver.build(["1", "2"], [("1", "2", "x"), ("1", "2", "y")])
    report = path_basis(q)
    assert report.dimension == 4
    assert report.cartan == ((1, 2), (0, 1))


def test_malformed_relations():
    q = Quiver.build(["1", "2"], [("1", "2", "a")], [("a", "a")])
    with pytest.raises(MalformedRelation):
        path_basis(q)
    q2 = Quiver.build(["1", "2"], [("1", "2", "a")], [("zz",)])
    with pytest.raises(MalformedRelation):
        path_basis(q2)
    empty = Quiver.build(["1"], [], [()])
    with pytest.raises(MalformedRelation) as err:
        path_basis(empty)
    assert (err.value.code, str(err.value)) == (40, "empty relation word")


def test_relabeling_gives_isomorphic_report():
    base = double_burban()
    perm = {"1": "3", "2": "2", "3": "1"}
    renamed = Quiver.build(
        [perm[v] for v in base.vertices],
        [(perm[s], perm[t], n + "'") for s, t, n in base.arrows],
        [tuple(n + "'" for n in rel) for rel in base.relations],
    )
    a, b = path_basis(base), path_basis(renamed)
    assert a.dimension == b.dimension
    assert a.k0_rank == b.k0_rank
    # Cartan matrices agree up to the simultaneous vertex permutation
    order = [renamed.vertices.index(perm[v]) for v in base.vertices]
    permuted = tuple(tuple(b.cartan[order[i]][order[j]]
                           for j in range(3)) for i in range(3))
    assert permuted == a.cartan


def test_random_monomial_quivers_match_oracle():
    import random
    rng = random.Random(5)
    for _ in range(25):
        nv = rng.randint(1, 3)
        vertices = [str(i) for i in range(1, nv + 1)]
        arrows = []
        for k in range(rng.randint(0, 4)):
            arrows.append((rng.choice(vertices), rng.choice(vertices),
                           f"a{k}"))
        names = [a[2] for a in arrows]
        by_name = {n: (s, t) for s, t, n in arrows}
        relations = []
        for _ in range(rng.randint(0, 3)):
            n1 = rng.choice(names) if names else None
            if n1 is None:
                break
            options = [n2 for n2 in names if by_name[n1][1] == by_name[n2][0]]
            if options:
                relations.append((n1, rng.choice(options)))
        q = Quiver.build(vertices, arrows, relations)
        report = path_basis(q)
        assert report.dimension == \
            transfer_dimension(q.vertices, q.arrows, q.relations)
        if report.dimension is not None:
            assert report.dimension == sum(sum(row) for row in report.cartan)


def test_long_linear_quiver_is_finite():
    # A_70 without relations: one path per pair i <= j, longest has 69 arrows
    n = 70
    q = Quiver.build([str(i) for i in range(n)],
                     [(str(i), str(i + 1), f"a{i}") for i in range(n - 1)])
    assert path_basis(q).dimension == n * (n + 1) // 2 == 2485
    assert transfer_dimension(q.vertices, q.arrows, q.relations) == 2485


@st.composite
def monomial_quivers(draw):
    vertices = [str(i) for i in range(1, draw(st.integers(1, 4)) + 1)]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [(s, t, f"a{k}") for k, (s, t) in
              enumerate(draw(st.lists(ends, max_size=6)))]
    relations = []
    for _ in range(draw(st.integers(0, 4)) if arrows else 0):
        word = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(0, 3))):
            options = [a for a in arrows if a[0] == word[-1][1]]
            if not options:
                break
            word.append(draw(st.sampled_from(options)))
        relations.append(tuple(a[2] for a in word))
    return Quiver.build(vertices, arrows, relations)


@settings(max_examples=300, deadline=None)
@given(monomial_quivers())
def test_path_basis_matches_oracles(q):
    report = path_basis(q)
    assert report.dimension == \
        transfer_dimension(q.vertices, q.arrows, q.relations)
    if report.dimension is not None:
        assert set(report.basis) == \
            nonzero_words(q.vertices, q.arrows, q.relations)
        assert len(report.basis) == report.dimension
        assert sum(map(sum, report.cartan)) == report.dimension


def report_order(text: str):
    """(length, word, source) of a basis text; no arrow name here holds a
    '.' or starts with 'e_', and a nonempty word fixes its source."""
    if text.startswith("e_"):
        return 0, (), text[2:]
    word = tuple(text.split("."))
    return len(word), word, ""


# names whose tuple order differs from the order of their joined texts:
# ("a", "a0") < ("a*", "a") as tuples, but "a*.a" < "a.a0" as text
NAMES = ("a", "a*", "a0", "b", "b*", "ab")


@st.composite
def named_quivers(draw):
    vertices = draw(st.lists(st.sampled_from(["1", "2", "10", "x", "x*"]),
                             min_size=1, max_size=4, unique=True))
    names = draw(st.permutations(NAMES))[:draw(st.integers(0, len(NAMES)))]
    arrows = [(draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)), n)
              for n in names]
    relations = []
    for _ in range(draw(st.integers(0, 4)) if arrows else 0):
        word = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(0, 3))):
            options = [a for a in arrows if a[0] == word[-1][1]]
            if not options:
                break
            word.append(draw(st.sampled_from(options)))
        relations.append(tuple(a[2] for a in word))
    return Quiver.build(vertices, arrows, relations)


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomial_quivers(), named_quivers()))
def test_path_basis_comes_in_report_order(q):
    report = path_basis(q)
    if report.dimension is not None:
        assert list(report.basis) == sorted(
            nonzero_words(q.vertices, q.arrows, q.relations), key=report_order)


def test_length_one_relation_removes_its_arrow():
    q = Quiver.build(["2", "1"], [("1", "2", "a0"), ("2", "1", "a*"), ("1", "1", "a")],
                     [("a*",), ("a", "a")])
    assert path_basis(q).basis == ("e_1", "e_2", "a", "a0", "a.a0")


def test_relation_that_is_a_prefix_or_suffix_of_another():
    # a.a is a prefix of a.a.b, which c.a.b shares its last arrow with
    q = Quiver.build(["1", "2"], [("1", "1", "a"), ("1", "2", "b"), ("2", "1", "c")],
                     [("a", "a"), ("a", "a", "b"), ("c", "a", "b"), ("b", "c", "b"),
                      ("c", "b", "c")])
    report = path_basis(q)
    assert report.basis == ("e_1", "e_2", "a", "b", "c", "a.b", "b.c", "c.a", "c.b",
                            "a.b.c", "b.c.a", "a.b.c.a")
    assert report.cartan == ((6, 2), (2, 2))


def _parallel_line(n: int, width: int = 4) -> Quiver:
    """A line of n vertices with `width` parallel arrows per edge."""
    return Quiver.build([str(i) for i in range(n)],
                        [(str(i), str(i + 1), f"a{i}_{k}")
                         for i in range(n - 1) for k in range(width)])


def test_basis_past_the_cap_is_refused(monkeypatch):
    # sum over lengths k of (n - k) 4^k paths: 116,505 for n = 9
    q = _parallel_line(9)
    assert path_basis(q).dimension == 116_505 <= MAX_BASIS
    for n in (10, 12):
        with pytest.raises(BasisTooLarge):
            path_basis(_parallel_line(n))
    monkeypatch.setattr(quivers, "MAX_BASIS", 116_504)
    with pytest.raises(BasisTooLarge):
        path_basis(q)


@settings(max_examples=200, deadline=None)
@given(monomial_quivers())
def test_walk_count_is_the_dimension(q):
    automaton = quivers._automaton(q)
    dimension = path_basis(q).dimension
    assert (automaton is None) == (dimension is None)
    if automaton is not None:
        assert automaton[1] == dimension
