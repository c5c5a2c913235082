from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from delpezzo.dsl import (_parse_fraction, builtin_script_names, load_builtin_script,
                          parse_class, parse_instance, parse_intersection_expr,
                          parse_node, parse_quiver, parse_script,
                          render_instance, render_script)
from delpezzo.errors import (InstanceFormatError, OutOfRangeDegree,
                             ScriptSyntaxError)
from delpezzo.intersection import DivisorClass, class_text, from_hd, he
from delpezzo.mutations import RULES, SLOT, MutationRule
from delpezzo.quivers import Quiver, path_basis
from delpezzo.sod import LineBundle, Opaque, TwistedStructureSheaf
from delpezzo.wps import WeightedSpace, build_nodal_hypersurface


def test_builtin_scripts_present():
    assert builtin_script_names() == [
        "prop-Y-to-V", "prop-Y-to-V-4", "prop-Y-to-W-4", "prop-Y-to-W-5"]


def test_line_side_script_has_nine_rules():
    script = load_builtin_script("prop-Y-to-V")
    assert len(script.rules) == 9
    assert script.d == 5
    assert script.ambient == "Y5"


def test_parse_class_forms():
    assert parse_class("2H-E") == (False, 2, -1)
    assert parse_class("-h") == (True, -1, 0)
    assert parse_class("D-2h") == (True, -2, 1)
    assert parse_class("0") == (False, 0, 0)
    assert parse_class("H+E") == (False, 1, 1)
    with pytest.raises(ScriptSyntaxError):
        parse_class("H+q")
    with pytest.raises(ScriptSyntaxError):
        parse_class("H+h")
    # an empty class is refused at its column, not read as 0
    for text, col in [("", 3), ("  ", 5)]:
        with pytest.raises(ScriptSyntaxError) as info:
            parse_class(text, 2, 3)
        assert (info.value.line, info.value.col) == (2, col)


def test_parse_node_forms():
    assert parse_node("O(E-H)", 5) == LineBundle(he(-1, 1))
    assert parse_node("O_E(2H)", 5) == TwistedStructureSheaf("E", he(2, 0))
    # the projection-side twisted sheaf lands in canonical coordinates
    assert parse_node("O_D(D-h)", 5) == TwistedStructureSheaf("D", he(0, -1))
    node = parse_node("CAT(A_C)", 5)
    assert isinstance(node, Opaque) and node.name == "A_C"
    with pytest.raises(ScriptSyntaxError):
        parse_node("Q(H)", 5)


@given(st.sampled_from([4, 5]), st.integers(-9, 9), st.integers(-9, 9))
def test_hd_literal_reads_back_the_written_class(d, a, b):
    c = DivisorClass((a, b))
    assert parse_node(f"O({class_text(c, d)})", d) == LineBundle(c)


def test_misspelled_keyword_reports_position():
    text = "ambient Y d=5\naxiom <CAT(DbY)>\nswap att 3\nexpect <CAT(DbY)>\n"
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text)
    assert err.value.line == 3
    assert err.value.col == 6


@pytest.mark.parametrize("literal, col", [
    ("<O(0), O(0), Q(H)>", 20), ("<Q(H), O(0)>", 8), ("<O(0),   Q(H)>", 16),
    ("<O(0),, O(H)>", 13), ("<O(0), O(2q)>", 16), ("<O(  2X)>", 12)])
def test_node_error_names_the_node_column(literal, col):
    text = f"ambient Y d=5\naxiom {literal}\nexpect <CAT(DbY)>\n"
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script(text)
    assert (err.value.line, err.value.col) == (2, col)


def test_empty_script_is_rejected():
    with pytest.raises(ScriptSyntaxError) as err:
        parse_script("")
    assert err.value.line == 1
    with pytest.raises(ScriptSyntaxError):
        parse_script("# only a comment\n")


@pytest.mark.parametrize("d", [0, 3, 7])
def test_header_degree_out_of_range_is_rejected_at_parse(d):
    text = f"# degree {d}\nambient Y d={d}\naxiom <CAT(DbY)>\nexpect <CAT(DbY)>\n"
    with pytest.raises(OutOfRangeDegree) as err:
        parse_script(text)
    assert err.value.code == 21
    assert str(err.value) == f"line 2: degree must be 4, 5 or 6, got {d}"


def test_header_is_required_first():
    with pytest.raises(ScriptSyntaxError):
        parse_script("axiom <CAT(DbY)>\n")


def test_expect_must_be_last():
    text = ("ambient Y d=5\naxiom <CAT(DbY)>\n"
            "expect <CAT(DbY)>\nswap at 1\n")
    with pytest.raises(ScriptSyntaxError):
        parse_script(text)


def test_round_trip_print_parse():
    for name in builtin_script_names():
        script = load_builtin_script(name)
        text = render_script(script)
        again = parse_script(text, name=script.name)
        assert again == script
        assert render_script(again) == text


def _rule_fields(rule_id):
    """Field values a rule's template slots accept: integers (unsigned in a
    block i..j), one of the listed words, or any word."""
    fields = {"rule_id": st.just(rule_id)}
    for word in RULES[rule_id][0].split():
        slots = SLOT.findall(word)
        for name, spec in slots:
            if len(slots) > 1:
                fields[name] = st.integers(0, 99)
            elif not spec:
                fields[name] = st.integers(-99, 99)
            elif spec == "*":
                fields[name] = st.from_regex(r"[A-Za-z0-9_+*.'-]+", fullmatch=True)
            else:
                fields[name] = st.sampled_from(spec.split("|"))
    return st.builds(MutationRule, **fields)


@given(st.sampled_from(sorted(RULES)).flatmap(_rule_fields))
def test_every_rule_form_round_trips(rule):
    text = rule.text()
    script = parse_script(f"ambient Y d=5\naxiom <CAT(DbY)>\n{text}\n"
                          "expect <CAT(DbY)>\n")
    assert script.rules == (rule,)
    assert script.rules[0].text() == text


def test_hd_degree_detection():
    assert load_builtin_script("prop-Y-to-W-4").hd_degree == 4
    assert load_builtin_script("prop-Y-to-V").hd_degree is None


# (script, its canonical text): the expect line alone picks the writing
# basis, {h, D} when one of its classes is written in h and D
_DISPLAY_CASES = [
    ("ambient Y d=5\naxiom <O(h), O(D-h)>\nexpect <O(H-E)>\n",
     "ambient Y d=5\naxiom <O(H-E), O(-E)>\nexpect <O(H-E)>\n"),
    ("ambient Y d=5\naxiom <O(H), O_E(E)>\nexpect <O(0), O_D( h), O(0)>\n",
     "ambient Y d=5\naxiom <O(2h-D), O_E(h-D)>\nexpect <O(0), O_D(h), O(0)>\n"),
    ("ambient Y d=5\naxiom <O(h), CAT(DbY)>\nexpect <O(0), CAT(DbY)>\n",
     "ambient Y d=5\naxiom <O(H-E), CAT(DbY)>\nexpect <O(0), CAT(DbY)>\n"),
]


@pytest.mark.parametrize("text,rendered", _DISPLAY_CASES)
def test_expect_line_picks_the_writing_basis(text, rendered):
    script = parse_script(text)
    assert render_script(script) == rendered
    again = parse_script(rendered)
    assert again == script
    assert render_script(again) == rendered


def test_instance_round_trip():
    space = WeightedSpace((1, 1, 1, 1, 1))
    hyp = build_nodal_hypersurface(space, 3, [(0, 0, 0, 0, 1)])
    text = render_instance(hyp)
    space2, degree, nodes, coeffs = parse_instance(text)
    assert space2 == space
    assert degree == 3
    assert [tuple(map(Fraction, n)) for n in nodes] == list(hyp.nodes)
    assert tuple(coeffs) == hyp.coefficients


def test_instance_errors():
    with pytest.raises(InstanceFormatError):
        parse_instance("degree 3\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("weights 1 1\ndegree 1\ncoeffs 1\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("weights 1 1\ndegree 1\nnode 1 1/0\n")
    # a second header line used to replace the first; node lines may repeat
    for text, where in [
        ("weights 1 1 1 1 2\ndegree 4\nweights 1 1 1 1 1\n", "line 3: duplicate weights"),
        ("weights 1 1\ndegree 1\n# again\ndegree 2\n", "line 4: duplicate degree"),
        ("weights 1 1\ndegree 1\ncoeffs 1 1\nnode 1 0\nnode 1 1\ncoeffs 1 2\n",
         "line 6: duplicate coeffs"),
    ]:
        with pytest.raises(InstanceFormatError, match=rf"^{where} line$"):
            parse_instance(text)


# lines 1 to 6 hold a comment, a blank line, a header with a trailing
# comment, spaces, a comment and a header, all ended by \r\n; a reader that
# numbered only the lines holding tokens would place line 7's fault at 3
@pytest.mark.parametrize("parse, first, second, fault, message", [
    (parse_script, "ambient Y d=5", "axiom <CAT(DbY)>", "  swap att 3",
     "line 7, col 8: expected 'at'"),
    (parse_instance, "weights 1 1 1 1 1", "degree 3", "shape 1",
     "line 7: expected weights, degree, node or coeffs"),
    (parse_quiver, "vertices a b", "arrow x a b", "relation  # no arrows",
     "line 7: empty relation"),
])
def test_every_format_numbers_all_its_lines(parse, first, second, fault, message):
    text = "\r\n".join(["# a comment", "", f"{first}  # a header", "   ",
                        "# another comment", second, fault, ""])
    with pytest.raises((ScriptSyntaxError, InstanceFormatError)) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_quiver_file():
    text = """
    vertices 1 2
    arrow a 1 2
    arrow a* 2 1
    relation a a*
    relation a* a
    """
    q = parse_quiver(text)
    assert path_basis(q).dimension == 4
    with pytest.raises(InstanceFormatError):
        parse_quiver("arrow a 1 2\n")


@pytest.mark.parametrize("text, arrows", [
    ("vertices 1 1\n", []),
    ("vertices 1 2\narrow a 1 2\narrow a 2 1\n", [("1", "2", "a"), ("2", "1", "a")]),
    ("vertices 1\narrow a 1 9\n", [("1", "9", "a")]),
])
def test_parse_quiver_rejects_what_quiver_rejects(text, arrows):
    with pytest.raises(InstanceFormatError, match="line "):
        parse_quiver(text)
    vertices = text.splitlines()[0].split()[1:]
    with pytest.raises(ValueError):
        Quiver.build(vertices, arrows)


def test_parse_intersection_expr():
    cube = parse_intersection_expr("(H-E)^3", 5)
    assert cube == [he(1, -1)] * 3
    mixed = parse_intersection_expr("H^2*E", 5)
    assert mixed == [he(1, 0), he(1, 0), he(0, 1)]
    h, D = from_hd(1, 0, 5), from_hd(0, 1, 5)
    assert parse_intersection_expr("(h)^2*(D)", 5) == [h, h, D]
    with pytest.raises(InstanceFormatError):
        parse_intersection_expr("(H-E)^2", 5)
    with pytest.raises(InstanceFormatError):
        parse_intersection_expr("(H-E", 5)


@pytest.mark.parametrize("text, message", [
    ("(H-)^3", "col 3: expected a signed term like 2H, -E or +D"),
    ("(H - )^3", "col 4: expected a signed term like 2H, -E or +D"),
    ("H * (2H+h) * E", "col 6: expected a class over one basis, {H,E} or {h,D}"),
])
def test_intersection_expr_errors_name_the_column_in_the_expression(text, message):
    with pytest.raises(InstanceFormatError) as info:
        parse_intersection_expr(text, 5)
    assert str(info.value) == message


def _fraction_token(tok, line):
    """The rational token parser that sends every token through Fraction."""
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InstanceFormatError(f"line {line}: bad rational {tok!r}") from None


def _outcome(parse, tok):
    try:
        value = parse(tok, 3)
    except InstanceFormatError as exc:
        return "error", str(exc)
    return type(value), value


@given(st.text(st.sampled_from("0123456789+-/._eE \u0663\u00b2x"), max_size=8))
@example("007")
@example("-0")
@example("+12")
@example("1_000")
@example("\u0663")
@example("1/0")
@example("")
def test_integer_tokens_parse_like_fraction(tok):
    assert _outcome(_parse_fraction, tok) == _outcome(_fraction_token, tok)
