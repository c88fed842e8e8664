import importlib.resources as res

import pytest

from evrec import language as lang
from evrec.language import (
    HOLDS_FOR,
    INITIATED,
    BoundaryEvent,
    HoldsFor,
    IntervalComplement,
    IntervalIntersection,
    IntervalUnion,
    RuleSyntaxError,
    StratificationError,
)

import packs

PACK = (res.files("evrec") / "rules" / "surveillance.rtec").read_text()


def test_parse_bundled_pack():
    ed = lang.parse(PACK)
    assert set(ed.declarations) == {
        "appear", "disappear", "walking", "running", "active", "inactive",
        "abrupt", "close", "person", "leaving_object", "moving", "moving_sd",
    }
    assert ed.kind_of("person") == "simple"
    assert ed.kind_of("moving_sd") == "sd"
    assert ed.kind_of("close") == "input_fluent"
    assert ed.declarations["close"].arity == 2
    assert "entity" in ed.auto_domains
    assert len(ed.rules) == 14
    assert (ed.rules[-1].kind, ed.rules[-1].head.name) == (HOLDS_FOR, "moving_sd")


def test_load_bundled_pack_is_clean():
    ed, diagnostics = lang.load(PACK)
    assert [d for d in diagnostics if d.severity == "error"] == []


def test_stratification_levels():
    ed, _ = lang.load(PACK)
    assert ed.fluent_level("walking") == 0
    assert ed.fluent_level("close") == 0
    assert ed.fluent_level("person") == 1
    assert ed.fluent_level("moving") == 1
    assert ed.fluent_level("moving_sd") == 1
    assert ed.fluent_level("leaving_object") == 2


def test_comments_and_whitespace_ignored():
    ed = lang.parse("% nothing here\ninput event e/1\n% trailing\n")
    assert ed.declarations["e"].kind == "input_event"


def test_undeclared_name_rejected():
    with pytest.raises(RuleSyntaxError):
        lang.parse(
            "input event e/1\nsimple fluent f/1\n"
            "initiatedAt(f(X) = true, T) <- happensAt(mystery(X), T).\n"
        )


def test_arity_mismatch_rejected():
    with pytest.raises(RuleSyntaxError):
        lang.parse(
            "input event e/2\nsimple fluent f/1\n"
            "initiatedAt(f(X) = true, T) <- happensAt(e(X), T).\n"
        )


def test_event_used_as_fluent_rejected():
    with pytest.raises(RuleSyntaxError):
        lang.parse(
            "input event e/1\nsimple fluent f/1\n"
            "initiatedAt(f(X) = true, T) <- holdsAt(e(X) = true, T).\n"
        )



@pytest.mark.parametrize("kind", ["input event", "event"])
def test_an_event_read_as_a_fluent_is_reported_with_its_line(kind):
    text = (f"{kind} ev/1\nsimple fluent f/1\ninput event e/1\n\n"
            "initiatedAt(f(X) = true, T) <- happensAt(e(X), T), holdsAt(ev(X) = true, T).\n")
    with pytest.raises(RuleSyntaxError, match=r"'ev' is an event, not a fluent \(line 5,"):
        lang.parse(text)


def test_a_fluent_read_as_an_event_is_reported_with_its_line():
    text = "input fluent g/1\nevent ev/1\n\nhappensAt(ev(X), T) <- happensAt(g(X), T).\n"
    with pytest.raises(RuleSyntaxError, match=r"'g' is a fluent, not an event \(line 4,"):
        lang.parse(text)


GROUNDED = "domain ent = {a}\ninput event e/1\nsimple fluent f/1\n"


@pytest.mark.parametrize("line, says", [
    ("ground zz over ent", "grounding for undeclared name 'zz'"),
    ("ground f over nowhere", "grounding refers to unknown domain 'nowhere'"),
])
def test_a_bad_grounding_is_reported_at_its_line(line, says):
    with pytest.raises(RuleSyntaxError, match=f"{says} \\(line 6,"):
        lang.parse(GROUNDED + "\n\n" + line + "\n")


def test_a_grounding_of_the_wrong_arity_is_reported_at_its_line():
    text = GROUNDED.replace("f/1", "f/2") + (
        "\ninitiatedAt(f(X, Y) = true, T) <- happensAt(e(X), T), happensAt(e(Y), T).\n"
        "ground f over ent\n")
    errors = [d for d in lang.load(text)[1] if d.severity == "error"]
    assert [(d.line, d.message) for d in errors] == [
        (6, "'f' has arity 2, but its grounding ent gives tuples of length 1")]


def test_a_fluent_without_a_grounding_is_reported_at_its_first_rule():
    text = GROUNDED + ("\ninitiatedAt(f(X) = true, T) <- happensAt(e(X), T).\n"
                       "terminatedAt(f(X) = true, T) <- happensAt(e(X), T).\n")
    errors = [d for d in lang.load(text)[1] if d.severity == "error"]
    assert [(d.line, d.message) for d in errors] == [
        (5, "no grounding domain declared for 'f'")]

def test_duplicate_declaration_rejected():
    with pytest.raises(RuleSyntaxError):
        lang.parse("input event e/1\ninput event e/1\n")


def test_iff_expansion_shape():
    ed = lang.parse(
        "input fluent a/1\ninput fluent b/1\ninput fluent c/1\ninput fluent d/1\n"
        "sd fluent g/1\nground g over ent\ndomain ent = {x}\n"
        "g(X) = on iff (a(X) = on or b(X) = on), c(X) = on, not d(X) = on.\n"
    )
    [rule] = ed.rules
    assert rule.kind == HOLDS_FOR
    kinds = [type(lit) for lit in rule.body]
    assert kinds.count(HoldsFor) == 4
    assert kinds.count(IntervalUnion) == 1
    assert kinds.count(IntervalIntersection) == 1
    assert kinds.count(IntervalComplement) == 1
    # the complement output is the head interval variable
    assert rule.body[-1].out == rule.head_var


def test_iff_single_conjunct_needs_no_constructs():
    ed = lang.parse(
        "input fluent a/1\nsd fluent g/1\nground g over ent\ndomain ent = {x}\n"
        "g(X) = on iff a(X) = on.\n"
    )
    [rule] = ed.rules
    assert [type(lit) for lit in rule.body] == [HoldsFor]
    assert rule.body[0].interval == rule.head_var


TWO_SIMPLE = (
    "input event e/1\ninput event h/1\nsimple fluent f/1\nsimple fluent g/1\n"
    "ground f over ent\nground g over ent\ndomain ent = {x}\n"
    "initiatedAt(f(X) = a, T) <- happensAt(e(X), T).\n"
)
CYCLES = {
    "two sd fluents": (
        "input event e/1\nsd fluent a/1\nsd fluent b/1\n"
        "ground a over ent\nground b over ent\ndomain ent = {x}\n"
        "holdsFor(a(X) = true, I) <- holdsFor(b(X) = true, I).\n"
        "holdsFor(b(X) = true, I) <- holdsFor(a(X) = true, I).\n"
    ),
    # no value reads itself, but f=d reads g=c and g=b reads f=a
    "values of two fluents": TWO_SIMPLE + (
        "initiatedAt(g(X) = c, T) <- happensAt(e(X), T).\n"
        "initiatedAt(g(X) = b, T) <- happensAt(h(X), T), holdsAt(f(X) = a, T).\n"
        "initiatedAt(f(X) = d, T) <- happensAt(h(X), T), holdsAt(g(X) = c, T).\n"
    ),
    "a fluent reading another of its values": TWO_SIMPLE + (
        "initiatedAt(f(X) = b, T) <- happensAt(h(X), T), holdsAt(f(X) = a, T).\n"
    ),
}


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_cycle_detection(name):
    with pytest.raises(StratificationError):
        lang.load(CYCLES[name])


def test_simple_fluent_needs_a_level():
    # a simple fluent with no body dependencies would sit at level 0
    text = (
        "simple fluent f/1\nground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T).\n"
    )
    with pytest.raises(StratificationError):
        lang.load(text)


def test_validate_flags_constructs_outside_holds_for():
    text = (
        "input event e/1\ninput fluent a/1\nsimple fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T), "
        "holdsFor(a(X) = true, I).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any("interval constructs" in d.message for d in diagnostics)


def test_validate_requires_event_literal():
    text = (
        "input event e/1\ninput fluent a/1\nsimple fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- holdsAt(a(X) = true, T).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any("no event literal" in d.message for d in diagnostics)


@pytest.mark.parametrize("name", sorted(packs.UNEVALUABLE))
def test_load_reports_a_rule_the_engine_cannot_evaluate_with_its_line(name):
    text, says = packs.UNEVALUABLE[name]
    _ed, diagnostics = lang.load(text)
    errors = [d for d in diagnostics if d.severity == "error"]
    assert [d.line for d in errors] == [8]
    assert says in errors[0].message


@pytest.mark.parametrize("name", sorted(packs.UNGROUNDED))
def test_validate_reports_a_name_the_engine_cannot_ground(name):
    text, says = packs.UNGROUNDED[name]
    _ed, diagnostics = lang.load(text)
    errors = [d.message for d in diagnostics if d.severity == "error"]
    assert len(errors) == 1 and says in errors[0]


def test_validate_flags_simple_with_holds_for():
    text = (
        "input fluent a/1\nsimple fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "holdsFor(f(X) = true, I) <- holdsFor(a(X) = true, I).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any("declared simple" in d.message for d in diagnostics)


def test_validate_flags_sd_with_initiated():
    text = (
        "input event e/1\nsd fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any("statically determined" in d.message for d in diagnostics)


def test_validate_flags_missing_grounding():
    text = (
        "input event e/1\nsimple fluent f/1\n"
        "initiatedAt(f(X) = true, T) <- happensAt(e(X), T).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any("no grounding" in d.message for d in diagnostics)


def test_validate_warns_on_missing_initiation():
    text = (
        "input event e/1\nsimple fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "terminatedAt(f(X) = true, T) <- happensAt(e(X), T).\n"
    )
    ed, diagnostics = lang.load(text)
    assert any(d.severity == "warning" and "no initiating rule" in d.message
               for d in diagnostics)


def test_boundary_event_parse():
    text = (
        "input fluent a/1\nsimple fluent f/1\n"
        "ground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(start(a(X) = true), T).\n"
        "terminatedAt(f(X) = true, T) <- happensAt(end(a(X) = true), T).\n"
    )
    ed = lang.parse(text)
    lit = ed.rules[0].body[0]
    assert isinstance(lit.event, BoundaryEvent)
    assert lit.event.which == "start"
    assert ed.rules[1].body[0].event.which == "end"


def test_derived_event_declaration():
    text = (
        "input event e/1\nevent spike/1\n"
        "happensAt(spike(X), T) <- happensAt(e(X), T).\n"
    )
    ed, diagnostics = lang.load(text)
    assert ed.declarations["spike"].kind == "event"
    assert ed.event_level("spike") == 1
    assert [d for d in diagnostics if d.severity == "error"] == []


def test_grounded_tuples_pairs_are_ordered_distinct():
    ed = lang.parse("domain ent = {a, b}\ninput fluent c/2\nground c over pairs(ent)\n")
    assert ed.grounded_tuples("c") == [("a", "b"), ("b", "a")]


def test_auto_domain_fill():
    ed = lang.parse("domain ent = auto\ninput event e/1\n")
    assert ed.domains["ent"] == ()
    ed2 = ed.with_domain("ent", ("p1", "p2"))
    assert ed2.domains["ent"] == ("p1", "p2")


def test_pretty_round_trip():
    ed1 = lang.parse(PACK)
    text2 = lang.pretty(ed1)
    ed2 = lang.parse(text2)
    assert lang.pretty(ed2) == text2
    assert len(ed2.rules) == len(ed1.rules)
    assert ed2.declarations == ed1.declarations
