import gc
import importlib.resources as res
import itertools
import math
import random
import re
import weakref
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evrec import intervals as iv
from evrec import language as lang
from evrec.engine import (
    ConfigError,
    Engine,
    EngineConfig,
    EvaluationError,
    ResultEntry,
    SdeStore,
    _PlanSource,
    query_schedule,
    record_arrival,
    record_occurrence,
    run_stream,
)
from evrec.intervals import OPEN
from evrec.language import HoldsFor
from evrec.streams import InputRecord

import packs
import reference

PACK = (res.files("evrec") / "rules" / "surveillance.rtec").read_text()


def surveillance(*entities):
    ed, _ = lang.load(PACK)
    return ed.with_domain("entity", tuple(entities))


def ev(i, name, args, t, **kw):
    return InputRecord(id=f"e{i}", kind="event", name=name, args=args, t=t, **kw)


def fl(i, name, args, s, e, **kw):
    return InputRecord(
        id=f"f{i}", kind="interval", name=name, args=args, value="true",
        start=s, end=e, **kw,
    )


def entries_of(results, name=None):
    out = []
    for r in results:
        for e in r.entries:
            if name is None or e.name == name:
                out.append((r.q, e.name, e.args, e.start, e.end, e.stability))
    return out


def test_config_validation():
    with pytest.raises(ConfigError):
        EngineConfig(wm=10, step=20)
    with pytest.raises(ConfigError):
        EngineConfig(wm=10, step=10, mode="eager")
    with pytest.raises(ConfigError):
        EngineConfig(wm=0, step=0)


def test_query_times_must_advance_by_step():
    eng = Engine(surveillance("p1"), EngineConfig(wm=20, step=10))
    eng.query(10)
    with pytest.raises(ConfigError):
        eng.query(30)


def test_simple_fluent_plus_one_offset():
    ed = surveillance("p1")
    recs = [fl(1, "walking", ("p1",), 5, 30)]
    _eng, results = run_stream(ed, EngineConfig(wm=100, step=100), recs, last_q=100)
    got = [e for e in results[0].entries if e.name == "person"]
    # initiation at the walking start point 5 makes person hold from 6
    assert [(e.start, e.end) for e in got] == [(6, OPEN)]


def test_forget_discards_old_content():
    ed = surveillance("p1")
    eng = Engine(ed, EngineConfig(wm=20, step=20))
    eng.ingest([ev(1, "appear", ("p1",), 5), fl(1, "walking", ("p1",), 3, 50)])
    eng.query(20)
    eng.query(40)  # boundary 20: the appear event and interval prefix must go
    assert eng.store.event_times("appear", ("p1",)) == []
    assert eng.store.fluent_intervals("walking", ("p1",), "true") == [(21, 50)]
    assert eng.store.min_content() == 21


@pytest.mark.parametrize("start,end", [(10, 5), (10, 10), (-3, 5)])
def test_a_record_that_is_no_interval_is_dropped_with_diagnostic(start, end):
    # alone in its slot it would initiate person; beside a second record it
    # would make the slot's content fail to normalise
    ed = surveillance("p1")
    for kept in ([], [(12, 15)]):
        eng = Engine(ed, EngineConfig(wm=20, step=20))
        eng.ingest([fl(1, "walking", ("p1",), start, end)]
                   + [fl(2, "walking", ("p1",), s, e) for s, e in kept])
        result = eng.query(20)
        assert eng.diagnostics == [f"record 'f1' from {start} to {end} is not an interval; "
                                   "dropped"]
        assert eng.store.fluent_intervals("walking", ("p1",), "true") == kept
        assert [(e.start, e.end) for e in result.entries if e.name == "person"] == [
            (s + 1, OPEN) for s, _e in kept]


def test_an_event_at_a_negative_time_is_dropped_with_diagnostic():
    # the window start of the first query is negative, so it is not late
    eng = Engine(surveillance("p1"), EngineConfig(wm=20, step=10))
    eng.ingest([ev(1, "disappear", ("p1",), -5)])
    eng.query(10)
    assert eng.diagnostics == ["record 'e1' at -5 has a negative time; dropped"]
    assert eng.store.event_times("disappear", ("p1",)) == []


def test_late_record_dropped_with_diagnostic():
    ed = surveillance("p1")
    eng = Engine(ed, EngineConfig(wm=10, step=10))
    eng.query(10)
    eng.query(20)
    eng.ingest([ev(1, "appear", ("p1",), 3)])  # occurred before window start 20
    eng.query(30)
    assert any("dropped" in d for d in eng.diagnostics)
    assert eng.store.event_times("appear", ("p1",)) == []


def test_duplicate_assert_is_ignored():
    # an event, then an interval, asserted again under the id it is stored by
    for first, again, held in (
            (ev(1, "appear", ("p1",), 5), ev(1, "appear", ("p1",), 8), ([5], [])),
            (fl(1, "walking", ("p1",), 5, 20), fl(1, "walking", ("p1",), 8, 30), ([], [(5, 20)]))):
        eng = Engine(surveillance("p1"), EngineConfig(wm=50, step=50))
        eng.ingest([first, again])
        eng.query(50)
        assert (eng.store.event_times("appear", ("p1",)),
                eng.store.fluent_intervals("walking", ("p1",), "true")) == held
        assert any("duplicate" in d for d in eng.diagnostics)


def test_retract_removes_and_changes_result():
    ed = surveillance("p1")
    cfg = EngineConfig(wm=40, step=20)
    recs = [fl(1, "walking", ("p1",), 5, 30)]
    eng = Engine(ed, cfg)
    eng.ingest(recs)
    res = eng.query(20)
    assert entries_of([res], "person")
    eng.ingest([InputRecord(id="f1", action="retract")])
    res = eng.query(40)
    assert entries_of([res], "person") == []


def test_retract_unknown_id_diagnoses():
    eng = Engine(surveillance("p1"), EngineConfig(wm=10, step=10))
    eng.ingest([InputRecord(id="nope", action="retract")])
    eng.query(10)
    assert any("unknown" in d for d in eng.diagnostics)


def test_update_replaces_payload():
    ed = surveillance("p1")
    eng = Engine(ed, EngineConfig(wm=200, step=100))
    eng.ingest([fl(1, "walking", ("p1",), 5, 30)])
    eng.query(100)
    eng.ingest([
        InputRecord(id="f1", action="update", kind="interval", name="walking",
                    args=("p1",), value="true", start=110, end=130)
    ])
    res = eng.query(200)
    assert eng.store.fluent_intervals("walking", ("p1",), "true") == [(110, 130)]
    got = [e for e in res.entries if e.name == "person"]
    assert [(e.start, e.end) for e in got] == [(111, OPEN)]


def test_coord_records_rejected_by_engine():
    eng = Engine(surveillance("p1"), EngineConfig(wm=10, step=10))
    eng.ingest([InputRecord(id="c1", kind="coord", entity="p1", t=1, x=0.0, y=0.0)])
    eng.query(10)
    assert any("preprocessed" in d for d in eng.diagnostics)


def test_open_interval_carries_across_queries():
    ed = surveillance("p1")
    recs = [fl(1, "walking", ("p1",), 5, None)]  # open-ended input
    _eng, results = run_stream(ed, EngineConfig(wm=30, step=10), recs, last_q=60)
    for q, _n, _a, s, e, _st in entries_of(results, "person"):
        assert s == 6 and e is OPEN


def test_kept_start_survives_many_windows():
    ed = surveillance("p1")
    recs = [
        fl(1, "walking", ("p1",), 5, 8),
        ev(1, "disappear", ("p1",), 95),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=20, step=10), recs, last_q=140)
    person = entries_of(results, "person")
    # the interval keeps its original start long after the evidence is gone
    assert all(s == 6 for _q, _n, _a, s, _e, _st in person)
    finals = {(s, e) for _q, _n, _a, s, e, st in person if st == "final"}
    assert finals == {(6, 95)}


def test_final_intervals_reported_exactly_once():
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 10, 40),
        fl(2, "walking", ("p2",), 10, 40),
        fl(3, "close", ("p1", "p2"), 10, 40),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=30, step=10), recs, last_q=120)
    finals = [x for x in entries_of(results, "moving") if x[5] == "final"]
    assert len(finals) == 1
    assert finals[0][3:5] == (11, 40)


def test_stability_classes():
    ed = surveillance("p1")
    recs = [fl(1, "walking", ("p1",), 2, 6), ev(1, "disappear", ("p1",), 18)]
    _eng, results = run_stream(ed, EngineConfig(wm=20, step=10), recs, last_q=40)
    by_q = {r.q: r.entries for r in results}
    # at q=10 the interval is open-ended
    assert [e.stability for e in by_q[10] if e.name == "person"] == ["open"]
    # at q=20 it is closed by disappear, starts at or before nb=10: partial
    assert [(e.end, e.stability) for e in by_q[20] if e.name == "person"] == [
        (18, "partial")
    ]
    # at q=30 the end 19 is at or before nb=20: final
    assert [e.stability for e in by_q[30] if e.name == "person"] == ["final"]


def test_mode_filtering():
    ed = surveillance("p1")
    recs = [fl(1, "walking", ("p1",), 2, 6), ev(1, "disappear", ("p1",), 18)]
    for mode, expect in (
        ("asap", {"open", "partial", "final"}),
        ("partial_stable", {"partial", "final"}),
        ("final", {"final"}),
    ):
        _eng, results = run_stream(
            ed, EngineConfig(wm=20, step=10, mode=mode), recs, last_q=40
        )
        seen = {e.stability for r in results for e in r.reported}
        assert seen <= expect
        assert "final" in seen


def test_value_conflict_first_declared_wins():
    text = (
        "input event up/1\ninput event down/1\n"
        "simple fluent gate/1\nground gate over ent\ndomain ent = {g}\n"
        "initiatedAt(gate(X) = open, T) <- happensAt(up(X), T).\n"
        "initiatedAt(gate(X) = shut, T) <- happensAt(down(X), T).\n"
    )
    ed, _ = lang.load(text)
    recs = [
        InputRecord(id="a", kind="event", name="up", args=("g",), t=5),
        InputRecord(id="b", kind="event", name="down", args=("g",), t=5),
        InputRecord(id="c", kind="event", name="down", args=("g",), t=20),
    ]
    eng, results = run_stream(ed, EngineConfig(wm=50, step=50), recs, last_q=50)
    got = {
        (e.value, e.start, e.end)
        for r in results
        for e in r.entries
        if e.name == "gate"
    }
    # 'open' is declared first so it wins the tie at 5; 'down' at 20 takes over
    assert got == {("open", 6, 20), ("shut", 21, OPEN)}
    assert any("simultaneous initiation" in d for d in eng.diagnostics)
    # the oracle agrees
    expected = reference.multi_value(
        {"open": {5}, "shut": {5, 20}}, {}, ["open", "shut"], 50
    )
    assert expected == {"open": [(6, 20)], "shut": [(21, OPEN)]}


def test_an_initiation_tie_is_reported_once():
    text = (
        "input event up/1\ninput event down/1\n"
        "simple fluent gate/1\nground gate over ent\ndomain ent = {g}\n"
        "initiatedAt(gate(X) = open, T) <- happensAt(up(X), T).\n"
        "initiatedAt(gate(X) = shut, T) <- happensAt(down(X), T).\n"
    )
    ed, _ = lang.load(text)
    recs = [ev(1, "up", ("g",), 5), ev(2, "down", ("g",), 5)]
    # the tie at 5 stays in the window (wm 50) for the five queries up to 50
    eng, _results = run_stream(ed, EngineConfig(wm=50, step=10), recs, last_q=50)
    assert eng.diagnostics == [
        "simultaneous initiation of gate('g',) values 'open' and 'shut' at 5; kept 'open'"
    ]


def test_derived_event_feeds_higher_level():
    text = (
        "input event tick/1\nevent echo/1\nsimple fluent lit/1\n"
        "ground lit over ent\ndomain ent = {x}\n"
        "happensAt(echo(X), T) <- happensAt(tick(X), T).\n"
        "initiatedAt(lit(X) = true, T) <- happensAt(echo(X), T).\n"
    )
    ed, diags = lang.load(text)
    assert [d for d in diags if d.severity == "error"] == []
    recs = [InputRecord(id="t1", kind="event", name="tick", args=("x",), t=7)]
    _eng, results = run_stream(ed, EngineConfig(wm=40, step=40), recs, last_q=40)
    got = [(e.name, e.start, e.end) for e in results[0].entries]
    assert ("lit", 8, OPEN) in got


def test_pair_filter_restricts_groundings():
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 10, 40),
        fl(2, "walking", ("p2",), 10, 40),
        fl(3, "close", ("p1", "p2"), 10, 40),
        fl(4, "close", ("p2", "p1"), 10, 40),
    ]
    cfg = EngineConfig(wm=100, step=100)
    _eng, full = run_stream(ed, cfg, recs, last_q=100)
    engine = Engine(ed, cfg, pair_filter={("p1", "p2")})
    engine.ingest(recs)
    part = engine.query(100)
    full_pairs = {(e.name, e.args) for e in full[0].entries if len(e.args) == 2}
    part_pairs = {(e.name, e.args) for e in part.entries if len(e.args) == 2}
    assert {a for _n, a in full_pairs} == {("p1", "p2"), ("p2", "p1")}
    assert {a for _n, a in part_pairs} == {("p1", "p2")}


def test_names_over_one_grounding_share_its_tuples():
    # the pair names all range over pairs(entity): one set of tuples, cut to
    # the pair filter once, which every plan over a pair name tests against;
    # the engines over one pack share the uncut set
    ed = surveillance("p1", "p2", "p3")
    pairs = set(itertools.permutations(("p1", "p2", "p3"), 2))
    plain = Engine(ed, EngineConfig(wm=20, step=10))
    for pair_filter in (None, {("p1", "p2"), ("p3", "p1")}):
        engine = Engine(ed, EngineConfig(wm=20, step=10), pair_filter=pair_filter)
        shared = engine._grounded[ed.groundings["moving"]]
        assert shared == (pairs if pair_filter is None else pair_filter)
        assert (plain._grounded[ed.groundings["moving"]] is shared) == (pair_filter is None)
        for name in ("moving_sd", "leaving_object"):
            assert engine._grounded[ed.groundings[name]] is shared
        assert engine._grounded[ed.groundings["person"]] == {("p1",), ("p2",), ("p3",)}
        assert len(engine._grounded) == 2
        for kind, name in (("initiatedAt", "moving"), ("holdsFor", "moving_sd"),
                           ("initiatedAt", "leaving_object")):
            plan = engine._plans[kind][name]
            assert any(cell.cell_contents is shared for cell in plan.__closure__)


def test_unbound_head_variable_grounds_over_domain():
    # disappear(obj) terminates leaving_object(P, obj) for every person P
    ed = surveillance("p1", "p2", "obj1")
    recs = [
        fl(1, "walking", ("p1",), 5, 80),
        fl(2, "walking", ("p2",), 5, 80),
        fl(3, "close", ("p1", "obj1"), 10, 40),
        fl(4, "close", ("p2", "obj1"), 10, 40),
        fl(5, "inactive", ("obj1",), 20, 60),
        ev(1, "appear", ("obj1",), 20),
        ev(2, "disappear", ("obj1",), 60),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=100, step=100), recs, last_q=100)
    got = {
        (e.args, e.start, e.end)
        for e in results[0].entries
        if e.name == "leaving_object"
    }
    assert got == {(("p1", "obj1"), 21, 60), (("p2", "obj1"), 21, 60)}


# rule shapes no other pack has: a constant in a body literal and in a head, a
# variable repeated inside one literal, and heads with variables the body
# leaves free; the constants are also names that a generated plan uses
SHAPES_PACK = """domain ent = {lo, qi, d, out}
input event ping/2
input event up/1
input fluent near/2
event echo/2
simple fluent self/1
simple fluent tagged/2
simple fluent fan/2
sd fluent pinned/2
sd fluent loop/1
sd fluent any/1
ground self over ent
ground tagged over pairs(ent)
ground fan over pairs(ent)
ground pinned over pairs(ent)
ground loop over ent
ground any over ent
initiatedAt(self(X) = true, T) <- happensAt(ping(X, X), T).
initiatedAt(tagged(X, d) = true, T) <- happensAt(up(X), T), holdsAt(near(X, d) = true, T).
initiatedAt(fan(X, Y) = true, T) <- happensAt(up(X), T).
happensAt(echo(X, qi), T) <- happensAt(ping(X, Y), T), Y != X.
terminatedAt(fan(X, Y) = true, T) <- happensAt(echo(Y, qi), T).
holdsFor(pinned(X, d) = true, I) <- holdsFor(near(X, d) = true, I1),
    holdsFor(tagged(X, d) = true, I2), intersect_all([I1, I2], I).
holdsFor(loop(X) = true, I) <- holdsFor(near(X, X) = true, I).
holdsFor(any(X) = true, I) <- holdsFor(near(X, d) = true, I1), holdsFor(self(X) = true, I2),
    union_all([I1, I2], I), X != qi.
"""
SHAPES_RECORDS = [
    ev(1, "ping", ("lo", "lo"), 3), ev(2, "ping", ("lo", "qi"), 4),
    fl(3, "near", ("out", "d"), 2, 9), ev(4, "up", ("out",), 5), ev(5, "up", ("d",), 6),
    ev(6, "ping", ("d", "lo"), 12), fl(7, "near", ("lo", "lo"), 3, 7),
    fl(8, "near", ("qi", "d"), 1, 5)]


@pytest.mark.parametrize("wm, step", [(40, 40), (20, 5)])
def test_constants_repeated_and_free_head_variables(wm, step):
    ed, diagnostics = lang.load(SHAPES_PACK)
    assert not [d for d in diagnostics if d.severity == "error"]
    recs, cfg = SHAPES_RECORDS, EngineConfig(wm=wm, step=step)
    engine, scratch = Engine(ed, cfg), Engine(ed, cfg)
    for qi in range(step, 41, step):
        for eng in (engine, scratch):
            eng.ingest([r for r in recs if qi - step < record_occurrence(r) <= qi])
        scratch.answered_to = -math.inf
        res = engine.query(qi)
        assert res.entries == scratch.query(qi).entries, f"query {qi} from scratch"
    want = {("fan", ("out", "d"), 6, 12), ("fan", ("out", "lo"), 6, None),
            ("fan", ("out", "qi"), 6, None), ("fan", ("d", "lo"), 7, None),
            ("fan", ("d", "qi"), 7, None), ("fan", ("d", "out"), 7, None),
            ("self", ("lo",), 4, None), ("tagged", ("out", "d"), 6, None),
            ("any", ("lo",), 4, None), ("any", ("out",), 2, 9), ("loop", ("lo",), 3, 7),
            ("pinned", ("out", "d"), 6, 9)}
    if wm == 20:  # they ended before this window
        want -= {("fan", ("out", "d"), 6, 12), ("any", ("out",), 2, 9), ("loop", ("lo",), 3, 7),
                 ("pinned", ("out", "d"), 6, 9)}
    assert {(e.name, e.args, e.start, e.end) for e in res.entries} == want


def test_plan_source_holds_no_rule_text():
    # every name, constant and variable renamed: the plans are the same text,
    # so none of them is spliced into it, not even a constant named like a local
    renamed = {"lo": "p", "qi": "q", "d": "r", "out": "s", "X": "Who", "Y": "Whom",
               "T": "When", "true": "yes", "ent": "thing", "ping": "knock", "up": "rise",
               "near": "by", "echo": "answer", "self": "own", "tagged": "marked",
               "fan": "spread", "pinned": "held", "loop": "ring", "any": "some", "I": "Span",
               "I1": "Span1", "I2": "Span2"}
    pattern = re.compile(r"\b(" + "|".join(renamed) + r")\b")
    twin = pattern.sub(lambda m: renamed[m.group(1)], SHAPES_PACK)
    assert twin != SHAPES_PACK
    ed = lang.load(SHAPES_PACK)[0]
    engines = [Engine(each, EngineConfig(wm=40, step=40)) for each in (ed, lang.load(twin)[0], ed)]
    plans = [[plan for per_name in engine._plans.values() for plan in per_name.values()]
             for engine in engines]
    assert [plan.source for plan in plans[0]] == [plan.source for plan in plans[1]]
    # so each text is compiled once: the twin's plans, and a second engine's
    # over the pack, share each plan's code, but each binds its own store
    for engine, each in zip(engines[1:], plans[1:]):
        reading = [closure(theirs)["points"] for theirs in each if "points" in closure(theirs)]
        assert reading and all(points.__self__ is engine.store for points in reading)
        for mine, theirs in zip(plans[0], each):
            assert theirs.__code__ is mine.__code__
    store = engines[2].store
    stored = {id(rows) for rows in store.content.values()} | {
        id(index) for per_name in store.joins.values() for index in per_name.values()}
    bound = [(closure(mine)[name], value) for mine, theirs in zip(plans[0], plans[2])
             for name, value in closure(theirs).items() if id(value) in stored]
    assert bound and all(mine is not theirs for mine, theirs in bound)



def test_holds_for_comparisons_are_tested_before_any_conjunct():
    # `any` writes X != qi last, but it reads only a head variable
    ed, _ = lang.load(SHAPES_PACK)
    source = Engine(ed, EngineConfig(wm=40, step=40))._plans["holdsFor"]["any"].source
    assert re.search(r"if c\d+\(v0, k\d+\):", source).start() < source.index("cut(")


def test_one_plan_per_rule_kind_and_head_name(monkeypatch):
    # the surveillance pack's 15 rules make one plan per kind and head name,
    # and one more over live groundings for each name whose initiations
    # reuse the last query's (leaving_object reads the derived person)
    built, build = [], _PlanSource.build

    def spy(self, filename):
        built.append(filename)
        return build(self, filename)

    monkeypatch.setattr(_PlanSource, "build", spy)
    engine = Engine(surveillance("p1", "p2", "p3"), EngineConfig(wm=20, step=10))
    simple = ["person", "leaving_object", "moving"]
    assert {kind: list(per_name) for kind, per_name in engine._plans.items()} == {
        "initiatedAt": simple, "terminatedAt": simple, "holdsFor": ["moving_sd"],
        "happensAt": [], "over": ["person", "moving"]}
    assert len(built) == 9
    # moving's three initiations read close(P1, P2): one live loop, one test
    plan = engine._plans["over"]["moving"]
    source = plan.source
    assert source.count("live.items()") == 1
    assert len(re.findall(r"s\[-1\]\[1\] >= d\)", source)) == 1
    # each source is named once, and no plan fetches one where first needed
    assert not [kind for kind, per_name in engine._plans.items() for each in per_name.values()
                if "is None" in each.source]
    tags = re.findall(r"= points\((\w+), lo, d, qi\)", source)
    assert sorted(closure(plan)[tag] for tag in tags) == [
        ("close", "start", "true"), ("walking", "start", "true")]
    # the store's content and join indexes, which it keeps, are the plans' own
    store, plain = engine.store, engine._plans["initiatedAt"]["moving"]
    assert {id(store.content[name]) for name in ("close", "walking")} <= {
        id(value) for value in closure(plan).values()}
    assert len(store.joins["close"]) == 2
    assert {id(index) for index in store.joins["close"].values()} <= {
        id(value) for value in closure(plain).values()}


def closure(plan) -> dict:
    """A generated plan's factory parameters by name."""
    return {name: cell.cell_contents
            for name, cell in zip(plan.__code__.co_freevars, plan.__closure__)}


def replay_against_scratch(text, recs, wm, step, last_q) -> list:
    """Query an engine on the rule pack `text` every step up to last_q, each
    record ingested at its arrival, and check every answer against a twin's
    evaluated from the window start.  Returns the engine's results."""
    ed, diagnostics = lang.load(text)
    assert not [d for d in diagnostics if d.severity == "error"]
    cfg = EngineConfig(wm=wm, step=step)
    engine, scratch, results = Engine(ed, cfg), Engine(ed, cfg), []
    for qi in range(step, last_q + 1, step):
        for eng in (engine, scratch):
            eng.ingest([r for r in recs if qi - step < record_arrival(r) <= qi])
        scratch.answered_to = -math.inf
        results.append(engine.query(qi))
        assert results[-1].entries == scratch.query(qi).entries, f"query {qi} from scratch"
    return results


def test_delayed_records_reach_the_over_plan_of_a_head_with_a_constant(monkeypatch):
    # arriving 7 ticks late, records change input before the last query's
    # time, so tagged(X, d)'s initiations run over the groundings they touch
    touched, dirty_from = [], Engine._dirty_from

    def spy(self, name):
        floor, groundings = dirty_from(self, name)
        if name == "tagged":
            touched.append(groundings)
        return floor, groundings

    monkeypatch.setattr(Engine, "_dirty_from", spy)
    delayed = [replace(r, arrival=record_occurrence(r) + 7) for r in SHAPES_RECORDS]
    results = replay_against_scratch(SHAPES_PACK, delayed, 20, 5, 40)
    assert any(touched)
    assert ("tagged", ("out", "d"), 6, None) in {
        (e.name, e.args, e.start, e.end) for e in results[-1].entries}


REACH_DECLARATIONS = """domain ent = {a, b}
input event up/1
input fluent g/1
input fluent near/2
simple fluent f/1
ground f over ent
"""


def test_a_late_initiation_reads_a_constant_in_its_reach_literal():
    # near(X, d) is over exactly the head's variables; the late near(a, d)
    # reaches a's own time, while b's near(b, d) ends before the late up(b)
    text = REACH_DECLARATIONS + (
        "initiatedAt(f(X) = true, T) <- happensAt(up(X), T), holdsAt(near(X, d) = true, T).\n")
    recs = [ev(1, "up", ("a",), 15), fl(2, "near", ("a", "d"), 12, 30, arrival=25),
            fl(3, "near", ("b", "d"), 2, 8), ev(4, "up", ("b",), 16, arrival=25),
            fl(5, "near", ("b", "c"), 10, 30)]
    results = replay_against_scratch(text, recs, 30, 10, 40)
    assert {(e.name, e.args, e.start, e.end) for e in results[2].entries} == {
        ("f", ("a",), 16, OPEN)}


def test_an_end_point_initiates_at_exactly_the_grounding_s_own_time():
    # retracting g(a)'s second part at q=30 moves its end to 12, the time the
    # retract changed it from, so f(a) is initiated there and holds from 13
    text = REACH_DECLARATIONS + "initiatedAt(f(X) = true, T) <- happensAt(end(g(X) = true), T).\n"
    recs = [fl(1, "g", ("a",), 5, 12), fl(2, "g", ("a",), 12, 18),
            InputRecord(id="f2", action="retract", arrival=30)]
    results = replay_against_scratch(text, recs, 30, 10, 30)
    assert [(e.args, e.start, e.end) for e in results[1].entries] == [(("a",), 19, OPEN)]
    assert [(e.args, e.start, e.end) for e in results[2].entries] == [(("a",), 13, OPEN)]


def test_a_late_record_for_a_fluent_without_initiations():
    # validate only warns about h, which a late up(a) touches
    text = REACH_DECLARATIONS + (
        "simple fluent h/1\nground h over ent\n"
        "initiatedAt(f(X) = true, T) <- happensAt(up(X), T).\n"
        "terminatedAt(h(X) = true, T) <- happensAt(up(X), T).\n")
    results = replay_against_scratch(text, [ev(1, "up", ("a",), 12, arrival=25)], 30, 10, 40)
    assert [(e.name, e.args, e.start) for e in results[-1].entries] == [("f", ("a",), 13)]


def test_plan_paths_of_a_bound_event_time_an_equality_and_a_one_input_union():
    # both's second happensAt tests the time its first binds, over live
    # groundings too once the late down(b) touches b; X == Y keeps ping(b, a)
    # from ending both(b); union_all([I1], I) leaves g required, so mirror's
    # groundings are drawn from g's rows
    text = """domain ent = {a, b}
input event up/1
input event down/1
input event ping/2
input fluent g/1
simple fluent both/1
sd fluent mirror/1
ground both over ent
ground mirror over ent
initiatedAt(both(X) = true, T) <- happensAt(up(X), T), happensAt(down(X), T).
terminatedAt(both(X) = true, T) <- happensAt(ping(X, Y), T), X == Y.
holdsFor(mirror(X) = true, I) <- holdsFor(g(X) = true, I1), union_all([I1], I).
"""
    recs = [ev(1, "up", ("a",), 5), ev(2, "down", ("a",), 5), ev(3, "up", ("b",), 7),
            ev(4, "down", ("b",), 8), ev(5, "up", ("b",), 9), ev(6, "down", ("b",), 9, arrival=15),
            ev(7, "ping", ("a", "a"), 12), ev(8, "ping", ("b", "a"), 14),
            fl(9, "g", ("a",), 3, 20), fl(10, "g", ("b",), 25, OPEN)]
    results = replay_against_scratch(text, recs, 30, 10, 40)
    assert [sorted((e.name, e.args, e.start, e.end, e.stability) for e in r.entries)
            for r in results] == [
        [("both", ("a",), 6, OPEN, "open"), ("mirror", ("a",), 3, OPEN, "open")],
        [("both", ("a",), 6, 12, "open"), ("both", ("b",), 10, OPEN, "open"),
         ("mirror", ("a",), 3, 20, "open")],
        [("both", ("a",), 6, 12, "partial"), ("both", ("b",), 10, OPEN, "open"),
         ("mirror", ("a",), 3, 20, "partial"), ("mirror", ("b",), 25, OPEN, "open")],
        [("both", ("a",), 6, 12, "final"), ("both", ("b",), 10, OPEN, "open"),
         ("mirror", ("a",), 3, 20, "final"), ("mirror", ("b",), 25, OPEN, "open")]]


def test_the_first_query_takes_no_record_as_late():
    # nothing is answered before the first query, so records at time 0 are
    # not late there, and no index over the groundings is built to find
    # the groundings they touch
    engine = Engine(surveillance("p1", "p2"), EngineConfig(wm=20, step=10))
    engine.ingest([fl(1, "walking", ("p1",), 0, 30), fl(2, "walking", ("p2",), 0, 30),
                   fl(3, "close", ("p1", "p2"), 0, 30), fl(4, "close", ("p2", "p1"), 0, 30)])
    assert {(e.name, e.args, e.start) for e in engine.query(10).entries} >= {
        ("moving", ("p1", "p2"), 1), ("moving_sd", ("p1", "p2"), 0)}
    assert engine._domain_indexes == {}

def test_sd_prefix_amalgamation_is_seamless():
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 5, 90),
        fl(2, "walking", ("p2",), 5, 90),
        fl(3, "close", ("p1", "p2"), 5, 90),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=20, step=10), recs, last_q=120)
    sd = entries_of(results, "moving_sd")
    # one continuous interval at every query, never split at window boundaries
    per_q = {}
    for q, _n, args, s, e, _st in sd:
        per_q.setdefault((q, args), []).append((s, e))
    assert all(len(v) == 1 for v in per_q.values())
    finals = {(s, e) for _q, _n, _a, s, e, st in sd if st == "final"}
    assert finals == {(5, 90)}


def test_run_stream_respects_arrival_order():
    ed = surveillance("p1")
    recs = [
        fl(1, "walking", ("p1",), 5, 8, arrival=25),
        ev(1, "disappear", ("p1",), 9, arrival=3),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=40, step=10), recs, last_q=50)
    by_q = {r.q: entries_of([r], "person") for r in results}
    assert by_q[10] == [] and by_q[20] == []  # interval not ingested yet
    assert by_q[30] != []  # arrives in time, window still covers it


def test_run_stream_orders_a_retract_tying_an_arrival():
    # a retract has no occurrence time: neither the arrival order nor the
    # default horizon may need one
    ed = surveillance("p1")
    delayed = [
        fl(1, "walking", ("p1",), 5, 30, arrival=10),
        ev(1, "appear", ("p1",), 12, arrival=20),
        InputRecord(id="e1", action="retract", arrival=20),
    ]
    # without arrivals, the retract arrives with the record before it
    in_order = [fl(1, "walking", ("p1",), 5, 30), ev(1, "appear", ("p1",), 12),
                InputRecord(id="e1", action="retract")]
    for recs in (delayed, in_order):
        for last_q, horizon_q in ((60, 60), (None, 80)):
            eng, results = run_stream(ed, EngineConfig(wm=40, step=20), recs, last_q=last_q)
            assert results[-1].q == horizon_q
            assert eng.diagnostics == []  # the retract found the record before it
            assert eng.store.event_times("appear", ("p1",)) == []
            assert [(e.start, e.end) for e in results[0].entries] == [(6, OPEN)]


def test_query_schedule_yields_each_record_once_at_its_first_query():
    cfg = EngineConfig(wm=40, step=10)
    recs = [ev(1, "appear", ("p1",), 25, arrival=3), fl(2, "walking", ("p1",), 5, 8, arrival=20),
            ev(3, "appear", ("p1",), 14, arrival=16), ev(4, "appear", ("p1",), 12),
            InputRecord(id="e4", action="retract"), ev(5, "disappear", ("p1",), 33, arrival=21),
            InputRecord(id="e1", action="retract", arrival=10)]
    # the retract of e4 has no arrival, so it comes right after e4, at 12
    want = [(10, ["e1", "e1"]), (20, ["e4", "e4", "e3", "f2"]), (30, ["e5"])]
    # with last_q omitted, content reaches 33: the last query is the first
    # multiple of step at or after 33 + wm
    want += [(qi, []) for qi in range(40, 81, 10)]
    got = [(qi, [r.id for r in arriving]) for qi, arriving in query_schedule(cfg, recs)]
    assert got == want
    assert [r.action for r in dict(query_schedule(cfg, recs))[20]] == [
        "assert", "retract", "assert", "assert"]
    assert list(query_schedule(cfg, recs, last_q=20)) == list(query_schedule(cfg, recs))[:2]


def test_unreachable_literal_fails_when_the_engine_is_built():
    # no literal binds Later, so no join order can evaluate the comparison
    pack = """domain entity = {a, b}
input event appear/1
simple fluent seen/1
ground seen over entity
initiatedAt(seen(P) = true, T) <-
    happensAt(appear(P), T),
    T > Later.
"""
    ed, diagnostics = lang.load(pack)
    assert [d.severity for d in diagnostics] == ["error"]
    with pytest.raises(EvaluationError, match="no binding reaches T > Later"):
        Engine(ed, EngineConfig(wm=10, step=10))


def test_dropped_engine_is_freed_without_cycle_collection():
    # compiled plans must not point back at their engine: a cycle would keep
    # every dropped engine's store and caches alive until a full collection
    eng = Engine(surveillance("p1", "p2"), EngineConfig(wm=20, step=10))
    eng.ingest([fl(1, "walking", ("p1",), 2, 9), fl(2, "close", ("p1", "p2"), 2, 9)])
    eng.query(10)
    gc.disable()
    try:
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# reuse of the last query's answers


def test_moving_initiated_and_terminated_within_the_newest_step():
    # the grounding is live for the first time at q=50, so its terminations
    # are needed over the whole window, though the last query ran none
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 0, 100),
        fl(2, "walking", ("p2",), 0, 100),
        fl(3, "close", ("p1", "p2"), 42, 47),
    ]
    results = replay_against_the_oracle(Engine(ed, EngineConfig(wm=30, step=10)), recs, 60)
    moving = {(q, s, e) for q, name, _a, s, e, _st in entries_of(results, "moving")}
    assert moving == {(50, 43, 47), (60, 43, 47)}


def test_grounding_first_live_at_the_window_start_is_terminated_in_the_reused_range():
    # at q=20, start(a) at 5 finds b not holding yet.  At q=30 forgetting
    # cuts a to start at the window start 11, where b holds: f(x) is live for
    # the first time, and its termination at 15 lies before 21, from where
    # q=30 evaluates the other groundings
    text = (
        "input fluent a/1\ninput fluent b/1\ninput event stop/1\n"
        "simple fluent f/1\nground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(start(a(X) = true), T), holdsAt(b(X) = true, T).\n"
        "terminatedAt(f(X) = true, T) <- happensAt(stop(X), T).\n"
    )
    ed, _ = lang.load(text)
    recs = [
        InputRecord(id="a", kind="interval", name="a", args=("x",), value="true", start=5, end=100),
        InputRecord(id="b", kind="interval", name="b", args=("x",), value="true", start=11, end=100),
        InputRecord(id="s", kind="event", name="stop", args=("x",), t=15),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=20, step=10), recs, last_q=30)
    assert [(r.q, e.start, e.end) for r in results for e in r.entries] == [(30, 12, 15)]


def test_grounding_whose_interval_ends_at_the_window_start_is_terminated_in_the_reused_range():
    # f(x) holds from 26 until close ends at 31.  At q=50 it is carried as it
    # is, so the stop at 45 is never solved.  At q=60 the window starts at 31,
    # where forgetting drops close's end: f holds on from 26 until the stop
    # at 45, which lies before 51, from where q=60 evaluates
    text = (
        "input fluent a/1\ninput fluent close/1\ninput event stop/1\n"
        "simple fluent f/1\nground f over ent\ndomain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(start(a(X) = true), T).\n"
        "terminatedAt(f(X) = true, T) <- happensAt(end(close(X) = true), T).\n"
        "terminatedAt(f(X) = true, T) <- happensAt(stop(X), T).\n"
    )
    ed, _ = lang.load(text)
    recs = [
        InputRecord(id="a", kind="interval", name="a", args=("x",), value="true", start=25, end=28),
        InputRecord(id="c", kind="interval", name="close", args=("x",), value="true", start=5,
                    end=31),
        InputRecord(id="s", kind="event", name="stop", args=("x",), t=45),
    ]
    _eng, results = run_stream(ed, EngineConfig(wm=30, step=10), recs, last_q=60)
    assert [(r.q, e.start, e.end) for r in results for e in r.entries] == [
        (30, 26, OPEN), (40, 26, 31), (50, 26, 31), (60, 26, 45)]


def test_a_rule_reading_a_second_time_reuses_nothing():
    # f(x) reads b before its own time, g(x) reads d after it.  At q=30 the
    # dirty-from time is 21: f's b at 12 lies before it, and g's solution at
    # 15 gains the d that arrived at 25, so neither may be taken from q=20
    text = (
        "input event a/1\ninput event b/1\ninput event c/1\ninput event d/1\n"
        "simple fluent f/1\nsimple fluent g/1\nground f over ent\nground g over ent\n"
        "domain ent = {x}\n"
        "initiatedAt(f(X) = true, T) <- happensAt(a(X), T), happensAt(b(X), T2), T2 < T.\n"
        "initiatedAt(g(X) = true, T) <- happensAt(c(X), T), happensAt(d(X), T2), T < T2.\n"
    )
    ed, _ = lang.load(text)
    recs = [ev(1, "b", ("x",), 12), ev(2, "c", ("x",), 15), ev(3, "a", ("x",), 25),
            ev(4, "d", ("x",), 25)]
    cfg = EngineConfig(wm=40, step=10)
    reusing, scratch = Engine(ed, cfg), Engine(ed, cfg)
    for qi in (10, 20, 30, 40):
        for eng in (reusing, scratch):
            eng.ingest([r for r in recs if qi - 10 < r.t <= qi])
        scratch.answered_to = -math.inf
        got = reusing.query(qi).entries
        assert got == scratch.query(qi).entries, f"query {qi}"
    assert {(e.name, e.start, e.end) for e in got} == {("f", 26, OPEN), ("g", 16, OPEN)}


def test_window_start_reinitiates_person_and_leaving_object():
    # walking straddles the window start 10 at q=30: forgetting cuts it to
    # start at 11, which initiates person again after the disappear at 8.
    # leaving_object reads person at 15, inside the range q=30 would reuse
    ed = surveillance("p1", "obj1")
    recs = [
        fl(1, "walking", ("p1",), 5, 200),
        ev(1, "disappear", ("p1",), 8),
        fl(2, "inactive", ("obj1",), 12, 40),
        fl(3, "close", ("p1", "obj1"), 12, 40),
        ev(2, "appear", ("obj1",), 15),
    ]
    results = replay_against_the_oracle(Engine(ed, EngineConfig(wm=20, step=10)), recs, 30)
    person = {(q, s, e) for q, _n, _a, s, e, _st in entries_of(results, "person")}
    assert person == {(10, 6, 8), (20, 6, 8), (30, 12, OPEN)}
    leaving = {(q, s, e) for q, _n, _a, s, e, _st in entries_of(results, "leaving_object")}
    assert leaving == {(30, 16, OPEN)}


def test_update_moves_an_end_back_into_the_reused_range():
    # at q=60 the last query's answers would hold up to 51; the update's
    # stored and new start, 25, make the engine evaluate from there
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 25, 60),
        fl(2, "walking", ("p2",), 25, 60),
        fl(3, "close", ("p1", "p2"), 25, 60),
        InputRecord(id="f1", action="update", kind="interval", name="walking",
                    args=("p1",), value="true", start=25, end=35, arrival=60),
    ]
    results = replay_against_the_oracle(Engine(ed, EngineConfig(wm=40, step=10)), recs, 60)
    last = {(e.name, e.start, e.end) for e in results[-1].entries if len(e.args) == 2}
    assert last == {("moving", 26, 35), ("moving_sd", 25, 35)}


def test_state_stays_inside_the_window_on_a_long_stream():
    # every carried initiation, termination, indexed point, interval and
    # stored item lies after the window start, but for intervals that cross
    # it.  In the second stream person(p1) is terminated at t + 4,
    # re-initiated at t + 17 and terminated again at t + 19, and a disappear
    # at t + 13 ends nothing: at q = t + 30 the grounding is carried as it is,
    # while the termination at t + 13 has left the window
    ed = surveillance("p1", "p2")
    long, cycle = [], []
    for k, t in enumerate(range(0, 3000, 30)):
        long += [
            fl(4 * k, "walking", ("p1",), t, t + 20),
            fl(4 * k + 1, "walking", ("p2",), t + 5, t + 45),
            fl(4 * k + 2, "close", ("p1", "p2"), t + 3, t + 18),
            fl(4 * k + 3, "running", ("p2",), t + 10, t + 12),
            ev(k, "disappear", ("p1",), t + 25),
        ]
        cycle += [
            fl(2 * k, "walking", ("p1",), t, t + 3),
            fl(2 * k + 1, "running", ("p1",), t + 17, t + 18),
            *(ev(3 * k + i, "disappear", ("p1",), t + dt) for i, dt in enumerate((4, 13, 19))),
        ]
    for recs, wm in ((long, 40), (cycle, 15)):
        assert_state_stays_inside_the_window(ed, sorted(recs, key=record_occurrence), wm)


def assert_state_stays_inside_the_window(ed, recs, wm):
    engine = Engine(ed, EngineConfig(wm=wm, step=10))
    idx = 0
    for qi in range(10, 3100, 10):
        while idx < len(recs) and record_occurrence(recs[idx]) <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        engine.query(qi)
        b = qi - wm
        assert engine.store.min_content() is None or engine.store.min_content() > b
        assert all(t > b for at in engine.store.at.values() for t in at)
        for per_args in engine._starts.values():
            assert all(t > b for per_value in per_args.values()
                       for ts in per_value.values() for t in ts)
        for per_value in engine.prev_cache.values():
            assert all(e is OPEN or e > b for ilist in per_value.values() for _s, e in ilist)
        # with no revision, each stored item waits in the start heap or was cut
        # at the window start; each join index holds each tuple of content once
        store = engine.store
        assert all(entry[0] > b for entry in store.starts)
        assert len(store.starts) + len(store.crossing) == len(store.by_id)
        for name, shapes in store.joins.items():
            for index in shapes.values():
                assert sum(map(len, index.values())) <= len(store.content[name])
        assert engine._entries.keys() == {(name, args) for name, per_args in
                                          engine._derived.items() for args in per_args}


# ---------------------------------------------------------------------------
# properties on random streams

ENTITIES = ("p1", "p2", "obj1")
HORIZON = 120


def random_stream(rng, max_delay, retract_share, entities=ENTITIES):
    """Random input over the whole vocabulary of the pack.  Each record
    arrives up to `max_delay` ticks after it occurs, and a share of them is
    retracted, also up to `max_delay` ticks after arriving."""
    ids = itertools.count(1)
    recs = []

    def spans(n):
        for _ in range(rng.randrange(n + 1)):
            s = rng.randrange(HORIZON - 1)
            yield s, (None if rng.random() < 0.1 else min(HORIZON, s + rng.randrange(1, 40)))

    for p in entities:
        for name in ("walking", "running", "active", "inactive", "abrupt"):
            recs += [fl(next(ids), name, (p,), s, e) for s, e in spans(2)]
        for name in ("appear", "disappear"):
            if rng.random() < 0.5:
                recs.append(ev(next(ids), name, (p,), rng.randrange(HORIZON)))
        for q in entities:
            if q != p and rng.random() < 0.6:
                recs += [fl(next(ids), "close", (p, q), s, e) for s, e in spans(2)]
    out = []
    for rec in recs:
        arrival = record_occurrence(rec) + rng.randint(0, max_delay)
        out.append(replace(rec, arrival=arrival))
        if rng.random() < retract_share:
            late = arrival + rng.randint(0, max_delay)
            out.append(InputRecord(id=rec.id, action="retract", arrival=late))
    return out


def shuffled_bodies(ed, rng):
    """The description with every rule body in a random order; a holdsFor
    rule shuffles only its holdsFor conjuncts, which its constructs follow."""
    rules = []
    for rule in ed.rules:
        body = list(rule.body)
        places = [i for i, lit in enumerate(body) if isinstance(lit, HoldsFor)]
        if rule.kind != lang.HOLDS_FOR:
            places = list(range(len(body)))
        moved = [body[i] for i in places]
        rng.shuffle(moved)
        for i, lit in zip(places, moved):
            body[i] = lit
        rules.append(replace(rule, body=tuple(body)))
    return replace(ed, rules=rules)


windows = st.tuples(st.integers(0, 2**32 - 1), st.integers(5, 30), st.integers(0, 40))


@given(windows)
def test_body_literal_order_does_not_change_entries(window):
    seed, step, extra = window
    rng = random.Random(seed)
    cfg = EngineConfig(wm=step + extra, step=step)
    recs = random_stream(rng, max_delay=extra, retract_share=0.2)
    ed = surveillance(*ENTITIES)
    _eng, want = run_stream(ed, cfg, recs)
    _eng, got = run_stream(shuffled_bodies(ed, rng), cfg, recs)
    assert [r.entries for r in got] == [r.entries for r in want]


def replay_against_the_oracle(engine, recs, last_q, shard=None, check_index=False,
                              scratch=None) -> list:
    """Query the engine every step up to last_q, each record ingested at its
    arrival (its occurrence when it has none), and check every answer against
    the pointwise evaluation of the store from scratch, with check_index the
    point index against the store, and with a `scratch` engine against its
    answer evaluated from the window start.  Returns the results."""
    step, wm = engine.cfg.step, engine.cfg.wm
    recs = sorted(recs, key=record_arrival)
    results, idx = [], 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and record_arrival(recs[idx]) <= qi:
            for eng in (engine, scratch) if scratch else (engine,):
                eng.ingest([recs[idx]])
            idx += 1
        seeds = reference.boundary_seeds(engine, qi - wm)
        res = engine.query(qi)
        if scratch:
            scratch.answered_to = -math.inf
            assert res.entries == scratch.query(qi).entries, f"query {qi} from scratch"
        if check_index:
            assert_index_matches_store(engine.store, qi - wm + 1, step, qi)
        events, durative = engine.store.snapshot()
        ev_d, fl_d = {}, {}
        for name, args, t in events:
            ev_d.setdefault((name, args), set()).add(t)
        for (name, args, _value), ilist in durative.items():
            fl_d[(name, args)] = ilist
        expected = reference.surveillance_batch(ev_d, fl_d, qi, qi - wm, **seeds)
        got = {}
        for e in res.entries:
            got.setdefault((e.name, e.args), []).append((e.start, e.end))
        want = {k: v for k, v in expected.items() if shard is None or len(k[1]) == 1 or k[1] in shard}
        assert got == want, f"query {qi}"
        results.append(res)
    return results


@given(windows, st.integers(1, 3))
def test_sharded_windows_match_the_pointwise_oracle(window, shards):
    seed, step, extra = window
    rng = random.Random(seed)
    wm = step + extra
    recs = random_stream(rng, max_delay=extra, retract_share=0.2)
    pairs = sorted((a, b) for a in ENTITIES for b in ENTITIES if a != b)
    shard = set(pairs[rng.randrange(shards)::shards])
    engine = Engine(surveillance(*ENTITIES), EngineConfig(wm=wm, step=step), pair_filter=shard)
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    replay_against_the_oracle(engine, recs, last_q, shard)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(3, 8), st.booleans())
def test_incremental_windows_match_the_pointwise_oracle(seed, step, steps_per_window, delayed):
    # windows of several steps reuse most of the last query's answers; input
    # spans of up to 40 ticks straddle the window start.  An in-order stream
    # changes only the newest step; a delayed one, with retracts, reaches
    # back up to wm - step ticks
    rng = random.Random(seed)
    wm = step * steps_per_window
    recs = random_stream(rng, max_delay=wm - step if delayed else 0,
                         retract_share=0.2 if delayed else 0)
    engine = Engine(surveillance(*ENTITIES), EngineConfig(wm=wm, step=step))
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    replay_against_the_oracle(engine, recs, last_q)


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(3, 8), st.integers(1, 2))
def test_per_grounding_dirty_times_match_scratch_and_the_oracle(seed, step, steps_per_window,
                                                                  late):
    # four entities in order but for one or two, whose records arrive late and
    # are retracted or updated up to wm - step ticks back: only the groundings
    # that read them are evaluated from before the time after the last query
    rng = random.Random(seed)
    wm = step * steps_per_window
    entities = ("p1", "p2", "p3", "obj1")
    touched = set(rng.sample(entities, late))
    recs = random_stream(rng, 0, 0, entities)
    recs = [r for r in recs if not touched & set(r.args)] + delayed(
        [r for r in recs if touched & set(r.args)], rng, wm - step, 0.3)
    ed, cfg = surveillance(*entities), EngineConfig(wm=wm, step=step)
    last_q = step * math.ceil((max(map(record_arrival, recs)) + HORIZON + wm) / step)
    replay_against_the_oracle(Engine(ed, cfg), recs, last_q, scratch=Engine(ed, cfg))


def test_a_late_record_reevaluates_only_the_groundings_that_read_it():
    # walking(p1) resumes at 24, announced only at q=40, whose window starts at
    # 1 and whose dirty-from time is 31: the pairs with p1 are evaluated from
    # 24, the others from 31, and the answer is the one from scratch
    ed, cfg = surveillance("p1", "p2", "p3"), EngineConfig(wm=40, step=10)
    recs = [fl(1, "walking", ("p1",), 5, 20), fl(2, "walking", ("p2",), 5, 200),
            fl(3, "walking", ("p3",), 8, 200), fl(4, "walking", ("p1",), 24, 200, arrival=40)]
    recs += [fl(5 + k, "close", pair, 12, 200) for k, pair in enumerate(
        itertools.permutations(("p1", "p2", "p3"), 2))]
    engine = Engine(ed, cfg)
    results = replay_against_the_oracle(engine, recs, 40, scratch=Engine(ed, cfg))
    p1 = {("p1", "p2"): 24, ("p2", "p1"): 24, ("p1", "p3"): 24, ("p3", "p1"): 24}
    for name in ("moving", "moving_sd"):
        assert engine._dirty_from(name) == (31, p1)
    moving = {(e.name, e.args, e.start, e.end) for e in results[-1].entries
              if e.name == "moving" and "p2" in e.args}
    assert moving == {("moving", ("p1", "p2"), 13, 20), ("moving", ("p2", "p1"), 13, 20),
                      ("moving", ("p1", "p2"), 25, None), ("moving", ("p2", "p1"), 25, None),
                      ("moving", ("p2", "p3"), 13, None), ("moving", ("p3", "p2"), 13, None)}


def test_each_touched_grounding_is_solved_from_its_own_dirty_from_time(monkeypatch):
    # late walking records, of p1 from 24 and of p2 from 27, reach the pairs
    # with each from its own time; the pairs with p2 have a close end at 25
    # and a close start at 26, before theirs, which no run over them solves
    ed, cfg = surveillance("p1", "p2", "p3", "p4"), EngineConfig(wm=40, step=10)
    recs = [fl(1, "walking", ("p1",), 5, 20), fl(2, "walking", ("p2",), 5, 200),
            fl(3, "walking", ("p3",), 5, 200), fl(4, "walking", ("p4",), 5, 200),
            fl(5, "close", ("p2", "p3"), 26, 200), fl(6, "close", ("p2", "p4"), 12, 25),
            fl(7, "close", ("p2", "p4"), 29, 200), fl(8, "close", ("p1", "p4"), 12, 200),
            fl(9, "walking", ("p1",), 24, 200, arrival=40),
            fl(10, "walking", ("p2",), 27, 35, arrival=40)]
    runs, solve = [], Engine._solve

    def spy(self, plan, since, out=None):
        if isinstance(since, dict):  # this run's solutions alone
            runs.append((self._lo, since, solve(self, plan, since)))
        return solve(self, plan, since, out)

    monkeypatch.setattr(Engine, "_solve", spy)
    engine = Engine(ed, cfg)
    replay_against_the_oracle(engine, recs, 40, scratch=Engine(ed, cfg))
    pairs = list(itertools.permutations(("p1", "p2", "p3", "p4"), 2))
    own = {pair: 24 if "p1" in pair else 27 for pair in pairs if {"p1", "p2"} & set(pair)}
    assert engine._dirty_from("moving") == (31, own)
    assert any(len(set(since.values())) > 1 for _lo, since, _out in runs)
    for lo, since, out in runs:
        for args, per_value in out.items():
            for ts in per_value.values():
                assert all(t == lo or t >= since[args] for t in ts), (args, since[args], ts)


# what the surveillance pack lacks: a multi-valued fluent, a derived event
# read by a rule, statically determined fluents over a union, over a
# complement and over a simple fluent, a simple fluent over one of them, and
# rules that read input at a time before or after the head's
MIXED_PACK = """domain ent = {a, b, c}
input event up/1
input event down/1
input event ping/1
input fluent on/1
input fluent hot/1
input fluent near/2
event echo/1
simple fluent gate/1
simple fluent alarm/1
sd fluent busy/1
sd fluent calm/1
simple fluent watch/2
ground gate over ent
ground alarm over ent
ground busy over ent
ground calm over ent
ground watch over pairs(ent)
happensAt(echo(X), T) <- happensAt(ping(X), T), holdsAt(on(X) = true, T).
initiatedAt(gate(X) = open, T) <- happensAt(up(X), T).
initiatedAt(gate(X) = shut, T) <- happensAt(down(X), T).
initiatedAt(gate(X) = open, T) <- happensAt(start(hot(X) = true), T).
terminatedAt(gate(X) = open, T) <- happensAt(end(on(X) = true), T).
initiatedAt(alarm(X) = true, T) <- happensAt(echo(X), T).
initiatedAt(alarm(X) = true, T) <- happensAt(start(busy(X) = true), T).
initiatedAt(alarm(X) = true, T) <-
    happensAt(up(X), T), happensAt(ping(X), T2), holdsAt(hot(X) = true, T2), T2 < T.
terminatedAt(alarm(X) = true, T) <- happensAt(end(on(X) = true), T).
holdsFor(busy(X) = true, I) <-
    holdsFor(on(X) = true, I1), holdsFor(hot(X) = true, I2), union_all([I1, I2], I).
holdsFor(calm(X) = true, I) <-
    holdsFor(on(X) = true, I1), holdsFor(gate(X) = open, I2),
    relative_complement_all(I1, [I2], I).
initiatedAt(watch(X, Y) = true, T) <-
    happensAt(start(near(X, Y) = true), T), holdsAt(alarm(X) = true, T).
initiatedAt(watch(X, Y) = true, T) <-
    happensAt(start(near(X, Y) = true), T), holdsAt(on(Y) = true, T).
terminatedAt(watch(X, Y) = true, T) <- happensAt(end(near(X, Y) = true), T).
terminatedAt(watch(X, Y) = true, T) <- happensAt(down(Y), T).
terminatedAt(watch(X, Y) = true, T) <- happensAt(up(Y), T), happensAt(ping(X), T2), T < T2.
"""


def mixed_stream(rng, max_delay, revise_share):
    """Random input for MIXED_PACK in arrival order; a share of the records
    is retracted or updated up to `max_delay` ticks after arriving."""
    ids = itertools.count(1)
    recs = []

    def interval(name, args, s, e):
        return InputRecord(id=f"r{next(ids)}", kind="interval", name=name, args=args,
                           value="true", start=s, end=e)

    def spans(n):
        for _ in range(rng.randrange(n + 1)):
            s = rng.randrange(HORIZON - 1)
            yield s, (None if rng.random() < 0.1 else min(HORIZON, s + rng.randrange(1, 40)))

    for x in ("a", "b", "c"):
        recs += [interval(name, (x,), s, e) for name in ("on", "hot") for s, e in spans(3)]
        for name in ("up", "down", "ping"):
            recs += [InputRecord(id=f"r{next(ids)}", kind="event", name=name, args=(x,),
                                 t=rng.randrange(HORIZON)) for _ in range(rng.randrange(3))]
        for y in ("a", "b", "c"):
            if y != x:
                recs += [interval("near", (x, y), s, e) for s, e in spans(2)]
    return delayed(recs, rng, max_delay, revise_share)


def delayed(recs, rng, max_delay, revise_share):
    """recs in arrival order, each arriving up to `max_delay` ticks after it
    occurs; a share of them is retracted or updated up to `max_delay` ticks
    after arriving."""
    out = []
    for rec in recs:
        arrival = record_occurrence(rec) + rng.randint(0, max_delay)
        out.append(replace(rec, arrival=arrival))
        if rng.random() < revise_share:
            late = arrival + rng.randint(0, max_delay)
            if rec.kind == "interval" and rng.random() < 0.5:
                s = max(0, rec.start + rng.randint(-5, 5))
                out.append(replace(rec, action="update", start=s, end=s + rng.randrange(1, 30),
                                   arrival=late))
            else:
                out.append(InputRecord(id=rec.id, action="retract", arrival=late))
    return sorted(out, key=record_arrival)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 8), st.booleans())
def test_reused_answers_equal_the_from_scratch_ones(seed, step, steps_per_window, delayed):
    # an earliest change at minus infinity before every query makes the
    # engine evaluate everything from the window start
    rng = random.Random(seed)
    wm = step * steps_per_window + rng.randrange(step)
    recs = mixed_stream(rng, max_delay=wm - step if delayed else 0,
                        revise_share=0.25 if delayed else 0)
    ed, _ = lang.load(MIXED_PACK)
    cfg = EngineConfig(wm=wm, step=step)
    reusing, scratch = Engine(ed, cfg), Engine(ed, cfg)
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    idx = 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and recs[idx].arrival <= qi:
            reusing.ingest([recs[idx]])
            scratch.ingest([recs[idx]])
            idx += 1
        scratch.answered_to = -math.inf
        assert reusing.query(qi).entries == scratch.query(qi).entries, f"query {qi}"
        assert reusing.diagnostics == scratch.diagnostics


def window_points(store, lo, since, qi) -> set:
    """(key, args, t) of every input point at the window start or in [since,
    qi], by definition: the start and end points of each slot's canonical
    content clipped at Qi, and each event's times."""
    def keep(t):
        return t == lo or since <= t <= qi

    out = set()
    for name, per_args in store.events.items():
        for args, slot in per_args.items():
            out |= {((name, "happens", None), args, t) for t, _id in slot if keep(t)}
    for name, per_args in store.durative.items():
        for args, per_value in per_args.items():
            for value, slot in per_value.items():
                clipped = iv.clip_before(iv.normalize([(s, e) for s, e, _id in slot]), qi)[0]
                out |= {((name, "start", value), args, s)
                        for s in iv.start_points(clipped) if keep(s)}
                out |= {((name, "end", value), args, e) for e in iv.end_points(clipped)
                        if keep(e) and e <= qi}
    return out


def assert_index_matches_store(store, lo, step, qi):
    """The point index yields the points window_points gives, from the window
    start and from the time just after the last query, and holds each slot's
    content as the window sees it."""
    for since in (lo, qi - step + 1):
        got = {(key, args, t) for key in store.at
               for args, ts in store.points_from(key, lo, since, qi).items() for t in ts}
        assert got == window_points(store, lo, since, qi), f"points from {since}"
    content = {}
    for name, per_args in store.content.items():
        for args, per_value in per_args.items():
            for value, ilist in per_value.items():
                cut = [(max(s, lo), e) for s, e in ilist if e is OPEN or e > lo]
                if cut:
                    content[(name, args, value)] = iv.clip_before(cut, qi)[0]
    _events, durative = store.snapshot()
    assert content == {slot: iv.clip_before(ilist, qi)[0] for slot, ilist in durative.items()}


def overlapping(recs, rng):
    """recs and, for a share of its interval asserts, a second record in the
    same slot overlapping the first, asserted and revised alongside it."""
    out = []
    for rec in recs:
        out.append(rec)
        if rec.kind == "interval" and rng.random() < 0.3:
            s = max(0, rec.start + rng.randint(-6, 6))
            out.append(replace(rec, id=rec.id + "+", start=s, end=s + rng.randrange(1, 25)))
    return sorted(out, key=record_arrival)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 8), st.booleans())
def test_point_index_equals_the_points_of_each_slot(seed, step, steps_per_window, delayed):
    rng = random.Random(seed)
    wm = step * steps_per_window + rng.randrange(step)
    recs = overlapping(mixed_stream(rng, max_delay=wm - step if delayed else 0,
                                    revise_share=0.25 if delayed else 0), rng)
    ed, _ = lang.load(MIXED_PACK)
    engine = Engine(ed, EngineConfig(wm=wm, step=step))
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    idx = 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and recs[idx].arrival <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        engine.query(qi)
        assert_index_matches_store(engine.store, qi - wm + 1, step, qi)
        assert all(t >= qi - wm + 1 for at in engine.store.at.values() for t in at)


def test_a_start_merged_with_an_interval_ending_at_the_window_start_is_indexed():
    # [5,10) and [10,15) are one interval of content; once the window starts
    # at 10 the first is gone and the second starts there
    store = SdeStore()
    store.add_interval("a", "on", ("x",), "true", 5, 10)
    store.add_interval("b", "on", ("x",), "true", 10, 15)
    store.forget(0)
    store.index(1)
    assert store.points_from(("on", "start", "true"), 1, 1, 10) == {("x",): [5]}
    store.forget(9)
    store.index(10)
    assert store.points_from(("on", "start", "true"), 10, 10, 20) == {("x",): [10]}
    assert store.points_from(("on", "end", "true"), 10, 10, 20) == {("x",): [15]}


def test_abutting_then_overlapping_records_have_no_point_between_them():
    # [10,20) and [20,30) are one interval of walking, and stay one after an
    # update makes the first overlap the second
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 10, 20),
        fl(2, "walking", ("p1",), 20, 30),
        fl(3, "walking", ("p2",), 5, 40),
        fl(4, "close", ("p1", "p2"), 0, 40),
        InputRecord(id="f1", action="update", kind="interval", name="walking", args=("p1",),
                    value="true", start=10, end=25, arrival=28),
    ]
    engine = Engine(ed, EngineConfig(wm=20, step=5))
    results = replay_against_the_oracle(engine, recs, 60, check_index=True)
    for key in (("walking", "start", "true"), ("walking", "end", "true")):
        assert 20 not in engine.store.at.get(key, {})
    moving = {(q, s, e) for q, _n, args, s, e, _st in entries_of(results, "moving")}
    assert (30, 11, 30) in moving


def test_content_announced_before_it_starts_stays_past_qi_until_reached():
    # the store holds the second walking interval of p1 and the closeness from
    # their arrival at 5, but no query may see a point or interval after Qi
    ed = surveillance("p1", "p2")
    recs = [
        fl(1, "walking", ("p1",), 0, 12),
        fl(2, "walking", ("p1",), 30, 55, arrival=5),
        fl(3, "walking", ("p2",), 0, 100),
        fl(4, "close", ("p1", "p2"), 8, 60, arrival=5),
    ]
    engine = Engine(ed, EngineConfig(wm=30, step=10))
    results = replay_against_the_oracle(engine, recs, 70, check_index=True)
    moving_sd = {(q, s, e) for q, _n, args, s, e, _st in entries_of(results, "moving_sd")
                 if args == ("p1", "p2")}
    assert {(10, 8, None), (20, 8, 12), (30, 30, None)} <= moving_sd


def store_stream(rng, wm):
    """Input for the store alone, in arrival order: events and intervals,
    some announced before they start, some open, many straddling a window
    start; a share is retracted or updated, often after forgetting cut it.
    A tenth of the near records has one argument, not two."""
    ids, recs = itertools.count(1), []
    for _ in range(rng.randrange(60)):
        x, y = rng.sample("abc", 2)
        if rng.random() < 0.3:
            rec = ev(next(ids), "up", (x,), rng.randrange(HORIZON))
            arrival = rec.t + rng.randint(0, wm)
        else:
            name, args = rng.choice([("on", (x,)), ("near", (x, y)), ("near", (x, y)),
                                     ("near", (x,))] if rng.random() < 0.1 else
                                    [("on", (x,)), ("near", (x, y))])
            s = rng.randrange(HORIZON)
            end = None if rng.random() < 0.15 else s + rng.randrange(1, 60)
            rec = fl(next(ids), name, args, s, end)
            arrival = max(0, s + rng.randint(-20, wm))
        recs.append(replace(rec, arrival=arrival))
        if rng.random() < 0.3:
            late = arrival + rng.randint(0, 2 * wm)
            if rec.kind == "interval" and rng.random() < 0.5:
                s = max(0, rec.start + rng.randint(-10, 10))
                end = None if rng.random() < 0.15 else s + rng.randrange(1, 60)
                recs.append(replace(rec, action="update", start=s, end=end, arrival=late))
            else:
                recs.append(InputRecord(id=rec.id, action="retract", arrival=late))
    return sorted(recs, key=record_arrival)


def apply_to(store, rec, boundary):
    """What Engine._apply asks of a store for one record."""
    if rec.action != "assert":
        store.remove(rec.id)
        if rec.action == "retract":
            return
    if rec.kind == "event":
        if rec.t > boundary:
            store.add_event(rec.id, rec.name, rec.args, rec.t)
    elif rec.end is OPEN or rec.end > boundary + 1:
        store.add_interval(rec.id, rec.name, rec.args, rec.value, rec.start, rec.end)


JOIN_SHAPES = [("near", (2, (0,))), ("near", (2, (1,))), ("near", (2, ())), ("on", (1, ())),
               ("near", (1, (0,)))]


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 6))
def test_forgetting_by_start_equals_the_scan_over_every_item(seed, step, steps_per_window):
    rng = random.Random(seed)
    wm = step * steps_per_window + rng.randrange(step)
    recs = store_stream(rng, wm)
    store, scan = SdeStore(), reference.ScanStore()
    late_shapes = rng.sample(JOIN_SHAPES, 2)  # asked for only once the window moves
    last_q = step * math.ceil((max((r.arrival for r in recs), default=0) + HORIZON + wm) / step)
    idx = 0
    for qi in range(step, last_q + 1, step):
        b = qi - wm
        while idx < len(recs) and recs[idx].arrival <= qi:
            apply_to(store, recs[idx], b)
            apply_to(scan, recs[idx], b)
            idx += 1
        store.forget(b)
        store.index(b + 1)
        scan.forget(b)
        for name, shape in JOIN_SHAPES if qi == step else late_shapes if qi == 3 * step else ():
            store.join_index(name, shape)
        assert (store.events, store.durative, store.by_id) == (scan.events, scan.durative,
                                                               scan.by_id), f"query {qi}"
        assert_index_matches_store(store, b + 1, step, qi)
        for name, shapes in store.joins.items():
            for (arity, positions), index in shapes.items():
                rebuilt = {}
                for args in store.content.get(name, {}):
                    if len(args) == arity:
                        rebuilt.setdefault(tuple(args[p] for p in positions), set()).add(args)
                assert all(len(rows) == len(set(rows)) for rows in index.values())
                assert {key: set(rows) for key, rows in index.items()} == rebuilt
        # popped by start, the heap holds only items that start after the
        # window start, and the crossing set only held items cut to start
        # just after it; every held item is in one of the two
        assert all(entry[0] > b for entry in store.starts)
        assert all(store.by_id[rec_id][1][0] == b + 1 for rec_id in store.crossing)
        pushed = {id(entry[3]) for entry in store.starts}
        assert all(rec_id in store.crossing or id(item) in pushed
                   for rec_id, (_slot, item) in store.by_id.items())


def classified(cache: dict, next_boundary: int) -> list:
    """One entry per interval of a query's results, with its stability by
    definition, in the output order."""
    entries = []
    for (name, args), per_value in cache.items():
        for value, ilist in per_value.items():
            for s, e in ilist:
                if e is not OPEN and e <= next_boundary:
                    stability = "final"
                elif e is not OPEN and s <= next_boundary:
                    stability = "partial"
                else:
                    stability = "open"
                entries.append(ResultEntry(name, args, value, s, e, stability))
    return sorted(entries, key=lambda en: (en.name, en.args, str(en.value), en.start))


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 8), st.booleans(),
       st.booleans())
def test_carried_entries_equal_a_classification_from_scratch(seed, step, steps_per_window,
                                                              revised, mixed):
    rng = random.Random(seed)
    wm = step * steps_per_window + rng.randrange(step)
    max_delay, share = (wm - step, 0.25) if revised else (0, 0)
    if mixed:
        ed, recs = lang.load(MIXED_PACK)[0], mixed_stream(rng, max_delay, share)
    else:
        ed = surveillance(*ENTITIES)
        recs = delayed(random_stream(rng, 0, 0), rng, max_delay, share)
    engine = Engine(ed, EngineConfig(wm=wm, step=step))
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    idx = 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and recs[idx].arrival <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        entries = engine.query(qi).entries
        assert entries == classified(engine.prev_cache, qi + step - wm), f"query {qi}"


def test_carried_entries_flip_as_the_next_boundary_passes_an_endpoint():
    # busy(a) is [12, 25) from q=30 on and its entry is carried; the next
    # boundary reaches its start at q=40 and its end at q=50
    ed, _ = lang.load(MIXED_PACK)
    engine = Engine(ed, EngineConfig(wm=30, step=10))
    engine.ingest([InputRecord(id="r1", kind="interval", name="on", args=("a",), value="true",
                               start=12, end=25)])
    busy = []
    for qi in range(10, 70, 10):
        busy += [(qi, e.start, e.end, e.stability) for e in engine.query(qi).entries
                 if e.name == "busy"]
    assert busy == [(20, 12, None, "open"), (30, 12, 25, "open"), (40, 12, 25, "partial"),
                    (50, 12, 25, "final")]


TEST_PACKS = {"surveillance": PACK, "mixed": MIXED_PACK, **packs.BY_NAME}


@pytest.mark.parametrize("name", sorted(TEST_PACKS))
def test_the_engine_refuses_exactly_the_packs_validate_rejects(name):
    ed, diagnostics = lang.load(TEST_PACKS[name])
    errors = [str(d) for d in diagnostics if d.severity == "error"]
    if errors:
        with pytest.raises(EvaluationError) as refused:
            Engine(ed, EngineConfig(wm=10, step=10))
        assert all(error in str(refused.value) for error in errors)
    else:
        Engine(ed, EngineConfig(wm=10, step=10))
