import gc
import importlib.resources as res
import itertools
import math
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evrec import language as lang
from evrec.engine import (
    ConfigError,
    Engine,
    EngineConfig,
    EvaluationError,
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
    ed = surveillance("p1")
    eng = Engine(ed, EngineConfig(wm=50, step=50))
    eng.ingest([ev(1, "appear", ("p1",), 5), ev(1, "appear", ("p1",), 8)])
    eng.query(50)
    assert eng.store.event_times("appear", ("p1",)) == [5]
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
    _eng, part = run_stream(ed, cfg, recs, last_q=100, pair_filter={("p1", "p2")})
    full_pairs = {(e.name, e.args) for e in full[0].entries if len(e.args) == 2}
    part_pairs = {(e.name, e.args) for e in part[0].entries if len(e.args) == 2}
    assert {a for _n, a in full_pairs} == {("p1", "p2"), ("p2", "p1")}
    assert {a for _n, a in part_pairs} == {("p1", "p2")}


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
        scratch.store.changed_from = -math.inf
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
    # every solution, interval and stored item lies after the window start,
    # but for intervals that cross it
    ed = surveillance("p1", "p2")
    recs, wm = [], 40
    for k, t in enumerate(range(0, 3000, 30)):
        recs += [
            fl(4 * k, "walking", ("p1",), t, t + 20),
            fl(4 * k + 1, "walking", ("p2",), t + 5, t + 45),
            fl(4 * k + 2, "close", ("p1", "p2"), t + 3, t + 18),
            fl(4 * k + 3, "running", ("p2",), t + 10, t + 12),
            ev(k, "disappear", ("p1",), t + 25),
        ]
    engine = Engine(ed, EngineConfig(wm=wm, step=10))
    recs.sort(key=record_occurrence)
    idx = 0
    for qi in range(10, 3100, 10):
        while idx < len(recs) and record_occurrence(recs[idx]) <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        engine.query(qi)
        b = qi - wm
        assert engine.store.min_content() is None or engine.store.min_content() > b
        for per_name in engine._plans.values():
            for plans in per_name.values():
                for _value, plan in plans:
                    assert all(t > b for _args, t in getattr(plan, "solutions", ()))
        for per_value in engine.prev_cache.values():
            assert all(e is OPEN or e > b for ilist in per_value.values() for _s, e in ilist)


# ---------------------------------------------------------------------------
# properties on random streams

ENTITIES = ("p1", "p2", "obj1")
HORIZON = 120


def random_stream(rng, max_delay, retract_share):
    """Random input over the whole vocabulary of the pack.  Each record
    arrives up to `max_delay` ticks after it occurs, and a share of them is
    retracted, also up to `max_delay` ticks after arriving."""
    ids = itertools.count(1)
    recs = []

    def spans(n):
        for _ in range(rng.randrange(n + 1)):
            s = rng.randrange(HORIZON - 1)
            yield s, (None if rng.random() < 0.1 else min(HORIZON, s + rng.randrange(1, 40)))

    for p in ENTITIES:
        for name in ("walking", "running", "active", "inactive", "abrupt"):
            recs += [fl(next(ids), name, (p,), s, e) for s, e in spans(2)]
        for name in ("appear", "disappear"):
            if rng.random() < 0.5:
                recs.append(ev(next(ids), name, (p,), rng.randrange(HORIZON)))
        for q in ENTITIES:
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


def replay_against_the_oracle(engine, recs, last_q, shard=None) -> list:
    """Query the engine every step up to last_q, each record ingested at its
    arrival (its occurrence when it has none), and check every answer against
    the pointwise evaluation of the store from scratch.  Returns the results."""
    step, wm = engine.cfg.step, engine.cfg.wm
    recs = sorted(recs, key=record_arrival)
    results, idx = [], 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and record_arrival(recs[idx]) <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        seeds = reference.boundary_seeds(engine, qi - wm)
        res = engine.query(qi)
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
        scratch.store.changed_from = -math.inf
        assert reusing.query(qi).entries == scratch.query(qi).entries, f"query {qi}"
        assert reusing.diagnostics == scratch.diagnostics


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
