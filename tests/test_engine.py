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


def test_history_collects_evicted_intervals():
    ed = surveillance("p1")
    recs = [fl(1, "walking", ("p1",), 2, 6), ev(1, "disappear", ("p1",), 8)]
    eng, _results = run_stream(ed, EngineConfig(wm=10, step=10), recs, last_q=40)
    assert [(h[0], h[3], h[4]) for h in eng.history] == [("person", 3, 8)]


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


@given(windows, st.integers(1, 3))
def test_sharded_windows_match_the_pointwise_oracle(window, shards):
    seed, step, extra = window
    rng = random.Random(seed)
    wm = step + extra
    recs = sorted(random_stream(rng, max_delay=extra, retract_share=0.2), key=record_arrival)
    pairs = sorted((a, b) for a in ENTITIES for b in ENTITIES if a != b)
    shard = set(pairs[rng.randrange(shards)::shards])
    engine = Engine(surveillance(*ENTITIES), EngineConfig(wm=wm, step=step), pair_filter=shard)
    last_q = step * math.ceil((max(r.arrival for r in recs) + HORIZON + wm) / step)
    idx = 0
    for qi in range(step, last_q + 1, step):
        while idx < len(recs) and recs[idx].arrival <= qi:
            engine.ingest([recs[idx]])
            idx += 1
        res = engine.query(qi)
        events, durative = engine.store.snapshot()
        ev_d, fl_d = {}, {}
        for name, args, t in events:
            ev_d.setdefault((name, args), set()).add(t)
        for (name, args, _value), ilist in durative.items():
            fl_d[(name, args)] = ilist
        expected = reference.surveillance_batch(
            ev_d, fl_d, qi, qi - wm,
            kept_starts=engine.kept_starts, sd_prefixes=engine.sd_prefixes,
        )
        got = {}
        for e in res.entries:
            got.setdefault((e.name, e.args), []).append((e.start, e.end))
        assert got == {k: v for k, v in expected.items() if len(k[1]) == 1 or k[1] in shard}
