import json
import math

import pytest

from evrec import streams
from evrec.streams import DelayModel, InputRecord, StreamFormatError


def test_parse_event_record():
    rec = streams.parse_record(
        {"id": "a", "kind": "event", "name": "appear", "args": ["p1"], "t": 5}
    )
    assert rec.action == "assert"
    assert rec.name == "appear" and rec.args == ("p1",) and rec.t == 5


def test_parse_interval_record_open_end():
    rec = streams.parse_record(
        {"id": "b", "kind": "interval", "name": "walking", "args": ["p1"],
         "value": "true", "from": 3, "to": None}
    )
    assert rec.start == 3 and rec.end is None


def test_parse_rejects_bad_shapes():
    with pytest.raises(StreamFormatError):
        streams.parse_record({"id": "x", "kind": "event", "name": "e", "args": []})
    with pytest.raises(StreamFormatError):
        streams.parse_record({"id": "x", "kind": "interval", "name": "f",
                              "args": [], "value": "v", "from": 9, "to": 4})
    with pytest.raises(StreamFormatError):
        streams.parse_record({"id": "x", "kind": "wat", "t": 1})
    with pytest.raises(StreamFormatError):
        streams.parse_record({"id": "x", "action": "explode", "kind": "event"})


def test_read_stream_round_trip(tmp_path):
    records = [
        InputRecord(id="1", kind="event", name="appear", args=("p1",), t=4),
        InputRecord(id="2", kind="interval", name="walking", args=("p1",),
                    value="true", start=4, end=30),
        InputRecord(id="3", kind="coord", entity="p1", t=4, x=10.0, y=20.0),
        InputRecord(id="2", action="retract"),
    ]
    path = tmp_path / "s.jsonl"
    streams.write_stream(records, path)
    doc = streams.read_stream(path)
    assert doc.diagnostics == []
    assert [r.id for r in doc] == ["1", "2", "3", "2"]
    assert doc.records[1].args == ("p1",)
    assert doc.records[3].action == "retract"


def test_read_stream_flags_duplicate_assert(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(
        '{"id": "1", "kind": "event", "name": "e", "args": [], "t": 1}\n'
        '{"id": "1", "kind": "event", "name": "e", "args": [], "t": 2}\n'
    )
    with pytest.raises(StreamFormatError) as err:
        streams.read_stream(path)
    assert err.value.line == 2


def test_read_stream_diagnoses_unknown_retract(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"id": "ghost", "action": "retract"}\n')
    doc = streams.read_stream(path)
    assert len(doc.diagnostics) == 1


def test_read_stream_reports_bad_json_line(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"id": "1", "kind": "event", "name": "e", "args": [], "t": 1}\nnot json\n')
    with pytest.raises(StreamFormatError) as err:
        streams.read_stream(path)
    assert err.value.line == 2


def make_events(n):
    return [
        InputRecord(id=f"e{i}", kind="event", name="tap", args=("x",), t=i * 3)
        for i in range(n)
    ]


def test_delay_none_is_identity_order():
    recs = make_events(10)
    out = streams.simulate_delays(recs, DelayModel("none"))
    assert [r.id for r in out] == [r.id for r in recs]
    assert all(r.arrival == r.t for r in out)


def test_delay_fixed_shifts_all():
    out = streams.simulate_delays(make_events(5), DelayModel("fixed", lo=7, hi=7))
    assert all(r.arrival == r.t + 7 for r in out)


def test_delay_uniform_is_seeded_and_bounded():
    recs = make_events(50)
    a = streams.simulate_delays(recs, DelayModel("uniform", 0, 9, seed=42))
    b = streams.simulate_delays(recs, DelayModel("uniform", 0, 9, seed=42))
    c = streams.simulate_delays(recs, DelayModel("uniform", 0, 9, seed=43))
    assert a == b
    assert a != c
    assert all(0 <= r.arrival - r.t <= 9 for r in a)
    assert [r.arrival for r in a] == sorted(r.arrival for r in a)


def test_delay_puts_a_retract_after_the_record_before_it():
    recs = make_events(6)
    recs.insert(3, InputRecord(id="w", kind="interval", name="walking", args=("x",),
                               value="true", start=7, end=12))
    recs.insert(4, InputRecord(id="w", action="retract"))
    out = streams.simulate_delays(recs, DelayModel("uniform", 0, 9, seed=42))
    at = [i for i, r in enumerate(out) if r.id == "w"]
    assert [out[i].action for i in at] == ["assert", "retract"]
    assert at[1] == at[0] + 1
    assert out[at[1]].arrival == out[at[0]].arrival


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("normal")
    with pytest.raises(ValueError):
        DelayModel("uniform", 5, 2)


def coord(entity, t, x, y):
    return InputRecord(id=f"{entity}-{t}", kind="coord", entity=entity, t=t, x=x, y=y)


def test_closeness_threshold_boundary():
    # distance is exactly 5 for (0,0) vs (3,4): at threshold, still close
    samples = [coord("a", 1, 0, 0), coord("b", 1, 3, 4)]
    assert streams.closeness(samples, [("a", "b")], 5.0)[0].args == ("a", "b")
    assert streams.closeness(samples, [("a", "b")], 4.99) == []


def test_closeness_contiguous_runs_merge():
    samples = []
    for t in range(10):
        samples.append(coord("a", t, 0, 0))
        samples.append(coord("b", t, 100 if t == 5 else 1, 0))
    recs = streams.closeness(samples, [("a", "b")], 2.0)
    assert [(r.start, r.end) for r in recs] == [(0, 5), (6, 10)]
    assert all(r.name == "close" and r.value == "true" for r in recs)


def test_closeness_needs_co_sampled_ticks():
    samples = [coord("a", 1, 0, 0), coord("b", 2, 0, 0)]
    assert streams.closeness(samples, [("a", "b")], 10.0) == []


def test_closeness_symmetric_pairs():
    samples = [coord("a", 1, 0, 0), coord("b", 1, 1, 0)]
    recs = streams.closeness(samples, [("a", "b"), ("b", "a")], 2.0)
    assert {r.args for r in recs} == {("a", "b"), ("b", "a")}
    spans = {r.args: (r.start, r.end) for r in recs}
    assert spans[("a", "b")] == spans[("b", "a")]


def test_closeness_monotone_in_threshold():
    import random

    rng = random.Random(5)
    samples = [
        coord(ent, t, rng.uniform(0, 50), rng.uniform(0, 50))
        for ent in ("a", "b")
        for t in range(30)
    ]

    def tick_count(th):
        recs = streams.closeness(samples, [("a", "b")], th)
        return sum(r.end - r.start for r in recs)

    counts = [tick_count(th) for th in (5, 15, 30, 60)]
    assert counts == sorted(counts)


def test_write_results_schema(tmp_path):
    from evrec.engine import RecognitionResult, ResultEntry

    entry = ResultEntry("moving", ("p1", "p2"), "true", 4, None, "open")
    res = RecognitionResult(40, [entry], [entry])
    path = tmp_path / "out.jsonl"
    streams.write_results([res], path, mode="asap")
    obj = json.loads(path.read_text().strip())
    assert obj == {
        "name": "moving", "args": ["p1", "p2"], "value": "true",
        "from": 4, "to": None, "stability": "open", "q": 40,
    }


def test_stream_entities_and_auto_domains():
    from evrec import language as lang

    recs = [
        InputRecord(id="1", kind="event", name="appear", args=("p2",), t=1),
        InputRecord(id="2", kind="coord", entity="p1", t=1, x=0.0, y=0.0),
    ]
    assert streams.stream_entities(recs) == ["p1", "p2"]
    ed = lang.parse("domain ent = auto\ninput event appear/1\n")
    ed2 = streams.fill_auto_domains(ed, recs)
    assert ed2.domains["ent"] == ("p1", "p2")
