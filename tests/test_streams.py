import json
import math
import os
import pickle
import random
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evrec import streams
from evrec.streams import DelayModel, InputRecord, StreamFormatError

import reference


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


ENTITIES = ("a", "b", "c", "d")


@st.composite
def closeness_cases(draw):
    """Samples, pairs and a threshold that probe the grid join: coordinates
    negative, far from the origin and on or one float below cell borders;
    two samples straddling a cell corner or exactly the threshold apart;
    entities sampled twice at a tick; entities in pairs with no samples; a
    pair in both orders, and an entity paired with itself."""
    threshold = draw(st.sampled_from([0.0, 0.1, 1.0, 2.5, 25.0]) | st.floats(0, 50))
    base = draw(st.sampled_from([0.0, -7.0, 1e3, -1e6, 1e12]))
    side = threshold * (1 + 1e-9)  # the grid's cell side, near the origin
    border = st.integers(-2, 2).map(lambda k: base + k * side)
    coordinate = st.one_of(
        border,
        border.map(lambda v: math.nextafter(v, -math.inf)),
        st.integers(-4, 4).map(lambda k: base + k * threshold),
        st.floats(-60, 60).map(lambda v: base + v),
    )
    entity, tick = st.sampled_from(ENTITIES), st.integers(0, 6)
    samples = []
    for shape in draw(st.lists(st.sampled_from(["one", "corner", "apart"]), max_size=16)):
        t = draw(tick)
        if shape == "one":
            samples.append((draw(entity), t, draw(coordinate), draw(coordinate)))
            continue
        x, y = draw(border), draw(border)
        if shape == "corner":  # in diagonal cells, a fifth of the threshold apart
            dx, dy = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
            u, v = x + 0.07 * dx * threshold, y + 0.07 * dy * threshold
            x, y = x - 0.07 * dx * threshold, y - 0.07 * dy * threshold
        else:  # the threshold apart, from one float below a border
            x = math.nextafter(x, -math.inf)
            u, v = draw(st.sampled_from([(x + threshold, y), (x, y - threshold), (x, y + threshold)]))
        samples += [(draw(entity), t, x, y), (draw(entity), t, u, v)]
    as_records = draw(st.lists(st.booleans(), min_size=len(samples), max_size=len(samples)))
    samples = [
        InputRecord(id=f"c{i}", kind="coord", entity=e, t=t, x=x, y=y) if rec else (e, t, x, y)
        for i, ((e, t, x, y), rec) in enumerate(zip(samples, as_records))
    ]
    names = (*ENTITIES, "z")
    pairs = draw(st.permutations([(a, b) for a in names for b in names]))
    return samples, pairs, threshold


BELOW_ZERO = math.nextafter(0.0, -math.inf)


@given(closeness_cases(), st.sampled_from([1, 2, 3, streams._JOIN_BLOCK]))
# the threshold apart from one float below a border, which a side of exactly
# the threshold puts two cells apart
@example(([("a", 1, BELOW_ZERO, 0.0), ("b", 1, BELOW_ZERO + 0.1, 0.0)], [("a", "b")], 0.1), 1)
# across a cell corner, each way round, and an entity paired with itself
@example(([("a", 1, 0.1, -0.1), ("b", 1, -0.1, 0.1), ("c", 1, -0.1, -0.1), ("d", 1, 0.1, 0.1)],
          [("a", "b"), ("c", "d"), ("a", "a")], 1.0), 8192)
# twice a tiny threshold apart, where the squared distance underflows to 0
@example(([("a", 0, 0.0, 0.0), ("b", 0, 0.0, 5.3e-272)], [("a", "b")], 2.65e-272), 1)
def test_closeness_equals_the_pairwise_reference(case, block):
    samples, pairs, threshold = case
    expected = reference.pairwise_closeness(samples, [(a, b) for a, b in pairs if a != b], threshold)
    # a block of a few samples still holds whole ticks
    with mock.patch.object(streams, "_JOIN_BLOCK", block):
        assert streams.closeness(samples, pairs, threshold) == expected


def test_closeness_measures_tiny_distances_without_underflow():
    samples = [("a", 0, 0.0, 0.0), ("b", 0, 0.0, 5.3e-272), ("c", 0, 4e-272, 0.0)]
    got = streams.closeness(samples, [("a", "b"), ("a", "c")], 4.5e-272)
    assert [r.args for r in got] == [("a", "c")]


def test_closeness_takes_coordinates_far_beyond_the_threshold():
    samples = [("a", 1, 1e150, 0.0), ("b", 1, 1e150, 0.5), ("c", 1, -3.0, 0.0), ("d", 1, -2.5, 0.0)]
    pairs = [("a", "b"), ("c", "d"), ("a", "c")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cell number overflows
        got = streams.closeness(samples, pairs, 1.0)
    assert got == reference.pairwise_closeness(samples, pairs, 1.0)
    assert [r.args for r in got] == [("a", "b"), ("c", "d")]


def test_closeness_applies_coordinate_revisions():
    samples = [coord("a", 1, 0, 0), coord("b", 1, 1, 0), coord("a", 2, 0, 0), coord("b", 2, 1, 0)]

    def spans(recs):
        return [(r.start, r.end) for r in streams.closeness(recs, [("a", "b")], 2.0)]

    assert spans(samples) == [(1, 3)]
    moved = InputRecord(id="b-1", action="update", kind="coord", entity="b", t=1, x=9.0, y=0.0)
    assert spans(samples + [moved]) == [(2, 3)]
    # an update back, and a kind-less retract of a sample
    back = InputRecord(id="b-1", action="update", kind="coord", entity="b", t=1, x=1.0, y=0.0)
    assert spans(samples + [moved, back]) == [(1, 3)]
    assert spans(samples + [InputRecord(id="a-2", action="retract")]) == [(1, 2)]
    # a retract before the record's assert does not drop it
    assert spans([InputRecord(id="a-2", action="retract"), *samples]) == [(1, 3)]


def test_closeness_rejects_coordinates_that_are_not_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            streams.closeness([("a", 1, 0.0, 0.0), ("b", 1, bad, 0.0)], [("a", "b")], 5.0)


def test_write_results_schema(tmp_path):
    from evrec.engine import RecognitionResult, ResultEntry

    entry = ResultEntry("moving", ("p1", "p2"), "true", 4, None, "open")
    res = RecognitionResult(40, [entry], [entry])
    path = tmp_path / "out.jsonl"
    streams.write_results([res], path)
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
    retracts = [InputRecord(id="2", action="retract", kind="coord"), InputRecord(id="1", action="retract")]
    assert streams.stream_entities(recs + retracts) == ["p1", "p2"]
    ed = lang.parse("domain ent = auto\ninput event appear/1\n")
    ed2 = streams.fill_auto_domains(ed, recs)
    assert ed2.domains["ent"] == ("p1", "p2")


EVENT = {"id": "x", "kind": "event", "name": "e", "args": ["p1"], "t": 5}
INTERVAL = {"id": "x", "kind": "interval", "name": "f", "args": ["p1"], "value": "true",
            "from": 3, "to": 9}
COORD = {"id": "x", "kind": "coord", "entity": "p1", "t": 5, "x": 1.5, "y": 2}

# a record each, with the field that makes it malformed
MALFORMED = {
    "args not a list": {**EVENT, "args": 5},
    "args of a list": {**EVENT, "args": [["p"]]},
    "args a string": {**INTERVAL, "args": "pq"},
    "args of a boolean": {**EVENT, "args": [True]},
    "value a list": {**INTERVAL, "value": [1]},
    "value an object": {**INTERVAL, "value": {"on": 1}},
    "t a boolean": {**EVENT, "t": True},
    "from a boolean": {**INTERVAL, "from": False},
    "to a boolean": {**INTERVAL, "to": True},
    "arrival a boolean": {**EVENT, "arrival": True},
    "retract arrival a boolean": {"id": "x", "action": "retract", "arrival": True},
    "x a string": {**COORD, "x": "left"},
    "y a list": {**COORD, "y": [2]},
    "x a boolean": {**COORD, "x": True},
    "x not a number": {**COORD, "x": math.nan},
    "y infinite": {**COORD, "y": -math.inf},
    "x beyond the float range": {**COORD, "x": 10**400},
    "retract of an unknown kind": {"id": "x", "action": "retract", "kind": "wat"},
    "id a list": {**EVENT, "id": [1]},
    "entity an object": {**COORD, "entity": {"p": 1}},
    "name a list": {**EVENT, "name": ["x"]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_rejects_a_malformed_field_with_its_line(case):
    with pytest.raises(StreamFormatError) as err:
        streams.parse_record(MALFORMED[case], line=7)
    assert err.value.line == 7
    assert "(line 7)" in str(err.value)


def test_parse_keeps_integer_args_and_numeric_coordinates():
    rec = streams.parse_record({**EVENT, "args": ["p1", 3]})
    assert rec.args == ("p1", 3)
    rec = streams.parse_record(COORD)
    assert (rec.x, rec.y) == (1.5, 2.0)
    assert streams.parse_record({**INTERVAL, "value": 4}).value == 4
    rec = streams.parse_record({**COORD, "id": 5, "entity": 7})
    assert (rec.id, rec.entity) == ("5", "7")


def test_read_stream_keeps_a_sample_small_and_shares_its_atoms(tmp_path):
    rng = random.Random(3)
    path = tmp_path / "coords.jsonl"
    streams.write_stream(
        (InputRecord(id=f"p{e}-{t}", kind="coord", entity=f"p{e}", t=t,
                     x=rng.uniform(0, 640), y=rng.uniform(0, 480))
         for t in range(1000) for e in range(20)),
        path,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        doc = streams.read_stream(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(doc.records) == 20_000
    assert retained / len(doc.records) <= 320
    first, later = doc.records[0], doc.records[20 * 500]
    assert first.entity == later.entity and first.entity is later.entity
    assert first.action is sys.intern("assert")


TEXT = st.text(max_size=6)
ARGS = st.lists(TEXT | st.integers(-5, 10**6), max_size=3).map(tuple)
TICK = st.integers(0, 10**6)


def payload(draw, kind: str) -> dict:
    if kind == "event":
        return {"name": draw(TEXT), "args": draw(ARGS), "t": draw(TICK)}
    if kind == "interval":
        start = draw(TICK)
        return {
            "name": draw(TEXT), "args": draw(ARGS), "start": start,
            "end": draw(st.none() | st.integers(start + 1, start + 10**6)),
            "value": draw(TEXT | st.integers() | st.booleans() | st.floats(allow_nan=False)),
        }
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return {"entity": draw(TEXT), "t": draw(TICK), "x": draw(finite), "y": draw(finite)}


@st.composite
def stream_records(draw):
    """Records of every kind and action, asserted under distinct ids."""
    records = []
    for i, (action, kind) in enumerate(draw(st.lists(st.tuples(
        st.sampled_from(["assert", "update", "retract"]),
        st.sampled_from(["event", "interval", "coord"]),
    ), max_size=8))):
        fields = {"id": f"{i}{draw(TEXT)}", "action": action, "kind": kind,
                  "arrival": draw(st.none() | TICK)}
        if action != "retract":
            fields.update(payload(draw, kind))
        records.append(InputRecord(**fields))
    return records


@given(stream_records())
def test_records_survive_a_stream_file_and_pickling(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.jsonl")
        streams.write_stream(records, path)
        assert streams.read_stream(path).records == records
    for rec in records:
        assert pickle.loads(pickle.dumps(rec)) == rec


# Stream lines for the reader property: records, some with one or two fields
# missing or of a wrong type, and lines that are not one JSON object.
JUNK = [None, True, False, [], ["p1", True], {}, {"a": 1}, -1, 0, 2.5, "s", math.nan, -math.inf]
FIELDS = {
    "id": st.sampled_from(["a", "b", "é", 1]) | st.integers(2, 10**9),  # ids may repeat
    "action": st.sampled_from(["assert", "assert", "update", "retract"]),
    "arrival": st.none() | st.integers(0, 50),
    "name": st.sampled_from(["appear", "walking", 7]),
    "args": st.lists(st.sampled_from(["p1", "p2", 3]), max_size=3),
    "value": st.sampled_from(["true", 4, 1.5, True, False]),
    "t": st.integers(0, 50),
    "from": st.integers(0, 50),
    "to": st.none() | st.integers(51, 60),
    "entity": st.sampled_from(["p1", "p2", 9]),
    "x": st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
    "y": st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
}
KIND_FIELDS = {
    "event": ["name", "args", "t"],
    "interval": ["name", "args", "value", "from", "to"],
    "coord": ["entity", "t", "x", "y"],
}
PAD = st.text(" \t\r\x0b\x0c\xa0", max_size=3)
NOT_ONE_OBJECT = [
    "[1, 2]", "3", '"s"', "null", "true", "NaN", "-Infinity", "[" * 30 + "]" * 30,
    "{", "}", '{"id": }', "{'id': 1}", '{"id": "a",}', "nul",
]
SHAPES = ["padded", "blank", "bom", "trailing", "two values", "not one object", "bytes"]


@st.composite
def stream_lines(draw) -> list[bytes]:
    # Which fields break, and how, come from one seeded Random per file:
    # hypothesis' own choices among so few options repeat too often within
    # and across examples to reach every check.
    rnd = random.Random(draw(st.integers(0, 2**32)))
    lines = []
    for _ in range(rnd.randint(1, 6)):
        kind = rnd.choice(["event", "interval", "coord"] * 2 + ["interval?"])
        keys = ["id", "action", "kind", "arrival", *KIND_FIELDS.get(kind, [])]
        broken = rnd.sample(keys, rnd.choice([0, 0, 0, 1, 1, 2]))
        obj = {}
        for key in keys:
            if key not in broken:
                obj[key] = kind if key == "kind" else draw(FIELDS[key])
            elif rnd.random() < 0.8:  # else the field is missing
                obj[key] = rnd.choice(JUNK)
        separators = rnd.choice([(", ", ": "), (",", ":"), (" ,\t", "\t: ")])
        text = json.dumps(obj, separators=separators, ensure_ascii=rnd.random() < 0.5)
        shape = rnd.choice(SHAPES) if rnd.random() < 0.3 else "plain"
        if shape == "padded":
            text = draw(PAD) + text + draw(PAD)
        elif shape == "blank":
            text = draw(PAD)
        elif shape == "bom":
            text = "\ufeff" + text
        elif shape == "trailing":
            text += rnd.choice([" x", "}", " 1", "  ,"])
        elif shape == "two values":
            text += rnd.choice(["", " "]) + text
        elif shape == "not one object":
            text = rnd.choice(NOT_ONE_OBJECT)
        lines.append(b"\xff" * (shape == "bytes") + text.encode())
    return lines


def read_outcome(read, path):
    """The records and diagnostics `read` gives, or the error it raises."""
    try:
        doc = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return doc.records, doc.diagnostics


@given(stream_lines(), st.booleans())
def test_read_stream_equals_the_per_field_reference_reader(lines, final_newline):
    """The whole file, then each line alone, so that an earlier error hides none."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.jsonl")
        for text in [b"\n".join(lines) + b"\n" * final_newline, *lines]:
            with open(path, "wb") as fh:
                fh.write(text)
            got = read_outcome(streams.read_stream, path)
            want = read_outcome(reference.read_stream, path)
            # pickled, so that which atoms the records share is compared too
            assert pickle.dumps(got) == pickle.dumps(want)
