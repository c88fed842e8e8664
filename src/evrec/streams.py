"""Stream input/output: JSONL record parsing, delay simulation, closeness
preprocessing and result emission.

Input schema, one JSON object per line::

    {"id": str, "arrival": int?, "action": "assert"|"retract"|"update",
     "kind": "event"|"interval"|"coord",
     "name": str?, "args": [str]?, "value": str?, "t": int?,
     "from": int?, "to": int?,            # durative payload; "to" null = open
     "entity": str?, "x": number?, "y": number?}

An integer id, name or entity is read as its text.

Output schema (`write_results`), one entry per line::

    {"name": str, "args": [str], "value": str, "from": int, "to": int|null,
     "stability": "open"|"partial"|"final", "q": int}
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .engine import RecognitionResult, ResultEntry, record_occurrence
from .language import EventDescription, all_pairs


class StreamFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True, slots=True)
class InputRecord:
    id: str
    action: str = "assert"  # assert | retract | update
    kind: str = "event"  # event | interval | coord
    name: Optional[str] = None
    args: tuple = ()
    value: object = None
    t: Optional[int] = None
    start: Optional[int] = None  # JSON field "from"
    end: Optional[int] = None  # JSON field "to"; None means open
    entity: Optional[str] = None
    x: Optional[float] = None
    y: Optional[float] = None
    arrival: Optional[int] = None  # absent = in-order

    def to_json(self) -> dict:
        out: dict = {"id": self.id, "action": self.action, "kind": self.kind}
        if self.arrival is not None:
            out["arrival"] = self.arrival
        if self.kind == "event":
            out.update(name=self.name, args=list(self.args), t=self.t)
        elif self.kind == "interval":
            out.update(
                name=self.name, args=list(self.args), value=self.value, **{"from": self.start}
            )
            out["to"] = self.end
        elif self.kind == "coord":
            out.update(entity=self.entity, t=self.t, x=self.x, y=self.y)
        return out


@dataclass
class StreamDocument:
    records: list[InputRecord] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def __iter__(self) -> Iterator[InputRecord]:
        return iter(self.records)


def _require(obj: dict, key: str, line: int):
    value = obj.get(key)
    if value is None:
        raise StreamFormatError(f"missing field {key!r}", line)
    return value


# Fields are checked by exact type: json.loads gives a JSON true or false as a
# bool, which isinstance would take for the integer 1 or 0.


def _text(obj: dict, key: str, line: int) -> str:
    value = _require(obj, key, line)
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise StreamFormatError(f"{key!r} must be a string or an integer", line)


def _args(obj: dict, line: int, share) -> tuple:
    args = _require(obj, "args", line)
    if type(args) is not list or not all(type(a) is str or type(a) is int for a in args):
        raise StreamFormatError("'args' must be a list of strings or integers", line)
    return tuple([share(a, a) for a in args])


def _number(obj: dict, key: str, line: int) -> float:
    value = _require(obj, key, line)
    if type(value) is not float and type(value) is not int:
        raise StreamFormatError(f"{key!r} must be a number", line)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads reads NaN and Infinity
        raise StreamFormatError(f"{key!r} must be a finite number", line)
    return number


# A record stores this module's own action and kind strings, not the copies
# json.loads made, so that every record shares one of each.
_ACTIONS = {a: a for a in ("assert", "retract", "update")}
_KINDS = {k: k for k in ("event", "interval", "coord")}
_ARG_TYPES = {str, int}


def _constant(table: dict, value, what: str, line: int) -> str:
    if type(value) is not str or value not in table:
        raise StreamFormatError(f"unknown {what} {value!r}", line)
    return table[value]


def parse_record(obj: dict, line: int = 0) -> InputRecord:
    return _parse_record(obj, line, {})


def _parse_record(obj: dict, line: int, atoms: dict) -> InputRecord:
    """`parse_record`, with each entity, name, argument and tick replaced by
    the equal value first put in `atoms`, so that records share it.  Each field
    is tested inline, in the order of the checks; the helper that raises (or
    reads an integer as text) runs only where that test fails."""
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line)
    share = atoms.setdefault
    get = obj.get
    rec_id = get("id")
    if type(rec_id) is not str:
        rec_id = _text(obj, "id", line)
    action = get("action", "assert")
    action = type(action) is str and _ACTIONS.get(action) or _constant(
        _ACTIONS, action, "action", line)
    arrival = get("arrival")
    if arrival is not None and (type(arrival) is not int or arrival < 0):
        raise StreamFormatError("arrival must be a non-negative integer", line)
    kind = get("kind", "event") if action == "retract" else get("kind")
    if kind is None and action != "retract":
        _require(obj, "kind", line)
    kind = type(kind) is str and _KINDS.get(kind) or _constant(_KINDS, kind, "record kind", line)
    # InputRecord(id, action, kind, name, args, value, t, start, end, entity, x, y, arrival)
    if action == "retract":
        return InputRecord(rec_id, action, kind, None, (), None, None, None, None, None, None,
                           None, arrival)
    if kind == "interval":
        start = get("from")
        if type(start) is not int or start < 0:
            _require(obj, "from", line)
            raise StreamFormatError("'from' must be a non-negative integer", line)
        end = get("to")
        if end is not None and (type(end) is not int or end <= start):
            raise StreamFormatError("'to' must be null or an integer after 'from'", line)
        value = get("value")
        if value is None or isinstance(value, (list, dict)):
            _require(obj, "value", line)
            raise StreamFormatError("'value' must be a string, number or boolean", line)
        t = None
    else:  # kind "event" or "coord"
        t = get("t")
        if type(t) is not int or t < 0:
            _require(obj, "t", line)
            raise StreamFormatError("t must be a non-negative integer", line)
        t = share(t, t)
        if kind == "coord":
            entity = get("entity")
            if type(entity) is not str:
                entity = _text(obj, "entity", line)
            x = get("x")
            x = x if type(x) is float and math.isfinite(x) else _number(obj, "x", line)
            y = get("y")
            y = y if type(y) is float and math.isfinite(y) else _number(obj, "y", line)
            return InputRecord(rec_id, action, kind, None, (), None, t, None, None,
                               share(entity, entity), x, y, arrival)
        start = end = value = None
    name = get("name")
    if type(name) is not str:
        name = _text(obj, "name", line)
    args = get("args")
    if type(args) is list and _ARG_TYPES.issuperset(map(type, args)):
        args = tuple(map(share, args, args))
    else:
        args = _args(obj, line, share)
    return InputRecord(rec_id, action, kind, share(name, name), args, value, t, start, end,
                       None, None, None, arrival)


def read_stream(path) -> StreamDocument:
    """Parse a JSONL stream file.  Hard schema violations raise with the line
    number; referential oddities become diagnostics.  Records read from one
    file share one copy of each entity, name, argument and tick.  A line is
    taken when json's C scanner reads one value that ends it; `json.loads`
    then reads any other line only to raise its error."""
    doc = StreamDocument()
    seen: set[str] = set()
    atoms: dict = {}
    scan = json.JSONDecoder().scan_once
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                message = f"invalid UTF-8 byte {raw[exc.start]:#04x}"
                raise StreamFormatError(message, lineno) from None
            if not raw:
                continue
            try:
                obj, end = scan(raw, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(raw):
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise StreamFormatError(f"malformed JSON: {exc.msg}", lineno) from exc
                except (ValueError, RecursionError) as exc:  # too deep, or too long an integer
                    message = str(exc).split(";")[0]
                    raise StreamFormatError(f"malformed JSON: {message}", lineno) from None
            rec = _parse_record(obj, lineno, atoms)
            if rec.action == "assert":
                if rec.id in seen:
                    raise StreamFormatError(f"duplicate id {rec.id!r} on assert", lineno)
                seen.add(rec.id)
            elif rec.id not in seen:
                doc.diagnostics.append(
                    f"line {lineno}: {rec.action} references id {rec.id!r} not asserted "
                    "earlier in this file"
                )
            doc.records.append(rec)
    return doc


def write_stream(records: Iterable[InputRecord], path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Delay simulation


@dataclass(frozen=True)
class DelayModel:
    """Arrival-delay distribution in ticks: none, fixed(d) or uniform(lo, hi)."""

    distribution: str = "none"  # none | fixed | uniform
    lo: int = 0
    hi: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.distribution not in ("none", "fixed", "uniform"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError("delays must be non-negative and lo <= hi")

    def sample(self, rng: random.Random) -> int:
        if self.distribution == "none":
            return 0
        if self.distribution == "fixed":
            return self.lo
        return rng.randint(self.lo, self.hi)


def simulate_delays(records: Sequence[InputRecord], model: DelayModel) -> list[InputRecord]:
    """Assign arrival times and sort by arrival (ties: occurrence, then id).
    A retract, which has no occurrence time, arrives with the record before
    it and stays right after it.

    Input records are expected in order with no arrival set; deterministic for
    a fixed seed.
    """
    rng = random.Random(model.seed)
    delayed, key = [], (0,)
    for rec in records:
        if rec.action != "retract":
            occ = record_occurrence(rec)
            key = (occ + model.sample(rng), occ, rec.id)
        delayed.append((key, replace(rec, arrival=key[0])))
    delayed.sort(key=itemgetter(0))
    return [rec for _key, rec in delayed]


# ---------------------------------------------------------------------------
# Closeness preprocessing


# Samples the closeness join takes at once.  A block holds whole ticks, so
# its size bounds the join's temporaries and never changes its answer.
_JOIN_BLOCK = 8192


def closeness(
    samples: Iterable,
    pairs: Sequence[tuple[str, str]],
    threshold: float,
) -> list[InputRecord]:
    """Turn coordinate samples into durative `close` fluent records.

    A pair is close at tick t iff both entities have a sample at t and their
    Euclidean distance does not exceed `threshold` pixels; an entity is never
    close to itself.  Consecutive close ticks collapse into maximal intervals,
    emitted pair by pair in the order of `pairs`.

    `samples` may be (entity, t, x, y) tuples or InputRecords, which apply in
    order by id: the last assert or update of kind "coord" gives the sample,
    and a retract drops it.  An entity sampled twice at one tick keeps its
    least (x, y).  Coordinates must be finite.

    All close pairs come from one grid join, not one comparison per pair.
    Each sample falls into a square cell a hair wider than the threshold, so
    two samples within it share a tick and lie in the same or neighbouring
    cells.  Samples sorted by (tick, cell) are matched against the 9 cells
    around each, in blocks of whole ticks.  The cost is O(n log n + c) for n
    samples and c sample pairs in neighbouring cells, plus one dictionary
    lookup per entry of `pairs`.
    """
    if not threshold >= 0:  # nan compares false
        raise ValueError("threshold must be a non-negative number")
    codes, key, tick = _close_hits(samples, threshold)
    # each (pair, tick) is hit once: cut runs of consecutive ticks
    order = np.lexsort((tick, key))
    key = key[order]
    tick = tick[order]
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = (key[1:] != key[:-1]) | (tick[1:] != tick[:-1] + 1)
    run_at = np.flatnonzero(new_run)
    run_end = np.r_[tick[run_at[1:] - 1], tick[-1:]] + 1
    runs: dict[int, list[tuple[int, int]]] = {}
    for k, s, e in zip(key[run_at].tolist(), tick[run_at].tolist(), run_end.tolist()):
        runs.setdefault(k, []).append((s, e))

    records = []
    for a, b in pairs:
        ca, cb = codes.get(a), codes.get(b)
        if ca is None or cb is None:
            continue
        for s, e in runs.get(min(ca, cb) * len(codes) + max(ca, cb), ()):
            records.append(
                InputRecord(
                    id=f"close-{len(records) + 1:06d}",
                    kind="interval",
                    name="close",
                    args=(a, b),
                    value="true",
                    start=s,
                    end=e,
                )
            )
    return records


def _close_hits(samples: Iterable, threshold: float) -> tuple[dict, np.ndarray, np.ndarray]:
    """The code of each entity, then the pair key a * len(codes) + b and the
    tick of each pair of samples within `threshold`, where a < b are the
    samples' entity codes."""
    codes, ent, t, xy = _coordinates(samples)
    if not len(t):
        return codes, t, t  # no hits
    # The side is over the threshold by a relative 1e-9, and at least 2**-21 of
    # the largest coordinate, so |x / side| <= 2**21: its rounding then stays
    # under that 1e-9, and cannot put two samples within the threshold two
    # cells apart.  The last term keeps the side positive at threshold 0.
    side = max(threshold * (1 + 1e-9), float(np.abs(xy).max()) * 2.0**-21, 2.0**-1000)
    tick_starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    keys, ticks = [], []
    lo = 0
    while lo < len(t):
        at = np.searchsorted(tick_starts, lo + _JOIN_BLOCK)
        hi = int(tick_starts[at]) if at < len(tick_starts) else len(t)
        i, j = _neighbours(t[lo:hi], np.floor(xy[lo:hi] / side).astype(np.int64))
        keep = ent[i + lo] < ent[j + lo]
        i, j = i[keep] + lo, j[keep] + lo
        d = xy[i] - xy[j]
        near = np.hypot(d[:, 0], d[:, 1]) <= threshold  # no underflow of d**2
        i, j = i[near], j[near]
        keys.append(ent[i] * len(codes) + ent[j])
        ticks.append(t[i])
        lo = hi
    return codes, np.concatenate(keys), np.concatenate(ticks)


def _coordinates(samples: Iterable) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """The code of each entity, then the entity code, tick and (x, y) of each
    sample in the order of (tick, entity), one sample per entity and tick."""
    records, rows = [], []
    for s in samples:
        (records if isinstance(s, InputRecord) else rows).append(s)
    if any(r.action != "assert" for r in records):
        live = {}  # record id -> the record giving its sample
        for r in records:
            if r.action == "retract":
                live.pop(r.id, None)
            else:
                live[r.id] = r
        records = list(live.values())
    records = [r for r in records if r.kind == "coord"]
    n = len(records) + len(rows)

    def column(field: str, at: int):
        return chain(map(attrgetter(field), records), map(itemgetter(at), rows))

    names = list(column("entity", 0))
    codes = {name: code for code, name in enumerate(dict.fromkeys(names))}
    ent = np.fromiter(map(codes.__getitem__, names), np.int64, n)
    t = np.fromiter(column("t", 1), np.int64, n)
    xy = np.empty((n, 2))
    xy[:, 0] = np.fromiter(column("x", 2), float, n)
    xy[:, 1] = np.fromiter(column("y", 3), float, n)
    if not np.isfinite(xy).all():
        raise ValueError("coordinates must be finite numbers")
    # by tick, entity, x, y: the first sample of an entity at a tick is its least
    order = np.lexsort((xy[:, 1], xy[:, 0], ent, t))
    t = t[order]
    ent = ent[order]
    xy = xy[order]
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]) | (ent[1:] != ent[:-1])
    return codes, ent[first], t[first], xy[first]


def _neighbours(t: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of samples at one tick in the same or neighbouring
    cells, each pair both ways and each sample with itself; `t` is sorted."""
    tick = np.cumsum(np.r_[0, t[1:] != t[:-1]])
    cx = cell[:, 0] - cell[:, 0].min() + 1  # so cx - 1 and cy - 1 are >= 0
    cy = cell[:, 1] - cell[:, 1].min() + 1
    width, height = int(cx.max()) + 2, int(cy.max()) + 2
    key = (tick * height + cy) * width + cx
    order = np.argsort(key)
    sorted_key = key[order]
    i_parts, j_parts = [], []
    # cells x-1, x, x+1 of one row are consecutive keys
    for dy in (-1, 0, 1):
        row = key + dy * width
        first = np.searchsorted(sorted_key, row - 1, "left")
        count = np.searchsorted(sorted_key, row + 1, "right") - first
        i_parts.append(np.repeat(np.arange(len(key)), count))
        offset = np.repeat(first - np.cumsum(count) + count, count)
        j_parts.append(order[np.arange(int(count.sum())) + offset])
    return np.concatenate(i_parts), np.concatenate(j_parts)


# ---------------------------------------------------------------------------
# Results and domains


def entry_to_json(entry: ResultEntry, q: int) -> dict:
    return {
        "name": entry.name,
        "args": list(entry.args),
        "value": str(entry.value),
        "from": entry.start,
        "to": entry.end,
        "stability": entry.stability,
        "q": q,
    }


def write_results(results: Iterable[RecognitionResult], path):
    """Emit each result's reported entries as JSONL, in the engine's order:
    query time, then name, arguments, value as text and start."""
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            for entry in res.reported:
                fh.write(json.dumps(entry_to_json(entry, res.q)) + "\n")


def stream_entities(records: Iterable[InputRecord]) -> list[str]:
    """Distinct entity constants mentioned by a stream, sorted."""
    out = set()
    for rec in records:
        if rec.action == "retract":
            continue
        if rec.kind == "coord":
            out.add(rec.entity)
        elif rec.kind in ("event", "interval"):
            out.update(a for a in rec.args if isinstance(a, str))
    return sorted(out)


def fill_auto_domains(ed: EventDescription, records: Iterable[InputRecord]) -> EventDescription:
    """Populate every `auto` domain with the entities observed in the stream."""
    if not ed.auto_domains:
        return ed
    members = tuple(stream_entities(records))
    for name in ed.auto_domains:
        ed = ed.with_domain(name, members)
    return ed


def engine_input(ed: EventDescription, records: Sequence[InputRecord],
                 threshold: float) -> tuple[EventDescription, list[InputRecord]]:
    """A stream made ready for the engine: `ed` with its auto domains filled
    from the records, and the records with each coordinate sample, with every
    update or retract of its id, replaced by the closeness records of the
    pairs `ed` grounds, appended at the end.  A closeness record's id is
    "close-" and a number, with one "+" more before the "-" while some
    record's id starts like that, so no record asserts, revises or retracts
    one of them."""
    ed = fill_auto_domains(ed, records)
    coord_ids = {r.id for r in records if r.kind == "coord"}
    out = [r for r in records if r.id not in coord_ids]
    coords = [r for r in records if r.id in coord_ids]
    if coords:
        close, prefix = closeness(coords, all_pairs(ed), threshold), "close-"
        while any(r.id.startswith(prefix) for r in records):
            prefix = prefix[:-1] + "+-"
        out += close if prefix == "close-" else [
            replace(r, id=prefix + r.id[len("close-"):]) for r in close]
    return ed, out
