"""Stream input/output: JSONL record parsing, delay simulation, closeness
preprocessing and result emission.

Input schema, one JSON object per line::

    {"id": str, "arrival": int?, "action": "assert"|"retract"|"update",
     "kind": "event"|"interval"|"coord",
     "name": str?, "args": [str]?, "value": str?, "t": int?,
     "from": int?, "to": int?,            # durative payload; "to" null = open
     "entity": str?, "x": number?, "y": number?}

Output schema (`write_results`), one entry per line::

    {"name": str, "args": [str], "value": str, "from": int, "to": int|null,
     "stability": "open"|"partial"|"final", "q": int}
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
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
    if key not in obj or obj[key] is None:
        raise StreamFormatError(f"missing field {key!r}", line)
    return obj[key]


# Fields are checked by exact type: json.loads gives a JSON true or false as a
# bool, which isinstance would take for the integer 1 or 0.


def _args(obj: dict, line: int) -> tuple:
    args = _require(obj, "args", line)
    if type(args) is not list or not all(type(a) is str or type(a) is int for a in args):
        raise StreamFormatError("'args' must be a list of strings or integers", line)
    return tuple(args)


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


def parse_record(obj: dict, line: int = 0) -> InputRecord:
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line)
    rec_id = str(_require(obj, "id", line))
    action = obj.get("action", "assert")
    if action not in ("assert", "retract", "update"):
        raise StreamFormatError(f"unknown action {action!r}", line)
    arrival = obj.get("arrival")
    if arrival is not None and (type(arrival) is not int or arrival < 0):
        raise StreamFormatError("arrival must be a non-negative integer", line)
    kind = obj.get("kind", "event") if action == "retract" else _require(obj, "kind", line)
    if kind not in ("event", "interval", "coord"):
        raise StreamFormatError(f"unknown record kind {kind!r}", line)
    if action == "retract":
        return InputRecord(id=rec_id, action=action, kind=kind, arrival=arrival)
    if kind == "event":
        t = _require(obj, "t", line)
        if type(t) is not int or t < 0:
            raise StreamFormatError("t must be a non-negative integer", line)
        return InputRecord(
            id=rec_id,
            action=action,
            kind=kind,
            name=str(_require(obj, "name", line)),
            args=_args(obj, line),
            t=t,
            arrival=arrival,
        )
    if kind == "interval":
        start = _require(obj, "from", line)
        end = obj.get("to")
        if type(start) is not int or start < 0:
            raise StreamFormatError("'from' must be a non-negative integer", line)
        if end is not None and (type(end) is not int or end <= start):
            raise StreamFormatError("'to' must be null or an integer after 'from'", line)
        value = _require(obj, "value", line)
        if isinstance(value, (list, dict)):
            raise StreamFormatError("'value' must be a string, number or boolean", line)
        return InputRecord(
            id=rec_id,
            action=action,
            kind=kind,
            name=str(_require(obj, "name", line)),
            args=_args(obj, line),
            value=value,
            start=start,
            end=end,
            arrival=arrival,
        )
    t = _require(obj, "t", line)  # kind "coord"
    if type(t) is not int or t < 0:
        raise StreamFormatError("t must be a non-negative integer", line)
    return InputRecord(
        id=rec_id,
        action=action,
        kind=kind,
        entity=str(_require(obj, "entity", line)),
        t=t,
        x=_number(obj, "x", line),
        y=_number(obj, "y", line),
        arrival=arrival,
    )


def read_stream(path) -> StreamDocument:
    """Parse a JSONL stream file.  Hard schema violations raise with the line
    number; referential oddities become diagnostics."""
    doc = StreamDocument()
    seen: set[str] = set()
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
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise StreamFormatError(f"malformed JSON: {exc.msg}", lineno) from exc
            rec = parse_record(obj, lineno)
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
        delayed.append((key, InputRecord(**{**rec.__dict__, "arrival": key[0]})))
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
    pairs `ed` grounds, appended at the end."""
    ed = fill_auto_domains(ed, records)
    coord_ids = {r.id for r in records if r.kind == "coord"}
    out = [r for r in records if r.id not in coord_ids]
    coords = [r for r in records if r.id in coord_ids]
    if coords:
        out += closeness(coords, all_pairs(ed), threshold)
    return ed, out
