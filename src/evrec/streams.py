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
import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .engine import RecognitionResult, ResultEntry, record_occurrence, select_reported
from .language import EventDescription


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
    return float(value)


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
    if action == "retract":
        return InputRecord(id=rec_id, action=action, kind=obj.get("kind", "event"), arrival=arrival)
    kind = _require(obj, "kind", line)
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
    if kind == "coord":
        t = _require(obj, "t", line)
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
    raise StreamFormatError(f"unknown record kind {kind!r}", line)


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


def closeness(
    samples: Iterable,
    pairs: Sequence[tuple[str, str]],
    threshold: float,
    id_prefix: str = "close",
) -> list[InputRecord]:
    """Turn coordinate samples into durative `close` fluent records.

    A pair is close at tick t iff both entities have a sample at t and their
    Euclidean distance does not exceed `threshold` pixels.  Consecutive close
    ticks collapse into maximal intervals.  `samples` may be InputRecords of
    kind "coord" or (entity, t, x, y) tuples.
    """
    if not threshold >= 0:  # nan compares false
        raise ValueError("threshold must be a non-negative number")
    by_entity: dict[str, list[tuple[int, float, float]]] = {}
    for s in samples:
        if isinstance(s, InputRecord):
            if s.kind != "coord":
                continue
            by_entity.setdefault(s.entity, []).append((s.t, s.x, s.y))
        else:
            entity, t, x, y = s
            by_entity.setdefault(entity, []).append((t, x, y))
    arrays = {}
    for entity, pts in by_entity.items():
        pts.sort()
        arr = np.asarray(pts, dtype=float)
        arrays[entity] = (arr[:, 0].astype(int), arr[:, 1:])

    interval_cache: dict[frozenset, list[tuple[int, int]]] = {}

    def pair_intervals(a: str, b: str) -> list[tuple[int, int]]:
        key = frozenset((a, b))
        cached = interval_cache.get(key)
        if cached is not None:
            return cached
        out: list[tuple[int, int]] = []
        if a in arrays and b in arrays:
            ta, xa = arrays[a]
            tb, xb = arrays[b]
            common, ia, ib = np.intersect1d(ta, tb, return_indices=True)
            if common.size:
                dist = np.linalg.norm(xa[ia] - xb[ib], axis=1)
                close_ts = common[dist <= threshold]
                if close_ts.size:
                    gaps = np.where(np.diff(close_ts) > 1)[0]
                    for run in np.split(close_ts, gaps + 1):
                        out.append((int(run[0]), int(run[-1]) + 1))
        interval_cache[key] = out
        return out

    records = []
    counter = 0
    for a, b in pairs:
        for s, e in pair_intervals(a, b):
            counter += 1
            records.append(
                InputRecord(
                    id=f"{id_prefix}-{counter:06d}",
                    kind="interval",
                    name="close",
                    args=(a, b),
                    value="true",
                    start=s,
                    end=e,
                )
            )
    return records


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


def write_results(results: Iterable[RecognitionResult], path, mode: str = "asap"):
    """Emit recognised intervals as JSONL, filtered by reporting mode, in the
    engine's order: query time, then fluent name, arguments and start."""
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            for entry in select_reported(res.entries, mode):
                fh.write(json.dumps(entry_to_json(entry, res.q)) + "\n")


def stream_entities(records: Iterable[InputRecord]) -> list[str]:
    """Distinct entity constants mentioned by a stream, sorted."""
    out = set()
    for rec in records:
        if rec.kind == "coord":
            out.add(rec.entity)
        elif rec.kind in ("event", "interval") and rec.action != "retract":
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
