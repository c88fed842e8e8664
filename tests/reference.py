"""Independent brute-force evaluators used as test oracles.

Everything here works point by point on explicit tick sets, deliberately
avoiding the interval-list algorithms under test.  Slow and obvious beats
fast and clever for an oracle.  The exceptions keep an earlier, plainer
body of a function under test: `pairwise_closeness` is the per-pair
closeness preprocessor that the grid join replaced, `make_intervals` the
step-by-step inertia, `read_stream` the stream reader that parses each
line with `json.loads` and each field through its own helper, and `cut` and
`reopen` the holdsFor conjunct cut that ended OPEN tails one past the query
time, and the step that made them OPEN again.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right

import numpy as np

from evrec import intervals as iv
from evrec.intervals import MalformedIntervalError
from evrec.streams import InputRecord, StreamDocument, StreamFormatError

OPEN = None


def horizon_of(lists) -> int:
    """A tick beyond every finite endpoint; membership is constant past it."""
    hi = 0
    for lst in lists:
        for s, e in lst:
            hi = max(hi, s + 1, (e + 1) if e is not OPEN else s + 1)
    return hi + 2


def ticks(ilist, horizon: int) -> set[int]:
    out = set()
    for s, e in ilist:
        stop = horizon if e is OPEN else min(e, horizon)
        out.update(range(s, stop))
    return out


def runs(tickset: set[int], horizon: int) -> list[tuple]:
    """Contiguous runs back to interval form; a run touching the horizon is
    open-ended (the set is constant past the horizon by construction)."""
    out = []
    for t in sorted(tickset):
        if out and out[-1][1] == t:
            out[-1][1] = t + 1
        else:
            out.append([t, t + 1])
    return [(s, OPEN if e == horizon else e) for s, e in out]


def union(lists) -> list[tuple]:
    h = horizon_of(lists)
    acc: set[int] = set()
    for lst in lists:
        acc |= ticks(lst, h)
    return runs(acc, h)


def intersection(lists) -> list[tuple]:
    h = horizon_of(lists)
    acc = ticks(lists[0], h)
    for lst in lists[1:]:
        acc &= ticks(lst, h)
    return runs(acc, h)


def complement(base, removed_lists) -> list[tuple]:
    h = horizon_of([base, *removed_lists])
    acc = ticks(base, h)
    for lst in removed_lists:
        acc -= ticks(lst, h)
    return runs(acc, h)


def inertia(starts, breaks, now: int) -> list[tuple]:
    """Pointwise inertia: holds at T iff some start Ts < T has no break in
    (Ts, T].  Open-ended iff it still holds just past `now`."""
    starts = sorted(starts)
    breaks = sorted(breaks)

    def holds(t: int) -> bool:
        return any(
            ts < t and not any(ts < tb <= t for tb in breaks) for ts in starts
        )

    h = now + 2
    held = {t for t in range(0, h) if holds(t)}
    return runs(held, h)


def multi_value(inits: dict, terms: dict, order: list, now: int) -> dict:
    """Inertia for a multi-valued property.

    `inits` and `terms` map value -> set of ticks.  Simultaneous initiations
    of different values keep only the value earliest in `order`; discarded
    initiations neither start nor break anything.  Surviving initiations of
    one value break every other value.
    """
    winners: dict = {v: set() for v in inits}
    all_ticks = {t for ts in inits.values() for t in ts}
    for t in all_ticks:
        cands = [v for v, ts in inits.items() if t in ts]
        cands.sort(key=lambda v: order.index(v) if v in order else len(order))
        winners[cands[0]].add(t)
    out = {}
    for v in set(inits) | set(terms):
        st = winners.get(v, set())
        br = set(terms.get(v, set()))
        for other, ts in winners.items():
            if other != v:
                br |= ts
        ilist = inertia(st, br, now)
        if ilist:
            out[v] = ilist
    return out


# ---------------------------------------------------------------------------
# Batch evaluation of the bundled surveillance rules, pointwise.


def _window(ilist, lo: int, qi: int) -> list[tuple]:
    """Restrict to window ticks [lo, qi]; a part reaching qi stays closed at
    qi+1 here, openness is decided by the caller."""
    h = qi + 1
    return runs({t for t in ticks(ilist, h) if lo <= t <= qi}, qi + 2)


def _starts(ilist, lo: int, qi: int) -> set[int]:
    return {s for s, _ in _window(ilist, lo, qi)}


def _ends(ilist, lo: int, qi: int) -> set[int]:
    return {e for _, e in _window(ilist, lo, qi) if e is not OPEN and lo <= e <= qi}


def _holds(ilist, t: int) -> bool:
    return any(s <= t and (e is OPEN or t < e) for s, e in ilist)


def boundary_seeds(engine, boundary: int) -> dict:
    """The boundary bookkeeping `surveillance_batch` takes, from the engine's
    results at its last query; read them before the next query, whose window
    start is `boundary`.  An interval crossing the boundary gives its start
    for a simple fluent (s <= boundary + 1), its prefix (s, boundary + 1) for
    a statically determined one (s <= boundary)."""
    kept_starts, sd_prefixes = {}, {}
    for (name, args), per_value in engine.prev_cache.items():
        simple = engine.ed.kind_of(name) == "simple"
        for value, ilist in per_value.items():
            for s, e in ilist:
                if e is not OPEN and e <= boundary:
                    continue
                if simple and s <= boundary + 1:
                    kept_starts.setdefault(name, {}).setdefault(args, {})[value] = s
                elif not simple and s <= boundary:
                    prefix = (s, boundary + 1)
                    sd_prefixes.setdefault(name, {}).setdefault(args, {})[value] = prefix
    return {"kept_starts": kept_starts, "sd_prefixes": sd_prefixes}


def surveillance_batch(
    events: dict,
    fluents: dict,
    qi: int,
    boundary: int,
    kept_starts=None,
    sd_prefixes=None,
) -> dict:
    """Evaluate the bundled surveillance pack over one window, from scratch.

    `events`: (name, args) -> iterable of ticks.  `fluents`: (name, args) ->
    interval list (the SDE store content, value "true" implied).
    `kept_starts` / `sd_prefixes` carry boundary bookkeeping from the run
    under test (name -> args -> value -> kept start / retained prefix, as
    `boundary_seeds` gives them), since the store no longer holds pre-window
    evidence.
    Returns (name, args) -> interval list.
    """
    kept_starts = kept_starts or {}
    sd_prefixes = sd_prefixes or {}
    lo = boundary + 1

    def ev(name, args) -> set[int]:
        return {t for t in events.get((name, args), ()) if lo <= t <= qi}

    def fl(name, args) -> list[tuple]:
        return _window(fluents.get((name, args), []), lo, qi)

    entities = sorted(
        {a for (_n, args) in list(events) + list(fluents) for a in args}
        | {a for kept in (kept_starts, sd_prefixes) for per_args in kept.values()
           for args in per_args for a in args}
    )
    out = {}

    def seed(name, args) -> set[int]:
        s = kept_starts.get(name, {}).get(args, {}).get("true")
        return {s - 1} if s is not None else set()

    persons = {}
    for p in entities:
        inits = set()
        for beh in ("walking", "running", "active", "abrupt"):
            inits |= _starts(fluents.get((beh, (p,)), []), lo, qi)
        inits |= seed("person", (p,))
        ilist = inertia(inits, ev("disappear", (p,)), qi)
        if ilist:
            persons[p] = ilist
            out[("person", (p,))] = ilist

    for p1 in entities:
        for p2 in entities:
            if p1 == p2:
                continue
            w1 = fl("walking", (p1,))
            w2 = fl("walking", (p2,))
            cl = fl("close", (p1, p2))
            inits = {
                t
                for t in (_starts(fluents.get(("walking", (p1,)), []), lo, qi)
                          | _starts(fluents.get(("walking", (p2,)), []), lo, qi)
                          | _starts(fluents.get(("close", (p1, p2)), []), lo, qi))
                if _holds(w1, t) and _holds(w2, t) and _holds(cl, t)
            }
            inits |= seed("moving", (p1, p2))
            terms = (
                _ends(fluents.get(("walking", (p1,)), []), lo, qi)
                | _ends(fluents.get(("walking", (p2,)), []), lo, qi)
                | _ends(fluents.get(("close", (p1, p2)), []), lo, qi)
            )
            ilist = inertia(inits, terms, qi)
            if ilist:
                out[("moving", (p1, p2))] = ilist

            h = qi + 2
            sd = (
                ticks(w1, h) & ticks(w2, h) & ticks(cl, h)
            )
            sd = {t for t in sd if lo <= t <= qi}
            sd_list = runs(sd, qi + 1)
            prefix = sd_prefixes.get("moving_sd", {}).get((p1, p2), {}).get("true")
            if prefix is not None:
                sd |= set(range(prefix[0], prefix[1]))
                sd_list = runs(sd, qi + 1)
            if sd_list:
                out[("moving_sd", (p1, p2))] = sd_list

    for p in entities:
        for obj in entities:
            if p == obj:
                continue
            inits = {
                t
                for t in ev("appear", (obj,))
                if _holds(fl("inactive", (obj,)), t)
                and _holds(fl("close", (p, obj)), t)
                and _holds(persons.get(p, []), t)
            }
            inits |= seed("leaving_object", (p, obj))
            ilist = inertia(inits, ev("disappear", (obj,)), qi)
            if ilist:
                out[("leaving_object", (p, obj))] = ilist
    return out


# ---------------------------------------------------------------------------
# The store's records, forgotten by a scan of every stored item.


class ScanStore:
    """`SdeStore`'s events, durative items and record ids, in its shapes,
    with `forget` as the scan over every stored item that it replaced."""

    def __init__(self):
        self.events: dict = {}  # name -> args -> [(t, id)]
        self.durative: dict = {}  # name -> args -> value -> [[start, end, id]]
        self.by_id: dict = {}  # id -> (slot, item)

    def add_event(self, rec_id, name, args, t) -> bool:
        if rec_id in self.by_id:
            return False
        item = (t, rec_id)
        self.events.setdefault(name, {}).setdefault(args, []).append(item)
        self.by_id[rec_id] = ((name, args), item)
        return True

    def add_interval(self, rec_id, name, args, value, start, end) -> bool:
        if rec_id in self.by_id:
            return False
        item = [start, end, rec_id]
        self.durative.setdefault(name, {}).setdefault(args, {}).setdefault(value, []).append(item)
        self.by_id[rec_id] = ((name, args, value), item)
        return True

    def remove(self, rec_id) -> bool:
        if rec_id not in self.by_id:
            return False
        slot, _item = self.by_id.pop(rec_id)
        if len(slot) == 2:
            per_args = self.events[slot[0]]
            per_args[slot[1]] = [item for item in per_args[slot[1]] if item[1] != rec_id]
            if not per_args[slot[1]]:
                del per_args[slot[1]]
        else:
            per_args = self.durative[slot[0]]
            per_value = per_args[slot[1]]
            per_value[slot[2]] = [item for item in per_value[slot[2]] if item[2] != rec_id]
            if not per_value[slot[2]]:
                del per_value[slot[2]]
            if not per_value:
                del per_args[slot[1]]
        return True

    def forget(self, boundary: int):
        """Drop all content at or before `boundary`; an interval that crosses
        it keeps only the part after it."""
        for per_args in self.events.values():
            for args, items in list(per_args.items()):
                kept = [item for item in items if item[0] > boundary]
                for item in items:
                    if item[0] <= boundary:
                        del self.by_id[item[1]]
                per_args[args] = kept
                if not kept:
                    del per_args[args]
        for per_args in self.durative.values():
            for args, per_value in list(per_args.items()):
                for value, items in list(per_value.items()):
                    kept = []
                    for item in items:
                        start, end, rec_id = item
                        if end is not OPEN and end <= boundary + 1:
                            del self.by_id[rec_id]
                        else:
                            item[0] = max(start, boundary + 1)
                            kept.append(item)
                    per_value[value] = kept
                    if not kept:
                        del per_value[value]
                if not per_value:
                    del per_args[args]


# ---------------------------------------------------------------------------
# Closeness, pair by pair: the preprocessor `streams.closeness` replaced.


def pairwise_closeness(samples, pairs, threshold: float, id_prefix: str = "close") -> list:
    """`close` interval records from coordinate samples, one tick
    intersection and distance test per pair.  Takes assert-only samples, as
    InputRecords of kind "coord" or (entity, t, x, y) tuples; an entity
    sampled twice at one tick keeps its least (x, y)."""
    by_entity: dict = {}
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

    def pair_intervals(a, b) -> list:
        out = []
        if a in arrays and b in arrays:
            ta, xa = arrays[a]
            tb, xb = arrays[b]
            common, ia, ib = np.intersect1d(ta, tb, return_indices=True)
            if common.size:
                d = xa[ia] - xb[ib]
                dist = np.hypot(d[:, 0], d[:, 1])
                close_ts = common[dist <= threshold]
                if close_ts.size:
                    gaps = np.where(np.diff(close_ts) > 1)[0]
                    for run in np.split(close_ts, gaps + 1):
                        out.append((int(run[0]), int(run[-1]) + 1))
        return out

    records = []
    for a, b in pairs:
        for s, e in pair_intervals(a, b):
            records.append(
                InputRecord(
                    id=f"{id_prefix}-{len(records) + 1:06d}",
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
# Inertia, one step at a time: the body `intervals.make_intervals` replaced.


def make_intervals(
    starts: Sequence[Timepoint], breaks: Sequence[Timepoint], now: Timepoint
) -> IntervalList:
    """Maximal intervals of a property initiated at `starts` and broken at `breaks`.

    An initiation at Ts makes the property hold on [Ts+1, Tf) where Tf is the
    least break strictly after Ts, or on [Ts+1, OPEN) when no break follows.
    Re-initiations inside a held interval do not split it.  Inputs must be
    strictly ascending.  `intervals.make_intervals`' earlier body, which
    checks each list and skips each re-initiation one step at a time.
    """
    for seq, label in ((starts, "starts"), (breaks, "breaks")):
        for a, b in zip(seq, seq[1:]):
            if a >= b:
                raise MalformedIntervalError(f"{label} not strictly ascending: {a} >= {b}")
        if seq and seq[-1] > now:
            raise MalformedIntervalError(f"{label} contains a point after now={now}")
    out: IntervalList = []
    i = 0
    while i < len(starts):
        ts = starts[i]
        j = bisect_right(breaks, ts)
        if j == len(breaks):
            out.append((ts + 1, OPEN))
            break
        tf = breaks[j]
        if tf > ts + 1:
            out.append((ts + 1, tf))
        while i < len(starts) and starts[i] < tf:
            i += 1
    return out


# ---------------------------------------------------------------------------
# A holdsFor conjunct's cut as `engine._cut` made it: OPEN tails end one past
# `bound`, and `reopen` makes a result's tail reaching there OPEN again.


def cut(ilist: IntervalList, since: int, bound: int) -> IntervalList:
    """A holdsFor conjunct's intervals from `since` on, cut at `bound` for set
    arithmetic: drop what starts after it, and end what reaches further, or is
    OPEN, one past it."""
    ilist = iv.clip_before(ilist, since - 1)[1]
    if not ilist or ilist[-1][1] is not OPEN and ilist[-1][1] <= bound + 1:
        return ilist
    out = []
    for s, e in ilist:
        if s > bound:
            break
        out.append((s, bound + 1) if e is OPEN or e > bound + 1 else (s, e))
    return out


def reopen(ilist: IntervalList, bound: int) -> IntervalList:
    """Mark a tail that reaches the computation bound as OPEN again."""
    if ilist and ilist[-1][1] is not OPEN and ilist[-1][1] >= bound + 1:
        return ilist[:-1] + [(ilist[-1][0], OPEN)]
    return ilist


# ---------------------------------------------------------------------------
# The stream reader `streams.read_stream` replaced: json.loads per line and one
# helper call per field.  Only the record, document and error types are
# shared with evrec.streams.


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


def _constant(table: dict, value, what: str, line: int) -> str:
    if type(value) is not str or value not in table:
        raise StreamFormatError(f"unknown {what} {value!r}", line)
    return table[value]


def _parse_record(obj: dict, line: int, atoms: dict) -> InputRecord:
    """`parse_record`, with each entity, name, argument and tick replaced by
    the equal value first put in `atoms`, so that records share it."""
    if not isinstance(obj, dict):
        raise StreamFormatError("record must be a JSON object", line)
    share = atoms.setdefault
    rec_id = _text(obj, "id", line)
    action = _constant(_ACTIONS, obj.get("action", "assert"), "action", line)
    arrival = obj.get("arrival")
    if arrival is not None and (type(arrival) is not int or arrival < 0):
        raise StreamFormatError("arrival must be a non-negative integer", line)
    kind = obj.get("kind", "event") if action == "retract" else _require(obj, "kind", line)
    kind = _constant(_KINDS, kind, "record kind", line)
    if action == "retract":
        return InputRecord(id=rec_id, action=action, kind=kind, arrival=arrival)
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
        name = _text(obj, "name", line)
        return InputRecord(
            id=rec_id,
            action=action,
            kind=kind,
            name=share(name, name),
            args=_args(obj, line, share),
            value=value,
            start=start,
            end=end,
            arrival=arrival,
        )
    t = _require(obj, "t", line)  # kind "event" or "coord"
    if type(t) is not int or t < 0:
        raise StreamFormatError("t must be a non-negative integer", line)
    t = share(t, t)
    if kind == "event":
        name = _text(obj, "name", line)
        return InputRecord(
            id=rec_id,
            action=action,
            kind=kind,
            name=share(name, name),
            args=_args(obj, line, share),
            t=t,
            arrival=arrival,
        )
    entity = _text(obj, "entity", line)
    return InputRecord(
        id=rec_id,
        action=action,
        kind=kind,
        entity=share(entity, entity),
        t=t,
        x=_number(obj, "x", line),
        y=_number(obj, "y", line),
        arrival=arrival,
    )


def read_stream(path) -> StreamDocument:
    """Parse a JSONL stream file.  Hard schema violations raise with the line
    number; referential oddities become diagnostics.  Records read from one
    file share one copy of each entity, name, argument and tick."""
    doc = StreamDocument()
    seen: set[str] = set()
    atoms: dict = {}
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
