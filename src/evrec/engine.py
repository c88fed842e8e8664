"""Windowed recognition of composite events.

The engine is driven by query times Q1, Q2, ... spaced `step` ticks apart.
At each query it applies buffered input, discards everything that took place
at or before the window start (Qi - wm), and brings every composite fluent up
to date bottom-up by stratification level.

Work follows what changed, per grounding.  The store records, per input key
(name, arguments), the earliest time the input applied at this query changes
it.  A grounding's dirty-from time d is the time just after the last query, or
the earliest change before that to a key its rules read, but not before the
window start; a key reaches the groundings whose head variables it binds in
some input literal of their rules.  The point index hands a rule only the
input points at the window start and in [d, Qi], so rules are solved only
there.  A simple fluent solves its initiations from the shared d for all
groundings, and once more over the groundings with an earlier d, each from its
own d, which the solve binds with the grounding; there a rule runs only where
the grounding's content reaches its d in each input literal of the rule over
exactly the head's variables, each such literal tested once per grounding.  It
carries each grounding's initiations before its d, and makes its intervals in
one run over the window from them, the fresh ones, its terminations solved from
the window start and the start of its last interval holding at the window
start or ending there.  A
statically determined fluent carries each grounding's intervals before its d,
whose part before the window start is the retained prefix, and amalgamates
them with a fresh result from d.  A derived event takes the earliest d of any
grounding.  The first point of the window is always evaluated again, because
forgetting cuts input intervals there.  A rule that reads a derived fluent or
event, or input at a time other than its head's, reuses nothing and makes its
name evaluate from the window start; `Engine.__init__` decides this once per
name.

Upkeep follows the change too.  The store forgets by popping, from a heap
ordered by start, only the items the window start passes, and re-cuts the
few intervals that cross it.  It keeps each slot's content, its points and
the join indexes over the content current as each item enters, leaves or is
cut, changing a join index only where an argument tuple enters or leaves the
content.
Classification keeps a grounding's entries while its intervals equal the
last query's and the next boundary has not reached one of their endpoints.

`Engine.__init__` refuses a rule pack for which `language.validate` reports an
error, and compiles the rules of any other once, into one plan per rule kind
and head name and one more over live groundings for the initiations of each
name that reuses: a generated function, whose text is `plan.source`, that runs
each rule's loop nest in turn.  A plan names each source it reads once: the
store's content of an input fluent and its join indexes, which the store keeps
current, and a grounding and its indexes are factory parameters.  A run's
inputs are the plan's arguments, plan(lo, qi, d, live, derived, events), and
the input points from d, a derived fluent's or event's rows and an index over
one of these are locals set from them once at the plan's top.  A point rule's
nest is loops and tests in the order `language.join_order` gives, each reading
its source through an index on the argument positions bound before it; a
holdsFor rule's is a loop over the rows of its first required input over the
head's variables, or over its grounding, then its conjuncts in body order,
each cut to its part from the grounding's d on, with an interval reaching past
Qi left OPEN, as the answer gives it.  The plans rely on
validate's checks and repeat none of them; only an ordering comparison on
non-integer values, which depends on the data, fails at query time.
Terminations are evaluated only for the groundings that a simple fluent
rebuilds, and a holdsFor rule only for groundings whose source row has content
from their dirty-from time on, each from its own time in one run (see
README.md).  Plan text holds no rule constant and no source: each
distinct text is compiled once per process, and each engine binds its own.

`query_schedule` gives the query times and the records arriving by each;
`run_stream` and `bench`'s shard runner drive their engines by it.  One
engine instance is single-threaded; scale-out is by running independent
instances over disjoint groundings, each fed the complete stream.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from . import intervals as iv
from .intervals import OPEN, IntervalList
from .language import (
    HAPPENS,
    HOLDS_FOR,
    INITIATED,
    TERMINATED,
    BoundaryEvent,
    Comparison,
    EventDescription,
    FluentValue,
    HappensAt,
    HoldsAt,
    HoldsFor,
    IntervalComplement,
    IntervalIntersection,
    IntervalUnion,
    Rule,
    is_var,
    join_order,
    read_by,
    terms_of,
    validate,
)

# the stabilities each reporting mode emits
_REPORTED = {"asap": ("open", "partial", "final"), "partial_stable": ("partial", "final"),
             "final": ("final",)}
MODES = tuple(_REPORTED)


class ConfigError(ValueError):
    pass


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    wm: int
    step: int
    mode: str = "asap"

    def __post_init__(self):
        if self.step <= 0 or self.wm <= 0:
            raise ConfigError("wm and step must be positive")
        if self.wm < self.step:
            raise ConfigError(f"wm ({self.wm}) must be at least step ({self.step})")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")


@dataclass(frozen=True)
class ResultEntry:
    name: str
    args: tuple
    value: object
    start: int
    end: Optional[int]  # None while the endpoint is unknown
    stability: str  # "open" | "partial" | "final"


@dataclass
class RecognitionResult:
    q: int
    entries: list[ResultEntry]  # everything recognised at this query
    reported: list[ResultEntry]  # filtered by the configured mode


def select_reported(entries: Iterable[ResultEntry], mode: str) -> list[ResultEntry]:
    """The entries a reporting mode emits, in their given order."""
    return [e for e in entries if e.stability in _REPORTED[mode]]


def _cut(ilist: IntervalList, since: int, bound: int) -> IntervalList:
    """A holdsFor conjunct's intervals from `since` on, as the window's answer
    at `bound` gives them: drop what ends by `since` or starts after `bound`,
    and make an end past `bound` OPEN, since it is not known yet.  The set
    operations are pointwise, so their results keep such tails OPEN."""
    out = []
    for s, e in ilist:
        if e is OPEN or e > since:
            s = max(s, since)
            if s > bound:
                break
            out.append((s, e if e is not OPEN and e <= bound else OPEN))
    return out


def _carried(ilist: IntervalList, lo: int, since: int) -> IntervalList:
    """The part before `since` of the last query's intervals that the window
    starting at `lo` keeps; an interval ending at `lo` still crosses its start."""
    out = []
    for s, e in ilist:
        if s >= since:
            break
        if e is OPEN or e > since:
            out.append((s, since))
            break
        if e >= lo:
            out.append((s, e))
    return out


def _joined(carried: dict, lo: int, since: int, fresh: dict) -> dict:
    """value -> the sorted times in (lo, since) of `carried` and those of
    `fresh`."""
    out = {}
    for value, ts in carried.items():
        if not (lo < ts[0] and ts[-1] < since):
            ts = [t for t in ts if lo < t < since]
        if ts:
            out[value] = ts
    for value, ts in fresh.items():
        if ts:
            out[value] = sorted(ts.union(out.get(value, ())))
    return out


# ---------------------------------------------------------------------------
# SDE store


class SdeStore:
    """Window-resident input events and durative input fluents, indexed by name
    and arguments, with record ids for retraction.  Only keys with content
    are kept, so the keys are what the window holds."""

    def __init__(self):
        self.events: dict[str, dict[tuple, list[tuple[int, str]]]] = {}
        self.durative: dict[str, dict[tuple, dict[object, list[list]]]] = {}
        # record id -> (slot, item): an event's slot is (name, args) and its
        # item (t, id); an interval's slot is (name, args, value) and its item
        # [start, end, id]
        self.by_id: dict[str, tuple] = {}
        # every item stored, pushed once by its start: (start, seq, slot, item);
        # `forget` pops those that start by the window start, skipping the
        # items the store no longer holds, and keeps the intervals it cuts
        # there, by id, in `crossing`
        self.starts: list[tuple] = []
        self.crossing: set[str] = set()
        self._seq = itertools.count()
        # input key (name, args) -> the earliest time that content added to or
        # removed from it since the owner last took this map covers;
        # forgetting does not count
        self.changed: dict[tuple, int] = {}
        # The views below change with each item that enters, leaves or is cut,
        # as the window starting at `_lo` sees the items.  `content` holds each
        # fluent slot's canonical content; what forgetting has dropped or cut
        # since its last change lies before the window start, which no read
        # looks at.  `at` maps (name, "start" or "end", value) of a fluent and
        # (name, "happens", None) of an event to the argument tuples with a
        # point at each time from the window start on; content holding at the
        # window start starts there.  `joins` maps a fluent name and a shape
        # (arity, positions) to its argument tuples in `content` of that arity
        # by their values at those positions, built by `join_index` and kept
        # up to date as tuples enter and leave `content`.
        self.content: dict[str, dict[tuple, dict[object, IntervalList]]] = {}
        self.at: dict[tuple, dict[int, set[tuple]]] = {}
        self.joins: dict[str, dict[tuple, dict[tuple, list]]] = {}
        self._lo = 0  # the window start of the last `forget`

    def add_event(self, rec_id: str, name: str, args: tuple, t: int) -> bool:
        if rec_id in self.by_id:
            return False
        item = (t, rec_id)
        self.events.setdefault(name, {}).setdefault(args, []).append(item)
        self._added(rec_id, (name, args), item)
        self._move((name, "happens", None), args, [], [t])
        return True

    def add_interval(
        self, rec_id: str, name: str, args: tuple, value, start: int, end: Optional[int]
    ) -> bool:
        if rec_id in self.by_id:
            return False
        item = [start, end, rec_id]
        self.durative.setdefault(name, {}).setdefault(args, {}).setdefault(value, []).append(item)
        self._added(rec_id, (name, args, value), item)
        self._refresh(name, args, value)
        return True

    def _added(self, rec_id: str, slot: tuple, item):
        self.by_id[rec_id] = (slot, item)
        heappush(self.starts, (item[0], next(self._seq), slot, item))
        self._changed(slot[:2], item[0])

    def remove(self, rec_id: str) -> bool:
        entry = self.by_id.get(rec_id)
        if entry is None:
            return False
        slot, item = entry
        self._take(slot, item)
        if len(slot) == 3:
            self._refresh(*slot)
        self._changed(slot[:2], item[0])
        return True

    def _changed(self, key: tuple, t: int):
        if t < self.changed.get(key, math.inf):
            self.changed[key] = t

    def _take(self, slot: tuple, item) -> bool:
        """Delete a stored item, an event's point that no other item of its
        slot has, and the keys it leaves without content; whether its slot is
        left empty."""
        del self.by_id[item[-1]]
        self.crossing.discard(item[-1])
        name, args = slot[0], slot[1]
        if len(slot) == 2:
            per_args = self.events[name]
            items = per_args[args]
            items.remove(item)
            if not any(t == item[0] for t, _id in items):
                self._move((name, "happens", None), args, [item[0]], [])
            if items:
                return False
            del per_args[args]
        else:
            per_args = self.durative[name]
            per_value = per_args[args]
            items = per_value[slot[2]]
            items.remove(item)
            if items:
                return False
            del per_value[slot[2]]
            _drop_empty(per_args, args)
        return True

    def forget(self, boundary: int):
        """Drop all content at or before `boundary`; straddling intervals keep
        only the part strictly after it, which starts at `boundary + 1`.  Only
        the items that start by `boundary` and the intervals cut at the last
        window start are read."""
        lo = boundary + 1
        starts, by_id, crossing = self.starts, self.by_id, self.crossing
        while starts and starts[0][0] <= boundary:
            _start, _seq, slot, item = heappop(starts)
            if by_id.get(item[-1], _GONE)[1] is not item:
                continue  # retracted or updated since it was pushed
            if len(slot) == 2:
                self._take(slot, item)
            else:
                crossing.add(item[-1])
        for rec_id in list(crossing):
            slot, item = by_id[rec_id]
            if item[1] is OPEN or item[1] > lo:
                item[0] = lo
                starting = self.at.setdefault((slot[0], "start", slot[2]), {})
                starting.setdefault(lo, set()).add(slot[1])
            elif self._take(slot, item):
                # all of the slot's content ended by the window start; its
                # points before it go below, and an end at it is never read
                self._forget_content(*slot)
            elif item[1] == lo:
                # the slot's content merged this item with any that starts at
                # lo, hiding that start, which a refresh shows
                self._refresh(*slot)
        for at in self.at.values():
            for t in range(self._lo, lo):
                at.pop(t, None)
        self._lo = lo

    def _refresh(self, name: str, args: tuple, value):
        """Bring a fluent slot's content, its points and its argument tuple's
        join-index membership up to the slot's items."""
        items = self.durative.get(name, _NONE).get(args, _NONE).get(value, ())
        # one stored item is canonical already
        new = [tuple(items[0][:2])] if len(items) == 1 else self.fluent_intervals(name, args, value)
        old = self.content.get(name, _NONE).get(args, _NONE).get(value, [])
        # as the window sees them: content holding at its start starts there
        lo = self._lo
        self._move((name, "start", value), args,
                   [max(s, lo) for s, e in old if e is OPEN or e > lo],
                   [max(s, lo) for s, e in new if e is OPEN or e > lo])
        self._move((name, "end", value), args, [e for _s, e in old if e is not OPEN and e > lo],
                   [e for _s, e in new if e is not OPEN and e > lo])
        if new:
            per_args = self.content.setdefault(name, {})
            if args not in per_args:
                per_args[args] = {}
                self._rejoin(name, args, True)
            per_args[args][value] = new
        else:
            self._forget_content(name, args, value)

    def _forget_content(self, name: str, args: tuple, value):
        per_args = self.content.get(name, _NONE)
        if value in per_args.get(args, _NONE):
            del per_args[args][value]
            if not per_args[args]:
                del per_args[args]
                self._rejoin(name, args, False)

    def join_index(self, name: str, shape: tuple) -> dict:
        """The argument tuples in `content[name]` of shape (arity, positions),
        by their values at those positions; built once, then kept."""
        index = self.joins.get(name, _NONE).get(shape)
        if index is None:
            index = _index(self.content.get(name, _NONE), shape)
            self.joins.setdefault(name, {})[shape] = index
        return index

    def _rejoin(self, name: str, args: tuple, entered: bool):
        """Add an argument tuple that entered `content[name]` to the join
        indexes over it, or drop one that left."""
        for (arity, positions), index in self.joins.get(name, _NONE).items():
            if len(args) == arity:
                key = tuple([args[p] for p in positions])
                if entered:
                    index.setdefault(key, []).append(args)
                else:
                    index[key].remove(args)
                    _drop_empty(index, key)

    def _move(self, key: tuple, args: tuple, old: list[int], new: list[int]):
        """Replace the points of `args` under `key`, keeping those from the
        window start on."""
        if old == new:
            return
        at, lo = self.at.setdefault(key, {}), self._lo
        for t in old:
            here = at.get(t)
            if here is not None:
                here.discard(args)
                if not here:
                    del at[t]
        for t in new:
            if t >= lo:
                if t in at:
                    at[t].add(args)
                else:
                    at[t] = {args}

    def points_from(self, key: tuple, lo: int, since: int, qi: int) -> dict[tuple, list[int]]:
        """args -> the points of `key` at the window start `lo` and in [since,
        qi], as the window sees them: content holding at `lo` starts there, and
        none ends there."""
        at, out = self.at.get(key, _NONE), {}
        for args in at.get(lo, ()) if key[1] != "end" else ():
            out[args] = [lo]
        since = max(since, lo + 1)
        span = range(since, qi + 1)
        for t in span if len(span) < len(at) else [t for t in at if since <= t <= qi]:
            for args in at.get(t, ()):
                out.setdefault(args, []).append(t)
        return out

    def fluent_intervals(self, name: str, args: tuple, value) -> IntervalList:
        slot = self.durative.get(name, _NONE).get(args, _NONE).get(value)
        if not slot:
            return []
        return iv.normalize([(s, e) for s, e, _ in slot])

    def min_content(self) -> Optional[int]:
        """Earliest stored time-point, for bounded-memory checks."""
        events, durative = self.snapshot()
        return min([t for _name, _args, t in events]
                   + [ilist[0][0] for ilist in durative.values()], default=None)

    def snapshot(self) -> tuple[list, dict]:
        """(events, durative) copy for offline re-evaluation in tests."""
        events, durative = [], {}
        for name, per_args in self.events.items():
            for args, slot in per_args.items():
                events.extend((name, args, t) for t, _ in slot)
        for name, per_args in self.durative.items():
            for args, per_value in per_args.items():
                for value in per_value:
                    durative[(name, args, value)] = self.fluent_intervals(name, args, value)
        return events, durative


def _drop_empty(container: dict, key):
    if not container[key]:
        del container[key]


# ---------------------------------------------------------------------------
# Engine


class Engine:
    def __init__(
        self,
        ed: EventDescription,
        cfg: EngineConfig,
        pair_filter: Optional[set[tuple]] = None,
    ):
        if ed.rules and not ed.levels:
            raise ConfigError("event description must be stratified before use")
        errors = [d for d in validate(ed) if d.severity == "error"]
        if errors:
            raise EvaluationError("; ".join(map(str, errors)))
        self.ed = ed
        self.cfg = cfg
        self.store = SdeStore()
        self.pending: list = []
        self.diagnostics: list[str] = []
        self._ties: set[tuple] = set()  # (name, args, t) of initiation ties reported
        self.next_q = cfg.step
        self._lo = self._qi = 0  # this query's window start (Qi - wm + 1) and Qi
        self._derived: dict[str, dict] = {}  # name -> args -> value -> intervals at this query
        self._events: dict[str, dict] = {}  # name -> args -> times of a derived event
        self._prev_derived: dict[str, dict] = {}  # the last query's _derived
        self._prev_events: dict[str, dict] = {}  # the last query's _events
        self._starts: dict[str, dict] = {}  # name -> args -> value -> initiations in window
        # the last query's answers hold up to this time; minus infinity, as
        # before the first query, makes the next one evaluate everything
        # from the window start
        self.answered_to = -math.inf
        self._d0 = 0  # this query's dirty-from time for what read no earlier change
        self._late: dict[tuple, int] = {}  # input key -> its change time, if before _d0
        self._touched: dict[tuple, tuple] = {}  # this query's _dirty_from by reads
        self._entries: dict[tuple, tuple] = {}  # (name, args) -> the last _entries_of
        self._domain_indexes: dict[tuple, dict] = {}  # (expr, shape) -> one, for _dirty_from

        heads = {r.head.name for r in ed.rules}
        self._grounded: dict = {}  # DomainExpr -> the pack's tuples, or those in pair_filter
        for name, expr in ed.groundings.items():
            if name in heads and expr not in self._grounded:
                tuples = ed.grounding_set(name)
                if pair_filter is not None and expr.shape == "pairs":
                    tuples = tuples & pair_filter
                self._grounded[expr] = tuples

        # kind -> name -> the plan of the name's rules of that kind; "over":
        # each reusing name's initiations, solved over the live groundings
        self._plans: dict = {kind: {} for kind in
                             (INITIATED, TERMINATED, HOLDS_FOR, HAPPENS, "over")}
        whole = {rule.head.name for rule in ed.rules if _reuses_nothing(rule, ed.is_input)}
        for kind, name in dict.fromkeys((rule.kind, rule.head.name) for rule in ed.rules):
            rules = ed.rules_for(kind, name)
            self._plans[kind][name] = self._compile(rules, kind == TERMINATED)
            if kind == INITIATED and name not in whole:
                self._plans["over"][name] = self._compile(rules, over_live=True)
        reads = {name: set() for name in heads - whole}
        for rule in ed.rules:
            for lit in rule.body if rule.head.name in reads else ():
                if isinstance(lit, (HappensAt, HoldsAt, HoldsFor)) and ed.is_input(
                        read_by(lit).name):
                    reads[rule.head.name].add(_pattern(rule.head.args, read_by(lit)))
        # name -> (the input its rules read, as `_pattern`s, and its grounding,
        # which validate requires of a fluent, or None for an event), or None
        # if it reuses nothing; names alike share `_dirty_from`'s answer
        self._reads = {name: (frozenset(reads[name]), None if ed.kind_of(name) == "event"
                              else ed.groundings[name]) if name in reads else None
                       for name in heads}

        computes = {"event": Engine._compute_events, "simple": Engine._compute_simple_fluent,
                    "sd": Engine._compute_sd_fluent}
        schedule = []
        for name in heads:
            kind = ed.kind_of(name)
            node = ("event" if kind == "event" else "fluent", name)
            schedule.append((ed.levels[node], *node, computes[kind]))
        self._schedule = [item[2:] for item in sorted(schedule, key=lambda item: item[:3])]

        # value declaration order per simple fluent, for initiation tie-breaks
        self._value_order = {name: ed.fluent_values(name) for name in self._plans[INITIATED]}

    # -- input ---------------------------------------------------------------

    def ingest(self, records: Iterable):
        """Buffer input records; they take effect at the next query."""
        self.pending.extend(records)

    def _apply(self, rec, boundary: int):
        if rec.action in ("retract", "update"):
            if not self.store.remove(rec.id):
                self.diagnostics.append(
                    f"{rec.action} of unknown or already-forgotten record id {rec.id!r}"
                )
            if rec.action == "retract":
                return
        if rec.kind == "event":
            bad = rec.t < 0 and f"at {rec.t} has a negative time"
            late = rec.t <= boundary and f"occurred at {rec.t}"
        elif rec.kind == "interval":
            bad = (rec.start < 0 or rec.end is not OPEN and rec.end <= rec.start) and (
                f"from {rec.start} to {rec.end} is not an interval")
            late = rec.end is not OPEN and rec.end <= boundary + 1 and f"ended at {rec.end}"
        else:
            self.diagnostics.append(
                f"record {rec.id!r} of kind {rec.kind!r} is not an engine input; "
                "coordinate samples must be preprocessed into closeness fluents"
            )
            return
        if bad:
            self.diagnostics.append(f"record {rec.id!r} {bad}; dropped")
            return
        if late:
            self.diagnostics.append(
                f"record {rec.id!r} {late}, at or before the window start {boundary}; dropped")
            return
        if rec.kind == "event":
            added = self.store.add_event(rec.id, rec.name, tuple(rec.args), rec.t)
        else:
            added = self.store.add_interval(rec.id, rec.name, tuple(rec.args), rec.value,
                                            rec.start, rec.end)
        if not added:
            self.diagnostics.append(f"duplicate assert for record id {rec.id!r}; ignored")

    # -- query ---------------------------------------------------------------

    def query(self, qi: int) -> RecognitionResult:
        if qi != self.next_q:
            raise ConfigError(f"query times must advance by step: expected {self.next_q}, got {qi}")
        boundary = qi - self.cfg.wm

        for rec in self.pending:
            self._apply(rec, boundary)
        self.pending.clear()
        self.store.forget(boundary)
        self._ties = {tie for tie in self._ties if tie[2] > boundary}
        # the last query's answers hold up to its own query time, and for a
        # grounding up to the earliest change applied now to input it reads
        self._d0 = max(boundary + 1, self.answered_to + 1)
        self._late = {key: t for key, t in self.store.changed.items() if t < self._d0}
        self.store.changed, self._touched = {}, {}

        self._lo, self._qi = boundary + 1, qi
        self._prev_derived, self._prev_events = self._derived, self._events
        self._derived, self._events = {}, {}
        for name, compute in self._schedule:
            compute(self, name)

        entries = self._classify(qi)
        reported = select_reported(entries, self.cfg.mode)
        self.next_q, self.answered_to = qi + self.cfg.step, qi
        return RecognitionResult(qi, entries, reported)

    @property
    def prev_cache(self) -> dict[tuple, dict]:
        """(name, args) -> value -> intervals of the last query's answers."""
        return {key: was[0] for key, was in self._entries.items()}

    # -- rule plans ----------------------------------------------------------

    def _compile(self, rules: list[Rule], over_live: bool) -> Callable[..., list]:
        """Compile a name's rules of one kind into a plan (`_PlanSource`),
        plan(lo, qi, d, live, derived, events), that runs each rule's loop
        nest in turn, giving (head arguments, value, T) per solution, or (head
        arguments, value, intervals) per grounding.  Every source the rules
        read is named once in the plan: a factory parameter for one the
        engine keeps, a local set at its top from the arguments for one each
        run reads afresh.  With `over_live` it runs the nests in one loop over
        `live`, binding the head and d of each grounding."""
        kind, src = rules[0].kind, _PlanSource(self.store)
        # An initiation is solved over given groundings from their own d, by a
        # rule only where the grounding's content reaches d in each input
        # literal of the rule over exactly the head's variables (an end point
        # fires at d itself), each such literal tested once per grounding; its
        # solutions at the window start are the plain plan's.
        reach = [_reach(rule, self.ed.is_input) if over_live and kind == INITIATED else []
                 for rule in rules]
        tests = {key: f"r{n}" for n, key in enumerate(dict.fromkeys(itertools.chain(*reach)))}
        if over_live:
            src.add("for a, d in live.items():")
        whole = tuple(range(len(rules[0].head.args)))
        for (name, value, at), local in tests.items():
            key = "a" if at == whole else _tuple_text(
                [f"a[{p}]" if isinstance(p, int) else src.param(p[0]) for p in at])
            rows = self._fluent(src, name)[0]
            test = src.reaches(f"{rows}.get({key}, E).get({src.param(value)})", ">= d")
            src.add(f"{local} = {test}", False)
        depth = src.depth
        for rule, keys in zip(rules, reach):
            src.vars, src.depth = {}, depth
            if keys:
                src.add(f"if {' and '.join(dict.fromkeys(tests[key] for key in keys))}:")
            if over_live:
                src.bind("a", rule.head.args)
            if kind == HOLDS_FOR:
                args, result = self._compile_sd(src, rule)
            else:
                args, result = self._compile_point(src, rule, over_live)
            value = src.param(getattr(rule.head, "value", None))
            src.add(f"out.append(({args}, {value}, {result}))", False)
        return src.build(f"<plan of {kind} {rules[0].head.name}, over_live={over_live}>")

    def _compile_point(self, src: _PlanSource, rule: Rule, over_live: bool) -> tuple[str, str]:
        """Add an initiatedAt, terminatedAt or happensAt rule's loop nest to a
        plan; the texts of its head arguments and T.  Its `d` is the
        dirty-from time that a happensAt literal with its time unbound reads:
        the plan's argument, or over live groundings each one's own."""
        name, head = rule.head.name, rule.head.args
        for lit in join_order(rule, over_live):
            self._literal(src, lit)
        free = any(is_var(a) and a not in src.vars for a in head)
        if free:
            # the body leaves head variables free: the rule fires for every
            # grounding that matches the bound part
            src.join(*self._grounding(src, name), head)
        args = _tuple_text([src.term(a) for a in head])
        if not free and not over_live and name in self.ed.groundings:
            src.add(f"if {args} in {self._grounding(src, name)[0]}:")
        return args, src.term(rule.head_var)

    def _literal(self, src: _PlanSource, lit):
        """Add the test or loops of one body literal to a plan."""
        if isinstance(lit, Comparison):
            left, right = map(src.term, terms_of(lit))
            src.add(f"if {src.param(partial(_compare, lit.op), 'c')}({left}, {right}):")
            return
        if isinstance(lit, HoldsAt):
            rows, index_for = self._fluent(src, lit.fluent.name)
            args, value = src.join(rows, index_for, lit.fluent.args), src.param(lit.fluent.value)
            src.add(f"if iv.holds_at({rows}.get({args}, E).get({value}, ()), {src.term(lit.time)}):")
            return
        event = lit.event
        name, points = getattr(event, "fluent", event).name, "{0}[{1}]"
        if self.ed.is_input(name):
            tag = (name, "happens", None)
            if isinstance(event, BoundaryEvent):
                tag = (name, event.which, event.fluent.value)
            rows = src.per_run(tag, lambda: f"points({src.param(tag, 't')}, lo, d, qi)")
        elif isinstance(event, BoundaryEvent):
            rows, value = self._fluent(src, event.fluent.name)[0], src.param(event.fluent.value)
            which = "start_points" if event.which == "start" else "end_points"
            points = f"iv.{which}({{0}}.get({{1}}, E).get({value}, ()))"
        else:
            rows = src.per_run(name, lambda: f"events.get({src.param(name)}, E)")
        points = points.format(rows, src.join(rows, src.indexed(rows), terms_of(lit)))
        if lit.time in src.vars:  # before this literal, or by its own arguments
            # only check that the event happens then
            src.add(f"if {src.term(lit.time)} in {points}:")
        else:
            # take the window start and the times from d on, the window start
            # too for a rule reading input at a time other than its head's
            # (`_reuses_nothing`)
            time = src.term(lit.time, new=True)
            src.add(f"for {time} in {points}:")
            src.add(f"if {time} == lo or d <= {time} <= qi:")

    def _fluent(self, src: _PlanSource, name: str) -> tuple[str, Callable[[tuple], str]]:
        """The name in a plan of a fluent's argument tuples at this query, each
        mapped to its value -> content dict, and shape -> that of an index
        over them.  The store keeps an input fluent's content and its join
        indexes for good, so they are parameters; a derived fluent's rows and
        any index over them are locals set once per run.  Input content may
        reach past Qi, where evaluation cuts it."""
        if self.ed.is_input(name):
            store = self.store
            rows = src.kept(name, lambda: store.content.setdefault(name, {}))
            return rows, lambda shape: src.kept((name, shape),
                                                lambda: store.join_index(name, shape))
        rows = src.per_run(name, lambda: f"derived.get({src.param(name)}, E)")
        return rows, src.indexed(rows)

    def _grounding(self, src: _PlanSource, name: str) -> tuple[str, Callable[[tuple], str]]:
        """The parameter in a plan of a head name's declared grounding, and
        shape -> that of an index over it, built as the plan is compiled."""
        expr = self.ed.groundings.get(name)
        grounded = self._grounded.get(expr, set())
        return src.kept(expr, lambda: grounded), lambda shape: src.kept(
            (expr, shape), lambda: _index(grounded, shape))

    def _compile_sd(self, src: _PlanSource, rule: Rule) -> tuple[str, str]:
        """Add a holdsFor rule's loop nest to a plan; the texts of its head
        arguments and intervals, for each grounding whose required conjuncts
        have content from its own dirty-from time e, its `live` entry or else
        d, on.  The groundings come from the rows of the first required
        holdsFor literal over exactly the head's variables that also have
        content reaching past e, else from the declared grounding.  The
        comparisons, which read only head variables, are tested as soon as a
        grounding is drawn."""
        head, required = rule.head.args, _required_literals(rule)
        grounded, index_for = self._grounding(src, rule.head.name)
        source = next((lit for lit in required if _over_head(lit.fluent, head)), None)
        if source is None:
            args = src.join(grounded, index_for, head)
        else:
            rows, index_for = self._fluent(src, source.fluent.name)
            at, args = src.join(rows, index_for, source.fluent.args), "h"
            src.add(f"if (h := {_tuple_text([src.term(a) for a in head])}) in {grounded}:")
        for lit in rule.body:
            if isinstance(lit, Comparison):
                self._literal(src, lit)
        src.add(f"e = live.get({args}, d)", False)
        if source is not None:
            test = src.reaches(f"{rows}[{at}].get({src.param(source.fluent.value)})", "> e")
            src.add(f"if {test}:")
        local = {}  # interval variable -> its local
        for lit in rule.body:
            if isinstance(lit, Comparison):
                continue
            var = lit.interval if isinstance(lit, HoldsFor) else lit.out
            out = local.setdefault(var, f"i{len(local)}")
            if isinstance(lit, HoldsFor):
                ilist = "s"
                if lit != source:
                    rows, fv = self._fluent(src, lit.fluent.name)[0], lit.fluent
                    ilist = (f"{rows}.get({_tuple_text([src.term(a) for a in fv.args])}, E)"
                             f".get({src.param(fv.value)}, ())")
                if lit in required:
                    src.add(f"if {out} := cut({ilist}, e, qi):")
                else:
                    src.add(f"{out} = cut({ilist}, e, qi)", False)
            elif isinstance(lit, IntervalComplement):
                removed = ", ".join(local[v] for v in lit.removed)
                src.add(f"{out} = iv.relative_complement_all({local[lit.base]}, [{removed}])",
                        False)
            else:
                combine = "union_all" if isinstance(lit, IntervalUnion) else "intersect_all"
                src.add(f"{out} = iv.{combine}([{', '.join(local[v] for v in lit.inputs)}])",
                        False)
        return args, local[rule.head_var]

    # -- evaluation ----------------------------------------------------------

    def _solve(self, plan: Optional[Callable], since, out: Optional[dict] = None) -> dict:
        """Add to `out`, or a new dict, args -> value -> times of the solutions
        of the plan, if any, at the window start and from `since` on: one time
        for all groundings, or a map from each grounding to its own time,
        which also gives the groundings a plan over live groundings runs over."""
        out, live = {} if out is None else out, _NONE
        if isinstance(since, dict):
            if not since:
                return out  # nothing to solve, so no per-run source to read
            live, since = since, min(since.values())
        for args, value, t in plan(self._lo, self._qi, since, live, self._derived,
                                   self._events) if plan else ():
            out.setdefault(args, {}).setdefault(value, set()).add(t)
        return out

    def _dirty_from(self, name: str) -> tuple[int, dict]:
        """(d, touched): the dirty-from time of name's groundings, and args ->
        an earlier one for each grounding whose rules read an input key
        changed before d, from that change on.  It is the window start for
        all if the name reuses nothing (`_reuses_nothing`); for an event the
        earliest such change is every grounding's."""
        lo, d0, reads = self._lo, self._d0, self._reads[name]
        if reads is None:
            return lo, _NONE
        if not self._late:
            return d0, _NONE
        if reads not in self._touched:
            (patterns, expr), floor, touched = reads, d0, {}
            indexes = self._domain_indexes
            for (read, key), t in self._late.items():
                for pattern_read, arity, at, shape in patterns:
                    if pattern_read != read or arity != len(key):
                        continue
                    t = max(t, lo)
                    if expr is None:
                        floor = min(floor, t)
                        continue
                    if (expr, shape) not in indexes:
                        indexes[expr, shape] = _index(self._grounded[expr], shape)
                    for args in indexes[expr, shape].get(tuple([key[p] for p in at]), ()):
                        if t < touched.get(args, d0):
                            touched[args] = t
            self._touched[reads] = floor, touched
        return self._touched[reads]

    def _compute_simple_fluent(self, name: str):
        """Each grounding has its own dirty-from time d (`_dirty_from`).  Each
        value's intervals are made in one run from the start s0 of the last
        query's interval holding at lo or ending there, as if initiated at
        s0 - 1, the initiations in (lo, d) carried over, those at lo and from
        d on solved, and the terminations solved from lo."""
        lo, qi = self._lo, self._qi
        floor, touched = self._dirty_from(name)
        fresh = self._solve(self._plans[INITIATED].get(name), floor)
        if touched:  # each touched grounding's initiations from its own d
            self._solve(self._plans["over"].get(name), touched, fresh)
        self._break_ties(name, fresh)
        last, last_starts = self._prev_derived.get(name, _NONE), self._starts.get(name, _NONE)
        starts, rebuilt = {}, {}
        for args in last.keys() | last_starts.keys() | fresh.keys():
            old, ivs = last_starts.get(args, _NONE), last.get(args, _NONE)
            dirty = touched.get(args, floor)
            if args not in fresh and all(
                    lo < ts[0] and ts[-1] < dirty - 1 for ts in old.values()) and all(
                    lo < il[0][0] and il[-1][1] is not OPEN and il[-1][1] < dirty
                    for il in ivs.values()):
                # it neither crosses the window start nor reaches d-1: nothing can change
                if old:
                    starts[args] = old
                if ivs:
                    self._derived.setdefault(name, {})[args] = ivs
                continue
            st = _joined(old, lo, dirty, fresh.get(args, _NONE))
            kept = {value: [part[0][0] - 1] for value, ilist in ivs.items()
                    if (part := _carried(ilist, lo, lo + 1))}  # holding at lo or ending there
            if st:
                starts[args] = st
            if st or kept:
                rebuilt[args] = st, kept
        self._starts[name] = starts
        ended = self._solve(self._plans[TERMINATED].get(name), dict.fromkeys(rebuilt, lo))
        for args, (st, kept) in rebuilt.items():
            en = ended.get(args, _NONE)
            for value in st.keys() | kept.keys():
                others = [t for v, ts in st.items() if v != value for t in ts]
                breaks = sorted({*en.get(value, ()), *others})
                ilist = iv.make_intervals(kept.get(value, []) + st.get(value, []), breaks, qi)
                if ilist:
                    self._derived.setdefault(name, {}).setdefault(args, {})[value] = ilist

    def _break_ties(self, name: str, fresh: dict):
        """Simultaneous initiations of two values: the first-declared value
        wins.  A tie is reported once while its time is in the window."""
        order, ties = self._value_order.get(name, []), []
        for args, per_value in fresh.items():
            by_time: dict[int, list] = {}
            for value, ts in per_value.items() if len(per_value) > 1 else ():
                for t in ts:
                    by_time.setdefault(t, []).append(value)
            for t, values in by_time.items():
                if len(values) > 1:
                    values.sort(key=order.index)
                    for loser in values[1:]:
                        per_value[loser].discard(t)
                    if (name, args, t) not in self._ties:
                        self._ties.add((name, args, t))
                        ties.extend((repr(args), t, f"simultaneous initiation of {name}{args} values "
                                     f"{values[0]!r} and {loser!r} at {t}; kept {values[0]!r}")
                                    for loser in values[1:])
        self.diagnostics.extend(message for _args, _t, message in sorted(ties))

    def _compute_sd_fluent(self, name: str):
        out, lo, plan = {}, self._lo, self._plans[HOLDS_FOR][name]
        floor, touched = self._dirty_from(name)
        for args, value, fresh in plan(lo, self._qi, floor, touched, self._derived, self._events):
            if fresh:
                slot = out.setdefault(args, {})
                slot[value] = iv.union_all([slot[value], fresh]) if value in slot else fresh
        # the last query's result before each grounding's dirty-from time
        # carries over; its part at or before the window start is the retained
        # prefix
        for args, per_value in self._prev_derived.get(name, _NONE).items():
            dirty = touched.get(args, floor)
            for value, ilist in per_value.items():
                if part := _carried(ilist, lo, dirty):
                    slot = out.setdefault(args, {})
                    slot[value] = iv.amalgamate(part, slot[value]) if value in slot else part
        self._derived[name] = out

    def _compute_events(self, name: str):
        """The last query's occurrences before the dirty-from time carry over;
        it is the earliest of any grounding's."""
        lo, dirty = self._lo, self._dirty_from(name)[0]
        occurrences = {args: {t for t in ts if lo < t < dirty}
                       for args, ts in self._prev_events.get(name, _NONE).items()}
        for args, per_value in self._solve(self._plans[HAPPENS][name], dirty).items():
            occurrences.setdefault(args, set()).update(per_value[None])
        self._events[name] = {args: sorted(ts) for args, ts in occurrences.items() if ts}

    # -- reporting -----------------------------------------------------------

    def _classify(self, qi: int) -> list[ResultEntry]:
        """Every interval's entry, ordered by name, arguments, value as text
        and start.  A grounding whose intervals equal the last query's keeps
        its entries until the next boundary reaches a start or end that
        flips a stability."""
        next_boundary = qi + self.cfg.step - self.cfg.wm
        last, kept, entries = self._entries, {}, []
        for name, per_args in sorted(self._derived.items()):
            for args in sorted(per_args):
                key, per_value = (name, args), per_args[args]
                was = last.get(key)
                if was is None or next_boundary >= was[2] or was[0] != per_value:
                    was = _entries_of(key, per_value, next_boundary)
                kept[key] = was
                entries += was[1]
        self._entries = kept
        return entries


def _entries_of(key: tuple, per_value: dict, next_boundary: int) -> tuple:
    """(per_value, a grounding's entries in order, the least start or end
    after the next boundary, where a stability flips)."""
    (name, args), entries, flip = key, [], math.inf
    for value, ilist in per_value.items():
        for s, e in ilist:
            if e is OPEN:
                stability = "open"
            elif e <= next_boundary:
                stability = "final"
            elif s <= next_boundary:
                stability, flip = "partial", min(flip, e)
            else:
                # both bounds may still be retracted: least stable class
                stability, flip = "open", min(flip, s)
            entries.append(ResultEntry(name, args, value, s, e, stability))
    entries.sort(key=lambda en: (str(en.value), en.start))
    return per_value, entries, flip


# ---------------------------------------------------------------------------
# Plan building blocks

_NONE: dict = {}  # the empty mapping that lookups fall back to; never written
_GONE = (None, None)  # SdeStore.by_id's entry of a record it does not hold
_CODE: dict = {}  # plan text -> its compiled factory module, for every engine


def _index(rows: Iterable[tuple], shape: tuple) -> dict:
    """The tuples of `rows` of shape (arity, positions) by their values at
    those positions."""
    arity, positions = shape
    index: dict[tuple, list] = {}
    for args in rows:
        if len(args) == arity:
            index.setdefault(tuple([args[p] for p in positions]), []).append(args)
    return index


class _PlanSource:
    """A plan being generated for a name's rules of one kind: its text, one
    loop nest per rule, and its factory's parameter values.  Rule variables
    are the locals v0, v1, ... in the order each nest binds them; constants,
    comparisons and sources are parameters, so no rule text reaches the
    source, which is the same for names whose rules are alike in shape.  Each
    source is named once: by a parameter if the engine keeps it (`kept`), else
    by a local set at the plan's top from the plan's arguments (`per_run`).
    The parameters bind the store, `points` to its `points_from`, never the
    engine, so a dropped engine is in no reference cycle."""

    def __init__(self, store: SdeStore):
        self.params = ["iv", "E", "OPEN", "cut", "points", "index"]
        self.values = [iv, _NONE, OPEN, _cut, store.points_from, _index]
        self.vars: dict = {}  # rule variable -> its local
        self.sources: dict = {}  # a kept source's key -> its parameter
        self.locals: dict = {}  # a per-run source's key -> its local
        self.header: list[str] = []  # the line setting each local
        self.lines: list[str] = []
        self.depth, self.count = 2, itertools.count()

    def param(self, value, prefix: str = "k") -> str:
        self.params.append(f"{prefix}{len(self.params)}")
        self.values.append(value)
        return self.params[-1]

    def kept(self, key, make: Callable) -> str:
        """The parameter holding make(), an object that lives as long as the
        engine; one per key."""
        if key not in self.sources:
            self.sources[key] = self.param(make(), "s")
        return self.sources[key]

    def per_run(self, key, make: Callable[[], str]) -> str:
        """The local set once at the plan's top to the text make(); one per key."""
        if key not in self.locals:
            self.locals[key] = f"x{len(self.header)}"
            self.header.append(f"{self.locals[key]} = {make()}")
        return self.locals[key]

    def indexed(self, rows: str) -> Callable[[tuple], str]:
        """shape -> the local of an index of that shape over a per-run local."""
        return lambda shape: self.per_run((rows, shape), lambda: f"index({rows}, {shape!r})")

    def term(self, term, new: bool = False) -> str:
        """A variable's local (a new one with `new`), or a constant's parameter."""
        if new:
            self.vars[term] = f"v{len(self.vars)}"
        return self.vars[term] if is_var(term) else self.param(term)

    def add(self, text: str, inside: bool = True):
        """Add a line, and with `inside` put the lines after it inside it."""
        self.lines.append("    " * self.depth + text)
        self.depth += inside

    def reaches(self, ilist: str, test: str) -> str:
        """The text of a test that the intervals `ilist` are there and their
        last end, OPEN or `test` (such as ">= d"), reaches a time: constant
        time, where cutting would walk the whole list."""
        return f"(s := {ilist}) and (s[-1][1] is OPEN or s[-1][1] {test})"

    def join(self, rows: str, index_for: Callable[[tuple], str], terms: tuple) -> str:
        """Open the test or loop over the tuples of `rows` that agree with the
        bound ones among `terms`, binding the new ones: a probe when all are
        bound, else a lookup in index_for(shape) by the bound positions.
        Returns the local of each tuple."""
        at = f"a{next(self.count)}"
        keyed = [pos for pos, t in enumerate(terms) if not is_var(t) or t in self.vars]
        key = _tuple_text([self.term(terms[pos]) for pos in keyed])
        if len(keyed) == len(terms):
            self.add(f"if ({at} := {key}) in {rows}:")
        elif not keyed:
            self.add(f"for {at} in {rows}:")
            self.add(f"if len({at}) == {len(terms)}:")
            self.bind(at, terms)
        else:
            self.add(f"for {at} in {index_for((len(terms), tuple(keyed)))}.get({key}, ()):")
            self.bind(at, terms, keyed)
        return at

    def bind(self, at: str, terms: tuple, keyed=()):
        """Test a tuple's items outside its key against their constants and
        repeated variables, then bind the new variables."""
        first = _first_positions(terms)
        for pos, t in enumerate(terms):
            if pos not in keyed and (not is_var(t) or first[t] != pos):
                other = f"{at}[{first[t]}]" if is_var(t) else self.param(t)
                self.add(f"if {at}[{pos}] == {other}:")
        for pos, t in enumerate(terms):
            if is_var(t) and t not in self.vars:
                self.add(f"{self.term(t, new=True)} = {at}[{pos}]", False)

    def build(self, filename: str) -> Callable[..., list]:
        """Make the plan, plan(lo, qi, d, live, derived, events), by calling
        the factory, compiled once per text (`_CODE`), with this engine's
        values, and keep its text as `plan.source`.  The factory leaves the
        namespace, so that no cycle through it keeps the plan's sources alive."""
        source = "\n".join([f"def make({', '.join(self.params)}):",
                            "    def plan(lo, qi, d, live, derived, events):", "        out = []",
                            *["        " + line for line in self.header], *self.lines,
                            "        return out", "    return plan", ""])
        code = _CODE.get(source)
        if code is None:
            code = _CODE[source] = compile(source, filename, "exec")
        namespace: dict = {}
        exec(code, namespace)
        plan = namespace.pop("make")(*self.values)
        plan.source = source
        return plan


def _tuple_text(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _first_positions(terms: tuple) -> dict:
    """variable -> the position of its first occurrence in `terms`."""
    return {t: pos for pos, t in reversed(list(enumerate(terms))) if is_var(t)}


def _reuses_nothing(rule: Rule, is_input: Callable) -> bool:
    """Whether a rule reads a derived fluent or event, whose answers may
    change anywhere in the window, or input at a time other than its head's,
    which a change after the solution's may move.  The rules of a name share
    its result, so one such rule makes the name evaluate from the window
    start."""
    return any(not is_input(read_by(lit).name)
               or isinstance(lit, (HappensAt, HoldsAt)) and lit.time != rule.head_var
               for lit in rule.body if isinstance(lit, (HappensAt, HoldsAt, HoldsFor)))


def _over_head(fv: FluentValue, head: tuple) -> bool:
    """Whether a literal's fluent ranges over exactly the head's variables, so
    that its content at a grounding bounds where the rule can hold for it."""
    return _first_positions(fv.args).keys() == _first_positions(head).keys()


def _reach(rule: Rule, is_input: Callable) -> list[tuple]:
    """The input fluents a point rule reads over exactly the head's variables,
    as (name, value, arguments), each variable as its first position in the
    head and each constant as a 1-tuple, alike for rules that read alike.  A
    grounding whose content in one ends before t has no solution from t on."""
    at = _first_positions(rule.head.args)
    return [(fv.name, fv.value, tuple([at[t] if is_var(t) else (t,) for t in fv.args]))
            for fv in [read_by(lit) for lit in rule.body if not isinstance(lit, Comparison)]
            if isinstance(fv, FluentValue) and is_input(fv.name) and _over_head(fv, rule.head.args)]


def _pattern(head: tuple, read) -> tuple:
    """(name, arity, positions, shape) of an input literal that reads `read`
    in a rule headed by `head`: an input key of that name and arity binds the
    head positions in shape (arity, positions) to its values at `positions`.
    Constants and repeated variables are not matched, which only widens the
    groundings a key reaches."""
    at = _first_positions(read.args)
    bound = [(i, at[t]) for i, t in enumerate(head) if t in at]
    return (read.name, len(read.args), tuple(p for _i, p in bound),
            (len(head), tuple(i for i, _p in bound)))


def _compare(op: str, left, right) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if not isinstance(left, int) or not isinstance(right, int):
        raise EvaluationError(f"ordering comparison on non-integers: {left} {op} {right}")
    return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[op]


def _required_literals(rule: Rule) -> list[HoldsFor]:
    """holdsFor literals whose emptiness forces an empty rule output.

    A variable is required if it reaches the head interval only through
    intersections (or as a complement base); union inputs are not required,
    since a sibling may still contribute.
    """
    required = {rule.head_var}
    for lit in reversed(rule.body):
        if isinstance(lit, IntervalIntersection) and lit.out in required:
            required.update(lit.inputs)
        elif isinstance(lit, IntervalUnion) and lit.out in required:
            if len(lit.inputs) == 1:
                required.add(lit.inputs[0])
        elif isinstance(lit, IntervalComplement) and lit.out in required:
            required.add(lit.base)
    return [lit for lit in rule.body if isinstance(lit, HoldsFor) and lit.interval in required]


# ---------------------------------------------------------------------------
# Stream driver


def record_occurrence(rec) -> int:
    return rec.t if rec.kind in ("event", "coord") else rec.start


def record_arrival(rec) -> Optional[int]:
    """Its arrival, else its occurrence: None for a retract with neither, so
    sorting by this key raises TypeError there (`query_schedule` does not)."""
    return rec.arrival if rec.arrival is not None else record_occurrence(rec)


def query_schedule(cfg: EngineConfig, records: list,
                   last_q: Optional[int] = None) -> Iterator[tuple[int, list]]:
    """Yield each query time Qi from `step` to `last_q`, with the records
    arriving in (Qi - step, Qi] (by Qi at the first) in arrival order.  A
    retract without an arrival arrives with the record before it.  `last_q`
    defaults to the first Qi whose window start, Qi - wm, is at or after
    every arrival and every end of content."""
    arrivals, prev = [], 0
    for rec in records:
        if rec.arrival is not None or rec.action != "retract":
            prev = record_arrival(rec)
        arrivals.append(prev)
    ordered = sorted(zip(arrivals, records), key=itemgetter(0))
    if last_q is None:
        horizon = max(
            (max(arrival, _content_end(r)) for arrival, r in ordered), default=0
        )
        last_q = cfg.step * math.ceil((horizon + cfg.wm) / cfg.step)
    idx = 0
    for qi in range(cfg.step, last_q + 1, cfg.step):
        lo, idx = idx, bisect_right(ordered, qi, lo=idx, key=itemgetter(0))
        yield qi, [rec for _arrival, rec in ordered[lo:idx]]


def run_stream(
    ed: EventDescription,
    cfg: EngineConfig,
    records: list,
    last_q: Optional[int] = None,
) -> tuple[Engine, list[RecognitionResult]]:
    """Feed records to a fresh engine and query it on `query_schedule`."""
    engine, results = Engine(ed, cfg), []
    for qi, arriving in query_schedule(cfg, records, last_q):
        engine.ingest(arriving)
        results.append(engine.query(qi))
    return engine, results


def _content_end(rec) -> int:
    if rec.action == "retract":
        return 0  # no content: only its arrival counts towards the horizon
    if rec.kind == "interval":
        return rec.start if rec.end is OPEN else rec.end
    return rec.t
