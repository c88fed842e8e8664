"""Windowed recognition of composite events.

The engine is driven by query times Q1, Q2, ... spaced `step` ticks apart.
At each query it applies buffered input, discards everything that took place
at or before the window start (Qi - wm), brings the store's point index up to
the new window, and brings every composite fluent up to date bottom-up by
stratification level.

Work follows what changed, per grounding.  The store records, per input key
(name, arguments), the earliest time the input applied at this query changes
it.  A grounding's dirty-from time d is the time just after the last query,
or the earliest change before that to a key its rules read, but not before the
window start; a key reaches the groundings whose head variables it binds in
some input literal of their rules.  The point index hands a rule only the
input points at the window start and in [d, Qi], so rules are solved only
there.  A simple fluent solves its initiations from the shared d for all
groundings, and once more over the groundings with an earlier d that some
rule can still initiate there, each from its own d, which the solve binds
with the grounding.  It carries each grounding's intervals and initiations
before its d, and rebuilds its chain from d on only for groundings with a
fresh initiation or termination or one that holds into d; a grounding whose
state at the window start changed is rebuilt from the window start, from the
start of an interval crossing it.  A statically determined fluent carries
each grounding's intervals before its d, whose part before the window start
is the retained prefix, and amalgamates them with a fresh result from d.  A
derived event takes the earliest d of any grounding.  The first point of the
window is always evaluated again, because forgetting cuts input intervals
there.  A rule that reads a derived fluent or event, or input at a time other
than its head's, reuses nothing and makes its name evaluate from the window
start; `Engine.__init__` decides this once per name.

Upkeep follows the change too.  The store forgets by popping, from a heap
ordered by start, only the items the window start passes, and re-cuts the
few intervals that cross it; it keeps the join indexes over input content,
changing them only where an argument tuple enters or leaves the content.
Classification keeps a grounding's entries while its intervals equal the
last query's and the next boundary has not reached one of their endpoints.

`Engine.__init__` refuses a rule pack for which `language.validate` reports
an error, and compiles each rule of any other once into a plan: an ordered
chain of join steps over variable slots, in the order `language.join_order`
gives, each reading its source through an index on the argument positions
bound before it.  The plans rely on validate's checks and repeat none of
them; only an ordering comparison on non-integer values, which depends on
the data, fails at query time.  Terminations are evaluated only for
groundings that hold into the part being rebuilt or have an initiation there,
each from its own dirty-from time in one solve, and a holdsFor rule only for
the groundings drawn from its sparsest required input (see README.md).

One engine instance is single-threaded; scale-out is by running independent
instances over disjoint groundings, each fed the complete stream.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Iterable, Optional

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


def _materialize(ilist: IntervalList, bound: int) -> IntervalList:
    """Cut at `bound` for set arithmetic: drop what starts after it, and end
    what reaches further, or is OPEN, one past it."""
    if not ilist or ilist[-1][1] is not OPEN and ilist[-1][1] <= bound + 1:
        return ilist
    out = []
    for s, e in ilist:
        if s > bound:
            break
        out.append((s, bound + 1) if e is OPEN or e > bound + 1 else (s, e))
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


def _reopen(ilist: IntervalList, bound: int) -> IntervalList:
    """Mark a tail that reaches the computation bound as OPEN again."""
    if ilist and ilist[-1][1] is not OPEN and ilist[-1][1] >= bound + 1:
        return ilist[:-1] + [(ilist[-1][0], OPEN)]
    return ilist


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
        # The point index, brought up to a window start by `index`.  `content`
        # holds each fluent slot's canonical content, and `times` each event
        # slot's sorted times, as of the slot's last change; what forgetting
        # has dropped or cut since lies before the window start, which no
        # read looks at.  `at` maps (name, "start" or "end", value) of a fluent
        # and (name, "happens", None) of an event to the argument tuples with
        # a point at each time from the window start on; `covering` maps
        # (name, value) to those whose content holds at the window start,
        # where the window sees it start.  `joins` maps a fluent name and a
        # shape (arity, positions) to its argument tuples in `content` of that
        # arity by their values at those positions, built by `join_index` and
        # kept up to date as tuples enter and leave `content`.
        self.content: dict[str, dict[tuple, dict[object, IntervalList]]] = {}
        self.times: dict[tuple, list[int]] = {}
        self.at: dict[tuple, dict[int, set[tuple]]] = {}
        self.covering: dict[tuple, set[tuple]] = {}
        self.joins: dict[str, dict[tuple, dict[tuple, list]]] = {}
        self._stale: set[tuple] = set()  # slots changed since the last index
        self._lo = 0  # the window start of the last index

    def add_event(self, rec_id: str, name: str, args: tuple, t: int) -> bool:
        if rec_id in self.by_id:
            return False
        item = (t, rec_id)
        self.events.setdefault(name, {}).setdefault(args, []).append(item)
        self._added(rec_id, (name, args), item)
        return True

    def add_interval(
        self, rec_id: str, name: str, args: tuple, value, start: int, end: Optional[int]
    ) -> bool:
        if rec_id in self.by_id:
            return False
        item = [start, end, rec_id]
        self.durative.setdefault(name, {}).setdefault(args, {}).setdefault(value, []).append(item)
        self._added(rec_id, (name, args, value), item)
        return True

    def _added(self, rec_id: str, slot: tuple, item):
        self.by_id[rec_id] = (slot, item)
        heappush(self.starts, (item[0], next(self._seq), slot, item))
        self._changed(slot, item[0])

    def remove(self, rec_id: str) -> bool:
        entry = self.by_id.get(rec_id)
        if entry is None:
            return False
        slot, item = entry
        self._take(slot, item)
        self._changed(slot, item[0])
        return True

    def _changed(self, slot: tuple, t: int):
        self._stale.add(slot)
        key = slot[:2]
        if t < self.changed.get(key, math.inf):
            self.changed[key] = t

    def _take(self, slot: tuple, item) -> bool:
        """Delete a stored item, and the keys it leaves without content;
        whether its slot is left empty."""
        del self.by_id[item[-1]]
        self.crossing.discard(item[-1])
        name, args = slot[0], slot[1]
        if len(slot) == 2:
            per_args = self.events[name]
            items = per_args[args]
            items.remove(item)
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
        only the part strictly after it.  Only the items that start by
        `boundary` and the intervals cut at the last window start are read."""
        starts, by_id, crossing = self.starts, self.by_id, self.crossing
        while starts and starts[0][0] <= boundary:
            _start, _seq, slot, item = heappop(starts)
            if by_id.get(item[-1], _GONE)[1] is not item:
                continue  # retracted or updated since it was pushed
            if len(slot) == 2:
                self._expire(slot, item)
            else:
                crossing.add(item[-1])
        for rec_id in list(crossing):
            slot, item = by_id[rec_id]
            if item[1] is not OPEN and item[1] <= boundary + 1:
                self._expire(slot, item)
            else:
                item[0] = boundary + 1

    def _expire(self, slot: tuple, item):
        if self._take(slot, item) and slot not in self._stale:
            # all of the slot's content ended by the window start, as have its
            # points, which `index` drops
            if len(slot) == 2:
                self.times.pop(slot, None)
            else:
                self._forget_content(*slot)

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

    def index(self, lo: int):
        """Bring the point index up to the window starting at `lo`: refresh the
        slots that changed, test against `lo` the argument tuples whose content
        changed, or starts or ends since the last window start, and drop the
        points before `lo`."""
        moved: dict[tuple, set] = {}
        for slot in self._stale:
            name, args = slot[0], slot[1]
            if len(slot) == 2:  # an event's
                new = sorted({t for t, _id in self.events.get(name, _NONE).get(args, ())})
                self._move((name, "happens", None), args, self.times.pop(slot, []), new, lo)
                if new:
                    self.times[slot] = new
                continue
            value = slot[2]
            items = self.durative.get(name, _NONE).get(args, _NONE).get(value, ())
            # one stored item is canonical already
            if len(items) == 1:
                new = [tuple(items[0][:2])]
            else:
                new = self.fluent_intervals(name, args, value)
            old = self.content.get(name, _NONE).get(args, _NONE).get(value, [])
            self._move((name, "start", value), args, [s for s, _e in old], [s for s, _e in new], lo)
            self._move((name, "end", value), args, [e for _s, e in old if e is not OPEN],
                       [e for _s, e in new if e is not OPEN], lo)
            if new:
                per_args = self.content.setdefault(name, {})
                if args not in per_args:
                    per_args[args] = {}
                    self._rejoin(name, args, True)
                per_args[args][value] = new
            else:
                self._forget_content(name, args, value)
            moved.setdefault((name, value), set()).add(args)
        self._stale.clear()
        for (name, which, value), at in self.at.items():
            crossed = moved.setdefault((name, value), set()) if which != "happens" else set()
            for t in range(self._lo, lo):
                crossed.update(at.pop(t, ()))
            crossed.update(at.get(lo, ()))
        for (name, value), crossed in moved.items():
            covering = self.covering.setdefault((name, value), set())
            per_args = self.content.get(name, _NONE)
            for args in crossed:
                if iv.holds_at(per_args.get(args, _NONE).get(value, []), lo):
                    covering.add(args)
                else:
                    covering.discard(args)
        self._lo = lo

    def _move(self, key: tuple, args: tuple, old: list[int], new: list[int], lo: int):
        """Replace the points of `args` under `key`, keeping those from `lo` on."""
        if old == new:
            return
        at = self.at.setdefault(key, {})
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
        name, which, value = key
        at, out = self.at.get(key, _NONE), {}
        first = self.covering.get((name, value), ()) if which == "start" else at.get(lo, ())
        for args in first if which != "end" else ():
            out[args] = [lo]
        since = max(since, lo + 1)
        span = range(since, qi + 1)
        for t in span if len(span) < len(at) else [t for t in at if since <= t <= qi]:
            for args in at.get(t, ()):
                out.setdefault(args, []).append(t)
        return out

    def event_times(self, name: str, args: tuple) -> list[int]:
        slot = self.events.get(name, {}).get(args)
        return sorted(t for t, _ in slot) if slot else []

    def fluent_intervals(self, name: str, args: tuple, value) -> IntervalList:
        slot = self.durative.get(name, {}).get(args, {}).get(value)
        if not slot:
            return []
        return iv.normalize([(s, e) for s, e, _ in slot])

    def min_content(self) -> Optional[int]:
        """Earliest stored time-point, for bounded-memory checks."""
        lo = math.inf
        for per_args in self.events.values():
            for slot in per_args.values():
                for t, _ in slot:
                    lo = min(lo, t)
        for per_args in self.durative.values():
            for per_value in per_args.values():
                for slot in per_value.values():
                    for s, _e, _id in slot:
                        lo = min(lo, s)
        return None if lo == math.inf else int(lo)

    def snapshot(self) -> tuple[list, dict]:
        """(events, durative) copy for offline re-evaluation in tests."""
        events = []
        for name, per_args in self.events.items():
            for args, slot in per_args.items():
                events.extend((name, args, t) for t, _ in slot)
        durative = {}
        for name, per_args in self.durative.items():
            for args, per_value in per_args.items():
                for value, slot in per_value.items():
                    if slot:
                        durative[(name, args, value)] = iv.normalize(
                            [(s, e) for s, e, _ in slot]
                        )
        return events, durative


def _drop_empty(container: dict, key):
    if not container[key]:
        del container[key]


# ---------------------------------------------------------------------------
# Engine


class _QueryState:
    """What the compiled plans read while a query runs.  Plans hold this, not
    the engine, so an engine is in no reference cycle and is freed when dropped."""

    def __init__(self, store: SdeStore):
        self.store, self.qi, self.lo = store, 0, 0
        self.dirty = 0  # the least dirty-from time of the solve running
        self.derived: dict[str, dict] = {}  # name -> args -> value -> intervals
        self.events: dict[str, dict] = {}  # name -> args -> times of a derived event
        self.live: dict[tuple, int] = {}  # grounding -> its d, for plans over live groundings
        self.indexes: dict[tuple, dict] = {}  # emptied after each solve and scheduled item


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
        self._prev_derived: dict[str, dict] = {}  # the last query's state.derived
        self._prev_events: dict[str, dict] = {}  # the last query's state.events
        self._starts: dict[str, dict] = {}  # name -> args -> value -> initiations in window
        # the last query's answers hold up to this time; minus infinity makes
        # the next query evaluate everything from the window start
        self.answered_to = 0
        self._d0 = 0  # this query's dirty-from time for what read no earlier change
        self._late: dict[tuple, int] = {}  # input key -> its change time, if before _d0
        self._touched: dict[tuple, tuple] = {}  # this query's _dirty_from by reads
        self._entries: dict[tuple, tuple] = {}  # (name, args) -> the last _entries_of
        self._state = _QueryState(self.store)
        self._domain_indexes: dict[tuple, dict] = {}  # over grounding domains

        heads = {r.head.name for r in ed.rules}
        self._grounded: dict[str, set[tuple]] = {}
        for name in heads:
            tuples = set(ed.grounded_tuples(name))
            decl = ed.declarations.get(name)
            if pair_filter is not None and decl and decl.arity == 2:
                tuples &= pair_filter
            self._grounded[name] = tuples

        # "over": each initiation that reuses, solved over the live groundings
        self._plans: dict = {kind: {} for kind in
                             (INITIATED, TERMINATED, HOLDS_FOR, HAPPENS, "over")}
        whole = {rule.head.name for rule in ed.rules if _reuses_nothing(rule, ed.is_input)}
        reach, reads = {}, {name: set() for name in heads - whole}
        for rule in ed.rules:
            plan = self._compile_sd(rule) if rule.kind == HOLDS_FOR else self._compile_point(rule)
            name, value = rule.head.name, getattr(rule.head, "value", None)
            self._plans[rule.kind].setdefault(name, []).append((value, plan))
            if name in whole:
                continue
            if rule.kind == INITIATED:
                self._plans["over"].setdefault(name, []).append(
                    (value, self._compile_point(rule, over_live=True)))
                reach.setdefault(name, {})[_reach(rule, ed.is_input)] = None
            for lit in rule.body:
                if isinstance(lit, (HappensAt, HoldsAt, HoldsFor)) and ed.is_input(
                        read_by(lit).name):
                    reads[name].add(_pattern(rule.head.args, read_by(lit)))
        # name -> the distinct `_reach` of its initiations, with builders
        self._reach = {name: [[(fluent, value, _builder(parts)) for fluent, value, parts in lits]
                              for lits in distinct] for name, distinct in reach.items()}
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
            if rec.t <= boundary:
                self.diagnostics.append(
                    f"record {rec.id!r} occurred at {rec.t}, at or before the window "
                    f"start {boundary}; dropped"
                )
                return
            if not self.store.add_event(rec.id, rec.name, tuple(rec.args), rec.t):
                self.diagnostics.append(f"duplicate assert for record id {rec.id!r}; ignored")
        elif rec.kind == "interval":
            end = rec.end
            if end is not OPEN and end <= boundary + 1:
                self.diagnostics.append(
                    f"record {rec.id!r} ended at {end}, at or before the window "
                    f"start {boundary}; dropped"
                )
                return
            ok = self.store.add_interval(
                rec.id, rec.name, tuple(rec.args), rec.value, rec.start, end
            )
            if not ok:
                self.diagnostics.append(f"duplicate assert for record id {rec.id!r}; ignored")
        else:
            self.diagnostics.append(
                f"record {rec.id!r} of kind {rec.kind!r} is not an engine input; "
                "coordinate samples must be preprocessed into closeness fluents"
            )

    # -- query ---------------------------------------------------------------

    def query(self, qi: int) -> RecognitionResult:
        if qi != self.next_q:
            raise ConfigError(f"query times must advance by step: expected {self.next_q}, got {qi}")
        boundary = qi - self.cfg.wm

        for rec in self.pending:
            self._apply(rec, boundary)
        self.pending.clear()
        self.store.forget(boundary)
        self.store.index(boundary + 1)
        self._ties = {tie for tie in self._ties if tie[2] > boundary}
        # the last query's answers hold up to its own query time, and for a
        # grounding up to the earliest change applied now to input it reads
        self._d0 = max(boundary + 1, self.answered_to + 1)
        self._late = {key: t for key, t in self.store.changed.items() if t < self._d0}
        self.store.changed, self._touched = {}, {}

        state = self._state
        state.qi, state.lo = qi, boundary + 1
        self._prev_derived, self._prev_events = state.derived, state.events
        state.derived, state.events = {}, {}
        for name, compute in self._schedule:
            compute(self, name)
            state.indexes.clear()  # later items may read what this one wrote

        entries = self._classify(qi)
        reported = select_reported(entries, self.cfg.mode)
        self.next_q, self.answered_to = qi + self.cfg.step, qi
        return RecognitionResult(qi, entries, reported)

    @property
    def prev_cache(self) -> dict[tuple, dict]:
        """(name, args) -> value -> intervals of the last query's answers."""
        return {key: was[0] for key, was in self._entries.items()}

    # -- rule plans ----------------------------------------------------------

    def _compile_point(self, rule: Rule, over_live: bool = False) -> Callable[[], list]:
        """Compile an initiatedAt, terminatedAt or happensAt rule into a plan:
        a function that returns its solutions' (head arguments, T) pairs.  Each
        step binds its new variables in a slot list and calls the next step
        once per match.  Slot 0 holds the dirty-from time that a happensAt
        step with its time unbound reads: state.dirty, or over live
        groundings each one's own.  A termination, and with `over_live` any
        rule, is solved only over the groundings in state.live."""
        name, head, state = rule.head.name, rule.head.args, self._state
        slots: dict = {None: 0}
        steps = []
        over_live = over_live or rule.kind == TERMINATED
        if over_live:
            # a grounding with neither an initiation nor a kept start cannot
            # hold, so only the live ones need their terminations; an
            # initiation is solved over given groundings from their own d
            live = lambda: state.live  # noqa: E731
            join = _join(live, head, slots, _cached_index(live, ("live", name), state.indexes))

            def own_time(nxt):
                def expand(env, args):
                    env[0] = state.live[args]
                    nxt(env)

                return join(nxt, expand)

            steps.append(own_time)
        steps += [self._step(lit, slots) for lit in join_order(rule, over_live)]
        grounded = self._grounded.get(name, set())
        check = name in self.ed.groundings and not over_live
        if any(is_var(a) and a not in slots for a in head):
            # the body leaves head variables free: the rule fires for every
            # grounding that matches the bound part
            domain = lambda: grounded  # noqa: E731
            index = _cached_index(domain, name, self._domain_indexes)
            steps.append(_join(domain, head, slots, index))
            check = False
        build = _builder([(slots[a], None) if is_var(a) else (None, a) for a in head])
        tslot, out = slots[rule.head_var], len(slots)

        def sink(env):
            args = build(env)
            if not check or args in grounded:
                env[out].append((args, env[tslot]))

        step = sink
        for make in reversed(steps):
            step = make(step)

        def solve() -> list:
            env = [state.dirty, *[None] * (out - 1), []]
            step(env)
            return env[out]

        return solve

    def _step(self, lit, slots: dict) -> Callable:
        """Compile one body literal, given the variables bound before it, into
        a function from the next step to this one."""
        state = self._state
        if isinstance(lit, Comparison):
            pair = _builder([(slots[x], None) if is_var(x) else (None, x) for x in terms_of(lit)])
            return lambda nxt: lambda env: _compare(lit.op, *pair(env)) and nxt(env)
        if isinstance(lit, HoldsAt):
            (rows, intervals, index), tslot = self._fluent(lit.fluent), slots[lit.time]
            join = _join(rows, lit.fluent.args, slots, index)
            return lambda nxt: join(
                nxt, lambda env, args: iv.holds_at(intervals(args), env[tslot]) and nxt(env)
            )
        event = lit.event
        name, tag = getattr(event, "fluent", event).name, None
        if self.ed.is_input(name):
            tag = (name, "happens", None)
            if isinstance(event, BoundaryEvent):
                tag = (name, event.which, event.fluent.value)
            rows = self._fresh(tag)
            points = lambda args: rows()[args]  # noqa: E731
        elif isinstance(event, BoundaryEvent):
            rows, intervals, _ = self._fluent(event.fluent)
            which = f"{event.which}_points"
            points = lambda args: getattr(iv, which)(intervals(args))  # noqa: E731
        else:
            rows = lambda: state.events.get(name, _NONE)  # noqa: E731
            points = lambda args: rows()[args]  # noqa: E731
        join = _join(rows, terms_of(lit), slots, _cached_index(rows, tag or name, state.indexes))
        bound = lit.time in slots  # before this literal, or by its own arguments
        tslot = slots.setdefault(lit.time, len(slots))

        def make(nxt):
            def expand(env, args):
                # with the time bound, only check that the event happens then;
                # else take the window start and the times from slot 0's on,
                # the window start too for a rule reading input at a time
                # other than its head's (`_reuses_nothing`)
                first, lo, hi = (env[tslot],) * 3 if bound else (state.lo, env[0], state.qi)
                for t in points(args):
                    if t == first or lo <= t <= hi:
                        env[tslot] = t
                        nxt(env)

            return join(nxt, expand)

        return make

    def _fresh(self, tag: tuple) -> Callable:
        """rows() of the argument tuples with an input point at the window
        start or from state.dirty on, each mapped to those points; read from
        the time-keyed index once per solve."""
        state = self._state

        def rows() -> dict:
            fresh = state.indexes.get(tag)
            if fresh is None:
                fresh = state.indexes[tag] = state.store.points_from(
                    tag, state.lo, state.dirty, state.qi)
            return fresh

        return rows

    def _fluent(self, fv: FluentValue) -> tuple[Callable, Callable, Callable]:
        """rows() of a fluent's argument tuples at this query, each mapped to
        its value -> content dict, args -> the intervals of fv's value, and
        shape -> index(), an index over rows(): the store keeps those over
        input, and those over a derived fluent last one solve.  Input content may reach
        past Qi, where evaluation cuts it."""
        name, value, state = fv.name, fv.value, self._state
        if self.ed.is_input(name):
            store = state.store
            content = store.content.setdefault(name, {})  # kept for good by the store
            return ((lambda: content), lambda args: content.get(args, _NONE).get(value, []),
                    lambda shape: partial(store.join_index, name, shape))
        rows = lambda: state.derived.get(name, _NONE)  # noqa: E731
        return (rows, lambda args: rows().get(args, _NONE).get(value, []),
                _cached_index(rows, name, state.indexes))

    def _compile_sd(self, rule: Rule) -> tuple:
        """Compile a holdsFor rule into (sources, fits, evaluate):
        evaluate maps a head grounding and a time to the body's intervals from
        that time on (None if a required conjunct is empty there).  A source
        (rows, intervals, arity, to_head, to_key) is a required input whose
        variables are the head's."""
        head, state = rule.head.args, self._state
        first = {t: pos for pos, t in reversed(list(enumerate(head))) if is_var(t)}

        def over_head(terms):
            return _builder([(first[t], None) if is_var(t) else (None, t) for t in terms])

        required = _required_literals(rule)
        body, sources = [], []
        for lit in rule.body:
            if isinstance(lit, HoldsFor):
                (rows, intervals, _), fv = self._fluent(lit.fluent), lit.fluent
                body.append((lit, over_head(fv.args), intervals, lit in required))
                at = {t: pos for pos, t in reversed(list(enumerate(fv.args))) if is_var(t)}
                if lit in required and at.keys() == first.keys():
                    to_head = _builder([(at[t], None) if is_var(t) else (None, t) for t in head])
                    sources.append((rows, intervals, len(fv.args), to_head, body[-1][1]))
            elif isinstance(lit, Comparison):
                body.append((lit, over_head(terms_of(lit)), None, False))
            else:  # an interval construct
                body.append((lit, None, None, False))

        def evaluate(args: tuple, since: int) -> Optional[IntervalList]:
            env: dict[str, IntervalList] = {}
            for lit, key, intervals, needed in body:
                if intervals is not None:
                    _, ilist = iv.clip_before(intervals(key(args)), since - 1)
                    ilist = _materialize(ilist, state.qi)
                    if needed and not ilist:
                        return None
                    env[lit.interval] = ilist
                elif key is not None:
                    if not _compare(lit.op, *key(args)):
                        return None
                elif isinstance(lit, IntervalComplement):
                    removed = [env[v] for v in lit.removed]
                    env[lit.out] = iv.relative_complement_all(env[lit.base], removed)
                else:
                    combine = iv.union_all if isinstance(lit, IntervalUnion) else iv.intersect_all
                    env[lit.out] = combine([env[v] for v in lit.inputs])
            return env[rule.head_var]

        canon = over_head(head)
        fits = lambda args: len(args) == len(head) and canon(args) == args  # noqa: E731
        return sources, fits, evaluate

    # -- evaluation ----------------------------------------------------------

    def _solve(self, plans: list, since, out: Optional[dict] = None) -> dict:
        """Add to `out`, or a new dict, args -> value -> times of the plans'
        solutions at the window start and from `since` on: one time for all
        groundings, or a map from each grounding to its own time, which also
        gives the groundings a plan over live groundings runs over."""
        state, out = self._state, {} if out is None else out
        if isinstance(since, dict):
            state.live, since = since, min(since.values(), default=state.lo)
        state.dirty = since
        for value, plan in plans:
            for args, t in plan():
                out.setdefault(args, {}).setdefault(value, set()).add(t)
        state.indexes.clear()  # an index over the live set, or the points from dirty, is this run's
        return out

    def _dirty_from(self, name: str) -> tuple[int, dict]:
        """(d, touched): the dirty-from time of name's groundings, and args ->
        an earlier one for each grounding whose rules read an input key
        changed before d, from that change on.  It is the window start for
        all if the name reuses nothing (`_reuses_nothing`); for an event the
        earliest such change is every grounding's."""
        lo, d0, reads = self._state.lo, self._d0, self._reads[name]
        if reads is None:
            return lo, _NONE
        if not self._late:
            return d0, _NONE
        if reads not in self._touched:
            (patterns, grounding), floor, touched = reads, d0, {}
            index_for = _cached_index(lambda: self._grounded[name], grounding, self._domain_indexes)
            for (read, key), t in self._late.items():
                for pattern_read, arity, at, shape in patterns:
                    if pattern_read != read or arity != len(key):
                        continue
                    t = max(t, lo)
                    if grounding is None:
                        floor = min(floor, t)
                        continue
                    for args in index_for(shape)().get(tuple([key[p] for p in at]), ()):
                        if t < touched.get(args, d0):
                            touched[args] = t
            self._touched[reads] = floor, touched
        return self._touched[reads]

    def _compute_simple_fluent(self, name: str):
        """Each grounding has its own dirty-from time d (`_dirty_from`).  Its
        intervals and initiations before d carry over, and its chain is
        rebuilt from d on: from whether it holds or is initiated at d-1, and its
        initiations and terminations from d.  A grounding for which the window
        start changes whether it holds there, or whether it holds or is
        initiated there, is rebuilt from the window start instead, with the
        start of an interval crossing it kept."""
        state = self._state
        lo, qi = state.lo, state.qi
        inits, terms = self._plans[INITIATED].get(name, []), self._plans[TERMINATED].get(name, [])
        floor, touched = self._dirty_from(name)
        fresh = self._solve(inits, floor)
        self._initiated_since(name, touched, fresh)
        self._break_ties(name, fresh)
        last, last_starts = self._prev_derived.get(name, _NONE), self._starts.get(name, _NONE)
        starts, chains, live = {}, [], {}
        for args in last.keys() | last_starts.keys() | fresh.keys():
            old, ivs, st = last_starts.get(args, _NONE), last.get(args, _NONE), {}
            dirty = touched.get(args, floor)
            if args not in fresh and all(
                    lo < ts[0] and ts[-1] < dirty - 1 for ts in old.values()) and all(
                    lo < il[0][0] and il[-1][1] is not OPEN and il[-1][1] < dirty
                    for il in ivs.values()):
                # it neither crosses the window start nor reaches d-1: nothing can change
                if old:
                    starts[args] = old
                if ivs:
                    state.derived.setdefault(name, {})[args] = ivs
                continue
            for value, ts in old.items():
                if not (lo < ts[0] and ts[-1] < dirty):
                    ts = [t for t in ts if lo < t < dirty]
                st[value] = ts
            for value, ts in fresh.get(args, _NONE).items():
                st[value] = sorted(ts.union(st.get(value, ())))
            st = {value: ts for value, ts in st.items() if ts}
            chain = {}
            for value in st.keys() | ivs.keys():
                ilist, ts = ivs.get(value, []), st.get(value, [])
                part = _carried(ilist, lo, dirty)
                held = bool(part) and part[0][0] <= lo < part[0][1] if dirty > lo else iv.holds_at(
                    ilist, lo)
                kept = held or bool(part) and part[0][0] < lo
                pending = bool(part) and part[-1][1] == dirty or (
                    dirty - 1 in ts if dirty > lo else held)
                if kept or pending or ts and ts[-1] >= dirty:
                    live[args] = dirty
                chain[value] = (ilist, ts, part, pending, held, kept, lo in old.get(value, ()))
            if st:
                starts[args] = st
            chains.append((args, dirty, st, chain))
        self._starts[name] = starts
        # terminations of the live groundings, each from its own d
        ended, rebuilt = self._solve(terms, live), []
        for args, dirty, st, chain in chains:
            ends = ended.get(args, _NONE)
            for value, (_il, ts, _part, _pe, held, kept, was_initiated) in chain.items():
                broken = lo in ends.get(value, ()) or any(
                    other != value and ots[0] == lo for other, ots in st.items())
                holds = kept and not broken
                initiated = ts[:1] == [lo]
                if dirty > lo and (holds != held or (holds or initiated) != (held or was_initiated)):
                    rebuilt.append((args, st, chain))
                    break
            else:
                self._settle(name, args, st, chain, dirty, ended)
        if rebuilt:
            self._solve(terms, {args: lo for args, _st, _chain in rebuilt}, ended)
            for args, st, chain in rebuilt:
                self._settle(name, args, st, chain, lo, ended)

    def _initiated_since(self, name: str, touched: dict, fresh: dict):
        """Add to `fresh` each touched grounding's initiations from its own
        dirty-from time on.  The rules are solved over the touched groundings
        for which some rule has content reaching that time in each of its
        input literals over exactly the head's variables (`_reach`)."""
        content, cut = self._state.store.content, {}
        for args, d in touched.items():
            for reach in self._reach.get(name, ()):
                for fluent, value, key in reach:
                    ilist = content.get(fluent, _NONE).get(key(args), _NONE).get(value)
                    if not ilist or ilist[-1][1] is not OPEN and ilist[-1][1] < d:
                        break
                else:
                    cut[args] = d
                    break
        if cut:
            self._solve(self._plans["over"][name], cut, fresh)

    def _settle(self, name: str, args: tuple, st: dict, chain: dict, since: int, ended: dict):
        """Set a grounding's intervals: the carried ones before `since`, then
        its chain from there; from the window start, with the start of an
        interval crossing it kept."""
        state, result, ends = self._state, {}, ended.get(args, _NONE)
        for value, (ilist, ts, part, pending, _held, kept, _was) in chain.items():
            if since == state.lo:
                part, pending = _carried(ilist, since, since), kept
            later, breaks = ts[bisect_left(ts, since):], []
            if later or pending:
                breaks = [t for t in ends.get(value, ()) if t >= since]
                for other, ots in st.items():
                    if other != value:
                        breaks += ots[bisect_left(ots, since):]
            if later or (pending and breaks):
                starts = [since - 1] * pending + later
                tail = iv.make_intervals(starts, sorted(set(breaks)), now=state.qi)
                ilist = iv.amalgamate(part, tail)
            elif pending:
                ilist = _reopen(part, since - 1) if part and part[-1][1] == since else (
                    part + [(since, OPEN)])
            else:
                ilist = part
            if ilist:
                result[value] = ilist
        if result:
            state.derived.setdefault(name, {})[args] = result

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
                    values.sort(key=lambda v: order.index(v) if v in order else len(order))
                    for loser in values[1:]:
                        per_value[loser].discard(t)
                    if (name, args, t) not in self._ties:
                        self._ties.add((name, args, t))
                        ties.extend((repr(args), t, f"simultaneous initiation of {name}{args} values "
                                     f"{values[0]!r} and {loser!r} at {t}; kept {values[0]!r}")
                                    for loser in values[1:])
        self.diagnostics.extend(message for _args, _t, message in sorted(ties))

    def _compute_sd_fluent(self, name: str):
        state, plans = self._state, self._plans[HOLDS_FOR].get(name, [])
        floor, touched = self._dirty_from(name)
        per_args: dict[tuple, dict] = {}
        for value, (sources, fits, evaluate) in plans:
            for args, dirty in self._sd_groundings(name, sources, fits, floor, touched):
                fresh = evaluate(args, dirty)
                if fresh is not None:
                    slot = per_args.setdefault(args, {})
                    slot[value] = iv.union_all([slot[value], fresh]) if value in slot else fresh
        # the last query's result before each grounding's dirty-from time
        # carries over; its part at or before the window start is the retained
        # prefix
        carried: dict[tuple, dict] = {}
        for args, per_value in self._prev_derived.get(name, {}).items():
            dirty = touched.get(args, floor)
            for value, ilist in per_value.items():
                part = _carried(ilist, state.lo, dirty)
                if part:
                    carried.setdefault(args, {})[value] = part
        for args in per_args.keys() | carried.keys():
            fresh, carry, result = per_args.get(args, {}), carried.get(args, {}), {}
            for value in fresh.keys() | carry.keys():
                ilist = _reopen(iv.amalgamate(carry.get(value, []), fresh.get(value, [])), state.qi)
                if ilist:
                    result[value] = ilist
            if result:
                state.derived.setdefault(name, {})[args] = result

    def _sd_groundings(self, name: str, sources: list, fits: Callable, floor: int,
                       touched: dict) -> list[tuple]:
        """(args, dirty-from time) of the groundings from the keys of the
        sparsest source with content from their dirty-from time on, else of
        all."""
        grounded = self._grounded.get(name, set())
        if not sources:
            return [(args, touched.get(args, floor)) for args in grounded if fits(args)]
        rows, intervals, arity, to_head, to_key = min(sources, key=lambda src: len(src[0]()))
        out = []
        for key in rows():
            if len(key) == arity:
                args = to_head(key)
                if args in grounded and to_key(args) == key:
                    ilist, dirty = intervals(key), touched.get(args, floor)
                    if ilist and (ilist[-1][1] is OPEN or ilist[-1][1] > dirty):
                        out.append((args, dirty))
        return out

    def _compute_events(self, name: str):
        """The last query's occurrences before the dirty-from time carry over;
        it is the earliest of any grounding's."""
        state, plans = self._state, self._plans[HAPPENS].get(name, [])
        dirty, _touched = self._dirty_from(name)
        occurrences = {args: {t for t in ts if state.lo < t < dirty}
                       for args, ts in self._prev_events.get(name, _NONE).items()}
        for args, per_value in self._solve(plans, dirty).items():
            occurrences.setdefault(args, set()).update(per_value[None])
        state.events[name] = {args: sorted(ts) for args, ts in occurrences.items() if ts}

    # -- reporting -----------------------------------------------------------

    def _classify(self, qi: int) -> list[ResultEntry]:
        """Every interval's entry, ordered by name, arguments, value as text
        and start.  A grounding whose intervals equal the last query's keeps
        its entries until the next boundary reaches a start or end that
        flips a stability."""
        next_boundary = qi + self.cfg.step - self.cfg.wm
        last, kept, entries = self._entries, {}, []
        for name, per_args in sorted(self._state.derived.items()):
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


def _index(rows: Iterable[tuple], shape: tuple) -> dict:
    """The tuples of `rows` of shape (arity, positions) by their values at
    those positions."""
    arity, positions = shape
    index: dict[tuple, list] = {}
    for args in rows:
        if len(args) == arity:
            index.setdefault(tuple([args[p] for p in positions]), []).append(args)
    return index


def _cached_index(rows: Callable, tag, indexes: dict) -> Callable:
    """shape -> index(), the index of that shape over rows(), built once and
    kept in `indexes`, which its owner empties when rows() may have changed."""

    def index_for(shape: tuple) -> Callable[[], dict]:
        key = (tag, shape)

        def index() -> dict:
            out = indexes.get(key)
            if out is None:
                out = indexes[key] = _index(rows(), shape)
            return out

        return index

    return index_for


def _builder(parts: list) -> Callable:
    """A function from a sequence (a slot list or a grounding) to a tuple
    with one item per part: (index, _) reads the sequence, (None, c) is c."""
    if any(index is None for index, _c in parts) or len(parts) < 2:
        return lambda seq: tuple([c if index is None else seq[index] for index, c in parts])
    return itemgetter(*(index for index, _c in parts))


def _join(rows: Callable, terms: tuple, slots: dict, index_for: Callable):
    """The step over the tuples of rows() that agree with the bound ones among
    `terms`: one probe when all are bound, else a lookup in the index that
    index_for(shape)() gives, the tuples of rows() of shape (arity, bound
    positions) by those positions.  Per tuple it binds the new variables,
    then calls expand or next."""
    key, binds, same = _split(terms, slots)
    index = index_for((len(terms), tuple(pos for pos, _s, _c in key)))
    build, whole = _builder([(slot, c) for _pos, slot, c in key]), len(key) == len(terms)

    def find(env):
        if whole:
            args = build(env)
            return (args,) if args in rows() else ()
        return index().get(build(env), ())

    def make(nxt, expand=None):
        expand = expand or (lambda env, args: nxt(env))

        def step(env):
            for args in find(env):
                if not same or all(args[p] == args[q] for p, q in same):
                    for pos, slot in binds:
                        env[slot] = args[pos]
                    expand(env, args)

        return step

    return make


def _split(terms: tuple, slots: dict) -> tuple[list, list, list]:
    """Split a literal's arguments, given the variables bound before it, into
    the lookup key [(position, slot or None, constant)], the new variables it
    binds [(position, slot)] and repeats of a new variable [(position,
    earlier position)].  New variables take the next free slots."""
    key, same, seen = [], [], {}
    for pos, term in enumerate(terms):
        if not is_var(term):
            key.append((pos, None, term))
        elif term in slots:
            key.append((pos, slots[term], None))
        elif term in seen:
            same.append((pos, seen[term]))
        else:
            seen[term] = pos
    binds = [(pos, slots.setdefault(term, len(slots))) for term, pos in seen.items()]
    return key, binds, same


def _reuses_nothing(rule: Rule, is_input: Callable) -> bool:
    """Whether a rule reads a derived fluent or event, whose answers may
    change anywhere in the window, or input at a time other than its head's,
    which a change after the solution's may move.  The rules of a name share
    its result, so one such rule makes the name evaluate from the window
    start."""
    return any(not is_input(read_by(lit).name)
               or isinstance(lit, (HappensAt, HoldsAt)) and lit.time != rule.head_var
               for lit in rule.body if isinstance(lit, (HappensAt, HoldsAt, HoldsFor)))


def _reach(rule: Rule, is_input: Callable) -> tuple:
    """(input fluent, value, `_builder` parts of its arguments over a head
    grounding) of each body literal of a point rule over exactly the head's
    variables: a grounding whose content there ends before a time has no
    solution from that time on."""
    head = {t: pos for pos, t in reversed(list(enumerate(rule.head.args))) if is_var(t)}
    return tuple((fv.name, fv.value, tuple((head.get(t), t) for t in fv.args))
                 for fv in [read_by(lit) for lit in rule.body if not isinstance(lit, Comparison)]
                 if isinstance(fv, FluentValue) and is_input(fv.name)
                 and {t for t in fv.args if is_var(t)} == head.keys())


def _pattern(head: tuple, read) -> tuple:
    """(name, arity, positions, shape) of an input literal that reads `read`
    in a rule headed by `head`: an input key of that name and arity binds the
    head positions in shape (arity, positions) to its values at `positions`.
    Constants and repeated variables are not matched, which only widens the
    groundings a key reaches."""
    at = {t: pos for pos, t in reversed(list(enumerate(read.args))) if is_var(t)}
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


def record_arrival(rec) -> int:
    return rec.arrival if rec.arrival is not None else record_occurrence(rec)


def run_stream(
    ed: EventDescription,
    cfg: EngineConfig,
    records: list,
    last_q: Optional[int] = None,
    pair_filter: Optional[set[tuple]] = None,
    timings: Optional[list[float]] = None,
) -> tuple[Engine, list[RecognitionResult]]:
    """Feed records to a fresh engine in arrival order, querying every step.

    Runs until `last_q`, or until every record has been ingested and the last
    occurrence has been swept past the window when `last_q` is omitted.
    """
    import time as _time

    engine = Engine(ed, cfg, pair_filter=pair_filter)
    # a retract has no occurrence time: one without an arrival arrives with
    # the record before it, and the sort is stable on arrival alone
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
    results = []
    idx = 0
    qi = cfg.step
    while qi <= last_q:
        lo = idx
        while idx < len(ordered) and ordered[idx][0] <= qi:
            idx += 1
        if idx > lo:
            engine.ingest(rec for _arrival, rec in ordered[lo:idx])
        t0 = _time.perf_counter()
        results.append(engine.query(qi))
        if timings is not None:
            timings.append((_time.perf_counter() - t0) * 1000.0)
        qi += cfg.step
    return engine, results


def _content_end(rec) -> int:
    if rec.action == "retract":
        return 0  # no content: only its arrival counts towards the horizon
    if rec.kind == "interval":
        return rec.start if rec.end is OPEN else rec.end
    return rec.t
