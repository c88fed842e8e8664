"""Windowed recognition of composite events.

The engine is driven by query times Q1, Q2, ... spaced `step` ticks apart.
At each query it applies buffered input, discards everything that took place
at or before the window start (Qi - wm), and brings every composite fluent up
to date bottom-up by stratification level.  Intervals that crossed the window
boundary are reconnected from the last query's results: a statically
determined fluent keeps the retained prefix and amalgamates it with the fresh
result, a simple fluent keeps only the start point of the crossing interval
and rebuilds the interval from it.

Rules are re-evaluated only from a dirty-from time: the earliest of the time
just after the last query and the earliest time the input applied at this
query changes, but not before the window start.  Before it, and after the
window start, the last query's answers still hold and are reused; the first
point of the window is always evaluated again, because forgetting cuts input
intervals there.  A rule that reads a derived fluent or event, or input at a
time other than its head's, reuses nothing.

`Engine.__init__` refuses a rule pack for which `language.validate` reports
an error, and compiles each rule of any other once into a plan: an ordered
chain of join steps over variable slots, in the order `language.join_order`
gives, each reading its source through an index on the argument positions
bound before it.  The plans rely on validate's checks and repeat none of
them; only an ordering comparison on non-integer values, which depends on
the data, fails at query time.  Terminations are evaluated only for
groundings with an initiation or a kept start, and a holdsFor rule only for
the groundings drawn from its sparsest required input (see README.md).

One engine instance is single-threaded; scale-out is by running independent
instances over disjoint groundings, each fed the complete stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    if mode not in _REPORTED:
        raise ConfigError(f"mode must be one of {MODES}")
    return [e for e in entries if e.stability in _REPORTED[mode]]


def _materialize(ilist: IntervalList, bound: int) -> IntervalList:
    """Replace an OPEN tail by a finite end one past `bound` for set arithmetic."""
    if ilist and ilist[-1][1] is OPEN:
        s = ilist[-1][0]
        if s > bound:
            return ilist[:-1]
        return ilist[:-1] + [(s, bound + 1)]
    return ilist


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
        self.by_id: dict[str, tuple] = {}
        # the earliest time that content added or removed since the owner last
        # reset it covers; forgetting does not count
        self.changed_from = math.inf

    def add_event(self, rec_id: str, name: str, args: tuple, t: int) -> bool:
        if rec_id in self.by_id:
            return False
        self.events.setdefault(name, {}).setdefault(args, []).append((t, rec_id))
        self.by_id[rec_id] = ("event", name, args)
        self.changed_from = min(self.changed_from, t)
        return True

    def add_interval(
        self, rec_id: str, name: str, args: tuple, value, start: int, end: Optional[int]
    ) -> bool:
        if rec_id in self.by_id:
            return False
        slot = self.durative.setdefault(name, {}).setdefault(args, {}).setdefault(value, [])
        slot.append([start, end, rec_id])
        self.by_id[rec_id] = ("interval", name, args, value)
        self.changed_from = min(self.changed_from, start)
        return True

    def remove(self, rec_id: str) -> bool:
        entry = self.by_id.pop(rec_id, None)
        if entry is None:
            return False
        if entry[0] == "event":
            _, name, args = entry
            slot = self.events[name][args]
            self._take(slot, rec_id)
            _drop_empty(self.events[name], args)
        else:
            _, name, args, value = entry
            slot = self.durative[name][args][value]
            self._take(slot, rec_id)
            _drop_empty(self.durative[name][args], value)
            _drop_empty(self.durative[name], args)
        return True

    def _take(self, slot: list, rec_id: str):
        """Remove a record's item, (t, id) or [start, end, id], from its slot."""
        for i, item in enumerate(slot):
            if item[-1] == rec_id:
                del slot[i]
                self.changed_from = min(self.changed_from, item[0])
                return

    def forget(self, boundary: int):
        """Drop all content at or before `boundary`; straddling intervals keep
        only the part strictly after it."""
        for name, per_args in self.events.items():
            for args, slot in list(per_args.items()):
                kept = []
                for t, rec_id in slot:
                    if t > boundary:
                        kept.append((t, rec_id))
                    else:
                        self.by_id.pop(rec_id, None)
                slot[:] = kept
                _drop_empty(per_args, args)
        for name, per_args in self.durative.items():
            for args, per_value in list(per_args.items()):
                for value, slot in list(per_value.items()):
                    kept = []
                    for item in slot:
                        start, end, rec_id = item
                        e = math.inf if end is OPEN else end
                        if e <= boundary + 1:
                            self.by_id.pop(rec_id, None)
                        else:
                            if start <= boundary:
                                item[0] = boundary + 1
                            kept.append(item)
                    slot[:] = kept
                    _drop_empty(per_value, value)
                _drop_empty(per_args, args)

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
        self.dirty = 0  # the dirty-from time of the rule being evaluated
        self.derived: dict[str, dict] = {}  # name -> args -> value -> intervals
        self.events: dict[str, dict] = {}  # name -> args -> times of a derived event
        self.memo: dict[tuple, IntervalList] = {}  # input intervals clipped at Qi
        self.live: set[tuple] = set()  # groundings a termination plan runs over
        self.indexes: dict[tuple, dict] = {}  # emptied after each scheduled item


class _PointPlan:
    """A compiled initiatedAt, terminatedAt or happensAt rule and the
    (head arguments, T) solutions it had at the last query, T in its window."""

    def __init__(self, solve: Callable[[], list], whole: bool):
        self.solve = solve  # fresh solutions, T at the window start or from state.dirty
        # reuses nothing: reads a derived fluent or event, or input at a time
        # other than the head's, which a change after the solution's may move
        self.whole = whole
        self.solutions: list = []
        self.live: set = set()  # the groundings a termination plan last ran over


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
        self.prev_cache: dict[tuple, dict] = {}
        self._prev_derived: dict[str, dict] = {}  # prev_cache by name, as state.derived
        self._dirty = 0  # this query's dirty-from time
        self._cache: dict[tuple, dict] = {}  # (name, args) -> value -> intervals
        self._state = _QueryState(self.store)  # its derived dicts are _cache's by name
        self._domain_indexes: dict[tuple, dict] = {}  # over grounding domains

        heads = {r.head.name for r in ed.rules}
        self._grounded: dict[str, set[tuple]] = {}
        for name in heads:
            tuples = set(ed.grounded_tuples(name))
            decl = ed.declarations.get(name)
            if pair_filter is not None and decl and decl.arity == 2:
                tuples &= pair_filter
            self._grounded[name] = tuples

        self._plans: dict = {kind: {} for kind in (INITIATED, TERMINATED, HOLDS_FOR, HAPPENS)}
        for rule in ed.rules:
            plan = self._compile_sd(rule) if rule.kind == HOLDS_FOR else self._compile_point(rule)
            value = getattr(rule.head, "value", None)
            self._plans[rule.kind].setdefault(rule.head.name, []).append((value, plan))

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
        self._ties = {tie for tie in self._ties if tie[2] > boundary}
        # the last query's answers hold up to its own query time, and up to the
        # earliest change applied now; before the first query nothing is stored
        self._dirty = max(boundary + 1, min(qi - self.cfg.step + 1, self.store.changed_from))
        self.store.changed_from = math.inf

        state = self._state
        state.qi, state.lo = qi, boundary + 1
        self._prev_derived = state.derived
        self._cache, state.derived, state.events, state.memo = {}, {}, {}, {}
        for name, compute in self._schedule:
            compute(self, name)
            state.indexes.clear()  # later items may read what this one wrote

        entries = self._classify(qi)
        reported = select_reported(entries, self.cfg.mode)
        self.prev_cache = self._cache
        self.next_q = qi + self.cfg.step
        return RecognitionResult(qi, entries, reported)

    # -- rule plans ----------------------------------------------------------

    def _compile_point(self, rule: Rule) -> _PointPlan:
        """Compile an initiatedAt, terminatedAt or happensAt rule into a plan
        whose solve() returns its solutions' (head arguments, T) pairs.  Each
        step binds its new variables in a slot list and calls the next step
        once per match."""
        name, head, state = rule.head.name, rule.head.args, self._state
        slots: dict[str, int] = {}
        steps = []
        if rule.kind == TERMINATED:
            # a grounding with neither an initiation nor a kept start cannot
            # hold, so only the live ones need their terminations
            steps.append(_join(lambda: state.live, head, slots, ("live", name), state.indexes))
        steps += [self._step(lit, slots) for lit in join_order(rule)]
        grounded = self._grounded.get(name, set())
        check = name in self.ed.groundings and rule.kind != TERMINATED
        if any(is_var(a) and a not in slots for a in head):
            # the body leaves head variables free: the rule fires for every
            # grounding that matches the bound part
            steps.append(_join(lambda: grounded, head, slots, name, self._domain_indexes))
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
            env = [None] * out + [[]]
            step(env)
            return env[out]

        other_time = any(lit.time != rule.head_var
                         for lit in rule.body if isinstance(lit, (HappensAt, HoldsAt)))
        return _PointPlan(solve, other_time or self._reads_derived(rule))

    def _step(self, lit, slots: dict) -> Callable:
        """Compile one body literal, given the variables bound before it, into
        a function from the next step to this one."""
        state = self._state
        if isinstance(lit, Comparison):
            pair = _builder([(slots[x], None) if is_var(x) else (None, x) for x in terms_of(lit)])
            return lambda nxt: lambda env: _compare(lit.op, *pair(env)) and nxt(env)
        if isinstance(lit, HoldsAt):
            (rows, intervals), tslot = self._fluent(lit.fluent), slots[lit.time]
            join = _join(rows, lit.fluent.args, slots, lit.fluent.name, state.indexes)
            return lambda nxt: join(
                nxt, lambda env, args: iv.holds_at(intervals(args), env[tslot]) and nxt(env)
            )
        event = lit.event
        name = getattr(event, "fluent", event).name
        if isinstance(event, BoundaryEvent):
            rows, intervals = self._fluent(event.fluent)
            which = f"{event.which}_points"
            points = lambda args: getattr(iv, which)(intervals(args))  # noqa: E731
        elif self.ed.kind_of(name) == "input_event":
            rows = lambda: state.store.events.get(name, _NONE)  # noqa: E731
            points = lambda args: [t for t, _id in rows()[args]]  # noqa: E731
        else:
            rows = lambda: state.events.get(name, _NONE)  # noqa: E731
            points = lambda args: rows()[args]  # noqa: E731
        join = _join(rows, terms_of(lit), slots, name, state.indexes)
        bound = lit.time in slots  # before this literal, or by its own arguments
        tslot = slots.setdefault(lit.time, len(slots))

        def make(nxt):
            def expand(env, args):
                # with the time bound, only check that the event happens then;
                # else take the window start and the times from the dirty one on
                first, lo, hi = (env[tslot],) * 3 if bound else (state.lo, state.dirty, state.qi)
                for t in points(args):
                    if t == first or lo <= t <= hi:
                        env[tslot] = t
                        nxt(env)

            return join(nxt, expand)

        return make

    def _fluent(self, fv: FluentValue) -> tuple[Callable, Callable]:
        """rows() of a fluent's argument tuples at this query, each mapped to
        its value -> content dict, and args -> the intervals of fv's value.
        Input intervals are clipped at Qi: the window never looks past it."""
        name, value, state = fv.name, fv.value, self._state
        if not self.ed.is_input(name):
            rows = lambda: state.derived.get(name, _NONE)  # noqa: E731
            return rows, lambda args: rows().get(args, _NONE).get(value, [])

        def clipped(args):
            memo = state.memo.get((name, args, value))
            if memo is None:
                raw = state.store.fluent_intervals(name, args, value)
                memo = state.memo[(name, args, value)] = iv.clip_before(raw, state.qi)[0]
            return memo

        return (lambda: state.store.durative.get(name, _NONE)), clipped

    def _compile_sd(self, rule: Rule) -> tuple:
        """Compile a holdsFor rule into (sources, fits, evaluate, derived):
        evaluate maps a head grounding and a time to the body's intervals from
        that time on (None if a required conjunct is empty there).  A source
        (rows, intervals, arity, to_head, to_key) is a required input whose
        variables are the head's.  derived tells whether the rule reads a
        derived fluent."""
        head, state = rule.head.args, self._state
        first = {t: pos for pos, t in reversed(list(enumerate(head))) if is_var(t)}

        def over_head(terms):
            return _builder([(first[t], None) if is_var(t) else (None, t) for t in terms])

        required = _required_literals(rule)
        body, sources = [], []
        for lit in rule.body:
            if isinstance(lit, HoldsFor):
                (rows, intervals), fv = self._fluent(lit.fluent), lit.fluent
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
                    if needed and not ilist:
                        return None
                    env[lit.interval] = _materialize(ilist, state.qi)
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
        return sources, fits, evaluate, self._reads_derived(rule)

    def _reads_derived(self, rule: Rule) -> bool:
        """Whether the body reads a derived fluent or event, whose answers may
        change anywhere in the window."""
        return any(not self.ed.is_input(read_by(lit).name)
                   for lit in rule.body if isinstance(lit, (HappensAt, HoldsAt, HoldsFor)))

    # -- evaluation ----------------------------------------------------------

    def _slot(self, name: str, args: tuple) -> dict:
        """This query's value -> intervals dict of one grounding."""
        slot = self._cache.setdefault((name, args), {})
        return self._state.derived.setdefault(name, {}).setdefault(args, slot)

    def _solutions(self, plan: _PointPlan, live: Optional[set] = None) -> list:
        """The plan's solutions in the window.  Those after the window start and
        before the dirty-from time are the last query's; the plan runs for the
        others.  A termination plan runs over the `live` groundings, and over
        the whole window for those it did not run over at the last query."""
        state = self._state
        lo, dirty = state.lo, state.lo if plan.whole else self._dirty
        out = [sol for sol in plan.solutions if lo < sol[1] < dirty]
        runs = [(live, dirty)]
        if live is not None:
            out = [sol for sol in out if sol[0] in live]
            runs = [(live & plan.live, dirty), (live - plan.live, lo)]
            plan.live = live
        for state.live, state.dirty in runs:
            out += plan.solve()
            if live is not None:
                state.indexes.clear()  # an index over the live set holds for one run
        plan.solutions = out
        return out

    def _compute_simple_fluent(self, name: str):
        starts: dict[tuple, dict] = {}
        for value, plan in self._plans[INITIATED].get(name, []):
            for args, t in self._solutions(plan):
                starts.setdefault(args, {}).setdefault(value, set()).add(t)
        lo = self._state.lo
        kept: dict[tuple, dict] = {}  # args -> value -> start of a crossing interval
        for args, per_value in self._prev_derived.get(name, {}).items():
            for value, ilist in per_value.items():
                for s, e in ilist:
                    # the initiating point s-1 is gone once it falls at or
                    # before the boundary; the start stands for it
                    if s <= lo and (e is OPEN or e >= lo):
                        kept.setdefault(args, {})[value] = s
        live = starts.keys() | kept.keys()
        terms: dict[tuple, dict] = {}
        for value, plan in self._plans[TERMINATED].get(name, []):
            for args, t in self._solutions(plan, live):
                terms.setdefault(args, {}).setdefault(value, set()).add(t)

        order = self._value_order.get(name, [])
        for args in live:
            per_value = starts.get(args, {})
            # simultaneous initiations of two values: first-declared value wins
            by_time: dict[int, list] = {}
            for value, ts in per_value.items():
                for t in ts:
                    by_time.setdefault(t, []).append(value)
            for t, values in by_time.items():
                if len(values) > 1:
                    values.sort(key=lambda v: order.index(v) if v in order else len(order))
                    for loser in values[1:]:
                        per_value[loser].discard(t)
                    if (name, args, t) not in self._ties:
                        self._ties.add((name, args, t))
                        self.diagnostics.extend(
                            f"simultaneous initiation of {name}{args} values "
                            f"{values[0]!r} and {loser!r} at {t}; kept {values[0]!r}"
                            for loser in values[1:]
                        )
            kept_here = kept.get(args, {})
            result: dict = {}
            for value in list(per_value) + [v for v in kept_here if v not in per_value]:
                st = set(per_value.get(value, ()))
                if value in kept_here:
                    st.add(kept_here[value] - 1)
                br = set(terms.get(args, {}).get(value, ()))
                for other, ts in per_value.items():
                    if other != value:
                        br.update(ts)
                ilist = iv.make_intervals(sorted(st), sorted(br), now=self._state.qi)
                if ilist:
                    result[value] = ilist
            if result:
                self._slot(name, args).update(result)

    def _compute_sd_fluent(self, name: str):
        state, plans = self._state, self._plans[HOLDS_FOR].get(name, [])
        # the rules of one fluent share its result, so one reading a derived
        # fluent makes them all reuse nothing
        dirty = state.lo if any(plan[3] for _value, plan in plans) else self._dirty
        per_args: dict[tuple, dict] = {}
        for value, (sources, fits, evaluate, _derived) in plans:
            for args in self._sd_groundings(name, sources, fits, dirty):
                fresh = evaluate(args, dirty)
                if fresh is not None:
                    slot = per_args.setdefault(args, {})
                    slot[value] = iv.union_all([slot[value], fresh]) if value in slot else fresh
        # the last query's result before the dirty-from time carries over; its
        # part at or before the window start is the retained prefix
        carried: dict[tuple, dict] = {}
        for args, per_value in self._prev_derived.get(name, {}).items():
            for value, ilist in per_value.items():
                part = [(s, e) for s, e in iv.clip_before(ilist, dirty - 1)[0] if e >= state.lo]
                if part:
                    carried.setdefault(args, {})[value] = part
        for args in per_args.keys() | carried.keys():
            fresh, carry, result = per_args.get(args, {}), carried.get(args, {}), {}
            for value in fresh.keys() | carry.keys():
                ilist = _reopen(iv.amalgamate(carry.get(value, []), fresh.get(value, [])), state.qi)
                if ilist:
                    result[value] = ilist
            if result:
                self._slot(name, args).update(result)

    def _sd_groundings(self, name: str, sources: list, fits: Callable, dirty: int) -> list[tuple]:
        """Groundings from the keys of the sparsest source with content from
        the dirty-from time on, else all."""
        grounded = self._grounded.get(name, set())
        if not sources:
            return [args for args in grounded if fits(args)]
        rows, intervals, arity, to_head, to_key = min(sources, key=lambda src: len(src[0]()))
        out = []
        for key in rows():
            if len(key) == arity:
                args = to_head(key)
                if args in grounded and to_key(args) == key:
                    ilist = intervals(key)
                    if ilist and (ilist[-1][1] is OPEN or ilist[-1][1] > dirty):
                        out.append(args)
        return out

    def _compute_events(self, name: str):
        occurrences: dict[tuple, set[int]] = {}
        for _value, plan in self._plans[HAPPENS].get(name, []):
            for args, t in self._solutions(plan):
                occurrences.setdefault(args, set()).add(t)
        self._state.events[name] = {args: sorted(ts) for args, ts in occurrences.items()}

    # -- reporting -----------------------------------------------------------

    def _classify(self, qi: int) -> list[ResultEntry]:
        next_boundary = qi + self.cfg.step - self.cfg.wm
        entries = []
        for (name, args), per_value in self._cache.items():
            for value, ilist in per_value.items():
                for s, e in ilist:
                    if e is OPEN:
                        stability = "open"
                    elif e <= next_boundary:
                        stability = "final"
                    elif s <= next_boundary:
                        stability = "partial"
                    else:
                        # both bounds may still be retracted: least stable class
                        stability = "open"
                    entries.append(ResultEntry(name, args, value, s, e, stability))
        entries.sort(key=lambda en: (en.name, en.args, str(en.value), en.start))
        return entries


# ---------------------------------------------------------------------------
# Plan building blocks

_NONE: dict = {}  # the empty mapping that lookups fall back to; never written


def _builder(parts: list) -> Callable:
    """A function from a sequence (a slot list or a grounding) to a tuple
    with one item per part: (index, _) reads the sequence, (None, c) is c."""
    if any(index is None for index, _c in parts) or len(parts) < 2:
        return lambda seq: tuple([c if index is None else seq[index] for index, c in parts])
    return itemgetter(*(index for index, _c in parts))


def _join(rows: Callable, terms: tuple, slots: dict, tag, indexes: dict):
    """The step over the tuples of rows() that agree with the bound ones among
    `terms`: one probe when all are bound, else a lookup in an index by the bound
    positions.  Per tuple it binds the new variables, then calls expand or next."""
    key, binds, same = _split(terms, slots)
    arity, positions = len(terms), tuple(pos for pos, _s, _c in key)
    build, tag = _builder([(slot, c) for _pos, slot, c in key]), (tag, positions)

    def find(env):
        if len(positions) == arity:
            args = build(env)
            return (args,) if args in rows() else ()
        index = indexes.get(tag)
        if index is None:
            index = indexes[tag] = {}
            for args in rows():
                if len(args) == arity:
                    index.setdefault(tuple([args[p] for p in positions]), []).append(args)
        return index.get(build(env), ())

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
