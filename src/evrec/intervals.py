"""Maximal closed-open interval lists over integer time.

An interval ``(s, e)`` denotes the closed-open set ``[s, e)``.  ``e`` may be
``OPEN`` (no known endpoint), in which case the interval extends indefinitely.
A canonical interval list is sorted by start, pairwise disjoint and
non-abutting, with at most the last element open.  All functions here are
pure and return fresh lists.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import ge
from typing import Iterable, Optional, Sequence

OPEN = None

Timepoint = int
Interval = tuple[Timepoint, Optional[Timepoint]]
IntervalList = list[Interval]


class MalformedIntervalError(ValueError):
    """An interval with start >= end, or a non-canonical list where one is required."""


class IntervalOverlapError(ValueError):
    """amalgamate() received a prefix and fresh part that overlap."""


def _as_inf(end: Optional[Timepoint]) -> float:
    return math.inf if end is OPEN else end


def _from_inf(end: float) -> Optional[Timepoint]:
    return OPEN if end == math.inf else int(end)


def normalize(raw: Iterable[Interval]) -> IntervalList:
    """Canonicalize: sort, merge overlapping and abutting intervals.

    Pointwise membership is preserved.  Raises MalformedIntervalError for an
    interval with start >= end or a negative start.  A list that is canonical
    already, as most inputs are, is only copied.
    """
    given = list(raw)
    if is_canonical(given):
        return given
    items = []
    for s, e in given:
        if s < 0:
            raise MalformedIntervalError(f"negative start in ({s}, {e})")
        if e is not OPEN and s >= e:
            raise MalformedIntervalError(f"empty or inverted interval ({s}, {e})")
        items.append((s, _as_inf(e)))
    items.sort()
    merged: list[list[float]] = []
    for s, e in items:
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(int(s), _from_inf(e)) for s, e in merged]


def is_canonical(intervals: IntervalList) -> bool:
    """Whether `intervals` is a canonical list of (int, int or OPEN) tuples
    with no negative start, the form normalize returns."""
    prev_end = -1
    for item in intervals:
        if type(item) is not tuple:
            return False
        s, e = item
        if type(s) is not int or s <= prev_end:
            return False
        if e is OPEN:
            prev_end = math.inf  # nothing may follow an open interval
        elif type(e) is not int or e <= s:
            return False
        else:
            prev_end = e
    return True


def union_all(lists: Sequence[IntervalList]) -> IntervalList:
    """Maximal intervals of time-points belonging to at least one list."""
    flat: list[Interval] = []
    for lst in lists:
        flat.extend(lst)
    return normalize(flat)


def intersect_all(lists: Sequence[IntervalList]) -> IntervalList:
    """Maximal intervals of time-points belonging to every list.

    An empty collection of lists is rejected: "all time" has no finite
    representation here.
    """
    if not lists:
        raise MalformedIntervalError("intersect_all of an empty list of lists")
    result = normalize(lists[0])
    for lst in lists[1:]:
        result = _intersect_two(result, normalize(lst))
        if not result:
            break
    return result


def _intersect_two(a: IntervalList, b: IntervalList) -> IntervalList:
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        ea, eb = _as_inf(a[i][1]), _as_inf(b[j][1])
        e = min(ea, eb)
        if s < e:
            out.append((s, _from_inf(e)))
        if ea <= eb:
            i += 1
        else:
            j += 1
    return out


def relative_complement_all(base: IntervalList, lists: Sequence[IntervalList]) -> IntervalList:
    """Time-points of `base` that are not part of any list in `lists`."""
    base = normalize(base)
    removed = union_all(lists)
    if not removed:
        return base
    out: list[Interval] = []
    j = 0
    for s, e in base:
        cur = float(s)
        end = _as_inf(e)
        while j < len(removed) and _as_inf(removed[j][1]) <= cur:
            j += 1
        k = j
        while cur < end and k < len(removed) and removed[k][0] < end:
            rs, re = removed[k][0], _as_inf(removed[k][1])
            if rs > cur:
                out.append((int(cur), int(rs)))
            cur = max(cur, re)
            k += 1
        if cur < end:
            out.append((int(cur), _from_inf(end)))
    return out


def holds_at(intervals: IntervalList, t: Timepoint) -> bool:
    """True iff `t` lies inside some interval (closed start, open end)."""
    idx = bisect_right(intervals, t, key=lambda iv: iv[0]) - 1
    if idx < 0:
        return False
    s, e = intervals[idx]
    return e is OPEN or t < e


def clip_before(intervals: IntervalList, t: Timepoint) -> tuple[IntervalList, IntervalList]:
    """Split at t+1: prefix covers points <= t, suffix covers points > t.

    An interval straddling the cut is split, so the suffix begins strictly
    after `t`.  Both halves are canonical.
    """
    cut = t + 1
    prefix: IntervalList = []
    suffix: IntervalList = []
    for s, e in intervals:
        end = _as_inf(e)
        if end <= cut:
            prefix.append((s, e))
        elif s >= cut:
            suffix.append((s, e))
        else:
            prefix.append((s, cut))
            suffix.append((cut, e))
    return prefix, suffix


def amalgamate(prefix: IntervalList, fresh: IntervalList) -> IntervalList:
    """Concatenate a retained prefix with freshly computed intervals.

    An abutting prefix tail and fresh head merge into one maximal interval.
    Overlap between the two parts indicates a bookkeeping bug and raises.
    """
    if prefix and fresh:
        tail_end = _as_inf(prefix[-1][1])
        if tail_end > fresh[0][0]:
            raise IntervalOverlapError(
                f"prefix ends at {prefix[-1][1]} but fresh part starts at {fresh[0][0]}"
            )
    return normalize(list(prefix) + list(fresh))


def start_points(intervals: IntervalList) -> list[Timepoint]:
    return [s for s, _ in intervals]


def end_points(intervals: IntervalList) -> list[Timepoint]:
    return [e for _, e in intervals if e is not OPEN]


def make_intervals(
    starts: Sequence[Timepoint], breaks: Sequence[Timepoint], now: Timepoint
) -> IntervalList:
    """Maximal intervals of a property initiated at `starts` and broken at `breaks`.

    An initiation at Ts makes the property hold on [Ts+1, Tf) where Tf is the
    least break strictly after Ts, or on [Ts+1, OPEN) when no break follows.
    Re-initiations inside a held interval do not split it.  Inputs must be
    strictly ascending.
    """
    for seq, label in ((starts, "starts"), (breaks, "breaks")):
        if any(map(ge, seq, seq[1:])):
            a, b = next((a, b) for a, b in zip(seq, seq[1:]) if a >= b)
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
        i = bisect_left(starts, tf, i)  # skip the re-initiations before tf
    return out

